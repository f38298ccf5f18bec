"""Open-loop HTTP load generation and server process control for perfbench.

The generator sends every job at its due time whatever the server is doing,
over at most ``connections`` keep-alive connections with one thread each.
A job that is due while every connection is busy waits, and its latency is
measured from when it was due, so a stalled server is charged for the queue
it builds.  The generator's own lag (sending later than due although a
connection was free) is recorded separately as a health check on the
generator itself.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

#: A job's exchange on one connection; raises :class:`RequestFailed` when
#: its primary request fails.
Exchange = Callable[["Connection"], object]


class RequestFailed(RuntimeError):
    """A refused, failed, timed-out or non-2xx request."""


class Connection:
    """One keep-alive HTTP connection that records when its request left."""

    def __init__(self, host: str, port: int, timeout: float):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        #: When the current job's primary request left and its response came back.
        self.sent: Optional[float] = None
        self.received: Optional[float] = None
        #: Service time of every ``POST /predict`` (send to response).
        self.predict_service: List[float] = []
        self.attempted = 0
        self.failed = 0

    def post(self, path: str, body: dict, primary: bool = True) -> dict:
        """POST ``body`` as JSON; ``primary`` marks the job's timed request."""
        data = json.dumps(body).encode()
        self.attempted += 1
        started = time.perf_counter()
        if primary:
            self.sent = started
        try:
            self._conn.request("POST", path, body=data,
                               headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.failed += 1
            self._conn.close()
            raise RequestFailed(f"{path}: {exc!r}") from exc
        finished = time.perf_counter()
        if primary:
            self.received = finished
        if path == "/predict":
            self.predict_service.append(finished - started)
        if response.status != 200:
            self.failed += 1
            raise RequestFailed(f"{path}: HTTP {response.status} {raw[:200]!r}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            self.failed += 1
            raise RequestFailed(f"{path}: undecodable response {raw[:200]!r}") from exc

    def close(self) -> None:
        self._conn.close()


@dataclass
class Job:
    kind: str
    offset: float  # seconds after the schedule starts
    exchange: Exchange


@dataclass
class Outcome:
    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    lag: float  # sent - max(due, moment this connection became free)
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class LoadResult:
    outcomes: List[Outcome]
    attempted: int
    failed: int
    predict_service: List[float] = field(default_factory=list)

    def of(self, kind: str) -> List[Outcome]:
        return [o for o in self.outcomes if o.kind == kind]


def run_open_loop(host: str, port: int, jobs: Sequence[Job], connections: int,
                  timeout: float) -> LoadResult:
    """Send ``jobs`` (sorted by offset) open-loop; return every outcome.

    A failed job keeps its latency measured to the moment it failed, but
    never less than ``timeout``, so it misses any latency limit.  A job
    still waiting for a connection when it is overdue by more than
    ``timeout`` fails without being sent.
    """
    jobs = sorted(jobs, key=lambda job: job.offset)
    outcomes: List[Optional[Outcome]] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    cursor_lock = threading.Lock()
    conns = [Connection(host, port, timeout) for _ in range(max(1, connections))]
    start = time.perf_counter() + 0.05

    def worker(conn: Connection) -> None:
        free_at = start
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            job = jobs[index]
            due = start + job.offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            conn.sent = conn.received = None
            error = None
            if time.perf_counter() - due > timeout:
                # No answer could come in time any more; sending anyway
                # would let a stalled server stretch the run by a timeout
                # per job.
                conn.attempted += 1
                conn.failed += 1
                error = "not sent: overdue by more than the timeout"
            else:
                try:
                    job.exchange(conn)
                except RequestFailed as exc:
                    error = str(exc)
                except (KeyError, TypeError) as exc:  # a 200 without the expected fields
                    conn.failed += 1
                    error = f"malformed response: {exc!r}"
            done = conn.received if conn.received is not None else time.perf_counter()
            sent = conn.sent if conn.sent is not None else done
            if error is not None:
                done = max(done, due + timeout)
            outcomes[index] = Outcome(job.kind, due, sent, done, error is None,
                                      sent - max(due, free_at), error)
            free_at = time.perf_counter()

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()
    service = [s for conn in conns for s in conn.predict_service]
    return LoadResult([o for o in outcomes if o is not None],
                      sum(c.attempted for c in conns), sum(c.failed for c in conns),
                      service)


# ----------------------------------------------------------------------
# Server process control
# ----------------------------------------------------------------------
_ADDRESS = re.compile(r"http://([0-9.]+):(\d+)")


class ServerProcess:
    """A ``repro serve``-style child process bound to a free port.

    ``argv`` must make the server print its ``http://host:port`` address on
    one line once it accepts requests, and ``"server stopped"`` after a
    graceful SIGTERM shutdown.  Use as a context manager so the process is
    always stopped and reaped.
    """

    def __init__(self, argv: Sequence[str], cwd: str, env: dict,
                 ready_timeout: float = 90.0):
        self.argv = list(argv)
        self.cwd = cwd
        self.env = env
        self.ready_timeout = ready_timeout
        self.lines: List[str] = []
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.returncode: Optional[int] = None
        self._process: Optional[subprocess.Popen] = None
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> "ServerProcess":
        self._process = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(self.ready_timeout) or self.port is None:
            self.stop()
            raise RuntimeError("server did not report its address:\n"
                               + "".join(self.lines[-20:]))
        # The address is printed before the serve loop (and its SIGTERM
        # handler) is up; ready means answering.
        try:
            self.get("/health", timeout=self.ready_timeout)
        except (OSError, http.client.HTTPException, RuntimeError):
            self.stop()
            raise
        return self

    def _read(self) -> None:
        for line in self._process.stdout:
            self.lines.append(line)
            match = _ADDRESS.search(line)
            if match and self.port is None:
                self.host, self.port = match.group(1), int(match.group(2))
                self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        return self._process.pid

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MB."""
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def get(self, path: str, timeout: float = 30.0) -> str:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read().decode()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return body

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM, wait, and report whether the shutdown was clean."""
        process = self._process
        if process is None or self.returncode is not None:
            return self.clean
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if self._reader is not None:
            self._reader.join(timeout)
        self.returncode = process.returncode
        return self.clean

    @property
    def clean(self) -> bool:
        return self.returncode == 0 and any("server stopped" in line
                                            for line in self.lines)

    def __enter__(self) -> "ServerProcess":
        return self if self._process is not None else self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


_SAMPLE = re.compile(r'^(\w+)\{endpoint="([^"]*)"\} (\S+)$')


def histogram_mean(prometheus_text: str, metric: str, endpoint: str) -> float:
    """Mean of a labelled Prometheus histogram (``_sum`` over ``_count``)."""
    totals = {}
    for line in prometheus_text.splitlines():
        match = _SAMPLE.match(line)
        if match and match.group(2) == endpoint:
            totals[match.group(1)] = float(match.group(3))
    count = totals.get(f"{metric}_count", 0.0)
    return totals.get(f"{metric}_sum", 0.0) / count if count else 0.0
