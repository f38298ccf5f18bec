"""The ``repro serve`` subcommand: parsing and a real subprocess round-trip."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments.cli import build_parser
from repro.serve import ServeClient, blas_threads

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestParsing:
    def test_defaults(self, tmp_path):
        args = build_parser().parse_args(["serve", str(tmp_path)])
        assert args.checkpoint == str(tmp_path)
        assert args.host == "127.0.0.1"
        assert args.port == 8741
        assert args.batch_window_ms == 2.0
        assert args.max_batch == 1024
        assert not args.no_warm
        assert args.overrides == []

    def test_all_options(self, tmp_path):
        args = build_parser().parse_args([
            "serve", str(tmp_path), "--host", "0.0.0.0", "--port", "0",
            "--batch-window-ms", "5", "--max-batch", "64", "--no-warm",
            "--set", "inference.mode=layerwise",
            "--set", "clustering.strategy=minibatch",
        ])
        assert args.port == 0
        assert args.batch_window_ms == 5.0
        assert args.max_batch == 64
        assert args.no_warm
        assert len(args.overrides) == 2


class TestSubprocessRoundTrip:
    def test_serve_query_sigterm(self, served_checkpoint):
        """Start the real CLI server, query it, and shut it down with SIGTERM."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             str(served_checkpoint), "--port", "0", "--batch-window-ms", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address in startup banner: {banner!r}"
            client = ServeClient(host=match.group(1), port=int(match.group(2)))
            client.wait_until_ready(timeout=30)
            single = client.predict(0)
            assert single["node"] == 0
            batch = client.predict_batch([0, 1, 2])
            assert batch[0] == single
            stats = client.stats()
            assert stats["latency"]["requests"] >= 2
            if blas_threads() is not None:
                # `repro serve` pins numpy's OpenBLAS to one thread.
                assert stats["blas_threads"] == 1
            client.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "server stopped" in output
