# repro-lint: skip-file  (deliberate violation: R9 demo)
"""Closure worker handed to a process pool for the R9 lint demo.

Static rule R9 flags both call sites below (run the linter with excludes
disabled to see them).  Executing :func:`provoke_closure_worker` against a
``concurrent.futures.ProcessPoolExecutor`` fails when the workers are
pickled — nothing checks them up front, and a caller that recovers from
pool failures by re-running serially (as the experiment grid does) hides
the failure entirely.
"""

from __future__ import annotations

from typing import List


def provoke_closure_worker(executor, items: List[int]) -> list:
    """Submit a locally nested worker (and a lambda) to a pool executor.

    Both workers close over ``offset``, so neither pickles to a process
    pool.
    """
    offset = 1

    def shifted(item):
        return item + offset

    results = list(executor.map(shifted, items))
    results += executor.map(lambda item: item + offset, items)
    return results
