# repro-lint: skip-file  (quarantined: every module here violates a contract
# on purpose so tests can prove the runtime sanitizers actually fire)
"""Seeded contract violations — sanitizer demos, not production code.

Each module provokes exactly one runtime sanitizer:

* :mod:`.lock_order` — acquires two locks in both orders
  (:class:`~repro.analysis.sanitizers.LockOrderViolation`).
* :mod:`.frozen` — re-enables writes on a cache-published array
  (:class:`~repro.analysis.sanitizers.WriteAfterFreezeError`).
* :mod:`.global_rng` — draws from numpy's global RNG inside the ``repro``
  namespace (:class:`~repro.analysis.sanitizers.GlobalRNGViolation`).
* :mod:`.parallel_closure` — hands a closure worker to a pool executor
  (static rule R9; the workers fail to pickle to a process pool).

The package is excluded from ``repro lint`` by default
(:data:`repro.analysis.framework.DEFAULT_EXCLUDES`) precisely because the
static rules *do* flag it — ``tests/analysis`` asserts both the exclusion
and the findings.  Never import these helpers from production code.
"""

from .frozen import provoke_store_input_freeze, provoke_write_after_freeze
from .global_rng import provoke_global_rng
from .lock_order import provoke_lock_order_inversion
from .parallel_closure import provoke_closure_worker

__all__ = [
    "provoke_lock_order_inversion",
    "provoke_write_after_freeze",
    "provoke_store_input_freeze",
    "provoke_global_rng",
    "provoke_closure_worker",
]
