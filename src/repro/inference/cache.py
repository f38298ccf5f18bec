"""Version-keyed embedding cache.

Deterministic all-node embeddings depend on exactly two things: the encoder's
parameters and the graph.  :class:`ParamVersion` captures both identities —
the encoder instance plus its monotonic
:meth:`~repro.nn.layers.Module.parameter_version` counter (bumped by every
optimizer step and ``load_state_dict``) — so a cached result can be reused
if and only if nothing observable has changed.  Stale reuse is structurally
impossible: any parameter update changes the counter, and the graph is held
by weak reference so a freshly built graph at a recycled address can never
alias the cached one.

The cache is safe under concurrent readers: the entry is an immutable tuple
swapped atomically under a lock, lookups take a consistent snapshot, and the
hit/miss counters are incremented under the same lock — a precondition for
the long-lived serving layer (:mod:`repro.serve`), where many request
threads read while a single writer refreshes.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..nn.layers import Module
from ..obs import REGISTRY

_CACHE_EVENTS = REGISTRY.counter(
    "repro_inference_cache_events_total",
    "Embedding-cache outcomes, by event (hit/miss/store/invalidate).",
    labelnames=("event",))


class ParamVersion:
    """Snapshot of a module's parameter state at a point in time.

    Two snapshots compare equal when they refer to the *same live module*
    with the *same parameter version counter*.  The module is held weakly,
    so a snapshot never keeps a model alive, and a dead referent never
    matches anything.  The referent's identity is captured **at
    construction**, so the hash is stable for the snapshot's whole lifetime
    even after the module is garbage-collected (a hash computed from
    ``id(self._module_ref())`` would silently flip to ``id(None)`` at
    collection time, corrupting any dict/set keyed by the snapshot).
    """

    __slots__ = ("_module_ref", "_module_id", "counter")

    def __init__(self, module: Module):
        self._module_ref = weakref.ref(module)
        self._module_id = id(module)
        self.counter = module.parameter_version()

    @property
    def module(self) -> Optional[Module]:
        return self._module_ref()

    def is_current(self) -> bool:
        """Whether the referenced module still has this parameter version."""
        module = self._module_ref()
        return module is not None and module.parameter_version() == self.counter

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVersion):
            return NotImplemented
        mine, theirs = self._module_ref(), other._module_ref()
        return mine is not None and mine is theirs and self.counter == other.counter

    def __hash__(self) -> int:
        return hash((self._module_id, self.counter))

    def __repr__(self) -> str:
        module = self._module_ref()
        target = type(module).__name__ if module is not None else "<dead>"
        return f"ParamVersion({target}, counter={self.counter})"


#: One cache entry: (param version, graph weakref, graph cache_version, value).
_CacheEntry = Tuple[ParamVersion, "weakref.ref", int, np.ndarray]


class EmbeddingCache:
    """Single-entry cache of all-node embeddings keyed by :class:`ParamVersion`.

    One entry suffices because the trainer loop alternates between parameter
    updates and bursts of reads (pseudo-label refresh, evaluation,
    prediction) against the *current* parameters; anything older is dead by
    construction.  The graph is keyed by identity **and**
    :attr:`~repro.graphs.graph.Graph.cache_version`, so the documented
    in-place mutation path (reassign fields + ``invalidate_caches()``) also
    invalidates this cache.  The cached array is returned with
    ``writeable=False`` so an accidental in-place edit by a consumer raises
    instead of silently corrupting every other consumer of the same epoch.
    """

    def __init__(self):
        self._entry: Optional[_CacheEntry] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock

    def lookup(self, encoder: Module, graph: Graph) -> Optional[np.ndarray]:
        """Return the cached embeddings, or None on any mismatch."""
        with self._lock:
            entry = self._entry
            if (
                entry is not None
                and entry[1]() is graph
                and getattr(graph, "cache_version", 0) == entry[2]
                and entry[0].is_current()
                and entry[0].module is encoder
            ):
                self.hits += 1
                result = entry[3]
            else:
                self.misses += 1
                result = None
        # Registry increments happen outside _lock: obs instrument locks
        # are leaves and never nest under component locks.
        _CACHE_EVENTS.inc(event="hit" if result is not None else "miss")
        return result

    def store(  # returns-frozen
        self,
        encoder: Module,
        graph: Graph,
        embeddings: np.ndarray,
        *,
        copy: bool = True,
    ) -> np.ndarray:
        """Cache ``embeddings`` for the encoder's current parameter version.

        The cached array is frozen (``writeable=False``), so the cache must
        own it: with ``copy=True`` (the default) a writeable ndarray input
        is copied first, leaving the caller's array untouched.  Pass
        ``copy=False`` only when handing over ownership of a freshly
        computed array with no other live references — then the freeze is
        free.
        """
        embeddings = np.asarray(embeddings)
        if copy and embeddings.flags.writeable:
            embeddings = embeddings.copy()
        embeddings.setflags(write=False)
        entry: _CacheEntry = (
            ParamVersion(encoder),
            weakref.ref(graph),
            getattr(graph, "cache_version", 0),
            embeddings,
        )
        with self._lock:
            self._entry = entry
        _CACHE_EVENTS.inc(event="store")
        return embeddings

    def stale_entry(self, encoder: Module, graph: Graph) -> Optional[Tuple[np.ndarray, int]]:
        """The entry for this encoder/graph pair *ignoring the graph version*.

        The partial-refresh path (``InferenceEngine.refresh_after_delta``)
        needs the embeddings computed for the *previous* graph version as its
        patch base: same live encoder at the same parameter version, same
        graph identity, but a ``cache_version`` that has since moved.
        Returns ``(embeddings, cached_graph_version)`` or ``None``; does not
        count as a hit or miss (it is bookkeeping, not a serving lookup).
        """
        with self._lock:
            entry = self._entry
            if (
                entry is not None
                and entry[1]() is graph
                and entry[0].is_current()
                and entry[0].module is encoder
            ):
                return entry[3], entry[2]
            return None

    def entry(self) -> Optional[_CacheEntry]:
        """The current entry, for :meth:`restore` to put back."""
        with self._lock:
            return self._entry

    def restore(self, entry: Optional[_CacheEntry]) -> None:
        """Put back an entry taken by :meth:`entry` (the counters are kept)."""
        with self._lock:
            self._entry = entry

    def invalidate(self) -> None:
        """Drop the cached entry (the hit/miss counters are kept)."""
        with self._lock:
            self._entry = None
            self.invalidations += 1
        _CACHE_EVENTS.inc(event="invalidate")

    def stats(self) -> dict:
        """A consistent (hits, misses) snapshot plus the derived hit rate."""
        with self._lock:
            hits, misses = self.hits, self.misses
            invalidations = self.invalidations
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "invalidations": invalidations,
        }
