"""Pluggable clustering engine: strategy-based refresh with carried state.

Every pseudo-label refresh and two-stage prediction used to call the Lloyd
K-Means path directly — an O(n * k * d * iters) scan over all N embeddings
per refresh, and the last stage wired as bare function calls rather than a
configured subsystem.  :class:`ClusteringEngine` puts the stage behind
:class:`repro.core.config.ClusteringConfig` with three strategies sharing one
interface:

``exact``
    Full Lloyd :class:`~repro.clustering.kmeans.KMeans` with k-means++
    restarts at the trainer's seed.  :meth:`ClusteringEngine.cluster` can
    swap in Sculley MiniBatch-KMeans per call (``mini_batch=True``), as
    OpenIMA's large-scale prediction does.

``minibatch``
    Fits MiniBatch-KMeans on at most ``sample_size`` sampled embeddings,
    then runs one full chunked assignment pass — O(sample * k * d * iters +
    n * k * d) instead of O(n * k * d * iters).

``online``
    Streams Sculley-style convex centroid updates over embedding chunks
    (the same row-chunking discipline as the layer-wise inference engine)
    and carries both centroids and running cluster counts across refreshes,
    so each refresh costs one streaming update pass plus one assignment
    pass — two O(n * k * d) scans that refine the previous clustering
    instead of re-running Lloyd iterations from scratch.

The engine has two entry points with different statefulness contracts:

* :meth:`refresh` — the *training-loop* path (pseudo-label refresh).  It is
  stateful: the persistent RNG advances, and the ``online`` strategy
  carries its centroids and counts between calls.
* :meth:`cluster` — the *inference* path (two-stage prediction, baseline
  OOD post-clustering).  It is stateless and deterministic in its ``seed``
  argument: calling it never reads or mutates the carried state, so
  mid-training evaluation callbacks cannot perturb the training trajectory.

:meth:`state_dict` / :meth:`load_state_dict` round-trip the carried state
(centroids, online counts, RNG and counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..obs import REGISTRY, span
from .kmeans import (
    KMeans,
    KMeansResult,
    MiniBatchKMeans,
    _assign_labels,
    _row_norms,
    _sculley_update,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import ClusteringConfig

_REFRESH_SECONDS = REGISTRY.histogram(
    "repro_cluster_refresh_seconds",
    "Wall time of one clustering refresh, by strategy.",
    labelnames=("strategy",))
_REFRESHES = REGISTRY.counter(
    "repro_cluster_refreshes_total",
    "Clustering refreshes run by the training loop and the stream.")
_ITERATIONS = REGISTRY.histogram(
    "repro_cluster_iterations",
    "Lloyd/Sculley iterations run by one refresh's fit.",
    buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256))
_BIRTHS = REGISTRY.counter(
    "repro_cluster_births_total",
    "Clusters born via the streaming silhouette trigger.")

#: Discount applied to the online strategy's running cluster counts at the
#: start of every warm refresh.  Without it the Sculley learning rate decays
#: toward zero across refreshes and the centroids freeze while the embeddings
#: are still drifting during training; halving the accumulated mass keeps the
#: update responsive while still favoring the carried centroids.
ONLINE_COUNT_DECAY = 0.5

#: Sculley mini-batch size of every MiniBatch-KMeans fit the engine runs.
MINI_BATCH_SIZE = 1024


@dataclass
class ClusteringOutcome:
    """One engine refresh: the clustering plus how it was produced.

    Attributes
    ----------
    result:
        The clustering itself (labels, centers, inertia).
    strategy:
        The configured strategy that produced it.
    births:
        Ids of clusters born during this refresh (``config.birth_threshold``;
        empty for every non-birthing refresh).
    """

    result: KMeansResult
    strategy: str
    births: Tuple[int, ...] = ()


class ClusteringEngine:
    """Strategy-based clustering refresh behind a :class:`ClusteringConfig`.

    Parameters
    ----------
    config:
        The strategy configuration; ``None`` uses the defaults (``exact``).
    seed:
        The trainer's seed: it seeds the persistent RNG and is the default
        seed of :meth:`cluster`.
    """

    def __init__(self, config: Optional["ClusteringConfig"] = None, *,
                 seed: int = 0):
        if config is None:
            # Imported lazily: repro.core.trainer imports this package, so a
            # module-level import of repro.core.config would be circular.
            from ..core.config import ClusteringConfig

            config = ClusteringConfig()
        self.config = config
        self.base_seed = int(seed)
        #: Persistent RNG driving the stateful refresh path (minibatch
        #: sampling, online streaming); checkpointed via state_dict.
        self.rng = np.random.default_rng(self.base_seed)
        self._centers: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._num_clusters: Optional[int] = None
        #: Total refresh() calls.
        self.refresh_count = 0
        #: Clusters born via the silhouette trigger (birth_threshold).
        self.birth_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def carries_state(self) -> bool:
        """Whether refreshes carry centroids forward (the ``online`` strategy)."""
        return self.config.strategy == "online"

    @property
    def centers(self) -> Optional[np.ndarray]:  # returns-frozen
        """The carried centroids (read-only view), or ``None``.

        The view is non-writeable so a caller cannot silently corrupt the
        carried state; copy before mutating.
        """
        if self._centers is None:
            return None
        view = self._centers.view()
        view.setflags(write=False)
        return view

    # ------------------------------------------------------------------
    # Stateful refresh (training loop)
    # ------------------------------------------------------------------
    def refresh(self, embeddings: np.ndarray, num_clusters: int,
                allow_birth: bool = False) -> ClusteringOutcome:
        """Cluster ``embeddings`` for a pseudo-label refresh.

        ``allow_birth`` opts this call into the streaming cluster-birth
        check (``config.birth_threshold``) and makes ``num_clusters`` a
        *floor* rather than an exact count.  The training loop never sets
        it: pseudo-label generation aligns exactly ``num_clusters`` cluster
        ids, so a mid-training birth would hand it an id it cannot map.
        """
        strategy = self.config.strategy
        with _REFRESH_SECONDS.time(strategy=strategy), \
                span("cluster.refresh", strategy=strategy):
            outcome = self._refresh_inner(embeddings, num_clusters, allow_birth)
        _REFRESHES.inc()
        _ITERATIONS.observe(outcome.result.n_iter)
        if outcome.births:
            _BIRTHS.inc(len(outcome.births))
        return outcome

    def _refresh_inner(self, embeddings: np.ndarray, num_clusters: int,
                       allow_birth: bool) -> ClusteringOutcome:
        data = np.asarray(embeddings, dtype=np.float64)
        num_clusters = int(num_clusters)
        allow_birth = allow_birth and self.config.birth_threshold is not None
        if (allow_birth
                and self._num_clusters is not None
                and self._num_clusters > num_clusters):
            # Births persist: once the engine has grown past the requested
            # cluster count, the request is a floor, not a reset.
            num_clusters = self._num_clusters
        state_valid = (
            self.carries_state
            and self._centers is not None
            and self._num_clusters == num_clusters
            and self._centers.shape[1] == data.shape[1]
        )
        initial = self._centers if state_valid else None
        counts = self._counts if state_valid else None
        result, counts = self._fit(data, num_clusters, initial_centers=initial,
                                   counts=counts, rng=self.rng)
        births: Tuple[int, ...] = ()
        if allow_birth:
            result, counts, births = self._maybe_birth(data, result, counts)
        if self.carries_state:
            self._centers = result.centers.copy()
            self._counts = counts
            self._num_clusters = result.centers.shape[0]
        self.refresh_count += 1
        return ClusteringOutcome(result, self.config.strategy, births=births)

    # ------------------------------------------------------------------
    # Stateless clustering (inference)
    # ------------------------------------------------------------------
    def cluster(self, embeddings: np.ndarray, num_clusters: int,
                seed: Optional[int] = None, n_init: Optional[int] = None,
                mini_batch: bool = False,
                initial_centers: Optional[np.ndarray] = None) -> KMeansResult:
        """One-shot clustering under the configured strategy.

        Deterministic in ``seed`` (default: the trainer's seed) and
        side-effect free: the carried state and persistent RNG are never
        touched, so prediction during training cannot perturb the refresh
        sequence.  ``n_init`` overrides the ``exact`` strategy's restart
        count, and ``mini_batch=True`` makes it fit Sculley MiniBatch-KMeans
        instead; the other strategies ignore both.
        """
        data = np.asarray(embeddings, dtype=np.float64)
        num_clusters = int(num_clusters)
        seed = self.base_seed if seed is None else int(seed)
        rng = np.random.default_rng(seed)
        strategy = self.config.strategy
        if strategy == "exact":
            return self._exact_fit(data, num_clusters, initial_centers,
                                   seed=seed, n_init=n_init, mini_batch=mini_batch)
        if strategy == "minibatch":
            return self._minibatch_fit(data, num_clusters, initial_centers, rng)
        result, _ = self._online_fit(data, num_clusters, initial_centers, None, rng)
        return result

    # ------------------------------------------------------------------
    # Strategy implementations
    # ------------------------------------------------------------------
    def _fit(self, data: np.ndarray, num_clusters: int,
             initial_centers: Optional[np.ndarray], counts: Optional[np.ndarray],
             rng: np.random.Generator) -> Tuple[KMeansResult, Optional[np.ndarray]]:
        strategy = self.config.strategy
        if strategy == "exact":
            return self._exact_fit(data, num_clusters, initial_centers,
                                   seed=self.base_seed), None
        if strategy == "minibatch":
            return self._minibatch_fit(data, num_clusters, initial_centers, rng), None
        return self._online_fit(data, num_clusters, initial_centers, counts, rng)

    def _exact_fit(self, data: np.ndarray, num_clusters: int,
                   initial_centers: Optional[np.ndarray], seed: int,
                   n_init: Optional[int] = None,
                   mini_batch: bool = False) -> KMeansResult:
        if mini_batch:
            return MiniBatchKMeans(
                num_clusters, batch_size=MINI_BATCH_SIZE, seed=seed,
            ).fit(data, initial_centers=initial_centers)
        restarts = 3 if n_init is None else int(n_init)
        return KMeans(num_clusters, seed=seed, n_init=restarts).fit(
            data, initial_centers=initial_centers)

    def _sample_rows(self, data: np.ndarray, num_clusters: int,
                     rng: np.random.Generator) -> np.ndarray:
        """At most ``sample_size`` rows (sorted indices keep data locality)."""
        num_samples = data.shape[0]
        sample_size = min(num_samples, max(int(self.config.sample_size), num_clusters))
        if sample_size >= num_samples:
            return data
        indices = rng.choice(num_samples, size=sample_size, replace=False)
        return data[np.sort(indices)]

    def _cold_start_centers(self, sample: np.ndarray, num_clusters: int,
                            rng: np.random.Generator) -> np.ndarray:
        """Robust initial centroids: best-of-3 short Lloyd runs on a sample.

        O(sample_size * k * d) regardless of n.  A single k-means++ seeding
        misses a cluster often enough (squared-distance weighting is diluted
        by high-dimensional within-cluster noise) that one-init strategies
        land in merged/split optima; three restarts scored by inertia make
        that failure mode cubically unlikely.
        """
        cold_seed = int(rng.integers(np.iinfo(np.int64).max))
        return KMeans(num_clusters, seed=cold_seed, n_init=3,
                      max_iter=10).fit(sample).centers

    def _minibatch_fit(self, data: np.ndarray, num_clusters: int,
                       initial_centers: Optional[np.ndarray],
                       rng: np.random.Generator) -> KMeansResult:
        if data.shape[0] < num_clusters:
            raise ValueError(
                f"cannot form {num_clusters} clusters from {data.shape[0]} samples")
        sample = self._sample_rows(data, num_clusters, rng)
        if initial_centers is None:
            initial_centers = self._cold_start_centers(sample, num_clusters, rng)
        fit_seed = int(rng.integers(np.iinfo(np.int64).max))
        # Starting from Lloyd-warmed (or carried) centers, the Sculley pass
        # only needs ~two epochs over the sample — the default 100 batches
        # would dominate the whole refresh for moderate sample sizes.
        iterations = max(10, -(-2 * sample.shape[0] // MINI_BATCH_SIZE))
        fitted = MiniBatchKMeans(
            num_clusters, batch_size=MINI_BATCH_SIZE, seed=fit_seed,
            max_iter=iterations,
        ).fit(sample, initial_centers=initial_centers)
        if sample is data:
            # No subsampling happened, so the fit's own final assignment
            # already covers every row — rescanning would double the
            # dominant O(n * k * d) post-fit cost.
            return fitted
        return self._reassign(data, fitted.centers)

    def _online_fit(self, data: np.ndarray, num_clusters: int,
                    initial_centers: Optional[np.ndarray],
                    counts: Optional[np.ndarray],
                    rng: np.random.Generator) -> Tuple[KMeansResult, np.ndarray]:
        num_samples = data.shape[0]
        if num_samples < num_clusters:
            raise ValueError(
                f"cannot form {num_clusters} clusters from {num_samples} samples")
        if initial_centers is None:
            # Cold start on a sample: the streaming updates only move
            # centers within their captured region, so the initial topology
            # must already be right (see _cold_start_centers).
            seed_pool = self._sample_rows(data, num_clusters, rng)
            centers = self._cold_start_centers(seed_pool, num_clusters, rng)
            counts = np.zeros(num_clusters, dtype=np.float64)
        else:
            centers = np.array(initial_centers, dtype=np.float64, copy=True)
            counts = (np.zeros(num_clusters, dtype=np.float64) if counts is None
                      else np.asarray(counts, dtype=np.float64).copy())
            counts *= ONLINE_COUNT_DECAY
        data_sq = _row_norms(data)
        chunk = int(self.config.reassign_chunk_size)
        for start in range(0, num_samples, chunk):
            rows = slice(start, start + chunk)
            assignments, _ = _assign_labels(data[rows], centers, data_sq=data_sq[rows])
            _sculley_update(centers, counts, data[rows], assignments, num_clusters)
        return self._reassign(data, centers, data_sq), counts

    # ------------------------------------------------------------------
    # Cluster birth (streaming open-world)
    # ------------------------------------------------------------------
    def _maybe_birth(self, data: np.ndarray, result: KMeansResult,
                     counts: Optional[np.ndarray]) -> Tuple[KMeansResult, Optional[np.ndarray], Tuple[int, ...]]:
        """Split the worst cluster when its silhouette degrades past the
        threshold (at most one birth per refresh).

        The silhouette is computed on a deterministic ``birth_sample_size``
        subsample (seeded from the persistent RNG, so the trigger
        checkpoints with the engine).  A degraded cluster is split with a
        seeded 2-means over its members; the worst cluster's centroid is
        replaced by one half and the other half becomes a new cluster id,
        the online running counts are divided by member share, and a full
        reassignment republishes every label.
        """
        from .metrics import per_cluster_silhouette

        num_clusters = result.centers.shape[0]
        if (self.config.max_clusters is not None
                and num_clusters >= int(self.config.max_clusters)):
            return result, counts, ()
        sizes = np.bincount(result.labels, minlength=num_clusters)
        scores = per_cluster_silhouette(
            data, result.labels,
            sample_size=int(self.config.birth_sample_size),
            seed=int(self.rng.integers(np.iinfo(np.int64).max)),
        )
        eligible = [(score, cluster) for cluster, score in sorted(scores.items())
                    if sizes[cluster] >= int(self.config.birth_min_size)]
        if not eligible:
            return result, counts, ()
        worst_score, worst = min(eligible)
        if worst_score >= float(self.config.birth_threshold):
            return result, counts, ()

        members = data[result.labels == worst]
        sample = self._sample_rows(members, 2, self.rng)
        split_seed = int(self.rng.integers(np.iinfo(np.int64).max))
        split = KMeans(2, seed=split_seed, n_init=3, max_iter=20).fit(sample)
        centers = np.vstack([result.centers, split.centers[1]])
        centers[worst] = split.centers[0]
        if counts is not None:
            share = float((split.labels == 1).mean())
            counts = np.concatenate([counts, [counts[worst] * share]])
            counts[worst] *= 1.0 - share
        self.birth_count += 1
        return self._reassign(data, centers), counts, (int(num_clusters),)

    def _reassign(self, data: np.ndarray, centers: np.ndarray,
                  data_sq: Optional[np.ndarray] = None) -> KMeansResult:
        """Full chunked nearest-center assignment against fixed centroids."""
        labels, min_sq = _assign_labels(data, centers,
                                        int(self.config.reassign_chunk_size), data_sq)
        return KMeansResult(labels=labels,
                            centers=np.array(centers, dtype=np.float64, copy=True),
                            inertia=float(min_sq.sum()), n_iter=0)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Tuple[dict, dict]:
        """JSON-able metadata plus carried arrays for checkpointing."""
        meta = {
            "rng": self.rng.bit_generator.state,
            "refresh_count": int(self.refresh_count),
            "birth_count": int(self.birth_count),
            "num_clusters": (None if self._num_clusters is None
                             else int(self._num_clusters)),
        }
        arrays = {}
        if self._centers is not None:
            arrays["centers"] = self._centers.copy()
        if self._counts is not None:
            arrays["counts"] = self._counts.copy()
        return meta, arrays

    def load_state_dict(self, meta: dict, arrays: Optional[dict] = None) -> None:
        """Restore state captured by :meth:`state_dict`."""
        arrays = arrays or {}
        rng_state = meta.get("rng")
        if rng_state is not None:
            self.rng.bit_generator.state = rng_state
        self.refresh_count = int(meta.get("refresh_count", 0))
        self.birth_count = int(meta.get("birth_count", 0))
        num_clusters = meta.get("num_clusters")
        self._num_clusters = None if num_clusters is None else int(num_clusters)
        self._centers = (np.asarray(arrays["centers"], dtype=np.float64).copy()
                         if "centers" in arrays else None)
        self._counts = (np.asarray(arrays["counts"], dtype=np.float64).copy()
                        if "counts" in arrays else None)

    def __repr__(self) -> str:
        return (
            f"ClusteringEngine(strategy={self.config.strategy!r}, "
            f"seed={self.base_seed}, refreshes={self.refresh_count})"
        )
