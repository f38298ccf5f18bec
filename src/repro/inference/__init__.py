"""Layer-wise inference engine with a versioned embedding cache.

The paper's two-stage procedure (embed all nodes -> K-Means -> Hungarian
alignment) makes cheap, repeated full-node embedding the backbone of
OpenIMA and every two-stage baseline.  This package bounds that cost in two
orthogonal ways:

* :class:`LayerwiseInference` — deterministic all-node embeddings computed
  layer by layer in node chunks (GCN and GAT)
  from the one chunked function per layer that ``encoder.layerwise_plan``
  returns.  GAT's functions run the training attention kernel per chunk of
  targets, so its per-edge attention arrays only ever cover one chunk's
  edges; parity with ``encoder.embed`` at 1e-8.
* :class:`EmbeddingCache` / :class:`ParamVersion` — reuse one embedding pass
  across pseudo-label refresh, evaluation, and prediction while the encoder
  parameters are unchanged (the version counter is bumped by every
  optimizer step and ``load_state_dict``, so stale reuse is impossible).

:class:`InferenceEngine` combines both behind
:class:`repro.core.config.InferenceConfig` (``mode=auto|full|layerwise``,
``chunk_size``, ``cache``) and is threaded through ``TrainerConfig`` ->
``GraphTrainer`` -> ``repro.api.OpenWorldClassifier`` -> the ``repro embed``
and ``repro predict`` CLI subcommands.
"""

# Local modules first: repro.core.trainer does `from ..inference import
# InferenceEngine` while repro.core is initializing, so the engine must be
# bound on this package before the re-export below touches repro.core.
from .cache import EmbeddingCache, ParamVersion
from .engine import InferenceEngine
from .layerwise import DEFAULT_CHUNK_SIZE, LayerwiseInference

from ..core.config import INFERENCE_MODES, InferenceConfig  # after-docstring import kept below the lazy-import machinery

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "EmbeddingCache",
    "INFERENCE_MODES",
    "InferenceConfig",
    "InferenceEngine",
    "LayerwiseInference",
    "ParamVersion",
]
