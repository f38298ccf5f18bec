"""Online serving layer: a persistent prediction service over checkpoints.

The paper's pipeline ends at batch prediction; this package serves it.  A
checkpoint is loaded **once** into a
:class:`~repro.serve.service.PredictionService` (the single writer of model
state), which publishes immutable :class:`~repro.serve.service.ServingSnapshot`
objects that any number of request threads read concurrently.  On top of
that sit a :class:`~repro.serve.coalescer.RequestCoalescer` (micro-batches
concurrent queries arriving within a small window into one model call), a
stdlib-HTTP :class:`~repro.serve.server.ModelServer` with graceful
SIGINT/SIGTERM shutdown, and a :class:`~repro.serve.client.ServeClient`.

Guarantees:

* a served query is bit-for-bit identical to
  ``OpenWorldClassifier.load(ckpt).predict()`` for that node;
* a coalesced micro-batch matches N independent single-node queries
  exactly (both read the same snapshot);
* repeated queries against an unchanged model version hit the warm
  embedding cache — zero encoder passes on the request path.

Entry points: ``repro serve CKPT [--port] [--batch-window-ms]`` on the CLI,
or programmatically::

    from repro.api import OpenWorldClassifier
    from repro.serve import ModelServer, PredictionService, ServeConfig

    service = PredictionService(OpenWorldClassifier.load("runs/ckpt"))
    server = ModelServer(service, ServeConfig(port=0)).start()
    server.serve_forever(install_signals=True)
"""

from .blas import blas_threads, set_blas_threads
from .client import ServeClient, ServeClientError
from .coalescer import RequestCoalescer
from .metrics import LatencyRecorder
from .server import ModelServer, ServeConfig
from .service import PredictionService, ServingSnapshot

__all__ = [
    "LatencyRecorder",
    "ModelServer",
    "PredictionService",
    "RequestCoalescer",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServingSnapshot",
    "blas_threads",
    "set_blas_threads",
]
