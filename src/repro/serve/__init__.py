"""``repro.serve`` — asyncio serving layer for the reproduction.

A long-lived, stdlib-only daemon in front of the experiment engine:

* ``POST /v1/experiments/{id}`` and ``POST /v1/sweeps`` — run a
  registered experiment or an ad-hoc scenario spec through the
  cache-aware engine, single-flighted and offloaded to worker
  processes;
* ``GET /v1/runs/{id}`` — live or finished status of one run;
* ``GET /healthz`` / ``GET /metrics`` — liveness and Prometheus text
  exposition of the merged :mod:`repro.obs` snapshot.

Start it with ``repro-serve`` (or ``python -m repro.serve``) and drive
it with :mod:`repro.serve.loadgen`.  See DESIGN.md's "serving layer"
section for the queue/worker architecture and the backpressure
semantics.
"""

from __future__ import annotations

from repro.obs import register_histogram

# Serving-layer histogram bounds, registered at import so snapshots
# merge identically wherever they are produced (server, tests, CI).
register_histogram("serve.request_latency_s", (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0,
))
register_histogram("serve.experiment_wall_s", (
    0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
))

from repro.serve.server import ReproServer, ServeConfig, serve  # noqa: E402

__all__ = [
    "ReproServer",
    "ServeConfig",
    "serve",
]
