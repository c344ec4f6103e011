"""Backend resolution and execution-vehicle transparency.

``resolve_backend`` is the one switch between names, instances and the
historical jobs-derived default; these tests pin its contract.  The
transparency half re-states the engine guarantee at the backend seam:
an explicit backend changes *where* jobs run, never *what* the runner
records.
"""

import os

import pytest

from repro.experiments import REGISTRY
from repro.experiments.backends import (
    BACKEND_NAMES,
    PoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.experiments.engine import Runner
from repro.experiments.runner import ExperimentSettings

MICRO = ExperimentSettings(
    memory_bytes=4 << 20,
    windows=1,
    benchmarks=("gemsFDTD", "omnetpp"),
    rows_per_ar=32,
    seed=3,
)


class TestResolveBackend:
    def test_none_means_jobs_derived_default(self):
        assert resolve_backend(None) is None

    def test_names_resolve_to_instances(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("pool").name == "pool"

    def test_ready_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("carrier-pigeon")
        assert set(BACKEND_NAMES) == {"serial", "pool", "cluster"}

    def test_cluster_knobs_require_cluster(self):
        with pytest.raises(ValueError, match="cluster"):
            resolve_backend(None, workers=2)
        with pytest.raises(ValueError, match="cluster"):
            resolve_backend("pool", worker_address="127.0.0.1:7071")


class TestExecutionTransparency:
    def test_explicit_serial_overrides_jobs(self):
        runner = Runner(jobs=4, cache=None, backend=SerialBackend())
        runner.run_experiment(REGISTRY["fig17"], MICRO)
        executed = [m for m in runner.manifest if not m["cache_hit"]]
        assert executed
        assert all(m["worker"] == os.getpid() for m in executed)

    def test_explicit_pool_fans_out_from_jobs1(self):
        runner = Runner(jobs=1, cache=None, backend=PoolBackend())
        runner.run_experiment(REGISTRY["fig17"], MICRO)
        executed = [m for m in runner.manifest if not m["cache_hit"]]
        assert executed
        assert all(m["worker"] != os.getpid() for m in executed)

    def test_backends_agree_on_every_deterministic_number(self):
        serial = Runner(jobs=1, cache=None, backend=SerialBackend())
        pooled = Runner(jobs=2, cache=None, backend=PoolBackend())
        serial.run_experiment(REGISTRY["fig17"], MICRO)
        pooled.run_experiment(REGISTRY["fig17"], MICRO)
        assert serial.metrics_manifest() == pooled.metrics_manifest()

    def test_close_without_backend_is_a_no_op(self):
        Runner(jobs=1, cache=None).close()
