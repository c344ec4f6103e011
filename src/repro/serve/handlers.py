"""Route handlers for the serving daemon.

Each handler takes the :class:`~repro.serve.server.ReproServer` it runs
inside plus the parsed :class:`~repro.serve.http.HttpRequest`, and
returns a :class:`Response`.  Handlers validate eagerly and raise
:class:`~repro.serve.http.HttpError` for anything malformed, so the
dispatch layer can map problems onto 4xx responses uniformly.

Response bodies are canonical JSON (sorted keys): two requests with
identical inputs receive byte-identical bodies whether they joined one
in-flight execution, were served from the result cache, or ran
fresh — the end-to-end tests assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import prometheus_text
from repro.serve.http import HttpError, HttpRequest, json_body


@dataclass
class Response:
    """What a handler returns: status, body and extra headers."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def error_response(status: int, message: str,
                   headers: Dict[str, str] = None) -> Response:
    """Uniform JSON error body used by every failure path."""
    return Response(
        status=status,
        body=json_body({"error": message, "status": status}),
        headers=dict(headers or {}),
    )


# ----------------------------------------------------------------------
# control plane: /healthz and /metrics (never subject to backpressure)
# ----------------------------------------------------------------------
def handle_healthz(server, request: HttpRequest) -> Response:
    return Response(body=json_body({
        "status": "ok" if server.state == "serving" else server.state,
        "state": server.state,
        "inflight": server.inflight,
        "max_pending": server.config.max_pending,
    }))


def handle_metrics(server, request: HttpRequest) -> Response:
    text = prometheus_text(server.metrics_snapshot())
    return Response(
        body=text.encode("utf-8"),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


# ----------------------------------------------------------------------
# data plane: /v1/experiments/{id} and /v1/sweeps
# ----------------------------------------------------------------------
def parse_run_request(server, request: HttpRequest,
                      experiment_id: Optional[str] = None):
    """Validate a run body into the engine's :class:`RunRequest`.

    With ``experiment_id`` the body runs that registered experiment;
    without it the body must carry a full
    :class:`~repro.scenarios.spec.ScenarioSpec` wire dict under
    ``spec``.  Both take the ``quick``/``overrides`` knobs.
    Settings are parsed, and a spec expanded, eagerly, so an unknown
    key, benchmark, axis or reduction is a 400 here, never a failed
    engine run.  The request runs in-process in one offload worker
    (``jobs=1``) under its deterministic run id, fixed here so a status
    query matches the run while it executes.
    """
    from repro.experiments import REGISTRY
    from repro.experiments.engine import default_run_id
    from repro.experiments.lifecycle import RunRequest
    from repro.experiments.runner import ExperimentSettings
    from repro.scenarios.executor import expand
    from repro.scenarios.spec import ScenarioSpec

    if experiment_id is not None and experiment_id not in REGISTRY:
        raise HttpError(404, f"unknown experiment {experiment_id!r}")
    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    known = {"quick", "overrides"}
    if experiment_id is None:
        known.add("spec")
    unknown = sorted(set(payload) - known)
    if unknown:
        raise HttpError(
            400, f"unknown request field(s): {', '.join(unknown)}"
        )
    quick = payload.get("quick", True)
    if not isinstance(quick, bool):
        raise HttpError(400, "quick must be a boolean")
    overrides = payload.get("overrides")
    if overrides is not None and not isinstance(overrides, dict):
        raise HttpError(400, "overrides must be a JSON object")
    spec_data = payload.get("spec")
    if experiment_id is None and not isinstance(spec_data, dict):
        raise HttpError(400, "spec must be a JSON object (the wire form "
                             "of a ScenarioSpec; see repro list / "
                             "ScenarioSpec.to_dict)")
    try:
        settings = ExperimentSettings.from_dict(overrides or None,
                                                quick=quick)
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None
    spec = None
    if experiment_id is None:
        try:
            spec = ScenarioSpec.from_dict(spec_data)
            expand(spec, settings)
        except ValueError as exc:
            raise HttpError(400, f"invalid sweep spec: {exc}") from None
    return RunRequest(
        experiment_id=experiment_id,
        spec=spec,
        settings=settings,
        jobs=1,
        cache=server.config.use_cache,
        cache_dir=server.config.cache_dir,
        run_id=default_run_id(experiment_id or spec.scenario_id, settings),
    )


async def handle_run(server, request: HttpRequest,
                     experiment_id: Optional[str] = None) -> Response:
    run_request = parse_run_request(server, request, experiment_id)
    if experiment_id is None:
        server.bus.count("serve.sweep_requests")
    try:
        payload = await server.submit_experiment(run_request, request.body)
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None
    # the run id rides in a header so the body stays byte-identical
    # across fresh and cached executions of the same request
    headers = {}
    if payload.get("run_id"):
        headers["X-Repro-Run-Id"] = str(payload["run_id"])
    return Response(body=payload["result_json"].encode("utf-8"),
                    headers=headers)


# ----------------------------------------------------------------------
# data plane: /v1/runs/{run_id}
# ----------------------------------------------------------------------
def handle_run_status(server, run_id: str, request: HttpRequest) -> Response:
    """Live/finished status of one run: :func:`repro.obs.inspect.inspect_run`
    plus the ``running`` state.

    A run is known if it has a span store or is executing in a worker
    right now.  ``state`` is ``running`` while in flight; otherwise the
    store decides (``finished`` / ``partial`` / ``failed``, or
    ``interrupted`` for a run killed before finishing — issuing it
    again finishes it).
    """
    from repro.obs.inspect import UnknownRunError, inspect_run

    running = any(
        req.run_id == run_id
        for req, _ in server._inflight_experiments.values()
    )
    try:
        doc = inspect_run(server.cache_root, run_id)
    except UnknownRunError:
        if not running:
            raise HttpError(404, f"unknown run {run_id!r}") from None
        # queued or still planning: nothing on disk yet
        doc = {"jobs": {"planned": None, "done": 0, "failed": 0},
               "retries": [], "timeline": []}
    body = {
        "run_id": run_id,
        "trace_id": doc.get("trace_id"),
        "experiment_id": doc.get("experiment_id"),
        "state": "running" if running else doc["state"],
        "jobs": doc["jobs"],
        "retries": len(doc["retries"]),
        "spans": len(doc["timeline"]),
    }
    if doc.get("wall_s") is not None:
        body["wall_s"] = doc["wall_s"]
        body["cache_hits"] = doc["cache"]["hits"]
        body["cache_misses"] = doc["cache"]["misses"]
    return Response(body=json_body(body))
