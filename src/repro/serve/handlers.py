"""Route handlers for the serving daemon.

Each handler takes the :class:`~repro.serve.server.ReproServer` it runs
inside plus the parsed :class:`~repro.serve.http.HttpRequest`, and
returns a :class:`Response`.  Handlers validate eagerly and raise
:class:`~repro.serve.http.HttpError` for anything malformed, so the
dispatch layer can map problems onto 4xx responses uniformly.

Response bodies are canonical JSON (sorted keys): two requests with
identical inputs receive byte-identical bodies whether they were
coalesced into one batch, served from the result cache, or executed
fresh — the end-to-end tests assert exactly that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.obs.metrics import prometheus_text
from repro.serve.batching import TransformItem
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
# data plane: /v1/transform
# ----------------------------------------------------------------------
def parse_transform_request(server, request: HttpRequest) -> TransformItem:
    """Validate a transform body into a :class:`TransformItem`."""
    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    op = payload.get("op", "encode")
    if op not in ("encode", "decode"):
        raise HttpError(400, f"op must be 'encode' or 'decode', got {op!r}")
    row_index = payload.get("row_index", 0)
    if not isinstance(row_index, int) or isinstance(row_index, bool):
        raise HttpError(400, "row_index must be an integer")
    if not 0 <= row_index < server.num_rows:
        raise HttpError(
            400,
            f"row_index {row_index} out of range [0, {server.num_rows})",
        )
    lines = payload.get("lines")
    if not isinstance(lines, list) or not lines:
        raise HttpError(400, "lines must be a non-empty list of word lists")
    words_per_line = server.codec.line_bytes // server.codec.word_bytes
    for line in lines:
        if not isinstance(line, list) or len(line) != words_per_line:
            raise HttpError(
                400, f"each line must be a list of {words_per_line} words"
            )
    try:
        array = np.array(lines, dtype=server.codec.dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise HttpError(400, f"invalid word values: {exc}") from None
    return TransformItem(op=op, lines=array, row_index=row_index)


async def handle_transform(server, request: HttpRequest) -> Response:
    item = parse_transform_request(server, request)
    server.bus.count("serve.transform_requests")
    server.bus.count("serve.transform_lines", len(item.lines))
    result = await server.transform_batcher.submit(item)
    body = json_body({
        "op": item.op,
        "row_index": item.row_index,
        "lines": result.tolist(),
    })
    return Response(body=body)


# ----------------------------------------------------------------------
# data plane: /v1/experiments/{id}
# ----------------------------------------------------------------------
def parse_experiment_request(server, experiment_id: str,
                             request: HttpRequest):
    """Validate an experiment body into an engine ExperimentRequest."""
    from repro.experiments import REGISTRY
    from repro.experiments.engine import ExperimentRequest

    if experiment_id not in REGISTRY:
        raise HttpError(404, f"unknown experiment {experiment_id!r}")
    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    unknown = sorted(set(payload) - {"quick", "overrides", "resume"})
    if unknown:
        raise HttpError(
            400, f"unknown request field(s): {', '.join(unknown)}"
        )
    quick = payload.get("quick", True)
    if not isinstance(quick, bool):
        raise HttpError(400, "quick must be a boolean")
    overrides = payload.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise HttpError(400, "overrides must be a JSON object")
    resume = payload.get("resume")
    if resume is not None and not isinstance(resume, str):
        raise HttpError(400, "resume must be a run-id string")
    try:
        json.dumps(overrides)
    except (TypeError, ValueError) as exc:  # pragma: no cover - json gave it
        raise HttpError(400, f"overrides not JSON-able: {exc}") from None
    return ExperimentRequest(
        experiment_id=experiment_id,
        quick=quick,
        overrides=overrides or None,
        use_cache=server.config.use_cache,
        cache_dir=server.config.cache_dir,
        jobs=1,
        resume=resume,
        backend=server.config.experiment_backend,
        workers=server.config.experiment_workers,
    )


# ----------------------------------------------------------------------
# data plane: /v1/sweeps
# ----------------------------------------------------------------------
def parse_sweep_request(server, request: HttpRequest):
    """Validate a sweep body into an engine ExperimentRequest.

    The body carries a full :class:`~repro.scenarios.spec.ScenarioSpec`
    wire dict under ``spec`` plus the same ``quick``/``overrides``/
    ``resume`` knobs the experiment endpoint takes.  The spec is parsed
    and expanded eagerly so an unknown axis, override key or reduction
    is a 400 here, never a failed engine run.
    """
    from repro.experiments.engine import ExperimentRequest
    from repro.experiments.runner import ExperimentSettings
    from repro.scenarios.executor import expand
    from repro.scenarios.spec import ScenarioError, ScenarioSpec

    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "body must be a JSON object")
    unknown = sorted(set(payload) - {"spec", "quick", "overrides", "resume"})
    if unknown:
        raise HttpError(
            400, f"unknown request field(s): {', '.join(unknown)}"
        )
    quick = payload.get("quick", True)
    if not isinstance(quick, bool):
        raise HttpError(400, "quick must be a boolean")
    overrides = payload.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise HttpError(400, "overrides must be a JSON object")
    resume = payload.get("resume")
    if resume is not None and not isinstance(resume, str):
        raise HttpError(400, "resume must be a run-id string")
    spec_data = payload.get("spec")
    if not isinstance(spec_data, dict):
        raise HttpError(400, "spec must be a JSON object (the wire form "
                             "of a ScenarioSpec; see repro list / "
                             "ScenarioSpec.to_dict)")
    try:
        spec = ScenarioSpec.from_dict(spec_data)
        settings = ExperimentSettings.from_dict(overrides or None,
                                                quick=quick)
        expand(spec, settings)
    except ScenarioError as exc:
        raise HttpError(400, f"invalid sweep spec: {exc}") from None
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None
    return ExperimentRequest(
        spec=spec.to_dict(),
        quick=quick,
        overrides=overrides or None,
        use_cache=server.config.use_cache,
        cache_dir=server.config.cache_dir,
        jobs=1,
        resume=resume,
        backend=server.config.experiment_backend,
        workers=server.config.experiment_workers,
    )


async def handle_sweep(server, request: HttpRequest) -> Response:
    engine_request = parse_sweep_request(server, request)
    server.bus.count("serve.sweep_requests")
    try:
        payload = await server.submit_experiment(engine_request)
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None
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
    ``interrupted`` for a run killed before finishing — its resume
    token still works while ``resumable``).
    """
    from pathlib import Path

    from repro.experiments.cache import default_cache_dir
    from repro.experiments.engine import request_run_id
    from repro.obs.inspect import UnknownRunError, inspect_run

    root = (Path(server.config.cache_dir) if server.config.cache_dir
            else default_cache_dir())
    running = any(
        (req.resume or request_run_id(req)) == run_id
        for req in list(server._inflight_experiments.values())
    )
    try:
        doc = inspect_run(root, run_id)
    except UnknownRunError:
        if not running:
            raise HttpError(404, f"unknown run {run_id!r}") from None
        # queued or still planning: nothing on disk yet
        doc = {"jobs": {"planned": None, "done": 0, "failed": 0},
               "retries": [], "timeline": [], "resumable": False}
    body = {
        "run_id": run_id,
        "trace_id": doc.get("trace_id"),
        "experiment_id": doc.get("experiment_id"),
        "state": "running" if running else doc["state"],
        "jobs": doc["jobs"],
        "retries": len(doc["retries"]),
        "spans": len(doc["timeline"]),
        "resumable": doc["resumable"],
    }
    if doc.get("wall_s") is not None:
        body["wall_s"] = doc["wall_s"]
        body["cache_hits"] = doc["cache"]["hits"]
        body["cache_misses"] = doc["cache"]["misses"]
    return Response(body=json_body(body))


async def handle_experiment(server, experiment_id: str,
                            request: HttpRequest) -> Response:
    engine_request = parse_experiment_request(server, experiment_id, request)
    try:
        payload = await server.submit_experiment(engine_request)
    except ValueError as exc:
        # ExperimentSettings.from_dict rejected the overrides
        raise HttpError(400, str(exc)) from None
    # the resume token rides in a header so the body stays byte-identical
    # across fresh / cached / resumed executions of the same request
    headers = {}
    if payload.get("run_id"):
        headers["X-Repro-Run-Id"] = str(payload["run_id"])
    return Response(body=payload["result_json"].encode("utf-8"),
                    headers=headers)
