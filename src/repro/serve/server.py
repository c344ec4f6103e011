"""The asyncio serving daemon: admission control, offload, drain.

:class:`ReproServer` is a single-process asyncio server with two
planes:

* **control** — ``GET /healthz`` and ``GET /metrics`` answer
  immediately, bypassing admission control, so the server stays
  observable even when saturated (the backpressure tests rely on it);
* **data** — ``POST /v1/experiments/{id}`` bodies are parsed once
  into a :class:`~repro.experiments.lifecycle.RunRequest`,
  single-flighted by :func:`run_key` (concurrent identical requests
  share one execution) and offloaded unchanged to a
  ``ProcessPoolExecutor`` via :func:`execute_run`, so CPU-bound
  simulation never blocks the event loop; the engine's
  content-addressed result cache makes repeat submissions cache hits.
  ``POST /v1/sweeps`` is the same machinery for ad-hoc
  :class:`~repro.scenarios.spec.ScenarioSpec` bodies: the spec digest
  enters the run key and the spec's jobs key the cache, so a
  never-registered user sweep coalesces and caches exactly like a
  registered figure.
  ``GET /v1/runs/{id}`` reports one run's state from its span store.

Robustness is structural, not best-effort: a bounded in-flight counter
rejects excess data-plane requests with ``429`` + ``Retry-After``
before any work is queued for them; every data-plane request runs
under a deadline (``504`` on expiry); and ``drain()`` — wired to
SIGTERM/SIGINT by ``repro-serve`` — stops the listener, lets in-flight
work finish within a grace period, journals the HTTP bodies of the
requests still executing to ``<cache>/journal/serve-inflight.json``,
and only then tears down the worker pool.  The next ``start()`` picks
that file up and parses each body again, exactly like a new request:
every job the cut-short run already completed is a cache hit.

Observability rides the ambient :mod:`repro.obs` machinery: request
latency and experiment wall-time histograms, an in-flight gauge,
per-status counters, and the metrics snapshots shipped back by
experiment workers all merge into one probe bus whose snapshot
``GET /metrics`` renders via
:func:`repro.obs.metrics.prometheus_text`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.experiments.cache import default_cache_dir, stable_digest
from repro.experiments.lifecycle import RunRequest, execute, runner_for
from repro.obs import ProbeBus, merge_snapshots
from repro.obs.spans import SpanTracer, append_spans, root_context
from repro.scenarios.spec import spec_digest
from repro.serve import handlers
from repro.serve.http import (
    HttpError,
    HttpRequest,
    read_request,
    render_response,
)

RETRY_AFTER_S = 1
"""``Retry-After`` seconds a ``429`` rejection advertises."""


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving daemon."""

    host: str = "127.0.0.1"
    port: int = 8023
    # -- backpressure and deadlines ------------------------------------
    max_pending: int = 64
    request_timeout_s: float = 60.0
    drain_grace_s: float = 10.0
    # -- experiment offload --------------------------------------------
    workers: int = 2
    use_cache: bool = True
    cache_dir: Optional[str] = None


def run_key(request: RunRequest) -> str:
    """Identity of a request's *outcome*: its single-flight key.

    Two requests that must produce byte-identical results — same
    experiment or same spec content, same settings — share a key.  A
    spec enters through its content digest, so two specs that share a
    ``scenario_id`` but differ never coalesce.
    """
    spec = spec_digest(request.spec) if request.spec is not None else None
    return stable_digest("run-request", request.experiment_id, spec,
                         request.settings)


def execute_run(request: RunRequest) -> dict:
    """Run one parsed request to completion: the offload body.

    Importable at module top level and driven only by its picklable
    argument, so it runs in a ``ProcessPoolExecutor`` worker (or a
    thread) via ``loop.run_in_executor``, with the same store and
    retry lifecycle as API and CLI runs.  Returns what the daemon
    reads: the rendered result (deterministic for identical requests),
    cache statistics, wall time, the merged metrics snapshot and the
    run and trace ids.
    """
    runner = runner_for(request)
    start = time.perf_counter()
    try:
        result = execute(request, runner=runner)
    finally:
        runner.close()
    return {
        "result_json": result.to_json(indent=2),
        "cache_hits": runner.stats.cache_hits,
        "cache_misses": runner.stats.cache_misses,
        "wall_s": round(time.perf_counter() - start, 4),
        "metrics": runner.merged_metrics,
        "run_id": runner.last_run_id,
        "trace_id": runner.last_trace_id,
    }


class ReproServer:
    """One serving daemon; see the module docstring for the design."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 probes: Optional[ProbeBus] = None):
        self.config = config or ServeConfig()
        self.bus = probes if probes is not None else ProbeBus()
        # where the engine keeps results and span stores for this daemon
        self.cache_root = (Path(self.config.cache_dir)
                           if self.config.cache_dir else default_cache_dir())
        self.state = "idle"  # idle -> serving -> draining -> stopped
        self.inflight = 0
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()
        self._executor: Optional[Executor] = None
        self._singleflight: Dict[str, asyncio.Task] = {}
        # requests currently executing in a worker, with the body they
        # were parsed from, keyed by run key — drained servers journal
        # the bodies to disk so a restart can resubmit them
        self._inflight_experiments: Dict[str, Tuple[RunRequest, bytes]] = {}
        # created in start(): asyncio primitives bind the running loop
        # on Python 3.9, and servers may be constructed outside one
        self._idle_event: Optional[asyncio.Event] = None
        self._stopped_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and spawn the worker machinery."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._stopped_event = asyncio.Event()
        if self.config.workers > 0:
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers
            )
        else:
            # workers=0: run experiment jobs on threads in-process —
            # test/debug mode where REGISTRY monkey-patching is visible
            self._executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-serve"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self.state = "serving"
        self._resume_journaled_experiments()

    async def drain(self) -> None:
        """Graceful shutdown: stop listening, finish in-flight, stop."""
        if self.state in ("draining", "stopped"):
            return
        self.state = "draining"
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle_event is not None:
            try:
                await asyncio.wait_for(
                    self._idle_event.wait(), self.config.drain_grace_s
                )
            except asyncio.TimeoutError:
                self.bus.count("serve.drain_timeouts")
        self._journal_inflight_experiments()
        # idle keep-alive connections are parked in read_request; they
        # will never produce another request once the listener is gone
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self.state = "stopped"
        if self._stopped_event is not None:
            self._stopped_event.set()

    async def run_until_stopped(self, install_signals: bool = True) -> None:
        """Serve until :meth:`drain` completes (SIGTERM/SIGINT trigger it)."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, lambda: loop.create_task(self.drain())
                    )
                except (NotImplementedError, RuntimeError):
                    # platforms/embedded loops without signal support
                    break
        await self._stopped_event.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    response = handlers.error_response(
                        exc.status, exc.message, exc.headers
                    )
                    writer.write(render_response(
                        response.status, response.body,
                        response.content_type, response.headers,
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and self.state == "serving"
                response = await self._dispatch(request)
                writer.write(render_response(
                    response.status, response.body, response.content_type,
                    response.headers, keep_alive=keep_alive,
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        except asyncio.CancelledError:
            # drain() cancels parked keep-alive handlers; ending the
            # task cleanly keeps the streams teardown quiet
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: HttpRequest) -> handlers.Response:
        """Route one request: control plane direct, data plane guarded."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        self.bus.count("serve.requests")
        path = request.path

        if path in ("/healthz", "/metrics"):
            if request.method != "GET":
                response = handlers.error_response(405, "use GET")
            elif path == "/healthz":
                response = handlers.handle_healthz(self, request)
            else:
                response = handlers.handle_metrics(self, request)
            return self._finish(request, response, start)

        # -- data plane: admission control, then deadline ---------------
        if self.state != "serving":
            return self._finish(request, handlers.error_response(
                503, f"server is {self.state}"), start)
        if self.inflight >= self.config.max_pending:
            self.bus.count("serve.rejected_429")
            return self._finish(request, handlers.error_response(
                429, "request queue is full",
                {"Retry-After": str(RETRY_AFTER_S)}), start)

        self.inflight += 1
        self.bus.gauge("serve.queue_depth", self.inflight)
        self._idle_event.clear()
        try:
            response = await asyncio.wait_for(
                self._route(request), self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            self.bus.count("serve.timeouts")
            response = handlers.error_response(
                504, f"deadline of {self.config.request_timeout_s}s exceeded"
            )
        except HttpError as exc:
            response = handlers.error_response(
                exc.status, exc.message, exc.headers
            )
        except Exception as exc:  # noqa: BLE001 - boundary of the daemon
            self.bus.count("serve.errors")
            response = handlers.error_response(
                500, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.inflight -= 1
            self.bus.gauge("serve.queue_depth", self.inflight)
            if self.inflight == 0:
                self._idle_event.set()
        return self._finish(request, response, start)

    async def _route(self, request: HttpRequest) -> handlers.Response:
        path = request.path
        if path == "/v1/sweeps":
            if request.method != "POST":
                raise HttpError(405, "use POST")
            return await handlers.handle_run(self, request)
        if path.startswith("/v1/experiments/"):
            if request.method != "POST":
                raise HttpError(405, "use POST")
            experiment_id = path[len("/v1/experiments/"):]
            if not experiment_id or "/" in experiment_id:
                raise HttpError(404, f"no such route: {path}")
            return await handlers.handle_run(self, request, experiment_id)
        if path.startswith("/v1/runs/"):
            if request.method != "GET":
                raise HttpError(405, "use GET")
            run_id = path[len("/v1/runs/"):]
            if not run_id or "/" in run_id:
                raise HttpError(404, f"no such route: {path}")
            return handlers.handle_run_status(self, run_id, request)
        raise HttpError(404, f"no such route: {path}")

    def _finish(self, request: HttpRequest, response: handlers.Response,
                start: float) -> handlers.Response:
        elapsed = asyncio.get_running_loop().time() - start
        self.bus.observe("serve.request_latency_s", elapsed)
        self.bus.count(f"serve.status.{response.status}")
        return response

    # ------------------------------------------------------------------
    # experiment submission: single-flight + executor offload
    # ------------------------------------------------------------------
    async def submit_experiment(self, request: RunRequest,
                                body: bytes) -> dict:
        """Run ``request``, coalescing concurrent identical submissions.

        :func:`run_key` covers the experiment id or spec digest and the
        fully-resolved settings, so while one execution is in flight
        every further identical submission awaits it instead of
        spawning another worker job.  The shared task is shielded: one
        waiter timing out does not cancel the execution for the others.
        ``body`` is what the request was parsed from; a drain journals
        it.
        """
        key = run_key(request)
        task = self._singleflight.get(key)
        coalesced = task is not None
        if not coalesced:
            task = asyncio.get_running_loop().create_task(
                self._execute_experiment(key, request, body)
            )
            self._singleflight[key] = task
            task.add_done_callback(
                lambda _t, key=key: self._singleflight.pop(key, None)
            )
        else:
            self.bus.count("serve.experiments_coalesced")
        t_req = time.time()
        payload = await asyncio.shield(task)
        if coalesced:
            # followers joined an execution the leader's spans cover;
            # their own wait still gets a (coalesced) request span
            self._record_serve_spans(key, payload, t_req,
                                     time.time() - t_req, coalesced=True)
        return payload

    async def _execute_experiment(self, key: str, request: RunRequest,
                                  body: bytes) -> dict:
        self.bus.count("serve.experiments_submitted")
        loop = asyncio.get_running_loop()
        self._inflight_experiments[key] = (request, body)
        t_req = time.time()
        t_mono = loop.time()
        try:
            payload = await loop.run_in_executor(
                self._executor, execute_run, request
            )
        finally:
            self._inflight_experiments.pop(key, None)
        offload_s = loop.time() - t_mono
        self.bus.count("serve.experiment_cache_hits", payload["cache_hits"])
        self.bus.count("serve.experiment_cache_misses",
                       payload["cache_misses"])
        self.bus.observe("serve.experiment_wall_s", payload["wall_s"])
        # fold the worker's simulation metrics into the server bus so
        # /metrics exposes engine counters alongside serving metrics
        if payload.get("metrics"):
            self.bus.merge_snapshot(payload["metrics"])
        self._record_serve_spans(
            key, payload, t_req, time.time() - t_req,
            coalesced=False, offload_s=offload_s,
        )
        return payload

    def _record_serve_spans(self, key: str, payload: dict,
                            t_req: float, dur_s: float, *, coalesced: bool,
                            offload_s: Optional[float] = None) -> None:
        """Append this submission's serve-side spans to the run's store.

        The engine already wrote the run's own tree (root/plan/jobs)
        under the deterministic trace id; serve spans attach to the same
        root so ``repro inspect`` shows queueing and offload next to
        the work itself.  Qualifiers carry the pid and submission time
        — serve spans describe *this* submission, so unlike the engine's
        structural spans they must never dedupe across submissions.
        """
        trace_id = payload.get("trace_id")
        run_id = payload.get("run_id")
        if not self.config.use_cache or not trace_id or not run_id:
            return
        try:
            tracer = SpanTracer(trace_id)
            q = f"{os.getpid()}.{int(t_req * 1e6)}"
            req_ctx = tracer.record_span(
                "serve.request", parent=root_context(trace_id), qualifier=q,
                t0=t_req, dur_s=dur_s, digest=key,
                coalesced=True if coalesced else None,
            )
            if offload_s is not None:
                # queue wait: executor round-trip minus the worker's own
                # measured wall time
                queue_s = max(0.0, offload_s - payload.get("wall_s", 0.0))
                tracer.record_span(
                    "serve.offload", parent=req_ctx, qualifier=q,
                    t0=t_req, dur_s=offload_s, queue_s=round(queue_s, 6),
                    worker_wall_s=payload.get("wall_s"),
                )
            append_spans(self.cache_root, run_id, tracer.records)
        except OSError:  # pragma: no cover - span store is best-effort
            pass

    # ------------------------------------------------------------------
    # drain-time journaling of in-flight experiments
    # ------------------------------------------------------------------
    def _inflight_journal_path(self) -> Path:
        return self.cache_root / "journal" / "serve-inflight.json"

    def _journal_inflight_experiments(self) -> None:
        """Persist the requests still executing at drain time.

        The engine records each run's per-job progress under the result
        cache as it goes; this file only records *which* requests were
        cut short — each as its route's experiment id (``None`` for a
        sweep) and the body the client sent — so :meth:`start` can
        resubmit them, and every job the interrupted run already
        finished is a cache hit.
        """
        if not self._inflight_experiments:
            return
        from repro.store.envelope import snapshot_digest

        records = [
            {"experiment_id": req.experiment_id,
             "body": body.decode("utf-8", "surrogateescape")}
            for req, body in self._inflight_experiments.values()
        ]
        path = self._inflight_journal_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".json.tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"schema": 1, "requests": records,
                     "sha256": snapshot_digest(records)},
                    sort_keys=True,
                ))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            return
        self.bus.count("serve.journaled_inflight", len(records))

    def _resume_journaled_experiments(self) -> None:
        """Resubmit the requests a previous drain journaled.

        Each record goes back through the request parser, so it is
        checked exactly like a new request; one it rejects (or one in
        another format) is counted as corrupt and skipped.
        """
        path = self._inflight_journal_path()
        try:
            raw = path.read_text()
        except OSError:
            return
        try:
            path.unlink()
        except OSError:
            pass
        from repro.store.envelope import snapshot_digest

        try:
            doc = json.loads(raw)
            records = doc["requests"]
            if not isinstance(records, list):
                raise ValueError("requests must be a list")
        except (KeyError, TypeError, ValueError):
            self.bus.count("serve.resume_journal_corrupt")
            self.bus.count("store.corrupt.truncated")
            return
        declared = doc.get("sha256")
        if declared is not None and declared != snapshot_digest(records):
            # the document parses but its content digest disagrees: a
            # flipped bit could resubmit a mangled request — refuse it
            self.bus.count("serve.resume_journal_corrupt")
            self.bus.count("store.corrupt.bit_flipped")
            return
        loop = asyncio.get_running_loop()
        for record in records:
            try:
                body = record["body"].encode("utf-8", "surrogateescape")
                request = handlers.parse_run_request(
                    self, HttpRequest("POST", "", body=body),
                    record["experiment_id"])
            except (HttpError, KeyError, TypeError, AttributeError):
                self.bus.count("serve.resume_journal_corrupt")
                continue
            self.bus.count("serve.resumed_runs")
            task = loop.create_task(self.submit_experiment(request, body))
            # background resubmission: nobody awaits this response, so
            # retrieve any exception to keep the loop's logs quiet
            task.add_done_callback(
                lambda t: t.cancelled() or t.exception()
            )

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The merged observability snapshot ``/metrics`` renders."""
        return merge_snapshots(self.bus.snapshot())


async def serve(config: Optional[ServeConfig] = None,
                probes: Optional[ProbeBus] = None,
                ready=None) -> ReproServer:
    """Start a server, announce readiness, and block until drained."""
    server = ReproServer(config, probes=probes)
    await server.start()
    if ready is not None:
        ready(server)
    else:
        print(f"repro-serve listening on http://{server.host}:{server.port} "
              f"(pid {os.getpid()})", flush=True)
    await server.run_until_stopped()
    return server
