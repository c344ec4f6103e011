"""Shared worker bootstrap: how any worker runs one engine job.

Three execution vehicles run :class:`~repro.experiments.engine.SimJob`
bodies outside the driving thread — the engine's serial loop, its
``ProcessPoolExecutor`` workers, and :mod:`repro.cluster` workers on
other processes or hosts.  They all need the same per-job environment:

* a **fresh probe bus** (a fork of the ambient bus when one is
  installed, so live tracing keeps streaming; otherwise a standalone
  bus) whose snapshot ships back with the result and is what makes
  fan-out transparent to the metrics manifest.  Under ``--watchdog``
  it is a checking bus, whose invariant findings ride along in the
  snapshot;
* the runner's **span wire context**, under which the worker opens an
  ``attempt`` span so the job's phases nest below the exact job span
  the runner minted — deterministic ids keep serial, pool and cluster
  trees identical;
* an optional armed :class:`~repro.experiments.faults.FaultSpec`,
  fired *before* the probe-scoped body so injected faults never
  contaminate the cached metrics snapshot.

This module is the one definition of that bootstrap.  It deliberately
depends only on obs + faults so a cluster worker can import it without
dragging in the engine's scheduling machinery.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Tuple

from repro.experiments import faults as faults_mod
from repro.obs import ProbeBus, get_probes, use_probes
from repro.obs.spans import SpanContext, SpanTracer, use_tracer

__all__ = ["captured_call", "run_job_in_worker"]


def captured_call(fn: Callable[[], object],
                  watchdog: bool = False) -> Tuple[object, dict]:
    """Run ``fn`` under a scoped probe bus; return ``(result, snapshot)``.

    With an ambient bus installed the scoped bus is a fork of it, so
    trace events still stream to the live sink while counters,
    histograms and gauges accumulate separately for the per-job
    snapshot.  In workers (no ambient bus) a fresh bus captures
    the same metrics, which is what makes fan-out transparent to the
    metrics manifest.  ``watchdog=True`` makes the scoped bus a
    checking bus, so its snapshot carries an ``invariants`` section.
    """
    ambient = get_probes()
    bus = (ambient.fork(checks=watchdog) if ambient.enabled
           else ProbeBus(checks=watchdog))
    with use_probes(bus):
        result = fn()
    return result, bus.snapshot()


def run_job_in_worker(settings, job, watchdog: bool, fault,
                      span_wire: dict, attempt: int):
    """Worker entry point: result, snapshot, wall time, pid, spans.

    The one bootstrap every execution backend funnels jobs through.
    An armed :class:`~repro.experiments.faults.FaultSpec` fires *before*
    the probe-scoped job body, so injected faults never contaminate the
    job's metrics snapshot (which is cached and must stay identical to
    a fault-free execution's).

    ``span_wire`` is the runner's job-span :class:`SpanContext` in wire
    form: the worker opens an ``attempt`` span under it (qualified by
    the attempt number so retries get distinct, deterministic ids) and
    installs an ambient tracer so the job's phases nest underneath.  Spans
    ship back only on success — a failed attempt's records are
    discarded here and the runner fabricates the failed-attempt span
    instead, which keeps ``--jobs 1``, pool and cluster trees identical.
    """
    from repro.experiments.engine import execute_job

    if fault is not None:
        faults_mod.apply_worker_fault(fault)
    start = time.perf_counter()
    parent = SpanContext.from_wire(span_wire)
    tracer = SpanTracer(parent.trace_id)
    with use_tracer(tracer):
        with tracer.span("attempt", parent=parent, qualifier=str(attempt),
                         pid=os.getpid()):
            result, snapshot = captured_call(
                lambda: execute_job(settings, job), watchdog
            )
    return (result, snapshot, time.perf_counter() - start, os.getpid(),
            tracer.records)
