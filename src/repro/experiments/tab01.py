"""Table I — average allocated memory of the three data-center traces."""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.workloads.datacenter import paper_traces

PAPER_MEANS = {"google": 0.70, "alibaba": 0.88, "bitbrains": 0.28}

SPEC = ScenarioSpec(
    scenario_id="tab01",
    description="Average allocated memory of the three traces",
    axes=(
        SweepAxis("params.trace",
                  source="repro.experiments.tab01:trace_names"),
    ),
    point="repro.experiments.tab01:trace_point",
    reduction="concat_rows",
    reduction_params={
        "title": "Average allocated memory of the three traces",
        "headers": ["trace", "source", "measured mean", "paper mean"],
    },
)


def trace_names(settings) -> list:
    return list(paper_traces())


def trace_point(settings, job) -> list:
    name = str(job.params["trace"])
    trace = paper_traces()[name]
    return [name, trace.source, trace.mean, PAPER_MEANS[name]]
