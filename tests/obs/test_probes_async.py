"""ProbeBus fork and snapshot merge under concurrent asyncio tasks.

The serving daemon forks child buses per experiment job while the event
loop interleaves many tasks; these tests pin down that interleaved
children never contaminate each other and that merging their snapshots
back yields exactly the sum of their contributions.
"""

import asyncio

import pytest

from repro.obs import ProbeBus
from repro.obs.metrics import register_histogram
from repro.obs.probes import ListTraceSink


@pytest.fixture(autouse=True)
def latency_bounds():
    register_histogram("async.latency_s", (0.1, 1.0))


async def job(parent, index, rounds):
    """One task's worth of scoped capture, yielding between updates."""
    child = parent.fork()
    for round_number in range(rounds):
        child.count("async.iterations")
        child.count(f"async.task_{index}")
        child.observe("async.latency_s", 0.05 * (index + 1))
        child.gauge("async.last_round", round_number)
        child.event("async.tick", task=index, round=round_number)
        await asyncio.sleep(0)
    return child


class TestForkAbsorbConcurrent:
    def test_interleaved_children_stay_isolated(self):
        n_tasks, rounds = 8, 25
        parent = ProbeBus()

        async def scenario():
            return await asyncio.gather(
                *(job(parent, i, rounds) for i in range(n_tasks))
            )

        children = asyncio.run(scenario())
        for index, child in enumerate(children):
            snap = child.snapshot()
            # each child saw only its own updates, despite interleaving
            assert snap["counters"]["async.iterations"] == rounds
            assert snap["counters"][f"async.task_{index}"] == rounds
            assert snap["histograms"]["async.latency_s"]["count"] == rounds
            assert snap["gauges"]["async.last_round"]["last"] == rounds - 1
            other = [k for k in snap["counters"]
                     if k.startswith("async.task_")
                     and k != f"async.task_{index}"]
            assert other == []
        # the parent accumulated nothing until the merge
        assert parent.counters == {}

    def test_absorb_sums_to_exact_totals(self):
        n_tasks, rounds = 6, 10
        parent = ProbeBus()

        async def scenario():
            children = await asyncio.gather(
                *(job(parent, i, rounds) for i in range(n_tasks))
            )
            for child in children:
                parent.merge_snapshot(child.snapshot())

        asyncio.run(scenario())
        snap = parent.snapshot()
        assert snap["counters"]["async.iterations"] == n_tasks * rounds
        for index in range(n_tasks):
            assert snap["counters"][f"async.task_{index}"] == rounds
        hist = snap["histograms"]["async.latency_s"]
        assert hist["count"] == n_tasks * rounds
        assert hist["sum"] == pytest.approx(
            sum(0.05 * (i + 1) * rounds for i in range(n_tasks))
        )
        # every task's last gauge write survived the merge
        assert snap["gauges"]["async.last_round"]["n"] == n_tasks * rounds

    def test_events_flow_to_parent_sink_while_tasks_interleave(self):
        sink = ListTraceSink()
        parent = ProbeBus(trace=sink)
        n_tasks, rounds = 5, 12

        async def scenario():
            children = await asyncio.gather(
                *(job(parent, i, rounds) for i in range(n_tasks))
            )
            for child in children:
                parent.merge_snapshot(child.snapshot())

        asyncio.run(scenario())
        ticks = [r for r in sink.records if r["event"] == "async.tick"]
        assert len(ticks) == n_tasks * rounds
        # sequence numbers come from the parent: unique and gap-free
        seqs = sorted(r["seq"] for r in sink.records)
        assert seqs == list(range(len(sink.records)))
        # every task delivered all of its ticks, in its own order
        for index in range(n_tasks):
            mine = [r["round"] for r in ticks if r["task"] == index]
            assert mine == list(range(rounds))

    def test_concurrent_forks_of_shared_parent_histogram_bounds(self):
        parent = ProbeBus()

        async def observe_task(value):
            child = parent.fork()
            child.observe("async.latency_s", value)
            await asyncio.sleep(0)
            return child

        async def scenario():
            children = await asyncio.gather(
                observe_task(0.05), observe_task(0.5), observe_task(5.0)
            )
            for child in children:
                parent.merge_snapshot(child.snapshot())

        asyncio.run(scenario())
        hist = parent.snapshot()["histograms"]["async.latency_s"]
        # registered bounds applied in every child: 0.05 | 0.5 | overflow
        assert hist["bounds"] == [0.1, 1.0]
        assert hist["counts"] == [1, 1, 1]
