"""Crash-consistency properties: damaged store files never lie.

Hypothesis drives byte-level damage — truncation at a sampled offset,
a bit flip at a sampled position — into each durable artifact (cache
entry, run span store) and asserts the reader contract from
DESIGN.md's durable-state section:

* no read ever raises;
* a damaged cache entry is a miss, never a wrong value;
* a truncated run store resumes a *prefix* of the recorded done jobs,
  a flipped one a subset — never a job that was not recorded;
* a damaged span store returns a subset of the appended spans;
* every detected damage bumps a ``store.corrupt.<class>`` counter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ResultCache
from repro.obs import ProbeBus, use_probes
from repro.obs.spans import append_spans, load_run, read_spans, span_path
from repro.store.envelope import CORRUPTION_CLASSES

KEY = "ab" + "0" * 62
VALUE = {"result": {"rows": [[1, 2, 3]]}, "metrics": {"counters": {"x": 1}}}


def corruption_total(bus: ProbeBus) -> int:
    return sum(bus.counters.get(f"store.corrupt.{kind}", 0)
               for kind in CORRUPTION_CLASSES)


# one (0, 1] fraction selects the damage position scale-free, so the
# same strategy exercises the magic, the header and the payload
damage_fraction = st.floats(min_value=0.0, max_value=1.0,
                            exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(fraction=damage_fraction)
def test_truncated_cache_entry_is_always_a_miss(tmp_path_factory, fraction):
    root = tmp_path_factory.mktemp("cache")
    cache = ResultCache(root)
    cache.put(KEY, VALUE)
    path = cache.path_for(KEY)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(len(blob) * fraction)])

    bus = ProbeBus()
    with use_probes(bus):
        loaded = cache.get(KEY)
    assert loaded is None
    assert bus.counters.get("store.corrupt.truncated", 0) == 1
    assert corruption_total(bus) == 1


@settings(max_examples=60, deadline=None)
@given(fraction=damage_fraction, mask=st.integers(min_value=1, max_value=255))
def test_flipped_cache_entry_never_returns_wrong_data(
        tmp_path_factory, fraction, mask):
    root = tmp_path_factory.mktemp("cache")
    cache = ResultCache(root)
    cache.put(KEY, VALUE)
    path = cache.path_for(KEY)
    blob = bytearray(path.read_bytes())
    blob[int(len(blob) * fraction)] ^= mask
    path.write_bytes(bytes(blob))

    bus = ProbeBus()
    with use_probes(bus):
        loaded = cache.get(KEY)
    # the flip may land anywhere — magic, header, payload — so the
    # class varies, but the contract does not: miss, one classified
    # counter, never a mangled value
    assert loaded is None
    assert corruption_total(bus) == 1


KEYS = [f"{i:02x}" + "0" * 62 for i in range(4)]


def recorded_run(root):
    """A run store as the engine leaves it: plan span, then one done
    job span per completed job; returns its path."""
    append_spans(root, "run-x", [
        {"span_id": "p", "name": "plan", "plan_digest": "p",
         "settings_digest": "s", "run_id": "run-x"},
    ] + [
        {"span_id": f"j{i}", "name": "job", "digest": key, "status": "done"}
        for i, key in enumerate(KEYS)
    ])
    return span_path(root, "run-x")


@settings(max_examples=60, deadline=None)
@given(fraction=damage_fraction)
def test_truncated_journal_replays_a_prefix(tmp_path_factory, fraction):
    root = tmp_path_factory.mktemp("runs")
    path = recorded_run(root)
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * fraction)])

    bus = ProbeBus()
    with use_probes(bus):
        state = load_run(root, "run-x")
    if state is None:
        return  # the plan span itself was damaged: nothing to resume
    # whatever survives is a prefix of what was recorded — a truncated
    # store may forget work, it must never invent or corrupt it
    done = sorted(state.done)
    assert done == KEYS[: len(done)]
    if state.damaged:
        assert corruption_total(bus) >= 1


@settings(max_examples=60, deadline=None)
@given(fraction=damage_fraction, mask=st.integers(min_value=1, max_value=255))
def test_flipped_journal_never_replays_mangled_records(
        tmp_path_factory, fraction, mask):
    root = tmp_path_factory.mktemp("runs")
    path = recorded_run(root)
    raw = bytearray(path.read_bytes())
    raw[int(len(raw) * fraction)] ^= mask
    path.write_bytes(bytes(raw))

    bus = ProbeBus()
    with use_probes(bus):
        state = load_run(root, "run-x")
    if state is None:
        return
    # the flipped record is discarded; the surviving done set contains
    # only keys that were really recorded
    assert state.done <= set(KEYS)


@settings(max_examples=60, deadline=None)
@given(fraction=damage_fraction, mask=st.integers(min_value=1, max_value=255))
def test_damaged_span_store_returns_a_subset(tmp_path_factory, fraction,
                                             mask):
    root = tmp_path_factory.mktemp("spans")
    spans = [{"span_id": f"s{i}", "name": f"job-{i}"} for i in range(4)]
    append_spans(root, "run-x", spans)
    path = span_path(root, "run-x")
    raw = bytearray(path.read_bytes())
    raw[int(len(raw) * fraction)] ^= mask
    path.write_bytes(bytes(raw))

    bus = ProbeBus()
    with use_probes(bus):
        loaded = read_spans(path)
    ids = {s["span_id"] for s in loaded}
    assert ids <= {s["span_id"] for s in spans}
    if len(loaded) < len(spans):
        assert corruption_total(bus) >= 1
