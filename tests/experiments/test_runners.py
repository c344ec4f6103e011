"""Smoke + shape tests for every registered experiment.

The micro-scale classes run each experiment uncached in-process;
:class:`TestPaperShapes` checks the paper's shape claims at quick scale,
or at the ``ExperimentSettings()`` defaults under ``--repro-full``.
"""

import pytest

import repro.api as api
from repro.experiments import REGISTRY, ExperimentSettings
from repro.experiments.runner import QUICK_BENCHMARKS


MICRO = ExperimentSettings(
    memory_bytes=4 << 20,
    windows=1,
    benchmarks=("gemsFDTD", "omnetpp"),
    rows_per_ar=32,
    seed=3,
)


def run(experiment_id, settings=MICRO):
    return api.run(api.RunRequest(experiment_id, settings=settings, jobs=1,
                                  cache=False))


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {"fig04", "tab01", "fig05", "fig06", "fig14", "fig15",
                    "fig16", "fig17", "fig18", "fig19", "sram"}
        assert expected <= set(REGISTRY)

    def test_quick_settings(self):
        quick = ExperimentSettings.quick()
        assert quick.memory_bytes < ExperimentSettings().memory_bytes
        assert set(quick.benchmarks) == set(QUICK_BENCHMARKS)


class TestLightweightExperiments:
    def test_fig04_headline(self):
        result = run("fig04")
        shares = {(row[0], row[1]): row[4] for row in result.rows}
        assert shares[("extended", "16 Gb")] > 0.5
        assert shares[("normal", "16 Gb")] < shares[("extended", "16 Gb")]

    def test_tab01_means(self):
        result = run("tab01")
        for row in result.rows:
            assert row[2] == pytest.approx(row[3], abs=0.03)

    def test_fig05_ordering(self):
        result = run("fig05")
        by_name = {row[0]: row[1:] for row in result.rows}
        # At x=0.5 bitbrains is mostly below, alibaba entirely above.
        assert by_name["bitbrains"][4] > 0.8
        assert by_name["alibaba"][4] < 0.05

    def test_fig06_averages(self):
        result = run("fig06")
        avg = result.rows[-1]
        assert avg[0] == "average"
        assert 0.0 <= avg[1] <= 0.2  # zero 1KB blocks
        assert 0.2 <= avg[2] <= 0.6  # zero bytes

    def test_sram_numbers(self):
        result = run("sram")
        naive, opt = result.rows[0], result.rows[1]
        assert naive[2] == pytest.approx(337.14, rel=1e-3)
        assert opt[2] == pytest.approx(2.71, rel=1e-3)
        assert opt[3] == pytest.approx(0.076, rel=1e-3)


class TestSimulationExperiments:
    def test_fig14_scenarios_monotone(self):
        result = run("fig14")
        avg = next(r for r in result.rows if r[0] == "average")
        # normalized refresh must fall as allocation falls
        assert avg[1] > avg[3] > avg[4]

    def test_fig15_energy_close_to_refresh(self):
        fig14 = run("fig14")
        fig15 = run("fig15")
        avg14 = next(r for r in fig14.rows if r[0] == "average")
        avg15 = next(r for r in fig15.rows if r[0] == "average")
        for col in (1, 4):
            assert avg15[col] >= avg14[col] - 1e-9
            assert avg15[col] - avg14[col] < 0.15

    def test_fig17_gains_ordering(self):
        result = run("fig17")
        by_name = {row[0]: row[1] for row in result.rows}
        assert by_name["gemsFDTD"] > by_name["omnetpp"] >= 1.0

    def test_fig18_row_size_ordering(self):
        result = run("fig18")
        avg = next(r for r in result.rows if r[0] == "average")
        assert avg[1] < avg[2] < avg[3]

    def test_fig19_smart_refresh_fades(self):
        result = run("fig19")
        smart = [row[1] for row in result.rows]
        zero = [row[2] for row in result.rows]
        assert smart[0] < smart[-1]  # smart gets worse with capacity
        assert smart[-1] > 0.85
        assert max(zero) - min(zero) < max(smart) - min(smart)

    def test_fig16_delta_direction(self):
        result = run("fig16")
        avg = next(r for r in result.rows if r[0] == "average")
        assert avg[2] >= avg[1] - 1e-9  # 64ms never beats 32ms


class TestAblations:
    def test_stage_contributions_monotone(self):
        result = run("abl-stages")
        gems = [row[1] for row in result.rows]
        # raw >= +EBDI >= +bitplane >= full
        assert gems[0] >= gems[1] >= gems[2] >= gems[3]
        assert gems[3] < gems[0]

    def test_celltype_errors_degrade(self):
        result = run("abl-celltype")
        gems = [row[1] for row in result.rows]
        assert gems == sorted(gems)

    def test_wordsize_runs(self):
        result = run("abl-wordsize")
        assert len(result.rows) == 2
        for row in result.rows:
            assert all(0 < v <= 1.0 for v in row[1:])

    def test_tracking_designs_agree_roughly(self):
        result = run("abl-tracking")
        opt, naive = result.rows[0], result.rows[1]
        for a, b in zip(opt[1:], naive[1:]):
            assert abs(a - b) < 0.25


class TestRendering:
    def test_render_includes_reference(self):
        result = run("sram")
        text = result.render()
        assert "[sram]" in text
        assert "337.14" in text
        assert "paper:" in text


class TestExtensionExperiments:
    def test_ext_hybrid_never_worse(self):
        result = run("ext-hybrid")
        for row in result.rows:
            assert row[3] <= row[2] + 1e-9

    def test_abl_compression_divergence(self):
        result = run("abl-compression")
        by_class = {row[0]: row for row in result.rows}
        assert by_class["zero"][3] == 8
        assert by_class["random"][3] == 0
        assert by_class["float64"][1] < 1.1
        assert by_class["float64"][3] >= 1


class TestCsvExport:
    def test_to_csv_roundtrips_table(self):
        import csv
        import io

        result = run("sram")
        parsed = list(csv.reader(io.StringIO(result.to_csv())))
        assert parsed[0] == result.headers
        assert len(parsed) == len(result.rows) + 1

    def test_save_csv(self, tmp_path):
        result = run("tab01")
        path = tmp_path / "tab01.csv"
        result.save_csv(path)
        assert path.read_text().startswith("trace,")

    def test_ext_vrt_exposure_grows(self):
        result = run("ext-vrt")
        raidr = [row for row in result.rows if row[0].startswith("RAIDR")]
        unsafe = [row[2] for row in raidr]
        assert unsafe == sorted(unsafe) and unsafe[-1] > 0
        assert result.rows[-1][2] == 0

    def test_ext_scheduling_composes(self):
        result = run("ext-scheduling")
        by_policy = {row[0]: row[3] for row in result.rows}
        assert (by_policy["zero-refresh + pausing"]
                <= min(by_policy["pausing"], by_policy["zero-refresh"]) + 1e-9)


@pytest.fixture(scope="module")
def paper(request, tmp_path_factory):
    """Each registered experiment, run at most once through ``api.run``
    on one cached two-worker runner; results are memoised."""
    settings = (ExperimentSettings()
                if request.config.getoption("--repro-full")
                else ExperimentSettings.quick())
    runner = api.make_runner(jobs=2,
                             cache_dir=tmp_path_factory.mktemp("paper"))
    results = {}

    def result(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = api.run(
                api.RunRequest(experiment_id, settings=settings),
                runner=runner)
            assert not runner.failures, runner.failures
        print(results[experiment_id].render())  # shown when a check fails
        return results[experiment_id]

    yield result
    runner.close()


class TestPaperShapes:
    """The paper's shape claims, one test per registered experiment."""

    def test_fig04_refresh_power(self, paper):
        result = paper("fig04")
        shares = {(row[0], row[1]): row[4] for row in result.rows}
        assert shares[("extended", "16 Gb")] > 0.5
        assert shares[("normal", "4 Gb")] < shares[("extended", "4 Gb")]

    def test_tab01_trace_means(self, paper):
        result = paper("tab01")
        for row in result.rows:
            assert row[2] == pytest.approx(row[3], abs=0.03)

    def test_fig05_utilization_cdfs(self, paper):
        result = paper("fig05")
        by_name = {row[0]: row[1:] for row in result.rows}
        # CDF ordering at mid-utilisation: bitbrains >> google >> alibaba
        assert by_name["bitbrains"][4] > by_name["google"][4] > by_name["alibaba"][4]

    def test_fig06_zero_fractions(self, paper):
        result = paper("fig06")
        avg = result.rows[-1]
        assert 0.0 < avg[1] < 0.10   # few fully-zero 1 KB blocks
        assert 0.25 < avg[2] < 0.60  # but many zero bytes
        assert avg[2] > 5 * avg[1]

    def test_fig14_refresh_reduction(self, paper):
        result = paper("fig14")
        avg = next(r for r in result.rows if r[0] == "average")
        # who wins: ZERO-REFRESH always beats conventional (norm < 1)
        assert avg[1] < 0.85
        # scenario ordering: more idle memory -> fewer refreshes
        assert avg[1] > avg[2] > avg[3] > avg[4]
        # rough factor at the Bitbrains level: most refreshes eliminated
        assert avg[4] < 0.35

    def test_fig15_energy(self, paper):
        result = paper("fig15")
        avg = next(r for r in result.rows if r[0] == "average")
        assert avg[1] > avg[2] > avg[3] > avg[4]
        assert avg[4] < 0.40

    def test_fig16_temperature(self, paper, request):
        if request.config.getoption("--repro-full"):
            request.applymarker(pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="ROADMAP item 3: at the default scale 64 ms "
                       "reduces refresh 0.2 pp more than 32 ms"))
        result = paper("fig16")
        avg = next(r for r in result.rows if r[0] == "average")
        # 64 ms windows see more writes -> equal or slightly less reduction
        assert avg[2] >= avg[1] - 1e-9
        assert avg[2] - avg[1] < 0.10

    def test_fig17_ipc(self, paper):
        result = paper("fig17")
        by_name = {row[0]: row[1] for row in result.rows}
        assert all(v >= 1.0 for v in by_name.values())
        avg = by_name["average"]
        assert 1.01 < avg < 1.12
        if "gemsFDTD" in by_name:
            assert by_name["gemsFDTD"] == max(
                v for k, v in by_name.items() if k != "average"
            )

    def test_fig18_row_size(self, paper):
        result = paper("fig18")
        avg = next(r for r in result.rows if r[0] == "average")
        # crossover direction: smaller rows skip more
        assert avg[1] < avg[2] < avg[3]

    def test_fig19_scalability(self, paper):
        result = paper("fig19")
        smart = [row[1] for row in result.rows]
        zero = [row[2] for row in result.rows]
        # Smart Refresh fades with capacity; ZERO-REFRESH stays (nearly) flat
        assert smart == sorted(smart)
        assert smart[-1] > 0.85
        assert max(zero) - min(zero) < max(smart) - min(smart)
        # crossover: ZERO-REFRESH wins at large capacity
        assert zero[-1] < smart[-1]

    def test_sram_costs(self, paper):
        result = paper("sram")
        naive, opt = result.rows[0], result.rows[1]
        assert naive[2] == pytest.approx(337.14, rel=1e-3)
        assert opt[2] == pytest.approx(2.71, rel=1e-3)
        assert naive[2] / opt[2] > 100

    def test_stage_ablation(self, paper):
        result = paper("abl-stages")
        for col in range(1, len(result.headers)):
            series = [row[col] for row in result.rows]
            assert series[-1] <= series[0]  # full pipeline never worse than raw

    def test_celltype_ablation(self, paper):
        result = paper("abl-celltype")
        for col in range(1, len(result.headers)):
            series = [row[col] for row in result.rows]
            assert series == sorted(series)  # more error -> less skipping

    def test_wordsize_ablation(self, paper):
        result = paper("abl-wordsize")
        assert len(result.rows) == 2
        for row in result.rows:
            assert all(0 < v <= 1.0 + 1e-9 for v in row[1:])

    def test_tracking_ablation(self, paper):
        result = paper("abl-tracking")
        opt, naive = result.rows[0], result.rows[1]
        for a, b in zip(opt[1:], naive[1:]):
            assert abs(a - b) < 0.25  # same skip decisions, cheaper SRAM

    def test_policy_ablation(self, paper):
        result = paper("abl-policy")
        assert len(result.rows) == 4
        for row in result.rows:
            assert all(0 < v <= 1.2 for v in row[1:])

    def test_ext_hybrid(self, paper):
        result = paper("ext-hybrid")
        for row in result.rows:
            smart, zero, hybrid = row[1], row[2], row[3]
            assert hybrid <= zero + 1e-9  # never worse than ZERO-REFRESH
        # hybrid's recency edge is largest where Smart Refresh is strongest
        edge_small = result.rows[0][2] - result.rows[0][3]
        edge_large = result.rows[-1][2] - result.rows[-1][3]
        assert edge_small >= edge_large - 0.02

    def test_compression_vs_skippability(self, paper):
        result = paper("abl-compression")
        by_class = {row[0]: row for row in result.rows}
        # zero saturates everything; random defeats everything
        assert by_class["zero"][1] == 64.0
        assert by_class["zero"][3] == 8
        assert by_class["random"][3] == 0
        # the divergence: BDI-incompressible classes can still skip words
        assert by_class["wide"][1] < 1.05 and by_class["wide"][3] >= 2

    def test_ext_vrt(self, paper):
        result = paper("ext-vrt")
        raidr_rows = [row for row in result.rows if row[0].startswith("RAIDR")]
        unsafe = [row[2] for row in raidr_rows]
        assert unsafe == sorted(unsafe)  # exposure grows with VRT age
        assert unsafe[-1] > 0
        zero_row = result.rows[-1]
        assert zero_row[2] == 0  # value-based skipping has no exposure

    def test_ext_scheduling(self, paper):
        result = paper("ext-scheduling")
        by_policy = {row[0]: row for row in result.rows}
        base = by_policy["conventional"][3]
        for policy in ("elastic", "pausing", "zero-refresh",
                       "zero-refresh + pausing"):
            assert by_policy[policy][3] < base
        assert (by_policy["zero-refresh + pausing"][3]
                <= min(by_policy["pausing"][3], by_policy["zero-refresh"][3]))
