"""Coupling-layer tests: rate extraction, calibration arithmetic, the
cycle loop, and the identity fixed point."""
import copy
from dataclasses import replace

import pytest

from teamsim.des import DesModifiers, run_des
from teamsim.domain import Priority
from teamsim.errors import ConfigurationError
from teamsim.hybrid import (
    FeedForward,
    SdSummary,
    apply_feedforward,
    extract_feedback,
    extract_feedforward,
    modifier_change,
    run_hybrid,
)
from teamsim.io.scenario import default_scenario
from teamsim.sd import SdState

from conftest import keep_logs, mm1_config


def sd_summary(error_frac, mgmt_pressure, stop_rate):
    """A flow-model summary with the three means the feedback reads."""
    return SdSummary(
        mean_fatigue=0.0,
        mean_mgmt_pressure=mgmt_pressure,
        mean_stop_rate=stop_rate,
        mean_error_frac=error_frac,
        final_error_frac=error_frac,
    )


def zero_gain_scenario():
    """Default scenario with every loop gain disabled: the coupling must
    become an identity map."""
    sc = copy.deepcopy(default_scenario())
    sc.des.interrupt_base_rate = 0.0
    sc.sd_params = replace(
        sc.sd_params,
        s_base=0.0,
        g_mgmt=0.0,
        k_pressure_stop=0.0,
        k_assist=0.0,
        k_switch=0.0,
        k_fatigue_prod=0.0,
        k_fatigue_error=0.0,
        k_capacity=0.0,
        base_error_frac=0.0,
    )
    sc.des.base_error_prob = 0.0
    return sc


class TestFeedForwardExtraction:
    def test_rates_match_counters(self):
        stats, _ = run_des(mm1_config(), seed=3, horizon=400.0)
        ff = extract_feedforward(stats)
        assert ff.project_completion_rate == 0.0
        assert ff.ops_completion_rate == pytest.approx(stats.completed_total / 400.0)
        assert ff.rework_generation_rate == 0.0
        assert ff.preemption_rate == 0.0

    def test_ops_rate_approaches_offered_load(self):
        # stable queue: long-run completion rate equals the arrival rate
        stats, _ = run_des(mm1_config(daily_rate=0.8), seed=1, horizon=20_000.0)
        ff = extract_feedforward(stats)
        assert ff.ops_completion_rate == pytest.approx(0.8, rel=0.03)


class TestApplyFeedForward:
    def test_completion_days_from_initial_wip(self):
        sc = default_scenario()
        ff = FeedForward(
            project_completion_rate=0.5,
            ops_completion_rate=1.5,
            rework_generation_rate=0.3,
            preemption_rate=1.0,
        )
        initial = SdState(project_wip=4.0, ops_wip=3.0, project_backlog=10.0, ops_backlog=10.0)
        out = apply_feedforward(sc.sd_params, ff, initial)
        assert out.project_completion_days == pytest.approx(8.0)
        assert out.ops_completion_days == pytest.approx(2.0)
        assert out.rework_inflow == pytest.approx(0.3)
        # one preemption per two completions scales the stop base by 1.5
        assert out.s_base == pytest.approx(sc.sd_params.s_base * 1.5)

    def test_zero_rates_leave_calibration_untouched(self):
        sc = default_scenario()
        ff = FeedForward(0.0, 0.0, 0.0, 0.0)
        out = apply_feedforward(sc.sd_params, ff, sc.sd_initial)
        assert out.project_completion_days == sc.sd_params.project_completion_days
        assert out.ops_completion_days == sc.sd_params.ops_completion_days
        assert out.s_base == sc.sd_params.s_base
        assert out.rework_inflow == 0.0

    def test_zero_initial_wip_skips_completion_calibration(self):
        sc = default_scenario()
        ff = FeedForward(1.0, 1.0, 0.0, 0.0)
        out = apply_feedforward(sc.sd_params, ff, SdState(project_backlog=5.0, ops_backlog=5.0))
        assert out.project_completion_days == sc.sd_params.project_completion_days
        assert out.ops_completion_days == sc.sd_params.ops_completion_days


class TestExtractFeedback:
    def test_known_ratios(self):
        sc = default_scenario()
        params = replace(sc.sd_params, base_error_frac=0.05, k_capacity=0.3, s_base=0.05)
        summary = sd_summary(error_frac=0.1, mgmt_pressure=1.0, stop_rate=0.08)
        mods = extract_feedback(summary, params, interrupt_base_rate=0.5)
        assert mods.rework_multiplier == pytest.approx(2.0)
        assert mods.capacity_factor == pytest.approx(0.7)
        assert mods.interrupt_rate == pytest.approx(0.5 * 0.08 / 0.05)

    def test_capacity_floor(self):
        sc = default_scenario()
        params = replace(sc.sd_params, k_capacity=0.9)
        summary = sd_summary(error_frac=0.05, mgmt_pressure=3.0, stop_rate=0.05)
        mods = extract_feedback(summary, params, interrupt_base_rate=0.0)
        assert mods.capacity_factor == 0.5

    def test_quiet_trajectory_maps_to_identity(self):
        sc = default_scenario()
        params = replace(sc.sd_params, base_error_frac=0.05, k_capacity=0.2, s_base=0.05)
        summary = sd_summary(error_frac=0.05, mgmt_pressure=0.0, stop_rate=0.05)
        mods = extract_feedback(summary, params, interrupt_base_rate=0.0)
        assert mods == DesModifiers(1.0, 1.0, 0.5 * 0.0)

    def test_zero_base_error_with_nonzero_mean_is_an_error(self):
        sc = default_scenario()
        params = replace(sc.sd_params, base_error_frac=0.0)
        summary = sd_summary(error_frac=0.1, mgmt_pressure=0.0, stop_rate=0.0)
        with pytest.raises(ConfigurationError):
            extract_feedback(summary, params, interrupt_base_rate=0.0)


class TestModifierChange:
    def test_identity_distance_is_zero(self):
        a = DesModifiers()
        assert modifier_change(a, DesModifiers()) == 0.0

    def test_largest_component_wins(self):
        a = DesModifiers(1.0, 1.0, 0.0)
        b = DesModifiers(2.0, 0.9, 0.0)
        assert modifier_change(a, b) == pytest.approx(0.5)


class TestRunHybrid:
    def test_single_cycle_report_shape(self):
        sc = default_scenario()
        report = run_hybrid(replace(sc, cycles_max=1))
        assert report.n_cycles == 1
        assert not report.converged
        rec = report.cycles[0]
        assert rec.index == 0
        assert rec.modifiers_in == DesModifiers()
        assert rec.des_stats.completed_total > 0

    def test_cycle_seeds_differ(self):
        sc = default_scenario()
        logs = []
        run_hybrid(replace(sc, cycles_max=2), log_sink=keep_logs(logs))
        assert len(logs) == 2 and list(logs[0]) != list(logs[1])

    def test_reproducible_from_scenario_seed(self):
        sc = default_scenario()
        l1, l2 = [], []
        r1 = run_hybrid(replace(sc, cycles_max=2), log_sink=keep_logs(l1))
        r2 = run_hybrid(replace(sc, cycles_max=2), log_sink=keep_logs(l2))
        assert len(l1) == 2 and [list(log) for log in l1] == [list(log) for log in l2]
        for a, b in zip(r1.cycles, r2.cycles, strict=True):
            assert a.des_stats.to_flat_dict() == b.des_stats.to_flat_dict()
            assert a.modifiers_out == b.modifiers_out

    def test_zero_gain_loop_is_identity_and_converges(self):
        sc = zero_gain_scenario()
        report = run_hybrid(replace(sc, cycles_max=3, tol=1e-12))
        assert report.converged
        for rec in report.cycles:
            assert rec.modifiers_out == DesModifiers()

    def test_zero_gain_cycles_match_standalone_runs(self):
        # the fixed point: with identity modifiers each cycle is exactly an
        # uncoupled run at seed + k
        sc = zero_gain_scenario()
        logs = []
        report = run_hybrid(replace(sc, cycles_max=2, tol=1e-12), log_sink=keep_logs(logs))
        for rec, log in zip(report.cycles, logs, strict=True):
            _, solo = run_des(sc.des, seed=sc.seed + rec.index, horizon=sc.horizon)
            assert list(log) == list(solo)

    def test_reported_summary_is_the_one_fed_back(self):
        # cycles.json reports each cycle's sd_summary, and the cycle's
        # modifiers come from exactly that summary
        sc = default_scenario()
        report = run_hybrid(replace(sc, cycles_max=3, tol=1e-12))
        assert report.n_cycles == 3
        for rec in report.cycles:
            params = apply_feedforward(sc.sd_params, rec.feed_forward, sc.sd_initial)
            fed_back = extract_feedback(rec.sd_summary, params, sc.des.interrupt_base_rate)
            assert fed_back == rec.modifiers_out

    def test_rejects_bad_cycle_count_and_tol(self):
        sc = default_scenario()
        with pytest.raises(ConfigurationError):
            run_hybrid(replace(sc, cycles_max=0))
        with pytest.raises(ConfigurationError):
            run_hybrid(replace(sc, cycles_max=1, tol=0.0))


class TestDailyMeans:
    def test_priority_pooling_matches_class_series(self):
        stats, _ = run_des(default_scenario().des, seed=20, horizon=126.0)
        pooled = stats.priority_daily_mean(Priority.P2)
        # rebuild by hand from the per-class accumulators
        sums = [0.0] * stats.n_days
        counts = [0] * stats.n_days
        for (wt, pr), daily in stats.daily_completion_sum.items():
            if pr is Priority.P2:
                for i, v in enumerate(daily):
                    sums[i] += v
                    counts[i] += stats.daily_completion_count[(wt, pr)][i]
        expect = [s / c if c else None for s, c in zip(sums, counts)]
        assert pooled == expect
