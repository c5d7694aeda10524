"""Stock-and-flow model tests.

Three independent oracles pin the integrator down: a first-order lag has
the closed form 1 - exp(-t/tau); with every behavioural gain at zero the
operational chain is a linear time-invariant system solvable by matrix
exponential; and mass balance must hold to float precision whether or not
the outflow clamp engages.
"""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from teamsim.errors import ConfigurationError, EngineError
from teamsim.sd import (
    SdParams,
    SdState,
    _check_finite,
    auxiliaries,
    mass_residuals,
    run_sd,
    sd_step,
)


def inert_params(**overrides) -> SdParams:
    """All behavioural gains off; flows still move."""
    base = dict(
        project_arrivals=0.0,
        ops_arrivals=0.0,
        project_completion_days=8.0,
        ops_completion_days=4.0,
        team_capacity_hours=0.0,
        project_effort_hours=8.0,
        ops_effort_hours=4.0,
        desired_backlog=30.0,
        tau_fatigue=10.0,
        tau_mgmt=15.0,
        tau_rework=10.0,
        s_base=0.0,
        g_mgmt=0.0,
        k_pressure_stop=0.0,
        k_assist=0.0,
        k_switch=0.0,
        k_fatigue_prod=0.0,
        k_fatigue_error=0.0,
        k_capacity=0.0,
        base_error_frac=0.0,
        quality_target=0.06,
        target_cycle_time_days=15.0,
    )
    base.update(overrides)
    return SdParams(**base)


def busy_params(**overrides) -> SdParams:
    """A loaded configuration with every loop gain active."""
    base = dict(
        project_arrivals=1.6,
        ops_arrivals=4.0,
        project_completion_days=8.0,
        ops_completion_days=4.0,
        team_capacity_hours=32.0,
        project_effort_hours=9.4,
        ops_effort_hours=4.4,
        desired_backlog=60.0,
        tau_fatigue=12.0,
        tau_mgmt=15.0,
        tau_rework=10.0,
        s_base=0.05,
        g_mgmt=0.35,
        k_pressure_stop=0.5,
        k_assist=0.25,
        k_switch=1.5,
        k_fatigue_prod=0.3,
        k_fatigue_error=1.2,
        k_capacity=0.22,
        base_error_frac=0.05,
        quality_target=0.06,
        target_cycle_time_days=15.0,
    )
    base.update(overrides)
    return SdParams(**base)


BUSY_INIT = SdState(project_backlog=25.0, project_wip=4.0, ops_backlog=20.0, ops_wip=4.0)


class TestValidation:
    def test_negative_stock_rejected(self):
        with pytest.raises(ConfigurationError):
            SdState(project_backlog=-1.0).validate()

    def test_nonfinite_stock_rejected(self):
        with pytest.raises(ConfigurationError):
            SdState(fatigue=float("nan")).validate()

    def test_bad_params_rejected(self):
        for field, value in [
            ("team_capacity_hours", -1.0),
            ("project_effort_hours", 0.0),
            ("tau_fatigue", 0.0),
            ("base_error_frac", 1.0),
            ("desired_backlog", 0.0),
        ]:
            with pytest.raises(ConfigurationError):
                busy_params(**{field: value}).validate()

    def test_step_rejects_bad_dt(self):
        for dt in (0.0, -0.5, float("inf")):
            with pytest.raises(ConfigurationError):
                sd_step(BUSY_INIT, busy_params(), dt)


class TestAuxiliaries:
    def test_work_pressure_is_backlog_over_desired(self):
        state = SdState(project_backlog=40.0, ops_backlog=20.0)
        aux = auxiliaries(state, busy_params(desired_backlog=30.0))
        assert aux.work_pressure == pytest.approx(2.0)

    def test_stop_rate_rises_with_pressure(self):
        params = busy_params(s_base=0.05, k_pressure_stop=0.5, k_assist=0.25)
        calm = auxiliaries(SdState(), params)
        tense = auxiliaries(SdState(mgmt_pressure=2.0), params)
        assert calm.stop_rate == pytest.approx(0.05)
        assert tense.stop_rate == pytest.approx(0.05 * (1.0 + 0.25 * 2.0))

    def test_error_fraction_scales_with_fatigue(self):
        params = busy_params(base_error_frac=0.05, k_fatigue_error=2.0)
        aux = auxiliaries(SdState(fatigue=0.5), params)
        assert aux.error_frac == pytest.approx(0.10)

    def test_error_fraction_capped(self):
        params = busy_params(base_error_frac=0.5, k_fatigue_error=10.0)
        aux = auxiliaries(SdState(fatigue=5.0), params)
        assert aux.error_frac == 0.95

    def test_productivity_floor(self):
        params = busy_params(k_fatigue_prod=5.0)
        aux = auxiliaries(SdState(fatigue=10.0), params)
        assert aux.productivity == pytest.approx(0.1)

    def test_completion_rates_use_wip_and_productivity(self):
        params = inert_params(k_switch=0.0)
        aux = auxiliaries(SdState(project_wip=16.0, ops_wip=8.0), params)
        assert aux.completion_project == pytest.approx(2.0)  # 16 / 8 days
        assert aux.completion_ops == pytest.approx(2.0)  # 8 / 4 days


class TestStepMechanics:
    def test_arrivals_accumulate_in_backlog(self):
        params = inert_params(project_arrivals=2.0, ops_arrivals=3.0)
        state = sd_step(SdState(), params, 0.5)
        assert state.project_backlog == pytest.approx(1.0)
        assert state.ops_backlog == pytest.approx(1.5)

    def test_pickup_respects_capacity_and_effort(self):
        # 16 h/day over 4 h items picks up 4 items/day from the ops side
        params = inert_params(team_capacity_hours=16.0)
        state = sd_step(SdState(ops_backlog=30.0), params, 0.25)
        assert state.ops_wip == pytest.approx(1.0)
        assert state.ops_backlog == pytest.approx(29.0)

    def test_pickup_cannot_overdraw_backlog(self):
        params = inert_params(team_capacity_hours=1000.0)
        state = sd_step(SdState(ops_backlog=2.0), params, 0.25)
        assert state.ops_backlog == pytest.approx(0.0)
        assert state.ops_wip == pytest.approx(2.0)

    def test_capacity_splits_by_backlog_ratio(self):
        params = inert_params(team_capacity_hours=16.0, project_effort_hours=8.0)
        state = sd_step(SdState(project_backlog=30.0, ops_backlog=10.0), params, 0.25)
        # 12 h to project (1.5 items/day), 4 h to ops (1 item/day)
        assert state.project_wip == pytest.approx(1.5 * 0.25)
        assert state.ops_wip == pytest.approx(1.0 * 0.25)

    def test_completed_excludes_rework_fraction(self):
        params = inert_params(base_error_frac=0.2, ops_completion_days=4.0)
        state = sd_step(SdState(ops_wip=8.0), params, 0.25)
        # completion 2/day: 80% lands in completed, 20% in the rework pool
        assert state.ops_completed == pytest.approx(0.8 * 2.0 * 0.25)
        assert state.rework_pool == pytest.approx(0.2 * 2.0 * 0.25)

    def test_project_rework_returns_to_its_backlog(self):
        params = inert_params(base_error_frac=0.25, project_completion_days=8.0)
        state = sd_step(SdState(project_wip=16.0), params, 0.25)
        assert state.project_backlog == pytest.approx(0.25 * 2.0 * 0.25)

    def test_rework_pool_drains_to_ops_backlog(self):
        params = inert_params(tau_rework=10.0)
        state = sd_step(SdState(rework_pool=5.0), params, 0.5)
        assert state.rework_pool == pytest.approx(5.0 - 0.25)
        assert state.ops_backlog == pytest.approx(0.25)

    def test_exogenous_rework_inflow_feeds_pool(self):
        params = inert_params(rework_inflow=0.8)
        state = sd_step(SdState(), params, 0.5)
        assert state.rework_pool == pytest.approx(0.4)


class TestTrajectories:
    def test_record_count_and_times(self):
        traj = run_sd(BUSY_INIT, busy_params(), horizon=126.0, dt=0.25)
        assert len(traj) == 505
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(126.0)

    def test_determinism(self):
        a = run_sd(BUSY_INIT, busy_params(), 60.0, 0.25)
        b = run_sd(BUSY_INIT, busy_params(), 60.0, 0.25)
        assert a.final_state == b.final_state

    def test_first_order_lag_against_closed_form(self):
        # pin work pressure at 2 so fatigue sees a unit step:
        # fatigue(tau) should be 1 - 1/e within Euler error at dt = 0.05
        params = inert_params(desired_backlog=30.0, tau_fatigue=5.0)
        traj = run_sd(SdState(project_backlog=60.0), params, horizon=5.0, dt=0.05)
        target = 1.0 - math.exp(-1.0)
        assert traj.final_state.fatigue == pytest.approx(target, rel=0.02)

    def test_zero_gain_ops_chain_matches_matrix_exponential(self):
        # with every gain zero the ops chain is LTI while the backlog stays
        # large enough that pickup is capacity-limited; solve xdot = Ax + b
        # exactly and require the Euler run to land within 0.05%
        params = inert_params(
            ops_arrivals=3.5,
            ops_completion_days=5.0,
            team_capacity_hours=16.0,
            ops_effort_hours=4.0,
            base_error_frac=0.2,
            tau_rework=10.0,
        )
        init = SdState(ops_backlog=30.0)
        horizon = 60.0
        A = np.array(
            [
                [0.0, 0.0, 0.1, 0.0],
                [0.0, -0.2, 0.0, 0.0],
                [0.0, 0.04, -0.1, 0.0],
                [0.0, 0.16, 0.0, 0.0],
            ]
        )
        b = np.array([-0.5, 4.0, 0.0, 0.0])
        aug = np.zeros((5, 5))
        aug[:4, :4] = A
        aug[:4, 4] = b
        exact = (expm(aug * horizon) @ np.array([30.0, 0.0, 0.0, 0.0, 1.0]))[:4]

        traj = run_sd(init, params, horizon, dt=0.05)
        fs = traj.final_state
        got = np.array([fs.ops_backlog, fs.ops_wip, fs.rework_pool, fs.ops_completed])
        assert traj.clamp_events == 0
        np.testing.assert_allclose(got, exact, rtol=5e-4)
        # the regime assumption: backlog never came near exhaustion
        assert min(s.ops_backlog for s in traj.states) > 1.0

    def test_halving_dt_barely_moves_the_answer(self):
        coarse = run_sd(BUSY_INIT, busy_params(), 126.0, 0.25).final_state
        fine = run_sd(BUSY_INIT, busy_params(), 126.0, 0.125).final_state
        for name in ("project_completed", "ops_completed", "project_backlog", "ops_backlog", "fatigue"):
            a, b = getattr(coarse, name), getattr(fine, name)
            assert a == pytest.approx(b, rel=0.01, abs=1e-6)

    def test_overload_builds_pressure_monotonically(self):
        # arrivals far beyond capacity: work pressure and fatigue must rise
        params = busy_params(project_arrivals=6.0, ops_arrivals=8.0)
        traj = run_sd(BUSY_INIT, params, 126.0, 0.25)
        wp = traj.column("work_pressure")
        assert wp[-1] > wp[0]
        fat = traj.column("fatigue")
        assert all(b >= a - 1e-12 for a, b in zip(fat, fat[1:]))
        assert traj.final_state.fatigue > 0.5

    def test_nonfinite_blowup_names_the_stock(self):
        params = busy_params(g_mgmt=1e308)
        msg = "non-finite value in stock 'mgmt_pressure' at t=0.500000"
        with pytest.raises(EngineError, match=f"^{re.escape(msg)}$"):
            run_sd(BUSY_INIT, params, 20.0, 0.25)

    def test_finiteness_check_names_a_nan_auxiliary(self):
        aux = dataclasses.replace(auxiliaries(BUSY_INIT, busy_params()), stop_rate=float("nan"))
        msg = "non-finite value in auxiliary 'stop_rate' at t=1.250000"
        with pytest.raises(EngineError, match=f"^{re.escape(msg)}$"):
            _check_finite(BUSY_INIT, aux, 1.25)

    def test_finiteness_check_passes_finite_values_whose_sum_overflows(self):
        huge = dataclasses.replace(
            BUSY_INIT, project_completed=1e308, ops_completed=1e308, rework_pool=1e308
        )
        aux = auxiliaries(BUSY_INIT, busy_params())
        assert not math.isfinite(sum(dataclasses.astuple(huge)))
        _check_finite(huge, aux, 0.0)

    def test_column_lookup_rejects_unknown_name(self):
        traj = run_sd(BUSY_INIT, busy_params(), 2.0, 0.25)
        with pytest.raises(ConfigurationError):
            traj.column("throughput")


class TestMassBalance:
    def test_residuals_stay_at_float_noise(self):
        traj = run_sd(BUSY_INIT, busy_params(), 126.0, 0.25)
        worst = max(max(abs(rp), abs(ro)) for _, rp, ro in mass_residuals(traj, busy_params()))
        assert worst < 1e-9
        assert traj.clamp_events == 0

    def test_residuals_survive_outflow_clamping(self):
        hot = busy_params(
            rework_inflow=0.4, ops_completion_days=0.05, project_completion_days=0.05
        )
        traj = run_sd(BUSY_INIT, hot, 126.0, 0.25)
        assert traj.clamp_events > 0
        worst = max(max(abs(rp), abs(ro)) for _, rp, ro in mass_residuals(traj, hot))
        assert worst < 1e-9

    def test_exogenous_inflow_is_counted(self):
        params = busy_params(rework_inflow=0.6)
        traj = run_sd(BUSY_INIT, params, 80.0, 0.25)
        worst = max(max(abs(rp), abs(ro)) for _, rp, ro in mass_residuals(traj, params))
        assert worst < 1e-9


# hypothesis: stocks never go negative and never blow up for bounded
# random parameters, any initial load, any sane step size
@settings(max_examples=40, deadline=None)
@given(
    arrivals=st.floats(min_value=0.0, max_value=10.0),
    capacity=st.floats(min_value=0.0, max_value=100.0),
    s_base=st.floats(min_value=0.0, max_value=0.3),
    k_fe=st.floats(min_value=0.0, max_value=3.0),
    backlog0=st.floats(min_value=0.0, max_value=200.0),
    dt=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
)
def test_stocks_stay_nonnegative(arrivals, capacity, s_base, k_fe, backlog0, dt):
    params = busy_params(
        project_arrivals=arrivals,
        ops_arrivals=arrivals,
        team_capacity_hours=capacity,
        s_base=s_base,
        k_fatigue_error=k_fe,
    )
    init = SdState(project_backlog=backlog0, ops_backlog=backlog0, project_wip=3.0, ops_wip=3.0)
    traj = run_sd(init, params, horizon=30.0, dt=dt)
    for state in traj.states:
        for f in dataclasses.fields(state):
            assert getattr(state, f.name) >= 0.0


@settings(max_examples=20, deadline=None)
@given(k_fe=st.floats(min_value=0.0, max_value=2.0))
def test_more_fatigue_error_gain_never_reduces_rework(k_fe):
    base = busy_params(k_fatigue_error=0.0)
    bent = busy_params(k_fatigue_error=k_fe)
    t0 = run_sd(BUSY_INIT, base, 90.0, 0.25)
    t1 = run_sd(BUSY_INIT, bent, 90.0, 0.25)
    assert t1.final_state.rework_pool >= t0.final_state.rework_pool - 1e-9
