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
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

import teamsim.sd
from teamsim.errors import ConfigurationError, EngineError
from teamsim.sd import (
    _EPS,
    MAX_SD_STEPS,
    _ERROR_CAP,
    _POSITIVE,
    _PROD_FLOOR,
    SdAux,
    SdParams,
    SdState,
    _aux_values,
    _check_finite,
    _step_values,
    mass_residuals,
    run_sd,
    sd_step_count,
)


def aux_of(state: SdState, params: SdParams) -> SdAux:
    """The kernel's auxiliaries of one state."""
    return SdAux(*_aux_values(dataclasses.astuple(state), params))


def step_of(state: SdState, params: SdParams, dt: float) -> SdState:
    """The state one kernel step of size dt after ``state``."""
    values = dataclasses.astuple(state)
    return SdState(*_step_values(values, _aux_values(values, params), params, dt)[0])


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

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SdParams)])
    def test_every_param_is_bounded(self, name):
        # validate reads the declared fields, so a field added later is
        # checked without being listed
        bad = [float("nan"), -1.0] + ([0.0] if name in _POSITIVE else [])
        for value in bad:
            with pytest.raises(ConfigurationError, match=name):
                busy_params(**{name: value}).validate()

    def test_positive_set_names_declared_fields(self):
        assert _POSITIVE <= {f.name for f in dataclasses.fields(SdParams)}

    def test_step_rejects_bad_dt(self):
        for dt in (0.0, -0.5, float("inf")):
            with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
                run_sd(BUSY_INIT, busy_params(), 10.0, dt)

    def test_step_count_is_bounded_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a flow-model step ran")

        monkeypatch.setattr(teamsim.sd, "_step_values", no_step)
        assert sd_step_count(250_000.0, 0.25) == MAX_SD_STEPS
        # the last overflows horizon / dt to inf
        for horizon, dt in ((250_000.25, 0.25), (1.0, 1e-300), (1e308, 1e-10)):
            with pytest.raises(ConfigurationError, match="flow-model steps"):
                run_sd(BUSY_INIT, busy_params(), horizon, dt)

    def test_step_bound_message_prints_the_values_given(self):
        with pytest.raises(ConfigurationError, match=r"^horizon 999999\.5 at dt 0\.1234567 needs "):
            sd_step_count(999_999.5, 0.1234567)


class TestAuxiliaries:
    def test_work_pressure_is_backlog_over_desired(self):
        state = SdState(project_backlog=40.0, ops_backlog=20.0)
        aux = aux_of(state, busy_params(desired_backlog=30.0))
        assert aux.work_pressure == pytest.approx(2.0)

    def test_stop_rate_rises_with_pressure(self):
        params = busy_params(s_base=0.05, k_pressure_stop=0.5, k_assist=0.25)
        calm = aux_of(SdState(), params)
        tense = aux_of(SdState(mgmt_pressure=2.0), params)
        assert calm.stop_rate == pytest.approx(0.05)
        assert tense.stop_rate == pytest.approx(0.05 * (1.0 + 0.25 * 2.0))

    def test_error_fraction_scales_with_fatigue(self):
        params = busy_params(base_error_frac=0.05, k_fatigue_error=2.0)
        aux = aux_of(SdState(fatigue=0.5), params)
        assert aux.error_frac == pytest.approx(0.10)

    def test_error_fraction_capped(self):
        params = busy_params(base_error_frac=0.5, k_fatigue_error=10.0)
        aux = aux_of(SdState(fatigue=5.0), params)
        assert aux.error_frac == 0.95

    def test_productivity_floor(self):
        params = busy_params(k_fatigue_prod=5.0)
        aux = aux_of(SdState(fatigue=10.0), params)
        assert aux.productivity == pytest.approx(0.1)

    def test_completion_rates_use_wip_and_productivity(self):
        params = inert_params(k_switch=0.0)
        aux = aux_of(SdState(project_wip=16.0, ops_wip=8.0), params)
        assert aux.completion_project == pytest.approx(2.0)  # 16 / 8 days
        assert aux.completion_ops == pytest.approx(2.0)  # 8 / 4 days


class TestStepMechanics:
    def test_arrivals_accumulate_in_backlog(self):
        params = inert_params(project_arrivals=2.0, ops_arrivals=3.0)
        state = step_of(SdState(), params, 0.5)
        assert state.project_backlog == pytest.approx(1.0)
        assert state.ops_backlog == pytest.approx(1.5)

    def test_pickup_respects_capacity_and_effort(self):
        # 16 h/day over 4 h items picks up 4 items/day from the ops side
        params = inert_params(team_capacity_hours=16.0)
        state = step_of(SdState(ops_backlog=30.0), params, 0.25)
        assert state.ops_wip == pytest.approx(1.0)
        assert state.ops_backlog == pytest.approx(29.0)

    def test_pickup_cannot_overdraw_backlog(self):
        params = inert_params(team_capacity_hours=1000.0)
        state = step_of(SdState(ops_backlog=2.0), params, 0.25)
        assert state.ops_backlog == pytest.approx(0.0)
        assert state.ops_wip == pytest.approx(2.0)

    def test_capacity_splits_by_backlog_ratio(self):
        params = inert_params(team_capacity_hours=16.0, project_effort_hours=8.0)
        state = step_of(SdState(project_backlog=30.0, ops_backlog=10.0), params, 0.25)
        # 12 h to project (1.5 items/day), 4 h to ops (1 item/day)
        assert state.project_wip == pytest.approx(1.5 * 0.25)
        assert state.ops_wip == pytest.approx(1.0 * 0.25)

    def test_completed_excludes_rework_fraction(self):
        params = inert_params(base_error_frac=0.2, ops_completion_days=4.0)
        state = step_of(SdState(ops_wip=8.0), params, 0.25)
        # completion 2/day: 80% lands in completed, 20% in the rework pool
        assert state.ops_completed == pytest.approx(0.8 * 2.0 * 0.25)
        assert state.rework_pool == pytest.approx(0.2 * 2.0 * 0.25)

    def test_project_rework_returns_to_its_backlog(self):
        params = inert_params(base_error_frac=0.25, project_completion_days=8.0)
        state = step_of(SdState(project_wip=16.0), params, 0.25)
        assert state.project_backlog == pytest.approx(0.25 * 2.0 * 0.25)

    def test_rework_pool_drains_to_ops_backlog(self):
        params = inert_params(tau_rework=10.0)
        state = step_of(SdState(rework_pool=5.0), params, 0.5)
        assert state.rework_pool == pytest.approx(5.0 - 0.25)
        assert state.ops_backlog == pytest.approx(0.25)

    def test_exogenous_rework_inflow_feeds_pool(self):
        params = inert_params(rework_inflow=0.8)
        state = step_of(SdState(), params, 0.5)
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
        assert min(traj.columns["ops_backlog"]) > 1.0

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
        wp = traj.columns["work_pressure"]
        assert wp[-1] > wp[0]
        fat = traj.columns["fatigue"]
        assert all(b >= a - 1e-12 for a, b in zip(fat, fat[1:]))
        assert traj.final_state.fatigue > 0.5

    def test_nonfinite_blowup_names_the_stock(self):
        params = busy_params(g_mgmt=1e308)
        msg = "non-finite value in stock 'mgmt_pressure' at t=0.500000"
        with pytest.raises(EngineError, match=f"^{re.escape(msg)}$"):
            run_sd(BUSY_INIT, params, 20.0, 0.25)

    def test_finiteness_check_names_a_nan_auxiliary(self):
        # the check takes the float tuples the integrator steps on
        aux = dataclasses.replace(aux_of(BUSY_INIT, busy_params()), stop_rate=float("nan"))
        msg = "non-finite value in auxiliary 'stop_rate' at t=1.250000"
        with pytest.raises(EngineError, match=f"^{re.escape(msg)}$"):
            _check_finite(dataclasses.astuple(BUSY_INIT), dataclasses.astuple(aux), 1.25)

    def test_finiteness_check_passes_finite_values_whose_sum_overflows(self):
        huge = dataclasses.replace(
            BUSY_INIT, project_completed=1e308, ops_completed=1e308, rework_pool=1e308
        )
        aux = aux_of(BUSY_INIT, busy_params())
        assert not math.isfinite(sum(dataclasses.astuple(huge)))
        _check_finite(dataclasses.astuple(huge), dataclasses.astuple(aux), 0.0)

    def test_column_lookup_rejects_unknown_name(self):
        traj = run_sd(BUSY_INIT, busy_params(), 2.0, 0.25)
        with pytest.raises(ConfigurationError):
            traj.mean("throughput")

    def test_mean_of_finite_values_whose_sum_overflows_is_finite(self):
        # math.fsum raises OverflowError on such a column; the mean is taken scaled
        traj = run_sd(dataclasses.replace(BUSY_INIT, fatigue=1e308), busy_params(), 20.0, 0.25)
        col = traj.columns["fatigue"]
        with pytest.raises(OverflowError):
            math.fsum(col)
        exact = sum(map(Fraction, col)) / len(col)
        assert traj.mean("fatigue") == pytest.approx(float(exact), rel=1e-15)
        # a column whose sum does not overflow keeps the exact sum's mean, bit for bit
        stop = traj.columns["stop_rate"]
        assert traj.mean("stop_rate") == math.fsum(stop) / len(stop)


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
    for f in dataclasses.fields(SdState):
        assert all(v >= 0.0 for v in traj.columns[f.name])


@settings(max_examples=20, deadline=None)
@given(k_fe=st.floats(min_value=0.0, max_value=2.0))
def test_more_fatigue_error_gain_never_reduces_rework(k_fe):
    base = busy_params(k_fatigue_error=0.0)
    bent = busy_params(k_fatigue_error=k_fe)
    t0 = run_sd(BUSY_INIT, base, 90.0, 0.25)
    t1 = run_sd(BUSY_INIT, bent, 90.0, 0.25)
    assert t1.final_state.rework_pool >= t0.final_state.rework_pool - 1e-9


# The reference below is the object-based integrator the float kernel
# replaced, kept as it was apart from its optional ``aux`` argument, which
# is always passed here: every SdState and SdAux built field by field.
# The kernel must reproduce it bit for bit (compared as float.hex, which
# tells -0.0 from 0.0).
def _ref_auxiliaries(state: SdState, params: SdParams) -> SdAux:
    work_pressure = (state.project_backlog + state.ops_backlog) / params.desired_backlog
    stop_rate = params.s_base * max(
        0.0, 1.0 + (params.k_pressure_stop - params.k_assist) * state.mgmt_pressure
    )
    productivity = max(
        _PROD_FLOOR,
        (1.0 - params.k_switch * stop_rate) * (1.0 - params.k_fatigue_prod * state.fatigue),
    )
    error_frac = min(
        _ERROR_CAP, params.base_error_frac * (1.0 + params.k_fatigue_error * state.fatigue)
    )
    completion_project = state.project_wip / params.project_completion_days * productivity
    completion_ops = state.ops_wip / params.ops_completion_days * productivity
    in_flight = (
        state.project_backlog + state.ops_backlog + state.project_wip + state.ops_wip
    )
    implied_cycle_days = in_flight / max(_EPS, completion_project + completion_ops)
    timeliness_gap = max(0.0, implied_cycle_days / params.target_cycle_time_days - 1.0)
    quality_gap = max(0.0, error_frac - params.quality_target) / params.quality_target
    return SdAux(
        work_pressure=work_pressure,
        stop_rate=stop_rate,
        productivity=productivity,
        error_frac=error_frac,
        completion_project=completion_project,
        completion_ops=completion_ops,
        implied_cycle_days=implied_cycle_days,
        timeliness_gap=timeliness_gap,
        quality_gap=quality_gap,
    )


def _ref_step(state: SdState, params: SdParams, dt: float, aux: SdAux) -> tuple[SdState, bool]:
    pb, wp = state.project_backlog, state.project_wip
    ob, wo = state.ops_backlog, state.ops_wip
    pool = state.rework_pool

    total_backlog = pb + ob
    if total_backlog > _EPS:
        share_p = params.team_capacity_hours * pb / total_backlog
        share_o = params.team_capacity_hours * ob / total_backlog
    else:
        share_p = share_o = 0.5 * params.team_capacity_hours
    pickup_p = min(pb / dt, share_p / params.project_effort_hours)
    pickup_o = min(ob / dt, share_o / params.ops_effort_hours)

    comp_p = aux.completion_project
    comp_o = aux.completion_ops
    stop_p = aux.stop_rate * wp
    stop_o = aux.stop_rate * wo
    clamped = False
    out_p = (comp_p + stop_p) * dt
    if out_p > wp and out_p > 0.0:
        f = wp / out_p
        comp_p *= f
        stop_p *= f
        clamped = True
    out_o = (comp_o + stop_o) * dt
    if out_o > wo and out_o > 0.0:
        f = wo / out_o
        comp_o *= f
        stop_o *= f
        clamped = True
    drain = pool / params.tau_rework
    if drain * dt > pool:
        drain = pool / dt
        clamped = True

    err = aux.error_frac
    new = SdState(
        project_backlog=max(
            0.0, pb + dt * (params.project_arrivals + err * comp_p + stop_p - pickup_p)
        ),
        project_wip=max(0.0, wp + dt * (pickup_p - comp_p - stop_p)),
        project_completed=state.project_completed + dt * (1.0 - err) * comp_p,
        ops_backlog=max(0.0, ob + dt * (params.ops_arrivals + drain + stop_o - pickup_o)),
        ops_wip=max(0.0, wo + dt * (pickup_o - comp_o - stop_o)),
        ops_completed=state.ops_completed + dt * (1.0 - err) * comp_o,
        rework_pool=max(0.0, pool + dt * (err * comp_o + params.rework_inflow - drain)),
        fatigue=max(
            0.0,
            state.fatigue
            + dt * (max(0.0, aux.work_pressure - 1.0) - state.fatigue) / params.tau_fatigue,
        ),
        mgmt_pressure=max(
            0.0,
            state.mgmt_pressure
            + dt
            * (params.g_mgmt * (aux.quality_gap + aux.timeliness_gap) - state.mgmt_pressure)
            / params.tau_mgmt,
        ),
    )
    return new, clamped


def _bits(values) -> list[str]:
    return [float.hex(v) for v in values]


_stock = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=200.0))
_gain = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))
_sd_states = st.builds(
    SdState,
    project_backlog=_stock,
    project_wip=_stock,
    project_completed=_stock,
    ops_backlog=_stock,
    ops_wip=_stock,
    ops_completed=_stock,
    rework_pool=_stock,
    fatigue=st.floats(min_value=0.0, max_value=3.0),
    mgmt_pressure=st.floats(min_value=0.0, max_value=5.0),
)
_sd_params = st.builds(
    SdParams,
    project_arrivals=st.floats(min_value=0.0, max_value=10.0),
    ops_arrivals=st.floats(min_value=0.0, max_value=10.0),
    # completion times well under dt clamp the outflows
    project_completion_days=st.floats(min_value=0.01, max_value=20.0),
    ops_completion_days=st.floats(min_value=0.01, max_value=20.0),
    team_capacity_hours=st.floats(min_value=0.0, max_value=100.0),
    desired_backlog=st.floats(min_value=1.0, max_value=100.0),
    tau_rework=st.floats(min_value=0.05, max_value=20.0),
    s_base=st.floats(min_value=0.0, max_value=0.3),
    g_mgmt=_gain,
    k_pressure_stop=_gain,
    k_assist=_gain,
    k_switch=_gain,
    k_fatigue_prod=_gain,
    k_fatigue_error=_gain,
    base_error_frac=st.floats(min_value=0.0, max_value=0.5),
    rework_inflow=st.floats(min_value=0.0, max_value=2.0),
)
_EMPTY_BACKLOG = SdState(project_wip=4.0, ops_wip=2.0, rework_pool=1.0, fatigue=0.4)
_ZERO_GAINS = inert_params(team_capacity_hours=20.0, ops_arrivals=1.0)
_CLAMPING = busy_params(ops_completion_days=0.05, project_completion_days=0.05, tau_rework=0.1)


@settings(max_examples=60, deadline=None)
@given(state=_sd_states, params=_sd_params, dt=st.sampled_from([0.05, 0.25, 0.5, 1.0]))
@example(state=_EMPTY_BACKLOG, params=busy_params(), dt=0.25)
@example(state=BUSY_INIT, params=_ZERO_GAINS, dt=0.25)
@example(state=BUSY_INIT, params=_CLAMPING, dt=0.25)
def test_float_kernel_matches_object_reference(state, params, dt):
    aux = _ref_auxiliaries(state, params)
    assert _bits(dataclasses.astuple(aux_of(state, params))) == _bits(
        dataclasses.astuple(aux)
    )
    want, _ = _ref_step(state, params, dt, aux)
    assert _bits(dataclasses.astuple(step_of(state, params, dt))) == _bits(
        dataclasses.astuple(want)
    )
    # a short run: every recorded column, the times and the clamp count
    traj = run_sd(state, params, horizon=8.0, dt=dt)
    s, a = state, aux
    times, states, auxes, clamps = [0.0], [s], [a], 0
    for i in range(1, math.ceil(8.0 / dt - 1e-12) + 1):
        s, clamped = _ref_step(s, params, dt, a)
        clamps += clamped
        a = _ref_auxiliaries(s, params)
        times.append(i * dt)
        states.append(s)
        auxes.append(a)
    assert _bits(traj.times) == _bits(times)
    assert traj.clamp_events == clamps
    for f in dataclasses.fields(SdState):
        assert _bits(traj.columns[f.name]) == _bits(getattr(x, f.name) for x in states)
    for f in dataclasses.fields(SdAux):
        assert _bits(traj.columns[f.name]) == _bits(getattr(x, f.name) for x in auxes)
    assert traj.final_state == states[-1]


def test_clamping_example_clamps():
    # the reference comparison's clamping example does reach the clamp
    assert run_sd(BUSY_INIT, _CLAMPING, 8.0, 0.25).clamp_events > 0
