"""Stock-and-flow model of a team working two coupled chains of demand.

Project and operational work each flow backlog -> in-progress -> completed.
Shared team capacity is split between the chains in proportion to their
backlogs.  Pressure builds when backlogs exceed the desired level and when
quality or timeliness targets are missed; pressure raises the stop rate,
stops and fatigue depress productivity, and fatigue raises the error
fraction, which recycles completed work back into the backlogs.  That
reinforcing structure is the object of study; the integrator around it is
a plain explicit Euler scheme with conservative outflow clamping, so every
stock stays nonnegative and each chain conserves mass to float precision.

Units: stocks in items, rates in items/day, capacity in work-hours/day,
effort in work-hours per item.  Fatigue and pressure are dimensionless
first-order lags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .errors import ConfigurationError, EngineError

_EPS = 1e-9
_PROD_FLOOR = 0.1
_ERROR_CAP = 0.95


@dataclass(frozen=True)
class SdState:
    """Model state: seven material stocks plus two pressure states."""

    project_backlog: float = 0.0
    project_wip: float = 0.0
    project_completed: float = 0.0
    ops_backlog: float = 0.0
    ops_wip: float = 0.0
    ops_completed: float = 0.0
    rework_pool: float = 0.0
    fatigue: float = 0.0
    mgmt_pressure: float = 0.0

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0.0:
                raise ConfigurationError(f"state field {f.name} must be finite and >= 0, got {v}")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SdParams:
    """Rates, time constants, and feedback gains.

    Gains set to zero switch their loops off; with every gain at zero the
    material chains are affine and admit a closed-form solution, which the
    test suite exploits.
    """

    project_arrivals: float = 0.0  # items/day
    ops_arrivals: float = 0.0
    project_completion_days: float = 8.0  # nominal time in progress per item
    ops_completion_days: float = 4.0
    team_capacity_hours: float = 32.0  # work-hours/day across the team
    project_effort_hours: float = 8.0  # pickup cost per item
    ops_effort_hours: float = 4.0
    desired_backlog: float = 30.0  # items; work pressure reference
    tau_fatigue: float = 10.0  # days
    tau_mgmt: float = 15.0
    tau_rework: float = 10.0
    s_base: float = 0.05  # baseline stops per in-progress item per day
    g_mgmt: float = 1.0  # gap -> pressure gain
    k_pressure_stop: float = 1.0  # pressure -> stop rate gain
    k_assist: float = 0.0  # pressure relief (assistance) gain
    k_switch: float = 2.0  # stop rate -> productivity loss
    k_fatigue_prod: float = 0.3  # fatigue -> productivity loss
    k_fatigue_error: float = 2.0  # fatigue -> error fraction gain
    k_capacity: float = 0.25  # pressure -> capacity loss (read by the coupling layer)
    base_error_frac: float = 0.05
    quality_target: float = 0.06  # acceptable error fraction
    target_cycle_time_days: float = 15.0
    rework_inflow: float = 0.0  # exogenous incidents/day entering the rework pool

    def validate(self) -> None:
        positive = (
            "project_completion_days",
            "ops_completion_days",
            "project_effort_hours",
            "ops_effort_hours",
            "desired_backlog",
            "tau_fatigue",
            "tau_mgmt",
            "tau_rework",
            "quality_target",
            "target_cycle_time_days",
        )
        nonnegative = (
            "project_arrivals",
            "ops_arrivals",
            "team_capacity_hours",
            "s_base",
            "g_mgmt",
            "k_pressure_stop",
            "k_assist",
            "k_switch",
            "k_fatigue_prod",
            "k_fatigue_error",
            "k_capacity",
            "rework_inflow",
        )
        for name in positive:
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ConfigurationError(f"parameter {name} must be finite and > 0, got {v}")
        for name in nonnegative:
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ConfigurationError(f"parameter {name} must be finite and >= 0, got {v}")
        if not 0.0 <= self.base_error_frac < 1.0:
            raise ConfigurationError(
                f"base_error_frac must lie in [0, 1), got {self.base_error_frac}"
            )


@dataclass(frozen=True)
class SdAux:
    """Auxiliary (algebraic) variables evaluated on a state."""

    work_pressure: float
    stop_rate: float
    productivity: float
    error_frac: float
    completion_project: float
    completion_ops: float
    implied_cycle_days: float
    timeliness_gap: float
    quality_gap: float


def auxiliaries(state: SdState, params: SdParams) -> SdAux:
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


_STATE_FIELDS = tuple(f.name for f in fields(SdState))
_AUX_FIELDS = tuple(f.name for f in fields(SdAux))
_state_values = attrgetter(*_STATE_FIELDS)
_aux_values = attrgetter(*_AUX_FIELDS)


def _step(
    state: SdState, params: SdParams, dt: float, aux: SdAux | None = None
) -> tuple[SdState, bool]:
    """One Euler step.  Returns (new state, whether any outflow was clamped).

    ``aux`` may pass in ``auxiliaries(state, params)`` when the caller has
    already evaluated it.
    """
    if aux is None:
        aux = auxiliaries(state, params)
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
    # scale joint outflows so no stock is driven below zero; scaling both
    # flows by the same factor keeps the chain's mass balance exact
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


def sd_step(state: SdState, params: SdParams, dt: float) -> SdState:
    """Advance the model by one explicit Euler step of size dt."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    return _step(state, params, dt)[0]


@dataclass
class SdTrajectory:
    """Recorded run: state and auxiliaries at t = 0, dt, 2 dt, ..."""

    dt: float
    times: list[float]
    states: list[SdState]
    aux: list[SdAux]
    clamp_events: int = 0

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> SdState:
        return self.states[-1]

    def column(self, name: str) -> list[float]:
        if name in _STATE_FIELDS:
            return [getattr(s, name) for s in self.states]
        if name in _AUX_FIELDS:
            return [getattr(a, name) for a in self.aux]
        raise ConfigurationError(f"unknown trajectory column {name!r}")

    def mean(self, name: str) -> float:
        col = self.column(name)
        return math.fsum(col) / len(col)


def _check_finite(state: SdState, aux: SdAux, t: float) -> None:
    # a NaN or an infinity makes the sum non-finite, so a finite sum proves
    # every value finite; a non-finite sum of finite values (an overflow)
    # falls through the loops without raising
    if math.isfinite(sum(_state_values(state)) + sum(_aux_values(aux))):
        return
    for name in _STATE_FIELDS:
        if not math.isfinite(getattr(state, name)):
            raise EngineError(f"non-finite value in stock {name!r} at t={t:.6f}")
    for name in _AUX_FIELDS:
        if not math.isfinite(getattr(aux, name)):
            raise EngineError(f"non-finite value in auxiliary {name!r} at t={t:.6f}")


def run_sd(
    initial: SdState, params: SdParams, horizon: float = 126.0, dt: float = 0.25
) -> SdTrajectory:
    """Integrate from ``initial`` until the horizon is covered.

    Records the initial state plus every step; the final recorded time is
    the first multiple of dt at or beyond the horizon.  Aborts with
    ``EngineError`` naming the first non-finite quantity if the state
    explodes.
    """
    params.validate()
    initial.validate()
    if dt <= 0.0 or not math.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if horizon <= 0.0 or not math.isfinite(horizon):
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    n_steps = math.ceil(horizon / dt - 1e-12)
    state = initial
    a = auxiliaries(state, params)
    _check_finite(state, a, 0.0)
    times = [0.0]
    states = [state]
    auxes = [a]
    clamp_events = 0
    for i in range(1, n_steps + 1):
        # a is auxiliaries(state): the step reuses the previous record's
        state, clamped = _step(state, params, dt, a)
        if clamped:
            clamp_events += 1
        t = i * dt
        a = auxiliaries(state, params)
        _check_finite(state, a, t)
        times.append(t)
        states.append(state)
        auxes.append(a)
    return SdTrajectory(dt=dt, times=times, states=states, aux=auxes, clamp_events=clamp_events)


def mass_residuals(traj: SdTrajectory, params: SdParams) -> list[tuple[float, float, float]]:
    """Per-record relative mass-balance residuals (t, project, ops).

    Each chain's stocks minus its initial mass must equal integrated
    exogenous inflow; the residual is normalized by max(1, chain mass).
    """
    s0 = traj.states[0]
    proj0 = s0.project_backlog + s0.project_wip + s0.project_completed
    ops0 = s0.ops_backlog + s0.ops_wip + s0.ops_completed + s0.rework_pool
    out = []
    for t, s in zip(traj.times, traj.states):
        proj = s.project_backlog + s.project_wip + s.project_completed
        ops = s.ops_backlog + s.ops_wip + s.ops_completed + s.rework_pool
        proj_expect = proj0 + params.project_arrivals * t
        ops_expect = ops0 + (params.ops_arrivals + params.rework_inflow) * t
        rp = (proj - proj_expect) / max(1.0, abs(proj_expect))
        ro = (ops - ops_expect) / max(1.0, abs(ops_expect))
        out.append((t, rp, ro))
    return out

