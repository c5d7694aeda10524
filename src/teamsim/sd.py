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
MAX_SD_STEPS = 10**6
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


# the SdParams fields that must be > 0: completion times, efforts, time
# constants, and the references that pressure and gaps are divided by
_POSITIVE = frozenset(
    {
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
    }
)


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
        """Every field finite: base_error_frac in [0, 1), a ``_POSITIVE`` field > 0, the rest >= 0."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "base_error_frac":
                if not 0.0 <= v < 1.0:
                    raise ConfigurationError(f"base_error_frac must lie in [0, 1), got {v}")
            elif f.name in _POSITIVE:
                if not math.isfinite(v) or v <= 0.0:
                    raise ConfigurationError(f"parameter {f.name} must be finite and > 0, got {v}")
            elif not math.isfinite(v) or v < 0.0:
                raise ConfigurationError(f"parameter {f.name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class SdAux:
    """Auxiliary (algebraic) variables; its fields name the trajectory's auxiliary columns."""

    work_pressure: float
    stop_rate: float
    productivity: float
    error_frac: float
    completion_project: float
    completion_ops: float
    implied_cycle_days: float
    timeliness_gap: float
    quality_gap: float


_STATE_FIELDS = tuple(f.name for f in fields(SdState))
_AUX_FIELDS = tuple(f.name for f in fields(SdAux))
_state_values = attrgetter(*_STATE_FIELDS)

# The model equations, written once on plain floats.  ``run_sd`` steps on
# tuples that hold the fields in SdState and SdAux order and keeps them as
# the trajectory's columns.  The comparisons written out pick the value
# ``max(c, x)`` and ``min(x, c)`` return, NaN included.


def _aux_values(state: tuple[float, ...], params: SdParams) -> tuple[float, ...]:
    """The auxiliaries of a state."""
    pb, wp, _, ob, wo, _, _, fatigue, mgmt = state
    work_pressure = (pb + ob) / params.desired_backlog
    stop_factor = 1.0 + (params.k_pressure_stop - params.k_assist) * mgmt
    stop_rate = params.s_base * (stop_factor if stop_factor > 0.0 else 0.0)
    productivity = (1.0 - params.k_switch * stop_rate) * (1.0 - params.k_fatigue_prod * fatigue)
    if not productivity > _PROD_FLOOR:
        productivity = _PROD_FLOOR
    error_frac = params.base_error_frac * (1.0 + params.k_fatigue_error * fatigue)
    if not error_frac < _ERROR_CAP:
        error_frac = _ERROR_CAP
    completion_project = wp / params.project_completion_days * productivity
    completion_ops = wo / params.ops_completion_days * productivity
    completion = completion_project + completion_ops
    implied_cycle_days = (pb + ob + wp + wo) / (completion if completion > _EPS else _EPS)
    timeliness_gap = implied_cycle_days / params.target_cycle_time_days - 1.0
    quality_gap = error_frac - params.quality_target
    return (
        work_pressure,
        stop_rate,
        productivity,
        error_frac,
        completion_project,
        completion_ops,
        implied_cycle_days,
        timeliness_gap if timeliness_gap > 0.0 else 0.0,
        (quality_gap if quality_gap > 0.0 else 0.0) / params.quality_target,
    )


def _step_values(
    state: tuple[float, ...], aux: tuple[float, ...], params: SdParams, dt: float
) -> tuple[tuple[float, ...], bool]:
    """One Euler step from a state and its auxiliaries.

    Returns (new state, whether any outflow was clamped).
    """
    pb, wp, pc, ob, wo, oc, pool, fatigue, mgmt = state
    work_pressure, stop_rate, _, err, comp_p, comp_o, _, timeliness_gap, quality_gap = aux

    total_backlog = pb + ob
    if total_backlog > _EPS:
        share_p = params.team_capacity_hours * pb / total_backlog
        share_o = params.team_capacity_hours * ob / total_backlog
    else:
        share_p = share_o = 0.5 * params.team_capacity_hours
    pickup_p = pb / dt
    cap = share_p / params.project_effort_hours
    if cap < pickup_p:
        pickup_p = cap
    pickup_o = ob / dt
    cap = share_o / params.ops_effort_hours
    if cap < pickup_o:
        pickup_o = cap

    stop_p = stop_rate * wp
    stop_o = stop_rate * wo
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

    pb += dt * (params.project_arrivals + err * comp_p + stop_p - pickup_p)
    wp += dt * (pickup_p - comp_p - stop_p)
    ob += dt * (params.ops_arrivals + drain + stop_o - pickup_o)
    wo += dt * (pickup_o - comp_o - stop_o)
    pool += dt * (err * comp_o + params.rework_inflow - drain)
    pressure = work_pressure - 1.0
    fatigue += dt * ((pressure if pressure > 0.0 else 0.0) - fatigue) / params.tau_fatigue
    mgmt += dt * (params.g_mgmt * (quality_gap + timeliness_gap) - mgmt) / params.tau_mgmt
    new = (
        pb if pb > 0.0 else 0.0,
        wp if wp > 0.0 else 0.0,
        pc + dt * (1.0 - err) * comp_p,
        ob if ob > 0.0 else 0.0,
        wo if wo > 0.0 else 0.0,
        oc + dt * (1.0 - err) * comp_o,
        pool if pool > 0.0 else 0.0,
        fatigue if fatigue > 0.0 else 0.0,
        mgmt if mgmt > 0.0 else 0.0,
    )
    return new, clamped


@dataclass
class SdTrajectory:
    """Recorded run: state and auxiliaries at t = 0, dt, 2 dt, ...

    Stored by column, and read by column: ``columns`` maps every SdState
    and SdAux field name, in that order, to its value at each recorded
    time, in the order of ``times``; ``mean`` averages one column, and
    ``final_state`` builds the last recorded state.
    """

    dt: float
    times: list[float]
    columns: dict[str, list[float]]
    clamp_events: int = 0

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> SdState:
        return SdState(*(self.columns[n][-1] for n in _STATE_FIELDS))

    def mean(self, name: str) -> float:
        try:
            col = self.columns[name]
        except KeyError:
            raise ConfigurationError(f"unknown trajectory column {name!r}") from None
        return math.fsum(col) / len(col)


def _check_finite(state: tuple[float, ...], aux: tuple[float, ...], t: float) -> None:
    # a NaN or an infinity makes the sum non-finite, so a finite sum proves
    # every value finite; a non-finite sum of finite values (an overflow)
    # falls through the loops without raising
    if math.isfinite(sum(state) + sum(aux)):
        return
    for name, v in zip(_STATE_FIELDS, state):
        if not math.isfinite(v):
            raise EngineError(f"non-finite value in stock {name!r} at t={t:.6f}")
    for name, v in zip(_AUX_FIELDS, aux):
        if not math.isfinite(v):
            raise EngineError(f"non-finite value in auxiliary {name!r} at t={t:.6f}")


def sd_step_count(horizon: float, dt: float) -> int:
    """The number of steps of size dt that cover the horizon.

    Rejects a non-positive or non-finite horizon or dt, a dt above the
    horizon, and more than ``MAX_SD_STEPS`` steps: a run keeps every step,
    some 840 bytes each.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if horizon <= 0.0 or not math.isfinite(horizon):
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    if dt > horizon:
        raise ConfigurationError(f"dt must lie in (0, horizon], got {dt}")
    steps = horizon / dt - 1e-12
    # ceil(steps) <= MAX_SD_STEPS exactly when steps <= MAX_SD_STEPS, which
    # is false for an overflow to inf
    if not steps <= MAX_SD_STEPS:
        raise ConfigurationError(
            f"horizon {horizon!r} at dt {dt!r} needs {steps:.3g} flow-model steps, "
            f"more than the {MAX_SD_STEPS} allowed"
        )
    return math.ceil(steps)


def run_sd(
    initial: SdState, params: SdParams, horizon: float = 126.0, dt: float = 0.25
) -> SdTrajectory:
    """Integrate from ``initial`` until the horizon is covered.

    Records the initial state plus every step; the final recorded time is
    the first multiple of dt at or beyond the horizon.  Each step works on
    float tuples and keeps its nine state and nine auxiliary values as one
    row; the rows become the trajectory's columns when the run ends, so no
    SdState or SdAux is built per step.  Aborts with ``EngineError`` naming
    the first non-finite quantity if the state explodes.
    """
    params.validate()
    initial.validate()
    n_steps = sd_step_count(horizon, dt)
    state = _state_values(initial)
    a = _aux_values(state, params)
    _check_finite(state, a, 0.0)
    times = [0.0]
    rows = [state + a]
    clamp_events = 0
    for i in range(1, n_steps + 1):
        # a is the auxiliaries of state: the step reuses the previous row's
        state, clamped = _step_values(state, a, params, dt)
        if clamped:
            clamp_events += 1
        t = i * dt
        a = _aux_values(state, params)
        _check_finite(state, a, t)
        times.append(t)
        rows.append(state + a)
    columns = dict(zip(_STATE_FIELDS + _AUX_FIELDS, map(list, zip(*rows))))
    return SdTrajectory(dt=dt, times=times, columns=columns, clamp_events=clamp_events)


def mass_residuals(traj: SdTrajectory, params: SdParams) -> list[tuple[float, float, float]]:
    """Per-record relative mass-balance residuals (t, project, ops).

    Each chain's stocks minus its initial mass must equal integrated
    exogenous inflow; the residual is normalized by max(1, chain mass).
    """
    col = traj.columns
    # each chain's mass at every record
    proj_chain = zip(col["project_backlog"], col["project_wip"], col["project_completed"])
    proj_mass = [b + w + c for b, w, c in proj_chain]
    ops_chain = zip(col["ops_backlog"], col["ops_wip"], col["ops_completed"], col["rework_pool"])
    ops_mass = [b + w + c + r for b, w, c, r in ops_chain]
    proj0, ops0 = proj_mass[0], ops_mass[0]
    out = []
    for t, proj, ops in zip(traj.times, proj_mass, ops_mass):
        proj_expect = proj0 + params.project_arrivals * t
        ops_expect = ops0 + (params.ops_arrivals + params.rework_inflow) * t
        rp = (proj - proj_expect) / max(1.0, abs(proj_expect))
        ro = (ops - ops_expect) / max(1.0, abs(ops_expect))
        out.append((t, rp, ro))
    return out

