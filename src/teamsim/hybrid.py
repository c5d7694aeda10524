"""Cyclic coupling of the event-driven and stock-and-flow models.

Each cycle runs the event model, summarizes its realized rates, calibrates
the flow model with them (feed-forward), integrates the flow model over
the same horizon, and converts the means of its error, pressure and
stop-rate trajectories into service modifiers for the next event-model
run (feedback).  Cycle 0 always runs with identity modifiers, so it
doubles as the uncoupled baseline; differences of later cycles against
cycle 0 expose the loop's effect on each priority class.

Seeding: cycle k uses seed + k, so cycles differ only through modifiers
and the per-cycle stream, and the whole procedure is reproducible from
the scenario seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

from .des import DesModifiers, DesStats, EventRecord, run_des_replicated
from .domain import WorkType
from .errors import ConfigurationError
from .sd import SdParams, SdState, SdTrajectory, run_sd

_EPS = 1e-9


@dataclass(frozen=True)
class FeedForward:
    """Realized per-day rates extracted from one event-model run."""

    project_completion_rate: float
    ops_completion_rate: float
    rework_generation_rate: float
    preemption_rate: float


@dataclass(frozen=True)
class SdSummary:
    """The slice of a flow-model trajectory the coupling cares about."""

    mean_fatigue: float
    mean_mgmt_pressure: float
    mean_stop_rate: float
    mean_error_frac: float
    final_error_frac: float


def summarize_trajectory(traj: SdTrajectory) -> SdSummary:
    return SdSummary(
        mean_fatigue=traj.mean("fatigue"),
        mean_mgmt_pressure=traj.mean("mgmt_pressure"),
        mean_stop_rate=traj.mean("stop_rate"),
        mean_error_frac=traj.mean("error_frac"),
        final_error_frac=traj.columns["error_frac"][-1],
    )


def extract_feedforward(stats: DesStats) -> FeedForward:
    """Realized rates per day over the run (pooled across replications)."""
    days = stats.total_days
    project = sum(
        count for (wt, _), count in stats.completed.items() if wt is WorkType.PROJECT_TASK
    )
    ops = stats.completed_total - project
    return FeedForward(
        project_completion_rate=project / days,
        ops_completion_rate=ops / days,
        rework_generation_rate=stats.rework_count / days,
        preemption_rate=stats.preemption_count / days,
    )


def apply_feedforward(params: SdParams, ff: FeedForward, initial: SdState) -> SdParams:
    """Calibrate the flow model so its initial flows match the event model.

    Nominal completion times are set so that initial WIP divided by them
    reproduces the observed completion rates; the observed rework rate
    enters the rework pool as an exogenous inflow; the baseline stop rate
    is scaled by the observed preemptions per completion (a dimensionless
    measure of how contested service is).  Rates too small to calibrate
    against leave the parameter untouched.
    """
    updates: dict[str, float] = {"rework_inflow": ff.rework_generation_rate}
    if ff.project_completion_rate > _EPS and initial.project_wip > _EPS:
        updates["project_completion_days"] = initial.project_wip / ff.project_completion_rate
    if ff.ops_completion_rate > _EPS and initial.ops_wip > _EPS:
        updates["ops_completion_days"] = initial.ops_wip / ff.ops_completion_rate
    total_rate = ff.project_completion_rate + ff.ops_completion_rate
    if total_rate > _EPS:
        updates["s_base"] = params.s_base * (1.0 + ff.preemption_rate / total_rate)
    new = replace(params, **updates)
    new.validate()
    return new


def extract_feedback(
    summary: SdSummary, params: SdParams, interrupt_base_rate: float
) -> DesModifiers:
    """Convert a flow-model run's summary into event-model service modifiers.

    Reads the summary's means, the figures ``cycles.json`` reports for the
    cycle: fatigue-driven error inflation maps to the rework multiplier,
    mean pressure eats capacity (clamped to [0.5, 1]), and the stop-rate
    ratio scales the management-interruption rate.
    """
    mean_error = summary.mean_error_frac
    if params.base_error_frac <= 0.0:
        if mean_error > 1e-12:
            raise ConfigurationError(
                "cannot form rework multiplier: base_error_frac is 0 but the "
                f"trajectory's mean error fraction is {mean_error}"
            )
        rework_multiplier = 1.0
    else:
        rework_multiplier = mean_error / params.base_error_frac
    capacity = min(1.0, max(0.5, 1.0 - params.k_capacity * summary.mean_mgmt_pressure))
    if params.s_base > 0.0 and interrupt_base_rate > 0.0:
        interrupt = interrupt_base_rate * (summary.mean_stop_rate / params.s_base)
    else:
        interrupt = 0.0
    return DesModifiers(
        rework_multiplier=rework_multiplier,
        capacity_factor=capacity,
        interrupt_rate=interrupt,
    )


def modifier_change(a: DesModifiers, b: DesModifiers) -> float:
    """Largest componentwise relative change between two modifier sets."""

    def rel(x: float, y: float) -> float:
        m = max(abs(x), abs(y))
        return abs(x - y) / m if m > 0.0 else 0.0

    return max(rel(getattr(a, f.name), getattr(b, f.name)) for f in fields(DesModifiers))


@dataclass
class CycleRecord:
    index: int
    modifiers_in: DesModifiers
    feed_forward: FeedForward
    sd_summary: SdSummary
    modifiers_out: DesModifiers
    des_stats: DesStats


@dataclass
class HybridReport:
    cycles: list[CycleRecord]
    converged: bool

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)


def run_hybrid(
    scenario,
    log_sink: Callable[[int, list[EventRecord]], None] | None = None,
) -> HybridReport:
    """Run the coupled procedure for up to ``scenario.cycles_max`` cycles.

    Validates the whole scenario first.  Cycle k >= 1 runs with the
    modifiers cycle k - 1 fed back, and the run stops early, ``converged``,
    once its own output differs from them by less than ``scenario.tol``
    (largest relative component change).
    Each cycle's event model is one ``run_des_replicated`` replication, so
    its log is handled as a replication's is: collected only for a
    ``log_sink``, handed to it as soon as the run ends, and not kept; the
    sink receives it as ``log_sink(k, log)`` for cycle ``k``.  The next
    cycle's event-model run validates the fed-back modifiers, so an
    interrupt rate beyond ``des.MAX_INTERRUPT_RATE`` ends the run with a
    ``ConfigurationError``.
    """
    scenario.validate()

    modifiers = DesModifiers()
    cycles: list[CycleRecord] = []
    converged = False
    for k in range(scenario.cycles_max):
        # one replication, whose log the sink files under cycle k
        stats = run_des_replicated(
            scenario.des,
            modifiers,
            seed=scenario.seed + k,
            horizon=scenario.horizon,
            log_sink=None if log_sink is None else lambda _, log: log_sink(k, log),
        )
        ff = extract_feedforward(stats)
        params_k = apply_feedforward(scenario.sd_params, ff, scenario.sd_initial)
        # the trajectory is dropped once summarized, so none is held through
        # a later event-model run, where the memory peak comes
        summary = summarize_trajectory(
            run_sd(scenario.sd_initial, params_k, scenario.horizon, scenario.dt)
        )
        out = extract_feedback(summary, params_k, scenario.des.interrupt_base_rate)
        cycles.append(
            CycleRecord(
                index=k,
                modifiers_in=modifiers,
                feed_forward=ff,
                sd_summary=summary,
                modifiers_out=out,
                des_stats=stats,
            )
        )
        if k > 0 and modifier_change(out, modifiers) < scenario.tol:
            converged = True
            break
        modifiers = out

    return HybridReport(cycles=cycles, converged=converged)
