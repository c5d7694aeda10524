"""Event-driven model of a skill-based team working a prioritized backlog.

Work arrives from Poisson generators and is routed to an engineer's queue
the moment it arrives (shortest queue first, affinity as the tie-break).
Service is preempt-resume: items can be stopped by a skill mismatch, by a
strictly higher-priority arrival, or by a management interruption, and
carry their remaining work content with them.  An item stopped for want
of skill is re-routed at once.  Completed items can emit follow-on
incidents, which are routed at once too and compete with fresh demand.

Routing is work-conserving: an engineer whose own queue is empty pulls the
best compatible waiting item from a colleague's queue rather than idling.
With identical exponential servers this keeps the number-in-system process
of a single-class scenario exactly that of the classic multi-server queue,
which is what the validation harness leans on.

Conventions: the clock is in days, service demands in work-hours.  An
engineer delivers ``hours_per_day * capacity_factor`` work-hours per
elapsed day.  Event log records are ``(time, kind, item_id, engineer_id,
detail)`` with engineer_id -1 when no engineer is involved.
"""
from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

from .domain import (
    Affinity,
    Engineer,
    Priority,
    SkillSpec,
    WorkItem,
    WorkType,
    queue_key,
    WorkQueue,
)
from .errors import ConfigurationError, StructuralError

EventRecord = tuple[float, str, int, int, str]

# calendar event kinds
_EV_ARRIVAL = 0
_EV_SERVICE_END = 1  # ends a service segment, whatever its outcome

# why a service segment ends before its work is done, as the DesStats
# counter the stop adds to and the detail of its "stop" log record
_STOP_SKILL = ("stop_skill", "skill")
_STOP_INTERRUPT = ("stop_interrupt", "interrupt")
_STOP_PREEMPT = ("preemption_count", "preempt")

_MIX_TOL = 1e-9

# At most one management interruption per minute of busy time, on average.
# Each interrupt re-draws the segment end as t + gap; at rates near 1e17 a
# day the gap rounds away, t + gap == t, and the clock stops.  A minute is
# far above a day's float resolution at any horizon a run can hold in memory.
MAX_INTERRUPT_RATE = 24.0 * 60.0

# The most whole days a run may cover: each class that completes work keeps
# two day-by-day series, an array('d') of sums and an array('q') of counts,
# 16 bytes a day (16 MB per class at the bound).
MAX_DES_DAYS = 10**6

# Samples sorted at a time when a summary ranks a class's completion days:
# each run is sorted as float objects, 32 bytes a sample, then kept as an
# array('d'), so ranking n samples holds 8n bytes plus one run's floats.
SORT_RUN = 4096


def des_day_count(horizon: float) -> int:
    """The whole days of ``horizon``; rejects a bad horizon or more than ``MAX_DES_DAYS``."""
    if horizon <= 0.0 or not math.isfinite(horizon):
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    n_days = int(horizon)
    if n_days > MAX_DES_DAYS:
        raise ConfigurationError(
            f"horizon {horizon!r} covers {n_days} days of event-model series, "
            f"more than the {MAX_DES_DAYS} allowed"
        )
    return n_days


def sample_interarrival(rate: float, rng) -> float:
    """Strictly positive exponential variate with the given daily rate."""
    if rate <= 0.0 or not math.isfinite(rate):
        raise ConfigurationError(f"interarrival rate must be positive and finite, got {rate}")
    u = rng.random()
    while u <= 0.0:  # guard against log(0)
        u = rng.random()
    return -math.log(u) / rate


def sample_exponential_hours(mean_hours: float, rng) -> float:
    """Strictly positive exponential variate with the given mean.

    The mean is not checked here, on every draw: each caller's config
    validation has already required it to be positive and finite.
    """
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) * mean_hours


def _check_mix(mix, what: str) -> None:
    if len(mix) != 3:
        raise ConfigurationError(f"{what}: expected three probabilities, got {len(mix)}")
    # written so that a NaN entry fails both tests
    if not all(p >= 0.0 for p in mix):
        raise ConfigurationError(f"{what}: negative or NaN probability")
    if not abs(sum(mix) - 1.0) <= _MIX_TOL:
        raise ConfigurationError(f"{what}: probabilities sum to {sum(mix)!r}, not 1")


def _priority_index(priority: Priority) -> int:
    # mixes and service means are stored in (P1, P2, P3) order
    return int(Priority.P1) - int(priority)


def _priority_cuts(mix) -> tuple[float, float]:
    """The P1 cut and the P1+P2 cut that ``_sample_priority`` compares against."""
    return mix[0], mix[0] + mix[1]


def _sample_priority(p1_cut: float, p12_cut: float, rng) -> Priority:
    u = rng.random()
    if u < p1_cut:
        return Priority.P1
    if u < p12_cut:
        return Priority.P2
    return Priority.P3


class SkillShare(NamedTuple):
    """One entry of a skill mix: a required skill and its probability."""

    skill: SkillSpec
    p: float


@dataclass
class GeneratorConfig:
    """One Poisson source of work of a single type.

    ``priority_mix`` and ``service_mean_hours`` are aligned (P1, P2, P3)
    triples; ``skill_mix`` assigns a required skill to each item, and a
    plain ``(skill, p)`` pair serves as an entry.
    """

    work_type: WorkType
    daily_rate: float
    priority_mix: tuple[float, float, float]
    service_mean_hours: tuple[float, float, float]
    skill_mix: tuple[SkillShare, ...]

    def validate(self) -> None:
        name = f"generator[{self.work_type.value}]"
        if self.daily_rate < 0.0 or not math.isfinite(self.daily_rate):
            raise ConfigurationError(f"{name}: daily_rate must be finite and >= 0")
        _check_mix(self.priority_mix, f"{name}.priority_mix")
        if len(self.service_mean_hours) != 3:
            raise ConfigurationError(f"{name}: need three service means (P1, P2, P3)")
        # P3 takes every draw at or above the P1+P2 cut, and float rounding can
        # leave that cut below 1 even when P3's own probability is 0
        p3_drawable = _priority_cuts(self.priority_mix)[1] < 1.0
        for pr, mean in zip((Priority.P1, Priority.P2, Priority.P3), self.service_mean_hours):
            if not math.isfinite(mean):
                raise ConfigurationError(f"{name}: service mean for {pr.name} must be finite")
            drawable = self.priority_mix[_priority_index(pr)] > 0.0 or (
                pr is Priority.P3 and p3_drawable
            )
            if drawable and mean <= 0.0:
                raise ConfigurationError(f"{name}: service mean for {pr.name} must be positive")
        if not self.skill_mix:
            raise ConfigurationError(f"{name}: empty skill_mix")
        total = sum(p for _, p in self.skill_mix)
        if not all(p >= 0.0 for _, p in self.skill_mix) or not abs(total - 1.0) <= _MIX_TOL:
            raise ConfigurationError(f"{name}: skill_mix probabilities must be >= 0 and sum to 1")

    def mean_for(self, priority: Priority) -> float:
        return self.service_mean_hours[_priority_index(priority)]


class ArrivalPlan:
    """A validated generator's arrival sampling, worked out once.

    Each item draws, in this fixed order, its priority, its required skill
    and its service demand.  The cuts are the floats those draws compare
    against: ``mix[0]`` and ``mix[0] + mix[1]`` for the priority, and the
    running sums of the skill mix, added left to right from 0.0.  They are
    the numbers a per-draw walk of the mixes would add up, so every draw
    picks the same outcome.
    """

    __slots__ = (
        "work_type", "daily_rate", "p1_cut", "p12_cut", "means", "skill_cuts", "skills", "details"
    )

    def __init__(self, gen: GeneratorConfig) -> None:
        self.work_type = gen.work_type
        self.daily_rate = gen.daily_rate
        self.p1_cut, self.p12_cut = _priority_cuts(gen.priority_mix)
        self.means = [0.0] * (max(Priority) + 1)  # indexed by int(priority)
        # an arrival's event-log detail, "<work type>:<priority>", by priority
        self.details = [""] * (max(Priority) + 1)
        for pr in Priority:
            self.means[pr] = gen.mean_for(pr)
            self.details[pr] = f"{gen.work_type.value}:{pr.name}"
        self.skill_cuts = []
        acc = 0.0
        for _, p in gen.skill_mix:
            acc += p
            self.skill_cuts.append(acc)
        # a draw at or above the last cut (the sum can end just below 1) takes
        # the last spec, which the repeated entry at index len(skill_cuts) holds
        self.skills = [spec for spec, _ in gen.skill_mix] + [gen.skill_mix[-1][0]]

    def sample_item(self, now: float, rng, item_id: int) -> WorkItem:
        priority = _sample_priority(self.p1_cut, self.p12_cut, rng)
        # the cuts never decrease, so this is the first spec whose cut exceeds u
        required = self.skills[bisect_right(self.skill_cuts, rng.random())]
        service = sample_exponential_hours(self.means[priority], rng)
        # validation made every drawable mean positive and finite, so the
        # demand is positive; now >= 0 is the engine's clock
        return WorkItem(item_id, self.work_type, priority, required, service, now)


@dataclass(frozen=True)
class DesModifiers:
    """Knobs a coupled model can turn between replications.

    The defaults, ``DesModifiers()``, are the identity: they leave the
    engine exactly as an uncoupled run.  No interrupt events are scheduled
    at rate 0, and no extra random draws are consumed, so runs are
    byte-identical to baseline.
    """

    rework_multiplier: float = 1.0
    capacity_factor: float = 1.0
    interrupt_rate: float = 0.0  # management interruptions per engineer per busy day

    def validate(self) -> None:
        if self.rework_multiplier < 0.0 or not math.isfinite(self.rework_multiplier):
            raise ConfigurationError("rework_multiplier must be finite and >= 0")
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ConfigurationError("capacity_factor must lie in (0, 1]")
        # false for NaN and inf, so they fail it too
        if not 0.0 <= self.interrupt_rate <= MAX_INTERRUPT_RATE:
            raise ConfigurationError(
                f"interrupt_rate must lie in [0, {MAX_INTERRUPT_RATE:g}] per engineer per "
                f"busy day (a mean gap of at least a minute), got {self.interrupt_rate!r}"
            )


@dataclass
class DesConfig:
    """Static team and demand description plus behavioral knobs."""

    generators: list[GeneratorConfig]
    engineers: list[Engineer]
    base_error_prob: float = 0.05
    skill_gap_error_boost: float = 2.0
    p_stop_skill: float = 0.4
    switch_penalty_hours: float = 0.5
    rework_priority_mix: tuple[float, float, float] = (0.3, 0.7, 0.0)
    rework_service_mean_hours: float = 4.0
    interrupt_base_rate: float = 0.0  # scales fed-back pressure into interruptions/day
    hours_per_day: float = 8.0
    skill_types: tuple[str, ...] | None = None

    def validate(self) -> None:
        if not self.engineers:
            raise ConfigurationError("at least one engineer is required")
        seen = set()
        for eng in self.engineers:
            if eng.id in seen:
                raise ConfigurationError(f"duplicate engineer id {eng.id}")
            seen.add(eng.id)
        for gen in self.generators:
            gen.validate()
        # the range tests below are false for NaN, so NaN fails them too
        if not 0.0 <= self.base_error_prob <= 1.0:
            raise ConfigurationError("base_error_prob must lie in [0, 1]")
        if not 0.0 <= self.skill_gap_error_boost < math.inf:
            raise ConfigurationError("skill_gap_error_boost must be finite and >= 0")
        # at 1 an item below its engineer's level is stopped on every start, each
        # stop at a random fraction of what is left: the stops come ever closer
        # together and the clock never reaches the horizon
        if not 0.0 <= self.p_stop_skill < 1.0:
            raise ConfigurationError("p_stop_skill must lie in [0, 1)")
        if not 0.0 <= self.switch_penalty_hours < math.inf:
            raise ConfigurationError("switch_penalty_hours must be finite and >= 0")
        _check_mix(self.rework_priority_mix, "rework_priority_mix")
        if not 0.0 < self.rework_service_mean_hours < math.inf:
            raise ConfigurationError("rework_service_mean_hours must be positive and finite")
        if not 0.0 <= self.interrupt_base_rate < math.inf:
            raise ConfigurationError("interrupt_base_rate must be finite and >= 0")
        if not 0.0 < self.hours_per_day < math.inf:
            raise ConfigurationError("hours_per_day must be positive and finite")
        # a declared catalog turns unknown skill types into configuration errors
        # (as opposed to valid types no engineer holds, which dead-letter at runtime)
        if self.skill_types is not None:
            catalog = set(self.skill_types)
            for eng in self.engineers:
                if eng.skill.skill_type not in catalog:
                    raise ConfigurationError(
                        f"engineer {eng.id}: unknown skill type {eng.skill.skill_type!r}"
                    )
            for gen in self.generators:
                for spec, p in gen.skill_mix:
                    if p > 0.0 and spec.skill_type not in catalog:
                        raise ConfigurationError(
                            f"generator[{gen.work_type.value}]: unknown skill type {spec.skill_type!r}"
                        )


class EventCalendar:
    """Min-heap of (time, seq, kind, a, b) tuples; seq breaks time ties FIFO."""

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._seq = 0
        self._now = 0.0

    # not read by the engine; perfbench's tracer reads it for des.calendar.peak_len
    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: int, a: int, b: int) -> None:
        if time < self._now:
            raise StructuralError(f"event scheduled at {time} before current clock {self._now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, a, b))

    def pop(self) -> tuple[float, int, int, int, int] | None:
        if not self._heap:
            return None
        ev = heapq.heappop(self._heap)
        self._now = ev[0]
        return ev


def _quantile_ranks(q: float, n: int) -> tuple[int, int, float]:
    """(lo, hi, frac): the q-quantile of n sorted values v is v[lo]*(1-frac) + v[hi]*frac."""
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    return lo, min(lo + 1, n - 1), pos - lo


def _quantile(sorted_vals, q: float, n: int | None = None) -> float:
    """Linear-interpolation quantile of ``n`` values in ascending order.

    ``n`` defaults to ``len(sorted_vals)``.  Only the ranks that
    ``_quantile_ranks`` names are looked up, so a mapping from rank to value
    that holds just those (see ``_ranked_quantiles``) serves as well as the
    whole sorted list.
    """
    if n is None:
        n = len(sorted_vals)
    if n == 1:
        return sorted_vals[0]
    lo, hi, frac = _quantile_ranks(q, n)
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def _take(merged, positions) -> list[float]:
    """The values at the given ascending 0-based positions of an iterator."""
    out = []
    done = 0  # values consumed so far
    for k in positions:
        out.append(next(islice(merged, k - done, None)))
        done = k + 1
    return out


def _ranked_quantiles(samples: array, qs: tuple[float, ...]) -> list[float]:
    """``[_quantile(sorted(samples), q) for q in qs]``, without the sorted list.

    The samples are sorted ``SORT_RUN`` at a time into ``array('d')`` runs,
    and the runs are merged only as far as the ranks the quantiles read: up
    from the smallest for ranks in the lower half, down from the largest for
    the rest.  ``heapq.merge`` takes equal values from the earlier run first,
    as a stable sort of the whole would, and the walk down takes the runs
    in reverse, so every rank holds the very float ``sorted`` puts there.
    """
    n = len(samples)
    runs = [array("d", sorted(samples[i:i + SORT_RUN])) for i in range(0, n, SORT_RUN)]
    ranks = {r for q in qs for r in _quantile_ranks(q, n)[:2]}
    low = sorted(r for r in ranks if 2 * r < n)
    high = sorted(n - 1 - r for r in ranks if 2 * r >= n)  # counted from the largest
    at = dict(zip(low, _take(heapq.merge(*runs), low)))
    down = heapq.merge(*[reversed(run) for run in reversed(runs)], reverse=True)
    at.update(zip((n - 1 - k for k in high), _take(down, high)))
    return [_quantile(at, q, n) for q in qs]


def _add_days(x: array, y: array) -> array:
    """Day-by-day sum of two day series of one shape, in ``x``'s element type."""
    return array(x.typecode, [a + b for a, b in zip(x, y, strict=True)])


def _sample_mean(samples: array | None) -> float | None:
    """Exact mean of a class's samples; None for a class without any."""
    return math.fsum(samples) / len(samples) if samples else None


def class_order(key: tuple[WorkType, Priority]) -> tuple[str, int]:
    """Sort key of a (work type, priority) class: by type name, then P1 first."""
    return key[0].value, -int(key[1])


class DesStats:
    """Raw accumulators from one or more replications, plus derived summaries.

    Every accumulator is declared once below, grouped by kind, and the kind
    says how ``__init__`` starts it and how ``merge_stats`` pools it:
    scalar counters and integrals add; per-class counts add key by key;
    per-class samples concatenate; day series, per class or per priority,
    add day by day.  Totals that follow from the accumulators
    (``arrived_total``, ``completed_total``, ``stop_count``,
    ``reassignment_count`` and ``daily_individual_queue``) are read-only
    properties, not stored.  The summary's per-day rates, declared in
    ``PER_DAY``, divide one of these by ``total_days``, the days of all
    replications together.

    Merging pools raw samples and sums counters, so every derived statistic
    of ``merge_stats(a, b)`` equals that of ``merge_stats(b, a)`` exactly
    (sample means use exact summation, quantiles sort first).
    ``DesStats(h)`` is the empty pool, the identity of ``merge_stats``: it
    counts 0 replications (a finished run counts 1) and holds zeros, so
    merged with ``b`` on either side it gives ``b``'s accumulators value
    for value.  It covers no days, so its per-day rates are None.

    Every series is a typed array, so pooling one is a block copy or a
    day-by-day add that keeps its element type.  Per-class samples are
    ``array('d')`` buffers, 8 bytes a sample, read only through
    ``math.fsum``, ``len`` and ``_ranked_quantiles``, which sorts them a run
    at a time, so a summary holds about 8 more bytes a sample, not the 32 of
    a sorted list of floats.  Each class's day series are a zero-filled
    ``array('d')`` of completion-day sums and ``array('q')`` of completion
    counts, 16 bytes a day.  The queue samples by priority have the same
    shape: a zero-filled ``array('q')`` of ``n_days`` for every priority,
    whose day-boundary slices ``DesEngine._sample_days`` fills in place.
    """

    # scalar counters, each with the summary key it is reported under
    COUNTERS = {
        "stop_skill": "stops_skill",
        "stop_interrupt": "stops_interrupt",
        "preemption_count": "preemptions",
        "rework_count": "rework_incidents",
        "dead_letter_count": "dead_letters",
    }
    # time integrals of the number in system and of the number busy
    INTEGRALS = ("in_system_integral", "busy_integral")
    # dicts keyed by (work type, priority)
    CLASS_COUNTS = ("arrived", "completed", "final_in_queue", "final_in_service")
    CLASS_SAMPLES = ("completion_samples", "queue_time_samples")
    CLASS_DAILY = ("daily_completion_sum", "daily_completion_count")
    # dicts keyed by every priority, one entry per day boundary
    PRIORITY_DAILY = ("daily_queue_by_priority",)
    # derived totals reported beside the counters
    DERIVED_COUNTERS = {
        "arrived_total": "arrived_total",
        "completed_total": "completed_total",
        "stop_count": "stops_total",
        "reassignment_count": "reassignments",
    }
    # per-day rates: value / total_days, reported under its key
    PER_DAY = {
        "completed_total": "completions_per_day",
        "rework_count": "rework_incidents_per_day",
        "preemption_count": "preemptions_per_day",
        "in_system_integral": "time_avg_in_system",
        "busy_integral": "time_avg_busy_engineers",
    }

    def __init__(self, horizon: float) -> None:
        self.horizon = horizon
        self.replications = 0
        self.n_days = des_day_count(horizon)
        for name in self.COUNTERS:
            setattr(self, name, 0)
        for name in self.INTEGRALS:
            setattr(self, name, 0.0)
        for name in self.CLASS_COUNTS + self.CLASS_SAMPLES + self.CLASS_DAILY:
            setattr(self, name, {})
        for name in self.PRIORITY_DAILY:
            setattr(self, name, {p: array("q", [0]) * self.n_days for p in Priority})

    # -- accumulation ------------------------------------------------------------
    def note_arrival(self, key: tuple[WorkType, Priority]) -> None:
        self.arrived[key] = self.arrived.get(key, 0) + 1

    def note_completion(self, key: tuple[WorkType, Priority], days: float, queue_days: float, t: float) -> None:
        # the per-class dicts all gain a key on its first completion
        n_days = self.n_days
        if key in self.completed:
            self.completed[key] += 1
            self.completion_samples[key].append(days)
            self.queue_time_samples[key].append(queue_days)
        else:
            self.completed[key] = 1
            self.completion_samples[key] = array("d", (days,))
            self.queue_time_samples[key] = array("d", (queue_days,))
            self.daily_completion_sum[key] = array("d", [0.0]) * n_days
            self.daily_completion_count[key] = array("q", [0]) * n_days
        if n_days > 0:
            d = int(t)
            if d >= n_days:
                d = n_days - 1
            self.daily_completion_sum[key][d] += days
            self.daily_completion_count[key][d] += 1

    # -- derived -----------------------------------------------------------------
    def class_keys(self) -> list[tuple[WorkType, Priority]]:
        return sorted(set(self.arrived) | set(self.completed), key=class_order)

    def mean_completion_days(self, key) -> float | None:
        return _sample_mean(self.completion_samples.get(key))

    def mean_queue_days(self, key) -> float | None:
        return _sample_mean(self.queue_time_samples.get(key))

    # -- pooled over the work types of one priority ----------------------------------
    def completed_of_priority(self, priority: Priority) -> int:
        return sum(c for (_, pr), c in self.completed.items() if pr is priority)

    def _pooled_mean(self, priority: Priority, mean_of) -> tuple[float, int]:
        # per-class means weighted by completions, added in class_keys() order
        total, n = 0.0, 0
        for key in self.class_keys():
            c = self.completed.get(key, 0)
            if key[1] is priority and c:
                total += mean_of(key) * c
                n += c
        return (total / n if n else math.nan), n

    def pooled_completion_days(self, priority: Priority) -> tuple[float, int]:
        """(mean completion days, completions) of one priority; NaN if none."""
        return self._pooled_mean(priority, self.mean_completion_days)

    def pooled_queue_days(self, priority: Priority) -> tuple[float, int]:
        """(mean queue days, completions) of one priority; NaN if none."""
        return self._pooled_mean(priority, self.mean_queue_days)

    def priority_daily_mean(self, priority: Priority) -> list[float | None]:
        """Daily mean completion time of one priority, None on days without one."""
        sums = array("d", [0.0]) * self.n_days
        counts = array("q", [0]) * self.n_days
        for key, daily in self.daily_completion_sum.items():
            if key[1] is priority:
                sums = _add_days(sums, daily)
                counts = _add_days(counts, self.daily_completion_count[key])
        return [s / c if c > 0 else None for s, c in zip(sums, counts)]

    @property
    def arrived_total(self) -> int:
        return sum(self.arrived.values())

    @property
    def completed_total(self) -> int:
        return sum(self.completed.values())

    @property
    def stop_count(self) -> int:
        return self.stop_skill + self.stop_interrupt + self.preemption_count

    @property
    def reassignment_count(self) -> int:
        # a skill stop re-routes its item; a dead letter is routed nowhere
        return self.stop_skill + self.dead_letter_count

    @property
    def daily_individual_queue(self) -> list[int]:
        """Items waiting in engineers' queues at each day boundary."""
        return [sum(day) for day in zip(*self.daily_queue_by_priority.values())]

    @property
    def total_days(self) -> float:
        return self.horizon * self.replications

    def to_flat_dict(self) -> dict:
        """JSON-compatible flat summary with stable, sorted keys."""
        out: dict = {"horizon_days": self.horizon, "replications": self.replications}
        for counters in (self.DERIVED_COUNTERS, self.COUNTERS):
            for name, report_key in counters.items():
                out[report_key] = getattr(self, name)
        total_days = self.total_days
        for name, report_key in self.PER_DAY.items():
            out[report_key] = getattr(self, name) / total_days if self.replications else None
        for key in self.class_keys():
            wt, pr = key
            stem = f"class.{wt.value}.{pr.name.lower()}"
            out[f"{stem}.arrived"] = self.arrived.get(key, 0)
            out[f"{stem}.completed"] = self.completed.get(key, 0)
            out[f"{stem}.mean_completion_days"] = self.mean_completion_days(key)
            samples = self.completion_samples.get(key)
            median, p90 = _ranked_quantiles(samples, (0.5, 0.9)) if samples else (None, None)
            out[f"{stem}.median_completion_days"] = median
            out[f"{stem}.p90_completion_days"] = p90
            out[f"{stem}.mean_queue_days"] = self.mean_queue_days(key)
        return out


def merge_stats(a: DesStats, b: DesStats) -> DesStats:
    """Pool two replication summaries; derived stats are order-independent."""
    if a.horizon != b.horizon:
        raise StructuralError("cannot merge stats with different horizons")
    out = DesStats(a.horizon)
    out.replications = a.replications + b.replications
    for name in (*DesStats.COUNTERS, *DesStats.INTEGRALS):
        setattr(out, name, getattr(a, name) + getattr(b, name))
    # a's keys first, then b's new ones, so dict and sample orders are fixed
    for src in (a, b):
        for name in DesStats.CLASS_COUNTS:
            acc = getattr(out, name)
            for key, v in getattr(src, name).items():
                acc[key] = acc.get(key, 0) + v
        # new buffers throughout, so out shares no storage with a or b
        for name in DesStats.CLASS_SAMPLES:
            acc = getattr(out, name)
            for key, v in getattr(src, name).items():
                acc.setdefault(key, array("d")).extend(v)
        # out starts with zeros for every priority and no class series, so a new
        # class's series is copied: v[:] equals 0 + v, as day sums are >= 0
        for name in DesStats.CLASS_DAILY + DesStats.PRIORITY_DAILY:
            acc = getattr(out, name)
            for key, v in getattr(src, name).items():
                acc[key] = _add_days(acc[key], v) if key in acc else v[:]
    return out


class _Server:
    __slots__ = (
        "index",
        "engineer",
        "queue",
        "colleague_queues",
        "project_primary",
        "item",
        "seg_start",
        "rate",
        "seg_stop",
        "gap_boost",
        "epoch",
    )

    def __init__(self, index: int, engineer: Engineer, rate: float) -> None:
        self.index = index
        self.engineer = engineer
        self.queue = WorkQueue(name=f"engineer[{engineer.id}]")
        # queues of the other servers of this skill type (queues, not servers,
        # so that servers hold no reference cycle and die with their engine)
        self.colleague_queues: list[WorkQueue] = []
        self.project_primary = engineer.affinity is Affinity.PROJECT_PRIMARY
        self.item: WorkItem | None = None
        self.seg_start = 0.0
        self.rate = rate  # work-hours delivered per elapsed day
        self.seg_stop: tuple[str, str] | None = None  # None: the segment completes
        self.gap_boost = False
        # bumped at each segment start only: a preempted segment's end event
        # then finds either a newer epoch or no item, and is ignored
        self.epoch = 0


class DesEngine:
    """Single-replication engine; see ``run_des`` for the public entry point."""

    def __init__(
        self,
        config: DesConfig,
        modifiers: DesModifiers,
        seed: int,
        horizon: float,
        collect_log: bool = True,
        initial_items: list[WorkItem] | None = None,
    ) -> None:
        import random as _random

        config.validate()
        modifiers.validate()
        initial_items = initial_items or []
        ids = [i.id for i in initial_items]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("initial items must have distinct ids")
        for i in initial_items:
            if i.arrival_time != 0.0:
                raise ConfigurationError("initial items must carry arrival_time 0")
            if not 0.0 < i.service_demand_hours < math.inf:  # false for NaN too
                raise ConfigurationError(f"initial item {i.id}: demand must be positive and finite")
        # checks the horizon with des_day_count before any series is allocated
        self.stats = DesStats(horizon)
        self.cfg = config
        self.modifiers = modifiers
        self.horizon = horizon
        self.rng = _random.Random(seed)
        self.calendar = EventCalendar()
        self.log: list[EventRecord] | None = [] if collect_log else None
        self.servers = [
            _Server(i, eng, config.hours_per_day * eng.capacity_factor * modifiers.capacity_factor)
            for i, eng in enumerate(config.engineers)
        ]
        self.servers_by_type: dict[str, list[_Server]] = {}
        for srv in self.servers:
            self.servers_by_type.setdefault(srv.engineer.skill.skill_type, []).append(srv)
        for srv in self.servers:
            srv.colleague_queues = [
                other.queue for other in self.servers_by_type[srv.engineer.skill.skill_type]
                if other is not srv
            ]
        self._queue_counts = [srv.queue.priority_counts for srv in self.servers]
        self.plans = [ArrivalPlan(gen) for gen in config.generators]
        self._rework_cuts = _priority_cuts(config.rework_priority_mix)
        # copies, so a run leaves the caller's items as they were
        self.initial_items = [
            WorkItem(i.id, i.work_type, i.priority, i.required, i.service_demand_hours, 0.0)
            for i in initial_items
        ]
        # generated ids follow the largest initial id, so no two items share one
        self._id_counter = max([0, *ids])
        self.n_in_system = 0
        self.n_busy = 0
        self.next_sample_day = 1

    def _next_id(self) -> int:
        self._id_counter += 1
        return self._id_counter

    # -- time bookkeeping ----------------------------------------------------
    def _sample_days(self, t: float) -> None:
        # run calls this once t reaches next_sample_day, which is then at most
        # n_days: one sample, at index d - 1, per day boundary d up to min(t,
        # n_days), all of the same queue counts, read by int(priority).
        last = min(int(t), self.stats.n_days)
        n = last - self.next_sample_day + 1
        own = [sum(col) for col in zip(*self._queue_counts)]
        for p, series in self.stats.daily_queue_by_priority.items():
            series[last - n:last] = array("q", [own[p]]) * n
        self.next_sample_day = last + 1

    # -- event handlers --------------------------------------------------------
    def _admit(self, item: WorkItem, t: float, kind: str, eng_id: int, detail: str) -> None:
        self.stats.note_arrival((item.work_type, item.priority))
        self.n_in_system += 1
        if self.log is not None:
            self.log.append((t, kind, item.id, eng_id, detail))

    def _on_arrival(self, t: float, gen_index: int) -> None:
        plan = self.plans[gen_index]
        rng = self.rng
        self.calendar.push(t + sample_interarrival(plan.daily_rate, rng), _EV_ARRIVAL, gen_index, 0)
        item = plan.sample_item(t, rng, self._next_id())
        detail = plan.details[item.priority] if self.log is not None else ""
        self._admit(item, t, "arrival", -1, detail)
        self._route(item, t)

    def _on_service_end(self, t: float, server_index: int, epoch: int) -> None:
        srv = self.servers[server_index]
        if epoch != srv.epoch or srv.item is None:
            return  # a preemption ended this segment early
        if srv.seg_stop is not None:
            self._stop(srv, t, srv.seg_stop)
            return
        item = srv.item
        srv.item = None
        self.n_busy -= 1
        days = t - item.arrival_time
        self.stats.note_completion((item.work_type, item.priority), days, item.total_queue_days, t)
        self.n_in_system -= 1
        if self.log is not None:
            self.log.append((t, "complete", item.id, srv.engineer.id, f"{days:.6f}"))
        self._maybe_rework(item, t, srv)

    def _stop(self, srv: _Server, t: float, reason: tuple[str, str]) -> None:
        """End ``srv``'s segment before its work is done, for ``reason`` (a ``_STOP_*``)."""
        item = srv.item
        srv.item = None
        self.n_busy -= 1
        done = (t - srv.seg_start) * srv.rate
        item.remaining_service_hours = max(0.0, item.remaining_service_hours - done)
        counter, detail = reason
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self.log is not None:
            self.log.append((t, "stop", item.id, srv.engineer.id, detail))
        if reason is _STOP_SKILL:
            # insufficient skill surfaced mid-service: route the item afresh
            self._route(item, t)
        else:
            # the engineer puts it back on their own queue and pays to switch
            item.remaining_service_hours += self.cfg.switch_penalty_hours
            srv.queue.push(item, t)

    def _maybe_rework(self, item: WorkItem, t: float, srv: _Server) -> None:
        cfg = self.cfg
        boost = cfg.skill_gap_error_boost if srv.gap_boost else 1.0
        p = cfg.base_error_prob * self.modifiers.rework_multiplier * boost
        if p <= 0.0 or self.rng.random() >= min(1.0, p):
            return
        priority = _sample_priority(*self._rework_cuts, self.rng)
        # the mean is validated positive and finite, so the demand is positive
        service = sample_exponential_hours(cfg.rework_service_mean_hours, self.rng)
        incident = WorkItem(
            self._next_id(), WorkType.REWORK_INCIDENT, priority, item.required, service, t
        )
        self.stats.rework_count += 1
        self._admit(incident, t, "incident", srv.engineer.id, f"from:{item.id}")
        self._route(incident, t)

    # -- dispatch ---------------------------------------------------------------
    def _dead_letter(self, item: WorkItem, t: float) -> None:
        self.stats.dead_letter_count += 1
        self.n_in_system -= 1
        if self.log is not None:
            self.log.append((t, "dead_letter", item.id, -1, item.required.skill_type))

    def _steal(self, srv: _Server, t: float) -> WorkItem | None:
        # pull the discipline-best compatible waiting item from a colleague
        best_queue = None
        best_item = None
        best_key = None
        for queue in srv.colleague_queues:
            if not queue.size:
                continue
            cand = queue.peek()
            k = queue_key(cand)
            if best_key is None or k < best_key:
                best_key = k
                best_queue = queue
                best_item = cand
        if best_queue is None:
            return None
        item = best_queue.remove(best_item.id, t)
        if self.log is not None:
            self.log.append((t, "dispatch", item.id, srv.engineer.id, "steal"))
        return item

    def _route(self, item: WorkItem, t: float) -> None:
        # shortest own queue of the item's skill type, then affinity, then id
        cands = self.servers_by_type.get(item.required.skill_type)
        if not cands:
            self._dead_letter(item, t)
            return
        # (queue length, affinity miss) compared as the one integer
        # 2 * length + miss, then the lower engineer id
        is_project = item.work_type is WorkType.PROJECT_TASK
        best = cands[0]
        best_key = 2 * best.queue.size + (best.project_primary != is_project)
        for srv in cands[1:]:
            k = 2 * srv.queue.size + (srv.project_primary != is_project)
            if k < best_key or (k == best_key and srv.engineer.id < best.engineer.id):
                best_key = k
                best = srv
        if self.log is not None:
            self.log.append((t, "dispatch", item.id, best.engineer.id, "route"))
        best.queue.push(item, t)
        if best.item is not None and item.priority > best.item.priority:
            self._stop(best, t, _STOP_PREEMPT)

    def _dispatch(self, t: float) -> None:
        # work-conserving start pass: idle engineers pull their own queue, then
        # steal.  One pass in index order is a fixpoint: nothing in it pushes
        # (starting service and stealing only take items out of queues), so
        # an engineer left idle found its own queue and every same-type
        # colleague's queue empty, and they stay empty for the rest of the pass.
        # Every item in the system is in service or waiting in some queue, so
        # n_in_system - n_busy items wait; once that many have started, the
        # engineers still to be visited would find nothing, and the pass ends.
        servers = self.servers
        waiting = self.n_in_system - self.n_busy
        if not waiting or self.n_busy == len(servers):
            return
        for srv in servers:
            if srv.item is None:
                nxt = srv.queue.pop_best(t) if srv.queue.size else self._steal(srv, t)
                if nxt is not None:
                    self._start_service(srv, nxt, t)
                    waiting -= 1
                    if not waiting:
                        return

    def _start_service(self, srv: _Server, item: WorkItem, t: float) -> None:
        eng = srv.engineer
        duration = item.remaining_service_hours / srv.rate
        end = t + duration
        seg_stop = None
        gap_boost = False
        if item.required.skill_level > eng.skill.skill_level:
            # the mismatch either stops the work partway or degrades quality
            if self.cfg.p_stop_skill > 0.0 and self.rng.random() < self.cfg.p_stop_skill:
                end = t + self.rng.random() * duration
                seg_stop = _STOP_SKILL
            else:
                gap_boost = True
        irate = self.modifiers.interrupt_rate
        if irate > 0.0:
            t_int = t + sample_interarrival(irate, self.rng)
            if t_int < end:
                end = t_int
                seg_stop = _STOP_INTERRUPT
        srv.item = item
        srv.seg_start = t
        srv.seg_stop = seg_stop
        srv.gap_boost = gap_boost
        srv.epoch += 1
        self.n_busy += 1
        self.calendar.push(end, _EV_SERVICE_END, srv.index, srv.epoch)
        if self.log is not None:
            self.log.append((t, "start", item.id, eng.id, ""))

    # -- main loop ----------------------------------------------------------------
    def run(self) -> DesStats:
        for item in self.initial_items:
            self._admit(item, 0.0, "arrival", -1, "initial")
        if self.initial_items:
            # the whole batch arrives at once: route it in discipline order
            for item in sorted(self.initial_items, key=queue_key):
                self._route(item, 0.0)
            self._dispatch(0.0)
        for gi, gen in enumerate(self.cfg.generators):
            if gen.daily_rate > 0.0:
                self.calendar.push(
                    sample_interarrival(gen.daily_rate, self.rng), _EV_ARRIVAL, gi, 0
                )
        pop = self.calendar.pop
        horizon = self.horizon
        st = self.stats
        n_servers = len(self.servers)
        last = 0.0  # time up to which the integrals are taken
        while True:
            ev = pop()
            if ev is None or ev[0] > horizon:
                # the run ends: this last pass integrates and samples up to the horizon
                ev = None
                t = horizon
            else:
                t, _, kind, a, b = ev
            if t > last:
                dt = t - last
                st.in_system_integral += self.n_in_system * dt
                st.busy_integral += self.n_busy * dt
                last = t
            if t >= self.next_sample_day:
                self._sample_days(t)
            if ev is None:
                break
            if kind == _EV_ARRIVAL:
                self._on_arrival(t, a)
            else:
                self._on_service_end(t, a, b)
            # _dispatch's own early-return test, checked here to skip the call
            if self.n_in_system != self.n_busy and self.n_busy != n_servers:
                self._dispatch(t)
        self._finalize()
        self.stats.replications = 1
        return self.stats

    def _finalize(self) -> None:
        st = self.stats
        in_queue = 0
        for srv in self.servers:
            for item in srv.queue.items():
                key = (item.work_type, item.priority)
                st.final_in_queue[key] = st.final_in_queue.get(key, 0) + 1
                in_queue += 1
            if srv.item is not None:
                key = (srv.item.work_type, srv.item.priority)
                st.final_in_service[key] = st.final_in_service.get(key, 0) + 1
        accounted = st.completed_total + st.dead_letter_count + in_queue + self.n_busy
        if accounted != st.arrived_total:
            raise StructuralError(
                f"work conservation violated: arrived {st.arrived_total}, accounted {accounted}"
            )


def run_des(
    config: DesConfig,
    modifiers: DesModifiers | None = None,
    seed: int = 0,
    horizon: float = 126.0,
    collect_log: bool = True,
    initial_items: list[WorkItem] | None = None,
) -> tuple[DesStats, list[EventRecord]]:
    """Run one replication; returns (stats, event log).

    The log is empty when ``collect_log`` is False.  Each of the
    ``initial_items`` must have ``arrival_time`` 0, a distinct id and a
    positive, finite demand; the run works on copies of them, and numbers
    its own items after the largest initial id.  Identical arguments
    produce identical stats and logs; the seed is the only randomness.
    """
    engine = DesEngine(config, modifiers or DesModifiers(), seed, horizon,
                       collect_log=collect_log, initial_items=initial_items)
    stats = engine.run()
    return stats, (engine.log if engine.log is not None else [])


def run_des_replicated(
    config: DesConfig,
    modifiers: DesModifiers | None = None,
    seed: int = 0,
    horizon: float = 126.0,
    replications: int = 1,
    log_sink: Callable[[int, list[EventRecord]], None] | None = None,
) -> DesStats:
    """Run ``replications`` independent replications with seeds seed, seed+1, ...

    Returns the stats pooled with ``merge_stats``, left-folded in seed
    order: each run is pooled as it ends and dropped, so the fold holds the
    pool and one run, never all runs.  Event logs are collected only for a
    ``log_sink``: replication ``i``'s log is handed to ``log_sink(i, log)``
    as soon as it ends and is not kept.
    """
    if replications < 1:
        raise ConfigurationError("replications must be >= 1")
    merged: DesStats | None = None
    for i in range(replications):
        stats, log = run_des(config, modifiers, seed + i, horizon, collect_log=log_sink is not None)
        if log_sink is not None:
            log_sink(i, log)
        # drop this replication's log before the next one runs
        del log
        merged = stats if merged is None else merge_stats(merged, stats)
    return merged
