"""Event-driven engine tests.

The deterministic cases pin down single-event arithmetic (service rates,
capacity modifiers, switch penalties) through injected initial items; the
statistical cases check sampling distributions and queueing identities on
single seeds with generous bands.  The tight multi-seed tolerance checks
live in test_acceptance.py.
"""
import copy
import math
import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from teamsim.des import (
    ArrivalPlan,
    DesConfig,
    DesEngine,
    DesModifiers,
    DesStats,
    EventCalendar,
    GeneratorConfig,
    MAX_DES_DAYS,
    MAX_INTERRUPT_RATE,
    SORT_RUN,
    _quantile,
    _ranked_quantiles,
    des_day_count,
    merge_stats,
    run_des,
    run_des_replicated,
    sample_exponential_hours,
    sample_interarrival,
)
from teamsim.domain import Affinity, Engineer, Priority, SkillSpec, WorkItem, WorkQueue, WorkType
from teamsim.errors import ConfigurationError, StructuralError
from teamsim.io.scenario import default_scenario

from conftest import mm1_config, mmc_config, single_class_config, two_skill_config


def make_initial(item_id, demand_hours, priority=Priority.P3, skill=SkillSpec("core", 1)):
    return WorkItem(
        id=item_id,
        work_type=WorkType.SERVICE_REQUEST,
        priority=priority,
        required=skill,
        service_demand_hours=demand_hours,
        arrival_time=0.0,
    )


def quiet_config(**overrides) -> DesConfig:
    """One engineer, no generators: only injected items move."""
    cfg = single_class_config(n_engineers=1)
    cfg.generators = []
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def still_in_system(stats) -> int:
    return sum(stats.final_in_queue.values()) + sum(stats.final_in_service.values())


# ---------------------------------------------------------------- samplers


class TestSamplers:
    def test_interarrival_mean(self):
        rng = random.Random(7)
        n = 200_000
        mean = math.fsum(sample_interarrival(0.8, rng) for _ in range(n)) / n
        assert mean == pytest.approx(1.25, rel=0.02)

    def test_interarrival_positive(self):
        rng = random.Random(3)
        assert all(sample_interarrival(5.0, rng) > 0.0 for _ in range(10_000))

    def test_interarrival_rejects_nonpositive_rate(self):
        rng = random.Random(0)
        for rate in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                sample_interarrival(rate, rng)

    def test_exponential_hours_mean(self):
        rng = random.Random(11)
        n = 200_000
        mean = math.fsum(sample_exponential_hours(6.0, rng) for _ in range(n)) / n
        assert mean == pytest.approx(6.0, rel=0.02)

    def test_same_seed_same_stream(self):
        a = [sample_interarrival(1.0, random.Random(5)) for _ in range(1)]
        b = [sample_interarrival(1.0, random.Random(5)) for _ in range(1)]
        assert a == b


class TestGeneratorConfig:
    def test_priority_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(
                work_type=WorkType.INCIDENT,
                daily_rate=1.0,
                priority_mix=(0.5, 0.4, 0.2),
                service_mean_hours=(1.0, 1.0, 1.0),
                skill_mix=((SkillSpec("core", 1), 1.0),),
            ).validate()

    def test_mean_must_be_positive_where_mix_is(self):
        gen = GeneratorConfig(
            work_type=WorkType.INCIDENT,
            daily_rate=1.0,
            priority_mix=(0.0, 0.0, 1.0),
            service_mean_hours=(0.0, 0.0, 2.0),
            skill_mix=((SkillSpec("core", 1), 1.0),),
        )
        gen.validate()  # zero mean allowed on an impossible priority
        gen2 = GeneratorConfig(
            work_type=WorkType.INCIDENT,
            daily_rate=1.0,
            priority_mix=(1.0, 0.0, 0.0),
            service_mean_hours=(0.0, 1.0, 1.0),
            skill_mix=((SkillSpec("core", 1), 1.0),),
        )
        with pytest.raises(ConfigurationError):
            gen2.validate()
        # P3's own probability is 0, but 0.7 + 0.29999999999 < 1 leaves it
        # every draw above that cut, so its mean must be positive too
        gen3 = GeneratorConfig(
            work_type=WorkType.INCIDENT,
            daily_rate=1.0,
            priority_mix=(0.7, 0.29999999999, 0.0),
            service_mean_hours=(1.0, 1.0, 0.0),
            skill_mix=((SkillSpec("core", 1), 1.0),),
        )
        with pytest.raises(ConfigurationError, match="P3 must be positive"):
            gen3.validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_means_and_mixes_are_rejected(self, bad):
        def gen(priority_mix=(0.2, 0.3, 0.5), means=(1.0, 1.0, 1.0), skill_p=1.0):
            return GeneratorConfig(
                WorkType.INCIDENT, 1.0, priority_mix, means, ((SkillSpec("core", 1), skill_p),)
            )

        # a mean is rejected even on a priority the mix never draws
        for bad_gen in (
            gen(means=(1.0, bad, 1.0)),
            gen(priority_mix=(0.0, 0.0, 1.0), means=(bad, 1.0, 1.0)),
            gen(priority_mix=(0.5, bad, 0.5)),
            gen(skill_p=bad),
        ):
            with pytest.raises(ConfigurationError):
                bad_gen.validate()

    def test_sampled_mix_frequencies(self):
        gen = GeneratorConfig(
            work_type=WorkType.INCIDENT,
            daily_rate=1.0,
            priority_mix=(0.2, 0.3, 0.5),
            service_mean_hours=(1.0, 1.0, 1.0),
            skill_mix=((SkillSpec("core", 1), 0.7), (SkillSpec("core", 3), 0.3)),
        )
        rng = random.Random(2)
        plan = ArrivalPlan(gen)
        items = [plan.sample_item(0.0, rng, i) for i in range(20_000)]
        frac_p1 = sum(1 for i in items if i.priority is Priority.P1) / len(items)
        frac_l3 = sum(1 for i in items if i.required.skill_level == 3) / len(items)
        assert frac_p1 == pytest.approx(0.2, abs=0.01)
        assert frac_l3 == pytest.approx(0.3, abs=0.01)


# A copy of the arrival sampling the engine used before ArrivalPlan: the
# priority and skill mixes walked, and their sums added, on every draw.
def _reference_priority(mix, rng):
    u = rng.random()
    if u < mix[0]:
        return Priority.P1
    if u < mix[0] + mix[1]:
        return Priority.P2
    return Priority.P3


def _reference_draw(gen, rng):
    priority = _reference_priority(gen.priority_mix, rng)
    u = rng.random()
    acc = 0.0
    required = gen.skill_mix[-1][0]
    for spec, p in gen.skill_mix:
        acc += p
        if u < acc:
            required = spec
            break
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return priority, required, -math.log(u) * gen.mean_for(priority)


class _ScriptedRng:
    """Returns the scripted values first, then a seeded stream."""

    def __init__(self, script, seed):
        self.script = list(script)
        self.rest = random.Random(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.script.pop(0) if self.script else self.rest.random()


_SPECS = [SkillSpec(t, lvl) for t in ("core", "data") for lvl in (1, 2, 3)]
_NEXT_BELOW_1 = math.nextafter(1.0, 0.0)


@st.composite
def _mixes(draw):
    """A validated generator whose mixes may hold zero entries."""
    def weights(n_min, n_max):
        ws = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.4, 0.7, 1.0]),
                           min_size=n_min, max_size=n_max).filter(lambda w: sum(w) > 0))
        return [w / sum(ws) for w in ws]

    n_skills = draw(st.integers(1, 6))
    # ten 0.1s add up to just below 1, so draws above that sum fall back to the last spec
    skill_p = [0.1] * 10 if draw(st.booleans()) else weights(n_skills, n_skills)
    specs = draw(st.lists(st.sampled_from(_SPECS), min_size=len(skill_p), max_size=len(skill_p)))
    gen = GeneratorConfig(
        WorkType.INCIDENT,
        1.0,
        tuple(weights(3, 3)),
        (1.5, 4.0, 9.0),
        tuple(zip(specs, skill_p)),
    )
    gen.validate()
    return gen


class TestArrivalPlan:
    """The precomputed plan draws exactly what the per-draw walk drew."""

    @settings(max_examples=60, deadline=None)
    @given(gen=_mixes(), seed=st.integers(0, 2**32 - 1))
    def test_same_draws_and_rng_state_as_the_reference(self, gen, seed):
        plan = ArrivalPlan(gen)
        ref_rng, rng = random.Random(seed), random.Random(seed)
        for i in range(50):
            item = plan.sample_item(1.5, rng, i)
            got = (item.priority, item.required, item.service_demand_hours)
            assert got == _reference_draw(gen, ref_rng)
            assert (item.id, item.arrival_time, item.remaining_service_hours) == (i, 1.5, got[2])
        assert rng.getstate() == ref_rng.getstate()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), gen=_mixes())
    def test_same_draws_on_cut_edges(self, data, gen):
        # u exactly on a cut, just below 1 (above a sum that ends below 1),
        # and 0.0, which the demand draw must redraw
        plan = ArrivalPlan(gen)
        edges = [0.0, _NEXT_BELOW_1, *plan.skill_cuts, plan.p1_cut, plan.p12_cut]
        edges = [u for u in edges if 0.0 <= u < 1.0]
        script = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=30))
        ref_rng, rng = _ScriptedRng(script, 7), _ScriptedRng(script, 7)
        for i in range(12):
            item = plan.sample_item(0.0, rng, i)
            got = (item.priority, item.required, item.service_demand_hours)
            assert got == _reference_draw(gen, ref_rng)
        assert rng.calls == ref_rng.calls

    def test_sum_just_below_one_falls_back_to_the_last_spec(self):
        last = SkillSpec("data", 3)
        gen = GeneratorConfig(
            WorkType.INCIDENT, 1.0, (0.0, 0.0, 1.0), (1.0, 1.0, 1.0),
            tuple((SkillSpec("core", 1), 0.1) for _ in range(9)) + ((last, 0.1),),
        )
        gen.validate()
        plan = ArrivalPlan(gen)
        assert plan.skill_cuts[-1] < 1.0
        item = plan.sample_item(0.0, _ScriptedRng([0.5, _NEXT_BELOW_1], 1), 1)
        assert item.required is last


class TestCalendar:
    def test_time_ordering_with_fifo_ties(self):
        cal = EventCalendar()
        cal.push(2.0, 1, 0, 0)
        cal.push(1.0, 2, 0, 0)
        cal.push(1.0, 3, 0, 0)
        assert [cal.pop()[2] for _ in range(3)] == [2, 3, 1]

    def test_rejects_scheduling_in_the_past(self):
        cal = EventCalendar()
        cal.push(5.0, 1, 0, 0)
        cal.pop()
        with pytest.raises(StructuralError):
            cal.push(4.0, 1, 0, 0)


# ------------------------------------------------------- deterministic runs


class TestSingleItemArithmetic:
    def test_eight_hour_item_takes_one_day(self):
        stats, log = run_des(quiet_config(), seed=1, horizon=10.0, initial_items=[make_initial(0, 8.0)])
        assert stats.completed_total == 1
        kinds = [(rec[1], rec[0]) for rec in log]
        assert ("complete", 1.0) in kinds

    def test_capacity_modifier_halves_the_rate(self):
        mods = DesModifiers(capacity_factor=0.5)
        stats, log = run_des(
            quiet_config(), modifiers=mods, seed=1, horizon=10.0, initial_items=[make_initial(0, 8.0)]
        )
        complete = [rec for rec in log if rec[1] == "complete"]
        assert complete[0][0] == pytest.approx(2.0, abs=1e-12)

    def test_slow_engineer_capacity_factor(self):
        cfg = quiet_config()
        cfg.engineers = [Engineer(id=0, skill=SkillSpec("core", 3), affinity=Affinity.OPERATIONAL_PRIMARY, capacity_factor=0.8)]
        stats, log = run_des(cfg, seed=1, horizon=10.0, initial_items=[make_initial(0, 8.0)])
        complete = [rec for rec in log if rec[1] == "complete"][0]
        assert complete[0] == pytest.approx(1.25, abs=1e-12)

    def test_initial_items_admitted_at_time_zero(self):
        stats, log = run_des(quiet_config(), seed=1, horizon=5.0, initial_items=[make_initial(0, 4.0)])
        first = next(iter(log))
        assert first[0] == 0.0 and first[1] == "arrival" and first[4] == "initial"

    def test_initial_item_with_late_arrival_rejected(self):
        bad = make_initial(0, 4.0)
        bad.arrival_time = 1.0
        with pytest.raises(ConfigurationError):
            run_des(quiet_config(), seed=1, horizon=5.0, initial_items=[bad])

    @pytest.mark.parametrize("demand", [0.0, -1.0, math.nan, math.inf])
    def test_initial_item_with_bad_demand_rejected(self, demand):
        # NaN fails every comparison, and an infinite demand would hold its engineer forever
        with pytest.raises(ConfigurationError, match="demand must be positive and finite"):
            run_des(quiet_config(), seed=1, horizon=5.0, initial_items=[make_initial(0, demand)])

    def test_initial_items_with_duplicate_ids_rejected(self):
        items = [make_initial(0, 4.0), make_initial(0, 4.0)]
        with pytest.raises(ConfigurationError):
            run_des(single_class_config(n_engineers=2), seed=1, horizon=5.0, initial_items=items)

    @pytest.mark.parametrize("ids", [[1, 2], [5], [-3, 0]], ids=["1-2", "5", "nonpositive"])
    def test_generated_ids_follow_the_initial_ones(self, ids):
        cfg = single_class_config(n_engineers=2, daily_rate=3.0)
        items = [make_initial(i, 8.0) for i in ids]
        _, log = run_des(cfg, seed=1, horizon=20.0, initial_items=items)
        entered = [rec[2] for rec in log if rec[1] in ("arrival", "incident")]
        assert len(set(entered)) == len(entered) > len(ids)
        assert entered[: len(ids)] == ids
        assert entered[len(ids)] == max([0, *ids]) + 1

    def test_a_run_leaves_the_callers_items_as_they_were(self):
        # at the horizon one item is in service and one still queued
        items = [make_initial(0, 8.0), make_initial(1, 8.0, Priority.P1), make_initial(2, 8.0)]
        first = run_des(quiet_config(), seed=1, horizon=1.5, initial_items=items)
        for item in items:
            assert item._queue_entered is None and item.total_queue_days == 0.0
            assert item.remaining_service_hours == item.service_demand_hours
        second = run_des(quiet_config(), seed=1, horizon=1.5, initial_items=items)
        assert list(first[1]) == list(second[1])
        assert first[0].to_flat_dict() == second[0].to_flat_dict()
        assert first[0].final_in_queue and first[0].final_in_service

    def test_two_items_serve_priority_first(self):
        items = [
            make_initial(0, 8.0, Priority.P3),
            make_initial(1, 8.0, Priority.P1),
        ]
        stats, log = run_des(quiet_config(), seed=1, horizon=10.0, initial_items=items)
        completions = [(rec[2], rec[0]) for rec in log if rec[1] == "complete"]
        assert completions == [(1, 1.0), (0, 2.0)]


class TestPreemption:
    def _preempt_config(self):
        # steady stream of short P1 items over one long-running P3 item
        cfg = single_class_config(n_engineers=1, daily_rate=0.5, service_mean_hours=1.0)
        cfg.generators[0].priority_mix = (1.0, 0.0, 0.0)
        cfg.generators[0].service_mean_hours = (1.0, 1.0, 1.0)
        return cfg

    def test_urgent_arrival_preempts_running_item(self):
        cfg = self._preempt_config()
        stats, log = run_des(cfg, seed=3, horizon=50.0, initial_items=[make_initial(999, 160.0)])
        assert stats.preemption_count >= 1
        preempts = [rec for rec in log if rec[1] == "stop" and rec[4] == "preempt"]
        assert preempts and all(rec[2] == 999 for rec in preempts)

    def test_switch_penalty_extends_the_long_item(self):
        base = self._preempt_config()
        base.switch_penalty_hours = 0.0
        penal = self._preempt_config()
        penal.switch_penalty_hours = 4.0
        # 40h of preemptible work, finishes well inside the horizon either way
        _, log0 = run_des(base, seed=3, horizon=400.0, initial_items=[make_initial(999, 40.0)])
        _, log1 = run_des(penal, seed=3, horizon=400.0, initial_items=[make_initial(999, 40.0)])

        def done_at(log):
            return next(rec[0] for rec in log if rec[1] == "complete" and rec[2] == 999)

        assert done_at(log1) > done_at(log0)

    def test_preempted_work_is_conserved(self):
        cfg = self._preempt_config()
        stats, _ = run_des(cfg, seed=5, horizon=200.0, initial_items=[make_initial(999, 80.0)])
        assert stats.arrived_total == (
            stats.completed_total + stats.dead_letter_count + still_in_system(stats)
        )


class TestSkillStops:
    def _gap_config(self, p_stop):
        cfg = single_class_config(n_engineers=1, daily_rate=0.4, service_mean_hours=4.0)
        # level-1 engineer facing level-3 demand
        cfg.engineers = [Engineer(id=0, skill=SkillSpec("core", 1), affinity=Affinity.OPERATIONAL_PRIMARY)]
        cfg.generators[0].skill_mix = ((SkillSpec("core", 3), 1.0),)
        cfg.p_stop_skill = p_stop
        return cfg

    def test_certain_stop_is_rejected(self):
        # at p = 1 the stops of a gap item converge in time and the run hangs
        with pytest.raises(ConfigurationError, match=r"p_stop_skill must lie in \[0, 1\)"):
            run_des(self._gap_config(1.0), seed=2, horizon=5.0)

    def test_no_stop_probability_no_stops(self):
        stats, _ = run_des(self._gap_config(0.0), seed=2, horizon=500.0)
        assert stats.stop_skill == 0
        assert stats.completed_total == stats.arrived_total - still_in_system(stats)

    def test_half_stop_probability_one_stop_per_completion(self):
        # each service attempt stops with p; attempts per completion are
        # geometric, so stops/completions should sit near p/(1-p) = 1
        stats, _ = run_des(self._gap_config(0.5), seed=2, horizon=2000.0)
        assert stats.completed_total > 300
        ratio = stats.stop_skill / stats.completed_total
        assert 0.75 < ratio < 1.30
        assert stats.reassignment_count == stats.stop_skill

    def test_stops_requeue_not_lose(self):
        stats, _ = run_des(self._gap_config(0.7), seed=9, horizon=300.0)
        assert stats.arrived_total == (
            stats.completed_total + stats.dead_letter_count + still_in_system(stats)
        )


class TestRework:
    def test_rework_frequency_tracks_error_probability(self):
        cfg = single_class_config(n_engineers=2, daily_rate=1.0, service_mean_hours=4.0)
        cfg.base_error_prob = 0.5
        stats, log = run_des(cfg, seed=4, horizon=1000.0)
        # every completion draws the same 0.5 coin (no skill gaps here)
        assert stats.completed_total > 800
        ratio = stats.rework_count / stats.completed_total
        assert ratio == pytest.approx(0.5, abs=0.06)
        spawned = [rec for rec in log if rec[1] == "incident"]
        assert len(spawned) == stats.rework_count
        assert all(rec[4].startswith("from:") for rec in spawned)

    def test_rework_multiplier_scales_frequency(self):
        cfg = single_class_config(n_engineers=2, daily_rate=1.0, service_mean_hours=4.0)
        cfg.base_error_prob = 0.2
        mods = DesModifiers(rework_multiplier=2.0)
        base, _ = run_des(cfg, seed=4, horizon=800.0)
        boosted, _ = run_des(cfg, modifiers=mods, seed=4, horizon=800.0)
        r0 = base.rework_count / base.completed_total
        r1 = boosted.rework_count / boosted.completed_total
        assert r1 == pytest.approx(2.0 * r0, rel=0.25)

    def test_zero_error_probability_spawns_nothing(self):
        stats, _ = run_des(mm1_config(), seed=1, horizon=500.0)
        assert stats.rework_count == 0


class TestInterrupts:
    def test_interrupt_count_is_poisson_in_busy_time(self):
        # one engineer pinned busy for the whole horizon by a huge item:
        # interrupts should arrive at the modifier rate per busy day
        mods = DesModifiers(interrupt_rate=0.3)
        stats, log = run_des(
            quiet_config(),
            modifiers=mods,
            seed=6,
            horizon=100.0,
            initial_items=[make_initial(0, 8000.0)],
        )
        assert still_in_system(stats) == 1
        # mean 30, sd ~5.5; a 10..55 band is > 3 sigma on both sides
        assert 10 <= stats.stop_interrupt <= 55
        stops = [rec for rec in log if rec[1] == "stop"]
        assert all(rec[4] == "interrupt" for rec in stops)

    def test_zero_rate_schedules_no_interrupts(self):
        stats, _ = run_des(quiet_config(), seed=6, horizon=50.0, initial_items=[make_initial(0, 80.0)])
        assert stats.stop_interrupt == 0

    @pytest.mark.parametrize("rate", [-1.0, 1440.5, 1e17, math.inf, math.nan])
    def test_rates_beyond_one_a_minute_are_rejected(self, rate):
        # at 1e17 a day the next interrupt rounds onto the segment start and
        # the clock stalls; the bound is one a minute of busy time on average
        with pytest.raises(ConfigurationError, match="interrupt_rate"):
            DesModifiers(interrupt_rate=rate).validate()

    def test_the_bound_itself_runs(self):
        assert MAX_INTERRUPT_RATE == 1440.0
        stats, _ = run_des(
            quiet_config(), DesModifiers(interrupt_rate=MAX_INTERRUPT_RATE), seed=6,
            horizon=2.0, initial_items=[make_initial(0, 8.0)],
        )
        assert stats.stop_interrupt > 1000


# ----------------------------------------------------- whole-run properties


class TestStopPath:
    """Skill stops, interrupts and preemptions end a segment through one path."""

    @pytest.mark.parametrize("case", ["two-skill", "deep-backlog"])
    def test_stop_records_match_the_counters(self, case):
        if case == "two-skill":
            mods = DesModifiers(rework_multiplier=1.0, capacity_factor=0.9, interrupt_rate=0.6)
            stats, log = run_des(two_skill_config(), mods, seed=11, horizon=300.0)
        else:
            # the deep-backlog golden case: half capacity under heavy interrupts
            sc = default_scenario()
            mods = DesModifiers(rework_multiplier=1.2, capacity_factor=0.5, interrupt_rate=4.5)
            stats, log = run_des(sc.des, mods, seed=sc.seed, horizon=400.0)
        counts = Counter(rec[4] for rec in log if rec[1] == "stop")
        assert counts == {
            "skill": stats.stop_skill,
            "interrupt": stats.stop_interrupt,
            "preempt": stats.preemption_count,
        }
        assert min(counts.values()) > 0


class TestHorizonBound:
    def test_the_bound_is_the_last_day_count_accepted(self):
        # checked on the function alone: a run at the bound would allocate its series
        assert des_day_count(MAX_DES_DAYS) == MAX_DES_DAYS
        assert des_day_count(MAX_DES_DAYS + 0.5) == MAX_DES_DAYS
        with pytest.raises(ConfigurationError, match="more than the 1000000 allowed"):
            des_day_count(MAX_DES_DAYS + 1)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_engine_rejects_a_bad_horizon(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon must be positive and finite"):
            run_des(single_class_config(), seed=1, horizon=horizon)


class TestRunProperties:
    def test_same_seed_reproduces_log_and_stats(self):
        cfg = mm1_config()
        s1, l1 = run_des(cfg, seed=42, horizon=200.0)
        s2, l2 = run_des(cfg, seed=42, horizon=200.0)
        assert list(l1) == list(l2)
        assert s1.to_flat_dict() == s2.to_flat_dict()

    def test_different_seeds_differ(self):
        cfg = mm1_config()
        _, l1 = run_des(cfg, seed=1, horizon=200.0)
        _, l2 = run_des(cfg, seed=2, horizon=200.0)
        assert list(l1) != list(l2)

    def test_identity_modifiers_change_nothing(self):
        cfg = mm1_config()
        _, l1 = run_des(cfg, seed=7, horizon=300.0)
        _, l2 = run_des(cfg, modifiers=DesModifiers(), seed=7, horizon=300.0)
        assert list(l1) == list(l2)

    def test_zero_rate_generator_produces_nothing(self):
        cfg = single_class_config(daily_rate=0.0)
        stats, log = run_des(cfg, seed=1, horizon=100.0)
        assert stats.arrived_total == 0 and list(log) == []

    def test_work_conservation_under_load(self):
        cfg = mmc_config(3, daily_rate=2.7)
        stats, _ = run_des(cfg, seed=8, horizon=400.0)
        assert stats.arrived_total == (
            stats.completed_total + stats.dead_letter_count + still_in_system(stats)
        )

    def test_littles_law_single_seed(self):
        stats, _ = run_des(mm1_config(), seed=12, horizon=5000.0)
        key = (WorkType.SERVICE_REQUEST, Priority.P3)
        lam = stats.completed_total / stats.horizon
        w = stats.mean_completion_days(key)
        assert stats.to_flat_dict()["time_avg_in_system"] == pytest.approx(lam * w, rel=0.05)

    def test_log_is_time_ordered_and_causal(self):
        _, log = run_des(mm1_config(), seed=3, horizon=150.0)
        times = [rec[0] for rec in log]
        assert times == sorted(times)
        first_seen: dict[int, str] = {}
        for rec in log:
            first_seen.setdefault(rec[2], rec[1])
            if rec[1] == "complete":
                assert first_seen[rec[2]] in ("arrival", "incident")

    def test_unserveable_skill_dead_letters(self):
        cfg = single_class_config(daily_rate=1.0)
        cfg.generators[0].skill_mix = ((SkillSpec("net", 1), 1.0),)
        stats, log = run_des(cfg, seed=2, horizon=50.0)
        assert stats.dead_letter_count == stats.arrived_total > 0
        assert all(rec[4] == "net" for rec in log if rec[1] == "dead_letter")

    def test_declared_catalog_rejects_unknown_type(self):
        cfg = single_class_config(daily_rate=1.0)
        cfg.skill_types = ("core",)
        cfg.generators[0].skill_mix = ((SkillSpec("net", 1), 1.0),)
        with pytest.raises(ConfigurationError):
            run_des(cfg, seed=2, horizon=50.0)

    def test_daily_queue_series_lengths(self):
        stats, _ = run_des(mm1_config(), seed=5, horizon=126.0)
        assert stats.n_days == 126
        assert len(stats.daily_individual_queue) == 126
        assert len(stats.daily_queue_by_priority[Priority.P3]) == 126


class CheckedEngine(DesEngine):
    """Asserts after every event that no engineer idles beside waiting work.

    An idle engineer's own queue must be empty, and so must the queue of
    every colleague of the same skill type (it could have stolen from
    them).  This is what makes a single start pass in ``_dispatch`` enough.
    Every item in the system is in service or in a queue: ``_dispatch``
    stops once ``n_in_system - n_busy`` items have started, and the run
    loop calls it only when that difference is nonzero and some engineer
    is free.  So the identity is asserted straight after every event
    handler too, and after an event the loop does not dispatch on, the
    idle check runs there; ``checked_events`` counts the events whose
    final state was checked.
    """

    events = 0
    checked_events = 0
    dispatches = 0
    idle_checks = 0

    def _on_arrival(self, t: float, gen_index: int) -> None:
        super()._on_arrival(t, gen_index)
        self._after_handler(t)

    def _on_service_end(self, t: float, server_index: int, epoch: int) -> None:
        super()._on_service_end(t, server_index, epoch)
        self._after_handler(t)

    def _after_handler(self, t: float) -> None:
        assert self.checked_events == self.events, f"t={t}: the previous event went unchecked"
        self.events += 1
        self._check_identity(t)
        if self.n_in_system == self.n_busy or self.n_busy == len(self.servers):
            self._check_no_idle(t)

    def _dispatch(self, t: float) -> None:
        super()._dispatch(t)
        self.dispatches += 1
        self._check_identity(t)
        self._check_no_idle(t)

    def _check_identity(self, t: float) -> None:
        queued = sum(len(srv.queue) for srv in self.servers)
        assert self.n_in_system - self.n_busy == queued, (
            f"t={t}: {self.n_in_system} in system, {self.n_busy} busy, {queued} queued"
        )

    def _check_no_idle(self, t: float) -> None:
        self.checked_events = self.events
        for srv in self.servers:
            if srv.item is not None:
                continue
            self.idle_checks += 1
            for other in self.servers_by_type[srv.engineer.skill.skill_type]:
                assert len(other.queue) == 0, (
                    f"t={t}: engineer {srv.engineer.id} idles while engineer "
                    f"{other.engineer.id} has {len(other.queue)} waiting"
                )


class TestWorkConservingDispatch:
    def _run(self, cfg, modifiers, seed, horizon):
        engine = CheckedEngine(cfg, modifiers, seed, horizon)
        stats = engine.run()
        assert engine.dispatches > 0 and engine.idle_checks > 0
        assert engine.checked_events == engine.events > engine.dispatches
        # the subclass only observes: same output as the public entry point
        ref, log = run_des(cfg, modifiers, seed=seed, horizon=horizon)
        assert list(engine.log) == list(log) and stats.to_flat_dict() == ref.to_flat_dict()
        return stats

    def test_default_scenario(self):
        sc = default_scenario()
        stats = self._run(sc.des, DesModifiers(), sc.seed, sc.horizon)
        assert stats.preemption_count > 0 and stats.stop_skill > 0

    def test_mmc4(self):
        self._run(mmc_config(4, 3.2), DesModifiers(), seed=4, horizon=500.0)

    def test_two_skill_types_with_interrupts_and_preemption(self):
        mods = DesModifiers(rework_multiplier=1.0, capacity_factor=0.9, interrupt_rate=0.6)
        stats = self._run(two_skill_config(), mods, seed=11, horizon=300.0)
        assert stats.stop_interrupt > 0 and stats.preemption_count > 0
        assert stats.dead_letter_count > 0


class TestStealTraffic:
    """Every removal the engine makes takes its queue's best item.

    ``_steal`` removes the item ``peek`` has just returned, which waits in
    the queue's front slot or on top of its heap: the two cheap ways out of
    ``WorkQueue.remove``.  A routing or stealing change that removed from
    the middle of a queue would fall on its O(n) rebuild, and fails here.
    """

    @pytest.mark.parametrize("case", ["default", "two-skill", "mmc4"])
    def test_every_removal_takes_the_best_item(self, case, monkeypatch):
        if case == "default":
            sc = default_scenario()
            args = (sc.des, DesModifiers(), sc.seed, sc.horizon)
        elif case == "two-skill":
            mods = DesModifiers(rework_multiplier=1.0, capacity_factor=0.9, interrupt_rate=0.6)
            args = (two_skill_config(), mods, 11, 300.0)
        else:
            args = (mmc_config(4, 3.2), DesModifiers(), 4, 500.0)
        original = WorkQueue.remove
        took_best = []

        def remove(queue, item_id, now):
            took_best.append(queue.peek().id == item_id)
            return original(queue, item_id, now)

        monkeypatch.setattr(WorkQueue, "remove", remove)
        run_des(*args, collect_log=False)
        assert took_best and all(took_best)


class TestRoutingOrder:
    """Work is routed the moment it enters the system.

    Every arrival, rework incident and skill stop is followed at once by
    that item's route (or dead letter).  Items present at time 0 are all
    admitted first and then routed in service-discipline order.
    """

    def _check(self, log):
        """Assert the rule on every entry record; return the entry kinds seen."""
        kinds = set()
        records = list(log)
        for rec, nxt in zip(records, records[1:] + [None]):
            kind = f"stop {rec[4]}" if rec[1] == "stop" else rec[1]
            if kind not in ("arrival", "incident", "stop skill") or rec[4] == "initial":
                continue
            kinds.add(kind)
            assert nxt is not None and nxt[0] == rec[0] and nxt[2] == rec[2], (rec, nxt)
            assert (nxt[1], nxt[4]) == ("dispatch", "route") or nxt[1] == "dead_letter", (rec, nxt)
        return kinds

    def test_default_scenario(self):
        sc = default_scenario()
        _, log = run_des(sc.des, seed=sc.seed, horizon=sc.horizon)
        assert self._check(log) == {"arrival", "incident", "stop skill"}

    def test_two_skill_types_with_dead_letters(self):
        mods = DesModifiers(rework_multiplier=1.0, capacity_factor=0.9, interrupt_rate=0.6)
        stats, log = run_des(two_skill_config(), mods, seed=11, horizon=300.0)
        assert self._check(log) == {"arrival", "incident", "stop skill"}
        assert stats.dead_letter_count > 0

    def test_mmc4(self):
        _, log = run_des(mmc_config(4, 3.2), seed=4, horizon=200.0)
        assert self._check(log) == {"arrival"}

    def test_initial_batch_is_routed_in_discipline_order(self):
        cfg = single_class_config(n_engineers=2)
        cfg.generators = []
        # lowest priority and highest id first: the reverse of queue order
        items = [
            make_initial(6, 4.0, Priority.P3),
            make_initial(5, 4.0, Priority.P3),
            make_initial(4, 4.0, Priority.P2),
            make_initial(3, 4.0, Priority.P2),
            make_initial(2, 4.0, Priority.P1),
            make_initial(1, 4.0, Priority.P1),
        ]
        _, log = run_des(cfg, seed=1, horizon=5.0, initial_items=items)
        batch = [rec for rec in log if rec[0] == 0.0]
        assert [(r[1], r[2]) for r in batch[:6]] == [("arrival", i) for i in (6, 5, 4, 3, 2, 1)]
        routes = [(r[2], r[3]) for r in batch[6:] if (r[1], r[4]) == ("dispatch", "route")]
        # shortest queue first, ties to the lower engineer id
        assert routes == [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)]


class TestMergeAndReplication:
    def test_merge_is_commutative(self):
        cfg = mm1_config()
        a, _ = run_des(cfg, seed=1, horizon=300.0, collect_log=False)
        b, _ = run_des(cfg, seed=2, horizon=300.0, collect_log=False)
        ab = merge_stats(a, b).to_flat_dict()
        ba = merge_stats(b, a).to_flat_dict()
        assert ab == ba

    def test_replicated_run_matches_manual_merge(self):
        cfg = mm1_config()
        merged = run_des_replicated(cfg, seed=10, horizon=200.0, replications=3)
        parts = [run_des(cfg, seed=10 + i, horizon=200.0, collect_log=False)[0] for i in range(3)]
        manual = merge_stats(merge_stats(parts[0], parts[1]), parts[2])
        assert merged.to_flat_dict() == manual.to_flat_dict()
        assert merged.replications == 3


def _by_key(parts, combine):
    # one entry per key of any part, combining the parts that have it, in order
    keys = dict.fromkeys(k for p in parts for k in p)
    return {k: combine([p[k] for p in parts if k in p]) for k in keys}


def _daywise_sum(series):
    return [sum(day) for day in zip(*series)]


# how replications pool each declared kind of DesStats accumulator, spelled
# out independently of merge_stats
_FOLDS = {
    "COUNTERS": sum,
    "INTEGRALS": sum,
    "CLASS_COUNTS": lambda parts: _by_key(parts, sum),
    "CLASS_SAMPLES": lambda parts: _by_key(parts, lambda vs: [x for v in vs for x in v]),
    "CLASS_DAILY": lambda parts: _by_key(parts, _daywise_sum),
    "PRIORITY_DAILY": lambda parts: _by_key(parts, _daywise_sum),
}


def _as_lists(kind, value):
    # samples and day series are typed arrays, which never equal a list:
    # compare both as lists
    if kind in ("CLASS_SAMPLES", "CLASS_DAILY", "PRIORITY_DAILY"):
        return {k: list(v) for k, v in value.items()}
    return value


class TestStatsDeclaration:
    def test_every_stored_field_is_a_declared_accumulator(self):
        declared = {name for kind in _FOLDS for name in getattr(DesStats, kind)}
        assert set(vars(DesStats(10.0))) == declared | {"horizon", "replications", "n_days"}

    def test_merge_folds_each_accumulator_by_its_kind(self):
        mods = DesModifiers(rework_multiplier=1.5, capacity_factor=0.9, interrupt_rate=0.6)
        parts = [run_des(two_skill_config(), mods, seed=s, horizon=60.0)[0] for s in (1, 2, 3)]
        merged = merge_stats(merge_stats(parts[0], parts[1]), parts[2])
        for kind, fold in _FOLDS.items():
            for name in getattr(DesStats, kind):
                # floats add left to right, as sum() does after its exact 0 + first
                expected = fold([getattr(p, name) for p in parts])
                assert _as_lists(kind, getattr(merged, name)) == _as_lists(kind, expected), name
        assert merged.stop_count > 0 and merged.dead_letter_count > 0 and merged.rework_count > 0

    def test_replicated_fold_matches_a_list_fold_value_for_value(self):
        # repr tells 1 from 1.0 and prints every float exactly, so values and
        # their types must both match the independent fold
        sc = default_scenario()
        merged = run_des_replicated(sc.des, seed=40, horizon=sc.horizon, replications=20)
        parts = [run_des(sc.des, seed=40 + i, horizon=sc.horizon, collect_log=False)[0]
                 for i in range(20)]
        assert merged.replications == 20
        for kind, fold in _FOLDS.items():
            for name in getattr(DesStats, kind):
                expected = fold([getattr(p, name) for p in parts])
                assert repr(_as_lists(kind, getattr(merged, name))) == repr(
                    _as_lists(kind, expected)
                ), name

    def test_merge_neither_mutates_nor_aliases_its_inputs(self):
        mods = DesModifiers(rework_multiplier=1.5, interrupt_rate=0.6)
        a, _ = run_des(two_skill_config(), mods, seed=1, horizon=30.0, collect_log=False)
        b, _ = run_des(two_skill_config(), mods, seed=2, horizon=30.0, collect_log=False)
        empty = DesStats(30.0)
        # keys in both inputs, and keys new to the fold from either side
        for x, y in ((a, b), (empty, b), (a, empty)):
            before = copy.deepcopy((vars(x), vars(y)))
            out = merge_stats(x, y)
            assert (vars(x), vars(y)) == before
            for kind in ("CLASS_SAMPLES", "CLASS_DAILY", "PRIORITY_DAILY"):
                for name in getattr(DesStats, kind):
                    for series in getattr(out, name).values():
                        series.extend(array(series.typecode, [7, 7]))
            assert (vars(x), vars(y)) == before


    def test_an_empty_pool_is_the_identity_on_either_side(self):
        # repr tells array('q') from array('d'), 1 from 1.0, and prints every
        # float exactly, so each accumulator must equal the other operand's
        mods = DesModifiers(rework_multiplier=1.5, capacity_factor=0.9, interrupt_rate=0.6)
        b, _ = run_des(two_skill_config(), mods, seed=2, horizon=30.0, collect_log=False)
        assert b.stop_count > 0 and b.dead_letter_count > 0 and b.rework_count > 0
        for merged in (merge_stats(DesStats(30.0), b), merge_stats(b, DesStats(30.0))):
            for kind in _FOLDS:
                for name in getattr(DesStats, kind):
                    assert repr(getattr(merged, name)) == repr(getattr(b, name)), name
            assert merged.replications == b.replications == 1
            assert merged.daily_individual_queue == b.daily_individual_queue
            assert len(merged.daily_individual_queue) == 30
            assert merged.to_flat_dict() == b.to_flat_dict()

    def test_a_run_counts_itself_and_an_empty_pool_counts_none(self):
        empty = DesStats(30.0)
        assert empty.replications == 0
        assert merge_stats(empty, DesStats(30.0)).replications == 0
        stats, _ = run_des(two_skill_config(), seed=2, horizon=30.0, collect_log=False)
        assert stats.replications == 1
        # no replication covers a day, so no per-day rate is defined
        flat = empty.to_flat_dict()
        assert {flat[key] for key in DesStats.PER_DAY.values()} == {None}
        assert flat["replications"] == 0 and flat["completed_total"] == 0

    def test_series_keep_their_element_types(self):
        mods = DesModifiers(rework_multiplier=1.5, interrupt_rate=0.6)
        a, _ = run_des(two_skill_config(), mods, seed=1, horizon=30.0, collect_log=False)
        b, _ = run_des(two_skill_config(), mods, seed=2, horizon=30.0, collect_log=False)
        typecodes = {"completion_samples": "d", "queue_time_samples": "d",
                     "daily_completion_sum": "d", "daily_completion_count": "q",
                     "daily_queue_by_priority": "q"}
        for stats in (a, merge_stats(a, b)):
            for name, code in typecodes.items():
                series = getattr(stats, name).values()
                assert series and {(type(v), v.typecode) for v in series} == {(array, code)}, name


class TestSummaryMemory:
    """What a long run's summary and day series cost, traced with tracemalloc."""

    KEY = (WorkType.INCIDENT, Priority.P2)

    def test_summary_holds_about_eight_bytes_a_sample(self):
        # Bound: 12 B a sample for 200k samples of one class (ranking them as
        # one sorted list of floats takes about 36); under a second
        n = 200_000
        stats = DesStats(10.0)
        rng = random.Random(3)
        for _ in range(n):
            stats.note_completion(self.KEY, rng.expovariate(0.5), 0.0, 1.0)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            flat = stats.to_flat_dict()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        ranked = sorted(stats.completion_samples[self.KEY])
        assert flat["class.incident.p2.median_completion_days"] == _quantile(ranked, 0.5)
        assert flat["class.incident.p2.p90_completion_days"] == _quantile(ranked, 0.9)
        assert peak <= 12 * n, f"{peak / n:.1f} B a sample"

    def test_class_day_series_hold_sixteen_bytes_a_day(self):
        # Bound: the two series of a class that completes work every day of
        # 50k hold 16 B a day and at most 1 KiB more (a list of day sums
        # takes 32 B a day, its counts 8); about half a second
        n_days = 50_000
        stats = DesStats(float(n_days))
        tracemalloc.start()
        try:
            for d in range(n_days):
                stats.note_completion(self.KEY, 1.0 + d / n_days, 0.0, d + 0.5)
            held = tracemalloc.get_traced_memory()[0]
            stats.daily_completion_sum.clear()
            stats.daily_completion_count.clear()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 16 * n_days <= freed <= 16 * n_days + 1024, f"{freed / n_days:.1f} B a day"


# hypothesis: sample buffers of every size around the sort-run boundaries,
# drawn from a small pool so that ties and repeated values are common; the
# pool may hold 0.0 and -0.0, equal but told apart by repr, so a tie taken
# from the wrong run would show.
# Bounds: 60 examples of at most 3 * SORT_RUN + 7 samples, a few seconds in all.
@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, SORT_RUN - 1, SORT_RUN, SORT_RUN + 1, 3 * SORT_RUN + 7]),
    pool=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6)), min_size=1, max_size=6
    ),
    order=st.sampled_from(["shuffled", "ascending", "descending"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranked_quantiles_equal_a_full_sort_bit_for_bit(n, pool, order, seed):
    rng = random.Random(seed)
    values = [rng.choice(pool) for _ in range(n)]
    if order != "shuffled":
        values.sort(reverse=order == "descending")
    samples = array("d", values)
    expected = [_quantile(sorted(list(samples)), q) for q in (0.5, 0.9)]
    assert [repr(x) for x in _ranked_quantiles(samples, (0.5, 0.9))] == [repr(x) for x in expected]


# hypothesis: teams of several skill types.  "data" has a single engineer, so
# its work is routed to the one candidate and never stolen; nobody holds "ml",
# so that work is dead-lettered; levels leave skill gaps, so items stop and
# re-route.
# Bounds: 40 examples of at most 40 days, under a second in all.
@settings(max_examples=40, deadline=None)
@given(
    core_levels=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    data_level=st.integers(1, 3),
    rates=st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=1, max_size=3),
    weights=st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5]), min_size=3, max_size=3).filter(sum),
    p_stop=st.sampled_from([0.0, 0.3, 0.9]),
    interrupt_rate=st.sampled_from([0.0, 0.8]),
    horizon=st.floats(min_value=5.0, max_value=40.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_engine_invariants_hold_for_several_skill_types(
    core_levels, data_level, rates, weights, p_stop, interrupt_rate, horizon, seed
):
    affinities = (Affinity.PROJECT_PRIMARY, Affinity.OPERATIONAL_PRIMARY)
    engineers = [
        Engineer(i, SkillSpec("core", lvl), affinities[i % 2]) for i, lvl in enumerate(core_levels)
    ]
    engineers.append(Engineer(9, SkillSpec("data", data_level), Affinity.OPERATIONAL_PRIMARY))
    total = sum(weights)
    core_p, data_p, ml_p = (w / total for w in weights)
    skill_mix = (
        (SkillSpec("core", 3), core_p / 2),
        (SkillSpec("core", 1), core_p / 2),
        (SkillSpec("data", 2), data_p),
        (SkillSpec("ml", 1), ml_p),
    )
    kinds = (WorkType.PROJECT_TASK, WorkType.INCIDENT, WorkType.SERVICE_REQUEST)
    generators = [
        GeneratorConfig(kinds[i], rate, (0.2, 0.3, 0.5), (2.0, 4.0, 8.0), skill_mix)
        for i, rate in enumerate(rates)
    ]
    cfg = DesConfig(generators=generators, engineers=engineers, base_error_prob=0.1,
                    p_stop_skill=p_stop, switch_penalty_hours=0.5)
    mods = DesModifiers(interrupt_rate=interrupt_rate)
    engine = CheckedEngine(cfg, mods, seed, horizon)
    stats = engine.run()
    log = engine.log
    assert stats.arrived_total == (
        stats.completed_total + stats.dead_letter_count + still_in_system(stats)
    )
    dead = [rec for rec in log if rec[1] == "dead_letter"]
    assert len(dead) == stats.dead_letter_count and all(rec[4] == "ml" for rec in dead)
    times = [rec[0] for rec in log]
    assert times == sorted(times)
    again, log_again = run_des(cfg, mods, seed=seed, horizon=horizon)
    assert list(log_again) == list(log) and again.to_flat_dict() == stats.to_flat_dict()


# hypothesis: arbitrary small workloads never break conservation or ordering
@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(min_value=0.05, max_value=3.0),
    n_eng=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    p1_weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_engine_invariants_hold_for_random_workloads(rate, n_eng, seed, p1_weight):
    cfg = single_class_config(n_engineers=n_eng, daily_rate=rate, service_mean_hours=5.0)
    cfg.generators[0].priority_mix = (p1_weight, 0.0, 1.0 - p1_weight)
    cfg.base_error_prob = 0.1
    stats, log = run_des(cfg, seed=seed, horizon=60.0)
    assert stats.arrived_total == (
        stats.completed_total + stats.dead_letter_count + still_in_system(stats)
    )
    times = [rec[0] for rec in log]
    assert times == sorted(times)
    assert stats.completed_total >= 0
