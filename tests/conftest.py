"""Shared builders for the test suite.

The queueing-theory checks need engine configurations that collapse to
textbook models: a single work class, identical overqualified engineers,
and every stochastic side effect (stops, rework, switch penalties,
interrupts) disabled.  With one engineer and exponential demand that is
an M/M/1 queue; with c engineers it is M/M/c.
"""
from __future__ import annotations

from teamsim.des import DesConfig, GeneratorConfig
from teamsim.domain import Affinity, Engineer, SkillSpec, WorkType

CORE = SkillSpec("core", 3)


def plain_engineers(n: int) -> list[Engineer]:
    """n identical level-3 engineers, so no item ever hits a skill gap."""
    return [Engineer(id=i, skill=CORE, affinity=Affinity.OPERATIONAL_PRIMARY) for i in range(n)]


def single_class_config(
    n_engineers: int = 1,
    daily_rate: float = 0.8,
    service_mean_hours: float = 8.0,
) -> DesConfig:
    gen = GeneratorConfig(
        work_type=WorkType.SERVICE_REQUEST,
        daily_rate=daily_rate,
        priority_mix=(0.0, 0.0, 1.0),
        service_mean_hours=(service_mean_hours,) * 3,
        skill_mix=((SkillSpec("core", 1), 1.0),),
    )
    return DesConfig(
        generators=[gen],
        engineers=plain_engineers(n_engineers),
        base_error_prob=0.0,
        p_stop_skill=0.0,
        switch_penalty_hours=0.0,
        interrupt_base_rate=0.0,
    )


def mm1_config(daily_rate: float = 0.8) -> DesConfig:
    """M/M/1 with service rate 1/day (8h mean at an 8h day)."""
    return single_class_config(n_engineers=1, daily_rate=daily_rate)


def mmc_config(c: int, daily_rate: float) -> DesConfig:
    return single_class_config(n_engineers=c, daily_rate=daily_rate)


def two_skill_config() -> DesConfig:
    """Two skill types with level gaps, a type no engineer holds, and every
    side effect switched on: skill stops, rework, switch penalties.

    Run it with a positive ``interrupt_rate`` modifier to add management
    interruptions.  P1 arrivals preempt running work, colleagues of one
    skill type steal from each other, and the unheld ``ml`` type dead-letters.
    """
    engineers = [
        Engineer(1, SkillSpec("core", 3), Affinity.PROJECT_PRIMARY),
        Engineer(2, SkillSpec("core", 2), Affinity.OPERATIONAL_PRIMARY),
        Engineer(3, SkillSpec("core", 1), Affinity.OPERATIONAL_PRIMARY),
        Engineer(4, SkillSpec("data", 3), Affinity.OPERATIONAL_PRIMARY),
        Engineer(5, SkillSpec("data", 1), Affinity.PROJECT_PRIMARY, capacity_factor=0.8),
    ]
    skill_mix = (
        (SkillSpec("core", 3), 0.15),
        (SkillSpec("core", 1), 0.35),
        (SkillSpec("data", 2), 0.25),
        (SkillSpec("data", 1), 0.20),
        (SkillSpec("ml", 1), 0.05),
    )
    generators = [
        GeneratorConfig(WorkType.PROJECT_TASK, 1.2, (0.1, 0.4, 0.5), (4.0, 8.0, 12.0), skill_mix),
        GeneratorConfig(WorkType.SERVICE_REQUEST, 1.5, (0.1, 0.3, 0.6), (2.0, 4.0, 8.0), skill_mix),
        GeneratorConfig(WorkType.INCIDENT, 1.5, (0.5, 0.3, 0.2), (1.5, 3.0, 5.0), skill_mix),
    ]
    return DesConfig(
        generators=generators,
        engineers=engineers,
        base_error_prob=0.08,
        skill_gap_error_boost=2.0,
        p_stop_skill=0.3,
        switch_penalty_hours=0.5,
        rework_priority_mix=(0.3, 0.7, 0.0),
        rework_service_mean_hours=3.0,
    )
