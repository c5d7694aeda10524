"""Scenario files: everything one run needs, in a single YAML document.

A scenario bundles the team (engineers), the demand (generators), the
event-model knobs, the flow-model parameters and initial stocks, and the
run controls (seed, horizon, replications, step size, coupling limits).
Any scalar can be overridden from the environment: variables named
``TEAMSIM_<path>`` are applied onto the document before validation, with
``__`` separating nesting levels, e.g.

    TEAMSIM_SEED=7
    TEAMSIM_DES__BASE_ERROR_PROB=0.1
    TEAMSIM_GENERATORS__0__DAILY_RATE=2.5

No segment may be empty, and one that indexes a list is ASCII decimal
digits naming an item; any other path is ``<VAR>: bad override path``.
Values are parsed as YAML.  The ``settings`` of ``load_scenario`` (the
command line's flags) go in after the overrides.  Each value, from any
source, is then read by its field's declared type (see ``records``), so a
value of the wrong kind is a ``ConfigurationError`` naming its key path,
and the whole scenario is validated once.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import yaml

from ..des import DesConfig, GeneratorConfig, des_day_count
from ..domain import Affinity, Engineer, SkillSpec, WorkType
from ..errors import ConfigurationError
from ..sd import SdParams, SdState, sd_step_count
from .records import read_record, read_value, read_yaml, write_record

ENV_PREFIX = "TEAMSIM_"


@dataclass
class Scenario:
    des: DesConfig
    sd_params: SdParams
    sd_initial: SdState
    horizon: float = 126.0
    replications: int = 1
    seed: int = 20
    dt: float = 0.25
    cycles_max: int = 5
    tol: float = 1e-3
    name: str = "scenario"

    def validate(self) -> None:
        self.des.validate()
        self.sd_params.validate()
        self.sd_initial.validate()
        # a positive, finite horizon, a bounded number of event-model days,
        # a dt in (0, horizon] and a bounded flow-model step count
        des_day_count(self.horizon)
        sd_step_count(self.horizon, self.dt)
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.cycles_max < 1:
            raise ConfigurationError("cycles_max must be >= 1")
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise ConfigurationError(f"tol must be positive and finite, got {self.tol}")


def scenario_from_dict(doc: Mapping, name: str = "scenario") -> Scenario:
    if not isinstance(doc, Mapping):
        raise ConfigurationError("scenario document must be a mapping")
    doc = dict(doc)
    engineers = read_value(doc.pop("engineers", []), list[Engineer], "engineers")
    generators = read_value(doc.pop("generators", []), list[GeneratorConfig], "generators")
    des = read_record(
        DesConfig, doc.pop("des", {}), "des", engineers=engineers, generators=generators
    )
    sd_doc = doc.pop("sd", {})
    if isinstance(sd_doc, Mapping):
        # arrivals default to the summed generator rates of each side
        sd_doc = dict(sd_doc)
        for key, operational in (("project_arrivals", False), ("ops_arrivals", True)):
            if sd_doc.get(key) is None:
                sd_doc[key] = sum(
                    g.daily_rate for g in generators if g.work_type.is_operational == operational
                )
    sd_params = read_record(SdParams, sd_doc, "sd")
    sd_initial = read_record(SdState, doc.pop("sd_initial", {}), "sd_initial")
    doc.setdefault("name", name)
    scenario = read_record(Scenario, doc, des=des, sd_params=sd_params, sd_initial=sd_initial)
    scenario.validate()
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    des = write_record(s.des)
    doc = write_record(s, "des", "sd_params", "sd_initial")
    doc["engineers"] = des.pop("engineers")
    doc["generators"] = des.pop("generators")
    doc["des"] = des
    doc["sd"] = write_record(s.sd_params)
    doc["sd_initial"] = write_record(s.sd_initial)
    return doc


def apply_env_overrides(doc: dict, env: Mapping[str, str] | None = None) -> dict:
    """Apply ``TEAMSIM_*`` environment overrides onto a scenario document."""
    env = os.environ if env is None else env
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower().split("__")
        try:
            value = yaml.safe_load(env[key])
        except yaml.YAMLError:
            raise ConfigurationError(f"{key}: cannot parse value {env[key]!r}") from None
        node: object = doc
        for depth, part in enumerate(path, 1):
            if isinstance(node, dict) and part:
                slot: object = part
            elif (
                isinstance(node, list) and part.isascii() and part.isdigit()
                and int(part) < len(node)
            ):
                slot = int(part)
            else:
                raise ConfigurationError(f"{key}: bad override path")
            if depth == len(path):
                node[slot] = value
            elif isinstance(node, dict):
                node = node.setdefault(slot, {})
            else:
                node = node[slot]
    return doc


def load_scenario(
    path: str | Path,
    env: Mapping[str, str] | None = None,
    settings: Mapping[str, object] | None = None,
) -> Scenario:
    """Load a scenario, apply environment overrides and settings, and validate.

    ``path`` is a YAML file, or the literal name ``default`` for the
    built-in scenario, which is written out as a document first, so the
    ``TEAMSIM_*`` overrides apply to either source the same way.
    ``settings`` maps top-level fields, such as ``horizon``, to values that
    replace the document's after the overrides; they are read and validated
    with every other value.
    """
    if path == "default":
        doc = scenario_to_dict(default_scenario())
    else:
        doc = read_yaml(path)
    doc = apply_env_overrides(doc, env)
    doc.update(settings or {})
    return scenario_from_dict(doc, name=Path(path).stem)


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(s), sort_keys=False))


def default_scenario() -> Scenario:
    """An overloaded four-engineer team: offered work-hours slightly exceed
    capacity, so urgent work still turns around quickly while the lowest
    priority starves and its queue grows without bound."""
    core = "core"
    engineers = [
        Engineer(1, SkillSpec(core, 3), Affinity.PROJECT_PRIMARY),
        Engineer(2, SkillSpec(core, 2), Affinity.PROJECT_PRIMARY),
        Engineer(3, SkillSpec(core, 2), Affinity.OPERATIONAL_PRIMARY),
        Engineer(4, SkillSpec(core, 1), Affinity.OPERATIONAL_PRIMARY),
    ]
    skill_mix = (
        (SkillSpec(core, 3), 0.20),
        (SkillSpec(core, 2), 0.45),
        (SkillSpec(core, 1), 0.35),
    )
    generators = [
        GeneratorConfig(
            work_type=WorkType.PROJECT_TASK,
            daily_rate=1.6,
            priority_mix=(0.05, 0.45, 0.50),
            service_mean_hours=(4.0, 8.0, 12.0),
            skill_mix=skill_mix,
        ),
        GeneratorConfig(
            work_type=WorkType.SERVICE_REQUEST,
            daily_rate=2.0,
            priority_mix=(0.05, 0.35, 0.60),
            service_mean_hours=(2.0, 4.0, 8.0),
            skill_mix=skill_mix,
        ),
        GeneratorConfig(
            work_type=WorkType.INCIDENT,
            daily_rate=2.0,
            priority_mix=(0.40, 0.40, 0.20),
            service_mean_hours=(1.5, 3.0, 5.0),
            skill_mix=skill_mix,
        ),
    ]
    des = DesConfig(
        generators=generators,
        engineers=engineers,
        base_error_prob=0.05,
        skill_gap_error_boost=2.0,
        p_stop_skill=0.4,
        switch_penalty_hours=0.5,
        rework_priority_mix=(0.3, 0.7, 0.0),
        rework_service_mean_hours=4.0,
        interrupt_base_rate=0.5,
        hours_per_day=8.0,
        skill_types=(core,),
    )
    sd_params = SdParams(
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
    sd_initial = SdState(
        project_backlog=25.0,
        project_wip=4.0,
        ops_backlog=20.0,
        ops_wip=4.0,
    )
    return Scenario(
        des=des,
        sd_params=sd_params,
        sd_initial=sd_initial,
        horizon=126.0,
        replications=1,
        seed=20,
        dt=0.25,
        cycles_max=5,
        tol=1e-3,
        name="default-overloaded-team",
    )
