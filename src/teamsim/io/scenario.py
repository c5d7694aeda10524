"""Scenario files: everything one run needs, in a single YAML document.

A scenario bundles the team (engineers), the demand (generators), the
event-model knobs, the flow-model parameters and initial stocks, and the
run controls (seed, horizon, replications, step size, coupling limits).
Any scalar can be overridden from the environment: variables named
``TEAMSIM_<path>`` are applied onto the document before validation, with
``__`` separating nesting levels and list indices given numerically, e.g.

    TEAMSIM_SEED=7
    TEAMSIM_DES__BASE_ERROR_PROB=0.1
    TEAMSIM_GENERATORS__0__DAILY_RATE=2.5

Values are parsed as YAML, so numbers, booleans, and lists all work.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

import yaml

from ..des import DesConfig, GeneratorConfig
from ..domain import Affinity, Engineer, SkillSpec, WorkType
from ..errors import ConfigurationError
from ..sd import SdParams, SdState

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
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise ConfigurationError(f"horizon must be positive and finite, got {self.horizon}")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.dt <= 0.0 or self.dt > self.horizon:
            raise ConfigurationError(f"dt must lie in (0, horizon], got {self.dt}")
        if self.cycles_max < 1:
            raise ConfigurationError("cycles_max must be >= 1")
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise ConfigurationError(f"tol must be positive and finite, got {self.tol}")


def _reject_unknown(doc: Mapping, allowed: set[str], ctx: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigurationError(f"{ctx}: unknown keys: {', '.join(sorted(map(str, unknown)))}")


def _engineer_from_dict(doc: Mapping, i: int) -> Engineer:
    ctx = f"engineers[{i}]"
    _reject_unknown(doc, {"id", "skill_type", "skill_level", "affinity", "capacity_factor"}, ctx)
    try:
        return Engineer(
            id=int(doc["id"]),
            skill=SkillSpec(str(doc["skill_type"]), int(doc["skill_level"])),
            affinity=Affinity.from_label(str(doc["affinity"])),
            capacity_factor=float(doc.get("capacity_factor", 1.0)),
        )
    except KeyError as e:
        raise ConfigurationError(f"{ctx}: missing key {e.args[0]!r}") from None


def _engineer_to_dict(eng: Engineer) -> dict:
    return {
        "id": eng.id,
        "skill_type": eng.skill.skill_type,
        "skill_level": eng.skill.skill_level,
        "affinity": eng.affinity.value,
        "capacity_factor": eng.capacity_factor,
    }


def _generator_from_dict(doc: Mapping, i: int) -> GeneratorConfig:
    ctx = f"generators[{i}]"
    _reject_unknown(
        doc, {"work_type", "daily_rate", "priority_mix", "service_mean_hours", "skill_mix"}, ctx
    )
    try:
        skill_mix = []
        for j, sm in enumerate(doc["skill_mix"]):
            _reject_unknown(sm, {"skill_type", "skill_level", "p"}, f"{ctx}.skill_mix[{j}]")
            skill_mix.append(
                (SkillSpec(str(sm["skill_type"]), int(sm["skill_level"])), float(sm["p"]))
            )
        return GeneratorConfig(
            work_type=WorkType.from_label(str(doc["work_type"])),
            daily_rate=float(doc["daily_rate"]),
            priority_mix=tuple(float(p) for p in doc["priority_mix"]),
            service_mean_hours=tuple(float(m) for m in doc["service_mean_hours"]),
            skill_mix=tuple(skill_mix),
        )
    except KeyError as e:
        raise ConfigurationError(f"{ctx}: missing key {e.args[0]!r}") from None


def _generator_to_dict(gen: GeneratorConfig) -> dict:
    return {
        "work_type": gen.work_type.value,
        "daily_rate": gen.daily_rate,
        "priority_mix": list(gen.priority_mix),
        "service_mean_hours": list(gen.service_mean_hours),
        "skill_mix": [
            {"skill_type": s.skill_type, "skill_level": s.skill_level, "p": p}
            for s, p in gen.skill_mix
        ],
    }


_DES_KNOBS = (
    "base_error_prob",
    "skill_gap_error_boost",
    "p_stop_skill",
    "switch_penalty_hours",
    "rework_service_mean_hours",
    "interrupt_base_rate",
    "hours_per_day",
)

_TOP_KEYS = {
    "name",
    "seed",
    "horizon",
    "replications",
    "dt",
    "cycles_max",
    "tol",
    "engineers",
    "generators",
    "des",
    "sd",
    "sd_initial",
}


def scenario_from_dict(doc: Mapping, name: str = "scenario") -> Scenario:
    if not isinstance(doc, Mapping):
        raise ConfigurationError("scenario document must be a mapping")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    raw_eng = doc.get("engineers")
    if not isinstance(raw_eng, list) or not raw_eng:
        raise ConfigurationError("scenario needs a non-empty 'engineers' list")
    engineers = [_engineer_from_dict(e, i) for i, e in enumerate(raw_eng)]

    raw_gen = doc.get("generators", [])
    if not isinstance(raw_gen, list):
        raise ConfigurationError("'generators' must be a list")
    generators = [_generator_from_dict(g, i) for i, g in enumerate(raw_gen)]

    des_doc = dict(doc.get("des", {}))
    _reject_unknown(des_doc, set(_DES_KNOBS) | {"rework_priority_mix", "skill_types"}, "des")
    des_kwargs = {k: float(des_doc[k]) for k in _DES_KNOBS if k in des_doc}
    if "rework_priority_mix" in des_doc:
        des_kwargs["rework_priority_mix"] = tuple(float(p) for p in des_doc["rework_priority_mix"])
    if "skill_types" in des_doc:
        des_kwargs["skill_types"] = tuple(str(s) for s in des_doc["skill_types"])
    des = DesConfig(generators=generators, engineers=engineers, **des_kwargs)

    sd_doc = dict(doc.get("sd", {}))
    sd_fields = {f.name for f in fields(SdParams)}
    _reject_unknown(sd_doc, sd_fields, "sd")
    # arrivals default to the summed generator rates of each side
    if sd_doc.get("project_arrivals") is None:
        sd_doc["project_arrivals"] = sum(
            g.daily_rate for g in generators if g.work_type is WorkType.PROJECT_TASK
        )
    if sd_doc.get("ops_arrivals") is None:
        sd_doc["ops_arrivals"] = sum(
            g.daily_rate for g in generators if g.work_type is not WorkType.PROJECT_TASK
        )
    sd_params = SdParams(**{k: float(v) for k, v in sd_doc.items()})

    init_doc = dict(doc.get("sd_initial", {}))
    _reject_unknown(init_doc, {f.name for f in fields(SdState)}, "sd_initial")
    sd_initial = SdState(**{k: float(v) for k, v in init_doc.items()})

    scenario = Scenario(
        des=des,
        sd_params=sd_params,
        sd_initial=sd_initial,
        horizon=float(doc.get("horizon", 126.0)),
        replications=int(doc.get("replications", 1)),
        seed=int(doc.get("seed", 20)),
        dt=float(doc.get("dt", 0.25)),
        cycles_max=int(doc.get("cycles_max", 5)),
        tol=float(doc.get("tol", 1e-3)),
        name=str(doc.get("name", name)),
    )
    scenario.validate()
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    sd = {f.name: getattr(s.sd_params, f.name) for f in fields(SdParams)}
    init = {k: v for k, v in s.sd_initial.as_dict().items() if v != 0.0}
    des: dict = {k: getattr(s.des, k) for k in _DES_KNOBS}
    des["rework_priority_mix"] = list(s.des.rework_priority_mix)
    if s.des.skill_types is not None:
        des["skill_types"] = list(s.des.skill_types)
    return {
        "name": s.name,
        "seed": s.seed,
        "horizon": s.horizon,
        "replications": s.replications,
        "dt": s.dt,
        "cycles_max": s.cycles_max,
        "tol": s.tol,
        "engineers": [_engineer_to_dict(e) for e in s.des.engineers],
        "generators": [_generator_to_dict(g) for g in s.des.generators],
        "des": des,
        "sd": sd,
        "sd_initial": init,
    }


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
        try:
            for part in path[:-1]:
                if isinstance(node, list):
                    node = node[int(part)]
                else:
                    node = node.setdefault(part, {})
            last = path[-1]
            if isinstance(node, list):
                node[int(last)] = value
            elif isinstance(node, dict):
                node[last] = value
            else:
                raise ConfigurationError(f"{key}: path does not address a field")
        except (ValueError, IndexError, AttributeError):
            raise ConfigurationError(f"{key}: bad override path") from None
    return doc


def load_scenario(path: str | Path, env: Mapping[str, str] | None = None) -> Scenario:
    """Load a YAML scenario, apply environment overrides, and validate."""
    path = Path(path)
    with path.open() as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigurationError(f"{path}: invalid YAML: {e}") from None
    if doc is None:
        raise ConfigurationError(f"{path}: empty scenario file")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: scenario document must be a mapping")
    doc = apply_env_overrides(doc, env)
    return scenario_from_dict(doc, name=path.stem)


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
