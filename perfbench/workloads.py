"""The benchmark's workloads: scenario inputs, CLI argument lists, output checks.

Each workload is one ``teamsim`` CLI call on a scenario file that this
module writes from the benchmark seed.  The scenarios are spelled out here
rather than taken from the package, so a change to the program's built-in
default does not silently change the benchmark's input.  The seed picks
the scenario's random stream and nothing else, so every seed offers the
same amount of work in distribution.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# digests in digests.json were recorded at this seed
REFERENCE_SEED = 1

_CORE_MIX = [
    {"skill_type": "core", "skill_level": 3, "p": 0.2},
    {"skill_type": "core", "skill_level": 2, "p": 0.45},
    {"skill_type": "core", "skill_level": 1, "p": 0.35},
]

# the built-in overloaded four-engineer team, written out in full
_DEFAULT = {
    "name": "default-overloaded-team",
    "horizon": 126.0,
    "replications": 1,
    "dt": 0.25,
    "cycles_max": 5,
    "tol": 0.001,
    "engineers": [
        {"id": 1, "skill_type": "core", "skill_level": 3, "affinity": "project"},
        {"id": 2, "skill_type": "core", "skill_level": 2, "affinity": "project"},
        {"id": 3, "skill_type": "core", "skill_level": 2, "affinity": "operational"},
        {"id": 4, "skill_type": "core", "skill_level": 1, "affinity": "operational"},
    ],
    "generators": [
        {
            "work_type": "project_task",
            "daily_rate": 1.6,
            "priority_mix": [0.05, 0.45, 0.5],
            "service_mean_hours": [4.0, 8.0, 12.0],
            "skill_mix": _CORE_MIX,
        },
        {
            "work_type": "service_request",
            "daily_rate": 2.0,
            "priority_mix": [0.05, 0.35, 0.6],
            "service_mean_hours": [2.0, 4.0, 8.0],
            "skill_mix": _CORE_MIX,
        },
        {
            "work_type": "incident",
            "daily_rate": 2.0,
            "priority_mix": [0.4, 0.4, 0.2],
            "service_mean_hours": [1.5, 3.0, 5.0],
            "skill_mix": _CORE_MIX,
        },
    ],
    "des": {
        "base_error_prob": 0.05,
        "skill_gap_error_boost": 2.0,
        "p_stop_skill": 0.4,
        "switch_penalty_hours": 0.5,
        "rework_service_mean_hours": 4.0,
        "interrupt_base_rate": 0.5,
        "hours_per_day": 8.0,
        "rework_priority_mix": [0.3, 0.7, 0.0],
        "skill_types": ["core"],
    },
    "sd": {
        "project_completion_days": 8.0,
        "ops_completion_days": 4.0,
        "team_capacity_hours": 32.0,
        "project_effort_hours": 9.4,
        "ops_effort_hours": 4.4,
        "desired_backlog": 60.0,
        "tau_fatigue": 12.0,
        "tau_mgmt": 15.0,
        "tau_rework": 10.0,
        "s_base": 0.05,
        "g_mgmt": 0.35,
        "k_pressure_stop": 0.5,
        "k_assist": 0.25,
        "k_switch": 1.5,
        "k_fatigue_prod": 0.3,
        "k_fatigue_error": 1.2,
        "k_capacity": 0.22,
        "base_error_frac": 0.05,
        "quality_target": 0.06,
        "target_cycle_time_days": 15.0,
    },
    "sd_initial": {"project_backlog": 25.0, "project_wip": 4.0, "ops_backlog": 20.0, "ops_wip": 4.0},
}

# M/M/4 at rho = 0.8: one class, four level-3 engineers, every side effect off
_MMC4 = {
    "name": "mmc4",
    "horizon": 126.0,
    "engineers": [
        {"id": i, "skill_type": "core", "skill_level": 3, "affinity": "operational"}
        for i in range(4)
    ],
    "generators": [
        {
            "work_type": "service_request",
            "daily_rate": 3.2,
            "priority_mix": [0.0, 0.0, 1.0],
            "service_mean_hours": [8.0, 8.0, 8.0],
            "skill_mix": [{"skill_type": "core", "skill_level": 1, "p": 1.0}],
        }
    ],
    "des": {
        "base_error_prob": 0.0,
        "p_stop_skill": 0.0,
        "switch_penalty_hours": 0.0,
        "interrupt_base_rate": 0.0,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    # CLI arguments after the scenario path; "{out}" marks the output directory
    args: tuple[str, ...]

    def argv(self, scenario_path: Path, out_dir: Path) -> list[str]:
        command, *rest = self.args
        return [command, str(scenario_path)] + [a.format(out=out_dir) for a in rest]

    def write_scenario(self, seed: int, path: Path) -> None:
        import yaml

        doc = dict(self.scenario, seed=random.Random(seed).randrange(2**31))
        path.write_text(yaml.safe_dump(doc, sort_keys=False))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("des-replicated", _DEFAULT, ("des", "--reps", "200")),
        Workload("mmc-long", _MMC4, ("des", "--horizon", "20000")),
        Workload(
            "hybrid-report",
            dict(_DEFAULT, horizon=1000.0),
            ("hybrid", "--cycles", "6", "--tol", "1e-12", "--out", "{out}"),
        ),
    )
}


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _summary(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def check_output(name: str, rc: int, stdout: str, out_dir: Path) -> dict:
    """Digest a call's outputs and check the workload's invariants.

    Returns ``{"items", "digests", "error"}``; ``error`` is None when every
    invariant holds.  ``items`` counts completed work items summed over
    replications and cycles.
    """
    if rc != 0:
        return {"items": 0, "digests": {}, "error": f"exit code {rc}"}
    if name == "hybrid-report":
        digests = {p.name: _sha256_file(p) for p in sorted(out_dir.iterdir())}
        doc = json.loads((out_dir / "cycles.json").read_text())
        items = sum(c["des"]["completed_total"] for c in doc["cycles"])
        bad = {"n_cycles": doc["n_cycles"]} if doc["n_cycles"] != 6 else {}
        return {"items": items, "digests": digests, "error": f"broken invariant {bad}" if bad else None}
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    flat = _summary(stdout)
    expect = {"replications": "200"} if name == "des-replicated" else {
        "stops_total": "0", "preemptions": "0", "rework_incidents": "0"
    }
    bad = {k: flat.get(k) for k, v in expect.items() if flat.get(k) != v}
    items = int(flat.get("completed_total", 0))
    return {"items": items, "digests": digests, "error": f"broken invariant {bad}" if bad else None}
