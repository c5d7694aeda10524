"""Golden outputs: fixed-seed runs must reproduce recorded SHA-256 digests.

The C8 acceptance check compares one run against another, so it cannot see
a change that alters every run the same way.  These digests pin the exact
bytes instead: event-log lines, summary floats at full ``repr`` precision,
daily series, the SD trajectory and the hybrid ``cycles.json``.  A digest
may change only in a commit that says why the output changed.

The digests were recorded on CPython 3.11 (x86-64, glibc).  Exact float
results depend on the platform's ``math.log`` and on ``sum``, whose
algorithm changed in Python 3.12, so they may differ elsewhere.
"""
import hashlib
import json
from dataclasses import astuple

import pytest

from teamsim.des import DesModifiers, format_event, run_des
from teamsim.hybrid import run_hybrid
from teamsim.io.report import emit_hybrid_report
from teamsim.io.scenario import default_scenario
from teamsim.sd import run_sd

from conftest import mmc_config, two_skill_config

GOLDEN = {
    "des-default": "572fba47da79ae45ebdc8b97b0385164c5490cfb560e0a434e2a1bd25fbf8e46",
    "des-mmc4": "b2701a199a8d234048ae02d811f92a26c17ad53ad91c38652a96612db0c476db",
    "des-two-skill": "ca14a5b962fb5c5cb0995b74b68d9ba59d462528d0a2eb020f2dfdb1d5df1416",
    "sd-default": "c4ebf22d113189d66600711e68d2ae32c91a9945891474d48fcb4b11c2f258b0",
    "hybrid-cycles-json": "9657988843a0d9af49d753738b0511d54efcba03e46e85471e199f8bb6d202e5",
    "hybrid-cycles-exact": "03f766fdf8996609e05e43ba53da0cf379d05c4698c38ce51c307f4c0a1b5a87",
}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _exact(obj) -> str:
    # json renders floats with repr, so equal text means equal bits
    return json.dumps(obj, sort_keys=True)


def _des_lines(stats, log) -> list[str]:
    series = {
        "team": stats.daily_team_queue,
        "individual": stats.daily_individual_queue,
        "by_priority": {p.name: v for p, v in stats.daily_queue_by_priority.items()},
        "daily_mean": {
            f"{wt.value}.{pr.name}": stats.daily_mean_completion((wt, pr))
            for wt, pr in stats.class_keys()
        },
        "final_in_queue": {f"{wt.value}.{pr.name}": n for (wt, pr), n in stats.final_in_queue.items()},
        "final_in_service": {
            f"{wt.value}.{pr.name}": n for (wt, pr), n in stats.final_in_service.items()
        },
    }
    return [format_event(rec) for rec in log] + [_exact(stats.to_flat_dict()), _exact(series)]


def _digest(name: str, tmp_path) -> str:
    if name == "des-default":
        sc = default_scenario()
        return _sha(_des_lines(*run_des(sc.des, seed=sc.seed, horizon=sc.horizon)))
    if name == "des-mmc4":
        return _sha(_des_lines(*run_des(mmc_config(4, 3.2), seed=7, horizon=500.0)))
    if name == "des-two-skill":
        mods = DesModifiers(rework_multiplier=1.5, capacity_factor=0.9, interrupt_rate=0.6)
        return _sha(_des_lines(*run_des(two_skill_config(), mods, seed=3, horizon=300.0)))
    if name == "sd-default":
        sc = default_scenario()
        traj = run_sd(sc.sd_initial, sc.sd_params, sc.horizon, sc.dt)
        rows = [
            _exact([t, astuple(s), astuple(a)])
            for t, s, a in zip(traj.times, traj.states, traj.aux)
        ]
        return _sha(rows + [str(traj.clamp_events)])
    report = run_hybrid(default_scenario(), cycles_max=2, tol=1e-12)
    if name == "hybrid-cycles-json":
        emit_hybrid_report(report, tmp_path)
        return hashlib.sha256((tmp_path / "cycles.json").read_bytes()).hexdigest()
    lines = []
    for rec in report.cycles:
        lines += _des_lines(rec.des_stats, rec.event_log)
        lines.append(_exact([astuple(rec.modifiers_in), astuple(rec.modifiers_out)]))
    return _sha(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(name, tmp_path):
    assert _digest(name, tmp_path) == GOLDEN[name]
