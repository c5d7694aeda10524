"""Golden outputs: fixed-seed runs must reproduce recorded SHA-256 digests.

The C8 acceptance check compares one run against another, so it cannot see
a change that alters every run the same way.  These digests pin the exact
bytes instead: event-log lines, summary floats at full ``repr`` precision,
daily series (among them a deep-backlog run whose interrupted items go
back into long queues), the SD trajectory, and the report files: the SD
``trajectory.csv`` and ``summary.json``, the ``fit`` ``fits.json``, the hybrid
``cycles.json`` and per-cycle NDJSON event logs, and the ``des`` summary,
queue series and NDJSON event logs of one and of two replications.  A
digest may change only in a commit that says why the output changed.

The digests were recorded on CPython 3.11 (x86-64, glibc).  Exact float
results depend on the platform's ``math.log`` and on ``sum``, whose
algorithm changed in Python 3.12, so they may differ elsewhere.
"""
import hashlib
import json
from dataclasses import astuple, fields, replace

import pytest

from teamsim.des import DesModifiers, run_des, run_des_replicated
from teamsim.hybrid import run_hybrid
from teamsim.io.report import (
    des_log_sink,
    emit_des_report,
    emit_fit_report,
    emit_hybrid_report,
    emit_sd_report,
    hybrid_log_sink,
)
from teamsim.io.scenario import default_scenario
from teamsim.io.tickets import SynthClass, SynthSpec, generate_synthetic, ingest_tickets
from teamsim.sd import SdState, run_sd

from conftest import mmc_config, two_skill_config

GOLDEN = {
    "des-default": "572fba47da79ae45ebdc8b97b0385164c5490cfb560e0a434e2a1bd25fbf8e46",
    "des-mmc4": "b2701a199a8d234048ae02d811f92a26c17ad53ad91c38652a96612db0c476db",
    "des-two-skill": "ca14a5b962fb5c5cb0995b74b68d9ba59d462528d0a2eb020f2dfdb1d5df1416",
    "des-deep-backlog": "ac6a3a53e9068378bb4c672d54bd2e2100e7c9148a81d92dc5a66203d0e2db42",
    "des-report-single": "1275859a211ad7362ef5cf3150795c63d6f74d7e0359b6568f0a871105da1488",
    "des-report-reps": "05c8d611a65f50be35f0ba5b2c3678bef8b9dfb1924d325cca1b4293ac9c1ff7",
    "des-report-reps-merged": "c6fc4ccf24d663bbdc210cb4c2a315533988692bb156db103c5f9f9f7bc7b5ca",
    "fit-report": "4bc538fe26d3f3a1b84f2892d5891cd4750e2a1d47e45bbea64b7a23ea363a43",
    "sd-default": "c4ebf22d113189d66600711e68d2ae32c91a9945891474d48fcb4b11c2f258b0",
    "sd-report": "d21a03fd7c0451c5e0958094aa9b363ce646f366ad86ebc810f84c5db35a516d",
    "hybrid-cycles-json": "9657988843a0d9af49d753738b0511d54efcba03e46e85471e199f8bb6d202e5",
    "hybrid-eventlog-ndjson": "3c397de426f4ca14e05ddf4105ef193213051d22fc690f7adb7cb54b49ccddda",
    "hybrid-diff-csv": "0d0deb6c91e3bf3676a486090b62e22ce8830003c2f9386ebacc14c4d686db17",
    "hybrid-cycles-exact": "03f766fdf8996609e05e43ba53da0cf379d05c4698c38ce51c307f4c0a1b5a87",
}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _exact(obj) -> str:
    # json renders floats with repr, so equal text means equal bits
    return json.dumps(obj, sort_keys=True)


def _daily_mean(stats, key) -> list[float | None]:
    # a class's mean completion days per day, None on days it completed nothing
    no_days = [0] * stats.n_days
    sums = stats.daily_completion_sum.get(key, no_days)
    counts = stats.daily_completion_count.get(key, no_days)
    return [s / c if c > 0 else None for s, c in zip(sums, counts)]


def _des_lines(stats, log) -> list[str]:
    # the digests were recorded with each event as a CSV line and with a
    # team-queue series that was always 0 (work is routed the moment it
    # enters); both are rendered here as they were, so the digests still
    # pin every event, summary float and daily series bit for bit
    events = [f"{t:.6f},{kind},{item},{eng},{detail}" for t, kind, item, eng, detail in log]
    series = {
        "team": [0] * stats.n_days,
        "individual": stats.daily_individual_queue,
        "by_priority": {p.name: list(v) for p, v in stats.daily_queue_by_priority.items()},
        "daily_mean": {
            f"{wt.value}.{pr.name}": _daily_mean(stats, (wt, pr)) for wt, pr in stats.class_keys()
        },
        "final_in_queue": {f"{wt.value}.{pr.name}": n for (wt, pr), n in stats.final_in_queue.items()},
        "final_in_service": {
            f"{wt.value}.{pr.name}": n for (wt, pr), n in stats.final_in_service.items()
        },
    }
    return events + [_exact(stats.to_flat_dict()), _exact(series)]


def _files_sha(paths) -> str:
    # file name and bytes of each file, so a renamed or reordered file shows
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _digest(name: str, tmp_path) -> str:
    if name == "des-default":
        sc = default_scenario()
        return _sha(_des_lines(*run_des(sc.des, seed=sc.seed, horizon=sc.horizon)))
    if name == "des-mmc4":
        return _sha(_des_lines(*run_des(mmc_config(4, 3.2), seed=7, horizon=500.0)))
    if name == "des-two-skill":
        mods = DesModifiers(rework_multiplier=1.5, capacity_factor=0.9, interrupt_rate=0.6)
        return _sha(_des_lines(*run_des(two_skill_config(), mods, seed=3, horizon=300.0)))
    if name == "des-deep-backlog":
        # half capacity under heavy interrupts: deep engineer queues that every
        # interrupt and preemption pushes back into (1,520 items left queued,
        # 7,147 interrupts, 400 preemptions)
        sc = default_scenario()
        mods = DesModifiers(rework_multiplier=1.2, capacity_factor=0.5, interrupt_rate=4.5)
        return _sha(_des_lines(*run_des(sc.des, mods, seed=sc.seed, horizon=400.0)))
    if name == "sd-default":
        sc = default_scenario()
        traj = run_sd(sc.sd_initial, sc.sd_params, sc.horizon, sc.dt)
        # each row: time, then the state fields, then the auxiliaries
        n_state = len(fields(SdState))
        rows = [
            _exact([t, row[:n_state], row[n_state:]])
            for t, *row in zip(traj.times, *traj.columns.values())
        ]
        return _sha(rows + [str(traj.clamp_events)])
    if name == "sd-report":
        # the files of ``teamsim sd --out``: trajectory.csv and summary.json
        sc = default_scenario()
        traj = run_sd(sc.sd_initial, sc.sd_params, sc.horizon, sc.dt)
        return _files_sha(emit_sd_report(traj, tmp_path))
    if name == "fit-report":
        # ``fits.json`` of ``teamsim fit --out`` on a synthetic corpus with
        # one malformed row appended, so ``bad_rows`` is not empty
        spec = SynthSpec(
            classes=[
                SynthClass("incident", 2.0, (0.4, 0.4, 0.2), (1.5, 3.0, 5.0)),
                SynthClass("service_request", 0.5, (0.0, 0.4, 0.6), (2.0, 4.0, 8.0)),
            ],
            span_days=120.0,
        )
        src = tmp_path / "tickets.csv"
        generate_synthetic(spec, seed=11, path=src)
        with src.open("a") as f:
            f.write("not-a-date,2025-02-01T00:00:00,incident,P1,team-core,1.0\n")
        return _files_sha(emit_fit_report(ingest_tickets(src), tmp_path / "fit"))
    if name == "des-report-single":
        sc = default_scenario()
        stats, log = run_des(sc.des, seed=sc.seed, horizon=sc.horizon)
        sink = des_log_sink(tmp_path, 1)
        sink(0, log)
        return _files_sha(emit_des_report(stats, tmp_path, log_sink=sink))
    if name == "des-report-reps":
        sc = default_scenario()
        sink = des_log_sink(tmp_path, 2)
        stats = run_des_replicated(
            sc.des, seed=sc.seed, horizon=sc.horizon, replications=2, log_sink=sink
        )
        emit_des_report(stats, tmp_path, log_sink=sink)
        return _files_sha(tmp_path.glob("eventlog_rep*.ndjson"))
    if name == "des-report-reps-merged":
        # the merged replications: pooled samples, summed counters and the
        # day-by-day sums of the queue series
        sc = default_scenario()
        stats = run_des_replicated(sc.des, seed=sc.seed, horizon=sc.horizon, replications=2)
        emit_des_report(stats, tmp_path)
        return _files_sha([tmp_path / "summary.json", tmp_path / "queue_lengths.csv"])
    sink = hybrid_log_sink(tmp_path)
    logs = []

    def keep_and_write(k, log):
        logs.append(log)
        sink(k, log)

    report = run_hybrid(
        replace(default_scenario(), cycles_max=2, tol=1e-12), log_sink=keep_and_write
    )
    emit_hybrid_report(report, tmp_path, log_sink=sink)
    if name == "hybrid-cycles-json":
        return hashlib.sha256((tmp_path / "cycles.json").read_bytes()).hexdigest()
    if name == "hybrid-eventlog-ndjson":
        return _files_sha(tmp_path.glob("eventlog_cycle*.ndjson"))
    if name == "hybrid-diff-csv":
        return _files_sha(tmp_path.glob("diff_p*.csv"))
    lines = []
    for rec, log in zip(report.cycles, logs, strict=True):
        lines += _des_lines(rec.des_stats, log)
        lines.append(_exact([astuple(rec.modifiers_in), astuple(rec.modifiers_out)]))
    return _sha(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(name, tmp_path):
    assert _digest(name, tmp_path) == GOLDEN[name]
