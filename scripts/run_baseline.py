#!/usr/bin/env python3
"""Uncoupled baseline: event model and flow model run side by side.

Runs the default overloaded-team scenario with no coupling, prints the
per-priority service figures and final stocks, and writes full reports.

    python scripts/run_baseline.py --reps 5 --out results/baseline
"""
import argparse
import sys
from pathlib import Path

from teamsim.cli import console_main, scenario_from_args
from teamsim.des import run_des_replicated
from teamsim.domain import Priority
from teamsim.io.report import des_log_sink, emit_des_report, emit_sd_report
from teamsim.sd import run_sd


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default="default", help="scenario YAML path, or 'default'")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--reps", type=int, default=5, help="event-model replications")
    ap.add_argument("--out", default="results/baseline")
    args = ap.parse_args()

    sc = scenario_from_args(args)
    out = Path(args.out)

    # each replication's log is written as soon as it ends
    sink = des_log_sink(out / "des", sc.replications)
    stats = run_des_replicated(
        sc.des, seed=sc.seed, horizon=sc.horizon, replications=sc.replications, log_sink=sink
    )
    print(f"== event model: {sc.replications} x {sc.horizon:g} days, seed {sc.seed} ==")
    print(f"arrived {stats.arrived_total}  completed {stats.completed_total}  "
          f"stops {stats.stop_count}  rework {stats.rework_count}")
    print(f"{'priority':<10}{'n done':>8}{'mean queue d':>14}{'mean total d':>14}")
    for pr in (Priority.P1, Priority.P2, Priority.P3):
        q, n = stats.pooled_queue_days(pr)
        w, _ = stats.pooled_completion_days(pr)
        print(f"{pr.name:<10}{n:>8}{q:>14.2f}{w:>14.2f}")

    traj = run_sd(sc.sd_initial, sc.sd_params, sc.horizon, sc.dt)
    final = traj.final_state
    print(f"\n== flow model: {sc.horizon:g} days at dt {sc.dt:g} ==")
    print(f"backlog P/O {final.project_backlog:.1f}/{final.ops_backlog:.1f}  "
          f"completed P/O {final.project_completed:.1f}/{final.ops_completed:.1f}")
    print(f"fatigue {final.fatigue:.3f}  pressure {final.mgmt_pressure:.3f}  "
          f"rework pool {final.rework_pool:.1f}  clamps {traj.clamp_events}")

    written = emit_des_report(stats, sink.out_dir, log_sink=sink)
    written += emit_sd_report(traj, out / "sd")
    print(f"\nwrote {len(written)} files under {out}/")
    return 0


if __name__ == "__main__":
    # as in the CLI: an unwritable --out or a closed stdout exits 2
    sys.exit(console_main(main))
