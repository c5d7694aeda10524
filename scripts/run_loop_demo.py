#!/usr/bin/env python3
"""Closed-loop demonstration: how the pressure loop eats the lowest class.

Couples the two models for a few cycles and prints, per cycle, the
modifiers the flow model fed back and what they did to service. Cycle 0
is the uncoupled baseline; the deltas at the bottom are the headline
effect: more stops and rework, slower mid-priority work, and a collapse
in completed low-priority items.

    python scripts/run_loop_demo.py --cycles 3 --out results/loop_demo
"""
import argparse
import sys
from pathlib import Path

from teamsim.cli import console_main, scenario_from_args
from teamsim.domain import Priority
from teamsim.hybrid import run_hybrid
from teamsim.io.report import emit_hybrid_report, hybrid_log_sink


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default="default", help="scenario YAML path, or 'default'")
    ap.add_argument("--cycles", type=int, default=3)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default="results/loop_demo")
    # a fixed tolerance, so the loop runs every cycle asked for
    ap.set_defaults(tol=1e-12)
    args = ap.parse_args()

    sc = scenario_from_args(args)
    # each cycle's log is written as soon as its event-model run ends
    sink = hybrid_log_sink(Path(args.out))
    report = run_hybrid(sc, log_sink=sink)

    print(f"{'cycle':<6}{'rework x':>9}{'capacity':>9}{'intr/day':>9}"
          f"{'stops':>7}{'rework':>7}{'P2 days':>8}{'P3 done':>8}")
    for rec in report.cycles:
        mods = rec.modifiers_in
        s = rec.des_stats
        print(f"{rec.index:<6}{mods.rework_multiplier:>9.3f}{mods.capacity_factor:>9.3f}"
              f"{mods.interrupt_rate:>9.3f}{s.stop_count:>7}{s.rework_count:>7}"
              f"{s.pooled_completion_days(Priority.P2)[0]:>8.2f}"
              f"{s.completed_of_priority(Priority.P3):>8}")

    base = report.cycles[0].des_stats
    last = report.cycles[-1].des_stats
    print(f"\nloop effect after {report.n_cycles} cycles "
          f"(converged={str(report.converged).lower()}):")
    print(f"  stops      {base.stop_count} -> {last.stop_count}")
    print(f"  rework     {base.rework_count} -> {last.rework_count}")
    p2_days = [s.pooled_completion_days(Priority.P2)[0] for s in (base, last)]
    p3_done = [s.completed_of_priority(Priority.P3) for s in (base, last)]
    print(f"  P2 days    {p2_days[0]:.2f} -> {p2_days[1]:.2f}")
    print(f"  P3 done    {p3_done[0]} -> {p3_done[1]}")

    written = emit_hybrid_report(report, sink.out_dir, log_sink=sink)
    print(f"\nwrote {len(written)} files under {args.out}/")
    return 0


if __name__ == "__main__":
    # as in the CLI: an unwritable --out or a closed stdout exits 2
    sys.exit(console_main(main))
