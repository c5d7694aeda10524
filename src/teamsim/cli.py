"""Command-line front end.

Subcommands: fit, synth, des, sd, hybrid, validate.  Scenario arguments
take a YAML path or the literal name ``default`` for the built-in
overloaded-team scenario; environment variables prefixed ``TEAMSIM_``
override scenario fields either way, and run-setting flags set them after
the overrides.  The whole scenario is then checked once, by one rule for
every source, before a command writes anything.  Exit codes: 0 success, 1
bad configuration or data, 2 unreadable or missing input, 3 engine failure.

Only ``fit`` and ``synth`` load the ticket reader, ``teamsim.io.tickets``,
and with it ``logging`` and ``csv``; the run commands and ``validate``
start without them.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from .des import run_des_replicated
from .domain import SERVICE_TIME_SOURCES
from .errors import ConfigurationError, DataError, TeamsimError
from .hybrid import run_hybrid
from .io.report import (
    des_log_sink,
    emit_des_report,
    emit_fit_report,
    emit_hybrid_report,
    emit_sd_report,
    hybrid_log_sink,
)
from .io.records import read_yaml
from .io.scenario import load_scenario
from .sd import run_sd


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; that slot is reserved for
    # I/O problems here, so route usage errors through the normal handler
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# each run-setting flag, by its argparse dest, and the Scenario field it sets
_RUN_FLAGS = {
    "seed": "seed",
    "horizon": "horizon",
    "reps": "replications",
    "dt": "dt",
    "cycles": "cycles_max",
    "tol": "tol",
}


def scenario_from_args(args: argparse.Namespace):
    """Load ``args.scenario`` with each run-setting flag given as its field.

    The flags go into the scenario document after the ``TEAMSIM_*``
    overrides, so a flag's value is read and validated with every other
    value, by the same rule as its variable.
    """
    values = {field: getattr(args, flag, None) for flag, field in _RUN_FLAGS.items()}
    given = {field: v for field, v in values.items() if v is not None}
    return load_scenario(args.scenario, settings=given)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# fit and synth import the ticket reader where they call it, so the run
# commands never load it or the logging and csv modules it brings in
def _cmd_fit(args) -> int:
    from .io.tickets import ingest_tickets

    result = ingest_tickets(args.tickets, service_time_source=args.service_time_source)
    if args.out:
        paths = emit_fit_report(result, Path(args.out))
        for p in paths:
            print(p)
        return 0
    print(f"rows={result.n_rows} ok={result.n_ok} bad={len(result.errors)}")
    for key in sorted(result.classes):
        obs = result.classes[key]
        rate = _fmt(obs.arrival_fit.rate_per_day) if obs.arrival_fit else "-"
        ks = _fmt(obs.arrival_fit.ks_distance) if obs.arrival_fit else "-"
        svc = _fmt(obs.mean_service_hours) if obs.mean_service_hours is not None else "-"
        print(f"{key[0]},{key[1]},n={obs.n},rate_per_day={rate},ks={ks},mean_service_hours={svc}")
    return 0


def _cmd_synth(args) -> int:
    from .io.tickets import generate_synthetic, synth_spec_from_dict

    doc = read_yaml(args.spec)
    if args.span is not None:
        doc["span_days"] = args.span
    spec = synth_spec_from_dict(doc)
    n = generate_synthetic(spec, args.seed, args.out)
    print(f"wrote {n} rows to {args.out}")
    return 0


def _cmd_des(args) -> int:
    scenario = scenario_from_args(args)
    # the scenario is settled, so a rejected run writes nothing; the sink
    # creates --out before the first replication and streams each
    # replication's log to its file while that replication runs
    sink = des_log_sink(Path(args.out), scenario.replications) if args.out else None
    stats = run_des_replicated(
        scenario.des, seed=scenario.seed, horizon=scenario.horizon,
        replications=scenario.replications, log_sink=sink,
    )
    if sink is not None:
        for p in emit_des_report(stats, sink.out_dir, log_sink=sink):
            print(p)
        return 0
    flat = stats.to_flat_dict()
    for k in sorted(flat):
        v = flat[k]
        print(f"{k}={_fmt(v) if isinstance(v, float) else v}")
    return 0


def _cmd_sd(args) -> int:
    scenario = scenario_from_args(args)
    traj = run_sd(scenario.sd_initial, scenario.sd_params, scenario.horizon, scenario.dt)
    if args.out:
        for p in emit_sd_report(traj, Path(args.out)):
            print(p)
        return 0
    final = asdict(traj.final_state)
    for k in sorted(final):
        print(f"final.{k}={_fmt(final[k])}")
    print(f"clamp_events={traj.clamp_events}")
    return 0


def _cmd_hybrid(args) -> int:
    scenario = scenario_from_args(args)
    # the sink creates --out before the first cycle and streams each cycle's
    # log to its file while its event-model run goes on
    sink = hybrid_log_sink(Path(args.out)) if args.out else None
    report = run_hybrid(scenario, log_sink=sink)
    if sink is not None:
        for p in emit_hybrid_report(report, sink.out_dir, log_sink=sink):
            print(p)
        return 0
    for rec in report.cycles:
        out = rec.modifiers_out
        print(
            f"cycle={rec.index} stops={rec.des_stats.stop_count} "
            f"rework={rec.des_stats.rework_count} "
            f"completed={rec.des_stats.completed_total} "
            f"rework_multiplier={_fmt(out.rework_multiplier)} "
            f"capacity_factor={_fmt(out.capacity_factor)} "
            f"interrupt_rate={_fmt(out.interrupt_rate)}"
        )
    print(f"converged={str(report.converged).lower()} cycles={report.n_cycles}")
    return 0


def _cmd_validate(args) -> int:
    scenario = scenario_from_args(args)
    print(f"ok: {scenario.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the help shows the docstring but its last paragraph, a note for readers of this module
    parser = _Parser(prog="teamsim", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit arrival rates from a ticket CSV")
    p.add_argument("tickets", help="ticket CSV path")
    p.add_argument(
        "--service-time-source",
        choices=SERVICE_TIME_SOURCES,
        default="touch",
        help="which column carries service time",
    )
    p.add_argument("--out", help="directory for fit reports (default: print)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("synth", help="generate a synthetic ticket CSV")
    p.add_argument("spec", help="YAML spec of classes and rates")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--span", type=float, default=None, help="override span in days")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("des", help="run the event-driven team model")
    p.add_argument("scenario", help="scenario YAML path, or 'default'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", help="directory for reports (default: print summary)")
    p.set_defaults(func=_cmd_des)

    p = sub.add_parser("sd", help="run the stock-and-flow model")
    p.add_argument("scenario", help="scenario YAML path, or 'default'")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", help="directory for reports (default: print final state)")
    p.set_defaults(func=_cmd_sd)

    p = sub.add_parser("hybrid", help="run the coupled procedure")
    p.add_argument("scenario", help="scenario YAML path, or 'default'")
    p.add_argument("--cycles", type=int, default=None, help="max coupling cycles")
    p.add_argument("--tol", type=float, default=None, help="modifier convergence tolerance")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="directory for reports (default: print cycle table)")
    p.set_defaults(func=_cmd_hybrid)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario", help="scenario YAML path, or 'default'")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ConfigurationError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"i/o error: undecodable input: {e}", file=sys.stderr)
        return 2
    except TeamsimError as e:
        print(f"engine error: {e}", file=sys.stderr)
        return 3


def console_main(entry: Callable[[], int] = main) -> int:
    """Run ``entry`` as a process's whole life and return its exit code.

    The boundary of ``python -m teamsim``, the ``teamsim`` command and the
    example scripts.  Stdout is flushed here, so a closed one fails inside
    the handler rather than at interpreter exit: an i/o error ends in exit
    code 2 with ``i/o error: ...`` on stderr, never a traceback.  On a
    broken pipe stdout is pointed at ``/dev/null``, so the flush at exit
    does not retry the write.  ``main`` itself flushes nothing, since it is
    also called in-process with stdout redirected.
    """
    try:
        code = entry()
        sys.stdout.flush()
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        if isinstance(e, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(console_main())
