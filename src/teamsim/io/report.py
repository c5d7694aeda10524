"""Deterministic report emission.

Each report file has one encoding: summaries (``summary.json``,
``fits.json``, ``cycles.json``) are JSON, tables (``queue_lengths.csv``,
``trajectory.csv``, ``diff_p*.csv``) are CSV, and event logs are NDJSON.
Every emitter renders floats at six significant digits, sorts JSON keys,
and writes newline-terminated text, so re-running the same result object
yields byte-identical files.  CSV columns with no value render as empty
fields.  The CSV and event-log writers stream one line per record to the
open file, so no joined copy of a whole file is built in memory.
``write_event_log_ndjson`` is the one NDJSON writer.  An ``EventLogSink``
gives each run a streamed ``EventLog`` whose writer calls it for every
batch of records the engine flushes while the run goes on, so a run holds
at most a batch and a day's records, never its whole log.  The writer
reads a batch only by iterating it, one ``(time, kind, item_id,
engineer_id, detail)`` tuple per record.

An event's time is written as ``json.dumps`` writes ``round(t, 6)``, that
is ``repr(round(t, 6))``, but on ``1e-4 <= t < 1e9`` it is rendered as
``f"{t:.6f}"`` with trailing zeros stripped (one kept after a bare ``.``),
which costs about a third as much.  Both round ``t`` correctly to 6
decimals, and inside those bounds the text is exactly what ``repr``
writes: ``repr`` uses no exponent there, and a value of at most 15
significant digits is one ``repr`` reproduces digit for digit.  Below
``1e-4`` ``repr`` switches to exponent form, and from about ``1e9`` six
decimals make 16 digits or more, which need not be the shortest text that
round-trips (123456789012.345678 renders ``...345673`` against ``repr``'s
``...34567``), so every other time takes ``repr(round(t, 6))``.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..des import DesStats, EventLog, EventRecord
from ..domain import Priority
from ..hybrid import HybridReport
from ..sd import SdTrajectory


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _sig6(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Stream a header line and one line per row; the header is always written."""
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _json_time(t: float) -> str:
    """``repr(round(t, 6))``, computed as the module docstring describes."""
    if 1e-4 <= t < 1e9:
        s = f"{t:.6f}".rstrip("0")
        return s + "0" if s[-1] == "." else s
    return repr(round(t, 6))


class _Escaped(dict):
    """JSON string literals of the strings looked up, each escaped once."""

    def __missing__(self, s: str) -> str:
        lit = self[s] = _json_str(s)
        return lit


def _ndjson_lines(log: Iterable[EventRecord], kinds: _Escaped) -> Iterator[str]:
    # a log holds a handful of event kinds and many records at one instant,
    # so each kind is escaped once into ``kinds`` and a time rendered once per
    # run of equal times; ``not t`` re-renders every zero, since 0.0 == -0.0
    prev_t = None
    time_s = ""
    for t, kind, item_id, eng_id, detail in log:
        if t != prev_t or not t:
            prev_t = t
            time_s = _json_time(t)
        yield (
            f'{{"detail": {_json_str(detail)}, "engineer_id": {eng_id}, '
            f'"event_kind": {kinds[kind]}, "item_id": {item_id}, "time": {time_s}}}\n'
        )


def write_event_log_ndjson(
    log: Iterable[EventRecord], path: Path, mode: str = "w", kinds: _Escaped | None = None
) -> None:
    """Stream one NDJSON line per record; an empty log writes an empty file.

    ``mode`` is ``"w"`` to make the file or ``"a"`` to append a later batch
    of the same log; ``kinds``, when given, is the cache of escaped event
    kinds that the log's earlier batches filled.  The file is closed before
    the call returns, whether or not it raises.

    Each line equals ``json.dumps`` of the record with ``sort_keys``: the
    keys are fixed, so the line is an f-string in sorted-key order with
    json's default separators; strings go through the same C escaper that
    ``json.dumps`` uses, and ``time`` is rendered by the rule in the module
    docstring.  Event times are finite floats from the engine's clock:
    ``repr`` would render ``nan``/``inf`` where json writes
    ``NaN``/``Infinity``.
    """
    with path.open(mode) as f:
        f.writelines(_ndjson_lines(log, _Escaped() if kinds is None else kinds))


class EventLogSink:
    """Streams each run's event log to ``out_dir`` while the run goes on.

    ``sink(k)`` returns the streamed ``EventLog`` that run ``k`` records
    into and keeps no reference to it.  Its writer makes ``name.format(k)``
    with the first batch of records and appends each later batch as NDJSON,
    so a run that makes no record gets no file.  Each batch's write opens
    and closes the file, so no handle is left open between batches or when
    a run raises; a run that raises after its first batch leaves a partial
    log on disk.  ``paths`` lists the files made, in the order their runs
    ran: the report emitters list the logs from it, never from a directory
    listing, so files left in ``out_dir`` by an earlier run are not
    reported.  Making a sink creates ``out_dir``, so an unusable directory
    fails before any run starts.
    """

    def __init__(self, out_dir: Path, name: str) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._name = name
        self.paths: list[Path] = []

    def __call__(self, k: int) -> EventLog:
        path = self.out_dir / self._name.format(k)
        # kept across the run's batches, so each kind is escaped once a run;
        # empty until the first batch is written, as every record has a kind
        kinds = _Escaped()

        def write(batch: EventLog) -> None:
            first = not kinds
            write_event_log_ndjson(batch, path, "w" if first else "a", kinds)
            if first:
                self.paths.append(path)

        return EventLog(write)


def des_log_sink(out_dir: Path, replications: int) -> EventLogSink:
    """Logs named ``eventlog.ndjson`` for a single replication, else ``eventlog_rep{k}.ndjson``."""
    return EventLogSink(out_dir, "eventlog.ndjson" if replications == 1 else "eventlog_rep{}.ndjson")


def hybrid_log_sink(out_dir: Path) -> EventLogSink:
    """Logs named ``eventlog_cycle{k}.ndjson``."""
    return EventLogSink(out_dir, "eventlog_cycle{}.ndjson")


def emit_des_report(
    stats: DesStats,
    out_dir: Path,
    log_sink: EventLogSink | None = None,
) -> list[Path]:
    """Write summary and daily queue series; list the sink's event logs.

    The event logs are the files a ``log_sink`` already wrote while the
    replications ran; without one, no log is listed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = out_dir / "summary.json"
    write_json(stats.to_flat_dict(), p)
    written = [p]

    reps = stats.replications
    by_priority = [stats.daily_queue_by_priority[pr] for pr in (Priority.P1, Priority.P2, Priority.P3)]
    rows = (
        (day0 + 1, *(n / reps for n in counts))
        for day0, counts in enumerate(zip(stats.daily_individual_queue, *by_priority)) if reps
    )
    p = out_dir / "queue_lengths.csv"
    write_csv(p, ("day", "individual_queues", "p1", "p2", "p3"), rows)
    written.append(p)

    if log_sink is not None:
        written += log_sink.paths
    return written


def emit_sd_report(traj: SdTrajectory, out_dir: Path) -> list[Path]:
    """Write the wide trajectory table plus a small summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = zip(traj.times, *traj.columns.values())
    p_traj = out_dir / "trajectory.csv"
    write_csv(p_traj, ["time", *traj.columns], rows)
    summary = {
        "steps": len(traj) - 1,
        "dt": traj.dt,
        "clamp_events": traj.clamp_events,
        "final": asdict(traj.final_state),
        "mean_fatigue": traj.mean("fatigue"),
        "mean_mgmt_pressure": traj.mean("mgmt_pressure"),
        "mean_error_frac": traj.mean("error_frac"),
        "mean_stop_rate": traj.mean("stop_rate"),
    }
    p_sum = out_dir / "summary.json"
    write_json(summary, p_sum)
    return [p_traj, p_sum]


def _cycle_dict(rec) -> dict:
    return {
        "cycle": rec.index,
        "modifiers_in": asdict(rec.modifiers_in),
        "feed_forward": asdict(rec.feed_forward),
        "sd_summary": asdict(rec.sd_summary),
        "modifiers_out": asdict(rec.modifiers_out),
        "des": rec.des_stats.to_flat_dict(),
    }


def emit_hybrid_report(
    report: HybridReport, out_dir: Path, log_sink: EventLogSink | None = None
) -> list[Path]:
    """Write cycles.json, per-priority difference series, and event logs.

    The difference CSVs compare the final cycle against cycle 0: per day,
    the change in mean completion time (days) for that priority.  Days
    where either cycle completed nothing are left empty.  The event logs
    are the files a ``log_sink`` already wrote while the cycles ran;
    without one, no log is listed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    doc = {
        "converged": report.converged,
        "n_cycles": report.n_cycles,
        "cycles": [_cycle_dict(rec) for rec in report.cycles],
    }
    p = out_dir / "cycles.json"
    write_json(doc, p)
    written.append(p)

    base = report.cycles[0].des_stats
    final = report.cycles[-1].des_stats
    for pr in (Priority.P1, Priority.P2, Priority.P3):
        cur = final.priority_daily_mean(pr)
        ref = base.priority_daily_mean(pr)
        rows = []
        for day0, (c, r) in enumerate(zip(cur, ref)):
            delta = c - r if (c is not None and r is not None) else None
            rows.append((day0 + 1, delta))
        p = out_dir / f"diff_{pr.name.lower()}.csv"
        write_csv(p, ("day", "delta_days"), rows)
        written.append(p)

    if log_sink is not None:
        written += log_sink.paths
    return written


def emit_fit_report(result, out_dir: Path) -> list[Path]:
    """Write ``fits.json``: an ingest's row counts, its bad rows and its per-class fits."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    classes = {}
    for (wt, pr), obs in sorted(result.classes.items()):
        classes[f"{wt}.{pr.lower()}"] = {
            "n": obs.n,
            "rate_per_day": obs.arrival_fit.rate_per_day if obs.arrival_fit else None,
            "ks_distance": obs.arrival_fit.ks_distance if obs.arrival_fit else None,
            "mean_service_hours": obs.mean_service_hours,
        }
    doc = {
        "rows": result.n_rows,
        "rows_ok": result.n_ok,
        "service_time_source": result.service_time_source,
        "bad_rows": [{"row": r, "reason": m} for r, m in result.errors],
        "classes": classes,
    }
    p = out_dir / "fits.json"
    write_json(doc, p)
    return [p]
