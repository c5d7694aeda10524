"""Ticket-data ingestion, arrival-rate fitting, and synthetic exports.

The on-disk format is a plain CSV with header
``opened_at,closed_at,work_type,priority,assignment_group,touch_hours``.
Timestamps are ISO-8601; closed_at and touch_hours may be empty.  Rates
are fitted per (work_type, priority) class from the gaps between
consecutive openings, in days.
"""
from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Sequence

from ..des import (
    sample_interarrival,
    sample_exponential_hours,
    _check_mix,
    _priority_cuts,
    _priority_index,
    _sample_priority,
)
from ..domain import Priority, WorkType
from ..errors import ConfigurationError, DataError
from .records import read_record

log = logging.getLogger(__name__)

TICKET_COLUMNS = (
    "opened_at",
    "closed_at",
    "work_type",
    "priority",
    "assignment_group",
    "touch_hours",
)

_BAD_ROW_LIMIT = 0.10

SERVICE_TIME_SOURCES = ("touch", "elapsed")


@dataclass(frozen=True)
class RateFit:
    """Exponential fit: rate is 1/mean gap, KS distance gauges fit quality."""

    rate_per_day: float
    n_gaps: int
    ks_distance: float


def fit_rate(gaps_days: Sequence[float]) -> RateFit:
    """Maximum-likelihood exponential rate from inter-arrival gaps.

    Rejects fewer than two gaps and any non-positive gap (the offending
    index is named), since those break the exponential model outright.
    """
    n = len(gaps_days)
    if n < 2:
        raise DataError(f"need at least two inter-arrival gaps to fit a rate, got {n}")
    for i, g in enumerate(gaps_days):
        if not math.isfinite(g) or g <= 0.0:
            raise DataError(f"non-positive inter-arrival gap at index {i}: {g}")
    mean = math.fsum(gaps_days) / n
    rate = 1.0 / mean
    xs = sorted(gaps_days)
    d = 0.0
    for i, x in enumerate(xs, start=1):
        f = 1.0 - math.exp(-rate * x)
        d = max(d, f - (i - 1) / n, i / n - f)
    return RateFit(rate_per_day=rate, n_gaps=n, ks_distance=d)


@dataclass
class TicketRecord:
    opened_at: datetime
    closed_at: datetime | None
    work_type: WorkType
    priority: Priority
    touch_hours: float | None

    def elapsed_hours(self) -> float | None:
        if self.closed_at is None:
            return None
        return (self.closed_at - self.opened_at).total_seconds() / 3600.0


@dataclass
class ClassObservations:
    n: int
    arrival_fit: RateFit | None
    mean_service_hours: float | None


@dataclass
class IngestResult:
    n_rows: int
    n_ok: int
    service_time_source: str
    errors: list[tuple[int, str]]  # (1-based data row number, message)
    classes: dict[tuple[str, str], ClassObservations] = field(default_factory=dict)


def _parse_row(row: dict) -> TicketRecord:
    # csv.DictReader files the fields past the header's under the key None
    # and sets the keys past a short row's last field to None
    n_header = len(row) - (None in row)
    n_fields = n_header - list(row.values()).count(None) + len(row.get(None, ()))
    if n_fields != n_header:
        raise DataError(f"expected {n_header} fields, got {n_fields}")
    try:
        opened = datetime.fromisoformat(row["opened_at"].strip())
    except ValueError:
        raise DataError(f"bad opened_at timestamp: {row['opened_at']!r}") from None
    closed_raw = (row.get("closed_at") or "").strip()
    closed = None
    if closed_raw:
        try:
            closed = datetime.fromisoformat(closed_raw)
        except ValueError:
            raise DataError(f"bad closed_at timestamp: {closed_raw!r}") from None
        if closed < opened:
            raise DataError("closed_at precedes opened_at")
    try:
        wt = WorkType.from_label(row["work_type"])
        pr = Priority.from_label(row["priority"])
    except ConfigurationError as e:
        raise DataError(str(e)) from None
    touch_raw = (row.get("touch_hours") or "").strip()
    touch = None
    if touch_raw:
        try:
            touch = float(touch_raw)
        except ValueError:
            raise DataError(f"bad touch_hours: {touch_raw!r}") from None
        if not math.isfinite(touch) or touch < 0.0:
            raise DataError(f"touch_hours must be finite and >= 0, got {touch}")
    return TicketRecord(
        opened_at=opened,
        closed_at=closed,
        work_type=wt,
        priority=pr,
        touch_hours=touch,
    )


def ingest_tickets(path: str | Path, service_time_source: str = "touch") -> IngestResult:
    """Read a ticket CSV and fit per-class arrival rates.

    Individual bad rows are collected (row number plus reason) rather than
    aborting; more than 10% bad rows rejects the file.  An empty file is
    legal but logged as a warning.  Coincident openings carry no rate
    information: they are dropped from a class's gaps, and their count is
    logged as a warning.  ``service_time_source`` declares which column
    carries service time: hands-on ``touch`` hours or wall-clock
    ``elapsed`` time between opening and closing.
    """
    if service_time_source not in SERVICE_TIME_SOURCES:
        raise ConfigurationError(
            f"service_time_source must be one of {SERVICE_TIME_SOURCES}, got {service_time_source!r}"
        )
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected header {','.join(TICKET_COLUMNS)}")
        missing = [c for c in TICKET_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing required columns: {', '.join(missing)}")
        records: list[TicketRecord] = []
        errors: list[tuple[int, str]] = []
        n_rows = 0
        for row_no, row in enumerate(reader, start=1):
            n_rows += 1
            try:
                records.append(_parse_row(row))
            except DataError as e:
                errors.append((row_no, str(e)))

    if n_rows == 0:
        log.warning("%s: no data rows", path)
    elif len(errors) > _BAD_ROW_LIMIT * n_rows:
        raise DataError(
            f"{path}: {len(errors)} of {n_rows} rows unusable (limit {_BAD_ROW_LIMIT:.0%}); "
            f"first: row {errors[0][0]}: {errors[0][1]}"
        )

    result = IngestResult(
        n_rows=n_rows,
        n_ok=len(records),
        service_time_source=service_time_source,
        errors=errors,
    )

    by_class: dict[tuple[str, str], list[TicketRecord]] = {}
    for rec in records:
        by_class.setdefault((rec.work_type.value, rec.priority.name), []).append(rec)
    for key in sorted(by_class):
        rows = sorted(by_class[key], key=lambda r: r.opened_at)
        gaps = []
        dropped = 0
        for a, b in zip(rows, rows[1:]):
            g = (b.opened_at - a.opened_at).total_seconds() / 86400.0
            if g <= 0.0:
                dropped += 1  # coincident openings carry no rate information
            else:
                gaps.append(g)
        if dropped:
            log.warning("%s: %s/%s: dropped %d zero gaps", path, key[0], key[1], dropped)
        fit = fit_rate(gaps) if len(gaps) >= 2 else None
        if service_time_source == "touch":
            svc = [r.touch_hours for r in rows if r.touch_hours is not None]
        else:
            svc = [r.elapsed_hours() for r in rows if r.closed_at is not None]
        mean_svc = math.fsum(svc) / len(svc) if svc else None
        result.classes[key] = ClassObservations(
            n=len(rows),
            arrival_fit=fit,
            mean_service_hours=mean_svc,
        )
    return result


@dataclass
class SynthClass:
    work_type: str
    daily_rate: float
    priority_mix: tuple[float, float, float]
    service_mean_hours: tuple[float, float, float]

    def validate(self) -> None:
        WorkType.from_label(self.work_type)
        if self.daily_rate < 0.0 or not math.isfinite(self.daily_rate):
            raise ConfigurationError(f"synthetic class {self.work_type}: bad daily_rate")
        _check_mix(self.priority_mix, f"synthetic class {self.work_type} priority_mix")
        if len(self.service_mean_hours) != 3 or not all(
            0.0 < m < math.inf for m in self.service_mean_hours
        ):
            raise ConfigurationError(
                f"synthetic class {self.work_type}: need three positive, finite service means"
            )


@dataclass
class SynthSpec:
    classes: list[SynthClass]
    span_days: float = 126.0
    start: str = "2025-01-05T00:00:00"
    assignment_group: str = "team-core"

    def validate(self) -> None:
        if not self.classes:
            raise ConfigurationError("synthetic spec needs at least one class")
        for c in self.classes:
            c.validate()
        if self.span_days < 0.0 or not math.isfinite(self.span_days):
            raise ConfigurationError(f"span_days must be finite and >= 0, got {self.span_days}")
        try:
            datetime.fromisoformat(self.start)
        except ValueError:
            raise ConfigurationError(f"bad start timestamp: {self.start!r}") from None


def generate_synthetic(spec: SynthSpec, seed: int, path: str | Path) -> int:
    """Write a synthetic ticket CSV; returns the number of rows.

    Arrivals are Poisson per class over the configured span, priorities
    and service hours drawn from the class mixes; closed_at is opened_at
    plus the touch hours.  Identical (spec, seed) pairs produce
    byte-identical files, which makes round-trip checks against the
    fitters meaningful.
    """
    import random as _random

    spec.validate()
    rng = _random.Random(seed)
    start = datetime.fromisoformat(spec.start)
    rows: list[tuple[datetime, str, str, float]] = []
    for cls in spec.classes:
        if cls.daily_rate <= 0.0:
            continue
        cuts = _priority_cuts(cls.priority_mix)
        t = sample_interarrival(cls.daily_rate, rng)
        while t <= spec.span_days:
            priority = _sample_priority(*cuts, rng)
            mean = cls.service_mean_hours[_priority_index(priority)]
            touch = sample_exponential_hours(mean, rng)
            rows.append((start + timedelta(days=t), cls.work_type, priority.name, touch))
            t += sample_interarrival(cls.daily_rate, rng)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TICKET_COLUMNS)
        for opened, wt, pr, touch in rows:
            closed = opened + timedelta(hours=touch)
            writer.writerow(
                [
                    opened.isoformat(),
                    closed.isoformat(),
                    wt,
                    pr,
                    spec.assignment_group,
                    f"{touch:.4f}",
                ]
            )
    return len(rows)


def synth_spec_from_dict(doc: dict) -> SynthSpec:
    """Build a synthetic-data spec from a parsed YAML/JSON document."""
    spec = read_record(SynthSpec, doc)
    spec.validate()
    return spec
