"""Ticket ingestion, synthetic data, report emission, and scenario I/O."""
import copy
import csv
import dataclasses
import gc
import json
import logging
import math
import random
import re
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import teamsim.des
import teamsim.hybrid
import teamsim.io.scenario
from teamsim.des import (
    LOG_BATCH,
    DesEngine,
    EventLog,
    GeneratorConfig,
    run_des,
    run_des_replicated,
)
from teamsim.domain import SERVICE_TIME_SOURCES, Affinity, Engineer, SkillSpec, WorkType
from teamsim.errors import ConfigurationError, DataError, StructuralError
from teamsim.io.report import (
    des_log_sink,
    emit_des_report,
    emit_fit_report,
    emit_hybrid_report,
    emit_sd_report,
    hybrid_log_sink,
    write_csv,
    write_event_log_ndjson,
)
from teamsim.io.scenario import (
    Scenario,
    apply_env_overrides,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)
from teamsim.io.tickets import (
    SynthClass,
    SynthSpec,
    fit_rate,
    generate_synthetic,
    ingest_tickets,
    synth_spec_from_dict,
)
from teamsim.hybrid import run_hybrid
from teamsim.sd import SdParams, SdState, run_sd

from conftest import single_class_config

TOY_CSV = """opened_at,closed_at,work_type,priority,assignment_group,touch_hours
2025-01-06T09:00:00,2025-01-06T17:00:00,incident,P1,team-core,2.0
2025-01-07T09:00:00,2025-01-07T18:00:00,incident,P1,team-core,4.0
2025-01-09T09:00:00,2025-01-09T10:00:00,incident,P1,team-core,3.0
2025-01-06T10:00:00,2025-01-08T10:00:00,service_request,P3,team-core,6.0
"""


class TestFitRate:
    def test_constant_gaps(self):
        fit = fit_rate([2.0, 2.0, 2.0])
        assert fit.rate_per_day == pytest.approx(0.5)
        assert fit.n_gaps == 3

    def test_mean_gap_sets_rate(self):
        fit = fit_rate([1.0, 4.0])
        assert fit.rate_per_day == pytest.approx(0.4)

    def test_needs_two_gaps(self):
        with pytest.raises(DataError):
            fit_rate([1.0])

    def test_rejects_nonpositive_gap_with_position(self):
        with pytest.raises(DataError, match="index 1"):
            fit_rate([1.0, 0.0, 2.0])

    def test_recovers_exponential_rate(self):
        rng = random.Random(17)
        gaps = [rng.expovariate(1.4) for _ in range(100_000)]
        fit = fit_rate(gaps)
        assert fit.rate_per_day == pytest.approx(1.4, rel=0.02)
        # the data really is exponential, so the fit distance is tiny
        assert fit.ks_distance < 0.01

    def test_flags_non_exponential_shape(self):
        fit = fit_rate([1.0] * 500)
        assert fit.ks_distance > 0.3

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=50.0))
    def test_scaling_gaps_scales_rate_inversely(self, scale):
        base = [0.5, 1.5, 3.0, 1.0]
        a = fit_rate(base)
        b = fit_rate([g * scale for g in base])
        assert b.rate_per_day == pytest.approx(a.rate_per_day / scale, rel=1e-9)


class TestIngest:
    def test_toy_file_classes(self, tmp_path):
        p = tmp_path / "tickets.csv"
        p.write_text(TOY_CSV)
        res = ingest_tickets(p)
        assert res.n_rows == 4 and res.n_ok == 4 and not res.errors
        inc = res.classes[("incident", "P1")]
        assert inc.n == 3
        # gaps 1 day and 2 days -> rate 1 / 1.5
        assert inc.arrival_fit.rate_per_day == pytest.approx(1.0 / 1.5)
        assert inc.mean_service_hours == pytest.approx(3.0)
        sr = res.classes[("service_request", "P3")]
        assert sr.arrival_fit is None  # one row, no gaps
        assert sr.mean_service_hours == pytest.approx(6.0)

    def test_elapsed_source_uses_wall_clock(self, tmp_path):
        p = tmp_path / "tickets.csv"
        p.write_text(TOY_CSV)
        res = ingest_tickets(p, service_time_source="elapsed")
        sr = res.classes[("service_request", "P3")]
        assert sr.mean_service_hours == pytest.approx(48.0)

    def test_unknown_source_rejected(self, tmp_path):
        p = tmp_path / "tickets.csv"
        p.write_text(TOY_CSV)
        message = f"service_time_source must be one of {SERVICE_TIME_SOURCES}, got 'guessed'"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ingest_tickets(p, service_time_source="guessed")

    def test_bad_rows_collected_with_row_numbers(self, tmp_path):
        # keep the bad fraction under the 10% rejection limit
        good = [
            f"2025-02-{day:02d}T09:00:00,2025-02-{day:02d}T12:00:00,incident,P2,team-core,1.5"
            for day in range(1, 11)
        ]
        lines = [TOY_CSV.splitlines()[0], *good[:4], "not-a-date,,incident,P1,team-core,1.0", *good[4:]]
        p = tmp_path / "tickets.csv"
        p.write_text("\n".join(lines) + "\n")
        res = ingest_tickets(p)
        assert res.n_rows == 11 and res.n_ok == 10
        assert len(res.errors) == 1
        row_no, reason = res.errors[0]
        assert row_no == 5 and "opened_at" in reason

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("2025-03-01T09:00:00,yesterday,incident,P1,team-core,1.0",
             "bad closed_at timestamp: 'yesterday'"),
            ("2025-03-01T09:00:00,2025-02-28T09:00:00,incident,P1,team-core,1.0",
             "closed_at precedes opened_at"),
            ("2025-03-01T09:00:00,,incident,P1,team-core,lots", "bad touch_hours: 'lots'"),
            ("2025-03-01T09:00:00,,incident,P1,team-core,-1.0",
             "touch_hours must be finite and >= 0, got -1.0"),
            ("2025-03-01T09:00:00,,bug,P1,team-core,1.0", "unknown work type label: 'bug'"),
            ("2025-03-01T09:00:00,,incident,P9,team-core,1.0", "unknown priority label: 'P9'"),
            # a comma in assignment_group shifts the fields after it
            ("2025-03-01T09:00:00,,incident,P1,team,core,1.0", "expected 6 fields, got 7"),
            ("2025-01-02T00:00:00", "expected 6 fields, got 1"),
        ],
    )
    def test_each_bad_field_is_a_row_error(self, tmp_path, row, reason):
        good = [
            f"2025-02-{day:02d}T09:00:00,,incident,P2,team-core,1.5" for day in range(1, 11)
        ]
        p = tmp_path / "tickets.csv"
        p.write_text("\n".join([TOY_CSV.splitlines()[0], *good[:3], row, *good[3:]]) + "\n")
        res = ingest_tickets(p)
        assert res.n_rows == 11 and res.n_ok == 10
        assert res.errors == [(4, reason)]

    def test_mostly_bad_file_rejected(self, tmp_path):
        rows = ["x,,incident,P1,team-core,1.0"] * 9
        rows.insert(0, TOY_CSV.splitlines()[1])
        p = tmp_path / "tickets.csv"
        p.write_text(TOY_CSV.splitlines()[0] + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="unusable"):
            ingest_tickets(p)

    def test_header_only_file_is_legal(self, tmp_path):
        p = tmp_path / "tickets.csv"
        p.write_text(TOY_CSV.splitlines()[0] + "\n")
        res = ingest_tickets(p)
        assert res.n_rows == 0 and res.classes == {}

    def test_truly_empty_file_rejected(self, tmp_path):
        p = tmp_path / "tickets.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest_tickets(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "tickets.csv"
        p.write_text("opened_at,work_type\n2025-01-06T09:00:00,incident\n")
        with pytest.raises(DataError, match="missing required columns"):
            ingest_tickets(p)

    def test_coincident_openings_dropped_with_note(self, tmp_path, caplog):
        dup = TOY_CSV + "2025-01-06T09:00:00,2025-01-06T12:00:00,incident,P1,team-core,1.0\n"
        p = tmp_path / "tickets.csv"
        p.write_text(dup)
        with caplog.at_level(logging.WARNING, logger="teamsim.io.tickets"):
            res = ingest_tickets(p)
        assert caplog.messages == [f"{p}: incident/P1: dropped 1 zero gaps"]
        assert res.classes[("incident", "P1")].n == 4


class TestSynthetic:
    def spec(self, span=400.0):
        return SynthSpec(
            classes=[
                SynthClass("incident", 2.0, (0.4, 0.4, 0.2), (1.5, 3.0, 5.0)),
                SynthClass("service_request", 0.5, (0.0, 0.4, 0.6), (2.0, 4.0, 8.0)),
            ],
            span_days=span,
        )

    def test_row_count_tracks_rates(self, tmp_path):
        p = tmp_path / "synth.csv"
        n = generate_synthetic(self.spec(), seed=5, path=p)
        rows = list(csv.DictReader(p.open()))
        assert len(rows) == n
        # 2.5/day over 400 days; 4 sigma is about 127
        assert 870 <= n <= 1130

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_synthetic(self.spec(), seed=9, path=a)
        generate_synthetic(self.spec(), seed=9, path=b)
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        generate_synthetic(self.spec(), seed=10, path=c)
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_service_means_must_be_positive_and_finite(self, tmp_path, bad):
        spec = SynthSpec([SynthClass("incident", 2.0, (0.4, 0.4, 0.2), (1.5, bad, 5.0))])
        with pytest.raises(ConfigurationError, match="positive, finite service means"):
            generate_synthetic(spec, seed=1, path=tmp_path / "synth.csv")

    def test_zero_span_writes_header_only(self, tmp_path):
        p = tmp_path / "synth.csv"
        n = generate_synthetic(self.spec(span=0.0), seed=1, path=p)
        lines = p.read_text().splitlines()
        assert len(lines) == 1 + n

    def test_round_trip_recovers_rates(self, tmp_path):
        p = tmp_path / "synth.csv"
        generate_synthetic(self.spec(span=2000.0), seed=3, path=p)
        res = ingest_tickets(p)
        pooled = {}
        for (wt, _), obs in res.classes.items():
            if obs.arrival_fit is not None:
                pooled.setdefault(wt, 0.0)
                pooled[wt] += obs.arrival_fit.rate_per_day
        assert pooled["incident"] == pytest.approx(2.0, rel=0.05)
        assert pooled["service_request"] == pytest.approx(0.5, rel=0.08)

    def test_spec_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            synth_spec_from_dict({"classes": [], "spam": 1})

    def test_closed_never_precedes_opened(self, tmp_path):
        p = tmp_path / "synth.csv"
        generate_synthetic(self.spec(span=50.0), seed=2, path=p)
        res = ingest_tickets(p)
        assert not res.errors


class TestReportEmission:
    def test_des_report_files(self, tmp_path):
        sink = des_log_sink(tmp_path, 1)
        stats, _ = run_des(default_scenario().des, seed=20, horizon=30.0, collect_log=sink(0))
        written = emit_des_report(stats, tmp_path, log_sink=sink)
        names = {p.name for p in written}
        assert names == {"summary.json", "queue_lengths.csv", "eventlog.ndjson"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["arrived_total"] == stats.arrived_total
        q = list(csv.DictReader((tmp_path / "queue_lengths.csv").open()))
        assert len(q) == 30
        assert [r["day"] for r in q[:3]] == ["1", "2", "3"]
        assert q[0].keys() == {"day", "individual_queues", "p1", "p2", "p3"}
        first = json.loads((tmp_path / "eventlog.ndjson").read_text().splitlines()[0])
        assert set(first) == {"time", "event_kind", "item_id", "engineer_id", "detail"}

    def test_an_empty_pool_reports_no_days(self, tmp_path):
        # a pool of no replications has no queue means and no per-day rates
        emit_des_report(teamsim.des.DesStats(30.0), tmp_path)
        q = (tmp_path / "queue_lengths.csv").read_text()
        assert q == "day,individual_queues,p1,p2,p3\n"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["replications"] == 0 and summary["completions_per_day"] is None

    def test_emission_is_repeatable_bytes(self, tmp_path):
        # a streamed log is written once, so each directory gets its own run
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            sink = des_log_sink(d, 1)
            stats, _ = run_des(default_scenario().des, seed=20, horizon=20.0, collect_log=sink(0))
            emit_des_report(stats, d, log_sink=sink)
        for name in ("summary.json", "queue_lengths.csv", "eventlog.ndjson"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_sd_report_shape(self, tmp_path):
        sc = default_scenario()
        traj = run_sd(sc.sd_initial, sc.sd_params, 20.0, 0.25)
        emit_sd_report(traj, tmp_path)
        rows = list(csv.DictReader((tmp_path / "trajectory.csv").open()))
        assert len(rows) == len(traj)
        assert "project_backlog" in rows[0] and "work_pressure" in rows[0]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["final"]) == {f.name for f in fields(SdState)}

    def test_hybrid_report_files(self, tmp_path):
        sc = default_scenario()
        sink = hybrid_log_sink(tmp_path)
        report = run_hybrid(dataclasses.replace(sc, cycles_max=2), log_sink=sink)
        written = emit_hybrid_report(report, tmp_path, log_sink=sink)
        names = {p.name for p in written}
        assert "cycles.json" in names
        assert {"diff_p1.csv", "diff_p2.csv", "diff_p3.csv"} <= names
        assert "eventlog_cycle0.ndjson" in names
        doc = json.loads((tmp_path / "cycles.json").read_text())
        assert doc["n_cycles"] == 2
        assert len(doc["cycles"]) == 2
        assert "modifiers_out" in doc["cycles"][0]
        # ndjson lines are valid json with the expected fields
        line = (tmp_path / "eventlog_cycle0.ndjson").read_text().splitlines()[0]
        rec = json.loads(line)
        assert set(rec) == {"time", "event_kind", "item_id", "engineer_id", "detail"}

    def test_fit_report(self, tmp_path):
        src = tmp_path / "tickets.csv"
        src.write_text(TOY_CSV)
        res = ingest_tickets(src)
        emit_fit_report(res, tmp_path)
        doc = json.loads((tmp_path / "fits.json").read_text())
        assert doc["rows"] == 4 and doc["rows_ok"] == 4
        inc = doc["classes"]["incident.p1"]
        assert inc["n"] == 3
        assert inc["rate_per_day"] == pytest.approx(1.0 / 1.5, rel=1e-5)
        # a class with one opening has no rate fit
        assert doc["classes"]["service_request.p3"]["rate_per_day"] is None


class TestLogSink:
    def test_runs_hand_each_log_to_the_sink_and_keep_none(self):
        # each log handed over is the one a standalone run of that cycle or
        # replication returns; TestNothingOutlivesItsRun checks none is kept
        # the sink gives run k a held log and keeps it under k
        sc = default_scenario()
        got = {}
        report = run_hybrid(
            dataclasses.replace(sc, cycles_max=2, tol=1e-12),
            log_sink=lambda k: got.setdefault(k, EventLog()),
        )
        ref = {
            rec.index: list(run_des(sc.des, rec.modifiers_in, sc.seed + rec.index, sc.horizon)[1])
            for rec in report.cycles
        }
        assert list(got) == [0, 1] and {k: list(log) for k, log in got.items()} == ref

        got.clear()
        run_des_replicated(
            sc.des, seed=sc.seed, horizon=30.0, replications=2,
            log_sink=lambda k: got.setdefault(k, EventLog()),
        )
        ref = {i: list(run_des(sc.des, seed=sc.seed + i, horizon=30.0)[1]) for i in range(2)}
        assert list(got) == [0, 1] and {k: list(log) for k, log in got.items()} == ref

    @pytest.mark.parametrize("command", ["des", "hybrid"])
    def test_cycle_with_empty_log_gets_no_file(self, tmp_path, command):
        if command == "des":
            # no generator has a positive rate, so each replication has no event
            sink = des_log_sink(tmp_path, 2)
            stats = run_des_replicated(
                single_class_config(daily_rate=0.0), horizon=10.0, replications=2, log_sink=sink
            )
            written = emit_des_report(stats, tmp_path, log_sink=sink)
            expected = ["summary.json", "queue_lengths.csv"]
        else:
            # no generator has a positive rate, and cycle 0 schedules no
            # interruptions, so the one cycle has no event
            sc = copy.deepcopy(default_scenario())
            for gen in sc.des.generators:
                gen.daily_rate = 0.0
            sink = hybrid_log_sink(tmp_path)
            report = run_hybrid(dataclasses.replace(sc, cycles_max=1), log_sink=sink)
            written = emit_hybrid_report(report, tmp_path, log_sink=sink)
            expected = ["cycles.json", "diff_p1.csv", "diff_p2.csv", "diff_p3.csv"]
        assert sink.paths == [] and not list(tmp_path.glob("eventlog*"))
        assert [p.name for p in written] == expected


class _Log(EventLog):
    """A held event log that can be weakly referenced."""


class TestNothingOutlivesItsRun:
    """No run's event log or flow-model trajectory is still referenced when
    the next event-model or flow-model run starts: the memory peak comes
    inside a run, so whatever is held through one adds to it."""

    @staticmethod
    def _watch(monkeypatch, sd_module=None):
        # wrap ``teamsim.des.run_des``, which every event-model run goes
        # through, and ``sd_module.run_sd`` when given, so each log (a
        # ``_Log`` from the test's sink) and trajectory is weakly referenced
        # and each log's size noted; each call first records which of the
        # earlier ones are gone
        refs = []
        starts = []
        sizes = []

        def run_des(*args, real=teamsim.des.run_des, **kwargs):
            starts.append([r() is None for r in refs])
            stats, log = real(*args, **kwargs)
            refs.append(weakref.ref(log))
            sizes.append(len(log))
            return stats, log

        def run_sd(*args, real=getattr(sd_module, "run_sd", None), **kwargs):
            starts.append([r() is None for r in refs])
            traj = real(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(teamsim.des, "run_des", run_des)
        if sd_module is not None:
            monkeypatch.setattr(sd_module, "run_sd", run_sd)
        return refs, starts, sizes

    def test_hybrid_cycle_keeps_no_earlier_log_or_trajectory(self, monkeypatch):
        sc = copy.deepcopy(default_scenario())
        sc.horizon = 30.0
        refs, starts, sizes = self._watch(monkeypatch, sd_module=teamsim.hybrid)
        report = run_hybrid(
            dataclasses.replace(sc, cycles_max=3, tol=1e-12), log_sink=lambda k: _Log()
        )
        assert report.n_cycles == 3 and all(sizes)
        # runs alternate: cycle k's event model, then its flow model
        assert [len(s) for s in starts] == [0, 1, 2, 3, 4, 5]
        assert all(all(dead) for dead in starts), starts
        assert all(r() is None for r in refs)

    def test_replication_keeps_no_earlier_log(self, monkeypatch):
        sc = default_scenario()
        refs, starts, sizes = self._watch(monkeypatch)
        run_des_replicated(
            sc.des, seed=sc.seed, horizon=30.0, replications=3, log_sink=lambda k: _Log()
        )
        assert len(sizes) == 3 and all(sizes)
        assert [len(s) for s in starts] == [0, 1, 2]
        assert all(all(dead) for dead in starts), starts
        assert all(r() is None for r in refs)


class TestStreamedLog:
    """A sink's log streams to its file in batches at day boundaries."""

    def test_streamed_and_held_logs_write_the_same_bytes(self, tmp_path):
        sc = default_scenario()
        sink = des_log_sink(tmp_path, 1)
        _, streamed = run_des(sc.des, seed=sc.seed, horizon=1000.0, collect_log=sink(0))
        _, held = run_des(sc.des, seed=sc.seed, horizon=1000.0)
        write_event_log_ndjson(held, tmp_path / "held.ndjson")
        text = sink.paths[0].read_bytes()
        assert text == (tmp_path / "held.ndjson").read_bytes()
        # len counts every record the run made, flushed ones too
        assert len(streamed) == len(held) == text.count(b"\n") > 2 * LOG_BATCH

    def test_iterating_a_streamed_log_raises(self):
        sc = default_scenario()
        _, log = run_des(sc.des, seed=sc.seed, horizon=30.0, collect_log=EventLog(lambda b: None))
        assert len(log) > 0
        with pytest.raises(TypeError, match="streamed"):
            list(log)

    def test_a_run_holds_at_most_a_batch_and_a_day(self):
        # each batch the writer gets is all the run held when it flushed
        sc = default_scenario()
        batches = []
        _, log = run_des(
            sc.des, seed=sc.seed, horizon=1000.0, collect_log=EventLog(lambda b: batches.append(list(b)))
        )
        per_day = Counter(int(rec[0]) for batch in batches for rec in batch)
        assert len(batches) > 2 and sum(map(len, batches)) == len(log)
        assert max(map(len, batches)) < LOG_BATCH + max(per_day.values())

    def test_a_run_that_raises_mid_stream_leaves_no_file_open(self, tmp_path, monkeypatch):
        sc = default_scenario()
        sink = des_log_sink(tmp_path, 1)
        opened = []

        def path_open(path, *args, real=Path.open, **kwargs):
            f = real(path, *args, **kwargs)
            opened.append(f)
            return f

        def sample_days(engine, t, real=DesEngine._sample_days):
            real(engine, t)
            if sink.paths:
                raise StructuralError("injected after the first batch")

        monkeypatch.setattr(Path, "open", path_open)
        monkeypatch.setattr(DesEngine, "_sample_days", sample_days)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StructuralError, match="injected"):
                run_des_replicated(sc.des, seed=sc.seed, horizon=400.0, log_sink=sink)
            assert len(opened) == 1 and opened[0].closed
            del opened[:]
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        # the partial log: the first batch, whole lines only
        text = (tmp_path / "eventlog.ndjson").read_text()
        assert sink.paths == [tmp_path / "eventlog.ndjson"]
        assert text.endswith("\n") and text.count("\n") >= LOG_BATCH


class TestHeldMemory:
    """What a held event log and a flow-model trajectory cost, by tracemalloc.

    A log keeps five list slots per record and the values they name (about
    68 bytes a record over 1000 default days; 109 with a tuple per record).
    A trajectory keeps its 18 values and its time per step in ``array('d')``
    columns, 8 bytes each (about 153 bytes a step held and 305 while the
    columns are cut; 176 and 329 with a list of float times, 680 and 844
    with a row tuple per step and list columns).
    """

    def test_event_log_bytes_per_record(self, tmp_path):
        sc = default_scenario()
        # perfbench's des.log.records reads len: it counts the records a
        # reader iterates and the lines the writer writes
        _, log = run_des(sc.des, seed=sc.seed, horizon=sc.horizon)
        write_event_log_ndjson(log, tmp_path / "log.ndjson")
        lines = (tmp_path / "log.ndjson").read_text().count("\n")
        assert len(log) == sum(1 for _ in log) == lines > 1000
        tracemalloc.start()
        try:
            _, log = run_des(sc.des, seed=sc.seed, horizon=1000.0)
            n = len(log)
            before = tracemalloc.get_traced_memory()[0]
            del log
            held = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / n < 85, f"{held / n:.1f} bytes a record"

    def test_trajectory_bytes_per_step(self):
        sc = default_scenario()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = run_sd(sc.sd_initial, sc.sd_params, 1000.0, 0.25)
            held, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        n = len(traj)
        assert n == 4001
        assert held / n < 160, f"{held / n:.1f} bytes a step held"
        assert peak / n < 400, f"{peak / n:.1f} bytes a step at the peak"


# finite non-negative times: any size, exact half-way cases at 6 decimals
# (odd multiples of 1/128 end in ...5 at the 7th decimal), and values whose
# rounding renders in exponent form
_event_times = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**7).map(lambda a: a / 128),
    st.sampled_from([0.0, 1e-05, 5e-07, 1.5e-06, 2.5e-06, 9.9999995e-05, 1e16]),
)
# times at the edges of the writer's fixed-point rendering, 1e-4 <= t < 1e9:
# just below and at each bound, zero of either sign, and 1e16
_edge_times = st.sampled_from(
    [
        0.0,
        -0.0,
        math.nextafter(1e-4, 0.0),
        9.9999995e-05,
        1e-4,
        math.nextafter(1e-4, 1.0),
        999999999.9999995,
        math.nextafter(1e9, 0.0),
        1e9,
        math.nextafter(1e9, 2e9),
        1e9 + 0.0078125,
        123456789012.345678,
        1e16,
    ]
)
_log_times = st.one_of(
    _event_times,
    _edge_times,
    # half-way cases up to the upper bound
    st.integers(min_value=0, max_value=128 * 10**9).map(lambda a: a / 128),
)
# a dead letter's detail is a user-supplied skill type, so details are any text
_details = st.one_of(
    st.text(),
    st.sampled_from(["", '"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "café ☃ 😀"]),
)


class TestEventLogWriters:
    @given(
        t=_event_times,
        kind=st.one_of(st.sampled_from(["arrival", "start", "complete"]), st.text()),
        item_id=st.integers(min_value=0, max_value=2**40),
        eng_id=st.one_of(st.just(-1), st.integers(min_value=-1, max_value=2**20)),
        detail=_details,
    )
    @example(t=0.0, kind="arrival", item_id=0, eng_id=-1, detail="")
    @example(t=1e-05, kind="start", item_id=1, eng_id=0, detail='say "hi"\\')
    @example(t=5e-07, kind="dead_letter", item_id=2, eng_id=-1, detail="ünïcode\x01")
    @example(t=3 / 128, kind="complete", item_id=3, eng_id=7, detail="x")
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ndjson_line_equals_json_dumps(self, t, kind, item_id, eng_id, detail, tmp_path):
        # a one-record log
        path = tmp_path / "e.ndjson"
        write_event_log_ndjson([(t, kind, item_id, eng_id, detail)], path)
        expected = json.dumps(
            {
                "time": float(f"{t:.6f}"),
                "event_kind": kind,
                "item_id": item_id,
                "engineer_id": eng_id,
                "detail": detail,
            },
            sort_keys=True,
        )
        assert path.read_bytes() == (expected + "\n").encode()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        runs=st.lists(
            st.tuples(
                _log_times,
                st.lists(
                    st.tuples(
                        st.one_of(st.sampled_from(["arrival", "start", "complete"]), st.text()),
                        st.integers(min_value=0, max_value=2**40),
                        st.integers(min_value=-1, max_value=2**20),
                        _details,
                    ),
                    min_size=1,
                    max_size=4,
                ),
            ),
            max_size=12,
        )
    )
    # equal times that render differently: a run's text must not be reused
    @example(runs=[(0.0, [("arrival", 0, -1, "")]), (-0.0, [("start", 0, 0, "")])])
    def test_every_written_line_equals_json_dumps(self, runs, tmp_path):
        # runs of records at one time, as the engine logs several events per instant
        log = [(t, *rest) for t, recs in runs for rest in recs]
        path = tmp_path / "e.ndjson"
        write_event_log_ndjson(log, path)
        expected = "".join(
            json.dumps(
                {
                    "time": round(t, 6),
                    "event_kind": kind,
                    "item_id": item_id,
                    "engineer_id": eng_id,
                    "detail": detail,
                },
                sort_keys=True,
            )
            + "\n"
            for t, kind, item_id, eng_id, detail in log
        )
        assert path.read_bytes() == expected.encode()

    def test_empty_logs_and_rows(self, tmp_path):
        write_event_log_ndjson([], tmp_path / "e.ndjson")
        assert (tmp_path / "e.ndjson").read_bytes() == b""
        write_csv(tmp_path / "r.csv", ("a", "b"), [])
        assert (tmp_path / "r.csv").read_text() == "a,b\n"


class TestScenarioIO:
    def test_default_scenario_validates(self):
        default_scenario().validate()

    def test_save_load_round_trip(self, tmp_path):
        p = tmp_path / "sc.yaml"
        sc = default_scenario()
        save_scenario(sc, p)
        assert load_scenario(p) == sc

    def test_every_field_round_trips(self, tmp_path):
        base = default_scenario()
        des = dataclasses.replace(
            base.des,
            engineers=[
                Engineer(7, SkillSpec("data", 1), Affinity.PROJECT_PRIMARY, capacity_factor=0.75),
                Engineer(9, SkillSpec("core", 2), Affinity.OPERATIONAL_PRIMARY, 0.5),
            ],
            generators=[
                GeneratorConfig(
                    WorkType.INCIDENT, 0.75, (0.2, 0.3, 0.5), (1.0, 2.0, 3.0),
                    ((SkillSpec("data", 1), 0.25), (SkillSpec("core", 2), 0.75)),
                )
            ],
            base_error_prob=0.1,
            skill_gap_error_boost=1.5,
            p_stop_skill=0.2,
            switch_penalty_hours=0.25,
            rework_priority_mix=(0.5, 0.25, 0.25),
            rework_service_mean_hours=3.0,
            interrupt_base_rate=0.125,
            hours_per_day=7.5,
            skill_types=None,
        )
        sd_params = SdParams(
            **{f.name: getattr(base.sd_params, f.name) * 1.5 + 0.125 for f in fields(SdParams)}
        )
        sd_initial = SdState(*(i + 1.0 for i in range(len(fields(SdState)))))
        sc = Scenario(des, sd_params, sd_initial, 30.0, 3, 2**40 + 1, 0.5, 2, 0.01, "changed")
        for new, old in ((sc, base), (des, base.des), (sd_params, base.sd_params),
                         (sd_initial, base.sd_initial)):
            assert all(getattr(new, f.name) != getattr(old, f.name) for f in fields(new))
        p = tmp_path / "sc.yaml"
        save_scenario(sc, p)
        assert load_scenario(p) == sc

    @pytest.mark.parametrize("record, section, attr", [
        ("DesConfig", "des", "des"), ("SdParams", "sd", "sd_params"),
    ])
    def test_a_new_float_field_round_trips(self, tmp_path, monkeypatch, record, section, attr):
        # reading and writing follow the declared fields, so a field added to
        # the record reaches the file and comes back with no edit to the io code
        cls = getattr(teamsim.io.scenario, record)
        extended = dataclasses.make_dataclass(
            f"Extended{record}", [("new_knob", float, dataclasses.field(default=0.5))],
            bases=(cls,), frozen=cls.__dataclass_params__.frozen,
        )
        monkeypatch.setattr(teamsim.io.scenario, record, extended)
        sc = default_scenario()
        sc = dataclasses.replace(sc, **{attr: dataclasses.replace(getattr(sc, attr), new_knob=0.75)})
        p = tmp_path / "sc.yaml"
        save_scenario(sc, p)
        assert yaml.safe_load(p.read_text())[section]["new_knob"] == 0.75
        back = load_scenario(p)
        assert back == sc and getattr(back, attr).new_knob == 0.75

    def test_env_overrides_scalar_and_nested(self, tmp_path):
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        env = {
            "TEAMSIM_SEED": "7",
            "TEAMSIM_SD__S_BASE": "0.1",
            "TEAMSIM_GENERATORS__0__DAILY_RATE": "2.5",
            "IGNORED": "1",
        }
        sc = load_scenario(p, env=env)
        assert sc.seed == 7
        assert sc.sd_params.s_base == pytest.approx(0.1)
        assert sc.des.generators[0].daily_rate == pytest.approx(2.5)

    @pytest.mark.parametrize("value", ["a: [1", "7\udcff"])
    def test_env_override_unparsable_value_rejected(self, value):
        # "\udcff" is what os.environ makes of the undecodable byte 0xff
        with pytest.raises(ConfigurationError, match="TEAMSIM_SEED: cannot parse value"):
            apply_env_overrides({}, {"TEAMSIM_SEED": value})

    def test_env_override_bad_index_rejected(self):
        doc = {"generators": [{"daily_rate": 1.0}]}
        with pytest.raises(ConfigurationError):
            apply_env_overrides(doc, {"TEAMSIM_GENERATORS__9__DAILY_RATE": "2.0"})

    @pytest.mark.parametrize(
        "var",
        [
            "TEAMSIM___SEED",
            "TEAMSIM_ENGINEERS__\u00b2__ID",
            "TEAMSIM_ENGINEERS__4__ID",
            "TEAMSIM_SEED__X",
            "TEAMSIM_SEED__X__Y",
        ],
    )
    def test_env_override_bad_path_rejected(self, var):
        # an empty segment, a list index that is not ASCII decimal digits
        # naming an item (a superscript two is a digit to str.isdigit), or
        # a segment past a scalar
        doc = scenario_to_dict(default_scenario())
        with pytest.raises(ConfigurationError, match=f"^{re.escape(var)}: bad override path$"):
            apply_env_overrides(doc, {var: "9"})

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        doc = yaml.safe_load(p.read_text())
        doc["turbo"] = True
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigurationError, match="turbo"):
            load_scenario(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.yaml")

    def test_invalid_mix_rejected_on_load(self, tmp_path):
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        doc = yaml.safe_load(p.read_text())
        doc["generators"][0]["priority_mix"] = [0.9, 0.9, 0.9]
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigurationError):
            load_scenario(p)

    def test_sd_arrivals_default_to_generator_rates(self, tmp_path):
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        doc = yaml.safe_load(p.read_text())
        del doc["sd"]["project_arrivals"]
        del doc["sd"]["ops_arrivals"]
        p.write_text(yaml.safe_dump(doc))
        sc = load_scenario(p)
        assert sc.sd_params.project_arrivals == pytest.approx(1.6)
        assert sc.sd_params.ops_arrivals == pytest.approx(4.0)
