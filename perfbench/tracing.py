"""Outside-in tracing of one teamsim process.

``Tracer.install`` replaces the package's public functions and methods by
timing wrappers, at every place where the name is looked up (a function
imported into ``teamsim.cli`` or ``teamsim.hybrid`` is patched there too).
Nothing under ``src/`` is edited.

* Coarse calls get one span each: name, start, end, parent id, and the id
  of the CLI call (trace id) they belong to.
* Hot leaf methods are not spans.  Each is kept as a call count plus total
  time under the span that was open when it ran.
* A span's self time is its duration minus what its child spans and its
  leaf calls cover.

Spans stay in memory until ``dump`` writes them out.  Times measured here
include the wrappers' own cost, so compare traced times only with traced
times; ``trace.overhead_ratio`` states that cost against an untraced run.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span name)
_SPANS = (
    ("teamsim.cli", "main", "cli.main"),
    ("teamsim.io.scenario", "load_scenario", "io.scenario.load"),
    ("teamsim.des", "run_des_replicated", "des.replicated"),
    ("teamsim.des", "run_des", "des.run"),
    ("teamsim.des", "merge_stats", "des.merge"),
    ("teamsim.hybrid", "run_hybrid", "hybrid.run"),
    ("teamsim.sd", "run_sd", "sd.run"),
    ("teamsim.io.report", "emit_des_report", "io.report.emit"),
    ("teamsim.io.report", "emit_sd_report", "io.report.emit"),
    ("teamsim.io.report", "emit_hybrid_report", "io.report.emit"),
    ("teamsim.io.report", "emit_fit_report", "io.report.emit"),
)
_SPAN_METHODS = (("teamsim.des", "DesStats", "to_flat_dict", "des.summary"),)

# (module, class, method, leaf name)
_LEAVES = (
    ("teamsim.domain", "WorkQueue", "push", "domain.queue.push"),
    ("teamsim.domain", "WorkQueue", "pop_best", "domain.queue.pop_best"),
    ("teamsim.domain", "WorkQueue", "peek", "domain.queue.peek"),
    ("teamsim.domain", "WorkQueue", "remove", "domain.queue.remove"),
    ("teamsim.des", "EventCalendar", "push", "des.calendar.push"),
    ("teamsim.des", "EventCalendar", "pop", "des.calendar.pop"),
    ("teamsim.des", "DesStats", "note_arrival", "des.stats.note"),
    ("teamsim.des", "DesStats", "note_completion", "des.stats.note"),
)

# per-layer metrics that are counts: two traced runs at one seed must agree on them
COUNT_METRICS = (
    "domain.queue.push.calls",
    "domain.queue.pop_best.calls",
    "domain.queue.peek.calls",
    "domain.queue.remove.calls",
    "domain.queue.pop_hit_ratio",
    "domain.queue.peak_len",
    "des.run.calls",
    "des.calendar.push.calls",
    "des.calendar.pop.calls",
    "des.calendar.peak_len",
    "des.calendar.useful_ratio",
    "des.stats.note.calls",
    "des.merge.calls",
    "des.log.records",
    "sd.run.calls",
    "sd.steps",
    "sd.clamp_events",
    "hybrid.cycles",
    "io.report.bytes",
    "io.report.files",
)


class _Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "covered", "leaves")

    def __init__(self, id: int, parent: int | None, trace: str, name: str) -> None:
        self.id = id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = perf_counter()
        self.end = 0.0
        self.covered = 0.0  # time covered by child spans and leaf calls
        self.leaves: dict[str, list] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id  # shared by every span of this process's one CLI call
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self.leaf_totals: dict[str, list] = {}
        # outcome counters read off arguments and return values
        self.pop_hits = 0
        self.queue_peak = 0
        self.calendar_peak = 0
        self.useful_events = 0
        self.log_records = 0
        self.sd_steps = 0
        self.clamp_events = 0
        self.cycles = 0
        self.report_bytes = 0
        self.report_files = 0

    # -- spans ----------------------------------------------------------------
    def _open(self, name: str) -> _Span:
        parent = self._stack[-1].id if self._stack else None
        span = _Span(len(self.spans), parent, self.trace_id, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].covered += span.end - span.start

    def _span_wrapper(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name: str, after=None):
        total = self.leaf_totals.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            total[0] += 1
            total[1] += dt
            if stack:
                top = stack[-1]
                top.covered += dt
                slot = top.leaves.get(name)
                if slot is None:
                    top.leaves[name] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- outcome hooks ----------------------------------------------------------
    def _after_queue_push(self, _result, args) -> None:
        n = len(args[0])
        if n > self.queue_peak:
            self.queue_peak = n

    def _after_pop_best(self, result, _args) -> None:
        if result is not None:
            self.pop_hits += 1

    def _after_calendar_push(self, _result, args) -> None:
        n = len(args[0])
        if n > self.calendar_peak:
            self.calendar_peak = n

    def _after_run_des(self, result) -> None:
        stats, log = result
        # calendar events that did work: generator arrivals (every arrival but
        # rework; the CLI passes no initial items), completions, and the skill
        # and interrupt stops that end a service segment
        self.useful_events += (
            stats.arrived_total - stats.rework_count
            + stats.completed_total + stats.stop_skill + stats.stop_interrupt
        )
        self.log_records += len(log)

    def _after_run_sd(self, traj) -> None:
        self.sd_steps += len(traj) - 1
        self.clamp_events += traj.clamp_events

    def _after_run_hybrid(self, report) -> None:
        self.cycles += report.n_cycles

    def _after_emit(self, paths) -> None:
        self.report_files += len(paths)
        self.report_bytes += sum(Path(p).stat().st_size for p in paths)

    # -- installation -----------------------------------------------------------
    def install(self) -> None:
        """Patch the imported ``teamsim`` package; call once per process."""
        after = {
            "des.run": self._after_run_des,
            "sd.run": self._after_run_sd,
            "hybrid.run": self._after_run_hybrid,
            "io.report.emit": self._after_emit,
        }
        for mod_name, attr, name in _SPANS:
            fn = getattr(sys.modules[mod_name], attr)
            _patch_everywhere(fn, self._span_wrapper(fn, name, after.get(name)))
        for mod_name, cls_name, attr, name in _SPAN_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self._span_wrapper(getattr(cls, attr), name))
        leaf_after = {
            "domain.queue.push": self._after_queue_push,
            "domain.queue.pop_best": self._after_pop_best,
            "des.calendar.push": self._after_calendar_push,
        }
        for mod_name, cls_name, attr, name in _LEAVES:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self._leaf_wrapper(getattr(cls, attr), name, leaf_after.get(name)))

    # -- results ------------------------------------------------------------------
    def _sum(self, name: str, field: str = "dur") -> float:
        total = 0.0
        for s in self.spans:
            if s.name == name:
                total += s.self_s if field == "self" else s.end - s.start
        return total

    def _count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything traced so far (no units)."""
        calls = {k: v[0] for k, v in self.leaf_totals.items()}
        secs = {k: v[1] for k, v in self.leaf_totals.items()}
        queue_ops = ("push", "pop_best", "peek", "remove")
        des_run_s = self._sum("des.run")
        sd_run_s = self._sum("sd.run")
        emit_s = self._sum("io.report.emit")
        pops = calls["des.calendar.pop"]
        m = {f"domain.queue.{op}.calls": calls[f"domain.queue.{op}"] for op in queue_ops}
        m.update({
            "domain.queue.s": sum(secs[f"domain.queue.{op}"] for op in queue_ops),
            "domain.queue.pop_hit_ratio": _ratio(self.pop_hits, calls["domain.queue.pop_best"]),
            "domain.queue.peak_len": self.queue_peak,
            "des.run.calls": self._count("des.run"),
            "des.run.s": des_run_s,
            "des.run.self_s": self._sum("des.run", "self"),
            "des.calendar.push.calls": calls["des.calendar.push"],
            "des.calendar.pop.calls": pops,
            "des.calendar.s": secs["des.calendar.push"] + secs["des.calendar.pop"],
            "des.calendar.peak_len": self.calendar_peak,
            "des.calendar.useful_ratio": _ratio(self.useful_events, pops),
            "des.stats.note.calls": calls["des.stats.note"],
            "des.stats.note.s": secs["des.stats.note"],
            "des.merge.calls": self._count("des.merge"),
            "des.merge.s": self._sum("des.merge"),
            "des.summary.s": self._sum("des.summary"),
            "des.events_per_s": _ratio(pops, des_run_s),
            "des.log.records": self.log_records,
            "sd.run.calls": self._count("sd.run"),
            "sd.run.s": sd_run_s,
            "sd.steps": self.sd_steps,
            "sd.step_us": _ratio(sd_run_s * 1e6, self.sd_steps),
            "sd.clamp_events": self.clamp_events,
            "hybrid.cycles": self.cycles,
            "hybrid.run.s": self._sum("hybrid.run"),
            "hybrid.self_s": self._sum("hybrid.run", "self"),
            "io.scenario.load.s": self._sum("io.scenario.load"),
            "io.report.emit.s": emit_s,
            "io.report.bytes": self.report_bytes,
            "io.report.files": self.report_files,
            "io.report.mb_per_s": _ratio(self.report_bytes / 1e6, emit_s),
            "cli.self_s": self._sum("cli.main", "self"),
        })
        return m

    def dump(self, path: Path) -> None:
        """Write every span, with its leaf aggregates, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {
                "id": s.id,
                "parent": s.parent,
                "trace": s.trace,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "leaves": {k: {"calls": c, "s": t} for k, (c, t) in s.leaves.items()},
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": spans}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _patch_everywhere(original, wrapper) -> None:
    """Rebind ``original`` in every loaded teamsim module that holds it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "teamsim" or name.startswith("teamsim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
