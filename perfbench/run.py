"""teamsim benchmark: time the CLI commands people run, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, reference seed

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each sample is a fresh
process (``worker.py``) that makes one CLI call on a scenario file written
from ``--seed``.  Samples repeat until ``--seconds`` are used up, and every
figure is the median over them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from traced samples, alternated with untraced ones
to state the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  One
attempted operation is one CLI call plus the check of its output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import COUNT_METRICS
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
SETUP_PROBES = 7  # extra set-up-only processes per run; one cold start is discarded first
MAX_SECONDS = 170.0  # longest --seconds; set-up and the last sample then still end within 180 s


class _Run:
    """Spawns worker processes for one workload and tallies their outcomes."""

    def __init__(self, name: str, seed: int, tmp: Path, reference: dict | None,
                 seconds: float = MAX_SECONDS) -> None:
        self.name = name
        self.seconds = seconds
        self.tmp = tmp
        self.reference = reference  # output digests every sample must match, if given
        self.start = perf_counter()
        self.scenario = tmp / f"{name}.yaml"
        WORKLOADS[name].write_scenario(seed, self.scenario)
        self.first_digests = None
        self.first_counts = None
        self.attempted = 0
        self.failed = 0
        self.n = 0

    def _spawn(self, *extra: str) -> dict | None:
        out = self.tmp / f"out-{self.n}"
        self.n += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.name, "--scenario", str(self.scenario), "--out", str(out), *extra]
        # TEAMSIM_* variables would override the scenario file, so the worker gets none
        env = {k: v for k, v in os.environ.items() if not k.startswith("TEAMSIM_")}
        env["PYTHONHASHSEED"] = "0"
        budget = max(1.0, self.seconds + 8.0 - (perf_counter() - self.start))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"{self.name}: sample timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            print(f"{self.name}: worker failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_probe(self) -> float:
        res = self._spawn("--setup-only")
        if res is None:
            raise SystemExit(f"{self.name}: set-up failed; is this a teamsim source checkout?")
        return res["setup_s"]

    def sample(self, trace_file: Path | None = None) -> dict | None:
        """One CLI call; returns its figures, or None if the operation failed."""
        self.attempted += 1
        res = self._spawn(*(["--trace", str(trace_file)] if trace_file else []))
        problem = "worker failed" if res is None else res["error"]
        if problem is None:
            if self.first_digests is None:
                self.first_digests = res["digests"]
            if res["digests"] != self.first_digests:
                problem = "output differs between samples of one seed"
            elif self.reference is not None and res["digests"] != self.reference:
                problem = "output digests differ from the recorded reference"
        if problem is None and "layers" in res:
            counts = {k: res["layers"][k] for k in COUNT_METRICS}
            self.first_counts = self.first_counts or counts
            if counts != self.first_counts:
                problem = "layer counts differ between traced samples of one seed"
        if problem is not None:
            print(f"{self.name}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return res

    def time_left(self) -> float:
        return self.seconds - (perf_counter() - self.start)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple[_Run, dict]:
    """Run one workload for ``seconds``; returns the run tally and its metrics."""
    reference = None
    if seed == REFERENCE_SEED:
        reference = json.loads((HERE / "digests.json").read_text())[name]
    run = _Run(name, seed, tmp, reference, seconds)
    run.setup_probe()  # cold start: fills the bytecode cache
    if not trace:
        setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
        samples, cost = [], []
        while run.attempted < MIN_SAMPLES or run.time_left() > _median(cost):
            t0 = perf_counter()
            res = run.sample()
            cost.append(perf_counter() - t0)
            if res is not None:
                samples.append(res)
        setups += [s["setup_s"] for s in samples]
        return run, {
            "wall_s": _median([s["wall_s"] for s in samples]),
            "items_per_s": _median([s["items"] / s["wall_s"] for s in samples]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in samples]),
        }
    trace_dir = ROOT / ".perfbench" / "traces"
    plain, traced, cost = [], [], []
    while not cost or run.time_left() > _median(cost):
        t0 = perf_counter()
        a = run.sample()
        b = run.sample(trace_dir / f"{name}-seed{seed}-{len(cost)}.json")
        cost.append(perf_counter() - t0)
        plain += [a] if a else []
        traced += [b] if b else []
    # counts agree across traced samples (checked above), so take the first sample's
    layers = {
        k: v if k in COUNT_METRICS else _median([t["layers"][k] for t in traced])
        for k, v in (traced[0]["layers"] if traced else {}).items()
    }
    layers["trace.overhead_ratio"] = (
        _median([t["wall_s"] for t in traced]) / _median([p["wall_s"] for p in plain])
        if plain and traced else 0.0
    )
    print(f"{name}: spans of {len(traced)} traced call(s) written under {trace_dir}")
    return run, layers


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    if not (ROOT / "src" / "teamsim" / "cli.py").is_file():
        print(f"no teamsim sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            run, values = measure(name, args.seed, args.seconds, bool(args.trace), tmp)
            attempted += run.attempted
            failed += run.failed
            prefix = f"{name}." if args.workload == "all" else ""
            print(f"== {name} seed={args.seed} calls={run.attempted} failed={run.failed}")
            for m in declared:
                value = values.get(m["name"], 0.0)  # absent only if every sample failed
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"{name:>15} {m['name']:<28} {value:>14.6g} {m['unit']}")
            print(f"{name:>15} {'error_rate':<28} {run.failed / run.attempted:>14.6g} ratio")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
