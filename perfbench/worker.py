"""One benchmark sample in a fresh process.

Times the set-up (importing ``teamsim`` and loading the scenario file),
then makes the workload's CLI call in-process, checks its output, and
prints one JSON line with the figures.  With ``--trace FILE`` the call is
traced and the spans are written to FILE.

    python3 perfbench/worker.py --workload mmc-long \\
        --scenario S.yaml --out DIR [--trace FILE] [--setup-only]

Only the standard library is imported before set-up timing starts.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scenario", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))

    t_setup = perf_counter()
    import teamsim.cli
    from teamsim.io.scenario import load_scenario

    load_scenario(args.scenario)
    setup_s = perf_counter() - t_setup
    if not Path(teamsim.__file__).resolve().is_relative_to(src):
        print(f"teamsim imported from {teamsim.__file__}, not {src}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from workloads import WORKLOADS, check_output

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.trace.stem)
        tracer.install()
    argv = workload.argv(args.scenario, args.out)
    buf = io.StringIO()
    t_call = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = teamsim.cli.main(argv)
    result["wall_s"] = perf_counter() - t_call
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(check_output(workload.name, rc, buf.getvalue(), args.out))
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
