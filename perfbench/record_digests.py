"""Record the reference output digests (digests.json) at the reference seed.

Run from the root of a source checkout, and only when a change to the
program's output is intended and explained:

    python3 perfbench/record_digests.py
"""
from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, _Run
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    tmp = ROOT / ".perfbench" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for name in WORKLOADS:
            run = _Run(name, REFERENCE_SEED, tmp, reference=None)
            res = run.sample()
            if res is None:
                return 1
            digests[name] = res["digests"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'digests.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
