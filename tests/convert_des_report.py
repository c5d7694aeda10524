#!/usr/bin/env python3
"""Rewrite a ``teamsim des --out`` directory of the old report schema into the current one.

The old schema wrote ``queue_lengths.csv`` with a second column,
``team_queue``, that was always 0, and wrote each event log as CSV
(``eventlog.csv`` for one replication, else ``eventlog_rep{k}.csv``) under
the header ``time,event_kind,item_id,engineer_id,detail``, header included
for an empty log.  The current schema drops the column and writes each log
as NDJSON (``eventlog.ndjson`` / ``eventlog_rep{k}.ndjson``) with the keys
of ``teamsim hybrid``'s logs, and writes no file for an empty log.  Every
other file is copied unchanged.

    PYTHONPATH=src python tests/convert_des_report.py OLD_DIR NEW_DIR

Each CSV line becomes the NDJSON line the current writer gives the same
record: the CSV time has six decimals, and on CPython
``repr(round(t, 6)) == repr(float(f"{t:.6f}"))``.  The detail is the last
field, so a detail holding a comma survives; one holding a newline (a
dead-lettered skill type can be any text) cannot be recovered from the CSV.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

from teamsim.io.report import format_event_ndjson

OLD_LOG_HEADER = "time,event_kind,item_id,engineer_id,detail"


def _lines(path: Path) -> list[str]:
    # split on "\n" alone: details may hold other line-break characters
    return path.read_text().split("\n")[:-1]


def _event_line(csv_line: str) -> str:
    t, kind, item_id, eng_id, detail = csv_line.split(",", 4)
    return format_event_ndjson((float(t), kind, int(item_id), int(eng_id), detail))


def convert(old_dir: Path, new_dir: Path) -> list[Path]:
    """Write ``old_dir``'s report into ``new_dir`` in the current schema; returns the files written."""
    new_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for src in sorted(Path(old_dir).iterdir()):
        if src.name == "queue_lengths.csv":
            dst = new_dir / src.name
            with dst.open("w") as f:
                for line in _lines(src):
                    day, _team, rest = line.split(",", 2)
                    f.write(f"{day},{rest}\n")
        elif src.name.startswith("eventlog") and src.suffix == ".csv":
            header, *events = _lines(src)
            if header != OLD_LOG_HEADER:
                raise ValueError(f"{src}: not an old-schema event log")
            if not events:
                continue
            dst = new_dir / (src.stem + ".ndjson")
            with dst.open("w") as f:
                f.writelines(_event_line(line) + "\n" for line in events)
        else:
            dst = new_dir / src.name
            shutil.copyfile(src, dst)
        written.append(dst)
    return written


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: convert_des_report.py OLD_DIR NEW_DIR")
    for p in convert(Path(sys.argv[1]), Path(sys.argv[2])):
        print(p)
