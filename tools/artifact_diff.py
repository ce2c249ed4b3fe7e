#!/usr/bin/env python3
"""Compare two splatcone CLI output directories outside their wall-clock data.

    python3 tools/artifact_diff.py A B

The directories must hold the same file names. A `.json` file must be equal
after its top-level `timing` block is dropped, `record.csv` equal without its
`solve_time` column, and every other file equal byte for byte. Each file
that differs is printed, and the exit status is 1 if any differs, else 0.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _content(path: Path):
    """The part of the file that must not change between runs."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        if isinstance(data, dict):
            data.pop("timing", None)
        return json.dumps(data, sort_keys=True)  # NaN compares equal as text
    if path.name == "record.csv":
        rows = [line.split(",") for line in path.read_text().splitlines()]
        if rows and "solve_time" in rows[0]:
            col = rows[0].index("solve_time")
            rows = [row[:col] + row[col + 1:] for row in rows]
        return rows
    return path.read_bytes()


def differing(a: Path, b: Path) -> list[str]:
    """One line per file that is only in one directory or differs."""
    names = [{p.relative_to(d) for p in d.rglob("*") if p.is_file()} for d in (a, b)]
    lines = [f"{name}: only in {d}" for d, only in ((a, names[0] - names[1]),
                                                     (b, names[1] - names[0]))
             for name in sorted(only)]
    lines += [f"{name}: differs" for name in sorted(names[0] & names[1])
              if _content(a / name) != _content(b / name)]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            ap.error(f"not a directory: {d}")
    lines = differing(args.a, args.b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
