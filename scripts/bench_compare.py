#!/usr/bin/env python3
"""Compare a BENCH_*.json result file against its checked-in baseline.

Every result file (written by src/harness/BenchJson) declares each field
once, next to its rows:

  exact  a simulated result. It must be bit-identical in both directions:
         any change, or a missing exact field or row, fails (exit 1).
  host   wall clock, RSS, MIPS. Shown, and warned on when it moves by more
         than 25%; never fails.

The gate comes from the declarations of both files: the baseline's, so a
current file cannot un-gate a field by dropping or re-declaring it, united
with the current file's. A field declared exact in one file and host in the
other fails. Unreadable or malformed input exits 2.

Usage:
  bench_compare.py BASELINE.json CURRENT.json
"""

import json
import sys

HOST_WARN = 0.25


def load(path):
    with open(path) as f:
        data = json.load(f)
    try:
        exact, host, rows = set(data["exact"]), set(data["host"]), data["rows"]
    except (TypeError, KeyError) as e:
        raise ValueError(f"{path}: not a declared-field result file ({e})")
    if exact & host:
        raise ValueError(f"{path}: declared both exact and host: "
                         f"{sorted(exact & host)}")
    by_config = {}
    for row in rows:
        name = row.get("config")
        undeclared = set(row) - exact - host - {"config"}
        if name is None or name in by_config or undeclared:
            raise ValueError(f"{path}: bad row {row} (missing or repeated "
                             f"config, or undeclared {sorted(undeclared)})")
        by_config[name] = row
    return exact, host, by_config


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base_exact, base_host, base = load(argv[1])
        cur_exact, cur_host, cur = load(argv[2])
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    exact = base_exact | cur_exact
    host = (base_host | cur_host) - exact
    failures = [f"{k}: declared exact in one file and host in the other"
                for k in sorted((base_exact & cur_host) |
                                (cur_exact & base_host))]
    warnings = []
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            failures.append(f"{name}: row missing from {argv[2]}")
            continue
        fails = []
        for k in sorted(exact):
            if k not in b or k not in c:
                fails.append(f"{name}: exact field {k} missing")
            elif b[k] != c[k]:
                fails.append(f"{name}: {k} {b[k]} -> {c[k]} (exact)")
        failures += fails
        shown = []
        for k in sorted(host & set(b) & set(c)):
            delta = (c[k] - b[k]) / b[k] if b[k] else 0.0
            shown.append(f"{k} {b[k]} -> {c[k]} ({delta:+.1%})")
            if abs(delta) > HOST_WARN:
                warnings.append(f"{name}: {k} moved {delta:+.1%}")
        status = f"{len(fails)} exact CHANGED" if fails else "exact ok"
        print(f"{name:<20} {status:<16} {'  '.join(shown)}")
    for name in cur.keys() - base.keys():
        print(f"{name:<20} new row, not in the baseline")

    for w in warnings:
        print(f"warning (host, not gated): {w}")
    for f in failures:
        print(f"FAIL: {f}")
    print(f"{len(failures)} exact failure(s), {len(exact)} exact field(s) "
          f"gated over {len(base)} row(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
