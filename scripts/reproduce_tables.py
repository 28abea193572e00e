#!/usr/bin/env python3
"""Regenerate both reference tables as CSV side-by-side reports.

Writes table1.csv and table2.csv into --outdir (default ./out) and exits
nonzero if any computed entry misses its tolerance.  This is a thin driver
over the `coulomb2e tables` subcommand so the numbers agree with the CLI
byte for byte.
"""

import argparse
import contextlib
import io
import pathlib
import sys

from coulomb2e import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for table in (1, 2):
        dest = outdir / f"table{table}.csv"
        with contextlib.redirect_stdout(io.StringIO()):   # the CSV is in dest
            code = cli.main(["tables", "--table", str(table),
                             "--seed", str(args.seed), "--format", "csv",
                             "--out", str(dest)])
        print(f"table {table} -> {dest}  (exit {code})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
