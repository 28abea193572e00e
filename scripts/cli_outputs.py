#!/usr/bin/env python3
"""Run a fixed list of coulomb2e commands and drop one stdout file per command.

Each command runs in a fresh `python -m coulomb2e.cli` interpreter, so no
cache carries over from one to the next, and its stdout is written without
the `# wall_time_s=` lines, so two runs of the same code give the same
files.  Diffing the output directories of two source trees (run once with
PYTHONPATH set to each tree's src) shows every printed digit a change moves.
Exits nonzero if any command does.
"""

import argparse
import pathlib
import re
import subprocess
import sys
import time

COMMANDS = [
    ["tables", "--table", "1"],
    ["tables", "--table", "2", "--rows", "c=0"],
    ["scan", "charge", "--basis", "chandrasekhar"],
    ["ion", "--sector", "unnatural", "--terms", "3"],
    ["ion", "--sector", "unnatural", "--mass-ratio", "1", "--terms", "2"],
    ["ion", "--terms", "2"],
    ["ion", "--z", "2", "--spin", "triplet", "--terms", "2"],
    ["scan", "mass3"],
    ["scan", "asym3"],
    ["molecule", "--mode", "identity-break"],
    ["molecule", "--mode", "identity-break", "--ratio", "2"],
    ["molecule", "--mode", "cc-break", "--ratio", "2"],
    ["molecule", "--mode", "cc-break", "--ratio", "1"],
    ["molecule", "--mode", "ps2"],
    ["scan", "mass4"],
    ["scan", "mass4", "--mode", "identity-break"],
    ["molecule", "--mode", "cc-break", "--masses", "4,4,2,2"],
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = False
    for argv in COMMANDS:
        name = re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)) + ".out"
        t0 = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "coulomb2e.cli", *argv],
                             stdout=subprocess.PIPE, text=True)
        (outdir / name).write_text("".join(
            line for line in run.stdout.splitlines(keepends=True)
            if not line.startswith("# wall_time_s=")))
        print(f"{name:56s} exit {run.returncode}  {time.perf_counter() - t0:6.1f}s")
        failed |= run.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
