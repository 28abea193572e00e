#!/usr/bin/env python3
"""Run a fixed list of coulomb2e commands and drop one stdout file per command.

Each command runs in a fresh `python -m coulomb2e.cli` interpreter, so no
cache carries over from one to the next, and its stdout is written without
the `# wall_time_s=` lines, so two runs of the same code give the same
files.  Diffing the output directories of two source trees (run once with
PYTHONPATH set to each tree's src) shows every printed digit a change moves.
The list covers both reference tables in full, every stability scan (the
frozen curve, the (a, b) contour, the three critical charges, the mass and
asymmetry scans, both four-body symmetry-breaking directions) and the
single solves, `molecule --masses` on heavy and on light positives included;
no command prints only rows that another prints.  Exits
nonzero if any command does, a table row off its tolerance included.

`--compare OTHER_DIR` runs nothing: it compares the files of `--outdir`
with OTHER_DIR's and, for each command whose output differs, prints the
differing lines (OTHER_DIR's with -, `--outdir`'s with +) and the largest
relative change among the numbers of the paired lines.  Exits 0 when the
two directories hold the same outputs, 1 otherwise.
"""

import argparse
import difflib
import pathlib
import re
import subprocess
import sys
import time

COMMANDS = [
    ["tables", "--table", "1"],
    ["tables", "--table", "2"],
    ["ion", "--sector", "unnatural", "--terms", "3"],
    ["ion", "--sector", "unnatural", "--mass-ratio", "1", "--terms", "2"],
    ["ion", "--terms", "2"],
    ["ion", "--z", "2", "--spin", "triplet", "--terms", "2"],
    ["molecule", "--mode", "identity-break"],
    ["molecule", "--mode", "identity-break", "--ratio", "2"],
    ["molecule", "--mode", "cc-break", "--ratio", "2"],
    ["molecule", "--mode", "cc-break", "--ratio", "1"],
    ["molecule", "--mode", "ps2"],
    ["molecule", "--mode", "cc-break", "--masses", "4,4,2,2"],
    ["molecule", "--mode", "cc-break", "--masses", "2,2,4,4"],
    ["molecule", "--mode", "identity-break", "--masses", "1,3,1,3"],
    ["scan", "frozen", "--z", "1", "--format", "csv"],
    ["scan", "contour", "--z", "1", "--grid", "41", "--format", "csv"],
    ["scan", "charge", "--basis", "perturbative", "--format", "csv"],
    ["scan", "charge", "--basis", "effective", "--format", "csv"],
    ["scan", "charge", "--basis", "chandrasekhar", "--format", "csv"],
    ["scan", "mass3", "--ratios", "1,2,10,100,1836", "--format", "csv"],
    ["scan", "asym3", "--ratios", "1,1.1,1.25,1.5,2", "--format", "csv"],
    ["scan", "mass4", "--mode", "cc-break", "--ratios", "1,2,10,100",
     "--format", "csv"],
    ["scan", "mass4", "--mode", "identity-break"],
    ["scan", "mass4", "--mode", "identity-break", "--ratios", "1,1.5,2,2.2,3",
     "--format", "csv"],
]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _file_name(argv):
    return re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)) + ".out"


def _largest_change(old, new):
    """The largest |new - old| / |old| over the numbers of paired lines
    with the same count of numbers (inf where one of them is 0 alone)."""
    worst = 0.0
    for a, b in zip(old, new):
        xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
        if len(xs) == len(ys):
            for x, y in zip(map(float, xs), map(float, ys)):
                if x != y:
                    worst = max(worst, abs(y - x) / abs(x) if x else float("inf"))
    return worst


def compare(outdir, other):
    """Print each command's differing lines; True when every output matches."""
    same = True
    for argv in COMMANDS:
        name = _file_name(argv)
        old, new = (d / name for d in (other, outdir))
        if not (old.exists() and new.exists()):
            print(f"{name}: missing in {other if not old.exists() else outdir}")
            same = False
            continue
        a, b = old.read_text().splitlines(), new.read_text().splitlines()
        if a == b:
            continue
        same = False
        print(f"{name}:")
        worst = 0.0
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b).get_opcodes():
            if tag != "equal":
                print("".join(f"  - {line}\n" for line in a[i1:i2])
                      + "".join(f"  + {line}\n" for line in b[j1:j2]), end="")
                worst = max(worst, _largest_change(a[i1:i2], b[j1:j2]))
        print(f"  largest relative change: {worst:.3g}")
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--compare", metavar="OTHER_DIR",
                    help="compare --outdir with OTHER_DIR instead of running")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    if args.compare is not None:
        return 0 if compare(outdir, pathlib.Path(args.compare)) else 1
    outdir.mkdir(parents=True, exist_ok=True)
    failed = False
    for argv in COMMANDS:
        name = _file_name(argv)
        t0 = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "coulomb2e.cli", *argv],
                             stdout=subprocess.PIPE, text=True)
        (outdir / name).write_text("".join(
            line for line in run.stdout.splitlines(keepends=True)
            if not line.startswith("# wall_time_s=")))
        print(f"{name:68s} exit {run.returncode}  {time.perf_counter() - t0:6.1f}s")
        failed |= run.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
