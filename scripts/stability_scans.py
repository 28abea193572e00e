#!/usr/bin/env python3
"""Run the full set of stability scans and drop one CSV per scan.

Covers the frozen-range curve, the (a,b) energy surface, the three critical
charges, the finite- and asymmetric-mass three-body scans, and both four-body
symmetry-breaking directions.  The four-body scans are the slow part
(about 4 s on a 2-core Xeon, nearly all of it the cc-break scan); pass
--skip-four-body to leave them out.
"""

import argparse
import contextlib
import io
import pathlib
import sys
import time

from coulomb2e import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-four-body", action="store_true")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("frozen.csv", ["scan", "frozen", "--z", "1"]),
        ("contour.csv", ["scan", "contour", "--z", "1", "--grid", "41"]),
        ("charge_perturbative.csv", ["scan", "charge", "--basis", "perturbative"]),
        ("charge_effective.csv", ["scan", "charge", "--basis", "effective"]),
        ("charge_two_range.csv", ["scan", "charge", "--basis", "chandrasekhar"]),
        ("mass3.csv", ["scan", "mass3", "--ratios", "1,2,10,100,1836"]),
        ("asym3.csv", ["scan", "asym3", "--ratios", "1,1.1,1.25,1.5,2"]),
    ]
    if not args.skip_four_body:
        jobs += [
            ("mass4_cc.csv", ["scan", "mass4", "--mode", "cc-break",
                              "--ratios", "1,2,10,100"]),
            ("mass4_identity.csv", ["scan", "mass4", "--mode", "identity-break",
                                    "--ratios", "1,1.5,2,2.2,3"]),
        ]

    worst = 0
    for name, argv in jobs:
        dest = outdir / name
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):   # the CSV is in dest
            code = cli.main(argv + ["--seed", str(args.seed), "--format", "csv",
                                    "--out", str(dest)])
        print(f"{name:28s} exit {code}  {time.perf_counter() - t0:6.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
