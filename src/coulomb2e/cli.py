"""Command-line surface: solves, scans and table reproduction.

Exit codes: 0 success (an unstable verdict is still a result), 2 usage,
3 solver non-convergence, 4 tolerance failure.  Single results go out as
JSON, curves and grids as CSV; both carry a metadata block.  Wall time is
reported on stdout only, so files from identical flags are identical.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__, solve, tables
from .model import NATURAL, UNNATURAL, TwoBodyThreshold, hminus_spec
from .solve import MinimizerConfig, NonConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOCONV = 3
EXIT_TOL = 4


def _sig6(x):
    """Round to 6 significant digits (one beyond the reference tables)."""
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.6g}") if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    if isinstance(x, (np.integer, np.bool_)):
        return x.item()
    return x


def _metadata(spec_label, seed):
    return {"spec": spec_label, "seed": seed, "version": __version__}


def _write(text, out):
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _emit(payload, header, rows, args):
    """payload as JSON, or header and rows as CSV under its metadata."""
    if args.format == "csv":
        return _write(_csv_text(header, rows, payload["metadata"]), args.out)
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)


def _csv_text(header, rows, meta):
    buf = io.StringIO()
    for k, v in sorted(meta.items()):
        buf.write(f"# {k}={v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in r])
    return buf.getvalue()


def _result_payload(res, spec_label, seed):
    return {
        "metadata": _metadata(spec_label, seed),
        "result": _sig6({
            "energy": res.energy,
            "params": [list(map(float, p)) if hasattr(p, "__len__") else float(p)
                       for p in res.params],
            "coeffs": [float(c) for c in res.coeffs],
            "virial_ratio": res.virial_ratio,
            "threshold": {"mu": res.threshold.mu,
                          "e_ground": res.threshold.e_ground,
                          "e_2p": res.threshold.e_2p,
                          "label": res.threshold.label},
            "margin": res.margin,
            "stable": bool(res.stable),
            "sector": res.sector,
            "meta": {k: v for k, v in res.meta.items()
                     if isinstance(v, (int, float, str, bool))},
        }),
    }


def _emit_result(res, label, args, columns, wall):
    """One solve: JSON, or one CSV row of the given result columns."""
    payload = _result_payload(res, label, args.seed)
    _emit(payload, columns, [[payload["result"][c] for c in columns]], args)
    print(f"# wall_time_s={wall:.2f}")
    return EXIT_OK


def _config(args, restarts=3, max_iter=4000):
    return MinimizerConfig(seed=args.seed, restarts=restarts, max_iter=max_iter)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ion(args):
    eps = +1 if args.spin == "singlet" else -1
    spec = hminus_spec(z=args.z, mass_ratio=float(args.mass_ratio or "inf"),
                       epsilon=eps, sector=args.sector)
    label = (f"ion z={args.z:g} spin={args.spin} terms={args.terms} "
             f"mass_ratio={args.mass_ratio} sector={args.sector}")
    t0 = time.perf_counter()
    res = solve.optimize_ion(spec, n_terms=args.terms, config=_config(args))
    return _emit_result(res, label, args,
                        ["energy", "virial_ratio", "margin", "stable"],
                        time.perf_counter() - t0)


# the equal-mass pairs each mode models, as (m1, m2, m3, m4) indices;
# particles 1, 2 are the positives and 3, 4 the negatives
_MODE_MASSES = {"ps2": ("m1=m2=m3=m4", ((0, 1), (0, 2), (0, 3))),
                "cc-break": ("m1=m2 and m3=m4", ((0, 1), (2, 3))),
                "identity-break": ("m1=m3 and m2=m4", ((0, 2), (1, 3)))}


def cmd_molecule(args):
    if args.masses:
        parts = [float(v) for v in args.masses.split(",")]
        if len(parts) != 4 or min(parts) <= 0:
            print("molecule: --masses needs four positive values", file=sys.stderr)
            return EXIT_USAGE
        need, pairs = _MODE_MASSES[args.mode]
        if any(parts[i] != parts[j] for i, j in pairs):
            print(f"molecule: --mode {args.mode} needs {need}", file=sys.stderr)
            return EXIT_USAGE
        ratio = max(parts) / min(parts)
        # the solve runs at unit average inverse mass; energies and ranges
        # scale linearly with the mass unit s that restores the given masses
        s = 2.0 / (1.0 / max(parts) + 1.0 / min(parts))
    else:
        ratio, s = args.ratio, 1.0
    label = f"molecule mode={args.mode} ratio={ratio:g}"
    t0 = time.perf_counter()
    res = solve.molecule_result(args.mode, ratio, _config(args, restarts=1,
                                                          max_iter=1000))
    wall = time.perf_counter() - t0
    thr = res.threshold
    res.energy *= s
    res.threshold = TwoBodyThreshold(s * thr.mu, s * thr.e_ground, s * thr.e_2p,
                                     thr.label)
    if args.mode == "ps2":   # params = [beta] is a shape; the range is the scale
        res.meta["scale"] *= s
    else:
        res.params = [s * p for p in res.params]
    return _emit_result(res, label, args, ["energy", "margin", "stable"], wall)


def _parse_ratios(text):
    return [float(v) for v in text.split(",")]


def cmd_scan(args):
    meta = _metadata(f"scan {args.submode}", args.seed)
    if args.submode == "frozen":
        curve, (b0, e0) = solve.scan_frozen(args.z)
        meta["minimum"] = f"b={b0:.6g} energy={e0:.6g}"
        header, rows = ["b", "energy"], [[b, e] for b, e in curve]
    elif args.submode == "contour":
        a_vals, b_vals, E = solve.scan_contour(args.z, grid=(args.grid, args.grid))
        header = ["a", "b", "energy"]
        rows = [[float(a), float(b), float(E[i, j])]
                for i, a in enumerate(a_vals) for j, b in enumerate(b_vals)]
    elif args.submode == "charge":
        header = ["basis", "z_critical"]
        rows = [[args.basis, float(solve.scan_charge(args.basis))]]
    else:
        ratios = _parse_ratios(args.ratios)
        if args.submode == "mass3":
            header = ["ratio", "energy", "threshold", "margin"]
            recs = solve.scan_mass3(ratios)
        elif args.submode == "asym3":
            header = ["ratio", "energy", "threshold", "margin", "stable", "at_edge"]
            recs = solve.scan_asym3(ratios)
        else:
            header = ["ratio", "mode", "energy", "threshold", "margin", "stable"]
            recs = solve.scan_mass4(ratios, args.mode,
                                    _config(args, restarts=1, max_iter=250))
        rows = [[r[c] for c in header] for r in recs]
    _emit({"metadata": meta, "rows": [_sig6(dict(zip(header, r))) for r in rows]},
          header, rows, args)
    return EXIT_OK


def cmd_tables(args):
    t0 = time.perf_counter()
    cfg = _config(args, restarts=2, max_iter=1200)
    if args.table == 1:
        header = ["z", "spin", "column", "reference", "computed", "deviation", "ok"]
        rows = tables.table1(cfg, args.rows)
    else:
        header = ["row", "column", "reference", "computed", "deviation", "ok"]
        rows = tables.table2(cfg, args.rows)
    if not rows:
        print(f"tables: no row of table {args.table} matches {args.rows!r}",
              file=sys.stderr)
        return EXIT_USAGE
    meta = _metadata(f"tables table={args.table} rows={args.rows or '*'}",
                     args.seed)
    _write(_csv_text(header, rows, meta), args.out)   # tables are CSV only
    print(f"# wall_time_s={time.perf_counter() - t0:.2f}")
    return EXIT_TOL if any(r[-1] is False for r in rows) else EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parse_args does not mutate it."""
    p = argparse.ArgumentParser(prog="coulomb2e",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "csv")):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=formats, default=formats[0])

    sp = sub.add_parser("ion", help="three-body variational solve")
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--spin", choices=("singlet", "triplet"), default="singlet")
    sp.add_argument("--terms", type=int, default=1, choices=range(1, 9),
                    metavar="1..8")
    sp.add_argument("--mass-ratio", default="inf")
    sp.add_argument("--sector", choices=(NATURAL, UNNATURAL), default=NATURAL)
    common(sp)
    sp.set_defaults(func=cmd_ion)

    sp = sub.add_parser("molecule", help="four-body variational solve")
    sp.add_argument("--masses", default=None,
                    help="m1,m2,m3,m4 (overrides --ratio)")
    sp.add_argument("--mode", choices=("ps2", "identity-break", "cc-break"),
                    default="ps2")
    sp.add_argument("--ratio", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=cmd_molecule)

    sp = sub.add_parser("scan", help="stability and energy scans")
    ssub = sp.add_subparsers(dest="submode", required=True)
    for name in ("frozen", "contour", "charge", "mass3", "asym3", "mass4"):
        q = ssub.add_parser(name)
        if name in ("frozen", "contour"):
            q.add_argument("--z", type=float, default=1.0)
        if name == "contour":
            q.add_argument("--grid", type=int, default=41)
        if name == "charge":
            q.add_argument("--basis", choices=("perturbative", "effective",
                                               "chandrasekhar"),
                           default="chandrasekhar")
        if name in ("mass3", "asym3", "mass4"):
            q.add_argument("--ratios",
                           default={"mass3": "1,10,1836",
                                    "asym3": "1,1.1,1.25,1.5,2",
                                    "mass4": "1,2,10,100"}[name])
        if name == "mass4":
            q.add_argument("--mode", choices=("cc-break", "identity-break"),
                           default="cc-break")
        common(q)
        q.set_defaults(func=cmd_scan)

    sp = sub.add_parser("tables", help="reproduce the reference tables")
    sp.add_argument("--table", type=int, choices=(1, 2), required=True)
    sp.add_argument("--rows", default=None, help="substring filter")
    common(sp, formats=("csv",))
    sp.set_defaults(func=cmd_tables)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    if args.seed < 0:                     # before any search
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (NonConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV if isinstance(exc, NonConvergenceError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
