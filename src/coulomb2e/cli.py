"""Command-line surface: solves, scans, table reproduction, validation.

Exit codes: 0 success (an unstable verdict is still a result), 2 usage,
3 solver non-convergence, 4 tolerance failure.  Single results go out as
JSON, curves and grids as CSV; both carry a metadata block.  Wall time is
reported on stdout only, so files from identical flags are identical.
"""

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__, matel3, oracle, solve
from .model import NATURAL, UNNATURAL, TwoBodyThreshold, hminus_spec
from .solve import MinimizerConfig, NonConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOCONV = 3
EXIT_TOL = 4


def _sig6(x):
    """Round to 6 significant digits (one beyond the reference tables)."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return None
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    if isinstance(x, (np.floating,)):
        return _sig6(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _metadata(spec_label, seed):
    return {"spec": spec_label, "seed": seed, "version": __version__}


def _emit_json(payload, out):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_csv(header, rows, meta, out):
    buf = io.StringIO()
    for k, v in sorted(meta.items()):
        buf.write(f"# {k}={v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in r])
    text = buf.getvalue()
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


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


def _config(args, restarts=3, max_iter=4000):
    return MinimizerConfig(seed=args.seed, restarts=restarts, max_iter=max_iter)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ion(args):
    ratio = float("inf") if args.mass_ratio in ("inf", "") else float(args.mass_ratio)
    eps = +1 if args.spin == "singlet" else -1
    sector = args.sector
    spec = hminus_spec(z=args.z, mass_ratio=ratio, epsilon=eps, sector=sector)
    label = (f"ion z={args.z:g} spin={args.spin} terms={args.terms} "
             f"mass_ratio={args.mass_ratio} sector={sector}")
    t0 = time.perf_counter()
    res = solve.optimize_ion(spec, n_terms=args.terms, config=_config(args))
    wall = time.perf_counter() - t0
    payload = _result_payload(res, label, args.seed)
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        r = payload["result"]
        _emit_csv(["energy", "virial_ratio", "margin", "stable"],
                  [[r["energy"], r["virial_ratio"], r["margin"], r["stable"]]],
                  payload["metadata"], args.out)
    print(f"# wall_time_s={wall:.2f}")
    return EXIT_OK


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
                                                          max_iter=300))
    wall = time.perf_counter() - t0
    thr = res.threshold
    res.energy *= s
    res.threshold = TwoBodyThreshold(s * thr.mu, s * thr.e_ground, s * thr.e_2p,
                                     thr.label)
    if args.mode == "ps2":   # params = [beta] is a shape; the range is the scale
        res.meta["scale"] *= s
    else:
        res.params = [s * p for p in res.params]
    payload = _result_payload(res, label, args.seed)
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        r = payload["result"]
        _emit_csv(["energy", "margin", "stable"],
                  [[r["energy"], r["margin"], r["stable"]]],
                  payload["metadata"], args.out)
    print(f"# wall_time_s={wall:.2f}")
    return EXIT_OK


def _parse_ratios(text):
    out = []
    for v in text.split(","):
        v = v.strip()
        out.append(float("inf") if v == "inf" else float(v))
    if not out:
        raise ValueError("empty ratio list")
    return out


def _emit_table(header, rows, meta, args):
    if args.format == "json":
        payload = {"metadata": meta,
                   "rows": [_sig6(dict(zip(header, r))) for r in rows]}
        _emit_json(payload, args.out)
    else:
        _emit_csv(header, rows, meta, args.out)


def cmd_scan(args):
    meta = _metadata(f"scan {args.submode}", args.seed)
    cfg = _config(args, restarts=2, max_iter=600)
    if args.submode == "frozen":
        rows, (b0, e0) = solve.scan_frozen(args.z)
        meta["minimum"] = f"b={b0:.6g} energy={e0:.6g}"
        _emit_table(["b", "energy"], [[b, e] for b, e in rows], meta, args)
    elif args.submode == "contour":
        a_vals, b_vals, E = solve.scan_contour(args.z, grid=(args.grid, args.grid))
        rows = [[float(a), float(b), float(E[i, j])]
                for i, a in enumerate(a_vals) for j, b in enumerate(b_vals)]
        _emit_table(["a", "b", "energy"], rows, meta, args)
    elif args.submode == "charge":
        lo, hi = {"perturbative": (1.1, 1.4), "effective": (0.9, 1.2),
                  "chandrasekhar": (0.85, 1.2)}[args.basis]
        zc = solve.scan_charge(args.basis, z_lo=lo, z_hi=hi)
        _emit_table(["basis", "z_critical"], [[args.basis, float(zc)]], meta, args)
    elif args.submode == "mass3":
        recs = solve.scan_mass3(_parse_ratios(args.ratios), cfg)
        _emit_table(["ratio", "energy", "threshold", "margin", "he_expectation"],
                    [[r["ratio"], r["energy"], r["threshold"], r["margin"],
                      r["he_expectation"]] for r in recs], meta, args)
    elif args.submode == "asym3":
        recs = solve.scan_asym3(_parse_ratios(args.ratios), cfg)
        _emit_table(["ratio", "energy", "threshold", "margin", "stable"],
                    [[r["ratio"], r["energy"], r["threshold"], r["margin"],
                      r["stable"]] for r in recs], meta, args)
    elif args.submode == "mass4":
        cfg = _config(args, restarts=1, max_iter=250)
        recs = solve.scan_mass4(_parse_ratios(args.ratios), args.mode, cfg)
        _emit_table(["ratio", "mode", "energy", "threshold", "margin", "stable"],
                    [[r["ratio"], r["mode"], r["energy"], r["threshold"],
                      r["margin"], r["stable"]] for r in recs], meta, args)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_USAGE
    return EXIT_OK


# reference rows.  Table 1: per (z, spin) the factorized and the correlated
# two-range energies with the printed optimal ranges.
_TABLE1 = [
    # z, S, e_fac, e_corr, a, b
    (1.0, 0, -0.4727, -0.5133, 1.04, 0.28),
    (2.0, 0, -2.8477, -2.8757, 2.18, 1.19),
    (2.0, 1, -2.1666, -2.1607, 1.97, 0.32),
    (3.0, 0, -7.2227, -7.2488, 3.29, 2.08),
    (3.0, 1, -5.1026, -5.0718, 2.93, 0.60),
    (4.0, 0, -13.598, -13.623, 4.39, 2.98),
    (4.0, 1, -9.2892, -9.2240, 3.89, 0.88),
    (8.0, 0, -59.098, -59.122, 8.68, 6.69),
    (8.0, 1, -38.537, -38.233, 7.73, 2.00),
]

# Table 2 columns: H-, He(para), He*(para), He(ortho); None = not listed
_TABLE2 = [
    ("a=b=Z c=0", -0.375, -2.75, None, None),
    ("a=b c=0", -0.47266, -2.84766, None, None),
    ("a=b c>0", -0.50790, -2.88962, None, None),
    ("a!=b c=0", -0.51330, -2.87566, None, -2.16064),
    ("a!=b c>0", -0.52387, -2.89953, None, -2.16153),
    ("N=2", -0.52496, -2.90185, -2.14461, -2.17512),
    ("N=3", -0.52767, -2.90328, -2.14538, -2.17521),
    ("N=4", -0.52771, -2.90347, -2.14551, -2.17522),
    ("exact", -0.52775, -2.90372, -2.14597, -2.17523),
]

_TOL_TABLE = 5e-4
_TOL_MULTI = 1e-3


def _t1_fac(z, s, config):
    if s == 0:
        return matel3.energy_effective_charge(z)[0]
    e, _, _ = solve.optimize_shellmodel(z, config)
    return e


def _t1_corr(z, s, config):
    eps = +1 if s == 0 else -1
    e, (a, b), info = solve.optimize_chandrasekhar(z, config, epsilon=eps)
    # the shape search leaves the overall scale free; report the physical
    # (scale-absorbed) ranges, which is what the reference quotes
    n, t, v = matel3.chandrasekhar_ntv(a, b, z, eps)
    lam = -v / (2.0 * t)
    # exchange symmetrization makes (a, b) and (b, a) the same state
    a, b = max(a, b), min(a, b)
    return e, (lam * a, lam * b), info


def _single_term_e(z, eps, tie_ab, with_c, config):
    """Optimized one-term correlated energy with optional a=b tie."""
    spec = hminus_spec(z=z, epsilon=eps)

    def obj(p):
        a = p[0]
        b = p[0] if tie_ab else p[1]
        c = p[-1] if with_c else 0.0
        t = (a, b, c)
        if t[0] + t[1] <= 1e-3 or t[1] + t[2] <= 1e-3 or t[2] + t[0] <= 1e-3:
            return solve._BIG
        return solve.scaled_lowest(matel3.natural_matblock([t], spec))[0]

    if tie_ab:
        x0 = [0.85 * z, 0.1 * z] if with_c else [0.9 * z]
    else:
        x0 = [1.04 * z, 0.28 * z] + ([0.05 * z] if with_c else [])
    _, e, _ = solve.minimize_nm(obj, x0, config)
    return e


def cmd_tables(args):
    cfg = _config(args, restarts=2, max_iter=1200)
    rows_out = []
    failed = False
    t0 = time.perf_counter()

    if args.table == 1:
        header = ["z", "spin", "column", "reference", "computed", "deviation", "ok"]
        for z, s, efac, ecorr, a_ref, b_ref in _TABLE1:
            if args.rows and args.rows not in f"Z={z:g} S={s}":
                continue
            ef = _t1_fac(z, s, cfg)
            ec, (a, b), _ = _t1_corr(z, s, cfg)
            for col, ref, got in (("E_fac", efac, ef), ("E_corr", ecorr, ec)):
                dev = abs(got - ref)
                ok = dev <= _TOL_TABLE
                failed |= not ok
                rows_out.append([f"{z:g}", s, col, ref, float(got), float(dev), ok])
            for col, ref, got in (("a", a_ref, a), ("b", b_ref, b)):
                dev = abs(got - ref)
                ok = dev <= 0.02
                failed |= not ok
                rows_out.append([f"{z:g}", s, col, ref, float(got), float(dev), ok])
    else:
        header = ["row", "column", "reference", "computed", "deviation", "ok"]
        exact = _TABLE2[-1]
        for label, *vals in _TABLE2:
            if args.rows and args.rows not in label:
                continue
            cols = ["H-", "He", "He*", "He_ortho"]
            for ci, (col, ref) in enumerate(zip(cols, vals)):
                if ref is None:
                    continue
                z = 1.0 if col == "H-" else 2.0
                if label == "exact" or label == "N=4":
                    rows_out.append([label, col, ref, "", "", "not-computed"])
                    continue
                got = _table2_value(label, col, z, cfg)
                if label.startswith("N="):
                    ok = (got <= ref + _TOL_MULTI) and (got >= exact[ci + 1] - 1e-9)
                else:
                    ok = abs(got - ref) <= _TOL_TABLE
                failed |= not ok
                rows_out.append([label, col, ref, float(got),
                                 float(abs(got - ref)), ok])

    meta = _metadata(f"tables table={args.table} rows={args.rows or '*'}",
                     args.seed)
    _emit_csv(header, rows_out, meta, args.out)
    print(f"# wall_time_s={time.perf_counter() - t0:.2f}")
    return EXIT_TOL if failed else EXIT_OK


def _table2_value(label, col, z, cfg):
    eps = -1 if col == "He_ortho" else +1
    k = 1 if col == "He*" else 0
    if label == "a=b=Z c=0":
        return matel3.perturbative_e(z)
    if label == "a=b c=0":
        return matel3.energy_effective_charge(z)[0]
    if label == "a=b c>0":
        return _single_term_e(z, eps, tie_ab=True, with_c=True, config=cfg)
    if label == "a!=b c=0":
        return solve.optimize_chandrasekhar(z, cfg, epsilon=eps)[0]
    if label == "a!=b c>0":
        return _single_term_e(z, eps, tie_ab=False, with_c=True, config=cfg)
    n = int(label.split("=")[1])
    spec = hminus_spec(z=z, epsilon=eps)
    return solve.optimize_ion(spec, n_terms=n, config=cfg, k=k).energy


def cmd_validate(args):
    pattern = args.filter or "*"
    report = oracle.run_manifest(pattern)
    if not report:
        print(f"validate: no manifest case matches {pattern!r}", file=sys.stderr)
        return EXIT_USAGE
    worst = False
    for rec in report:
        tag = "PASS" if rec["passed"] else "FAIL"
        print(f"{tag}  {rec['name']:<28s} rel={rec['rel_err']:.3e} "
              f"tol={rec['tol']:.0e}")
        worst |= not rec["passed"]
    n_ok = sum(r["passed"] for r in report)
    print(f"# {n_ok}/{len(report)} cases pass")
    return EXIT_TOL if worst else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="coulomb2e",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

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
    common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("validate", help="oracle quadrature pairings")
    sp.add_argument("--filter", default=None, help="glob over case names")
    common(sp)
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
