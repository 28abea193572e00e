"""One fresh interpreter's share of a benchmark run.

Usage: python3 worker.py '<json task>'; prints one JSON line on stdout.

Modes:
  setup  time `import coulomb2e, coulomb2e.cli` and nothing else;
  solve  run a list of solves through the public entry points
         (solve.optimize_ion, solve.scan_mass4, cli.main), optionally traced;
  probe  time the fixed-input kernel probes at fresh arguments.

Only the standard library is imported before the set-up timer, so numpy and
scipy land inside `setup_s` as they do for a user of the CLI. Solves and
the import are timed on the reference clock (refclock.py).
"""

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(task):
    from refclock import PYTHON_NOMINAL_S, RefClock, python_chunk
    clock = RefClock(python_chunk, PYTHON_NOMINAL_S)
    clock.start()
    import coulomb2e, coulomb2e.cli  # noqa: E401,F401
    raw, ref = clock.stop()
    return {"setup_raw_s": raw, "setup_s": ref}


class _NfevCounter:
    """Sums info['nfev'] over every simplex run (one wrapper call per search)."""

    def __init__(self, solve):
        self.total = self.runs = self.converged = 0
        self._solve = solve
        self._orig = solve.minimize_nm

        def counted(*args, **kwargs):
            x, f, info = self._orig(*args, **kwargs)
            self.total += info["nfev"]
            self.runs += 1
            self.converged += bool(info["converged"])
            return x, f, info

        solve.minimize_nm = counted

    def close(self):
        self._solve.minimize_nm = self._orig


def _parse_table_csv(text):
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    out = []
    for rec in csv.DictReader(rows):
        if rec.get("column") in ("E_fac", "E_corr"):
            out.append([float(rec["z"]), int(rec["spin"]), rec["column"],
                        float(rec["computed"])])
    return out


def _one_solve(pkg, desc, counter):
    from coulomb2e.model import hminus_spec
    from coulomb2e.solve import MinimizerConfig
    from refclock import RefClock
    solve, cli = pkg.solve, pkg.cli
    rec = {"label": desc["label"], "energies": [], "stable": [],
           "exit_code": None, "error": None}
    before = counter.total
    clock = RefClock()
    clock.start()
    t0 = time.perf_counter()
    try:
        if desc["kind"] == "ion":
            ratio = float(desc.get("mass_ratio", "inf"))
            spec = hminus_spec(z=desc["z"], mass_ratio=ratio,
                               epsilon=desc["epsilon"], sector=desc["sector"])
            res = solve.optimize_ion(spec, desc["n_terms"],
                                     MinimizerConfig(**desc["config"]))
            rec["energies"] = [float(res.energy)]
            rec["stable"] = [bool(res.stable)]
            rec["meta_nfev"] = int(res.meta["nfev"])
        elif desc["kind"] == "mass4":
            rows = solve.scan_mass4(desc["ratios"], desc["mode"],
                                    MinimizerConfig(**desc["config"]))
            rec["energies"] = [float(r["energy"]) for r in rows]
            rec["stable"] = [bool(r["stable"]) for r in rows]
        elif desc["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rec["exit_code"] = int(cli.main(desc["argv"]))
            rec["table"] = _parse_table_csv(buf.getvalue())
            rec["energies"] = [r[3] for r in rec["table"]]
        else:
            raise ValueError(f"unknown solve kind {desc['kind']!r}")
    except Exception as exc:  # a raising solve is a counted failure, not a crash
        rec["error"] = f"{type(exc).__name__}: {exc}"
    # elapsed_s includes the reference chunks run mid-solve, as spans do
    rec["elapsed_s"] = time.perf_counter() - t0
    rec["wall_s"], rec["ref_s"] = clock.stop()
    rec["nfev"] = counter.total - before
    return rec


def _unique_counts(values):
    import numpy as np
    u, c = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    return u, c


def run_solves(task):
    import coulomb2e
    import coulomb2e.cli  # noqa: F401
    from coulomb2e import solve
    tracer = None
    if task.get("trace"):
        import numpy as np
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(coulomb2e)
    counter = _NfevCounter(solve)
    records = []
    for i, desc in enumerate(task["solves"]):
        if tracer is not None:
            n_g3, n_f4 = len(tracer.hashes["g3"]), len(tracer.hashes["f4"])
        records.append(_one_solve(coulomb2e, desc, counter))
        if tracer is not None:
            g3u, g3c = _unique_counts(tracer.hashes["g3"][n_g3:])
            f4u, f4c = _unique_counts(tracer.hashes["f4"][n_f4:])
            np.savez(os.path.join(task["out_dir"], f"builds-{i}.npz"),
                     g3u=g3u, g3c=g3c, f4u=f4u, f4c=f4c)
    counter.close()
    out = {"solves": records,
           "nm": {"runs": counter.runs, "converged": counter.converged}}
    if tracer is not None:
        tracer.uninstall()
        names, nid, t0, t1, parent, status = tracer.spans()
        np.savez(os.path.join(task["out_dir"], "spans.npz"),
                 names=np.array(names), name_id=nid, t0=t0, t1=t1,
                 parent=parent, status=status)
    return out


def run_probes(task):
    from probes import run_all
    return {"probes": run_all(task["seed"])}


def main():
    task = json.loads(sys.argv[1])
    mode = task.get("mode")
    if mode == "setup":
        out = run_setup(task)
    elif mode == "solve":
        out = run_solves(task)
    elif mode == "probe":
        out = run_probes(task)
    else:
        print(f"worker: unknown mode {mode!r}", file=sys.stderr)
        return 2
    out["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
