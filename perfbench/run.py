"""coulomb2e benchmark: four solver workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ion-natural --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test

Every pass runs in a fresh interpreter (cold lru caches, as for a CLI user)
with BLAS/OpenMP threads pinned to 1.  `--trace 0` measures the end-to-end
metrics untraced: passes repeat with new inputs until the next one would end
after `--seconds`.  Times are read on the reference clock (refclock.py),
in seconds of an uncontended core; raw wall times go to the full record.  `--trace 1` runs passes 0 and 1 untraced and traced, in turn,
plus the kernel probes, and reports the per-layer metrics.  The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
full record, with the environment, goes to .bench_build/perfbench/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, check_solve, energy_excess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

RUN_LIMIT_S = 170.0      # every run must end within 180 s
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for v in THREAD_VARS:
        env[v] = "1"
    return env


def run_worker(task, deadline):
    """Run one worker process; returns (exit code, parsed output or None, stderr)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(task)],
                           env=worker_env(), cwd=str(ROOT), capture_output=True,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, "timed out"
    out = None
    if p.returncode == 0 and p.stdout.strip():
        try:
            out = json.loads(p.stdout.strip().splitlines()[-1])
        except json.JSONDecodeError:
            out = None
    return p.returncode, out, p.stderr[-2000:]


def run_pass(solves, deadline, trace=False, out_dir=None, mode="solve"):
    """One fresh worker over a solve set: (records aligned with solves, output)."""
    task = {"mode": mode, "solves": solves, "trace": trace,
            "out_dir": str(out_dir) if out_dir else None}
    code, out, err = run_worker(task, deadline)
    if code != 0 or out is None:
        sys.stderr.write(f"worker failed (exit {code}): {err}\n")
        return [None] * len(solves), None
    return out["solves"], out


def tally(solves, records):
    """(attempted, failed, reasons) for one pass."""
    reasons = []
    for desc, rec in zip(solves, records):
        bad = check_solve(desc, rec)
        if bad:
            reasons.append(f"{desc['label']}: {'; '.join(bad)}")
    return len(solves), len(reasons), reasons


def measure_setup(deadline):
    outs = []
    for _ in range(SETUP_REPEATS):
        code, out, err = run_worker({"mode": "setup"}, deadline)
        if code != 0 or out is None:
            raise RuntimeError(f"set-up import failed: {err}")
        outs.append(out)
    return statistics.median(o["setup_s"] for o in outs), outs


def pass_time(records, key="ref_s"):
    """A pass's time: reference-clock seconds, or raw `wall_s`/`elapsed_s`."""
    return sum(r[key] for r in records)


def untraced_run(name, seed, seconds, deadline):
    make = WORKLOADS[name]
    setup_s, setup_samples = measure_setup(deadline)
    passes = []
    t_start = time.monotonic()
    last = 0.0
    p = 0
    # start another pass only if it is predicted to end within `seconds`
    while p == 0 or time.monotonic() - t_start + last <= seconds:
        t0 = time.monotonic()
        solves = make(seed, p)
        records, out = run_pass(solves, deadline)
        last = time.monotonic() - t0
        passes.append({"solves": solves, "records": records,
                       "peak_rss_mb": out["peak_rss_mb"] if out else None})
        p += 1
        if time.monotonic() + last > deadline:
            break
    attempted = failed = 0
    reasons = []
    for ps in passes:
        a, f, r = tally(ps["solves"], ps["records"])
        attempted, failed = attempted + a, failed + f
        reasons += r
    ok = [ps for ps in passes if None not in ps["records"]]
    times = [pass_time(ps["records"]) for ps in ok]
    rates = [sum(r["nfev"] for r in ps["records"]) / t for ps, t in zip(ok, times)]
    excess = []
    for ps in ok:
        ex = [energy_excess(d, r) for d, r in zip(ps["solves"], ps["records"])]
        ex = [x for x in ex if x is not None]
        if ex:
            excess.append(max(ex))
    metrics = {}
    if times:
        metrics["solve_s"] = statistics.median(times)
        metrics["evals_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = max(ps["peak_rss_mb"] for ps in ok)
    metrics["setup_s"] = setup_s
    if excess:
        metrics["energy_excess"] = statistics.median(excess)
    walls = [pass_time(ps["records"], "wall_s") for ps in ok]
    detail = {"passes": passes, "pass_solve_s": times, "pass_wall_s": walls,
              "wall_s": statistics.median(walls) if walls else None,
              "setup_samples": setup_samples, "reasons": reasons}
    return attempted, failed, metrics, detail


def _load_builds(pass_dirs, n_solves, key):
    """Share of table builds whose arguments an earlier solve already built."""
    seen = np.empty(0, dtype=np.int64)
    total = repeats = 0
    for d in pass_dirs:
        for i in range(n_solves):
            f = d / f"builds-{i}.npz"
            if not f.exists():
                continue
            z = np.load(f)
            u, c = z[key + "u"], z[key + "c"]
            repeats += int(c[np.isin(u, seen)].sum())
            total += int(c.sum())
            seen = np.union1d(seen, u)
    return repeats / total if total else 0.0


def layer_metrics(span_file, records, nm_stats):
    z = np.load(span_file)
    names = [str(n) for n in z["names"]]
    nid, t0, t1, parent, status = z["name_id"], z["t0"], z["t1"], z["parent"], z["status"]
    dur = t1 - t0
    self_t = tracing.self_times(t0, t1, parent)
    root_total = float(dur[parent < 0].sum())
    ids = {n: i for i, n in enumerate(names)}

    def sel(name):
        return nid == ids[name] if name in ids else np.zeros(len(nid), dtype=bool)

    def calls(name):
        return int(sel(name).sum())

    def share(name):
        return float(dur[sel(name)].sum()) / root_total

    m = {}
    funcs = ["matel3.g3_table.o3", "matel3.g3_table.o8", "matel3.g3_table.tiny",
             "matel3.natural_matblock", "matel3.unnatural_matblock",
             "matel3.shellmodel_ntv", "jets.mul", "jets.recip", "jets.log",
             "matel4.assemble4.cc", "matel4.assemble4.identity",
             "solve.scaled_lowest", "solve.gen_eig"]
    for f in funcs:
        m[f + ".calls"] = calls(f)
        m[f + ".share"] = share(f)
    blocks3 = calls("matel3.natural_matblock") + calls("matel3.unnatural_matblock")
    m["matel3.tables_per_block"] = ((calls("matel3.g3_table.o3") + calls("matel3.g3_table.o8"))
                                   / blocks3 if blocks3 else 0.0)
    m["matel3.unnatural_matblock.refused"] = int(
        (sel("matel3.unnatural_matblock") & (status == tracing.RAISED)).sum())
    blocks4 = calls("matel4.assemble4.cc") + calls("matel4.assemble4.identity")
    m["matel4.moment4.calls"] = calls("matel4.moment4")
    m["matel4.f4_tables_per_block"] = (calls("matel4.f4_table") / blocks4
                                       if blocks4 else 0.0)
    nfev = sum(r["nfev"] for r in records)
    m["solve.nfev"] = nfev
    m["solve.converged_share"] = (nm_stats["converged"] / nm_stats["runs"]
                                  if nm_stats["runs"] else 0.0)
    energy_ids = {ids[n] for n in ("solve.scaled_lowest", "solve.virial_reduce") if n in ids}
    nm_ids = {ids["solve.minimize_nm"]} if "solve.minimize_nm" in ids else set()
    in_nm = tracing.ancestors_with(nid, parent, nm_ids)
    useful = np.isin(nid, list(energy_ids)) & (status == tracing.OK) & in_nm
    m["solve.eval_useful_ratio"] = int(useful.sum()) / nfev if nfev else 0.0
    optimizer = {"solve.optimize_ion", "solve.scan_mass4", "cli.main", "solve.minimize_nm"}
    opt_mask = np.isin(nid, [ids[n] for n in optimizer if n in ids])
    m["solve.optimizer_self_ms"] = 1e3 * float(self_t[opt_mask].sum())
    layer_of = np.array([n.split(".")[0] for n in names])[nid] if names else np.array([])
    for layer in ("model", "jets", "matel3", "matel4", "solve", "cli"):
        m[f"layer.{layer}.self_share"] = float(self_t[layer_of == layer].sum()) / root_total
    m["_self_total_s"] = float(self_t.sum())
    return m


def traced_run(name, seed, deadline):
    make = WORKLOADS[name]
    base = OUT / f"{name}-s{seed}-t1"
    shutil.rmtree(base, ignore_errors=True)
    dirs = [base / "pass0", base / "pass1"]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    solves = [make(seed, 0), make(seed, 1)]
    plain, traced, outs = [], [], []
    # untraced and traced passes alternate on identical inputs, so machine
    # drift falls on both sides of the overhead alike
    for p in (0, 1):
        plain.append(run_pass(solves[p], deadline)[0])
        records, out = run_pass(solves[p], deadline, trace=True, out_dir=dirs[p])
        traced.append(records)
        outs.append(out)
    code, probes, err = run_worker({"mode": "probe", "seed": seed}, deadline)

    attempted = failed = 0
    reasons, broken = [], []    # failed solves; failed checks of the run itself
    for p in (0, 1):
        for records in (plain[p], traced[p]):
            a, f, why = tally(solves[p], records)
            attempted, failed, reasons = attempted + a, failed + f, reasons + why
    metrics = {}
    if None not in outs and None not in plain[0] + plain[1]:
        # spans include the reference chunks run mid-solve, so they are
        # accounted against the elapsed time; the overhead compares
        # reference-clock times, which exclude the chunks
        wall_traced = pass_time(traced[0], "elapsed_s")
        m = layer_metrics(dirs[0] / "spans.npz", traced[0], outs[0]["nm"])
        accounted = m.pop("_self_total_s") / wall_traced
        overhead = sum(map(pass_time, traced)) / sum(map(pass_time, plain)) - 1.0
        m["trace.wall_s"] = wall_traced
        m["trace.overhead_share"] = overhead
        m["trace.accounted_share"] = accounted
        m["matel3.repeat_share"] = _load_builds(dirs, len(solves[0]), "g3")
        m["matel4.repeat_share"] = _load_builds(dirs, len(solves[0]), "f4")
        if abs(1.0 - accounted) > max(abs(overhead), 0.01):
            broken.append(f"self times account for {accounted:.4f} of the traced "
                          f"wall, beyond the tracing overhead {overhead:.4f}")
        metrics.update(m)
    if code == 0 and probes is not None:
        metrics.update(probes["probes"])
    else:
        broken.append(f"kernel probes failed: {err}")
    return attempted, failed, metrics, {"reasons": reasons, "broken": broken}


def environment(seed, trace):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "threads": {v: "1" for v in THREAD_VARS}, "seed": seed, "trace": trace}


def metric_specs(trace):
    """name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        attempted, failed, metrics, detail = traced_run(name, seed, deadline)
    else:
        attempted, failed, metrics, detail = untraced_run(name, seed, seconds, deadline)
    units = metric_specs(trace)
    missing = sorted(k for k in units if k not in metrics)
    if missing:
        detail.setdefault("broken", []).append(f"metrics not measured: {missing}")
    result = {"correct": failed == 0 and not detail.get("broken"),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items() if k in metrics}}
    env = environment(seed, trace)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "env": env, "result": result, "detail": detail},
        default=str, indent=1))
    for why in detail.get("reasons", []) + detail.get("broken", []):
        print(f"# FAIL {name}: {why}")
    print(f"# {name}: env {json.dumps(env)}")
    print(f"# {name}: fail_frac {failed / max(attempted, 1):.4g} "
          f"({failed} of {attempted} solves)")
    if detail.get("wall_s") is not None:
        print(f"# {name}: raw wall_s {detail['wall_s']:.6g} s (median pass, host clock)")
    for k, v in result["metrics"].items():
        print(f"# {name}: {k} {v['value']:.6g} {v['unit']}")
    return result


def self_test():
    """Injected failures must be counted: below-floor energy, non-zero exits."""
    ion = WORKLOADS["ion-natural"](0, 0)[0]
    good = {"energies": [-2.9033], "stable": [True], "error": None, "exit_code": None}
    below = dict(good, energies=[-2.95])
    tables = WORKLOADS["tables-closed"](0, 0)[0]
    rows = [[1.0, 0, "E_fac", -0.4727], [1.0, 0, "E_corr", -0.5133]]
    exit4 = {"energies": [r[3] for r in rows], "table": rows, "error": None,
             "exit_code": 4}
    cases = [
        ("good He solve passes", tally([ion], [good])[1] == 0),
        ("below-floor energy fails", tally([ion], [below])[1] == 1),
        ("tables exit code 0 passes", tally([tables], [dict(exit4, exit_code=0)])[1] == 0),
        ("tables exit code 4 fails", tally([tables], [exit4])[1] == 1),
    ]
    deadline = time.monotonic() + 60
    records, _ = run_pass([ion, ion], deadline, mode="no-such-mode")
    cases.append(("worker exiting non-zero fails every solve",
                  tally([ion, ion], records)[1] == 2))
    for label, ok in cases:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in cases) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (SRC / "coulomb2e" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in WORKLOADS}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"all-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"env": environment(args.seed, args.trace),
                        "results": results}, indent=1))
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
