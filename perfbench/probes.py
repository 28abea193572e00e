"""Fixed-input kernel probes at fresh arguments, so no lru tier serves them.

Each probe draws new arguments per repetition from the run's seed and
reports the median time of its repetitions.  The inputs mirror the ROADMAP
layer baselines: moment tables (L1), block assembly (L2), eigen and scale (L3).
"""

import statistics
import time

import numpy as np

from coulomb2e import matel3, matel4, solve
from coulomb2e.model import hminus_spec, ps2_spec


def _median_time(fn, arg_list):
    times = []
    for args in arg_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _terms3(rng, n):
    return [(float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.2, 1.5)),
             float(rng.uniform(0.0, 0.3))) for _ in range(n)]


def run_all(seed):
    rng = np.random.default_rng([seed, 7])
    he = hminus_spec(z=2.0)
    out = {}

    def g3_args(omax, reps):
        return [(*map(float, rng.uniform(0.6, 3.0, 3)), omax) for _ in range(reps)]

    out["probe.g3_table_o3_us"] = 1e6 * _median_time(
        matel3.g3_table, g3_args((3, 3, 3), 41))
    out["probe.g3_table_o8_us"] = 1e6 * _median_time(
        matel3.g3_table, g3_args((8, 8, 8), 21))
    out["probe.moment4_cold_ms"] = 1e3 * _median_time(
        matel4.moment4,
        [(1, 1, 1, 1, 1, *map(float, rng.uniform(0.8, 2.0, 4))) for _ in range(9)])
    for n, reps in ((1, 15), (3, 9), (8, 5)):
        out[f"probe.natural_matblock_n{n}_ms"] = 1e3 * _median_time(
            matel3.natural_matblock, [(_terms3(rng, n), he) for _ in range(reps)])
    groups = [[matel4.symmetrized_group(
        tuple(float(v) for v in np.array([0.85, 0.15, 0.15, 0.85])
              + rng.uniform(-0.05, 0.05, 4)))] for _ in range(3)]
    out["probe.assemble4_cc_ms"] = 1e3 * _median_time(
        matel4.assemble4, [(g, ps2_spec()) for g in groups])
    block = matel3.natural_matblock(_terms3(rng, 3), he)
    out["probe.scaled_lowest_n3_us"] = 1e6 * _median_time(
        solve.scaled_lowest, [(block,)] * 41)
    return out
