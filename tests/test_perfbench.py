"""The benchmark's contract with the package: every name that `perfbench/`
wraps, probes or splits its spans by must exist and behave as it expects.

A renamed or removed function fails every traced benchmark run; these
tests fail first.  They read `perfbench/` and change nothing there.
"""

import importlib.util
import math
from pathlib import Path

import coulomb2e
import coulomb2e.cli  # noqa: F401  (the tracer wraps cli.main, as the worker imports it)
from coulomb2e import solve
from coulomb2e.solve import MinimizerConfig

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load("tracing").Tracer()
    originals = (solve.scan_mass4, coulomb2e.matel4.assemble4)
    tracer.install(coulomb2e)
    try:
        assert solve.scan_mass4 is not originals[0]
    finally:
        tracer.uninstall()
    assert (solve.scan_mass4, coulomb2e.matel4.assemble4) == originals


def test_probes_return_every_key_finite_and_positive():
    out = _load("probes").run_all(0)
    assert sorted(out) == sorted([
        "probe.g3_table_o3_us", "probe.g3_table_o8_us", "probe.moment4_cold_ms",
        "probe.natural_matblock_n1_ms", "probe.natural_matblock_n3_ms",
        "probe.natural_matblock_n8_ms", "probe.assemble4_cc_ms",
        "probe.scaled_lowest_n3_us"])
    assert all(math.isfinite(v) and v > 0 for v in out.values())


def test_traced_four_body_solves_name_both_assemble4_spans():
    tracer = _load("tracing").Tracer()
    tracer.install(coulomb2e)
    try:
        for mode in ("cc-break", "identity-break"):
            coulomb2e.solve.scan_mass4([1.0], mode, MinimizerConfig(restarts=1,
                                                                    max_iter=8))
    finally:
        tracer.uninstall()
    names, name_id = tracer.spans()[:2]
    seen = {names[i] for i in set(name_id.tolist())}
    assert {"matel4.assemble4.cc", "matel4.assemble4.identity",
            "solve.scan_mass4"} <= seen
