"""Variational engine: eigensolves, scale handling, optimizers, scans."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import minimize_scalar

from coulomb2e import matel3, matel4, solve
from coulomb2e.model import MatBlock, hminus_spec, UNNATURAL
from coulomb2e.solve import (MinimizerConfig, NonConvergenceError,
                             chandrasekhar_energy, gen_eig, minimize_nm,
                             scaled_lowest, virial_reduce)

CFG = MinimizerConfig(restarts=2, max_iter=2000)
LIGHT = MinimizerConfig(restarts=1, max_iter=400)


def test_virial_reduce_closed_form():
    e, lam = virial_reduce(2.0, 1.5, -3.0)
    assert lam == pytest.approx(1.0)
    assert e == pytest.approx(-9.0 / 12.0)
    with pytest.raises(ValueError):
        virial_reduce(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        virial_reduce(-1.0, 1.0, -1.0)


def test_virial_reduce_is_scale_optimum():
    # the reduced energy must match a brute-force scan over the scale
    n, t, v = 1.7, 0.9, -2.1
    e, lam = virial_reduce(n, t, v)
    lams = np.linspace(0.2, 4.0, 2001)
    brute = np.min((lams**2 * t + lams * v) / n)
    assert e == pytest.approx(brute, abs=1e-6)


def test_chandrasekhar_energy_scale_invariant():
    e1 = chandrasekhar_energy(1.04, 0.28, 1.0)
    e2 = chandrasekhar_energy(3.3 * 1.04, 3.3 * 0.28, 1.0)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_gen_eig_matches_scipy():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    N = A @ A.T + 5 * np.eye(5)
    B = rng.standard_normal((5, 5))
    H = 0.5 * (B + B.T)
    w, c = gen_eig(MatBlock(N, 0.5 * H, 0.5 * H))
    w_ref = sla.eigh(H, N, eigvals_only=True)
    assert np.allclose(w, w_ref, atol=1e-10)
    # eigenvectors satisfy the pencil equation
    for i in range(5):
        assert np.allclose(H @ c[:, i], w[i] * (N @ c[:, i]), atol=1e-8)


def test_gen_eig_drops_collinear_term():
    # duplicate basis vector: the solver must drop one and still return
    N = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
    N += 1e-15 * np.eye(3)
    H = np.diag([1.0, 1.0, 2.0])
    w, c = gen_eig(MatBlock(N, 0.5 * H, 0.5 * H))
    assert len(w) == 2
    assert np.isfinite(w).all()


def test_scaled_lowest_agrees_with_virial_single_term():
    spec = hminus_spec(z=1.0)
    blk = matel3.natural_matblock([(0.28, 1.04, 0.0)], spec)
    e_scan, lam = scaled_lowest(blk)
    n, t, v = blk.n_mat[0, 0], blk.t_mat[0, 0], blk.v_mat[0, 0]
    e_vir, lam_vir = virial_reduce(n, t, v)
    assert e_scan == pytest.approx(e_vir, abs=1e-10)
    assert lam == pytest.approx(lam_vir, abs=1e-6)


# An H- N=2 basis from the trajectory of optimize_ion(hminus_spec(z=1), 2)
# (seed 0, one restart, 500 evaluations) on which the bounded scale search
# stops in a local minimum of E(lam), 9.8 % of |E| above the global one.
HM_LOCAL_TERMS = [(1.9230578158086975, 0.7142320284686321, -0.0882672249200323),
                  (0.38624054500817984, 0.45477813845548054, 0.021960816566300202)]


def _pencil(block, floor=1e-12):
    N = np.asarray(block.n_mat)
    w, U = np.linalg.eigh(N)
    keep = w > floor * max(w[-1], 1e-300)
    X = U[:, keep] / np.sqrt(w[keep])
    return X.T @ block.t_mat @ X, X.T @ block.v_mat @ X


def _hm_local_energy():
    Tt, Vt = _pencil(matel3.natural_matblock(HM_LOCAL_TERMS, hminus_spec(z=1.0)))
    return lambda lam: np.linalg.eigvalsh(lam * lam * Tt + lam * Vt)[0]


@pytest.mark.parametrize("f, a, b, xatol", [
    (lambda x: (x - 1.3) ** 2 * (1.0 + 0.2 * x), 0.0, 4.0, 1e-10),  # interior
    (lambda x: x ** 4 - 3.0 * x ** 2 + 0.5 * x, -2.5, 2.5, 1e-12),   # two minima
    (lambda x: math.exp(x), 1.0, 2.0, 1e-10),                        # lower bound
    (lambda x: -math.log(x), 0.5, 7.0, 1e-12),                       # upper bound
    (lambda x: 1.0, -1.0, 1.0, 1e-10),                               # constant
    (_hm_local_energy(), 0.05, 50.0, 1e-12),                         # H- E(lam)
], ids=["interior", "two-minima", "lower-bound", "upper-bound", "constant",
        "hminus-local"])
def test_fminbound_is_scipy_bounded_brent(f, a, b, xatol):
    # the port must walk scipy's iterates exactly: same x, f(x) and count
    ref = minimize_scalar(f, bounds=(a, b), method="bounded",
                          options=dict(xatol=xatol))
    x, fx, nfev = solve._fminbound(f, a, b, xatol)
    assert (x, fx, nfev) == (ref.x, ref.fun, ref.nfev)


def test_scaled_lowest_search_is_local():
    # on this block the bounded search keeps its local minimum, which a
    # dense grid beats by 9.8 % (ROADMAP item 1)
    e, lam = scaled_lowest(
        matel3.natural_matblock(HM_LOCAL_TERMS, hminus_spec(z=1.0)))
    e_of = _hm_local_energy()
    grid = min(e_of(x) for x in np.geomspace(0.05, 50.0, 3000))
    assert e > grid + 0.05 * abs(grid)
    assert e == pytest.approx(-0.4677059591, abs=1e-9)


def _scaled_lowest_ref(block, floor=1e-12, bounds=(0.05, 50.0)):
    Tt, Vt = _pencil(block, floor)
    r = minimize_scalar(lambda lam: np.linalg.eigvalsh(lam * lam * Tt + lam * Vt)[0],
                        bounds=bounds, method="bounded", options=dict(xatol=1e-12))
    return float(r.fun), float(r.x)


def _sample_blocks():
    rng = np.random.default_rng(2024)
    out = []
    for n in (1, 2, 3, 8):
        for eps in (+1, -1):
            for z in (1.0, 2.0):
                terms = [tuple(rng.uniform((0.3, 0.1, -0.05), (2.5, 1.5, 0.3)))
                         for _ in range(n)]
                out.append((matel3.natural_matblock(
                    terms, hminus_spec(z=z, epsilon=eps)), {}))
    un = hminus_spec(z=1.0, sector=UNNATURAL)
    for terms in ([(0.50, 0.22, -0.03)], solve._UN_SEEDS[(1.0, (0.0, 1.0, 1.0), 3)]):
        out.append((matel3.unnatural_matblock(terms, un), {}))
    four = dict(floor=1e-11, bounds=(0.02, 50.0))
    for mode, p in (("cc-break", (0.85, 0.15, 0.15, 0.85)),
                    ("identity-break", (0.85, 0.15))):
        out.append((matel4.assemble4(solve._four_groups(mode, p),
                                     solve._four_spec(mode, 1.7)), four))
    return out


def test_scaled_lowest_matches_scipy_eigvalsh_reference():
    for block, kw in _sample_blocks():
        e, lam = scaled_lowest(block, **kw)
        e_ref, lam_ref = _scaled_lowest_ref(block, **kw)
        assert abs(e - e_ref) <= 1e-14 * abs(e_ref)
        assert lam == pytest.approx(lam_ref, rel=1e-12)


def test_scaled_lowest_raises_when_lapack_fails(monkeypatch):
    # a dsyevd failure must read as numpy's LinAlgError, which minimize_nm
    # counts as a refusal
    monkeypatch.setattr(solve.lapack, "dsyevd",
                        lambda a, **kw: (np.full(len(a), np.nan), None, 1))
    blk = matel3.natural_matblock([(1.07, 0.45, 0.05)], hminus_spec(z=1.0))
    with pytest.raises(np.linalg.LinAlgError):
        scaled_lowest(blk)


def _quotient(block, c, lam):
    c = np.asarray(c)
    h = lam * lam * np.asarray(block.t_mat) + lam * np.asarray(block.v_mat)
    return (c @ h @ c) / (c @ np.asarray(block.n_mat) @ c)


def test_state_coefficients_belong_to_the_scaled_energy():
    # two nearly collinear terms (overlap condition 4.1e12): the printed
    # coefficients must be the eigenvector of the same reduced pencil whose
    # eigenvalue scaled_lowest reports, and their virial ratio 1
    terms = [(1.07, 0.45, 0.05), (1.07 + 3e-6, 0.45, 0.05 + 3e-6), (0.6, 0.3, 0.02)]
    block = matel3.natural_matblock(terms, hminus_spec(z=1.0))
    w = np.linalg.eigvalsh(block.n_mat)
    assert w[-1] / w[0] == pytest.approx(4.1e12, rel=0.01)
    e, lam = scaled_lowest(block)
    c, vr = solve._state_at_scale(block, lam)
    assert abs(_quotient(block, c, lam) - e) <= 1e-12 * abs(e)
    assert vr == pytest.approx(1.0, abs=1e-7)


def test_four_body_state_uses_the_four_body_floor():
    # a three-group cc-break block whose overlap condition (1.4e11) sits
    # between the 1e-12 and 1e-11 floors: only the four-body floor gives
    # coefficients of the reported energy
    spec = solve._four_spec("cc-break", 1.7)
    groups = [matel4.symmetrized_group(p) for p in
              ((0.85, 0.15, 0.15, 0.85), (0.85 + 1e-5, 0.15, 0.15, 0.85 + 1e-5),
               (0.6, 0.25, 0.2, 0.7))]
    block = matel4.assemble4(groups, spec)
    e, lam = scaled_lowest(block, **solve._FOUR)
    c, vr = solve._state_at_scale(block, lam, floor=solve._FOUR["floor"])
    assert abs(_quotient(block, c, lam) - e) <= 1e-12 * abs(e)
    assert vr == pytest.approx(1.0, abs=1e-7)
    c12, _ = solve._state_at_scale(block, lam)
    assert abs(_quotient(block, c12, lam) - e) > 1e-9 * abs(e)


def test_state_at_scale_zeros_when_too_few_directions_survive():
    # a duplicated term leaves one overlap direction: a ground state, but
    # no first excited state
    block = matel3.natural_matblock([(1.07, 0.45, 0.05)] * 2, hminus_spec(z=1.0))
    c, vr = solve._state_at_scale(block, 1.0, k=1)
    assert np.array_equal(c, np.zeros(2)) and math.isnan(vr)
    c0, vr0 = solve._state_at_scale(block, 1.0, k=0)
    assert np.all(np.isfinite(c0)) and np.isfinite(vr0)


def _captured_objectives(monkeypatch):
    seen = []

    def fake(objective, x0, config):
        seen.append(objective)
        return np.asarray(x0, dtype=float), -1.0, {"nfev": 0, "converged": True}

    monkeypatch.setattr(solve, "minimize_nm", fake)
    return seen


@pytest.mark.parametrize("scan", [solve.scan_mass3, solve.scan_asym3])
def test_mass_scans_keep_their_box(scan, monkeypatch):
    # the box a <= 0.01 or b <= 0.005 refuses points the pair-sum floor
    # would let through
    seen = _captured_objectives(monkeypatch)
    scan([1.5], LIGHT)
    obj, = seen
    for p in ([0.01, 0.3], [0.3, 0.005], [-0.2, 0.3]):
        assert obj(np.array(p)) == solve._BIG
    for p in ([0.011, 0.3], [0.3, 0.006]):
        assert obj(np.array(p)) < 0


def test_natural_ion_search_refuses_small_pair_sums(monkeypatch):
    seen = _captured_objectives(monkeypatch)
    solve.optimize_ion(hminus_spec(z=1.0), 1, LIGHT)
    obj, = seen
    assert obj(np.array([0.5, 0.0009, 0.0])) == solve._BIG
    assert obj(np.array([0.5, 0.002, 0.0])) < 0


def test_vector_ion_search_refuses_tiny_pair_sums(monkeypatch):
    seen = _captured_objectives(monkeypatch)
    solve.optimize_ion(hminus_spec(z=1.0, sector=UNNATURAL), 1, LIGHT)
    obj, = seen
    monkeypatch.setattr(solve, "_un_lowest", lambda terms, spec, k=0: (-0.2, 1.0))
    assert obj(np.array([0.5, 0.22, -0.2199995])) == solve._BIG
    assert obj(np.array([0.5, 0.22, -0.2195])) == -0.2


def test_minimize_nm_deterministic():
    def obj(x):
        return (x[0] - 1.3) ** 2 + (x[1] + 0.4) ** 2 + 0.1 * x[0] * x[1]

    cfg = MinimizerConfig(seed=11, restarts=3, max_iter=500)
    x1, e1, _ = minimize_nm(obj, [0.0, 0.0], cfg)
    x2, e2, _ = minimize_nm(obj, [0.0, 0.0], cfg)
    assert np.array_equal(x1, x2)
    assert e1 == e2


def test_minimize_nm_raises_when_all_rejected():
    with pytest.raises(NonConvergenceError):
        minimize_nm(lambda x: solve._BIG, [1.0], LIGHT)


@pytest.mark.parametrize("exc, refused", [
    (ValueError, True), (matel3.CancellationError, True),
    (np.linalg.LinAlgError, True),
    (TypeError, False), (IndexError, False), (ZeroDivisionError, False),
])
def test_minimize_nm_refusal_contract(exc, refused):
    # refusals read as _BIG, so a search refused everywhere does not
    # converge; every other exception is a bug and must surface unchanged
    def obj(x):
        raise exc("raised by the objective")

    with pytest.raises(NonConvergenceError if refused else exc):
        minimize_nm(obj, [1.0], LIGHT)


def test_optimize_ion_propagates_bugs(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug inside the objective")

    monkeypatch.setattr(matel3, "natural_matblock", broken)
    with pytest.raises(TypeError):
        solve.optimize_ion(hminus_spec(z=2.0), 1, LIGHT)


def test_optimize_chandrasekhar_hminus():
    e, (a, b), _ = solve.optimize_chandrasekhar(1.0, CFG)
    assert e == pytest.approx(-0.51330, abs=5e-5)


def test_optimize_minmax_above_chandrasekhar():
    e_mm, _, _ = solve.optimize_minmax(1.0, CFG)
    assert e_mm == pytest.approx(-0.50648, abs=2e-4)
    assert e_mm > -0.51330


def test_optimize_ion_triplet_helium():
    spec = hminus_spec(z=2.0, epsilon=-1)
    res = solve.optimize_ion(spec, 1, LIGHT)
    assert res.energy == pytest.approx(-2.16153, abs=5e-4)
    assert res.stable
    assert res.virial_ratio == pytest.approx(1.0, abs=1e-6)


def test_scan_frozen_minimum():
    rows, (b0, e0) = solve.scan_frozen(1.0)
    assert b0 == pytest.approx(0.2789, abs=1e-3)
    assert e0 == pytest.approx(-0.512589, abs=1e-5)
    assert len(rows) > 50


def test_scan_contour_exchange_symmetric():
    a_vals, b_vals, E = solve.scan_contour(
        1.0, a_range=(0.3, 0.9), b_range=(0.3, 0.9), grid=(7, 7))
    assert np.allclose(E, E.T, rtol=1e-10)


def test_scan_asym3_symmetric_point_matches_pair():
    recs = solve.scan_asym3([1.0], LIGHT)
    assert recs[0]["energy"] == pytest.approx(-0.51330, abs=5e-4)
    assert recs[0]["stable"]


def test_optimize_ps2():
    e, beta = solve.optimize_ps2()
    assert e == pytest.approx(-0.504233, abs=1e-5)
    assert beta == pytest.approx(0.6948, abs=1e-3)


def test_un_lowest_rejects_near_duplicate_basis():
    # nearly identical vector terms amplify element round-off through the
    # overlap inverse; the condition cap must refuse them
    spec = hminus_spec(z=1.0, sector=UNNATURAL)
    t0 = (0.5, 0.22, -0.03)
    t1 = (0.5, 0.22 + 2e-8, -0.03)
    with pytest.raises(matel3.CancellationError):
        solve._un_lowest([t0, t1], spec)


def test_un_single_term_hminus_does_not_bind():
    spec = hminus_spec(z=1.0, sector=UNNATURAL)
    e, _ = solve._un_lowest([(0.477, 0.213, -0.060)], spec)
    assert e > -0.125
    assert e == pytest.approx(-0.124638, abs=1e-4)


def test_four_spec_modes():
    s = solve._four_spec("cc-break", 3.0)
    assert s.inv_masses == pytest.approx((0.5, 0.5, 1.5, 1.5))
    s2 = solve._four_spec("identity-break", 3.0)
    assert s2.inv_masses == pytest.approx((0.5, 1.5, 0.5, 1.5))
    with pytest.raises(ValueError):
        solve._four_spec("bogus", 1.0)


def test_scan_mass4_records_report_the_search():
    rec, = solve.scan_mass4([1.0], "identity-break",
                            MinimizerConfig(restarts=1, max_iter=30))
    assert isinstance(rec["nfev"], int) and rec["nfev"] > 0
    assert isinstance(rec["converged"], bool)


def test_molecule_result_ps2():
    res = solve.molecule_result("ps2", 1.0, LIGHT)
    assert res.energy == pytest.approx(-0.504233, abs=1e-5)
    assert res.stable
    assert res.margin == pytest.approx(0.008465, abs=1e-5)


@pytest.mark.parametrize("mode", ["cc-break", "identity-break"])
def test_molecule_result_measures_virial_ratio(mode, monkeypatch):
    # the virial ratio comes from the optimum's eigenvector: 1 at the
    # optimal scale up to the scale search's tolerance, and whatever
    # _virial_ratio reports is what the result carries
    cfg = MinimizerConfig(restarts=1, max_iter=30)
    res = solve.molecule_result(mode, 1.7, cfg)
    assert res.virial_ratio == pytest.approx(1.0, abs=1e-6)
    assert len(res.coeffs) == (1 if mode == "cc-break" else 2)
    assert np.all(np.isfinite(res.coeffs))
    monkeypatch.setattr(solve, "_virial_ratio", lambda block, c, lam: 0.25)
    assert solve.molecule_result(mode, 1.7, cfg).virial_ratio == 0.25
