"""Variational engine: eigensolves, scale handling, optimizers, scans."""

import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq, minimize, minimize_scalar

from coulomb2e import matel3, matel4, solve
from coulomb2e.model import MatBlock, SystemSpec, hminus_spec, UNNATURAL
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
    # dense grid beats by 9.8 % (ROADMAP item 5)
    e, lam = scaled_lowest(
        matel3.natural_matblock(HM_LOCAL_TERMS, hminus_spec(z=1.0)))
    e_of = _hm_local_energy()
    grid = min(e_of(x) for x in np.geomspace(0.05, 50.0, 3000))
    assert e > grid + 0.05 * abs(grid)
    assert e == pytest.approx(-0.4677059591, abs=1e-9)


def _scaled_lowest_ref(block, floor=1e-12, bounds=(0.05, 50.0), pencil=_pencil):
    # scipy's bounded Brent over the lowest eigenvalue: the rotation step for
    # two directions, the trigonometric step for three, np.linalg.eigvalsh
    # otherwise
    Tt, Vt = pencil(block, floor)
    f = (solve._step2(*solve._lower2(Tt, Vt), 0) if len(Tt) == 2
         else solve._step3(Tt, Vt) if len(Tt) == 3
         else lambda lam: np.linalg.eigvalsh(lam * lam * Tt + lam * Vt)[0])
    r = minimize_scalar(f, bounds=bounds, method="bounded", options=dict(xatol=1e-12))
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


def _float_pencil(block, floor=1e-12):
    # the pencil of the Python-float reduction (one or two terms)
    assert len(block.n_mat) <= 2
    return solve._reduce(block, floor)[1:3]


def _certified(block, floor=1e-12, bounds=(0.05, 50.0)):
    # the closed-form scale of a block with two kept directions, or None
    return solve._scale2(*solve._lower2(*_float_pencil(block, floor)), *bounds)


def test_scaled_lowest_matches_scipy_eigvalsh_reference():
    # scipy's bounded Brent: the same (E, lam) to the bit, over the LAPACK
    # pencil from three terms on (stepped by the trigonometric step for three
    # directions, np.linalg.eigvalsh for more), and over the rotation step on
    # the Python-float pencil of two terms that _scale2 declines (the
    # certified ones are checked against scipy and a grid in
    # test_closed_form_scale_against_brent_and_a_grid)
    sample = [(b, kw) for b, kw in _sample_blocks() if len(b.n_mat) >= 2]
    sample.append((matel3.natural_matblock(HM_LOCAL_TERMS, hminus_spec(z=1.0)), {}))
    assert {len(b.n_mat) for b, _ in sample} == {2, 3, 8}
    declined2 = 0
    for block, kw in sample:
        pencil = _float_pencil if len(block.n_mat) == 2 else _pencil
        assert len(pencil(block, kw.get("floor", 1e-12))[0]) == len(block.n_mat)
        if len(block.n_mat) == 2:
            if _certified(block, **kw) is not None:
                continue
            declined2 += 1
        assert scaled_lowest(block, **kw) == _scaled_lowest_ref(block, **kw, pencil=pencil)
    assert declined2 >= 1


def test_one_direction_scale_is_the_clipped_vertex():
    # one kept direction: lam^2 t + lam v has its minimum at -v / (2 t),
    # clipped to the bounds; no search runs.  scipy's bounded Brent search
    # lands within its tolerance of the same point, a few ulp higher at best
    sample = [(b, kw) for b, kw in _sample_blocks() if len(b.n_mat) == 1]
    assert len(sample) == 6
    for block, kw in sample:
        (t,), (v,) = (m.ravel().tolist() for m in _float_pencil(block, kw.get("floor", 1e-12)))
        lo, hi = kw.get("bounds", (0.05, 50.0))
        lam = min(max(-v / (2.0 * t), lo), hi)
        e = scaled_lowest(block, **kw)
        assert e == (lam * lam * t + lam * v, lam)
        e_ref, lam_ref = _scaled_lowest_ref(block, **kw)
        assert e[0] <= e_ref + 4 * math.ulp(e_ref)
        assert abs(lam - lam_ref) <= 1e-7 * lam_ref
    # the clip, and a pencil without a minimum: the lower edge value
    blk = lambda t, v: MatBlock(np.eye(1), np.array([[t]]), np.array([[v]]))
    assert scaled_lowest(blk(1.0, -200.0)) == (50.0 * 50.0 - 200.0 * 50.0, 50.0)
    assert scaled_lowest(blk(1.0, 0.02)) == (0.05 * 0.05 + 0.02 * 0.05, 0.05)
    assert scaled_lowest(blk(0.0, -1.0)) == (-50.0, 50.0)
    assert scaled_lowest(blk(-1.0, 100.0)) == (0.05 * 0.05 * -1.0 + 0.05 * 100.0, 0.05)
    assert scaled_lowest(blk(1.0, -1.0), k=1) == (solve._BIG, 1.0)


def _two_direction_sample():
    # seeded blocks that keep two directions, with their scaled_lowest
    # keywords: natural n = 2 (eps = +-1, Z = 1 and 2, infinite and finite
    # mass), 1+ n = 2 and identity-break at ratios 1 and 1.7
    rng = np.random.default_rng(29)
    out = []
    for eps in (+1, -1):
        for z in (1.0, 2.0):
            for mass in (float("inf"), 7.3):
                spec = hminus_spec(z=z, mass_ratio=mass, epsilon=eps)
                for _ in range(20):
                    terms = [tuple(rng.uniform((0.3, 0.1, -0.05), (2.5, 1.5, 0.3)))
                             for _ in range(2)]
                    out.append((matel3.natural_matblock(terms, spec), {}))
    un = hminus_spec(z=1.0, sector=UNNATURAL)
    for _ in range(20):
        terms = [tuple(rng.uniform((0.2, 0.1, -0.05), (1.5, 0.8, 0.1))) for _ in range(2)]
        out.append((matel3.unnatural_matblock(terms, un), {}))
    four = dict(floor=1e-11, bounds=(0.02, 50.0))
    for ratio in (1.0, 1.7):
        for _ in range(15):
            groups = solve._four_groups("identity-break", rng.uniform((0.5, 0.05), (1.2, 0.4)))
            out.append((matel4.assemble4(groups, solve._four_spec("identity-break", ratio)),
                        four))
    return [(b, kw) for b, kw in out if len(_float_pencil(b, kw.get("floor", 1e-12))[0]) == 2]


def _scale2_corners(block):
    # two minima (HM_LOCAL_TERMS), decoupled pencils with one and with two
    # minima, V proportional to T (and both to 1) or to 1 alone (D is then
    # its first harmonic), the optimum 1e-9 inside and 1e-9 outside either
    # bound, and entries near 1e-120 and 1e140; block is a certified one
    pencil = lambda T, V: MatBlock(np.eye(2), np.array(T), np.array(V))
    lam = _certified(block)
    T, V = _float_pencil(block)
    return [(matel3.natural_matblock(HM_LOCAL_TERMS, hminus_spec(z=1.0)), {}),
            (pencil([[1.0, 0.0], [0.0, 0.5]], [[-2.0, 0.0], [0.0, -0.5]]), {}),
            (pencil([[1.0, 0.0], [0.0, 0.04]], [[-2.0, 0.0], [0.0, -0.38]]), {}),
            (pencil([[1.3, 0.2], [0.2, 0.7]], [[-2.47, -0.38], [-0.38, -1.33]]), {}),
            (pencil([[0.8, 0.0], [0.0, 0.8]], [[-1.1, 0.0], [0.0, -1.1]]), {}),
            (pencil([[1.3, 0.2], [0.2, 0.7]], [[-1.1, 0.0], [0.0, -1.1]]), {}),
            (block, dict(bounds=(lam - 1e-9, 50.0))), (block, dict(bounds=(0.05, lam + 1e-9))),
            (block, dict(bounds=(lam + 1e-9, 50.0))), (block, dict(bounds=(0.05, lam - 1e-9))),
            (pencil(T * 1e-119, V * 1e-119), {}), (pencil(T * 1e139, V * 1e139), {})]


def _grid_lows(Tt, Vt, lo, hi, n=20_000):
    # E on an n-point log grid of [lo, hi] and its local minima, edges included
    lams = np.geomspace(lo, hi, n)
    L = lams[:, None, None]
    e = np.linalg.eigvalsh(L * L * Tt + L * Vt)[:, 0]
    lows = np.flatnonzero(np.r_[True, e[1:] < e[:-1]] & np.r_[e[:-1] <= e[1:], True])
    return lams, lows


def test_closed_form_scale_against_brent_and_a_grid():
    # where _scale2 answers, E has one local minimum on a 20 000-point log
    # grid of the box, and scaled_lowest's (E, lam) lies within 4 ulp of
    # scipy's bounded Brent over the rotation step and of the grid minimum
    # refined by it over np.linalg.eigvalsh (E), and within 1e-7 relative of
    # Brent's scale; where it declines (every block whose grid shows two
    # minima), scaled_lowest is scipy's Brent to the bit
    sample = _two_direction_sample()
    assert len(sample) >= 200
    sample += _scale2_corners(sample[0][0])
    counts = dict(certified=0, declined=0, two_minima=0)
    for block, kw in sample:
        floor, (lo, hi) = kw.get("floor", 1e-12), kw.get("bounds", (0.05, 50.0))
        Tt, Vt = _float_pencil(block, floor)
        lam = solve._scale2(*solve._lower2(Tt, Vt), lo, hi)
        got, ref = scaled_lowest(block, **kw), _scaled_lowest_ref(block, **kw, pencil=_float_pencil)
        lams, lows = _grid_lows(Tt, Vt, lo, hi)
        counts["two_minima"] += len(lows) > 1
        if lam is None:
            counts["declined"] += 1
            assert got == ref
            continue
        counts["certified"] += 1
        assert len(lows) == 1 and got[1] == lam
        i = lows[0]
        grid = minimize_scalar(lambda x: np.linalg.eigvalsh(x * x * Tt + x * Vt)[0],
                               bounds=(lams[max(i - 1, 0)], lams[min(i + 1, len(lams) - 1)]),
                               method="bounded", options=dict(xatol=1e-12)).fun
        for e in (ref[0], grid):
            assert abs(got[0] - e) <= 4 * math.ulp(e)
        assert abs(lam - ref[1]) <= 1e-7 * ref[1]
    assert counts["certified"] >= 150 and counts["two_minima"] >= 2, counts


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_form_scale_declines_a_non_finite_pencil(bad):
    # a NaN or infinite entry of a reduced two-direction pencil: _scale2
    # declines and the Brent path runs as before, LinAlgError included (a
    # block with such an entry raises it in the reduction already)
    def brent(*mats):
        lam, e, _ = solve._fminbound(solve._step2(*solve._lower2(*mats), 0),
                                     0.05, 50.0, 1e-12)
        return e, lam

    raised = 0
    for i, j in ((0, 0), (1, 0), (1, 1)):
        for which in (0, 1):
            mats = [[[1.0, 0.0], [0.2, 0.7]], [[-2.0, 0.0], [-0.3, -1.1]]]
            mats[which][i][j] = bad
            assert solve._scale2(*solve._lower2(*mats), 0.05, 50.0) is None
            with np.errstate(invalid="ignore"):
                got = _outcome(solve._lowest_over_scale, *mats, 0)
                assert got == _outcome(brent, *mats)
            raised += got == np.linalg.LinAlgError
            with pytest.raises(np.linalg.LinAlgError):
                scaled_lowest(MatBlock(np.eye(2), *map(np.array, mats)))
    assert raised >= 1


def test_closed_form_scale_is_blind_to_the_pencil_magnitude(monkeypatch):
    # the quartic discriminant is of degree 12 in the entries, so _scale2
    # divides them by a power of two first: a certified pencil times 2^k
    # gets the same scale to the bit, and the pencils of an H- N = 2 search,
    # which need the discriminant, stay certified at 1e-30 and 1e30 (they
    # were declined there, and Brent ran, before that division)
    seen, scale2 = [], solve._scale2
    monkeypatch.setattr(solve, "_scale2", lambda *a: seen.append(a) or scale2(*a))
    solve.optimize_ion(hminus_spec(z=1.0), 2, LIGHT)
    monkeypatch.undo()
    hminus = [(a, lam) for a in seen if (lam := scale2(*a)) is not None]
    assert len(hminus) >= 100
    sample = [(solve._lower2(*_float_pencil(b, kw.get("floor", 1e-12)))
               + list(kw.get("bounds", (0.05, 50.0)))) for b, kw in _two_direction_sample()]
    certified = hminus + [(a, lam) for a in sample if (lam := scale2(*a)) is not None]
    assert len(certified) >= 250
    for a, lam in certified:
        for k in (-300, -100, 100, 300):
            assert scale2(*[x * 2.0 ** k for x in a[:6]], *a[6:]) == lam
    for a, lam in hminus:
        for f in (1e-30, 1e30):
            got = scale2(*[x * f for x in a[:6]], *a[6:])
            assert got is not None and abs(got - lam) <= 1e-12 * lam


# c of the a priori bound c eps cond(N) (max |e| + |H| / |N|) on the
# difference of the two reductions' eigenvalues: the Jacobi or dsyevd
# eigenpairs of N are backward stable (a few eps |N|), a 2 x 2 congruence
# adds a few eps |x|^2 |H| with |x|^2 = 1 / w_min, and both sides err;
# first-order perturbation of the pencil then gives a handful of eps times
# cond(N) times the size.  c = 64 is set a priori from this estimate, not
# fitted to the sample.
_REDUCE_C = 64


def _overlaps2(rng):
    # 2 x 2 overlaps with the corners of the rotation and the floor
    def rot(th, w0, w1):
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        return R @ np.diag([w0, w1]) @ R.T

    out = [np.diag([2.0, 0.5]), np.diag([0.5, 2.0]),          # zero coupling
           np.array([[1.3, 0.4], [0.4, 1.3]]),                # equal diagonals
           np.array([[1.3, -0.9], [-0.9, 1.3]]),
           np.array([[1.3, 1e-300], [1e-300, 0.7]]),          # a 1e-300 coupling
           np.array([[0.7, 1e-300], [1e-300, 0.7]])]
    # w0 / w1 on both sides of the 1e-12 and 1e-11 floors, and near-dependent
    # pairs with cond(N) from 1e8 to 3e11; each ratio sits 1.5x or more off
    # a floor, where w0's own rounding (eps cond(N) relative) cannot move it
    for ratio in (3e-13, 3e-12, 1.5e-11, 3e-11, 1e-10, 1e-9, 1e-8):
        for _ in range(6):
            out.append(rot(rng.uniform(0.0, math.pi), ratio * 1.7, 1.7))
    for _ in range(40):
        A = rng.standard_normal((2, 2))
        out.append(A @ A.T + 0.05 * np.eye(2))
    return out


def test_float_reduction_matches_the_lapack_pencil():
    # the Python-float reduction of one- and two-term blocks against dsyevd
    # plus matmuls (_pencil): the same kept directions, and the eigenvalues
    # of lam^2 Tt + lam Vt within the a priori bound at three scales
    rng = np.random.default_rng(26)
    blocks = [(b, kw.get("floor", 1e-12)) for b, kw in _sample_blocks()
              if len(b.n_mat) <= 2]
    for delta in (1e-4, 1e-5, 3e-6):                          # near-dependent terms
        terms = [(1.07, 0.45, 0.05), (1.07 + delta, 0.45, 0.05 + delta)]
        blocks.append((matel3.natural_matblock(terms, hminus_spec(z=1.0)), 1e-12))
    for N in _overlaps2(rng):
        B = rng.standard_normal((2, 2))
        T, V = B @ B.T + 0.1 * np.eye(2), -(np.abs(B) + np.abs(B).T)
        blocks += [(MatBlock(N, T, V), floor) for floor in (1e-12, 1e-11)]
    conds = []
    for block, floor in blocks:
        X, Tt, Vt, w = solve._reduce(block, floor)
        Tr, Vr = _pencil(block, floor)
        assert Tt.shape == Tr.shape
        wr = np.linalg.eigvalsh(block.n_mat)
        assert np.allclose(w, wr, rtol=0, atol=8 * 2.0 ** -52 * wr[-1])
        if not len(Tt):
            continue
        cond = wr[-1] / wr[len(wr) - len(Tt)]
        conds.append(cond)
        for lam in (0.05, 1.0, 50.0):
            H = lam * lam * np.asarray(block.t_mat) + lam * np.asarray(block.v_mat)
            e, er = (np.linalg.eigvalsh(lam * lam * a + lam * b) for a, b in
                     ((Tt, Vt), (Tr, Vr)))
            size = np.abs(er).max() + np.linalg.norm(H, 2) / wr[-1]
            assert np.all(np.abs(e - er) <= _REDUCE_C * 2.0 ** -52 * cond * size)
    assert max(conds) > 1e10 and min(conds) < 10


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _matrices2(rng, n):
    # n seeded 2 x 2 matrices, not symmetric (the step reads the lower
    # triangle), entries of either sign over e^-8 .. e^8, every ninth one a
    # corner: equal diagonals, d2 = -d1, zero coupling, coupling times 1e-9,
    # diagonals equal to 1e-12 relative, coupling at dsterf's split test
    # (sqrt|d1| sqrt|d2| eps), |d1 - d2| = |2e| (dlae2's tie), and a coupling
    # whose square is subnormal, so that sqrt(e^2) need not be |e|
    m = rng.choice([-1.0, 1.0], (n, 2, 2)) * np.exp(rng.uniform(-8.0, 8.0, (n, 2, 2)))
    d1, e, d2 = m[:, 0, 0], m[:, 1, 0], m[:, 1, 1]
    c = np.arange(n) % 9
    d2[c == 1] = d1[c == 1]
    d2[c == 2] = -d1[c == 2]
    e[c == 3] = 0.0
    e[c == 4] *= 1e-9
    d2[c == 5] = d1[c == 5] * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, (c == 5).sum()))
    s = c == 6
    e[s] = np.sqrt(np.abs(d1[s] * d2[s])) * 2.0 ** -53 * rng.uniform(0.5, 2.0, s.sum())
    e[c == 7] = 0.5 * (d1[c == 7] - d2[c == 7])
    s = c == 8
    d1[s] *= np.exp(rng.uniform(-265.0, -240.0, s.sum()))
    d2[s] *= np.exp(rng.uniform(-680.0, -460.0, s.sum()))
    e[s] *= np.exp(rng.uniform(-380.0, -357.0, s.sum()))
    return m


_EPS = np.finfo(float).eps


def _exact2(m):
    # both eigenvalues of each 2 x 2 (its lower triangle a, b, d), ascending:
    # (a + d)/2 -+ sqrt(((a - d)/2)^2 + b^2) in 60-digit mpmath
    out = []
    with mpmath.workdps(60):
        for (a, _), (b, d) in np.asarray(m).reshape(-1, 2, 2).tolist():
            a, b, d = map(mpmath.mpf, (a, b, d))
            h, r = (a + d) / 2, mpmath.sqrt(((a - d) / 2) ** 2 + b * b)
            out.append((h - r, h + r))
    return out


def _step_error(got, m, exact=None):
    # the largest |got - exact| over each matrix and k = 0, 1, in units of
    # eps max|entry| of that matrix's lower triangle; got[i][k] is the k-th
    # eigenvalue of m[i]
    m = np.asarray(m).reshape(-1, 2, 2)
    sizes = _EPS * np.abs(np.tril(m)).max(axis=(1, 2))
    return max(float(abs(mpmath.mpf(g) - x)) / s for gs, xs, s in
               zip(np.reshape(got, (-1, 2)).tolist(), exact or _exact2(m), sizes)
               for g, x in zip(gs, xs))


def _steps2(m, lam=1.0):
    # both rotation steps of each matrix of m, as the pencil (m, 0) at lam
    zero = np.zeros((2, 2))
    return [[solve._step2(*solve._lower2(a, zero), k)(lam) for k in (0, 1)] for a in m]


def _spy_gufunc(monkeypatch):
    # the order of every matrix the scale steps hand to the gufunc
    calls, gufunc = [], solve._eigvalsh_lo
    monkeypatch.setattr(solve, "_eigvalsh_lo", lambda a, signature:
                        calls.append(len(a)) or gufunc(a, signature=signature))
    return calls


def _matrices3(rng, n):
    # n seeded 3 x 3 matrices, not symmetric (the step reads the lower
    # triangle), entries of either sign over e^-8 .. e^8, every eighth one a
    # corner: a near-degenerate lowest pair and a near-degenerate upper pair
    # (Q diag(l) Q^T, the pair split by 1e-16 .. 1e-1 of the spread, or one
    # time in five not at all), a diagonal, a decoupled direction (its
    # couplings zero), and entries near 1e300 and near 1e-300
    m = rng.choice([-1.0, 1.0], (n, 3, 3)) * np.exp(rng.uniform(-8.0, 8.0, (n, 3, 3)))
    c = np.arange(n) % 8
    for i in np.flatnonzero((c == 1) | (c == 2)):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        l0, spread = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        gap = 0.0 if rng.random() < 0.2 else spread * 10.0 ** rng.uniform(-16.0, -1.0)
        m[i] = (q * ([l0, l0 + gap, l0 + spread] if c[i] == 1
                     else [l0 - spread, l0, l0 + gap])) @ q.T
    m[c == 3] *= np.eye(3)
    for i in np.flatnonzero(c == 4):
        j = rng.integers(3)
        m[i, j, :] *= np.eye(3)[j]
        m[i, :, j] *= np.eye(3)[j]
    s = c >= 6
    m[s] /= np.abs(m[s]).max(axis=(1, 2))[:, None, None]
    m[c == 6] *= 1e300
    m[c == 7] *= 1e-300
    return m


def _exact3(m):
    # the lowest eigenvalue of each 3 x 3 (its lower triangle) in 60-digit
    # mpmath by the trigonometric formula, q + 2 p cos(acos(r) / 3 + 2 pi / 3),
    # which at that precision stays within 1e-29 p of it even at a double
    # root (acos amplifies the 1e-60 error of r to its square root)
    out = []
    with mpmath.workdps(60):
        for (a, _, _), (b, d, _), (c, e, f) in np.asarray(m).reshape(-1, 3, 3).tolist():
            a, b, c, d, e, f = map(mpmath.mpf, (a, b, c, d, e, f))
            q = (a + d + f) / 3
            a0, d0, f0 = a - q, d - q, f - q
            p = mpmath.sqrt((a0 * a0 + d0 * d0 + f0 * f0 + 2 * (b * b + c * c + e * e)) / 6)
            r = ((a0 * (d0 * f0 - e * e) - b * (b * f0 - e * c) + c * (b * e - d0 * c))
                 / (2 * p ** 3))
            out.append(q + 2 * p * mpmath.cos(mpmath.acos(min(max(r, -1), 1)) / 3
                                              + 2 * mpmath.pi / 3))
    return out


def _low_error(got, m, exact=None):
    # the largest |got - exact| of the lowest eigenvalues, in units of
    # eps max|entry| of each matrix's lower triangle
    m = np.asarray(m).reshape(-1, 3, 3)
    sizes = _EPS * np.abs(np.tril(m)).max(axis=(1, 2))
    return max(float(abs(mpmath.mpf(g) - x)) / s
               for g, x, s in zip(np.ravel(got).tolist(), exact or _exact3(m), sizes))


def _steps3(m, lam=1.0):
    # the three-direction step of each matrix of m, as the pencil (m, 0) at lam
    zero = np.zeros((3, 3))
    return [solve._step3(a, zero)(lam) for a in m]


# the bound, in eps max|entry|, that numpy's gufunc meets on the lowest
# eigenvalue of the 3 x 3s of the test below (its largest error there is
# 8.60, on the 1e300 corner; 9.28 on 100 000 of _matrices3 of other seeds)
_BOUND3 = 10.0


def test_scale_step_is_within_2eps_of_the_exact_eigenvalues(monkeypatch):
    # the two-direction step, one Jacobi rotation on Python floats, lands
    # within 2 eps max|entry| of the exact eigenvalues, k = 0 and 1, as
    # LAPACK's gufunc does on the same matrices, and never calls the gufunc
    # (on 100 000 matrices of other seeds the rotation's largest error was
    # 1.73 eps, the gufunc's 2.10).  The three-direction step of the lowest
    # eigenvalue (Smith's formula and one Newton step, or the gufunc where it
    # declines) lands within _BOUND3 eps max|entry| of it, as the gufunc does
    # on the same matrices.  Where the step did not decline its largest
    # error was 1.08 eps on the 3 000 of _matrices3 and 1.50 on the whole
    # steps of 400 pencils below, the gufunc's on the same matrices 6.83 and
    # 7.99.  For k >= 1 and from four directions on the step is the gufunc,
    # np.linalg.eigvalsh's values to the bit
    rng = np.random.default_rng(13)
    m = _matrices2(rng, 8_000)
    exact = _exact2(m)
    calls = _spy_gufunc(monkeypatch)
    got = _steps2(m)
    assert calls == []
    assert _step_error(got, m, exact) <= 2.0
    assert _step_error(solve._eigvalsh_lo(m, signature="d->d"), m, exact) <= 2.0
    m3 = _matrices3(np.random.default_rng(34), 3_000)
    exact3 = _exact3(m3)
    with mpmath.workdps(60):        # the reference against mpmath's own eigensolver
        for a, x in zip(m3[:24], exact3):
            ref = min(mpmath.eigsy(mpmath.matrix(np.tril(a) + np.tril(a, -1).T),
                                   eigvals_only=True))
            assert abs(ref - x) <= mpmath.mpf(1e-25) * np.abs(a).max()
    got = _steps3(m3)
    assert np.isfinite(got).all() and _low_error(got, m3, exact3) <= _BOUND3
    assert _low_error(solve._eigvalsh_lo(m3, signature="d->d")[:, 0], m3, exact3) <= _BOUND3
    for block, kw in _sample_blocks():
        Tt, Vt = _pencil(block, kw.get("floor", 1e-12))
        for lam in (0.05, 0.37, 1.0, 2.9, 50.0):
            if len(Tt) == 2:
                got = [solve._step2(*solve._lower2(Tt, Vt), k)(lam) for k in (0, 1)]
                assert _step_error(got, lam * lam * Tt + lam * Vt) <= 2.0
            elif len(Tt) > 2:
                ref = np.linalg.eigvalsh(lam * lam * Tt + lam * Vt)
                for k in (0, 1):
                    assert _bits(solve._scale_step(Tt, Vt, k)(lam)) == _bits(ref[k])
                if len(Tt) == 3:
                    got = solve._step3(Tt, Vt)(lam)
                    assert _low_error([got], lam * lam * Tt + lam * Vt) <= _BOUND3
    # whole steps, lam^2 T + lam V rounded as numpy rounds it and then the
    # eigenvalue: 1 000 pencils of two directions, 4 000 of three (the
    # entries drawn as _matrices2 draws them) and 1 000 of four, five scales
    # each; the three-direction step of the lowest eigenvalue on 400 pencils
    # of _matrices3
    lams = np.exp(rng.uniform(np.log(0.02), np.log(50.0), (4_000, 5)))
    L = lams[..., None, None]
    T, V = (_matrices2(rng, 1_000) for _ in "TV")
    got = [[solve._step2(*solve._lower2(t, v), k)(lam) for lam in row for k in (0, 1)]
           for t, v, row in zip(T, V, lams.tolist())]
    M = L[:1_000] * L[:1_000] * T[:, None] + L[:1_000] * V[:, None]
    assert _step_error(got, M) <= 2.0
    samples = [(lams, *(rng.choice([-1.0, 1.0], (4_000, 3, 3))
                         * np.exp(rng.uniform(-8.0, 8.0, (4_000, 3, 3))) for _ in "TV"))]
    rng = np.random.default_rng(36)
    samples.append((np.exp(rng.uniform(np.log(0.02), np.log(50.0), (1_000, 5))),
                    *(rng.choice([-1.0, 1.0], (1_000, 4, 4))
                      * np.exp(rng.uniform(-8.0, 8.0, (1_000, 4, 4))) for _ in "TV")))
    for lams, T, V in samples:
        L = lams[..., None, None]
        ref = solve._eigvalsh_lo(L * L * T[:, None] + L * V[:, None], signature="d->d")
        for k in (0, 1):
            steps = (solve._scale_step(t, v, k) for t, v in zip(T, V))
            got = [[f(lam) for lam in row] for f, row in zip(steps, lams.tolist())]
            assert np.array_equal(_bits(got), _bits(ref[..., k]))
    T, V = (_matrices3(rng, 400) for _ in "TV")
    M = L[:400] * L[:400] * T[:, None] + L[:400] * V[:, None]
    got = [[solve._step3(t, v)(lam) for lam in row] for t, v, row in zip(T, V, lams.tolist())]
    assert _low_error(got, M) <= _BOUND3
    assert _low_error(solve._eigvalsh_lo(M, signature="d->d")[..., 0], M) <= _BOUND3


def test_scale_step_scales_exactly_and_raises_on_a_non_finite_pencil(monkeypatch):
    # with no gufunc call: the pencil times 2^j steps to the step times 2^j
    # to the bit (|j| <= 300; the subnormal corner of _matrices2 is left out,
    # as its entries would round), entries near 1e-300 and 1e300 step to
    # finite values within 2 eps max|entry|, and a NaN or infinite entry
    # raises LinAlgError
    calls = _spy_gufunc(monkeypatch)
    rng = np.random.default_rng(32)
    n = 9 * 150
    keep = np.arange(n) % 9 != 8
    T, V = (_matrices2(rng, n)[keep] for _ in "TV")
    lams = np.exp(rng.uniform(np.log(0.02), np.log(50.0), len(T))).tolist()
    for t, v, lam in zip(T, V, lams):
        pencil = solve._lower2(t, v)
        for k in (0, 1):
            e = solve._step2(*pencil, k)(lam)
            for j in (-300, -100, 100, 300):
                f = 2.0 ** j
                assert solve._step2(*[x * f for x in pencil], k)(lam) == e * f
    m = _matrices2(rng, n)[keep]
    m /= np.abs(np.tril(m)).max(axis=(1, 2))[:, None, None]
    for size in (1e-300, 1e300):
        got = _steps2(m * size)
        assert np.isfinite(got).all() and _step_error(got, m * size) <= 2.0
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(6):
            pencil = [1.0, 0.2, 0.7, -2.0, -0.3, -1.1]
            pencil[i] = bad
            for k in (0, 1):
                with pytest.raises(np.linalg.LinAlgError):
                    solve._step2(*pencil, k)(1.0)
    assert calls == []


def test_three_direction_step_declines_to_the_gufunc_and_scales_exactly(monkeypatch):
    # a declined step is the gufunc's value to the bit (the near-degenerate
    # lowest pairs and the 1e+-300 corners of _matrices3 decline); where the
    # step does not decline, the pencil times 2^j steps to the step times 2^j
    # to the bit (|j| <= 200, which keeps |A|_F^2 / 3 inside 2^+-600); a
    # NaN or infinite entry raises LinAlgError
    calls = _spy_gufunc(monkeypatch)
    rng = np.random.default_rng(35)
    zero = np.zeros((3, 3))
    pencils = [(m, zero, 1.0) for m in _matrices3(rng, 800)]
    T, V = (_matrices3(rng, 800) for _ in "TV")
    pencils += zip(T, V, np.exp(rng.uniform(np.log(0.02), np.log(50.0), 800)).tolist())
    declined = scaled = 0
    for i, (t, v, lam) in enumerate(pencils):
        before = len(calls)
        with np.errstate(divide="ignore"):      # dsyevd on the 1e-300 corners
            e = solve._step3(t, v)(lam)
            if len(calls) > before:
                declined += 1
                assert _bits(e) == _bits(solve._scale_step(t, v, 0)(lam))
                continue
        for j in (-200, -50, 50, 200) if i % 8 < 6 else ():
            f = 2.0 ** j
            assert solve._step3(t * f, v * f)(lam) == e * f
            scaled += 1
        assert len(calls) == before
    assert declined >= 100 and scaled >= 4 * 1_000, (declined, scaled)
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
            for which in (0, 1):
                mats = [np.eye(3) + 0.2, -np.eye(3) - 0.1]
                mats[which][i, j] = bad
                with np.errstate(all="ignore"):
                    with pytest.raises(np.linalg.LinAlgError):
                        solve._step3(*mats)(1.0)


@pytest.mark.parametrize("n, bad", [(1, np.nan), (2, np.nan), (2, np.inf),
                                    (2, -np.inf)])
def test_scaled_lowest_raises_on_a_non_finite_entry(n, bad):
    # a NaN or infinite element raises LinAlgError, as a failed dsyevd does:
    # in the two-term reduction, and for one term in the vertex
    T = 0.5 * np.eye(n)
    T[n - 1, 0] = T[0, n - 1] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            scaled_lowest(MatBlock(np.eye(n), T, -np.eye(n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scaled_lowest_rejects_a_bad_k(n):
    # k must be an int >= 0 at every size: -1 is not the highest eigenvalue,
    # and neither 1.0 nor True is 1
    blk = matel3.natural_matblock(solve._NAT_SEEDS[2.0, +1, n, 0], hminus_spec(z=2.0))
    for k in (-1, 1.0, True, None, "0"):
        with pytest.raises(ValueError, match="k must be an int >= 0"):
            scaled_lowest(blk, k=k)
    assert scaled_lowest(blk, k=0)[0] < 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scaled_lowest_and_gen_eig_reject_a_bad_box_or_floor(n):
    # 0 < lo < hi < inf and 0 <= floor < 1 at every size: an inverted box
    # returned a scale outside it, a NaN edge a number, an infinite one a
    # LinAlgError (a refusal to minimize_nm), and floor = 1 (1e6, 1.0)
    blk = matel3.natural_matblock(solve._NAT_SEEDS[2.0, +1, n, 0], hminus_spec(z=2.0))
    for bounds in ((1.0, 0.5), (0.5, 0.5), (np.nan, 1.0), (0.05, np.nan),
                   (0.05, np.inf), (0.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="bounds must satisfy"):
            scaled_lowest(blk, bounds=bounds)
    for floor in (1.0, 2.0, -1e-12, np.nan, np.inf):
        with pytest.raises(ValueError, match="floor must lie in"):
            scaled_lowest(blk, floor=floor)
        with pytest.raises(ValueError, match="floor must lie in"):
            gen_eig(blk, floor)
    e, lam = scaled_lowest(blk, floor=0.0, bounds=(0.5, 1.0))
    assert e < 0 and 0.5 <= lam <= 1.0
    assert len(gen_eig(blk, 0.0)[0]) == n


# an H- basis of four terms that keeps four overlap directions
_FOUR_TERMS = solve._NAT_SEEDS[1.0, +1, 3, 0] + [(0.4, 0.2, 0.01)]


def test_small_pencils_skip_the_gufunc_and_larger_ones_use_it(monkeypatch):
    # one and two terms: no LAPACK call at all, neither for the overlap
    # (_dsyevd) nor for the scale steps (_eigvalsh_lo), in scaled_lowest,
    # the 1+ _un_lowest and _reduce; three terms call dsyevd for the overlap
    # and the gufunc only on a declined step (a pencil whose lowest pair is
    # degenerate at every scale declines every step); four terms call both
    calls, dsyevd = _spy_gufunc(monkeypatch), solve._dsyevd
    monkeypatch.setattr(solve, "_dsyevd", lambda gufunc, a, signature: (
        calls.append(("dsyevd", len(a))) or dsyevd(gufunc, a, signature)))
    spec, un = hminus_spec(z=1.0), hminus_spec(z=1.0, sector=UNNATURAL)
    for n in (1, 2):
        blk = matel3.natural_matblock(solve._NAT_SEEDS[1.0, +1, n, 0], spec)
        assert solve._reduce(blk, 1e-12)[0].shape == (n, n)
        scaled_lowest(blk)
        assert solve._un_lowest(solve._UN_SEEDS[1.0, (0.0, 1.0, 1.0), 2][:n], un)[0] < 0
    assert calls == []
    scaled_lowest(matel3.natural_matblock(solve._NAT_SEEDS[1.0, +1, 3, 0], spec))
    assert solve._un_lowest(solve._UN_SEEDS[1.0, (0.0, 1.0, 1.0), 3], un)[0] < 0
    assert calls == [("dsyevd", 3)] * 2
    q = np.linalg.qr(np.random.default_rng(37).standard_normal((3, 3)))[0]
    degenerate = MatBlock(np.eye(3), (q * [1.0, 1.0, 2.0]) @ q.T, -q @ q.T)
    calls.clear()
    scaled_lowest(degenerate)
    assert calls[0] == ("dsyevd", 3) and calls[1:] == [3] * (len(calls) - 1)
    assert len(calls) > 10          # Brent's evaluations
    calls.clear()
    scaled_lowest(matel3.natural_matblock(_FOUR_TERMS, spec))
    assert calls[0] == ("dsyevd", 4) and set(calls[1:]) == {4}


def test_scaled_lowest_raises_when_lapack_fails(monkeypatch):
    # a failed dsyevd leaves NaN eigenvalues and raises numpy's invalid-value
    # flag; the step must turn that into LinAlgError, which minimize_nm
    # counts as a refusal, and no RuntimeWarning may escape.  np.sqrt(-1)
    # raises the same flag through the same ufunc machinery.  A four-term
    # block keeps four directions, so its steps call the gufunc.
    monkeypatch.setattr(solve, "_eigvalsh_lo",
                        lambda a, signature: np.sqrt(np.full(len(a), -1.0)))
    blk = matel3.natural_matblock(_FOUR_TERMS, hminus_spec(z=1.0))
    assert solve._reduce(blk, 1e-12)[0].shape[1] == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            scaled_lowest(blk)


def _via_wrappers(gufunc, a, signature):
    # the reference for solve._dsyevd: numpy's np.linalg wrappers
    return (np.linalg.eigh if gufunc is solve._eigh_lo else np.linalg.eigvalsh)(a)


def _outcome(f, *args):
    # what f returns, as bit patterns (NaN included), or the error it raises
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc)
    arrays = out if isinstance(out, tuple) else (out,)
    return [_bits(x).tolist() for x in arrays]


def _overlap_sample():
    # the seeded blocks (natural n = 1, 2, 3, 8, vector, four-body), each
    # again with a NaN entry of its lower triangle in the overlap
    out = [blk for blk, _ in _sample_blocks()]
    for blk in list(out):
        N = np.array(blk.n_mat, dtype=float)
        N[len(N) - 1, 0] = np.nan
        out.append(MatBlock(N, blk.t_mat, blk.v_mat))
    return out


def test_direct_dsyevd_is_the_linalg_wrapper(monkeypatch):
    # eigh and eigvalsh of each overlap, the reduction, gen_eig and the 1+
    # overlap-condition check: the wrappers' values to the bit, and
    # LinAlgError exactly where the wrappers raise it
    sample = _overlap_sample()
    assert {len(b.n_mat) for b in sample} >= {1, 2, 3, 8}

    def outcomes():
        out = []
        for blk in sample:
            N = np.asarray(blk.n_mat, dtype=float)
            out += [_outcome(solve._dsyevd, solve._eigh_lo, N, "d->dd"),
                    _outcome(solve._dsyevd, solve._eigvalsh_lo, N, "d->d"),
                    _outcome(solve._reduce, blk, 1e-12), _outcome(gen_eig, blk)]
        return out

    got = outcomes()
    monkeypatch.setattr(solve, "_dsyevd", _via_wrappers)
    assert got == outcomes()
    # both kinds of NaN overlap occur: one that dsyevd fails on, one it survives
    assert np.linalg.LinAlgError in got
    assert any(o != np.linalg.LinAlgError and np.isnan(np.array(o[0]).view(float)).any()
               for o in got)


def test_failed_dsyevd_on_a_nan_overlap_is_refused_linalg(monkeypatch):
    # dsyevd fails on this NaN overlap, so np.linalg.eigh and eigvalsh raise
    # LinAlgError; so do the reduction and the 1+ condition check, and
    # minimize_nm counts each such evaluation as refused_linalg
    N = np.eye(3) + 0.1
    N[2, 0] = N[0, 2] = np.nan
    blk = MatBlock(N, np.eye(3), -np.eye(3))
    for wrapper in (np.linalg.eigh, np.linalg.eigvalsh):
        with pytest.raises(np.linalg.LinAlgError):
            wrapper(N)
    with pytest.raises(np.linalg.LinAlgError):
        scaled_lowest(blk)
    monkeypatch.setattr(matel3, "unnatural_matblock", lambda terms, spec: blk)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            solve._un_lowest([(0.5, 0.2, 0.0)], hminus_spec(sector=UNNATURAL))
        # the simplex's second vertex, 1.05 x 0.98, lands where the overlap fails
        _, e, info = minimize_nm(lambda x: scaled_lowest(blk)[0] if x[0] > 1.0
                                 else (x[0] - 0.5) ** 2, [0.98],
                                 MinimizerConfig(restarts=1, max_iter=200))
    assert e < 1e-8 and info["refused_linalg"] >= 1
    assert info["refused_value"] == info["refused_domain"] == 0


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_a_surviving_nan_overlap_raises_linalg_error(n, monkeypatch):
    # dsyevd survives some NaN overlaps: eigh leaves NaN eigenvalues, which
    # fall below the floor, and eigvalsh can even return finite ones
    # ([[nan, 0], [0, 1]] gives [0, -0]).  The reduction and the 1+ condition
    # check must still raise LinAlgError, not read a smaller block, _BIG
    # (refused_domain) or CancellationError
    rng = np.random.default_rng([18, n])
    blocks = [MatBlock(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2),
                       -np.eye(2))] if n == 2 else []
    while len(blocks) < 40:
        A = rng.standard_normal((n, n))
        N = A @ A.T + n * np.eye(n)
        i, j = rng.integers(0, n, 2)
        N[i, j] = N[j, i] = np.nan
        blocks.append(MatBlock(N, np.eye(n) + 0.1 * A * A.T, -np.eye(n)))
    for blk in blocks:
        monkeypatch.setattr(matel3, "unnatural_matblock", lambda terms, spec: blk)
        for f, args in ((scaled_lowest, (blk,)), (gen_eig, (blk,)),
                        (solve._un_lowest, ([(0.5, 0.2, 0.0)], None))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    f(*args)
    _, e, info = minimize_nm(lambda x: scaled_lowest(blocks[0])[0] if x[0] > 1.0
                             else (x[0] - 0.5) ** 2, [0.98],
                             MinimizerConfig(restarts=1, max_iter=200))
    assert e < 1e-8 and info["refused_linalg"] >= 1
    assert info["refused_value"] == info["refused_domain"] == 0


# He 1^1S, He 2^3S and H-, N = 2, seed 0, one restart of 500 evaluations (the
# ion-natural benchmark's first pass): energy and meta.scale by repr as the
# hand-written pair kernels gave them (the gufunc-only scale step and the
# per-pair assembler gave the same), kept as the bound of _near_earlier
ION_NATURAL_TRIPLE = [
    (2.0, +1, "-2.903251970081735", "1.1472800645303336"),
    (2.0, -1, "-2.175121180616898", "0.8466134174580716"),
    (1.0, +1, "-0.5242612513639442", "0.2491886831474205"),
]
# the same solves with one contraction per block kernel, by repr, kept as a
# second bound of _near_earlier
ION_NATURAL_CONTRACTION = {
    (2.0, +1): ("-2.903251970081701", "1.1472800645308565"),
    (2.0, -1): ("-2.175121180616907", "0.8466134174581209"),
    (1.0, +1): ("-0.5242612513639443", "0.24918868684382195"),
}
# with the Python-float reduction of one- and two-term pencils, by repr, kept
# as a third bound of _near_earlier
ION_NATURAL_FLOAT_REDUCTION = {
    (2.0, +1): ("-2.9032519700817967", "1.1472800475133644"),
    (2.0, -1): ("-2.175121180616906", "0.8466134300158042"),
    (1.0, +1): ("-0.5242612513639444", "0.24918868314339815"),
}
# and with the closed-form scale of a certified two-direction pencil, by repr
_ION_NATURAL_NOW = {
    (2.0, +1): ("-2.903251970081797", "1.1472800509812158"),
    (2.0, -1): ("-2.175121180616907", "0.8466134160294797"),
    (1.0, +1): ("-0.5242612513639444", "0.24918868611697073"),
}


def _near_earlier(res, energy, scale):
    # the contraction adds the kernels' products in another order, the
    # float reduction rounds the overlap's eigenpairs and congruences in
    # another order, the closed-form scale lands on the stationary point
    # that Brent's search found to its tolerance, and the rotation step
    # rounds the eigenvalue as dsyevd does not: the energy stays within
    # 1e-13 relative of each earlier repr, and the scale, the argmin of a
    # flat minimum (a move of order sqrt(1e-14)), within 1e-7
    assert abs(res.energy - float(energy)) <= 1e-13 * abs(float(energy))
    assert abs(res.meta["scale"] - float(scale)) <= 1e-7 * float(scale)


@pytest.mark.parametrize("z, eps, energy, scale", ION_NATURAL_TRIPLE)
def test_ion_natural_triple_is_bit_stable(z, eps, energy, scale):
    res = solve.optimize_ion(hminus_spec(z=z, epsilon=eps), 2,
                             MinimizerConfig(seed=0, restarts=1, max_iter=500))
    assert (repr(res.energy), repr(res.meta["scale"])) == _ION_NATURAL_NOW[z, eps]
    _near_earlier(res, energy, scale)
    _near_earlier(res, *ION_NATURAL_CONTRACTION[z, eps])
    _near_earlier(res, *ION_NATURAL_FLOAT_REDUCTION[z, eps])


@pytest.mark.parametrize("z, eps", [(z, eps) for z, eps, _, _ in ION_NATURAL_TRIPLE])
def test_ion_natural_triple_virial_ratio_is_one(z, eps):
    # at the stationary scale of a certified pencil 2<T> = -<V> holds to
    # round-off; the bounded Brent search left it 3e-9 to 1.5e-8 off
    res = solve.optimize_ion(hminus_spec(z=z, epsilon=eps), 2,
                             MinimizerConfig(seed=0, restarts=1, max_iter=500))
    assert abs(res.virial_ratio - 1.0) <= 1e-12


# 1+ H- N = 1 and N = 3, and 1+ Ps- N = 2 (mass ratio 1), seed 0, two
# restarts of 40 evaluations (the ion-unnatural benchmark's first pass):
# energy and meta.scale by repr as the hand-written pair kernels gave them
# (the per-evaluation exchange groups gave the same), kept as the bound of
# _near_earlier
ION_UNNATURAL_TRIPLE = [
    (float("inf"), 1, "-0.12463796799623836", "0.6817864720154923"),
    (float("inf"), 3, "-0.12533415559387107", "0.5282831872478222"),
    (1.0, 2, "-0.06237422670012612", "0.3793482769101034"),
]
# the same solves with one contraction per block kernel, by repr, kept as a
# second bound of _near_earlier
ION_UNNATURAL_CONTRACTION = {
    (float("inf"), 1): ("-0.1246379679962384", "0.6817864720154874"),
    (float("inf"), 3): ("-0.1253341555938711", "0.5282831872476283"),
    (1.0, 2): ("-0.06237422670012614", "0.37934827128312365"),
}
# with the Python-float reduction of one- and two-term pencils (N = 3 keeps
# the LAPACK reduction and its bits), by repr, kept as a third bound of
# _near_earlier
ION_UNNATURAL_FLOAT_REDUCTION = {
    (float("inf"), 1): ("-0.1246379679962384", "0.6817864720154893"),
    (float("inf"), 3): ("-0.1253341555938711", "0.5282831872476283"),
    (1.0, 2): ("-0.062374226700126136", "0.37934827691010276"),
}
# with the closed-form scale of a certified two-direction pencil (N = 1 and
# N = 3 keep theirs), by repr, kept as a fourth bound of _near_earlier
ION_UNNATURAL_CLOSED_FORM = {
    (float("inf"), 1): ("-0.1246379679962384", "0.6817864720154893"),
    (float("inf"), 3): ("-0.1253341555938711", "0.5282831872476283"),
    (1.0, 2): ("-0.06237422670012612", "0.3793482765944479"),
}
# with the rotation step of two directions (N = 2 moves by one ulp at the
# same scale), by repr, kept as a fifth bound of _near_earlier
ION_UNNATURAL_ROTATION = {
    (float("inf"), 1): ("-0.1246379679962384", "0.6817864720154893"),
    (float("inf"), 3): ("-0.1253341555938711", "0.5282831872476283"),
    (1.0, 2): ("-0.06237422670012613", "0.3793482765944479"),
}
# and with the trigonometric step of three directions (N = 3 keeps its
# energy; Brent's argmin of the flat minimum moves by 3e-8), by repr
_ION_UNNATURAL_NOW = {
    (float("inf"), 1): ("-0.1246379679962384", "0.6817864720154893"),
    (float("inf"), 3): ("-0.1253341555938711", "0.5282831715756061"),
    (1.0, 2): ("-0.06237422670012613", "0.3793482765944479"),
}


@pytest.mark.parametrize("ratio, n, energy, scale", ION_UNNATURAL_TRIPLE)
def test_ion_unnatural_triple_is_bit_stable(ratio, n, energy, scale):
    spec = hminus_spec(z=1.0, mass_ratio=ratio, sector=UNNATURAL)
    res = solve.optimize_ion(spec, n, MinimizerConfig(seed=0, restarts=2, max_iter=40))
    assert (repr(res.energy), repr(res.meta["scale"])) == _ION_UNNATURAL_NOW[ratio, n]
    _near_earlier(res, energy, scale)
    _near_earlier(res, *ION_UNNATURAL_CONTRACTION[ratio, n])
    _near_earlier(res, *ION_UNNATURAL_FLOAT_REDUCTION[ratio, n])
    _near_earlier(res, *ION_UNNATURAL_CLOSED_FORM[ratio, n])
    _near_earlier(res, *ION_UNNATURAL_ROTATION[ratio, n])


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


def test_state_sign_is_fixed(monkeypatch):
    # the largest-magnitude coefficient is positive, whichever sign the
    # eigensolver hands back (ion --z 1 --terms 2 flipped between builds)
    block = matel3.natural_matblock(solve._NAT_SEEDS[(1.0, +1, 2, 0)],
                                    hminus_spec(z=1.0))
    _, lam = scaled_lowest(block)
    c, vr = solve._state_at_scale(block, lam)
    assert c[np.argmax(np.abs(c))] > 0
    eig = solve.gen_eig

    def flipped(b, floor):
        w, cvec = eig(b, floor)
        return w, -cvec

    monkeypatch.setattr(solve, "gen_eig", flipped)
    c_neg, vr_neg = solve._state_at_scale(block, lam)
    assert np.array_equal(c_neg, c) and vr_neg == vr


def test_four_body_state_uses_the_four_body_floor():
    # a three-group cc-break block whose overlap condition (1.4e11) sits
    # between the 1e-12 and 1e-11 floors: only the four-body floor gives
    # coefficients of the reported energy (the first group's four images
    # coincide in pairs)
    spec = solve._four_spec("cc-break", 1.7)
    groups = [matel4.symmetrized_group(p) for p in
              ((0.85, 0.15, 0.15, 0.85), (0.85 + 6.5e-6, 0.15, 0.15, 0.85 + 6.5e-6),
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


def test_grid_min_refines_every_local_minimum():
    # the best grid point sits in the shallow basin; the deeper one lies
    # inside the edge cell [0, 0.1], whose grid point is only a local minimum
    f = lambda x: min((x - 0.55) ** 2 - 0.01, 50 * (x - 0.03) ** 2 - 0.02)
    grid = np.linspace(0.0, 1.0, 11)
    x, fx, fs = solve._grid_min(f, grid)
    assert fs == [f(g) for g in grid]
    assert min(fs) > -0.01
    assert x == pytest.approx(0.03, abs=1e-7)
    assert fx == pytest.approx(-0.02, abs=1e-12)


def test_shape_searches_run_no_simplex(monkeypatch):
    # the mass scans and min-max search their shape alone; no simplex
    # walks the overall scale
    def refuse(*args, **kwargs):
        raise AssertionError("minimize_nm called")

    monkeypatch.setattr(solve, "minimize_nm", refuse)
    assert len(solve.scan_mass3([1.0, 10.0])) == 2
    assert len(solve.scan_asym3([1.0, 2.0])) == 2
    assert solve.optimize_minmax(1.0)[0] < -0.5


@pytest.mark.parametrize("scan, ratio", [
    (solve.scan_mass3, 1.0), (solve.scan_mass3, 1836.0),
    (solve.scan_asym3, 1.05), (solve.scan_asym3, 1.5)])
def test_mass_scans_return_physical_ranges(scan, ratio):
    rec, = scan([ratio])
    a, b = rec["params"]
    if scan is solve.scan_mass3:
        block = matel3.natural_matblock([(a, b, 0.0)],
                                        hminus_spec(mass_ratio=ratio))
    else:
        spec = SystemSpec(inv_masses=(0.0, 2 * ratio / (1 + ratio),
                                      2 / (1 + ratio)), z_central=1.0)
        block = matel3.natural_matblock([(a, b, 0.0), (b, a, 0.0)], spec,
                                        symmetrize=False)
    e, lam = scaled_lowest(block)
    assert lam == pytest.approx(1.0, abs=1e-6)
    assert e == pytest.approx(rec["energy"], rel=1e-12)


def test_scan_mass3_keeps_its_energies():
    # the values of the former two-range simplex at these ratios
    want = [-0.2566514427317631, -0.4666389867850237, -0.5130234609205411]
    for rec, e in zip(solve.scan_mass3([1.0, 10.0, 1836.0]), want):
        assert rec["energy"] == pytest.approx(e, rel=1e-9)


def test_scan_asym3_critical_ratio_lies_between_1_06_and_1_07():
    # the pair binds at 1.05 and 1.06; from 1.07 on its optimum is the
    # t -> 0 edge, a hydrogen-like atom and a far electron, just above
    # threshold
    recs = solve.scan_asym3([1.0, 1.05, 1.06, 1.07, 1.1])
    e = [r["energy"] for r in recs]
    assert e[0] == pytest.approx(-0.5133028855, rel=1e-9)
    assert e[1] == pytest.approx(-0.5151546395, rel=1e-9)
    assert [r["stable"] for r in recs] == [True, True, True, False, False]
    for r in recs[3:]:
        assert -1e-6 < r["margin"] <= 0
    assert e[4] <= -0.52499


def test_scan_asym3_flags_grid_edge_rows():
    # from the critical ratio on the search ends on the t = 1e-4 grid end,
    # so the printed margin is that end's (about -1e-8 x ratio): flagged;
    # the bound rows end inside the grid
    recs = solve.scan_asym3([1.0, 1.05, 1.1, 2.0, 10.0])
    assert [r["at_edge"] for r in recs] == [False, False, True, True, True]
    assert [r["stable"] for r in recs] == [True, True, False, False, False]
    assert recs[4]["margin"] == pytest.approx(-1.0e-7, rel=1e-3)


@pytest.mark.parametrize("tie_ab, z, epsilon, want", [
    (True, 1.0, +1, -0.5079008655475303), (True, 2.0, +1, -2.889618205352145),
    (False, 1.0, +1, -0.5238659297754874), (False, 2.0, +1, -2.899534375468239),
    (False, 2.0, -1, -2.1615259627826404)])
def test_single_term_searches_its_shape(tie_ab, z, epsilon, want):
    # a = 1 fixes the scale; the physical ranges are at the optimal scale,
    # and the energy is the former raw-range simplex's or lower
    cfg = MinimizerConfig(restarts=2, max_iter=1200)
    e, (a, b, c), _ = solve.optimize_single_term(z, cfg, epsilon, tie_ab)
    assert (a == b) == tie_ab
    e2, lam = scaled_lowest(matel3.natural_matblock(
        [(a, b, c)], hminus_spec(z=z, epsilon=epsilon)))
    assert lam == pytest.approx(1.0, abs=1e-6)
    assert e2 == pytest.approx(e, rel=1e-12)
    assert e <= want + 1e-9 * abs(want)


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


def _recorded(f):
    # f and the list of the points it is called at, in order
    points = []

    def g(x):
        points.append(np.array(x, dtype=float))
        return f(x)

    return g, points


def _steps(x):
    # quantized: plateaus give argsort ties, and the simplex shrinks
    return float(np.floor(10.0 * np.sum(x * x))) / 10.0


def _plateau(x):
    # a refused half-space, as the objectives' domain checks return it
    return solve._BIG if x[0] + x[1] > 1.6 else (x[0] - 0.4) ** 2 + 3.0 * x[1] ** 2


def _nan_half(x):
    # NaN on a half-space: numpy's argsort puts NaN last
    return math.nan if x[0] + x[1] > 1.2 else (x[0] - 0.4) ** 2 + 3.0 * x[1] ** 2


def _inf_half(x):
    return math.inf if x[0] + x[1] > 1.6 else (x[0] - 0.4) ** 2 + 3.0 * x[1] ** 2


def _signed_zeros(x):
    # a flat floor at 0.0 and -0.0, which argsort counts as a tie
    r = float(np.sum(x * x))
    return math.copysign(0.0, math.sin(1e3 * x[0])) if r < 0.5 else r


def _bowl(x):
    return float(np.sum((x - np.arange(len(x))) ** 2))


@pytest.mark.parametrize("f, x0, maxfev", [
    (lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2, [-1.2, 1.0], 400),
    (_plateau, [1.0, 0.7], 300),
    (_steps, [1.0, 0.5, -0.4], 300),
    (_steps, [1.0, 0.0, -0.4], 300),     # a zero coordinate
    (_steps, [1.0, 0.5, -0.4], 2),       # budget below N + 1
    (_steps, [1.0, 0.5, -0.4], 21),      # stops before a shrink's 1st vertex
    (_steps, [1.0, 0.5, -0.4], 22),      # stops before its 2nd vertex
    (_steps, np.linspace(-1.0, 1.0, 24), 1500),     # 24 ranges, as N = 8
    (partial(solve.optimize_ion, hminus_spec(z=1.0), 2, LIGHT), None, 300),
    (_nan_half, [0.7, 0.49], 300),       # two NaN vertices at the start
    (_inf_half, [0.9, 0.7], 300),        # inf refusals that tie
    (_signed_zeros, [0.5, 0.4, -0.3], 300),
    (_signed_zeros, [1.0, 0.5, -0.4], 300),
    (_steps, [1.0, 0.5, -0.4, 0.8, 0.3, 0.6, -0.2, 0.9, 0.1], 1500),   # N = 3
    (_bowl, [1e16, 1.0, 1.0], 1000),     # a compensated centroid walks apart
    (partial(solve.optimize_chandrasekhar, 1.0, LIGHT), None, 300),
    (partial(solve.optimize_shellmodel, 2.0, LIGHT), None, 300),
    (_steps, [2.0], 300),                # strict steps, then ties with the best
], ids=["rosenbrock", "plateau", "steps", "zero-coordinate", "budget-2",
        "mid-shrink-1", "mid-shrink-2", "steps-24", "hminus-n2", "nan-half",
        "inf-ties", "signed-zeros-1", "signed-zeros-2", "steps-9", "magnitudes",
        "chandrasekhar-n1", "shellmodel-n1", "steps-1"])
def test_nelder_mead_is_scipy_nelder_mead(f, x0, maxfev, monkeypatch):
    # the port must walk scipy's simplex exactly: same x, f(x), evaluations
    # and success flag; with x0 None, f is a search whose objective and start
    # minimize_nm would get
    if x0 is None:
        seen = []
        monkeypatch.setattr(solve, "minimize_nm", lambda obj, x0, config: (
            seen.append((obj, x0)) or (x0, -1.0, {"nfev": 0, "converged": True})))
        f()
        (f, x0), = seen
    x0 = np.asarray(x0, dtype=float)
    f_ref, ref_points = _recorded(f)
    ref = minimize(f_ref, x0, method="Nelder-Mead",
                   options=dict(maxiter=maxfev, maxfev=maxfev,
                                xatol=1e-8, fatol=1e-10))
    f_port, points = _recorded(f)
    arrays = []

    def f_checked(x):
        arrays.append(type(x) is np.ndarray and x.dtype == np.float64)
        return f_port(x)

    x, fx, nfev, ok = solve._nelder_mead(f_checked, x0, maxfev, 1e-8, 1e-10)
    assert all(arrays) and type(x) is np.ndarray and x.dtype == np.float64
    assert np.array_equal(x, ref.x)
    assert (fx, nfev, ok) == (ref.fun, ref.nfev, ref.success)
    assert np.array_equal(points, ref_points)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
    (lambda x: (x - 0.3) ** 5, -1.0, 2.0),              # flat root
    (lambda x: math.atan(50.0 * (x - 1.7)), -10.0, 10.0),
    (lambda x: x - 0.25, 0.25, 1.0),                    # root on the bracket
    (lambda x: math.copysign(math.sqrt(abs(x - 0.7)), x - 0.7), 0.0, 10.0),
    (math.log, 0.01, 100.0),
])
def test_brentq_is_scipy_brentq(f, a, b):
    # the same root after the same evaluations
    f_ref, ref_points = _recorded(f)
    f_port, points = _recorded(f)
    assert solve._brentq(f_port, a, b) == brentq(f_ref, a, b)
    assert points == ref_points


def test_brentq_gives_up_after_scipy_iterations():
    # a triple root creeps in below the tolerance: both stop after 100 steps
    f = lambda x: (x - 0.2) ** 3
    f_ref, ref_points = _recorded(f)
    f_port, points = _recorded(f)
    with pytest.raises(RuntimeError):
        brentq(f_ref, -1.0, 10.0)
    with pytest.raises(NonConvergenceError):
        solve._brentq(f_port, -1.0, 10.0)
    assert points == ref_points and len(points) == 102


@pytest.mark.parametrize("basis, bracket", [
    ("chandrasekhar", (0.85, 1.2)), ("chandrasekhar", (0.85, 1.3)),
    ("chandrasekhar", (0.9, 2.0)), ("perturbative", (1.1, 1.4)),
    ("effective", (0.9, 1.2)),
])
def test_scan_charge_root_is_scipy_brentq(basis, bracket, monkeypatch):
    # the CLI's default bracket and narrower and wider critical-charge
    # brackets: the same root to the bit
    zc = solve.scan_charge(basis, *bracket)
    monkeypatch.setattr(solve, "_brentq", brentq)
    assert zc == solve.scan_charge(basis, *bracket)


@pytest.mark.parametrize("z_lo", [0.3, 0.5])
def test_scan_charge_counts_unbound_shapes_as_zero(z_lo):
    # at Z = 0.3 some two-range shapes have V >= 0 and bind at no scale:
    # they count as their infimum over it, 0, and the root stays put
    assert matel3.chandrasekhar_ntv(1.0, 1.0, 0.3, +1)[2] > 0
    zc = solve.scan_charge("chandrasekhar")
    assert abs(solve.scan_charge("chandrasekhar", z_lo=z_lo) - zc) <= 2e-12


@pytest.mark.parametrize("mass_ratio, n_terms", [(math.inf, 3), (1.0, 2)],
                         ids=["hminus-n3", "psminus-n2"])
def test_refusal_counts_add_up_to_nfev(mass_ratio, n_terms, monkeypatch):
    # 1+ sector: every evaluation is either finite or counted as one refusal;
    # the Ps- search meets the overlap-condition cap
    finite = []
    un_lowest = solve._un_lowest

    def counted(terms, spec, k=0):
        e, lam = un_lowest(terms, spec, k)
        if e != solve._BIG:
            finite.append(e)
        return e, lam

    monkeypatch.setattr(solve, "_un_lowest", counted)
    spec = hminus_spec(z=1.0, mass_ratio=mass_ratio, sector=UNNATURAL)
    res = solve.optimize_ion(spec, n_terms, MinimizerConfig(restarts=2, max_iter=40))
    keys = ("refused_domain", "refused_cancellation", "refused_value",
            "refused_linalg")
    counts = [res.meta[k] for k in keys]
    assert all(type(n) is int for n in counts)
    assert sum(counts) + len(finite) == res.meta["nfev"]
    assert (res.meta["refused_cancellation"] > 0) == (mass_ratio == 1.0)


@pytest.mark.parametrize("eps, k", [(-1, 0), (+1, 1)], ids=["he-triplet", "he-excited"])
def test_seed_extension_search_is_counted(eps, k, monkeypatch):
    # He 2^3S and He* at N = 3 start from an optimized curated N = 2 basis:
    # that search's evaluations and refusals add to meta, and `converged`
    # is the final search's
    infos = []

    def spy(objective, x0, config):
        out = minimize_nm(objective, x0, config)
        infos.append(dict(out[2]))
        return out

    monkeypatch.setattr(solve, "minimize_nm", spy)
    cfg = MinimizerConfig(seed=0, restarts=1, max_iter=200)
    res = solve.optimize_ion(hminus_spec(z=2.0, epsilon=eps), 3, cfg, k=k)
    assert len(infos) == 2
    for key in ("nfev", "refused_domain", "refused_cancellation", "refused_linalg",
                "refused_value"):
        assert res.meta[key] == infos[0][key] + infos[1][key]
    assert res.meta["converged"] is infos[1]["converged"]
    if eps == -1:
        assert res.meta["nfev"] == 400


def test_refusals_are_counted_by_class():
    errors = iter([solve.CancellationError("c"), np.linalg.LinAlgError("l"),
                   ValueError("v"), None, None])

    def obj(x):
        exc = next(errors, None)
        if exc is not None:
            raise exc
        return solve._BIG if x[0] > 1.02 else float(x[0] ** 2)

    _, _, info = minimize_nm(obj, [1.0], MinimizerConfig(restarts=1, max_iter=8))
    assert (info["refused_cancellation"], info["refused_linalg"],
            info["refused_value"]) == (1, 1, 1)
    assert info["refused_domain"] >= 1


@pytest.mark.parametrize("bad", [
    {"restarts": 0}, {"restarts": -3}, {"max_iter": 0},
    {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": None},
    {"restarts": 2.0}, {"max_iter": 2.5}, {"max_iter": True},
    {"restarts": True}, {"max_iter": -1}, {"max_iter": None},
    {"restarts": None}, {"max_iter": 1e4}, {"seed": "0"}])
def test_minimizer_config_rejects_what_it_cannot_honour(bad):
    with pytest.raises(ValueError):
        MinimizerConfig(**bad)


def test_minimize_nm_deterministic():
    def obj(x):
        return (x[0] - 1.3) ** 2 + (x[1] + 0.4) ** 2 + 0.1 * x[0] * x[1]

    cfg = MinimizerConfig(seed=11, restarts=3, max_iter=500)
    x1, e1, _ = minimize_nm(obj, [0.0, 0.0], cfg)
    x2, e2, _ = minimize_nm(obj, [0.0, 0.0], cfg)
    assert np.array_equal(x1, x2)
    assert e1 == e2


def test_minimize_nm_draws_restarts_as_before(monkeypatch):
    # restart k > 0 starts at x0 + 0.05 max(|x0|, 0.1) N(0, 1), the normals
    # drawn in order from default_rng(seed); the first restart at x0 itself
    seen = []
    real = solve._nelder_mead

    def spy(f, x, *args):
        seen.append(np.array(x))
        return real(f, x, *args)

    monkeypatch.setattr(solve, "_nelder_mead", spy)
    x0 = np.array([0.3, -1.2, 0.0])
    minimize_nm(lambda x: float(x @ x), x0, MinimizerConfig(seed=5, restarts=3, max_iter=50))
    rng = np.random.default_rng(5)
    scale = np.maximum(np.abs(x0), 0.1)
    want = [x0] + [x0 + 0.05 * scale * rng.standard_normal(3) for _ in range(2)]
    assert len(seen) == 3 and all(a.tobytes() == b.tobytes() for a, b in zip(seen, want))


_ONE_RESTART = """
import sys
from coulomb2e.solve import MinimizerConfig, minimize_nm
minimize_nm(lambda x: (x[0] - 1.3) ** 2, [0.0], MinimizerConfig(restarts=1, max_iter=50))
assert "numpy.random" not in sys.modules, "a single restart imported numpy.random"
minimize_nm(lambda x: (x[0] - 1.3) ** 2, [0.0], MinimizerConfig(restarts=2, max_iter=50))
assert "numpy.random" in sys.modules
"""


def test_one_restart_does_not_import_numpy_random():
    # a single restart never draws, so it must not pay numpy.random's import
    # (about 15 ms, once per process: `molecule` and `scan mass4` run one)
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ONE_RESTART], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_minimize_nm_raises_when_all_rejected():
    with pytest.raises(NonConvergenceError):
        minimize_nm(lambda x: solve._BIG, [1.0], LIGHT)


@pytest.mark.parametrize("x0", [[np.nan], [np.inf], [1.0, -np.inf]])
def test_minimize_nm_rejects_a_non_finite_start(x0):
    # no simplex from a non-finite start can meet its x test: it is refused
    # before the first evaluation instead of spending the whole budget
    calls = []
    with pytest.raises(ValueError, match="finite"):
        minimize_nm(lambda x: calls.append(x) or 0.0, x0, CFG)
    assert calls == []


@pytest.mark.parametrize("exc, refused", [
    (ValueError, True), (solve.CancellationError, True),
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


@pytest.mark.parametrize("n_terms, k", [
    (2, -1), (2, 2), (1, 1), (2, 1.5), (2, True), (2, np.int64(0)),
    (2.0, 0), (0, 0), (9, 0), (True, 0), (np.int64(2), 0)])
def test_optimize_ion_rejects_a_bad_k_or_n_terms(n_terms, k, monkeypatch):
    # a state index outside [0, n_terms) or a basis size outside 1..8, or
    # either not an int, is refused before any block is built rather than
    # reinterpreted (k = -1 used to return the highest state)
    def built(*args, **kwargs):
        raise AssertionError("a block was built")

    monkeypatch.setattr(matel3, "natural_matblock", built)
    with pytest.raises(ValueError, match="must be an int"):
        solve.optimize_ion(hminus_spec(z=2.0), n_terms, LIGHT, k=k)


def test_optimize_chandrasekhar_hminus():
    e, (a, b), _ = solve.optimize_chandrasekhar(1.0, CFG)
    assert e == pytest.approx(-0.51330, abs=5e-5)


# each search with the closed form its objective reduces
_TABLE1_SEARCHES = {
    "chandrasekhar+1": (partial(solve.optimize_chandrasekhar, epsilon=+1),
                        partial(matel3.chandrasekhar_ntv, epsilon=+1)),
    "chandrasekhar-1": (partial(solve.optimize_chandrasekhar, epsilon=-1),
                        partial(matel3.chandrasekhar_ntv, epsilon=-1)),
    "shellmodel": (solve.optimize_shellmodel, matel3.shellmodel_ntv),
}


@pytest.mark.parametrize("search, ntv", list(_TABLE1_SEARCHES.values()),
                         ids=list(_TABLE1_SEARCHES))
def test_table1_searches_walk_the_shape_to_physical_ranges(monkeypatch, search,
                                                           ntv):
    # the simplex walks t = b/a alone; the ranges come at their optimal
    # scale, the two-range pair's larger first
    starts = []

    def spy(objective, x0, config):
        starts.append(len(x0))
        return minimize_nm(objective, x0, config)

    monkeypatch.setattr(solve, "minimize_nm", spy)
    z = 2.0
    e, (a, b), _ = search(z, LIGHT)
    assert starts == [1]
    assert ntv is matel3.shellmodel_ntv or a >= b
    e2, lam = virial_reduce(*ntv(a, b, z))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert e2 == pytest.approx(e, rel=1e-12)


# Table I's searches with the CLI's config (restarts 2, max_iter 1200):
# repr of the energy and the two ranges, nfev and converged
_TABLE1_PINNED = {
    ("chandrasekhar+1", 1.0, 0): ("-0.5133028854635256", "1.0392299674020158",
                                  "0.2832214364344005", 90, True),
    ("chandrasekhar+1", 2.0, 0): ("-2.8756613312347787", "2.183170882324301",
                                  "1.188530817884438", 120, True),
    ("chandrasekhar-1", 2.0, 0): ("-2.1606457102018566", "1.9686296115487827",
                                  "0.32100704311695133", 106, True),
    ("shellmodel", 2.0, 0): ("-2.1666398752552665", "1.9936349751083249",
                             "1.5509315319106223", 106, True),
    ("chandrasekhar+1", 1.0, 1): ("-0.5133028854635256", "1.0392299674020158",
                                  "0.2832214364344005", 90, True),
    ("chandrasekhar+1", 2.0, 1): ("-2.8756613312347787", "2.183170882324301",
                                  "1.188530817884438", 120, True),
    ("chandrasekhar-1", 2.0, 1): ("-2.1606457102018566", "1.9686296115487827",
                                  "0.32100704311695133", 106, True),
    ("shellmodel", 2.0, 1): ("-2.1666398752552665", "1.9936349862876215",
                             "1.5509314888520798", 106, True),
}


@pytest.mark.parametrize("search, z, seed", sorted(_TABLE1_PINNED))
def test_table1_searches_are_bit_stable(search, z, seed):
    e, (a, b), info = _TABLE1_SEARCHES[search][0](
        z, MinimizerConfig(restarts=2, max_iter=1200, seed=seed))
    got = (repr(float(e)), repr(float(a)), repr(float(b)), info["nfev"], info["converged"])
    assert got == _TABLE1_PINNED[search, z, seed]


@pytest.mark.parametrize("search", sorted(_TABLE1_SEARCHES))
def test_table1_objectives_refuse_shapes_beyond_the_float_range(search, monkeypatch):
    # on Python floats the two-range pair raises ZeroDivisionError at
    # t = 1e-120 (a^3 b^3 underflows), and both closed forms OverflowError at
    # t = 1e60; these, and a NaN shape, are ValueError refusals, so from the
    # finite starts minimize_nm returns or reports non-convergence, and counts
    # the refusals (a NaN start it refuses before any evaluation); an
    # ordinary shape keeps the numpy-scalar energy to the bit
    seen = []
    monkeypatch.setattr(solve, "minimize_nm", lambda obj, x0, config: (
        seen.append(obj) or (x0, -1.0, {"nfev": 0, "converged": True})))
    run, ntv = _TABLE1_SEARCHES[search]
    run(2.0, LIGHT)
    monkeypatch.undo()
    (objective,) = seen
    for t in np.geomspace(1e-3, 1e3, 61)[:-1] * 1.0137:
        with np.errstate(all="raise"):
            want = virial_reduce(*ntv(1.0, np.float64(t), 2.0))[0]
        assert objective(np.array([t])) == want
    outcomes = []

    def spy(x):
        try:
            e = objective(x)
        except Exception as exc:
            outcomes.append(type(exc))
            raise
        outcomes.append(None)
        return e

    refused = (1e-120, 1e60, math.nan)
    if search == "shellmodel":      # no a^3 b^3 denominator: finite at 1e-120
        assert math.isfinite(objective(np.array([1e-120])))
        refused = refused[1:]
    for t in refused:
        with pytest.raises(ValueError):
            objective(np.array([t]))
        outcomes.clear()
        if math.isnan(t):
            with pytest.raises(ValueError, match="finite"):
                minimize_nm(spy, [t], MinimizerConfig(restarts=2, max_iter=300))
            assert outcomes == []
            continue
        try:
            info = minimize_nm(spy, [t], MinimizerConfig(restarts=2, max_iter=300))[2]
        except NonConvergenceError:
            info = None
        assert set(outcomes) <= {ValueError, None} and ValueError in outcomes
        if info is None:
            assert None not in outcomes
        else:
            assert info["refused_value"] == outcomes.count(ValueError)


@pytest.mark.parametrize("z, edge", [(1.0, True), (2.0, False)])
def test_shape_search_flags_a_walk_that_ends_at_the_edge(z, edge):
    # H-'s (1s)(2s) shell model does not bind: its walk ends at t = 1.4e-8
    # on -0.5 with 142 of 311 evaluations refused at t <= 0, and info says
    # so; He's ends at t = 0.78, an interior minimum
    e, (a, b), info = solve.optimize_shellmodel(z, MinimizerConfig(restarts=3, max_iter=4000))
    assert info["at_edge"] is edge and bool(b / a < 1e-6) is edge
    assert info["converged"] and bool(e >= -0.5) is edge


def test_optimize_minmax_above_chandrasekhar():
    e_mm, _ = solve.optimize_minmax(1.0)
    assert e_mm == pytest.approx(-0.50648, abs=2e-4)
    assert e_mm > -0.51330


@pytest.mark.parametrize("z, want", [(1.0, -0.5064752788801143),
                                     (2.0, -2.8727294182584338)])
def test_optimize_minmax_returns_physical_ranges(z, want):
    e, (a, b) = solve.optimize_minmax(z)
    assert e == pytest.approx(want, rel=1e-9)
    e2, lam = virial_reduce(*matel3.minmax_ntv(a, b, z))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert e2 == pytest.approx(e, rel=1e-12)


def test_optimize_minmax_weak_charge_is_unbound():
    # shapes with V >= 0 have no bound scale and count as 0 rather than
    # raise; the optimum is the t -> 0 edge, just above threshold -z^2/2
    e, (a, b) = solve.optimize_minmax(0.3)
    assert -0.045 <= e < -0.045 + 3e-13
    assert b / a < 2e-12


@pytest.mark.parametrize("z, former", [(0.5, -0.12499999999988558),
                                       (0.7, -0.2449999999999543),
                                       (0.9, -0.4049999999987239)])
def test_optimize_minmax_unbound_charge_reaches_threshold(z, former):
    # below Z = 1 the family's infimum is the t -> 0 limit, z (1 - z) t above
    # -z^2/2 (minmax_ntv holds 3e-16 relative there); the grid's 1e-12 end
    # puts the energy within 3e-13 of threshold, and within 2e-12 of the
    # former two-parameter simplex search (`former`, default config)
    e, _ = solve.optimize_minmax(z)
    assert -0.5 * z * z <= e < -0.5 * z * z + 3e-13
    assert e == pytest.approx(former, abs=2e-12)


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
    recs = solve.scan_asym3([1.0])
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
    with pytest.raises(solve.CancellationError):
        solve._un_lowest([t0, t1], spec)


def test_one_overlap_eigendecomposition_per_vector_evaluation(monkeypatch):
    # the 1+ condition cap reads the eigenvalues of the reduction's one
    # overlap eigendecomposition (for two terms the Python-float one,
    # _reduce2): every 1+ evaluation, refused by the cap or not, decomposes
    # its overlap once, and none calls LAPACK's
    blocks, seen = [], []
    build, reduce2, dsyevd = matel3.unnatural_matblock, solve._reduce2, solve._dsyevd

    def spy_build(terms, spec):
        blocks.append(build(terms, spec))
        return blocks[-1]

    def spy_reduce2(N, T, V, floor):
        if blocks and np.array_equal(N, blocks[-1].n_mat):
            seen.append(len(blocks))
        return reduce2(N, T, V, floor)

    def spy_dsyevd(gufunc, a, signature):
        seen.append("dsyevd")
        return dsyevd(gufunc, a, signature)

    monkeypatch.setattr(matel3, "unnatural_matblock", spy_build)
    monkeypatch.setattr(solve, "_reduce2", spy_reduce2)
    monkeypatch.setattr(solve, "_dsyevd", spy_dsyevd)
    spec = hminus_spec(z=1.0, sector=UNNATURAL)
    x0 = np.ravel(solve._un_seed(spec, 2))
    info = solve._search3(spec, x0, MinimizerConfig(seed=0, restarts=1, max_iter=100))[2]
    with pytest.raises(solve.CancellationError):
        solve._un_lowest([(0.5, 0.22, -0.03), (0.5, 0.22 + 2e-8, -0.03)], spec)
    assert len(blocks) == info["nfev"] + 1 == 101
    assert seen == list(range(1, len(blocks) + 1))


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


# the molecule4 benchmark's seed-0 passes 0-2 (simplex seed = pass, ratios
# [1, r] with r from default_rng([0, pass, 4])), with numpy 2.4.6: the
# energies with F4 tables built by matrix-vector products, then older
# generations, each held to its relative bound in _MASS4_BOUNDS: those with
# tables of jet products and the closed-form scale of a certified
# two-direction pencil (1e-14), with the Python-float reduction of one- and
# two-term pencils (Brent's scale, 1e-13), with one contraction per block
# (the LAPACK reduction, 1e-13), of the hand-written pair kernel (the same
# F4 tables, 1e-13) and of one table per Klein orbit (the earlier tables,
# 1e-14)
_MASS4_PINNED = {
    ("cc-break", 0, 2.9842160587427786): (
        ("-0.5042331263235789", "-0.5042551752675352"),
        ("-0.5042331263235788", "-0.5042551752675354"),
        ("-0.5042331263235788", "-0.5042551752675354"),
        ("-0.5042331263235788", "-0.5042551752675355"),
        ("-0.5042331263235792", "-0.5042551752675358"),
        ("-0.5042331263235788", "-0.5042551752675357")),
    ("identity-break", 0, 1.9016348825652267): (
        ("-0.5042296509175105", "-0.5042318399637692"),
        ("-0.5042296509175103", "-0.5042318399637696"),
        ("-0.5042296509175102", "-0.5042318399637696"),
        ("-0.5042296509175104", "-0.5042318399637696"),
        ("-0.5042296509175104", "-0.5042318399637694"),
        ("-0.5042296509175103", "-0.5042318399637695")),
    ("cc-break", 1, 1.4495932749446765): (
        ("-0.5042331263235789", "-0.5042528375326888"),
        ("-0.5042331263235788", "-0.5042528375326888"),
        ("-0.5042331263235788", "-0.5042528375326888"),
        ("-0.5042331263235788", "-0.5042528375326888"),
        ("-0.5042331263235792", "-0.5042528375326893"),
        ("-0.5042331263235788", "-0.5042528375326891")),
    ("identity-break", 1, 1.8201738521820963): (
        ("-0.5042296509175105", "-0.5042318399637692"),
        ("-0.5042296509175103", "-0.5042318399637694"),
        ("-0.5042296509175102", "-0.5042318399637693"),
        ("-0.5042296509175104", "-0.5042318399637693"),
        ("-0.5042296509175104", "-0.5042318399637691"),
        ("-0.5042296509175103", "-0.5042318399637695")),
    ("cc-break", 2, 2.5509440505289005): (
        ("-0.5042331263235789", "-0.5042547199587674"),
        ("-0.5042331263235788", "-0.5042547199587674"),
        ("-0.5042331263235788", "-0.5042547199587674"),
        ("-0.5042331263235788", "-0.5042547199587674"),
        ("-0.5042331263235792", "-0.5042547199587678"),
        ("-0.5042331263235788", "-0.5042547199587676")),
    ("identity-break", 2, 2.3277955399766577): (
        ("-0.5042296509175105", "-0.5042318399637692"),
        ("-0.5042296509175103", "-0.5042318399637694"),
        ("-0.5042296509175102", "-0.5042318399637695"),
        ("-0.5042296509175104", "-0.5042318399637694"),
        ("-0.5042296509175104", "-0.5042318399637691"),
        ("-0.5042296509175103", "-0.5042318399637695")),
}
_MASS4_BOUNDS = (1e-14, 1e-13, 1e-13, 1e-13, 1e-14)


@pytest.mark.parametrize("mode, seed, ratio", sorted(_MASS4_PINNED))
def test_scan_mass4_energies_pinned(mode, seed, ratio):
    rows = solve.scan_mass4([1.0, ratio], mode,
                            MinimizerConfig(seed=seed, restarts=1, max_iter=8))
    got = tuple(repr(float(r["energy"])) for r in rows)
    pinned, *older = _MASS4_PINNED[mode, seed, ratio]
    assert got == pinned
    assert len(older) == len(_MASS4_BOUNDS)
    for generation, bound in zip(older, _MASS4_BOUNDS):
        for e, e0 in zip(map(float, got), map(float, generation)):
            assert abs(e - e0) <= bound * abs(e0)


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
