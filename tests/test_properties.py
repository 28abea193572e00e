"""Property-based invariants over the matrix-element and solver layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coulomb2e import matel3, solve
from reference.elements import f3, g3
from coulomb2e.model import MatBlock, hminus_spec
from coulomb2e.solve import chandrasekhar_energy, gen_eig, virial_reduce

pos = st.floats(min_value=0.15, max_value=2.5, allow_nan=False,
                allow_infinity=False)
small = st.floats(min_value=0.01, max_value=0.6, allow_nan=False,
                  allow_infinity=False)


@given(pos, pos, small)
@settings(max_examples=40, deadline=None)
def test_f3_totally_symmetric(al, be, ga):
    ref = f3(al, be, ga)
    assert f3(be, al, ga) == pytest.approx(ref, rel=1e-13)
    assert f3(ga, be, al) == pytest.approx(ref, rel=1e-13)
    assert f3(al, ga, be) == pytest.approx(ref, rel=1e-13)


@given(pos, pos, small)
@settings(max_examples=25, deadline=None)
def test_g3_positive_and_monotone_in_exponents(al, be, ga):
    # every moment is positive, and growing any exponent shrinks it
    g = g3((1, 1, 1), al, be, ga)
    assert g > 0
    assert g3((1, 1, 1), al + 0.3, be, ga) < g


@given(pos, pos, small)
@settings(max_examples=20, deadline=None)
def test_g3_scaling_law(al, be, ga):
    # x -> x/s maps G(i,j,k; s*args) = s^-(i+j+k+3) G(i,j,k; args)
    s = 1.7
    g1 = g3((2, 1, 0), al, be, ga)
    g2 = g3((2, 1, 0), s * al, s * be, s * ga)
    assert g2 == pytest.approx(g1 / s ** 6, rel=1e-12)


@given(pos, pos)
@settings(max_examples=25, deadline=None)
def test_chandrasekhar_exchange_and_scale(a, b):
    n1 = matel3.chandrasekhar_ntv(a, b, 1.0, +1)
    n2 = matel3.chandrasekhar_ntv(b, a, 1.0, +1)
    for x, y in zip(n1, n2):
        assert x == pytest.approx(y, rel=1e-12)
    if n1[2] < 0:
        e1 = chandrasekhar_energy(a, b, 1.0)
        e2 = chandrasekhar_energy(2.3 * a, 2.3 * b, 1.0)
        assert e1 == pytest.approx(e2, rel=1e-11)


@given(pos, pos, st.floats(min_value=-0.05, max_value=0.4))
@settings(max_examples=25, deadline=None)
def test_natural_block_hermitian(a, b, c):
    if a + c <= 0.05 or b + c <= 0.05:
        return
    spec = hminus_spec(z=1.0)
    blk = matel3.natural_matblock([(a, b, c), (0.9 * a, 1.1 * b, 0.0)], spec)
    for M in (blk.n_mat, blk.t_mat, blk.v_mat):
        assert np.allclose(M, np.asarray(M).T, rtol=1e-10)
    assert np.all(np.linalg.eigvalsh(np.asarray(blk.n_mat)) > -1e-12)


@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=-3.0, max_value=-0.3))
@settings(max_examples=40, deadline=None)
def test_virial_reduction_beats_unit_scale(n, t, v):
    e, lam = virial_reduce(n, t, v)
    assert e <= (t + v) / n + 1e-12
    # stationarity: the quotient at the optimal scale matches the closed form
    assert (lam * lam * t + lam * v) / n == pytest.approx(e, rel=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=10, deadline=None)
def test_gen_eig_invariant_under_term_rescaling(seed):
    # rescaling basis vectors (congruence by a diagonal) must not move
    # the eigenvalues of the pencil
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    N = A @ A.T + 4 * np.eye(4)
    B = rng.standard_normal((4, 4))
    H = 0.5 * (B + B.T)
    D = np.diag(rng.uniform(0.5, 2.0, size=4))
    w1, _ = gen_eig(MatBlock(N, 0.5 * H, 0.5 * H))
    w2, _ = gen_eig(MatBlock(D @ N @ D, 0.5 * D @ H @ D, 0.5 * D @ H @ D))
    assert np.allclose(w1, w2, atol=1e-10)


def test_nested_basis_monotonicity():
    # enlarging the basis can only lower the scale-optimized minimum
    spec = hminus_spec(z=1.0)
    t1 = [(1.07, 0.45, 0.05)]
    t2 = t1 + [(0.6, 0.3, 0.02)]
    e1, _ = solve.scaled_lowest(matel3.natural_matblock(t1, spec))
    e2, _ = solve.scaled_lowest(matel3.natural_matblock(t2, spec))
    assert e2 <= e1 + 1e-12


def test_variational_bound_above_exact():
    # no admissible basis may undercut the reference ground energy
    spec = hminus_spec(z=1.0)
    for terms in ([(1.0, 0.5, 0.0)], [(1.07, 0.45, 0.05), (0.6, 0.3, 0.02)]):
        e, _ = solve.scaled_lowest(matel3.natural_matblock(terms, spec))
        assert e >= -0.527751 - 1e-6


def test_optimizer_determinism_end_to_end():
    cfg = solve.MinimizerConfig(seed=5, restarts=2, max_iter=300)
    r1 = solve.optimize_chandrasekhar(1.0, cfg)
    r2 = solve.optimize_chandrasekhar(1.0, cfg)
    assert r1[0] == r2[0] and tuple(r1[1]) == tuple(r2[1])
