"""Four-body matrix elements: generating function, moments, assembler."""

import numpy as np
import pytest

from scipy.optimize import brentq

from coulomb2e import matel4, oracle, solve
from coulomb2e.model import SystemSpec, ps2_spec


T1 = (0.9, 0.2, 0.3, 0.8)
T2 = (0.7, 0.4, 0.1, 1.0)
A4 = matel4._pair_args(T1, T2)


def test_f4_vs_quadrature():
    got = matel4.f4(1.0, 2.0, 1.0, 2.0)
    q = oracle.quad4_moment(0, 0, 0, 0, 0, 1.0, 2.0, 1.0, 2.0)
    assert got == pytest.approx(q, rel=1e-7)


def test_f4_series_and_direct_branches_agree():
    # straddle the series switch with nearby argument sets
    lo = matel4.f4(1.0, 1.2, 1.0, 1.15)   # small r -> series
    hi = matel4.f4(1.0, 3.5, 0.3, 2.0)    # large r -> direct atanh
    assert np.isfinite(lo) and np.isfinite(hi)
    # exact degeneracy (printed form is 0/0 here) must still evaluate
    assert np.isfinite(matel4.f4(1.3, 1.3, 0.8, 0.8))


def test_f4_degenerate_limit_continuous():
    base = matel4.f4(1.3, 1.3, 0.8, 0.8)
    eps = 1e-7
    near = matel4.f4(1.3 + eps, 1.3 - eps, 0.8, 0.8)
    assert near == pytest.approx(base, rel=1e-9)


def test_f4_domain_error():
    with pytest.raises(ValueError):
        matel4.f4(1.0, -3.0, 0.5, 0.5)


@pytest.mark.parametrize("mom", [(0, 0, 1, 1, 3), (2, 0, 1, 1, 1),
                                 (1, 1, 0, 2, 1)])
def test_moment4_vs_quadrature(mom):
    got = matel4.moment4(*mom, *A4)
    q = oracle.quad4_moment(*mom, *A4)
    assert got == pytest.approx(q, rel=1e-6)


def test_g4_vs_finite_differences_low_order():
    a, b, c, d = 1.1, 0.9, 0.8, 1.2
    h = 1e-4
    fd = (matel4.f4(a + h, b, c, d) - matel4.f4(a - h, b, c, d)) / (2 * h)
    assert matel4.g4((1, 0, 0, 0, 0), a, b, c, d) == pytest.approx(-fd, rel=1e-5)
    fdu = (matel4.f4(a, b, c, d, u=h) - matel4.f4(a, b, c, d, u=-h)) / (2 * h)
    assert matel4.g4((0, 0, 0, 0, 1), a, b, c, d) == pytest.approx(-fdu, rel=1e-5)


def test_g4_order_cap():
    # per-axis cap (2, 2, 2, 2, 3) and total-degree cap 5: a truncated
    # cell must raise, not read as zero
    assert matel4._ORDERS == (2, 2, 2, 2, 3) and matel4._DEGREE == 5
    for idx in ((3, 0, 0, 0, 0), (0, 0, 0, 0, 4), (2, 2, 2, 0, 0),
                (1, 1, 1, 1, 2), (2, 0, 1, 1, 2), (0, 0, 0, 0, -1)):
        with pytest.raises(ValueError):
            matel4.g4(idx, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            matel4.moment4(*idx, 1.1, 0.9, 0.8, 1.2)
    assert np.isfinite(matel4.g4((2, 0, 0, 0, 3), 1.0, 1.0, 1.0, 1.0))


def test_assembler_reads_exactly_the_tabulated_moments(monkeypatch):
    # the jet truncation is derived from _MOMENTS, so that list must be
    # what overlap4, coulomb4 and kinetic4 actually read
    seen = set()
    orig = matel4.moment4

    def spy(*args):
        seen.add(tuple(args[:5]))
        return orig(*args)

    monkeypatch.setattr(matel4, "moment4", spy)
    spec = SystemSpec(inv_masses=(1.0, 0.5, 2.0, 0.7), z_central=None,
                      charges=(1.0, 1.0, -1.0, -1.0))
    matel4.assemble4([matel4.symmetrized_group(T1)], spec)
    assert seen == set(matel4._MOMENTS)


@pytest.mark.parametrize("mode", ["cc-break", "identity-break"])
def test_assemble4_matches_pairwise_sum(mode):
    # the array-valued assembler must reproduce, bit for bit, the weighted
    # per-pair sum in group order of the scalar element functions
    spec = solve._four_spec(mode, 1.7)
    if mode == "cc-break":
        groups = [matel4.symmetrized_group(T1), matel4.symmetrized_group(T2)]
    else:
        groups = solve._four_groups(mode, (0.62, 0.31))
    blk = matel4.assemble4(groups, spec)
    invm = spec.inv_masses
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            acc = 0.0
            for w1, u in (gi if i <= j else gj):
                for w2, v in (gj if i <= j else gi):
                    acc = acc + w1 * w2 * np.array((
                        matel4.overlap4(u, v),
                        sum(0.5 * invm[p - 1] * matel4.kinetic4(p, u, v)
                            for p in range(1, 5)),
                        sum(s * matel4.coulomb4(pr, u, v)
                            for pr, s in matel4._PAIR_SIGNS)))
            assert [blk.n_mat[i, j], blk.t_mat[i, j], blk.v_mat[i, j]] == list(acc)


def _f4_mp(mp, a, b, c, d, u):
    # atanh form: log(u1/u2)/(p q) = 2 atanh(r)/r/(u1+u2), r = p q/(u1+u2),
    # finite at a = b and c = d
    s = (a + b + c + d) / 2 + u
    p, q = a - b, c - d
    w = 2 * s * s - (p * p + q * q) / 2          # u1 + u2
    r = p * q / w
    g = mp.atanh(r) / r if r else mp.mpf(1)
    return 32 * g / w / ((a + b) * (c + d))


def _r_at(a, b, c, d):
    s = 0.5 * (a + b + c + d)
    p, q = a - b, c - d
    return p * q / (2 * s * s - 0.5 * (p * p + q * q))


# both sides of the r = 0.3 series switch, along c at (2.0, 0.3, c, 0.25)
_C_SWITCH = [brentq(lambda c: _r_at(2.0, 0.3, c, 0.25) - r, 0.3, 5.0)
             for r in (matel4._R_SWITCH - 1e-4, matel4._R_SWITCH + 1e-4)]


@pytest.mark.parametrize("pt", [
    (2.0, 0.3, 1.7, 0.25),             # asymmetric, direct branch
    (3.0, 0.1, 2.5, 0.15),             # strong anisotropy, r = 0.71
    (1.3, 1.3 + 1e-7, 0.8, 0.5),       # a ~ b
    (1.1, 0.7, 0.9, 0.9 + 1e-7),       # c ~ d
    (1.3, 1.3, 0.8, 0.8),              # exact degeneracy, r = 0
    (2.0, 0.3, _C_SWITCH[0], 0.25),    # series side of the switch
    (2.0, 0.3, _C_SWITCH[1], 0.25),    # direct side of the switch
])
def test_f4_moments_vs_mpmath(pt):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        x0 = tuple(mp.mpf(v) for v in pt) + (mp.mpf(0),)
        for idx in matel4._MOMENTS:
            want = (-1) ** sum(idx) * mp.diff(
                lambda *x: _f4_mp(mp, *x), x0, idx)
            got = matel4.moment4(*idx, *pt)
            assert abs(got - want) <= 1e-13 * abs(want), (idx, got, want)


def test_overlap_and_kinetic_symmetric_in_bra_ket():
    assert matel4.overlap4(T1, T2) == pytest.approx(
        matel4.overlap4(T2, T1), rel=1e-12)
    for p in (1, 2, 3, 4):
        assert matel4.kinetic4(p, T1, T2) == pytest.approx(
            matel4.kinetic4(p, T2, T1), rel=1e-10)


def test_kinetic_relabel_consistency():
    # swapping the two positives with the two negatives maps p1^2 onto p3^2
    t_sw = matel4._relabel_1324(T1)
    u_sw = matel4._relabel_1324(T2)
    assert matel4.kinetic4(1, T1, T2) == pytest.approx(
        matel4.kinetic4(3, t_sw, u_sw), rel=1e-12)


def test_coulomb_34_is_12_relabeled():
    got = matel4.coulomb4("34", T1, T2)
    q = oracle.quad4_moment(1, 1, 1, 1, 0, A4[0], A4[2], A4[1], A4[3])
    assert got == pytest.approx(q, rel=1e-6)


def test_symmetrized_group_orbits():
    g_full = matel4.symmetrized_group((0.9, 0.2, 0.3, 0.8))
    assert len(g_full) == 4
    # a fully symmetric term has a one-element orbit
    assert len(matel4.symmetrized_group((0.5, 0.5, 0.5, 0.5))) == 1


def test_ho_reduced_vs_assembler():
    # the one-parameter closed form and the general assembler agree up to a
    # common normalization constant at sampled beta
    spec = ps2_spec()
    for beta in (0.05, 0.3, 0.69475):
        a, b = 0.5 * (1 + beta), 0.5 * (1 - beta)
        groups = [[(1.0, (a, b, b, a)), (1.0, (b, a, a, b))]]
        blk = matel4.assemble4(groups, spec)
        n, t, v = matel4.ho_ntv(beta)
        c0 = blk.n_mat[0, 0] / n
        assert blk.t_mat[0, 0] == pytest.approx(c0 * t, rel=1e-10)
        assert blk.v_mat[0, 0] == pytest.approx(-c0 * v, rel=1e-10)


def test_ho_series_matches_closed_form_at_switch():
    lo = matel4.ho_ntv(0.3999999)
    hi = matel4.ho_ntv(0.4000001)
    for x, y in zip(lo, hi):
        assert x == pytest.approx(y, rel=1e-6)


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.1001, 0.2, 0.3, 0.4, 0.45,
                                  0.5, 0.695])
def test_ho_ntv_vs_mpmath(beta):
    # the closed form in 50-digit arithmetic: below beta = 0.4 the float
    # closed form of v loses digits to its cancelling 1/beta^4 and 1/beta^2
    # pieces (2.4e-12 at beta = 0.1), so the series branch must cover it
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        b2 = mp.mpf(beta) ** 2
        omb = 1 - b2
        n = mp.mpf(33) / 16 + (33 - 22 * b2 + 5 * b2**2) / (16 * omb**3)
        t = mp.mpf(21) / 8 - 3 * b2 / 2 + (21 - 6 * b2 + b2**2) / (8 * omb**3)
        bracket = (1 - 5 * b2 / 8 - 1 / (4 * b2**2) + 7 / (8 * b2)
                   + omb**4 / (4 * b2**3) * mp.log(1 / omb))
        v = (mp.mpf(19) / 6 + (21 - 18 * b2 + 5 * b2**2) / (4 * omb**3)
             - bracket / omb**2)
    for got, ref in zip(matel4.ho_ntv(beta), (n, t, v)):
        assert abs(got - float(ref)) <= 1e-14 * abs(float(ref))


def test_ho_domain():
    with pytest.raises(ValueError):
        matel4.ho_ntv(1.0)
    with pytest.raises(ValueError):
        matel4.ho_ntv(-0.1)
