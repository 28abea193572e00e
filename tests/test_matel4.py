"""Four-body matrix elements: generating function, moments, assembler."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from scipy.optimize import brentq

from coulomb2e import matel4, solve
from coulomb2e.jets import Jet
from coulomb2e.model import SystemSpec, ps2_spec
from reference import elements as el, oracle
from reference.jets import variable


T1 = (0.9, 0.2, 0.3, 0.8)
T2 = (0.7, 0.4, 0.1, 1.0)
A4 = el.pair_args(T1, T2)
# V = sum of s * coulomb4(pair) over the six pairs
_PAIR_SIGNS = (("12", +1.0), ("34", +1.0), ("13", -1.0),
               ("23", -1.0), ("14", -1.0), ("24", -1.0))


def test_f4_vs_quadrature():
    got = el.f4(1.0, 2.0, 1.0, 2.0)
    q = oracle.quad4_moment(0, 0, 0, 0, 0, 1.0, 2.0, 1.0, 2.0)
    assert got == pytest.approx(q, rel=1e-7)


def test_f4_series_and_direct_branches_agree():
    # one argument set on each side of the series switch
    assert abs(_r_at(1.0, 1.2, 1.0, 1.15)) < matel4._R_SWITCH < _r_at(3.0, 0.1, 2.5, 0.15)
    lo = el.f4(1.0, 1.2, 1.0, 1.15)   # small r -> series
    hi = el.f4(3.0, 0.1, 2.5, 0.15)   # large r -> atanh(r)/r
    assert np.isfinite(lo) and np.isfinite(hi)
    # exact degeneracy (printed form is 0/0 here) must still evaluate
    assert np.isfinite(el.f4(1.3, 1.3, 0.8, 0.8))


def test_f4_degenerate_limit_continuous():
    base = el.f4(1.3, 1.3, 0.8, 0.8)
    eps = 1e-7
    near = el.f4(1.3 + eps, 1.3 - eps, 0.8, 0.8)
    assert near == pytest.approx(base, rel=1e-9)


def test_f4_domain_error():
    with pytest.raises(ValueError):
        el.f4(1.0, -3.0, 0.5, 0.5)


@pytest.mark.parametrize("mom", [(0, 0, 1, 1, 3), (2, 0, 1, 1, 1),
                                 (1, 1, 0, 2, 1)])
def test_moment4_vs_quadrature(mom):
    got = matel4.moment4(*mom, *A4)
    q = oracle.quad4_moment(*mom, *A4)
    assert got == pytest.approx(q, rel=1e-6)


def test_g4_vs_finite_differences_low_order():
    a, b, c, d = 1.1, 0.9, 0.8, 1.2
    h = 1e-4
    fd = (el.f4(a + h, b, c, d) - el.f4(a - h, b, c, d)) / (2 * h)
    assert matel4.moment4(1, 0, 0, 0, 0, a, b, c, d) == pytest.approx(-fd, rel=1e-5)
    fdu = (el.f4(a, b, c, d, u=h) - el.f4(a, b, c, d, u=-h)) / (2 * h)
    assert matel4.moment4(0, 0, 0, 0, 1, a, b, c, d) == pytest.approx(-fdu, rel=1e-5)


def _ideal():
    # the F4 jet's layout: the cells at or below a _MOMENTS entry
    return matel4._layout(matel4._SHAPE, matel4._DEGREE, matel4._MOMENTS)


def _below_moments(idx):
    return any(all(i <= j for i, j in zip(idx, top)) for top in matel4._MOMENTS)


def test_f4_layout_is_the_down_closure_of_the_moments():
    # every cell at or below a _MOMENTS entry, nothing else, in the box's
    # order (zero first), with the pair table of that ideal
    lay = _ideal()
    closure = {idx for idx in np.ndindex(matel4._SHAPE) if _below_moments(idx)}
    assert list(lay.index) == sorted(closure) and lay.n == 78
    assert lay.index[(0, 0, 0, 0, 0)] == 0 and len(lay.pi) == 686
    assert matel4._f4_table(*A4).lay is lay


def test_g4_order_cap():
    # the jet keeps the down-closure of _MOMENTS inside the (2, 2, 2, 2, 3)
    # box at total degree 5: every kept cell reads finite, and every other
    # cell raises rather than reading as zero, (2, 0, 0, 0, 3) included
    assert matel4._ORDERS == (2, 2, 2, 2, 3) and matel4._DEGREE == 5
    assert not _below_moments((2, 0, 0, 0, 3))
    outside = [(3, 0, 0, 0, 0), (0, 0, 0, 0, 4), (0, 0, 0, 0, -1)]
    for idx in list(np.ndindex(matel4._SHAPE)) + outside:
        if _below_moments(idx) and idx not in outside:
            assert np.isfinite(matel4.moment4(*idx, 1.0, 1.0, 1.0, 1.0))
            assert np.isfinite(matel4.moment4(*idx, 1.1, 0.9, 0.8, 1.2))
            continue
        with pytest.raises(ValueError):
            matel4.moment4(*idx, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            matel4.moment4(*idx, 1.1, 0.9, 0.8, 1.2)


def _variables(x):
    # A, B, C, D and U on the degree-5 box, U expanded at u = 0
    return [variable(v, k, matel4._SHAPE, matel4._DEGREE)
            for k, v in enumerate(x + (0.0,))]


def test_f4_quadratic_inputs_match_jet_products():
    # u1 + u2 and u1 - u2 written in closed form equal, to the bit and with
    # the same degree bound, 2 S S - (p p + q q)/2 and p q built from jet
    # variables: on the degree-5 box and on the F4 ideal's cells
    rng = np.random.default_rng(20)
    box = matel4._layout(matel4._SHAPE, matel4._DEGREE)
    cells = [box.index[idx] for idx in _ideal().index]
    for _ in range(200):
        x = tuple(float(v) for v in rng.uniform(0.05, 4.0, 4))
        A, B, C, D, U = _variables(x)
        S, p, q = 0.5 * (A + B + C + D) + U, A - B, C - D
        want = (2 * S * S - 0.5 * (p * p + q * q), p * q)
        for lay, at in ((box, slice(None)), (_ideal(), cells)):
            for got, ref in zip(matel4._f4_inputs(*x, lay)[:2], want):
                assert got.c.tobytes() == ref.c[at].tobytes(), x
                assert got.deg == ref.deg == 2


def test_f4_separable_factor_coefficients():
    # 32/((a+b)(c+d)) in closed form: within 1e-15 relative of the exact
    # rational coefficients, exact zeros where m > 0, and within 1e-14 of
    # the jet 32 ((A+B)(C+D))^-1, whose own products and composition are up
    # to 3.3e-15 off the exact values at these points (the closed form 7.5e-16)
    rng = np.random.default_rng(21)
    box = matel4._layout(matel4._SHAPE, matel4._DEGREE)
    for _ in range(100):
        x = tuple(float(v) for v in rng.uniform(0.05, 4.0, 4))
        sep = matel4._f4_inputs(*x, box)[2].c
        A, B, C, D, _ = _variables(x)
        jet = (32 * ((A + B) * (C + D)).recip()).c
        s, t = Fraction(x[0]) + Fraction(x[1]), Fraction(x[2]) + Fraction(x[3])
        for (i, j, k, l, m), n in box.index.items():
            if m:
                assert sep[n] == jet[n] == 0.0
                continue
            want = 32 * (-1) ** (i + j + k + l) * comb(i + j, i) * comb(k + l, k) \
                / (s ** (i + j + 1) * t ** (k + l + 1))
            assert abs(Fraction(sep[n]) - want) <= Fraction(1e-15) * abs(want)
            assert abs(sep[n] - jet[n]) <= 1e-14 * abs(jet[n])


def test_assembler_reads_exactly_the_tabulated_moments(monkeypatch):
    # the jet truncation is derived from _MOMENTS, so that list must be
    # what overlap4, coulomb4 and kinetic4 actually read
    seen = set()
    orig = matel4.moment4

    def spy(*args):
        seen.add(tuple(args[:5]))
        return orig(*args)

    monkeypatch.setattr(matel4, "moment4", spy)
    group = [t for _, t in matel4.symmetrized_group(T1)]
    for u in group:
        for v in group:
            el.overlap4(u, v)
            for p in (1, 2, 3, 4):
                el.kinetic4(p, u, v)
            for pr, _ in _PAIR_SIGNS:
                el.coulomb4(pr, u, v)
    assert seen == set(matel4._MOMENTS)
    monkeypatch.setattr(matel4, "moment4", orig)

    # and the assembler's gather reads exactly those cells of each table:
    # with every other cell NaN the block is unchanged to the bit, and a NaN
    # in any one of them reaches the block
    spec = SystemSpec(inv_masses=(1.0, 0.5, 2.0, 0.7), z_central=None,
                      charges=(1.0, 1.0, -1.0, -1.0))
    groups = [matel4.symmetrized_group(T1)]
    want = matel4.assemble4(groups, spec)
    real = matel4._f4_table
    lay = real(*A4).lay
    cells = [lay.index[idx] for idx in matel4._MOMENTS]

    def masked(poison):
        def table(*args):
            c = np.full(lay.n, np.nan)
            c[cells] = real(*args).c[cells]
            if poison is not None:
                c[poison] = np.nan
            return Jet(c, lay)
        return table

    monkeypatch.setattr(matel4, "_f4_table", masked(None))
    got = matel4.assemble4(groups, spec)
    for x, y in ((got.n_mat, want.n_mat), (got.t_mat, want.t_mat),
                 (got.v_mat, want.v_mat)):
        assert x.tobytes() == y.tobytes()
    for k in cells:
        monkeypatch.setattr(matel4, "_f4_table", masked(k))
        got = matel4.assemble4(groups, spec)
        assert any(np.isnan(x).any() for x in (got.n_mat, got.t_mat, got.v_mat)), k


def _pairwise_block(groups, spec):
    # the weighted per-pair sum, in group order, of the scalar element
    # functions, added left to right as the per-row assembler did
    invm = spec.inv_masses
    m = len(groups)
    out = np.zeros((3, m, m))
    for i, gi in enumerate(groups):
        for j, gj in enumerate(groups):
            acc = 0.0
            for w1, u in (gi if i <= j else gj):
                for w2, v in (gj if i <= j else gi):
                    t = 0.0
                    for p in range(1, 5):
                        if invm[p - 1] != 0.0:
                            t = t + 0.5 * invm[p - 1] * el.kinetic4(p, u, v)
                    pot = 0.0
                    for pr, s in _PAIR_SIGNS:
                        pot = pot + s * el.coulomb4(pr, u, v)
                    acc = acc + w1 * w2 * np.array((el.overlap4(u, v), t, pot))
            out[:, i, j] = acc
    return out


def _near(rng, x):
    # a nearby exponent: equal, or off by a relative 1e-9 .. 1e-2
    return x * (1.0 + rng.choice([0.0, 1e-9, 1e-5, 1e-2]) * rng.choice([-1, 1]))


@pytest.mark.parametrize("mode", ["cc-break", "identity-break"])
def test_assemble4_matches_pairwise_sum(mode):
    # the array-valued assembler must reproduce, bit for bit, the weighted
    # per-pair sum in group order of the scalar element functions: the fixed
    # block below, then 100 seeded blocks at ratios in [1, 3] with
    # near-degenerate exponents, then two with infinitely heavy positives
    rng = np.random.default_rng(2009)
    if mode == "cc-break":
        cases = [(1.7, [matel4.symmetrized_group(T1),
                        matel4.symmetrized_group(T2)])]
    else:
        cases = [(1.7, solve._four_groups(mode, (0.62, 0.31)))]
    while len(cases) < 103:
        ratio = float(rng.uniform(1.0, 3.0)) if len(cases) < 101 else None
        x = [float(v) for v in rng.uniform(0.1, 1.5, 4)]
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            if rng.random() < 0.3:
                x[j] = float(_near(rng, x[i]))
        if mode == "cc-break":
            groups = solve._four_groups(mode, tuple(x))
            if rng.random() < 0.2:
                groups = groups + [matel4.symmetrized_group(
                    tuple(float(v) for v in rng.uniform(0.1, 1.5, 4)))]
        else:
            groups = solve._four_groups(mode, (x[0], x[1]))
        cases.append((ratio, groups))
    heavy = SystemSpec(inv_masses=(0.0, 0.0, 1.0, 1.5), z_central=None,
                       charges=(1.0, 1.0, -1.0, -1.0))
    for ratio, groups in cases:
        spec = heavy if ratio is None else solve._four_spec(mode, ratio)
        blk = matel4.assemble4(groups, spec)
        want = _pairwise_block(groups, spec)
        for got, ref in zip((blk.n_mat, blk.t_mat, blk.v_mat), want):
            assert got.tobytes() == ref.tobytes(), (ratio, groups)


def _f4_args(seed):
    # 2 000 seeded F4 argument sets on both sides of the series switch, near
    # a = b and c = d, and at exact degeneracy
    rng = np.random.default_rng(seed)
    args = []
    for k in range(2000):
        a, b, c, d = (float(v) for v in rng.uniform(0.05, 4.0, 4))
        if k % 10 < 3:
            b, d = float(_near(rng, a)), float(_near(rng, c))
        elif k % 10 < 5:        # strong anisotropy: the recurrence side
            a, c = (float(v) for v in rng.uniform(1.5, 4.0, 2))
            b, d = (float(v) for v in rng.uniform(0.05, 0.5, 2))
        args.append((a, b, c, d))
    r = np.array([abs(_r_at(*x)) for x in args])
    for side in (r < matel4._R_SWITCH, r >= matel4._R_SWITCH):
        assert side.sum() > 200 and (side & (abs(r - matel4._R_SWITCH) < 0.03)).sum() > 10
    assert sum(x[0] == x[1] and x[2] == x[3] for x in args) > 10
    return args


def test_f4_tables_match_full_table_products(monkeypatch):
    # degree-aware products build every F4 table to the bit as full-table
    # products do, over _f4_args' 2 000 argument sets
    args = _f4_args(15)
    fast = [matel4._f4_jet(*x, _ideal()).c for x in args]

    def full(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other, self.lay)
        lay = self.lay
        return Jet(np.bincount(lay.po, self.c[lay.pi] * other.c[lay.pj], lay.n), lay)

    monkeypatch.setattr(Jet, "__mul__", full)
    monkeypatch.setattr(Jet, "__rmul__", full)
    for x, c in zip(args, fast):
        assert matel4._f4_jet(*x, _ideal()).c.tobytes() == c.tobytes(), x


def test_f4_ideal_reads_as_the_box_build():
    # a product keeps the same pairs in the same order on an order ideal, so
    # the F4 table on the ideal equals, to the bit, the same pipeline on the
    # degree-5 box at the ideal's cells, over _f4_args' 2 000 argument sets
    box = matel4._layout(matel4._SHAPE, matel4._DEGREE)
    cells = [box.index[idx] for idx in _ideal().index]
    for x in _f4_args(15):
        got = matel4._f4_jet(*x, _ideal()).c
        assert got.tobytes() == matel4._f4_jet(*x, box).c[cells].tobytes(), x


def _orbit(x):
    return [tuple(x[i] for i in g) for g in matel4._KLEIN]


def test_moments_closed_under_the_orbit_group():
    # the four involutions form a group that fixes u and maps the moments the
    # kernel reads onto themselves, so every served cell is a tabulated one
    klein = set(matel4._KLEIN)
    for g in klein:
        assert tuple(g[i] for i in g) == (0, 1, 2, 3)
        assert {tuple(g[i] for i in h) for h in klein} == klein
        assert {tuple(idx[i] for i in g) + idx[4:] for idx in matel4._MOMENTS} \
            == set(matel4._MOMENTS)
        assert el.f4(*(T1[i] for i in g)) == pytest.approx(el.f4(*T1), rel=1e-15)
    lay = matel4._f4_table(*A4).lay
    cells = [lay.index[idx] for idx in matel4._MOMENTS]
    rows = matel4._orbit_cells(lay).tolist()
    assert rows[0] == cells and all(sorted(r) == sorted(cells) for r in rows)


def test_orbit_tables_match_direct_builds():
    # a request at any member of an orbit reads the one table at its smallest
    # member through permuted cells; over _f4_args' 2 000 argument sets each
    # served moment matches a build at the requested arguments to 1e-13
    # relative, and the lru holds one table per orbit
    matel4._f4_table.cache_clear()
    args = _f4_args(18)
    for x in args:
        orbit = _orbit(x)
        for y in orbit:
            tab, k = matel4._f4_orbit(*y)
            assert tab is matel4._f4_table(*min(orbit))
            if y == min(orbit):     # that table itself, read in place
                assert k == 0
                continue
            got = tab.c[matel4._orbit_cells(tab.lay)[k]]
            ref = matel4._f4_jet(*y, _ideal())
            want = ref.c[[ref.lay.index[idx] for idx in matel4._MOMENTS]]
            assert np.all(abs(got - want) <= 1e-13 * abs(want)), (y, got - want)
    assert matel4._f4_table.cache_info().currsize == len({min(_orbit(x)) for x in args})


def test_molecule4_pass_builds_one_table_per_orbit(monkeypatch):
    # the benchmark's molecule4 pass (seed 0, pass 0): both modes at ratio 1
    # and a seeded ratio, one restart of 8 evaluations.  With one table per
    # argument set this pass built 130 tables, in 66 orbits.  The cc-break
    # simplex at ratio 1 compares two vertices that differ only in scale,
    # so last-bit moves of the moments can flip one step and add an orbit
    # outside that set (67 with the earlier Newton/series tables)
    seen = []
    real = matel4._f4_jet

    def spy(*args):
        seen.append(args[:4])
        return real(*args)

    matel4._f4_table.cache_clear()
    monkeypatch.setattr(matel4, "_f4_jet", spy)
    for mode, ratio in (("cc-break", 2.9842160587427786),
                        ("identity-break", 1.9016348825652267)):
        solve.scan_mass4([1.0, ratio], mode,
                         solve.MinimizerConfig(seed=0, restarts=1, max_iter=8))
    assert matel4._f4_table.cache_info().misses == len(seen) == 66
    assert len({min(_orbit(x)) for x in seen}) == 66


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


# both sides of the series switch, along c at (2.0, 0.3, c, 0.25)
_C_SWITCH = [brentq(lambda c: _r_at(2.0, 0.3, c, 0.25) - r, 0.3, 5.0)
             for r in (matel4._R_SWITCH - 1e-4, matel4._R_SWITCH + 1e-4)]


@pytest.mark.parametrize("pt", [
    (2.0, 0.3, 1.7, 0.25),             # asymmetric, r = 0.38
    (3.0, 0.1, 2.5, 0.15),             # strong anisotropy, r = 0.71
    (4.0, 0.05, 3.9, 0.06),            # stronger anisotropy, r = 0.90
    (1.3, 1.3 + 1e-7, 0.8, 0.5),       # a ~ b
    (1.1, 0.7, 0.9, 0.9 + 1e-7),       # c ~ d
    (1.3, 1.3, 0.8, 0.8),              # exact degeneracy, r = 0
    (2.0, 0.3, _C_SWITCH[0], 0.25),    # series side of the switch
    (2.0, 0.3, _C_SWITCH[1], 0.25),    # recurrence side of the switch
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


def test_atanh_coefficients_vs_mpmath():
    # G_m = g^(m)(r)/m! of g = atanh(r)/r, m = 0 .. 5, against 50-digit
    # mpmath over [-0.995, 0.995]: both sides of the series switch, r = 0 and
    # r = +-1e-12, where the odd orders vanish and are held absolutely
    mp = pytest.importorskip("mpmath")
    s = matel4._R_SWITCH
    grid = sorted(set(np.linspace(-0.995, 0.995, 81).tolist())
                  | {s - 1e-7, s + 1e-7, -s - 1e-7, -s + 1e-7, 0.0, 1e-12, -1e-12})
    with mp.workdps(50):
        g = lambda x: mp.atanh(x) / x if x else mp.mpf(1)
        for r in grid:
            got = matel4._g_coefs(r)
            want = mp.taylor(g, mp.mpf(r), matel4._DEGREE)
            for m, (x, y) in enumerate(zip(got, want)):
                scale = 1.0 if m % 2 and abs(r) < 1e-6 else abs(y)
                assert abs(x - y) <= 1e-14 * scale, (r, m, x, y)
    assert matel4._g_coefs(0.0) == [1.0, 0.0, 1 / 3, 0.0, 1 / 5, 0.0]


def test_overlap_and_kinetic_symmetric_in_bra_ket():
    assert el.overlap4(T1, T2) == pytest.approx(
        el.overlap4(T2, T1), rel=1e-12)
    for p in (1, 2, 3, 4):
        assert el.kinetic4(p, T1, T2) == pytest.approx(
            el.kinetic4(p, T2, T1), rel=1e-10)


def test_kinetic_relabel_consistency():
    # swapping the two positives with the two negatives maps p1^2 onto p3^2
    t_sw = el.to_F(T1)
    u_sw = el.to_F(T2)
    assert el.kinetic4(1, T1, T2) == pytest.approx(
        el.kinetic4(3, t_sw, u_sw), rel=1e-12)


def test_coulomb_34_is_12_relabeled():
    got = el.coulomb4("34", T1, T2)
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
