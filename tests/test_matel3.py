"""Three-body matrix elements against quadrature oracles and closed forms."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from coulomb2e import matel3, matel4, solve
from coulomb2e.model import hminus_spec, UNNATURAL
from reference import elements as el, oracle


T1 = (0.9, 0.4, 0.08)
T2 = (0.7, 0.5, 0.03)
ARGS = tuple(x + y for x, y in zip(T1, T2))


def test_f3_value_and_domain():
    assert el.f3(1.0, 1.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        el.f3(1.0, -2.0, 0.5)


def test_g3_low_orders_closed_form():
    # G(0,0,0) = F3 itself; G(1,1,1) is the overlap moment
    assert el.g3((0, 0, 0), 2.0, 1.0, 0.5) == pytest.approx(
        el.f3(2.0, 1.0, 0.5), rel=1e-14)


@pytest.mark.parametrize("idx", [(1, 1, 1), (2, 0, 1), (0, 3, 0), (2, 2, 2),
                                 (1, 0, 4)])
def test_g3_vs_quadrature(idx):
    q = oracle.quad3_monomial(*idx, *ARGS)
    assert el.g3(idx, *ARGS) == pytest.approx(q, rel=1e-8)


def test_g3_vs_finite_differences_order3():
    # central differences of F3 at total order <= 3
    al, be, ga = 1.3, 0.8, 0.4
    h = 1e-3

    def f(da=0.0, db=0.0, dg=0.0):
        return el.f3(al + da, be + db, ga + dg)

    fd_111 = 0.0
    for sa in (+1, -1):
        for sb in (+1, -1):
            for sg in (+1, -1):
                fd_111 += sa * sb * sg * f(sa * h, sb * h, sg * h)
    fd_111 /= -(2 * h) ** 3  # G carries (-1)^(i+j+k)
    assert el.g3((1, 1, 1), al, be, ga) == pytest.approx(fd_111, rel=1e-5)

    fd_2 = (f(h) - 2 * f() + f(-h)) / h**2
    assert el.g3((2, 0, 0), al, be, ga) == pytest.approx(fd_2, rel=1e-5)


def test_g3_table_consistent_with_single_entries():
    G = matel3.g3_table(*ARGS, (3, 3, 3))
    for idx in [(0, 0, 0), (1, 2, 3), (3, 3, 3)]:
        assert G[idx] == pytest.approx(el.g3(idx, *ARGS), rel=1e-13)


def test_g3_order_contract():
    # no order cap in the closed form; negative orders are bad input.
    # At alpha = beta = gamma = 1: G(n,0,0) = 2 n! (n+1) / 2^(n+2)
    n = 18
    want = 2.0 * factorial(n) * (n + 1) / 2.0 ** (n + 2)
    assert el.g3((n, 0, 0), 1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-13)
    for bad in ((-1, 0, 0), (0, 2, -3)):
        with pytest.raises(ValueError):
            el.g3(bad, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            matel3.g3_table(1.0, 1.0, 1.0, bad)


def _cols_read(monkeypatch):
    # every column (cell or weight polynomial) the block assemblers ask for
    seen = set()
    orig = matel3._g3_cells

    def spy(e, cols):
        seen.update(cols)
        return orig(e, cols)

    monkeypatch.setattr(matel3, "_g3_cells", spy)
    terms = [(0.9, 0.4, 0.08), (0.7, 0.5, 0.03)]
    matel3.natural_matblock(terms, hminus_spec(z=2.0, mass_ratio=7.3))
    el.hughes_eckart_matrix(terms, hminus_spec(z=2.0))
    matel3.unnatural_matblock([(0.5, 0.22, -0.03), (0.19, 0.43, 0.08)],
                              hminus_spec(z=1.0, mass_ratio=7.3, sector=UNNATURAL))
    monkeypatch.undo()
    return seen


def _terms(col):
    # a column as (cell, weight) pairs; a plain cell has weight 1
    return col if isinstance(col[0], tuple) else ((col, 1),)


# the 1+ columns: seven with all merged monomial coefficients positive, then
# the three (signed) angular brackets
_UN_POSITIVE, _UN_ANGULAR = matel3._UN_COLS[:7], matel3._UN_COLS[7:]


@pytest.mark.parametrize("point", [
    (2.0, 1e-3, 1e-3),          # strong anisotropy: s1/s2 = s3/s2 ~ 1e3
    (1.3, 1.3 + 1e-9, 0.4),     # alpha ~ beta
    (1.7, 0.6, 0.0),            # gamma = 0: terms without r12, as in the mass scans
    (1.5, 0.8, -0.3),           # a negative single exponent
])
def test_g3_kernel_vs_mpmath(point, monkeypatch):
    mp = pytest.importorskip("mpmath")
    cols = list(_cols_read(monkeypatch))
    assert set(matel3._NTV_CELLS) | set(matel3._UN_COLS) <= set(cols)
    got = matel3._g3_cells(np.array(point), tuple(cols))
    with mp.workdps(30):
        f3 = lambda a, b, g: 4 / ((a + b) * (b + g) * (g + a))
        x = [mp.mpf(v) for v in point]
        for col, g in zip(cols, got):
            parts = [w * (-1) ** sum(cell) * mp.diff(f3, x, cell)
                     for cell, w in _terms(col)]
            ref = sum(parts)
            # the angular brackets are signed sums: bound them by their size
            scale = sum(map(abs, parts)) if col in _UN_ANGULAR else abs(ref)
            assert abs(g - ref) <= 1e-13 * scale, col


def test_un_plan_is_exact_merge():
    # the float plan of the 1+ columns is the exact merge of their monomials,
    # and the seven non-angular columns have no negative coefficient
    powers, _, coef = matel3._plan(matel3._UN_COLS)
    monos = [tuple(int(p) for p in m) for m in powers.T]
    for c, col in enumerate(matel3._UN_COLS):
        exact = {}
        for (i, j, k), w in col:
            f = 4 * factorial(i) * factorial(j) * factorial(k) * Fraction(w)
            for i1 in range(i + 1):
                for j1 in range(j + 1):
                    for k2 in range(k + 1):
                        i3, j2, k3 = i - i1, j - j1, k - k2
                        m = (i1 + j1 + 1, j2 + k2 + 1, k3 + i3 + 1)
                        exact[m] = exact.get(m, 0) + f * (
                            comb(i1 + j1, i1) * comb(j2 + k2, j2)
                            * comb(k3 + i3, k3))
        assert {m: Fraction(x) for m, x in zip(monos, coef[:, c]) if x} == {
            m: x for m, x in exact.items() if x}
        if col in _UN_POSITIVE:
            assert np.all(coef[:, c] >= 0) and np.any(coef[:, c] > 0)


def test_overlap_and_coulomb_vs_quadrature():
    assert el.overlap3(T1, T2) == pytest.approx(
        oracle.quad3_monomial(1, 1, 1, *ARGS), rel=1e-8)
    for pair, shift in [("12", (1, 1, 0)), ("13", (1, 0, 1)), ("23", (0, 1, 1))]:
        assert el.coulomb3(pair, T1, T2) == pytest.approx(
            oracle.quad3_monomial(*shift, *ARGS), rel=1e-8)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kinetic_symmetric_in_bra_ket(p):
    assert el.kinetic3(p, T1, T2) == pytest.approx(
        el.kinetic3(p, T2, T1), rel=1e-12)


def test_kinetic_diagonal_positive():
    for p in (1, 2, 3):
        assert el.kinetic3(p, T1, T1) > 0


def test_he_cross_vanishes_diagonal_no_r12():
    # angle-independent function of r1 and r2 only: <px.py> = 0
    t = (1.1, 0.6, 0.0)
    assert abs(el.he_cross(t, t)) < 1e-14 * el.overlap3(t, t)


@pytest.mark.parametrize("invm", [(0.0, 1.0, 1.0), (1 / 7.3, 1.0, 1.0),
                                  (0.0, 1.2, 0.8)])
def test_elements_ntv_are_kinetic3_and_he_cross(invm):
    # the natural kernel's one contraction against kinetic3 (particles 1, 2)
    # and he_cross written out over the same _NTV_CELLS moments: the two sum
    # the same products in another order, so they agree to 1e-14 of the
    # products' absolute sum
    rng = np.random.default_rng(3)
    u, v = (rng.uniform((0.3, 0.1, -0.05), (2.5, 1.5, 0.3), (40, 3)) for _ in "uv")
    z, (im0, im1, im2) = 1.7, invm
    tt = (0.5 * (im1 + im0) * el.kinetic3(1, u, v)
          + 0.5 * (im2 + im0) * el.kinetic3(2, u, v))
    if im0 != 0.0:
        tt = tt + im0 * el.he_cross(u, v)
    G = el.cells_at(u, v, matel3._NTV_CELLS)
    pot = -z * G[1, 0, 1] - z * G[0, 1, 1] + G[1, 1, 0]
    got, scale = el.kernel3(u, v, z, invm)
    assert np.all(abs(got - (G[1, 1, 1], tt, pot)) <= 1e-14 * scale)


# the natural elements in exact arithmetic: G is rational at float exponents
def _ntv_exact(u, v, z, invm):
    (a, b, c), (ap, bp, cp) = map(Fraction, u), map(Fraction, v)
    al, be, ga = a + ap, b + bp, c + cp
    memo = {}

    def G(*idx):
        if idx not in memo:
            memo[idx] = _g_exact(*idx, al + be, be + ga, ga + al)
        return memo[idx]

    n = G(1, 1, 1)
    # the angular brackets y^.z^ yz, x^.z^ xz and x^.y^ xy over the measure
    yz = (G(1, 2, 0) + G(1, 0, 2) - G(3, 0, 0)) / 2
    xz = (G(2, 1, 0) + G(0, 1, 2) - G(0, 3, 0)) / 2
    xy = (G(2, 0, 1) + G(0, 2, 1) - G(0, 0, 3)) / 2
    k1 = (b * bp + c * cp) * n + (b * cp + bp * c) * yz
    k2 = (a * ap + c * cp) * n + (a * cp + ap * c) * xz
    cross = ap * b * xy - ap * c * xz - b * cp * yz - c * cp * n      # <px.py>
    im0, im1, im2 = map(Fraction, invm)
    z = Fraction(z)
    return (n, (im1 + im0) / 2 * k1 + (im2 + im0) / 2 * k2 + im0 * cross,
            -z * G(1, 0, 1) - z * G(0, 1, 1) + G(1, 1, 0))


def _natural_pairs():
    rng = np.random.default_rng(25)
    terms = [(1.1, 0.6, 0.0), (0.9, 0.45, 0.0),              # c = 0
             (1.2, 0.7, -0.05), (0.8, 0.5, -0.02),           # small negative c
             (1.3, 1.3 + 1e-9, 0.2), (0.9, 0.9 - 1e-9, 0.1),  # a ~ b
             (2.4, 2.4e-4, 0.05), (2.4e-4, 2.4, 0.05),       # anisotropy 1e4
             (2.4, 2.4e-4, 0.0)]
    terms += [tuple(map(float, rng.uniform((0.3, 0.1, -0.05), (2.5, 1.5, 0.3))))
              for _ in range(5)]
    return [(u, v) for u in terms for v in terms]


@pytest.mark.parametrize("invm", [(0.0, 1.0, 1.0), (1 / 7.3, 1.0, 1.0), (0.0, 1.2, 0.8)],
                         ids=["inf-mass", "recoil", "unequal"])
def test_natural_kernel_exact(invm):
    # every element of the natural kernel within 2e-15 relative of exact
    # rationals, over 196 ordered pairs of terms with c = 0 and small
    # negative c, a ~ b within 1e-9, anisotropy 1e4 and seeded ones.  Under
    # recoil the kinetic products of the two cross pairs at anisotropy 1e4
    # cancel (their absolute sum is 29 and 57 times t; the earlier kernel
    # read 2.7e-15 relative there too): there the bound is 2e-15 of that sum
    pairs = _natural_pairs()
    U, V = (np.array(x) for x in zip(*pairs))
    got, scale = el.kernel3(U, V, 1.7, invm)
    cancel = []
    for p, (u, v) in enumerate(pairs):
        for e, (x, want) in enumerate(zip(got[:, p], _ntv_exact(u, v, 1.7, invm))):
            if scale[e, p] > 10 * abs(x):
                cancel.append((e, u, v))
                want_scale = Fraction(scale[e, p])
            else:
                want_scale = abs(want)
            assert abs(Fraction(float(x)) - want) <= Fraction(2e-15) * want_scale, (u, v)
    assert set(cancel) == (set() if invm[0] == 0.0 else {
        (1, (2.4e-4, 2.4, 0.05), (2.4, 2.4e-4, 0.0)), (1, (2.4e-4, 2.4, 0.05), (2.4, 2.4e-4, 0.05))})


def test_coefficient_tables_miss_once_per_spec():
    # each kernel's table is built at a solve's first block and served from
    # its lru after: one miss per spec, natural, 1+ and four-body (one per
    # mass ratio of a scan)
    tables = (matel3._ntv_table, matel3._un_table, matel4._ntv4_table)
    for table in tables:
        assert table.cache_info().maxsize is not None
        table.cache_clear()
    config = solve.MinimizerConfig(seed=0, restarts=1, max_iter=200)
    solve.optimize_ion(hminus_spec(z=1.0), 2, config)
    solve.optimize_ion(hminus_spec(z=1.0, sector=UNNATURAL), 2, config)
    solve.scan_mass4([1.0, 2.0], "cc-break",
                     solve.MinimizerConfig(seed=0, restarts=1, max_iter=20))
    assert [t.cache_info().misses for t in tables] == [1, 1, 2]
    assert [t.cache_info().hits for t in tables] >= [199, 199, 39]


def test_kernel_column_sets_hash_once_as_their_tuples():
    # the two kernels' column sets are tuples whose hash is computed once,
    # equal in value and hash to the plain tuples, so _plan serves either
    for cols in (matel3._NTV_CELLS, matel3._UN_COLS):
        plain = tuple(cols)
        assert cols == plain and hash(cols) == hash(plain) == cols.hash
        assert matel3._plan(plain) is matel3._plan(cols)


def test_plan_cache_is_bounded_and_misses_only_fixed_column_sets(monkeypatch):
    # a whole optimize_ion solve builds the plan of its one column set at
    # its first evaluation and never again
    assert matel3._plan.cache_info().maxsize is not None
    for sector, build in (("natural", "natural_matblock"),
                          ("unnatural", "unnatural_matblock")):
        matel3._plan.cache_clear()
        misses, orig = [], getattr(matel3, build)

        def counted(*a, **kw):
            out = orig(*a, **kw)
            misses.append(matel3._plan.cache_info().misses)
            return out

        monkeypatch.setattr(matel3, build, counted)
        solve.optimize_ion(hminus_spec(z=1.0, sector=sector), 2,
                           solve.MinimizerConfig(seed=0, restarts=1, max_iter=200))
        assert len(misses) > 200 and set(misses) == {1}


def test_chandrasekhar_closed_form_vs_assembled():
    a, b, z = 1.04, 0.28, 1.0
    n, t, v = matel3.chandrasekhar_ntv(a, b, z, +1)
    blk = matel3.natural_matblock([(b, a, 0.0)], hminus_spec(z=z))
    c0 = blk.n_mat[0, 0] / n
    assert blk.t_mat[0, 0] == pytest.approx(c0 * t, rel=1e-12)
    assert blk.v_mat[0, 0] == pytest.approx(c0 * v, rel=1e-12)


def test_chandrasekhar_exchange_symmetry():
    n1 = matel3.chandrasekhar_ntv(1.3, 0.4, 2.0, +1)
    n2 = matel3.chandrasekhar_ntv(0.4, 1.3, 2.0, +1)
    for x, y in zip(n1, n2):
        assert x == pytest.approx(y, rel=1e-13)


def test_triplet_norm_vanishes_at_equal_ranges():
    n, _, _ = matel3.chandrasekhar_ntv(0.8, 0.8, 1.0, -1)
    assert abs(n) < 1e-12


def test_effective_charge_and_perturbative():
    assert matel3.perturbative_e(2.0) == pytest.approx(-2.75)
    e, alpha = matel3.energy_effective_charge(2.0)
    assert alpha == pytest.approx(2.0 - 5.0 / 16.0)
    assert e == pytest.approx(-(2.0 - 5.0 / 16.0) ** 2)


def test_shellmodel_rejects_bad_ranges():
    with pytest.raises(ValueError):
        matel3.shellmodel_ntv(-1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        matel3.shellmodel_ntv(1.0, 0.0, 2.0)


def test_shellmodel_energy_z2_matches_reference():
    # optimized elsewhere; here just check the elements give a sane quotient
    n, t, v = matel3.shellmodel_ntv(1.97, 1.3, 2.0)
    assert n > 0 and t > 0 and v < 0


# ---------------------------------------------------------------------------
# exact references for the two-range closed forms
#
# Each trial function depends on r1 and r2 only and its square is exchange
# symmetric, so every element is twice its integral over r1 < r2 with radial
# measure r1^2 r2^2, where 1/r12 averages to 1/r> = 1/r2.  On that region
# each function is a sum of terms c r1^i r2^j exp(-p r1 - q r2), and those
# integrals are rational in the exponents: with rational (a, b, z) N, T and
# V are exact Fractions, computed here from the orbitals alone.


def _tri(i, j, p, q):
    # int_{0 < r1 < r2} r1^i r2^j exp(-p r1 - q r2); the r1 integral is an
    # incomplete gamma function, a finite sum for integer i
    return Fraction(factorial(i)) / p ** (i + 1) * (
        Fraction(factorial(j)) / q ** (j + 1)
        - sum(p ** k * Fraction(factorial(j + k), factorial(k))
              / (p + q) ** (j + k + 1) for k in range(i + 1)))


def _grad(psi, var):
    # d/dr1 (var 0) or d/dr2 (var 1) of a term list (c, i, j, p, q)
    out = []
    for c, i, j, p, q in psi:
        k, e = (i, p) if var == 0 else (j, q)
        if k:
            out.append((c * k, i - (var == 0), j - (var == 1), p, q))
        out.append((-c * e, i, j, p, q))
    return out


def _mean(f, g, di=0, dj=0):
    # <f| r1^-di r2^-dj |g> over the whole of (r1, r2) space
    return 2 * sum(cf * cg * _tri(i + k + 2 - di, j + m + 2 - dj, p + r, q + s)
                   for cf, i, j, p, q in f for cg, k, m, r, s in g)


def _exact_ntv(psi, z):
    # kinetic energy in the gradient form
    n = _mean(psi, psi)
    t = sum(_mean(_grad(psi, v), _grad(psi, v)) for v in (0, 1)) / 2
    v = -z * _mean(psi, psi, di=1) + (1 - z) * _mean(psi, psi, dj=1)
    return n, t, v


def _exact_shellmodel(a, b, z):
    # 1s_a(r1) 2s_b(r2) - 2s_b(r1) 1s_a(r2) without the orbital norms
    # 2 a^1.5 and b^1.5 / sqrt(2); their square 2 a^3 b^3 and the G-moment
    # normalization 4 restore the kernel's convention
    h = b / 2
    psi = [(1, 0, 0, a, h), (-h, 0, 1, a, h), (-1, 0, 0, h, a), (h, 1, 0, h, a)]
    return tuple(8 * a**3 * b**3 * x for x in _exact_ntv(psi, z))


_EXACT = {
    "shellmodel": (_exact_shellmodel, matel3.shellmodel_ntv),
    "chandrasekhar+": (
        lambda a, b, z: _exact_ntv([(1, 0, 0, a, b), (1, 0, 0, b, a)], z),
        lambda a, b, z: matel3.chandrasekhar_ntv(a, b, z, +1)),
    "chandrasekhar-": (
        lambda a, b, z: _exact_ntv([(1, 0, 0, a, b), (-1, 0, 0, b, a)], z),
        lambda a, b, z: matel3.chandrasekhar_ntv(a, b, z, -1)),
    # exp(-a r< - b r>) is exp(-a r1 - b r2) on r1 < r2
    "minmax": (lambda a, b, z: _exact_ntv([(1, 0, 0, a, b)], z),
               matel3.minmax_ntv),
}


_EXACT_POINTS = [
    (1.5, 1.5, 2.0),                          # a = b
    (25.0, 0.25, 2.0), (0.25, 25.0, 1.0),     # a/b = 100 and 1/100
    (1.04, 0.28, 1.0), (2.18, 1.19, 2.0),     # Table I optima
    (1.97, 0.32, 2.0), (7.73, 2.0, 8.0),
]


# the antisymmetric pair vanishes identically at a = b
@pytest.mark.parametrize("family, a, b, z", [
    (f, *p) for f in _EXACT for p in _EXACT_POINTS
    if not (f == "chandrasekhar-" and p[0] == p[1])])
def test_two_range_closed_forms_exact(family, a, b, z):
    exact, kernel = _EXACT[family]
    # the floats are binary rationals, so Fraction(x) is the very same input
    ref = exact(Fraction(a), Fraction(b), Fraction(z))
    for got, want in zip(kernel(a, b, z), ref):
        assert abs(Fraction(float(got)) - want) <= Fraction(2e-15) * abs(want)


# optimize_minmax's shape grid runs down to t = b/a = 1e-12
@pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6])
def test_minmax_exact_at_small_shape(t):
    ref = _EXACT["minmax"][0](Fraction(1), Fraction(t), Fraction(0.5))
    for got, want in zip(matel3.minmax_ntv(1.0, t, 0.5), ref):
        assert abs(Fraction(float(got)) - want) <= Fraction(2e-15) * abs(want)


def test_minmax_norm_vs_quadrature():
    nm = matel3.minmax_ntv(1.0, 0.3, 1.0)[0]
    qm = 2.0 * oracle.quad_minmax(2, 2, 2.0, 0.6)
    assert nm == pytest.approx(qm, rel=1e-8)


# ---------------------------------------------------------------------------
# vector (1+) sector


def test_un_overlap_vs_quadrature():
    ut, uu = (0.5, 0.2, 0.1), (0.4, 0.3, 0.05)
    ua = tuple(x + y for x, y in zip(ut, uu))
    w2 = {(i + 1, j + 1, k + 1): c for (i, j, k), c in matel3._W2.items()}
    q = oracle.quad3_poly(w2, *ua)
    n = el.kernel3(ut, uu, 1.0, (0.0, 1.0, 1.0), UNNATURAL)[0, 0, 0]
    assert n == pytest.approx(q, rel=1e-8)


def test_un_matblock_symmetric_and_positive():
    spec = hminus_spec(z=1.0, sector=UNNATURAL)
    blk = matel3.unnatural_matblock([(0.5, 0.22, -0.03), (0.19, 0.43, 0.08)],
                                    spec)
    N = np.asarray(blk.n_mat)
    assert np.allclose(N, N.T)
    assert np.all(np.linalg.eigvalsh(N) > 0)


def _swap(t):
    return (t[1], t[0], t[2])


@pytest.mark.parametrize("eps", [+1, -1])
def test_natural_block_exchange_weighting(eps):
    # the symmetrized vector t + eps (a<->b) against the unsymmetrized block
    # over both orderings; a finite center mass brings in the recoil term
    spec = hminus_spec(z=2.0, mass_ratio=7.3, epsilon=eps)
    t = (1.3, 0.4, 0.1)
    sym = matel3.natural_matblock([t], spec)
    raw = matel3.natural_matblock([t, _swap(t)], spec, symmetrize=False)
    for S, R in ((sym.n_mat, raw.n_mat), (sym.t_mat, raw.t_mat),
                 (sym.v_mat, raw.v_mat)):
        want = R[0, 0] + eps * (R[0, 1] + R[1, 0]) + R[1, 1]
        assert S[0, 0] == pytest.approx(want, rel=1e-14)


def test_unnatural_block_exchange_weighting():
    spec = hminus_spec(z=1.0, mass_ratio=7.3, sector=UNNATURAL)
    terms = [(0.5, 0.22, -0.03), (0.19, 0.43, 0.08)]
    blk = matel3.unnatural_matblock(terms, spec)
    for i, ti in enumerate(terms):
        for j, tj in enumerate(terms):
            want = sum(el.kernel3(u, v, 1.0, spec.inv_masses, UNNATURAL)[0, :, 0]
                       for u in (ti, _swap(ti)) for v in (tj, _swap(tj)))
            got = [blk.n_mat[i, j], blk.t_mat[i, j], blk.v_mat[i, j]]
            assert got == pytest.approx(want, rel=1e-14)


# An exact reference for the 1+ elements: G is rational at float
# exponents, so the contraction of the cross-product weight
# |x_vec cross y_vec|^2 = x^2 y^2 - ((x^2+y^2-z^2)/2)^2 over G moments is
# evaluated term by term in Fractions, with no weight merge.

_Q, _H = Fraction(1, 4), Fraction(1, 2)
_W2_EXACT = {(4, 0, 0): -_Q, (0, 4, 0): -_Q, (0, 0, 4): -_Q,
             (2, 2, 0): _H, (2, 0, 2): _H, (0, 2, 2): _H}
# y^.z^ yz, x^.z^ xz and x^.y^ xy from the law of cosines
_DOTS_EXACT = ({(0, 2, 0): _H, (0, 0, 2): _H, (2, 0, 0): -_H},
               {(2, 0, 0): _H, (0, 0, 2): _H, (0, 2, 0): -_H},
               {(2, 0, 0): _H, (0, 2, 0): _H, (0, 0, 2): -_H})


def _g_exact(i, j, k, s1, s2, s3):
    return 4 * factorial(i) * factorial(j) * factorial(k) * sum(
        Fraction(comb(i1 + j1, i1) * comb(j - j1 + k2, k2)
                 * comb(k - k2 + i - i1, k - k2))
        / (s1 ** (i1 + j1 + 1) * s2 ** (j - j1 + k2 + 1)
           * s3 ** (k - k2 + i - i1 + 1))
        for i1 in range(i + 1) for j1 in range(j + 1) for k2 in range(k + 1))


def _un_pair_exact(u, v, invm, z=1):
    a, b, c = map(Fraction, u)
    ap, bp, cp = map(Fraction, v)
    al, be, ga = a + ap, b + bp, c + cp
    memo = {}

    def G(i, j, k):
        if (i, j, k) not in memo:
            memo[i, j, k] = _g_exact(i, j, k, al + be, be + ga, ga + al)
        return memo[i, j, k]

    def con(d, dot=None):
        # sum over the weight (times a dot bracket) of G at the shifted cells
        return sum(w * wd * G(k[0] + kd[0] + d[0], k[1] + kd[1] + d[1],
                              k[2] + kd[2] + d[2])
                   for k, w in _W2_EXACT.items()
                   for kd, wd in (dot or {(0, 0, 0): 1}).items())

    n = con((1, 1, 1))
    wx, wy, wz = con((0, 1, 1)), con((1, 0, 1)), con((1, 1, 0))
    k1 = (2 * G(3, 1, 1) - be * wy - ga * wz + (b * bp + c * cp) * n
          + (b * cp + bp * c) * con((1, 0, 0), _DOTS_EXACT[0]))
    k2 = (2 * G(1, 3, 1) - al * wx - ga * wz + (a * ap + c * cp) * n
          + (a * cp + ap * c) * con((0, 1, 0), _DOTS_EXACT[1]))
    k3 = (2 * G(1, 1, 3) - al * wx - be * wy + (a * ap + b * bp) * n
          + (a * bp + ap * b) * con((0, 0, 1), _DOTS_EXACT[2]))
    im0, im1, im2 = map(Fraction, invm)
    t = (im1 * k1 + im2 * k2 + im0 * k3) / 2
    return n, t, -z * wx - z * wy + wz


def _assert_un_pair_exact(u, v, invm, tol_t=2e-15):
    got = el.kernel3(u, v, 1.0, invm, UNNATURAL)[0, :, 0]
    for x, want, tol in zip(got, _un_pair_exact(u, v, invm),
                            (2e-15, tol_t, 2e-15)):
        assert abs(Fraction(float(x)) - want) <= Fraction(tol) * abs(want)


_INVM = [(0.0, 1.0, 1.0), (0.5, 1.0, 1.0)]


@pytest.mark.parametrize("invm", _INVM, ids=["inf-mass", "im0=0.5"])
@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6])
def test_un_pair_exact_at_anisotropy(ratio, invm):
    # the weight merge leaves no cancellation in n and v however different
    # the two electron scales are, either way round
    for t in ((0.6, 0.6 / ratio, 0.05), (0.6 / ratio, 0.6, 0.05),
              (2.4, 2.4 / ratio, 0.0)):
        _assert_un_pair_exact(t, t, invm)


@pytest.mark.parametrize("invm", _INVM, ids=["inf-mass", "im0=0.5"])
def test_un_pair_exact_at_curated_seeds(invm):
    for seeds in solve._UN_SEEDS.values():
        for u in seeds:
            for v in seeds:
                _assert_un_pair_exact(u, v, invm)


@pytest.mark.parametrize("invm", _INVM, ids=["inf-mass", "im0=0.5"])
def test_un_pair_exact_at_extreme_anisotropy(invm):
    # ranges ~1e4 apart: the points an element-level cancellation cap used
    # to refuse.  t1 and t2 have s = (a+b, b+c, c+a) = (2.4, 1.2e-3, 0.024)
    # and (0.024, 1.2e-3, 2.4); their cross pair sits at that anisotropy.
    # t keeps a cancellation among its exponent-weighted kinetic pieces
    # that no weight merge removes, hence its wider bound.
    t0 = (2.4, 1.3e-4, 0.0)
    _assert_un_pair_exact(t0, t0, invm, tol_t=1e-13)
    t1, t2 = (1.2114, 1.1886, -1.1874), (1.2114, -1.1874, 1.1886)
    for u, v in ((t1, t2), (t2, t1), (t1, _swap(t2)), (_swap(t1), t2)):
        _assert_un_pair_exact(u, v, invm, tol_t=1e-13)
    blk = matel3.unnatural_matblock([t1, t2], hminus_spec(z=1.0, sector=UNNATURAL))
    assert np.all(np.linalg.eigvalsh(blk.n_mat) > 0)
