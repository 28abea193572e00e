"""Truncated Taylor (jet) arithmetic against closed forms and finite differences."""

import math

import numpy as np
import pytest

from coulomb2e import matel4
from coulomb2e.jets import Jet, _layout
from reference.jets import const, variable


def test_variable_and_const_values():
    x = variable(2.5, 0, (3, 2))
    assert x.val == 2.5
    assert x.deriv((1, 0)) == 1.0
    assert x.deriv((0, 1)) == 0.0
    c = const(7.0, (3, 2))
    assert c.val == 7.0
    assert c.deriv((1, 0)) == 0.0


def test_polynomial_product_exact():
    # (x + 2)(x^2 - 3) expanded: derivatives of the product are exact
    sh = (4,)
    x = variable(1.5, 0, sh)
    p = (x + 2.0) * (x * x - 3.0)
    # closed form p(x) = x^3 + 2x^2 - 3x - 6
    xv = 1.5
    assert p.val == pytest.approx(xv**3 + 2 * xv**2 - 3 * xv - 6, rel=1e-14)
    assert p.deriv((1,)) == pytest.approx(3 * xv**2 + 4 * xv - 3, rel=1e-14)
    assert p.deriv((2,)) == pytest.approx(6 * xv + 4, rel=1e-14)
    assert p.deriv((3,)) == pytest.approx(6.0, rel=1e-14)


def test_truncation_drops_high_orders_only():
    sh = (3,)
    x = variable(0.7, 0, sh)
    p = x * x * x  # order 3 truncated to order 2
    assert p.val == pytest.approx(0.7**3, rel=1e-14)
    assert p.deriv((1,)) == pytest.approx(3 * 0.7**2, rel=1e-14)


def test_recip_matches_series():
    sh = (5,)
    x = variable(2.0, 0, sh)
    r = x.recip()
    for n in range(5):
        # d^n/dx^n 1/x = (-1)^n n! / x^(n+1)
        want = (-1.0) ** n * math.factorial(n) / 2.0 ** (n + 1)
        assert r.deriv((n,)) == pytest.approx(want, rel=1e-12)


def test_recip_raises_at_zero():
    x = variable(0.0, 0, (3,))
    with pytest.raises(ZeroDivisionError):
        x.recip()


def test_log_derivatives():
    sh = (5,)
    x = variable(3.0, 0, sh)
    lg = x.log()
    assert lg.val == pytest.approx(math.log(3.0), rel=1e-14)
    for n in range(1, 5):
        want = (-1.0) ** (n + 1) * math.factorial(n - 1) / 3.0 ** n
        assert lg.deriv((n,)) == pytest.approx(want, rel=1e-12)


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        variable(-1.0, 0, (3,)).log()


def test_mixed_partials_vs_finite_differences():
    # f(x, y) = 1/((x + y)(2x + y)) -- same structure as the generating
    # functions; compare low-order mixed partials to central differences
    def f(x, y):
        return 1.0 / ((x + y) * (2 * x + y))

    x0, y0 = 1.1, 0.7
    sh = (3, 3)
    X = variable(x0, 0, sh)
    Y = variable(y0, 1, sh)
    F = ((X + Y) * (2.0 * X + Y)).recip()

    h = 1e-4
    fd_x = (f(x0 + h, y0) - f(x0 - h, y0)) / (2 * h)
    fd_xy = (f(x0 + h, y0 + h) - f(x0 + h, y0 - h)
             - f(x0 - h, y0 + h) + f(x0 - h, y0 - h)) / (4 * h * h)
    assert F.deriv((1, 0)) == pytest.approx(fd_x, rel=1e-7)
    assert F.deriv((1, 1)) == pytest.approx(fd_xy, rel=1e-6)


def test_scalar_mixed_arithmetic():
    sh = (3,)
    x = variable(2.0, 0, sh)
    assert (x - 1.0).val == 1.0
    assert (3.0 * x).deriv((1,)) == 3.0
    assert (x + 1.0).val == 3.0


def test_deriv_refuses_truncated_orders():
    x = variable(1.0, 0, (3, 3), degree=2)
    assert x.deriv((2, 0)) == 0.0
    for idx in ((3, 0), (2, 1), (1, 2), (0, 0, 0), (-1, 0)):
        with pytest.raises(ValueError):
            x.deriv(idx)


def test_product_matches_schoolbook_convolution():
    # random coefficients on a total-degree-capped grid: the product keeps
    # every cell with |i| <= degree and equals the direct double sum there
    rng = np.random.default_rng(5)
    sh, deg = (3, 3, 4), 5
    a = const(0.0, sh, deg)
    b = const(0.0, sh, deg)
    a.c[:] = rng.standard_normal(a.c.size)
    b.c[:] = rng.standard_normal(b.c.size)
    got = a * b
    cells = list(a.lay.index)
    assert len(cells) == sum(1 for i in np.ndindex(sh) if sum(i) <= deg)
    for out in cells:
        want = sum(a.c[a.lay.index[i]] * b.c[b.lay.index[j]]
                   for i in cells for j in cells
                   if tuple(p + q for p, q in zip(i, j)) == out)
        assert got.c[got.lay.index[out]] == pytest.approx(want, rel=1e-14,
                                                          abs=1e-14)


def test_degree_cap_keeps_low_orders_exact():
    # 1/(x + 2y) and log(x + y) with and without the total-degree cap agree
    # on every kept cell, and a capped jet drops the rest
    x0, y0 = 1.3, 0.4
    for deg in (2, 3, 4):
        full = [variable(x0, 0, (4, 4)), variable(y0, 1, (4, 4))]
        cap = [variable(x0, 0, (4, 4), deg), variable(y0, 1, (4, 4), deg)]
        for f in (lambda X, Y: (X + 2.0 * Y).recip(),
                  lambda X, Y: (X + Y).log()):
            F, G = f(*full), f(*cap)
            for i, j in np.ndindex(4, 4):
                if i + j <= deg:
                    assert G.deriv((i, j)) == pytest.approx(
                        F.deriv((i, j)), rel=1e-13)
                else:
                    with pytest.raises(ValueError):
                        G.deriv((i, j))


@pytest.mark.parametrize("shape", [(3, 3, 3, 3, 4), (3, 3, 4)])
def test_degree_aware_product_matches_full_table(shape):
    # jets whose coefficients above degree bounds d1, d2 are zero multiply
    # to the bit as the full pair table does, signed zeros included, and the
    # product's bound is d1 + d2 capped at the layout degree
    rng = np.random.default_rng(len(shape))
    lay = _layout(shape, 5)
    tot = np.array([sum(idx) for idx in lay.index])
    for d1 in range(6):
        for d2 in range(6):
            for _ in range(5):
                a, b = (Jet(np.where(tot <= d, rng.choice(
                    [-0.0, 0.0, 1.0, -2.5, np.pi], lay.n)
                    * rng.standard_normal(lay.n) ** 3, 0.0), lay, d)
                    for d in (d1, d2))
                got = a * b
                want = np.bincount(lay.po, a.c[lay.pi] * b.c[lay.pj], lay.n)
                assert got.c.tobytes() == want.tobytes(), (d1, d2)
                assert got.deg == min(d1 + d2, 5)
                assert not got.c[tot > got.deg].any()


def test_degree_bounds_of_the_operations():
    x = variable(0.7, 0, (3, 3), 4)
    y = variable(1.2, 1, (3, 3), 4)
    assert (x.deg, y.deg) == (1, 1)
    assert ((x * y).deg, (x * y * x * y * x).deg) == (2, 4)
    assert ((x + y * y).deg, (x * y - 3.0).deg, (2.0 * (x * y)).deg) == (2, 2, 2)
    assert (x + 1.0).deg == 1
    # dense by default: a jet whose c may be written in place
    assert const(1.0, (3, 3), 4).deg == 4
    assert Jet(np.zeros(x.lay.n), x.lay).deg == 4


def _linear_jet(x0, w, shape, degree):
    # x0 + sum_k w[k] x_k, with each variable expanded at 0
    out = const(x0, shape, degree)
    for k, wk in enumerate(w):
        out = out + wk * variable(0.0, k, shape, degree)
    return out


@pytest.mark.parametrize("f, coef", [
    ("recip", lambda x0, m: (-1.0) ** m / x0 ** (m + 1)),
    ("log", lambda x0, m: math.log(x0) if m == 0 else (-1.0) ** (m + 1) / (m * x0 ** m)),
    ("exp", lambda x0, m: math.exp(x0) / math.factorial(m)),
])
def test_compose_matches_known_series(f, coef):
    # f(x0 + L) for a linear L = sum_k w_k x_k has the cell alpha equal to
    # f^(|alpha|)(x0) prod w_k^alpha_k / alpha!, i.e. coef(|alpha|) times the
    # multinomial |alpha|!/alpha! prod w_k^alpha_k, on a degree-5 layout
    x0, w, sh = 1.7, (0.3, -0.8, 1.1), (3, 4, 6)
    X = _linear_jet(x0, w, sh, 5)
    coefs = [coef(x0, m) for m in range(6)]
    F = X.compose(coefs)
    if f != "exp":
        assert getattr(X, f)().c.tobytes() == F.c.tobytes()
    for idx, k in F.lay.index.items():
        n = sum(idx)
        want = coef(x0, n) * math.factorial(n) * math.prod(
            wk ** a / math.factorial(a) for wk, a in zip(w, idx))
        assert F.c[k] == pytest.approx(want, rel=1e-14, abs=1e-15), idx


def test_compose_round_trips_and_degree_bound():
    # log then exp, and recip twice, give back a nonlinear degree-5 jet; a
    # composition over k + 1 coefficients has the bound k * deg (capped)
    sh = (3, 3, 4)
    x = variable(0.9, 0, sh, 5)
    y = variable(1.4, 1, sh, 5)
    z = variable(0.6, 2, sh, 5)
    X = x * y + 0.5 * z * z * x + 2.0
    lg = X.log()
    E = lg.compose([math.exp(lg.val) / math.factorial(m) for m in range(6)])
    assert np.allclose(E.c, X.c, rtol=1e-14, atol=1e-14)
    assert np.allclose(X.recip().recip().c, X.c, rtol=1e-14, atol=1e-14)
    assert (x.compose([1.0, 2.0, 3.0]).deg, (x * y).compose([1.0, 2.0, 3.0]).deg,
            X.compose([1.0] * 6).deg) == (2, 4, 5)


def test_compose_matches_full_table_products(monkeypatch):
    # degree-aware products inside compose give the bytes full-table
    # products give, as for the F4 tables
    rng = np.random.default_rng(19)
    lay = _layout((3, 3, 3, 3, 4), 5)
    tot = np.array([sum(idx) for idx in lay.index])
    jets = []
    for d in (1, 2, 3, 5):
        c = np.where(tot <= d, rng.standard_normal(lay.n), 0.0)
        c[0] = rng.uniform(0.5, 2.0)
        jets.append(Jet(c, lay, d))
    coefs = rng.standard_normal(6).tolist()
    fast = [(J.compose(coefs).c, J.recip().c, J.log().c) for J in jets]

    def full(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other, self.lay)
        return Jet(np.bincount(lay.po, self.c[lay.pi] * other.c[lay.pj], lay.n), lay)

    monkeypatch.setattr(Jet, "__mul__", full)
    monkeypatch.setattr(Jet, "__rmul__", full)
    for J, want in zip(jets, fast):
        got = (J.compose(coefs).c, J.recip().c, J.log().c)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _broadcast_pairs(shape, degree, below=None):
    # the pair table by brute force: every (i, j) of kept cells whose sum,
    # formed over an (n, n, dims) broadcast, is a kept cell
    cells = [i for i in np.ndindex(shape) if sum(i) <= degree and (
        below is None or any(all(a <= b for a, b in zip(i, t)) for t in below))]
    pos = np.full(shape, -1, dtype=np.intp)
    pos[tuple(np.array(cells).T)] = np.arange(len(cells))
    c = np.array(cells)
    s = c[:, None, :] + c[None, :, :]
    inside = (s < shape).all(axis=2) & (s.sum(axis=2) <= degree)
    at = pos[tuple(np.minimum(s, np.array(shape) - 1).transpose(2, 0, 1))]
    out = np.where(inside, at, -1)
    pi, pj = np.nonzero(out >= 0)
    return cells, pi, pj, out[pi, pj]


@pytest.mark.parametrize("shape, degree, below", [
    ((4,), 3, None), ((3,), 2, None), ((5,), 4, None), ((3, 2), 3, None),
    ((3, 3), 2, None), ((3, 3), 4, None), ((4, 4), 2, None), ((4, 4), 3, None),
    ((4, 4), 4, None), ((4, 4), 6, None), ((3, 3, 4), 5, None),
    ((3, 4, 6), 5, None), ((3, 3, 3, 3, 4), 5, None),
    ((3, 3, 3, 3, 4), 5, matel4._MOMENTS), ((3, 4, 6), 5, ((2, 0, 3), (1, 3, 1)))])
def test_radix_pair_table_matches_broadcast(shape, degree, below):
    # one lookup per pair in radix 2 * shape gives the same cells and the
    # same pi, pj and po, array for array, as the broadcast over all pairs
    lay = _layout(shape, degree, below)
    cells, pi, pj, po = _broadcast_pairs(shape, degree, below)
    assert list(lay.index) == cells
    for got, want in ((lay.pi, pi), (lay.pj, pj), (lay.po, po)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_ideal_products_match_box_products():
    # on an order ideal a product keeps the box product's pairs for each of
    # its cells, in the same order: the same bytes, at every degree bound
    rng = np.random.default_rng(6)
    shape, below = (3, 4, 6), ((2, 0, 3), (1, 3, 1), (0, 1, 5))
    box, ideal = _layout(shape, 5), _layout(shape, 5, below)
    cells = [box.index[i] for i in ideal.index]
    tot = np.array([sum(i) for i in box.index])
    for d1, d2 in ((1, 1), (2, 3), (5, 5)):
        a, b = (Jet(np.where(tot <= d, rng.standard_normal(box.n), 0.0), box, d)
                for d in (d1, d2))
        got = Jet(a.c[cells], ideal, d1) * Jet(b.c[cells], ideal, d2)
        assert got.c.tobytes() == (a * b).c[cells].tobytes()
        assert got.deg == min(d1 + d2, 5)
