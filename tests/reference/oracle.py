"""Independent quadrature checks for every closed-form matrix element.

These routines re-derive the generating-function moments by brute-force
Gauss-Laguerre x Gauss-Legendre quadrature so that the analytic tables can
be verified mechanically.  The normalization follows the closed forms (a
constant angular factor is left out of both sides): the three-body moments
carry a factor 2 and the four-body moments a factor 4 relative to the bare
distance integrals.
"""

import warnings

import numpy as np

from coulomb2e import matel3, matel4
from coulomb2e.model import hminus_spec

from . import elements as el

_REL_WARN = 1e-9


def _quad3_half(i, j, k, alpha, beta, gamma, n):
    # region x >= y, substituted x = y + u so every factor is smooth:
    # z runs over [u, 2y+u] and the 1D directions carry plain exponentials
    xl, wl = np.polynomial.laguerre.laggauss(n)
    zl, wz = np.polynomial.legendre.leggauss(n)
    su = alpha
    sy = alpha + beta
    u = xl[:, None] / su
    wu = wl[:, None] / su
    y = xl[None, :] / sy
    wy = wl[None, :] / sy
    U = u + 0 * y
    Y = 0 * u + y
    X = U + Y
    half = Y  # (hi - lo)/2 with lo = u, hi = 2y + u
    mid = U + Y
    acc = np.zeros_like(X)
    for zi, wzi in zip(zl, wz):
        Z = mid + half * zi
        acc += wzi * half * (Z ** k) * np.exp(-gamma * Z)
    return float(np.sum(acc * (X ** i) * (Y ** j) * wu * wy))


def quad3_monomial(i, j, k, alpha, beta, gamma, n=80):
    """2 * int x^i y^j z^k e^(-alpha x - beta y - gamma z) over the triangle
    |x-y| <= z <= x+y; matches elements.g3((i,j,k), alpha, beta, gamma)."""
    return 2.0 * (_quad3_half(i, j, k, alpha, beta, gamma, n)
                  + _quad3_half(j, i, k, beta, alpha, gamma, n))


def quad3_poly(poly, alpha, beta, gamma, n=80):
    """Same, for a polynomial weight {(i,j,k): coeff}."""
    return sum(c * quad3_monomial(*idx, alpha, beta, gamma, n=n)
               for idx, c in poly.items())


def quad4_moment(i, j, k, l, m, aF, bF, cF, dF, n12=64, ns=64, nt=48):
    """4 * int r13^i r23^j r14^k r24^l r12^(m-1) e^(-...) d(5 distances);
    matches coulomb2e.matel4.moment4 with the same index convention.

    The two triangles hanging off r12 factorize in the variables
    s = r1 + r2 (in [r12, inf)) and t = r1 - r2 (in [-r12, r12]).
    """
    xl, wl = np.polynomial.laguerre.laggauss(ns)
    zg, wg = np.polynomial.legendre.leggauss(nt)
    x12, w12 = np.polynomial.laguerre.laggauss(n12)
    sc3, d3 = (aF + bF) / 2.0, (aF - bF) / 2.0
    sc4, d4 = (cF + dF) / 2.0, (cF - dF) / 2.0
    sc12 = sc3 + sc4

    def tri(r12v, sc, dd, pi, pj):
        s = r12v + xl / sc
        t = r12v * zg
        S, T = np.meshgrid(s, t, indexing="ij")
        R1 = (S + T) / 2
        R2 = (S - T) / 2
        vals = (R1 ** pi) * (R2 ** pj) * np.exp(-dd * T)
        return np.sum(vals * wl[:, None] * (r12v * wg[None, :])) / (2.0 * sc)

    tot = 0.0
    for xv, wv in zip(x12, w12):
        r12v = xv / sc12
        tot += wv * tri(r12v, sc3, d3, i, j) * tri(r12v, sc4, d4, k, l) \
            * r12v ** (m - 1)
    return 4.0 * tot / sc12


def quad_minmax(m, n_pow, ca, cb, n=96):
    """int over 0 < r_< < r_> of r_<^m r_>^n e^(-ca r_< - cb r_>)."""
    xl, wl = np.polynomial.laguerre.laggauss(n)
    rg = xl / cb
    wg = wl / cb
    tot = 0.0
    zl, wz = np.polynomial.legendre.leggauss(n)
    for r, w in zip(rg, wg):
        half = 0.5 * r
        rin = half * (zl + 1.0)
        inner = np.sum(wz * half * rin ** m * np.exp(-ca * rin))
        tot += w * r ** n_pow * inner
    return tot


def zexp_partial(z, order=4):
    """Partial sum of the inverse-charge expansion with the known coefficients.

    Returns (energy, converged_flag); the flag goes false inside the known
    non-convergence region near z ~ 0.91 (series radius ~ 1/1.098).
    """
    if z <= 0:
        raise ValueError("z must be positive")
    if not 0 <= order <= 4:
        raise ValueError("coefficients available up to order 4")
    coeffs = (1.0, -5.0 / 8.0, 0.157666429, -0.008699032, 0.000888707)
    s = sum(coeffs[k] / z ** k for k in range(order + 1))
    converged = z > 1.098
    return -z * z * s, converged


def gauss_shell_e1(z, n=120):
    """Mutual repulsion of two 1s densities by direct radial quadrature.

    Each shell of the outer electron sees the enclosed charge of the inner
    one; the closed form of the double integral is 5z/8.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    xl, wl = np.polynomial.laguerre.laggauss(n)
    zl, wz = np.polynomial.legendre.leggauss(n)
    r = xl / (2.0 * z)
    wr = wl / (2.0 * z) * np.exp(xl) * 4.0 * z ** 3 * r ** 2 * np.exp(-2 * z * r)
    tot = 0.0
    for rv, wv in zip(r, wr):
        half = 0.5 * rv
        rin = half * (zl + 1.0)
        p_in = 4.0 * z ** 3 * rin ** 2 * np.exp(-2 * z * rin)
        inner = np.sum(wz * half * p_in) / rv
        tot += wv * inner
    # 1/max(r1,r2) is symmetric: twice the ordered region r2 < r1
    return 2.0 * tot


# ---------------------------------------------------------------------------
# manifest: every analytic family paired with its quadrature


def _pair_g3(idx, args):
    return el.g3(idx, *args), quad3_monomial(*idx, *args)


def _kin3_weight(particle, t, tp):
    """Polynomial weight (over the measure-free monomials) equal to the
    closed-form kinetic pattern; evaluated by quadrature on the other side."""
    a, b, c = t
    ap, bp, cp = tp
    if particle == 1:
        diag, cross = b * bp + c * cp, b * cp + bp * c
        bracket = {(3, 0, 0): 1.0, (1, 2, 0): -1.0, (1, 0, 2): -1.0}
    elif particle == 2:
        diag, cross = a * ap + c * cp, a * cp + ap * c
        bracket = {(0, 3, 0): 1.0, (2, 1, 0): -1.0, (0, 1, 2): -1.0}
    else:
        diag, cross = a * ap + b * bp, a * bp + ap * b
        bracket = {(2, 0, 1): 1.0, (0, 2, 1): 1.0, (0, 0, 3): -1.0}
    sgn = 1.0 if particle == 3 else -1.0
    poly = {(1, 1, 1): diag}
    for kk, vv in bracket.items():
        poly[kk] = poly.get(kk, 0.0) + sgn * 0.5 * cross * vv
    return poly


def _unnorm(poly, shift):
    di, dj, dk = shift
    return {(i + di, j + dj, k + dk): c for (i, j, k), c in poly.items()}


def manifest():
    """(name, analytic, oracle, relative tolerance) for every element family."""
    cases = []
    t3, u3 = (0.9, 0.4, 0.08), (0.7, 0.5, 0.03)
    args3 = tuple(x + y for x, y in zip(t3, u3))

    for idx in [(1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (3, 0, 0),
                (2, 2, 1), (0, 0, 3)]:
        a, q = _pair_g3(idx, args3)
        cases.append((f"g3_{idx[0]}{idx[1]}{idx[2]}", a, q, 1e-8))

    cases.append(("f3_base", el.f3(1.0, 1.0, 1.0),
                  quad3_monomial(0, 0, 0, 1.0, 1.0, 1.0), 1e-8))
    cases.append(("overlap3", el.overlap3(t3, u3),
                  quad3_monomial(1, 1, 1, *args3), 1e-8))
    for pair, shift in [("12", (1, 1, 0)), ("13", (1, 0, 1)), ("23", (0, 1, 1))]:
        cases.append((f"coulomb3_{pair}", el.coulomb3(pair, t3, u3),
                      quad3_monomial(*shift, *args3), 1e-8))
    for p in (1, 2, 3):
        poly = _kin3_weight(p, t3, u3)
        cases.append((f"kinetic3_p{p}", el.kinetic3(p, t3, u3),
                      quad3_poly(poly, *args3), 1e-8))

    # closed two-exponential forms against the assembled G-machinery: the two
    # normalizations differ by one global constant, fixed here from the norm
    a_c, b_c, zq = 1.04, 0.28, 1.0
    n_c, t_c, v_c = matel3.chandrasekhar_ntv(a_c, b_c, zq, +1)
    blk = matel3.natural_matblock([(b_c, a_c, 0.0)], hminus_spec(z=zq))
    c0 = blk.n_mat[0, 0] / n_c
    cases.append(("chan_kin_vs_assembled", blk.t_mat[0, 0], c0 * t_c, 1e-10))
    cases.append(("chan_pot_vs_assembled", blk.v_mat[0, 0], c0 * v_c, 1e-10))

    nm = matel3.minmax_ntv(1.0, 0.3, 1.0)[0]
    qm = 2.0 * quad_minmax(2, 2, 2.0, 0.6)
    cases.append(("minmax_norm", nm, qm, 1e-8))

    w2 = matel3._W2
    ut, uu = (0.5, 0.2, 0.1), (0.4, 0.3, 0.05)
    ua = tuple(x + y for x, y in zip(ut, uu))
    cases.append(("un_overlap", matel3._un_pair(ut, uu, 1.0, (0.0, 1, 1))[0],
                  quad3_poly(_unnorm(w2, (1, 1, 1)), *ua), 1e-8))
    n_un, t_un, v_un = matel3._un_pair(ut, uu, 1.0, (0.0, 1.0, 1.0))
    vq = (-quad3_poly(_unnorm(w2, (0, 1, 1)), *ua)
          - quad3_poly(_unnorm(w2, (1, 0, 1)), *ua)
          + quad3_poly(_unnorm(w2, (1, 1, 0)), *ua))
    cases.append(("un_potential", v_un, vq, 1e-8))

    # four-body family
    t4, u4 = (0.9, 0.2, 0.3, 0.8), (0.7, 0.4, 0.1, 1.0)
    A4 = el.pair_args(t4, u4)
    cases.append(("overlap4", el.overlap4(t4, u4),
                  quad4_moment(1, 1, 1, 1, 1, *A4), 1e-6))
    cases.append(("coulomb4_12", el.coulomb4("12", t4, u4),
                  quad4_moment(1, 1, 1, 1, 0, *A4), 1e-6))
    cases.append(("coulomb4_13", el.coulomb4("13", t4, u4),
                  quad4_moment(0, 1, 1, 1, 1, *A4), 1e-6))
    cases.append(("coulomb4_24", el.coulomb4("24", t4, u4),
                  quad4_moment(1, 1, 1, 0, 1, *A4), 1e-6))
    A4s = (A4[0], A4[2], A4[1], A4[3])
    cases.append(("coulomb4_34", el.coulomb4("34", t4, u4),
                  quad4_moment(1, 1, 1, 1, 0, *A4s), 1e-6))
    cases.append(("f4_base", el.f4(1.0, 2.0, 1.0, 2.0),
                  quad4_moment(0, 0, 0, 0, 0, 1.0, 2.0, 1.0, 2.0), 1e-7))
    for mom in [(0, 0, 1, 1, 3), (2, 0, 1, 1, 1), (1, 1, 0, 2, 1)]:
        cases.append((f"moment4_{''.join(map(str, mom))}",
                      matel4.moment4(*mom, *A4),
                      quad4_moment(*mom, *A4), 1e-6))

    cases.append(("gauss_shell_z2", gauss_shell_e1(2.0), 1.25, 1e-9))
    cases.append(("zexp_z2_order1", zexp_partial(2.0, 1)[0], -2.75, 1e-12))
    return cases


def convergence_check(n_lo=48, factor=2):
    """Node-doubling self-consistency of the quadratures on sample cases."""
    args3 = (1.6, 0.9, 0.11)
    a1 = quad3_monomial(1, 1, 1, *args3, n=n_lo)
    a2 = quad3_monomial(1, 1, 1, *args3, n=factor * n_lo)
    A4 = (1.6, 0.6, 0.4, 1.8)
    b1 = quad4_moment(1, 1, 1, 1, 1, *A4, n12=32, ns=32, nt=24)
    b2 = quad4_moment(1, 1, 1, 1, 1, *A4, n12=64, ns=64, nt=48)
    r3 = abs(a2 - a1) / abs(a2)
    r4 = abs(b2 - b1) / abs(b2)
    if r3 > _REL_WARN or r4 > 1e-7:
        warnings.warn(f"quadrature drift under node doubling: {r3:.2e}, {r4:.2e}")
    return r3, r4
