"""Scalar matrix elements, one function per element family.

Each reads the package's own moments (`matel3._g3_cells`, looked up at call
time, and `matel4.moment4`) and writes out the float operations that the
block kernels `matel3._elements_ntv` and `matel4._pair_ntv` inline, in the
same order, so the kernels must match these to the bit.  The oracle checks
them against quadrature.  Conventions are those of `matel3` and `matel4`.
"""

import numpy as np

from coulomb2e import matel3, matel4
from coulomb2e.model import assemble


# ---------------------------------------------------------------------------
# three-body: terms (a, b, c) on (r2, r1, r12); element functions also take
# (P, 3) arrays of terms and then return P-vectors


def f3(alpha, beta, gamma):
    """The base integral 4/((alpha+beta)(beta+gamma)(gamma+alpha))."""
    s1, s2, s3 = alpha + beta, beta + gamma, gamma + alpha
    if s1 <= 0 or s2 <= 0 or s3 <= 0:
        raise ValueError("f3 domain: every pair sum must be positive")
    return 4.0 / (s1 * s2 * s3)


def g3(idx, alpha, beta, gamma):
    """One moment G(i,j,k; alpha,beta,gamma); any non-negative order."""
    return float(matel3._g3_cells(np.array([alpha, beta, gamma], float), (tuple(idx),))[0])


def cells_at(u, v, cells):
    """{cell: G} at the combined exponents of the terms (or term arrays) u, v."""
    return dict(zip(cells, matel3._g3_cells(np.add(u, v, dtype=float), cells).T))


def overlap3(t, tp):
    """<t|t'> = G(1,1,1) at the combined exponents."""
    return cells_at(t, tp, ((1, 1, 1),))[1, 1, 1]


_PAIR_IDX = {"12": (1, 1, 0), "23": (0, 1, 1), "13": (1, 0, 1)}


def coulomb3(pair, t, tp):
    """<t| 1/r_pair |t'>; pair in {'13','23','12'} with 3 the center."""
    idx = _PAIR_IDX[pair]
    return cells_at(t, tp, (idx,))[idx]


def kinetic3(particle, t, tp):
    """<t| p_particle^2 |t'> (gradient form, exact closed combination of G).

    particle 1 sits at distance y=r1, particle 2 at x=r2, particle 3 is the
    center.  Diagonal coefficients use products of the two exponent sets; the
    off-diagonal bracket carries the angular average of the unit-vector dot
    products, e.g. y^.z^ = (y^2+z^2-x^2)/(2yz).
    """
    a, b, c = matel3._split(t)
    ap, bp, cp = matel3._split(tp)
    G = cells_at(t, tp, matel3._NTV_CELLS)
    if particle == 1:
        return ((b * bp + c * cp) * G[1, 1, 1]
                - 0.5 * (b * cp + bp * c) * (G[3, 0, 0] - G[1, 2, 0] - G[1, 0, 2]))
    if particle == 2:
        return ((a * ap + c * cp) * G[1, 1, 1]
                - 0.5 * (a * cp + ap * c) * (G[0, 3, 0] - G[2, 1, 0] - G[0, 1, 2]))
    if particle == 3:
        return ((a * ap + b * bp) * G[1, 1, 1]
                + 0.5 * (a * bp + ap * b) * (G[2, 0, 1] + G[0, 2, 1] - G[0, 0, 3]))
    raise ValueError("particle must be 1, 2 or 3")


def he_cross(t, tp):
    """<t| px . py |t'> — the recoil cross term of a finite-mass center.

    Zero (to round-off) whenever neither term depends on r12.
    """
    _, b, c = matel3._split(t)
    ap, _, cp = matel3._split(tp)
    G = cells_at(t, tp, matel3._NTV_CELLS)
    xy = 0.5 * (G[2, 0, 1] + G[0, 2, 1] - G[0, 0, 3])
    xz = 0.5 * (G[0, 3, 0] - G[2, 1, 0] - G[0, 1, 2])
    yz = -0.5 * (G[3, 0, 0] - G[1, 2, 0] - G[1, 0, 2])
    return ap * b * xy + ap * c * xz - b * cp * yz - c * cp * G[1, 1, 1]


def hughes_eckart_matrix(terms, spec):
    """Matrix of the px.py recoil operator over natural_matblock's basis, to
    verify (not assume) that it has zero expectation on angle-independent
    wave functions."""
    return assemble(matel3._exchange_groups(terms, spec.epsilon),
                    lambda u, v: (he_cross(u, v),))[0]


# ---------------------------------------------------------------------------
# four-body: terms (a, b, c, d) on (r13, r14, r23, r24); the generating
# function wants (r13, r23, r14, r24), hence the b<->c swap of to_F


def f4(a, b, c, d, u=0.0):
    """Scalar F4 value (argument order r13, r23, r14, r24, r12-screen)."""
    S = 0.5 * (a + b + c + d) + u
    p, q = a - b, c - d
    u1 = S * S - 0.25 * (p - q) ** 2
    u2 = S * S - 0.25 * (p + q) ** 2
    if u1 <= 0 or u2 <= 0:
        raise ValueError("f4 domain: non-positive log argument")
    return 32.0 * matel4._g_coefs((u1 - u2) / (u1 + u2))[0] / (u1 + u2) / ((a + b) * (c + d))


def to_F(t):
    return (t[0], t[2], t[1], t[3])


def pair_args(t, tp):
    return tuple(x + y for x, y in zip(to_F(t), to_F(tp)))


def overlap4(t, tp):
    return matel4.moment4(1, 1, 1, 1, 1, *pair_args(t, tp))


def coulomb4(pair, t, tp):
    """<t| 1/r_pair |t'> for any of the six pairs ('12','34','13','14','23','24')."""
    A, B, C, D = pair_args(t, tp)
    if pair == "12":
        return matel4.moment4(1, 1, 1, 1, 0, A, B, C, D)
    if pair == "34":
        # relabeling 1<->2 swaps (r13,r23) and (r14,r24) roles: v34 = v12 at (A,C,B,D)
        return matel4.moment4(1, 1, 1, 1, 0, A, C, B, D)
    lower = {"13": (0, 1, 1, 1, 1), "23": (1, 0, 1, 1, 1),
             "14": (1, 1, 0, 1, 1), "24": (1, 1, 1, 0, 1)}[pair]
    return matel4.moment4(*lower, A, B, C, D)


def _p3sq(t, tp):
    # particle 3 touches r13 and r23; their F-order exponents are (a, b)
    a, b, c, d = to_F(t)
    ap, bp, cp, dp = to_F(tp)
    A, B, C, D = pair_args(t, tp)
    n = matel4.moment4(1, 1, 1, 1, 1, A, B, C, D)
    x3 = 0.5 * (matel4.moment4(0, 0, 1, 1, 3, A, B, C, D)
                - matel4.moment4(2, 0, 1, 1, 1, A, B, C, D)
                - matel4.moment4(0, 2, 1, 1, 1, A, B, C, D))
    return (a * ap + b * bp) * n - (a * bp + ap * b) * x3


def _p4sq(t, tp):
    c, d = to_F(t)[2:]
    cp, dp = to_F(tp)[2:]
    A, B, C, D = pair_args(t, tp)
    n = matel4.moment4(1, 1, 1, 1, 1, A, B, C, D)
    x4 = 0.5 * (matel4.moment4(1, 1, 0, 0, 3, A, B, C, D)
                - matel4.moment4(1, 1, 2, 0, 1, A, B, C, D)
                - matel4.moment4(1, 1, 0, 2, 1, A, B, C, D))
    return (c * cp + d * dp) * n - (c * dp + cp * d) * x4


def kinetic4(particle, t, tp):
    """<t| p_particle^2 |t'>.

    The generating function gives the pattern for particles 3 and 4 directly;
    particles 1 and 2 follow from relabeling both positives into the negative
    slots (1<->3, 2<->4), under which the basis family maps onto itself.  That
    relabel fixes r13 and r24 and swaps r14 <-> r23, so in the term tuple it
    swaps b and c, the same swap as to_F.
    """
    if particle == 3:
        return _p3sq(t, tp)
    if particle == 4:
        return _p4sq(t, tp)
    if particle == 1:
        return _p3sq(to_F(t), to_F(tp))
    if particle == 2:
        return _p4sq(to_F(t), to_F(tp))
    raise ValueError("particle must be 1..4")
