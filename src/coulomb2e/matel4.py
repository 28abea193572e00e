"""Four-body matrix elements for two positive and two negative unit charges.

The basis is exp(-a r13 - b r14 - c r23 - d r24) (no explicit r12/r34
dependence).  Every element is a mixed partial derivative, at u=0, of

    F4(a, b, c, d, u) = 16/((a-b)(a+b)(c-d)(c+d))
                        * log[ (b+c+u)(a+d+u) / ((a+c+u)(b+d+u)) ],

where inside F4 the arguments follow the generating-function order
(r13, r23, r14, r24) and u screens r12.  The prefactor 16 absorbs the angular
constant consistently with the three-body convention (the bare distance
integral carries 1/4 of these values).

The printed form of F4 is numerically disastrous near a=b or c=d, and the
derivatives needed here amplify any cancellation.  With S = (a+b+c+d)/2 + u,
p = a-b, q = c-d and

    u1 = S^2 - (p-q)^2/4,   u2 = S^2 - (p+q)^2/4   (both > 0 in the domain),

one has log(u1/u2)/(p q) = 2 atanh(r)/r / (u1+u2) with r = (u1-u2)/(u1+u2),
and atanh(r)/r is analytic in r^2 on |r| < 1: stable for every admissible
argument, exact degeneracy included.  A table (`_f4_jet`) takes 3 product
matrices, 10 matrix-vector products and a jet product: 1/(u1+u2) and
atanh(r)/r are Taylor compositions, the last over `_g_coefs`, whose series
switch at |r| = _R_SWITCH is F4's only branch; u1 +- u2 and 32/((a+b)(c+d))
enter in closed form.  The jet keeps the 78 cells at or below a `_MOMENTS`
entry (an order ideal; a 162-cell box build gives them to 7.9e-16 relative).
Served moments match 50-digit mpmath to 6.6e-15 at the tests' points.

F4's symmetry group is the Klein group of (a b)(c d) and (a c)(b d) times
the dilations: F4 is homogeneous of degree -4, so a cell of order n obeys
d^idx F4(h y) = h^(-4-n) d^idx F4(y).  The `_f4_table` lru holds one table
per orbit of that group, built at the orbit's smallest member with largest
argument 1.  One function serves it, `_f4_moments`: rows of arguments and a
tuple of kept multi-indices in, each row's permuted cells times h^(-4-n),
h = max(a, b, c, d), out, in one gather.  `moment4` passes one row,
`assemble4`'s kernel `_pair_ntv` two per term pair.  The identity-break
pair (a,b,b,a), (b,a,a,b) thus reads one table at (1,1,1,1) for its cross
term whatever a + b.  A served moment differs from a build at the
requested arguments in the last bits (2.4e-14 relative at worst in the
tests).  Its elements are bilinear forms in the terms' exponents over the
(P, 24) moments: one `model.contract` with the lru table `_ntv4_table`.
`assemble4` lays a group's members side by side in one row of the exponent
array, one column map each, for the same `model.block` as three bodies.
"""

from functools import cache, lru_cache
from math import atanh, comb, factorial, prod

import numpy as np

from .jets import Jet, _layout
from .model import block, coefficients, contract, kinetic

_R_SWITCH = 0.5
_POWERS, _SIGNS = np.arange(96.0), (-1.0) ** np.arange(96)


@cache
def _g_series():    # row m: the coefficient of r^j in G_m(r), j < 96
    return np.array([[comb(j + m, m) / (j + m + 1) if (j + m) % 2 == 0 else 0.0
                      for j in range(96)] for m in range(_DEGREE + 1)])


def _g_coefs(r):
    """G_m = g^(m)(r)/m!, m <= _DEGREE, of g(x) = atanh(x)/x: by its power
    series below _R_SWITCH in |r| (terms of one sign, r^96 < 1.3e-29), else by
    r G_(m+1) = H_m/(m+1) - G_m from (x g)' = 1/(1 - x^2) = sum H_m (x - r)^m."""
    if abs(r) < _R_SWITCH:      # r^j as |r|^j (-1)^j: 10x faster in numpy
        x = abs(r) ** _POWERS * (_SIGNS if r < 0.0 else 1.0)
        return _g_series().dot(x).tolist()
    g = [atanh(r) / r]
    for m in range(_DEGREE):
        h = 0.5 * ((1.0 - r) ** -(m + 1) + (-1.0) ** m * (1.0 + r) ** -(m + 1))
        g.append((h / (m + 1) - g[m]) / r)
    return g


# Moment indices (i, j, k, l, m) that the overlap, the Coulomb pairs and
# the kinetic brackets of particles 3 and 4 read, in _pair_ntv's column
# order.  The F4 jet keeps exactly the cells at or below one of them, inside
# the box _SHAPE at total degree _DEGREE; moment4 refuses anything beyond.
_MOMENTS = (
    (1, 1, 1, 1, 1), (1, 1, 1, 1, 0),
    (0, 1, 1, 1, 1), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1),
    (0, 0, 1, 1, 3), (2, 0, 1, 1, 1), (0, 2, 1, 1, 1),
    (1, 1, 0, 0, 3), (1, 1, 2, 0, 1), (1, 1, 0, 2, 1),
)
_ORDERS = tuple(max(col) for col in zip(*_MOMENTS))
_DEGREE = max(sum(idx) for idx in _MOMENTS)
_SHAPE = tuple(o + 1 for o in _ORDERS)
# the smallest largest argument h whose h^(-4-_DEGREE) is finite
_H_MIN = 2.0 ** -(1023 // (4 + _DEGREE))


@cache
def _f4_parts(lay):
    """_f4_inputs' constants on lay: the unit cells, u1 +- u2's quadratic
    parts (Hessian / alpha!), 32/((a+b)(c+d))'s numerators and exponents."""
    e = np.eye(5)
    s, p, q = 0.5 * e[:4].sum(axis=0) + e[4], e[0] - e[1], e[2] - e[3]
    hess = (4.0 * np.outer(s, s) - np.outer(p, p) - np.outer(q, q),
            0.0 + np.outer(p, q) + np.outer(q, p))    # +0.0, as a product gives
    cells = np.array(list(lay.index))
    quad = np.zeros((2, lay.n))
    for k, idx in enumerate(cells):
        if idx.sum() == 2:
            i, j = np.repeat(np.arange(5), idx)
            quad[:, k] = [h[i, j] / (1 + (i == j)) for h in hess]
    num = [32.0 * (-1) ** (i + j + k + l) * comb(i + j, i) * comb(k + l, k)
           if m == 0 else 0.0 for i, j, k, l, m in lay.index]
    unit = [lay.index[tuple(int(k == i) for i in range(5))] for k in range(5)]
    i, j, k, l, _ = cells.T
    return unit, quad[0], quad[1], np.array(num), i + j + 1.0, k + l + 1.0


def _f4_inputs(a, b, c, d, lay):
    """Jets on lay of u1 + u2 = 2 S^2 - (p^2 + q^2)/2 and u1 - u2 = p q (exact,
    degree 2: value, gradient, fixed quadratic part) and of 32/((a+b)(c+d)):
    (-1)^(i+j+k+l) C(i+j, i) C(k+l, k) 32/((a+b)^(i+j+1) (c+d)^(k+l+1)), m = 0."""
    S = 0.5 * (a + b + c + d)
    p, q, s1, s2 = a - b, c - d, a + b, c + d
    w, pq = 2.0 * S * S - 0.5 * (p * p + q * q), p * q
    # u1, u2 = (w +- pq)/2 = (a+d)(b+c), (a+c)(b+d) > 0.  The sign of a sum
    # is exact and survives `_f4_moments`' division by h, so a zero or
    # negative factor is refused whatever the rounding of w and pq (and NaN
    # fails every test)
    if not (w > abs(pq) and s1 * s2 != 0.0 and (a + d) * (b + c) > 0.0
            and (a + c) * (b + d) > 0.0):
        raise ValueError("f4 domain: non-positive log argument or a+b, c+d = 0")
    unit, wq, pqq, num, e1, e2 = _f4_parts(lay)
    cw, cp = wq.copy(), pqq.copy()
    cw[0], cw[unit] = w, (2.0 * S - p, 2.0 * S + p, 2.0 * S - q, 2.0 * S + q, 4.0 * S)
    cp[0], cp[unit] = pq, (q, -q, p, -p, 0.0)
    return Jet(cw, lay), Jet(cp, lay), Jet(num / (s1 ** e1 * s2 ** e2), lay)


def _f4_jet(a, b, c, d, lay):
    """F4's table on lay at u = 0: g(r)/(u1 + u2) 32/((a+b)(c+d)), the
    matrix of 1/(u1 + u2) applied to both u1 - u2 and g(r)."""
    W, P, sep = _f4_inputs(a, b, c, d, lay)
    usr = W.recip().matrix()
    r = Jet(usr.dot(P.c), lay)
    return Jet(usr.dot(r.compose(_g_coefs(r.val)).c), lay) * sep


@lru_cache(maxsize=4096)
def _f4_table(a, b, c, d):
    return _f4_jet(a, b, c, d, _layout(_SHAPE, _DEGREE, _MOMENTS))


# F4 is unchanged under (a b)(c d), (a c)(b d) and their product: they flip
# or swap p = a-b and q = c-d, which leaves u1, u2 and (a+b)(c+d) alone.
# Each is an involution g of the four axes that fixes u, so d^idx F4 at x is
# d^(idx o g) F4 at x o g, and one table serves the whole orbit.
_KLEIN = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _f4_klein(a, b, c, d):
    """The cached F4 table at the smallest x o g of x = (a, b, c, d) (the
    first g on a tie), and g's row k in _KLEIN: the table's cell idx o g
    holds x's derivative idx."""
    x0, x1, x2, x3 = (a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)
    y, k = (x1, 1) if x1 < x0 else (x0, 0)
    z, l = (x3, 3) if x3 < x2 else (x2, 2)
    return (_f4_table(*z), l) if z < y else (_f4_table(*y), k)


@cache
def _orbit_cells(lay, idxs):
    """For the multi-indices idxs: the cells of idx o g in lay (one row per
    _KLEIN row g, one column per idx), (-1)^|idx| idx! and -4 - |idx|.
    ValueError for an idx the layout does not keep (nor, then, any idx o g)."""
    try:
        cells = np.array([[lay.index[tuple(idx[i] for i in g) + idx[4:]]
                           for idx in idxs] for g in _KLEIN])
    except KeyError:
        raise ValueError(f"moment orders {idxs} not all kept by the F4 jet "
                         f"({lay.n} cells of shape {lay.shape})") from None
    return (cells,
            np.array([(-1.0) ** sum(idx) * prod(map(factorial, idx)) for idx in idxs]),
            np.array([-4.0 - sum(idx) for idx in idxs]))


def _f4_moments(X, idxs):
    """Signed moments (-1)^|idx| d^idx F4 at u = 0, one row per row of X
    (arguments in F4 order) and one column per idx of idxs.

    Each row x reads the `_f4_klein` table at x/h, h = max(x), at cells
    idx o g, times (-1)^|idx| idx! (c * (+-f) == (+-1) * (c * f), so the
    sign is exact) and numpy's h^(-4-|idx|).  ValueError unless every
    h >= _H_MIN (zero, negative and NaN included): a table at a smaller
    scale would overflow on serving."""
    h = X.max(axis=1)
    if not h.min() >= _H_MIN:
        raise ValueError(f"f4 domain: a largest argument below {_H_MIN}")
    tabs, ks = zip(*[_f4_klein(*x) for x in (X / h[:, None]).tolist()])
    cells, fact, order = _orbit_cells(tabs[0].lay, idxs)
    g = np.array([tab.c for tab in tabs])[np.arange(len(tabs))[:, None], cells[list(ks)]]
    return g * fact * h[:, None] ** order


def moment4(i, j, k, l, m, a, b, c, d):     # kept: perfbench probes and traces it
    """Moment int r13^i r23^j r14^k r24^l r12^(m-1) exp(-...) d(distances),
    the signed mixed partial (-1)^(i+j+k+l+m) d^(i,j,k,l,m) F4 at u = 0.

    Raises ValueError for an order the jet does not keep: any cell not at or
    below a `_MOMENTS` entry.
    """
    X = np.array([[a, b, c, d]], dtype=float)
    return float(_f4_moments(X, ((i, j, k, l, m),))[0, 0])


@lru_cache(maxsize=64)   # a solve keeps one spec; a mass scan one per ratio
def _ntv4_table(invm):
    """`contract`'s table of (overlap, kinetic, potential) over the m, then r,
    `_MOMENTS`: p^2 of particles 3, 4 (exponents a, c; b, d) reads m's overlap
    and brackets 6 .. 8, 9 .. 11, particles 1, 2 (a, b; c, d) those of r."""
    t = [e for im, o, x, i, j in zip(invm, (12, 12, 0, 0), (18, 21, 6, 9), (0, 2, 0, 1),
                                     (1, 3, 2, 3))
         for e in kinetic(0.5 * im, i, j, o, zip((-0.5, 0.5, 0.5), range(x, x + 3)))]
    return coefficients(4, 24, ([(1.0, (), 0)], t, [(1.0, (), 1), (1.0, (), 13)]
                                + [(-1.0, (), k) for k in (2, 3, 4, 5)]))


def _pair_ntv(U, V, invm):
    """(overlap, kinetic, potential) over the ordered term pairs U, V.

    Terms (a, b, c, d) are on (r13, r14, r23, r24) and F4 wants (r13, r23,
    r14, r24), hence the b<->c swap.  Each pair reads F4 at its summed
    exponents as m, in F4 order (A, B, C, D), and r at (A, C, B, D): r
    serves particles 1 and 2 (relabeling 1<->3, 2<->4 maps the basis family
    onto itself and swaps b and c) and the pair 34 (relabeling 1<->2 makes
    v34 the v12 at (A, C, B, D)).  One `_f4_moments` call serves the block's
    2P rows, each pair's m row and then its r row."""
    X = U + V
    g = _f4_moments(X[:, [0, 2, 1, 3, 0, 1, 2, 3]].reshape(-1, 4), _MOMENTS)
    return contract(U, V, g.reshape(len(U), -1), _ntv4_table(invm))


def assemble4(groups, spec):
    """N, T, V matrices over symmetrized four-body term groups.

    `groups` is a list of basis vectors, each a list of (weight, term) pairs
    carrying whatever identical-particle symmetrization the spec's mass
    pattern allows; every group has the same weights.  A group's terms are
    one row of the exponent array and its k-th member the map of columns
    4k .. 4k + 3, so one `model.block` takes all ordered term pairs.  The
    basis is translation invariant, so the lab-frame kinetic sum equals the
    internal kinetic energy.
    """
    if not spec.is_four_body:
        raise ValueError("assemble4 needs a four-body spec")
    weights = [w for w, _ in groups[0]] if groups else None
    if not weights or any([w for w, _ in g] != weights for g in groups):
        raise ValueError("four-body groups must be non-empty with equal weights")
    if any(len(t) != 4 for g in groups for _, t in g):
        raise ValueError("four-body terms have four exponents (a, b, c, d)")
    x = np.array([[v for _, t in g for v in t] for g in groups], dtype=float)
    invm = spec.inv_masses
    return block(x, _member_maps(tuple(weights)), lambda U, V: _pair_ntv(U, V, invm))


@lru_cache(maxsize=16)   # a solve keeps one weight pattern
def _member_maps(weights):
    """`assemble4`'s column maps of a group with these weights: member k
    reads the columns 4k .. 4k + 3 of its row."""
    return tuple((tuple(range(4 * k, 4 * k + 4)), w) for k, w in enumerate(weights))


def symmetrized_group(t):
    """The four images of one term under both identical-pair exchanges,
    sorted, each with weight 1: positive exchange 1<->2 maps (a,b,c,d) ->
    (c,d,a,b), negative exchange 3<->4 maps (a,b,c,d) -> (b,a,d,c).  Images
    that coincide stay, so the basis vector is continuous in t."""
    a, b, c, d = t
    return [(1.0, x) for x in sorted([(a, b, c, d), (c, d, a, b), (b, a, d, c),
                                      (d, c, b, a)])]


# ---------------------------------------------------------------------------
# the one-parameter symmetric family: terms (a,b,b,a) + (b,a,a,b), a+b=1,
# beta = a-b.  Closed forms for the reduced matrix elements (the general
# assembler reproduces them times a common constant).


def ho_ntv(beta):
    """Reduced (n, t, v) of the symmetric exponential pair at a+b=1, a-b=beta.

    v is the magnitude of the (attractive-dominated) potential expectation:
    the reduced energy of the family is -v^2/(4 t n).  The bracket inside v
    has a removable singularity at beta=0 (limit 25/12); below beta=0.4 it is
    evaluated by its series (m <= 32): the closed form's 1/beta^4 and 1/beta^2
    pieces cancel (2.4e-12 relative in v at 0.1); both give ~2e-16 at 0.4.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("ho_ntv needs 0 <= beta < 1")
    b2 = beta * beta
    omb = 1.0 - b2
    n = 33.0 / 16.0 + (33.0 - 22.0 * b2 + 5.0 * b2 * b2) / (16.0 * omb**3)
    t = 21.0 / 8.0 - 1.5 * b2 + (21.0 - 6.0 * b2 + b2 * b2) / (8.0 * omb**3)
    if beta < 0.4:
        # bracket = 1 - 5 b2/8 + (1/4) sum_{m>=3} d_m b2^{m-3},
        # d_m = sum_i binom-poly[i]/(m-i); the m=1,2 terms cancel the
        # 1/(4 beta^4) and 7/(8 beta^2) singular pieces exactly
        poly = (1.0, -4.0, 6.0, -4.0, 1.0)
        acc = 0.0
        for m in range(32, 2, -1):
            # log-series index m - i must stay >= 1
            dm = sum(poly[i] / (m - i) for i in range(min(4, m - 1) + 1))
            acc = acc * b2 + dm
        bracket = 1.0 - 5.0 * b2 / 8.0 + 0.25 * acc
    else:
        bracket = (1.0 - 5.0 * b2 / 8.0 - 1.0 / (4.0 * b2 * b2)
                   + 7.0 / (8.0 * b2)
                   + omb**4 / (4.0 * b2**3) * np.log(1.0 / omb))
    v = (19.0 / 6.0 + (21.0 - 18.0 * b2 + 5.0 * b2 * b2) / (4.0 * omb**3)
         - bracket / omb**2)
    return n, t, v
