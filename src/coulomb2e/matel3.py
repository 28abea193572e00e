"""Closed-form three-body matrix elements.

All integrals over the two electron-center distances and the inter-electron
distance reduce to mixed partial derivatives of the generating function

    F3(alpha, beta, gamma) = 4 / ((alpha+beta)(beta+gamma)(gamma+alpha)),

where alpha goes with x = r2, beta with y = r1, gamma with z = r12 and the
integration domain is the triangle |x-y| <= z <= x+y with measure x*y*z dxdydz.
The constant angular factor 8*pi^2 is omitted everywhere: it cancels in every
Rayleigh quotient.  (With this normalization F3 itself carries a factor 2
relative to the bare triangle integral; the oracle uses the same convention.)

With s1 = alpha+beta, s2 = beta+gamma, s3 = gamma+alpha the moments
G(i,j,k) = (-1)^(i+j+k) d^(i+j+k) F3 are, in closed form,

    4 i! j! k! sum C(i1+j1,i1) C(j2+k2,j2) C(k3+i3,k3)
               / (s1^(i1+j1+1) s2^(j2+k2+1) s3^(k3+i3+1))

over i1+i3 = i, j1+j2 = j, k2+k3 = k: every term is positive, so there is no
cancellation at any order.  `_g3_cells` evaluates a fixed cell set for whole
arrays of argument triples (one inverse-power table per s, one matrix
product); each block assembler calls it once for all its term pairs.

Term convention: a 3-tuple (a, b, c) means exp(-a*x - b*y - c*z), i.e. `a` on
electron 2's distance, `b` on electron 1's, `c` on r12.  Electron exchange is
the swap (a,b,c) -> (b,a,c).  Element functions also take (P, 3) arrays of
terms and then return P-vectors.
"""

from functools import cache
from itertools import product
from math import comb, factorial

import numpy as np

from .model import MatBlock, UNNATURAL, assemble


def f3(alpha, beta, gamma):
    """The base integral 4/((alpha+beta)(beta+gamma)(gamma+alpha))."""
    s1, s2, s3 = alpha + beta, beta + gamma, gamma + alpha
    if s1 <= 0 or s2 <= 0 or s3 <= 0:
        raise ValueError("f3 domain: every pair sum must be positive")
    return 4.0 / (s1 * s2 * s3)


@cache
def _plan(cells):
    """(powers, exps, coef): G[..., c] = sum_m coef[m, c] prod_n s_n^-powers[n, m],
    with the inverse-power table of s_n built from the exponents `exps`."""
    if any(o < 0 for cell in cells for o in cell):
        raise ValueError("moment orders must be non-negative")
    acc = {}
    for c, (i, j, k) in enumerate(cells):
        f = 4 * factorial(i) * factorial(j) * factorial(k)
        for i1, j1, k2 in product(range(i + 1), range(j + 1), range(k + 1)):
            i3, j2, k3 = i - i1, j - j1, k - k2
            mono = (i1 + j1 + 1, j2 + k2 + 1, k3 + i3 + 1)
            acc[mono, c] = acc.get((mono, c), 0) + f * (
                comb(i1 + j1, i1) * comb(j2 + k2, j2) * comb(k3 + i3, k3))
    monos = {mono: m for m, mono in enumerate(sorted({mono for mono, _ in acc}))}
    coef = np.zeros((len(monos), len(cells)))
    for (mono, c), w in acc.items():
        coef[monos[mono], c] = w
    powers = np.array(list(monos), dtype=np.intp).reshape(-1, 3).T
    return powers, -np.arange(powers.max(initial=0) + 1.0), coef


def _g3_cells(alpha, beta, gamma, cells):
    """G at each cell of the tuple `cells`: shape (*argument shape, len(cells))."""
    s = np.array([alpha + beta, beta + gamma, gamma + alpha], dtype=float)
    if np.any(s <= 0):
        raise ValueError("f3 domain: every pair sum must be positive")
    powers, exps, coef = _plan(cells)
    inv = s[..., None] ** exps
    return (inv[0][..., powers[0]] * inv[1][..., powers[1]]
            * inv[2][..., powers[2]]) @ coef


def g3_table(alpha, beta, gamma, omax):
    """All G(i,j,k) for i,j,k <= omax at one argument triple."""
    if min(omax) < 0:
        raise ValueError("moment orders must be non-negative")
    sh = tuple(o + 1 for o in omax)
    return _g3_cells(float(alpha), float(beta), float(gamma),
                     tuple(np.ndindex(sh))).reshape(sh)


def g3(idx, alpha, beta, gamma):
    """One moment G(i,j,k; alpha,beta,gamma); any non-negative order."""
    return float(_g3_cells(float(alpha), float(beta), float(gamma), (tuple(idx),))[0])


def _split(t):
    """Exponent columns (a, b, c) of one term (3,) or of stacked terms (P, 3)."""
    return np.asarray(t, dtype=float).T


def _cells_at(u, v, cells):
    """{cell: G} at the combined exponents of the terms (or term arrays) u, v."""
    a, b, c = _split(u) + _split(v)
    return dict(zip(cells, _g3_cells(a, b, c, cells).T))


def _orders(lo, hi):
    return tuple(c for c in product(range(hi + 1), repeat=3) if lo <= sum(c) <= hi)


# the cells the scalar-sector elements read: Coulomb (order 2), overlap and
# the kinetic and recoil brackets (order 3)
_NTV_CELLS = _orders(2, 3)


def overlap3(t, tp):
    """<t|t'> = G(1,1,1) at the combined exponents."""
    return _cells_at(t, tp, ((1, 1, 1),))[1, 1, 1]


_PAIR_IDX = {"12": (1, 1, 0), "23": (0, 1, 1), "13": (1, 0, 1)}


def coulomb3(pair, t, tp):
    """<t| 1/r_pair |t'>; pair in {'13','23','12'} with 3 the center."""
    idx = _PAIR_IDX[pair]
    return _cells_at(t, tp, (idx,))[idx]


def kinetic3(particle, t, tp, G=None):
    """<t| p_particle^2 |t'> (gradient form, exact closed combination of G).

    particle 1 sits at distance y=r1, particle 2 at x=r2, particle 3 is the
    center.  Diagonal coefficients use products of the two exponent sets; the
    off-diagonal bracket carries the angular average of the unit-vector dot
    products, e.g. y^.z^ = (y^2+z^2-x^2)/(2yz).  `G` holds the _NTV_CELLS
    moments at t + tp when the caller has them already.
    """
    a, b, c = _split(t)
    ap, bp, cp = _split(tp)
    G = _cells_at(t, tp, _NTV_CELLS) if G is None else G
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


def he_cross(t, tp, G=None):
    """<t| px . py |t'> — the recoil cross term of a finite-mass center.

    Zero (to round-off) whenever neither term depends on r12; asserted rather
    than assumed by the finite-mass scan.  `G` as for kinetic3.
    """
    _, b, c = _split(t)
    ap, _, cp = _split(tp)
    G = _cells_at(t, tp, _NTV_CELLS) if G is None else G
    xy = 0.5 * (G[2, 0, 1] + G[0, 2, 1] - G[0, 0, 3])
    xz = 0.5 * (G[0, 3, 0] - G[2, 1, 0] - G[0, 1, 2])
    yz = -0.5 * (G[3, 0, 0] - G[1, 2, 0] - G[1, 0, 2])
    return ap * b * xy + ap * c * xz - b * cp * yz - c * cp * G[1, 1, 1]


def _elements_ntv(u, v, z, invm):
    """(overlap, kinetic, potential) for the ordered term pairs u, v."""
    im0, im1, im2 = invm
    G = _cells_at(u, v, _NTV_CELLS)
    tt = (0.5 * (im1 + im0) * kinetic3(1, u, v, G)
          + 0.5 * (im2 + im0) * kinetic3(2, u, v, G))
    if im0 != 0.0:
        tt = tt + im0 * he_cross(u, v, G)
    return G[1, 1, 1], tt, -z * G[1, 0, 1] - z * G[0, 1, 1] + G[1, 1, 0]


def _exchange_groups(terms, epsilon):
    """One group per term: t + epsilon * (a<->b), or t alone for epsilon None."""
    tl = [t.as_tuple() if hasattr(t, "as_tuple") else tuple(t) for t in terms]
    if epsilon is None:
        return [[(1.0, t)] for t in tl]
    return [[(1.0, t), (float(epsilon), (t[1], t[0], t[2]))] for t in tl]


def natural_matblock(terms, spec, symmetrize=True):
    """N, T, V matrices over exchange-symmetrized scalar exponential terms.

    Each basis vector is exp(-a x - b y - c z) + eps * (a<->b) when
    `symmetrize` is set; with distinguishable negative particles pass
    symmetrize=False and supply both orderings as separate terms.
    """
    z, invm = spec.z_central, spec.inv_masses
    groups = _exchange_groups(terms, spec.epsilon if symmetrize else None)
    return MatBlock(*assemble(groups, lambda u, v: _elements_ntv(u, v, z, invm)))


def hughes_eckart_matrix(terms, spec):
    """Matrix of the px.py recoil operator over the same basis as natural_matblock.

    Used to *verify* (not assume) that the cross term has zero expectation on
    angle-independent wave functions.
    """
    return assemble(_exchange_groups(terms, spec.epsilon),
                    lambda u, v: (he_cross(u, v),))[0]


# ---------------------------------------------------------------------------
# special closed forms


def chandrasekhar_ntv(a, b, z, epsilon):
    """Norm, kinetic and potential of exp(-a r1 - b r2) + eps (a<->b).

    Closed forms; the assembled G-machinery reproduces these up to the global
    normalization constant (checked in tests).
    """
    if a <= 0 or b <= 0:
        raise ValueError("chandrasekhar ranges must be positive")
    eps = float(epsilon)
    N = 1.0 / (8 * a**3 * b**3) + 8.0 * eps / (a + b) ** 6
    T = 1.0 / (16 * a * b**3) + 1.0 / (16 * a**3 * b) + 8.0 * a * b * eps / (a + b) ** 6
    V = (-z / (8 * a**2 * b**3) - z / (8 * a**3 * b**2) - 8.0 * z * eps / (a + b) ** 5
         + 2.5 * eps / (a + b) ** 5
         + (a * a + 3 * a * b + b * b) / (8 * a * a * b * b * (a + b) ** 3))
    return N, T, V


def perturbative_e(z):
    """First-order energy of the unscreened product state: -Z^2 + 5Z/8."""
    return -z * z + 5.0 * z / 8.0


def energy_effective_charge(z):
    """Variational energy and optimal range of the single screened exponential."""
    alpha = z - 5.0 / 16.0
    return -alpha * alpha, alpha


# ---------------------------------------------------------------------------
# antisymmetrized (1s)(2s) shell-model wave function
#
# Orbitals are represented as lists of (coef, x-power, y-power, x-range,
# y-range); products stay in that family and every element is a finite sum of
# G entries with the r12 order fixed by the operator.

_SQRT2 = np.sqrt(2.0)


def _orbital(kind, var, rng):
    if kind == "1s":
        base = [(2.0 * rng**1.5, 0, rng)]
    else:  # 2s
        n2 = rng**1.5 / _SQRT2
        base = [(n2, 0, 0.5 * rng), (-0.5 * n2 * rng, 1, 0.5 * rng)]
    out = []
    for cf, k, al in base:
        if var == "x":
            out.append((cf, k, 0, al, 0.0))
        else:
            out.append((cf, 0, k, 0.0, al))
    return out


def _rep_mul(r1, r2):
    return [(c1 * c2, i1 + i2, j1 + j2, p1 + p2, q1 + q2)
            for c1, i1, j1, p1, q1 in r1 for c2, i2, j2, p2, q2 in r2]


def _rep_d(rep, var):
    out = []
    for c, i, j, p, q in rep:
        if var == "y":
            if j > 0:
                out.append((c * j, i, j - 1, p, q))
            out.append((-c * q, i, j, p, q))
        else:
            if i > 0:
                out.append((c * i, i - 1, j, p, q))
            out.append((-c * p, i, j, p, q))
    return out


def _rep_element(ra, rb, dx=0, dy=0, dz=0):
    rows = [(c, (i + 1 - dx, j + 1 - dy, 1 - dz), p, q)
            for c, i, j, p, q in _rep_mul(ra, rb) if c != 0.0]
    c, cell, p, q = zip(*rows)
    cells = tuple(sorted(set(cell)))
    G = _g3_cells(np.array(p), np.array(q), np.zeros(len(rows)), cells)
    return float(np.dot(c, G[np.arange(len(rows)), [cells.index(x) for x in cell]]))


def shellmodel_ntv(a, b, z):
    """N, T, V of the antisymmetrized (1s)_a (2s)_b product.

    Kinetic energy through the gradient form (first derivatives only); the
    1/r12 element goes through the same G machinery with the z-order dropped
    to zero.
    """
    if a <= 0 or b <= 0:
        raise ValueError("shell-model ranges must be positive")
    psi = (_rep_mul(_orbital("1s", "y", a), _orbital("2s", "x", b))
           + [(-c, i, j, p, q) for c, i, j, p, q in
              _rep_mul(_orbital("2s", "y", b), _orbital("1s", "x", a))])
    N = _rep_element(psi, psi)
    if abs(N) < 1e-12:
        raise ValueError("degenerate shell-model basis: orbitals proportional")
    dy = _rep_d(psi, "y")
    dx = _rep_d(psi, "x")
    T = 0.5 * (_rep_element(dy, dy) + _rep_element(dx, dx))
    V = (-z * _rep_element(psi, psi, dy=1) - z * _rep_element(psi, psi, dx=1)
         + _rep_element(psi, psi, dz=1))
    return N, T, V


# ---------------------------------------------------------------------------
# min-max wave function exp(-a r_< - b r_>)


def _minmax_I(m, n, ca, cb):
    # int_0^inf dr> int_0^r> dr<  r<^m r>^n e^{-ca r< - cb r>}
    s = 0.0
    for j in range(n + 1):
        s += (comb(n, j) * factorial(m + j) / (ca + cb) ** (m + j + 1)
              * factorial(n - j) / cb ** (n - j + 1))
    return s


def minmax_ntv(a, b, z):
    """N, T, V of exp(-a r_< - b r_>).

    The radial derivative is discontinuous at r1 = r2, so the kinetic energy
    is taken in the gradient form, which here collapses to (a^2+b^2)/2 * N.
    """
    if a <= 0 or b <= 0:
        raise ValueError("min-max ranges must be positive")
    ca, cb = 2.0 * a, 2.0 * b
    N = 2.0 * _minmax_I(2, 2, ca, cb)
    V = (-z * (2.0 * _minmax_I(1, 2, ca, cb) + 2.0 * _minmax_I(2, 1, ca, cb))
         + 2.0 * _minmax_I(2, 1, ca, cb))
    T = 0.5 * (a * a + b * b) * N
    return N, T, V


# ---------------------------------------------------------------------------
# vector (unnatural parity) sector
#
# Basis: (x_vec cross y_vec) [exp(-a x - b y - c z) + (a<->b)].  After summing
# over the three Cartesian projections the angular integrals leave the scalar
# weight |x_vec cross y_vec|^2 = x^2 y^2 - ((x^2+y^2-z^2)/2)^2, so every
# element is again a finite sum of G entries (total order <= 5 beyond the
# measure).

_W2 = {(4, 0, 0): -0.25, (0, 4, 0): -0.25, (0, 0, 4): -0.25,
       (2, 2, 0): 0.5, (2, 0, 2): 0.5, (0, 2, 2): 0.5}

# angular averages of unit-vector dot products, times the polynomial weight
_DOT_YZ = {(0, 2, 0): 0.5, (0, 0, 2): 0.5, (2, 0, 0): -0.5}   # y^.z^ * yz
_DOT_XZ = {(2, 0, 0): 0.5, (0, 0, 2): 0.5, (0, 2, 0): -0.5}   # x^.z^ * xz
_DOT_XY = {(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): -0.5}   # x^.y^ * xy


def _pmul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


_W2_YZ = _pmul(_W2, _DOT_YZ)
_W2_XZ = _pmul(_W2, _DOT_XZ)
_W2_XY = _pmul(_W2, _DOT_XY)


def _contract(poly, G, dx=0, dy=0, dz=0):
    # sum of poly * x y z measure, with optional division by x, y or z
    return sum(c * G[k[0] + 1 - dx, k[1] + 1 - dy, k[2] + 1 - dz]
               for k, c in poly.items())


class CancellationError(ValueError):
    """Vector-sector elements at these exponents cancel too many digits.

    The weight |x_vec cross y_vec|^2 = -x^4/4 - y^4/4 - z^4/4 + (x^2 y^2 +
    x^2 z^2 + y^2 z^2)/2 is a difference of moments that individually dwarf
    the result once the two electron scales are very different (ratio beyond
    ~10^3).  The moments themselves are machine accurate, but the contraction
    then has fewer correct digits than a stability verdict needs, and an
    optimizer happily mines that noise for fake binding.  Such evaluations
    are refused rather than silently returned.
    """


# max allowed ratio sum(|terms|)/|result| in the overlap contraction; 1e6
# still guarantees ~1e-10 relative accuracy and is three orders of magnitude
# above anything a genuine optimum needs
_CANCEL_CAP = 1e6
_UN_CELLS = _orders(5, 7)   # every cell the contractions below read


def _un_pair(u, v, z, invm):
    """(n, t, v) for ordered pairs of plain (a,b,c) vector terms; raises
    CancellationError if the overlap of any one pair cancels beyond the cap."""
    a, b, c = _split(u)
    ap, bp, cp = _split(v)
    G = _cells_at(u, v, _UN_CELLS)
    n = _contract(_W2, G)
    n_abs = _contract({k: abs(c0) for k, c0 in _W2.items()}, G)
    bad = ~(n_abs < _CANCEL_CAP * np.abs(n))
    if np.any(bad):
        s = np.reshape([a + ap, b + bp, c + cp], (3, -1))[:, np.argmax(bad)]
        raise CancellationError(
            f"untrustworthy vector elements at combined exponents "
            f"({s[0]:.4g}, {s[1]:.4g}, {s[2]:.4g})")
    pot = (-z * _contract(_W2, G, dx=1) - z * _contract(_W2, G, dy=1)
           + _contract(_W2, G, dz=1))
    # p1^2 (particle at y): radial part 2x^2 replaces the |W|^2 weight
    k1 = (_contract({(2, 0, 0): 2.0}, G)
          - (b + bp) * _contract(_W2, G, dy=1)
          - (c + cp) * _contract(_W2, G, dz=1)
          + (b * bp + c * cp) * n
          + (b * cp + bp * c) * sum(cc * G[k[0] + 1, k[1], k[2]]
                                    for k, cc in _W2_YZ.items()))
    k2 = (_contract({(0, 2, 0): 2.0}, G)
          - (a + ap) * _contract(_W2, G, dx=1)
          - (c + cp) * _contract(_W2, G, dz=1)
          + (a * ap + c * cp) * n
          + (a * cp + ap * c) * sum(cc * G[k[0], k[1] + 1, k[2]]
                                    for k, cc in _W2_XZ.items()))
    im0, im1, im2 = invm
    t = 0.5 * (im1 + im0) * k1 + 0.5 * (im2 + im0) * k2
    if im0 != 0.0:
        k3 = (_contract({(0, 0, 2): 2.0}, G)
              - (a + ap) * _contract(_W2, G, dx=1)
              - (b + bp) * _contract(_W2, G, dy=1)
              + (a * ap + b * bp) * n
              + (a * bp + ap * b) * sum(cc * G[k[0], k[1], k[2] + 1]
                                        for k, cc in _W2_XY.items()))
        # internal kinetic energy from the lab-frame sum (translation-invariant
        # basis): 1/2m1 p1^2 + 1/2m2 p2^2 + 1/2M p3^2 with p3 = -(p1+p2)
        t = 0.5 * im1 * k1 + 0.5 * im2 * k2 + 0.5 * im0 * k3
    return n, t, pot


def unnatural_matblock(terms, spec):
    """N, T, V over symmetrized vector terms (exchange sign fixed to +1).

    The exchange operation on the vector prefactor contributes a factor -1
    (x_vec cross y_vec is antisymmetric), so the spatially symmetric
    combination carries the quantum numbers of the spin-triplet 1+ state.
    """
    if spec.sector != UNNATURAL:
        raise ValueError("unnatural_matblock needs an unnatural-sector spec")
    z, invm = spec.z_central, spec.inv_masses
    return MatBlock(*assemble(_exchange_groups(terms, +1),
                              lambda u, v: _un_pair(u, v, z, invm)))
