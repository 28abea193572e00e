"""Closed-form three-body matrix elements.

All integrals over the two electron-center distances and the inter-electron
distance reduce to mixed partial derivatives of the generating function

    F3(alpha, beta, gamma) = 4 / ((alpha+beta)(beta+gamma)(gamma+alpha)),

where alpha goes with x = r2, beta with y = r1, gamma with z = r12 and the
integration domain is the triangle |x-y| <= z <= x+y with measure x*y*z dxdydz.
The constant angular factor 8*pi^2 is omitted everywhere: it cancels in every
Rayleigh quotient.  (With this normalization F3 itself carries a factor 2
relative to the bare triangle integral; the oracle uses the same convention.)

The derivative tables are filled in closed form: 1/(s0 + da + db) has Taylor
coefficients (-1)^(i+j) C(i+j,i) / s0^(i+j+1), so the full F3 jet is a product
of three such factors — no cancellation, machine precision at any order.

Term convention: a 3-tuple (a, b, c) means exp(-a*x - b*y - c*z), i.e. `a` on
electron 2's distance, `b` on electron 1's, `c` on r12.  Electron exchange is
the swap (a,b,c) -> (b,a,c).
"""

from functools import lru_cache
from math import comb, factorial

import numpy as np

from .model import MatBlock, UNNATURAL, assemble

_MAX_ORDER = 8


def f3(alpha, beta, gamma):
    """The base integral 4/((alpha+beta)(beta+gamma)(gamma+alpha))."""
    s1, s2, s3 = alpha + beta, beta + gamma, gamma + alpha
    if s1 <= 0 or s2 <= 0 or s3 <= 0:
        raise ValueError("f3 domain: every pair sum must be positive")
    return 4.0 / (s1 * s2 * s3)


def _conv(a, b):
    """Truncated polynomial product of two coefficient grids (same shape).

    Direct slice accumulation: the grids here are positive with a large
    dynamic range, and an FFT product would smear the absolute error of the
    largest entry onto the small ones (costing ~8 digits at order 8).
    """
    sh = a.shape
    out = np.zeros(sh)
    nz = np.argwhere(a != 0.0)
    for i, j, k in nz:
        out[i:, j:, k:] += a[i, j, k] * b[:sh[0] - i, :sh[1] - j, :sh[2] - k]
    return out


def _recip_pair(s0, ax1, ax2, shape):
    """|Taylor grid| of 1/(s0 + d_ax1 + d_ax2): the true coefficients carry
    the coherent sign (-1)^(i+j), which is pulled out of the convolution so
    the FFT only ever adds positive numbers (no cancellation at high order)."""
    c = np.zeros(shape)
    for i in range(shape[ax1]):
        for j in range(shape[ax2]):
            idx = [0, 0, 0]
            idx[ax1] = i
            idx[ax2] = j
            c[tuple(idx)] = comb(i + j, i) / s0 ** (i + j + 1)
    return c


_FACT = [factorial(n) for n in range(2 * _MAX_ORDER + 2)]


def g3_table(alpha, beta, gamma, omax):
    """All G(i,j,k) = (-1)^(i+j+k) d^(i+j+k) F3 for i,j,k <= omax at once."""
    s1, s2, s3 = alpha + beta, beta + gamma, gamma + alpha
    if s1 <= 0 or s2 <= 0 or s3 <= 0:
        raise ValueError("f3 domain: every pair sum must be positive")
    sh = tuple(o + 1 for o in omax)
    # Taylor coefficient (i,j,k) of F3 is (-1)^(i+j+k) times this positive
    # grid; the same sign appears in the derivative definition of G, so the
    # moments come out directly (and are manifestly positive).
    F = 4.0 * _conv(_recip_pair(s3, 2, 0, sh),
                    _conv(_recip_pair(s1, 0, 1, sh), _recip_pair(s2, 1, 2, sh)))
    fi = np.array(_FACT[:max(sh)])
    return F * fi[:sh[0], None, None] * fi[None, :sh[1], None] * fi[None, None, :sh[2]]


def g3(idx, alpha, beta, gamma):
    """One moment G(i,j,k; alpha,beta,gamma)."""
    i, j, k = idx
    if i + j + k > 3 * _MAX_ORDER:
        raise ValueError("derivative order beyond supported maximum")
    return float(g3_table(alpha, beta, gamma, (i, j, k))[i, j, k])


# Element assembly reads many G entries at the same combined exponents, so the
# tables are cached on the (rounded) argument triple.  Two cache tiers: small
# tables for the scalar sector, order-8 tables for the polynomial-dressed
# vector sector.

@lru_cache(maxsize=8192)
def _gtab_small(al, be, ga):
    return g3_table(al, be, ga, (3, 3, 3))


@lru_cache(maxsize=4096)
def _gtab_big(al, be, ga):
    return g3_table(al, be, ga, (_MAX_ORDER, _MAX_ORDER, _MAX_ORDER))


def _args(t, tp):
    return (t[0] + tp[0], t[1] + tp[1], t[2] + tp[2])


def overlap3(t, tp):
    """<t|t'> = G(1,1,1) at the combined exponents."""
    G = _gtab_small(*_args(t, tp))
    return float(G[1, 1, 1])


_PAIR_IDX = {"12": (1, 1, 0), "23": (0, 1, 1), "13": (1, 0, 1)}


def coulomb3(pair, t, tp):
    """<t| 1/r_pair |t'>; pair in {'13','23','12'} with 3 the center."""
    G = _gtab_small(*_args(t, tp))
    return float(G[_PAIR_IDX[pair]])


def kinetic3(particle, t, tp):
    """<t| p_particle^2 |t'> (gradient form, exact closed combination of G).

    particle 1 sits at distance y=r1, particle 2 at x=r2, particle 3 is the
    center.  Diagonal coefficients use products of the two exponent sets; the
    off-diagonal bracket carries the angular average of the unit-vector dot
    products, e.g. y^.z^ = (y^2+z^2-x^2)/(2yz).
    """
    a, b, c = t
    ap, bp, cp = tp
    G = _gtab_small(a + ap, b + bp, c + cp)
    if particle == 1:
        return float((b * bp + c * cp) * G[1, 1, 1]
                     - 0.5 * (b * cp + bp * c) * (G[3, 0, 0] - G[1, 2, 0] - G[1, 0, 2]))
    if particle == 2:
        return float((a * ap + c * cp) * G[1, 1, 1]
                     - 0.5 * (a * cp + ap * c) * (G[0, 3, 0] - G[2, 1, 0] - G[0, 1, 2]))
    if particle == 3:
        return float((a * ap + b * bp) * G[1, 1, 1]
                     + 0.5 * (a * bp + ap * b) * (G[2, 0, 1] + G[0, 2, 1] - G[0, 0, 3]))
    raise ValueError("particle must be 1, 2 or 3")


def he_cross(t, tp):
    """<t| px . py |t'> — the recoil cross term of a finite-mass center.

    Zero (to round-off) whenever neither term depends on r12; asserted rather
    than assumed by the finite-mass scan.
    """
    a, b, c = t
    ap, bp, cp = tp
    G = _gtab_small(a + ap, b + bp, c + cp)
    xy = 0.5 * (G[2, 0, 1] + G[0, 2, 1] - G[0, 0, 3])
    xz = 0.5 * (G[0, 3, 0] - G[2, 1, 0] - G[0, 1, 2])
    yz = -0.5 * (G[3, 0, 0] - G[1, 2, 0] - G[1, 0, 2])
    return float(ap * b * xy + ap * c * xz - b * cp * yz - c * cp * G[1, 1, 1])


def _elements_ntv(u, v, z, invm):
    """(overlap, kinetic, potential) for one ordered term pair."""
    im0, im1, im2 = invm
    n = overlap3(u, v)
    tt = (0.5 * (im1 + im0) * kinetic3(1, u, v)
          + 0.5 * (im2 + im0) * kinetic3(2, u, v))
    if im0 != 0.0:
        tt += im0 * he_cross(u, v)
    vv = (-z * coulomb3("13", u, v) - z * coulomb3("23", u, v)
          + coulomb3("12", u, v))
    return n, tt, vv


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


def hughes_eckart_matrix(terms, spec, symmetrize=True):
    """Matrix of the px.py recoil operator over the same basis as natural_matblock.

    Used to *verify* (not assume) that the cross term has zero expectation on
    angle-independent wave functions.
    """
    groups = _exchange_groups(terms, spec.epsilon if symmetrize else None)
    return assemble(groups, lambda u, v: (he_cross(u, v),))[0]


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
    tot = 0.0
    for c, i, j, p, q in _rep_mul(ra, rb):
        if c == 0.0:
            continue
        G = g3_table(p, q, 0.0, (i + 1, j + 1, 1))
        tot += c * G[i + 1 - dx, j + 1 - dy, 1 - dz]
    return tot


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


def _un_pair(u, v, z, invm):
    """(n, t, v) for an ordered pair of plain (a,b,c) vector terms."""
    a, b, c = u
    ap, bp, cp = v
    G = _gtab_big(a + ap, b + bp, c + cp)
    n = _contract(_W2, G)
    n_abs = sum(abs(c0) * G[k[0] + 1, k[1] + 1, k[2] + 1]
                for k, c0 in _W2.items())
    if not n_abs < _CANCEL_CAP * abs(n):
        raise CancellationError(
            f"untrustworthy vector elements at combined exponents "
            f"({a + ap:.4g}, {b + bp:.4g}, {c + cp:.4g})")
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
