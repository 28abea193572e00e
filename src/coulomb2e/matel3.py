"""Closed-form three-body matrix elements.

All integrals over the two electron-center distances and the inter-electron
distance reduce to mixed partial derivatives of the generating function

    F3(alpha, beta, gamma) = 4 / ((alpha+beta)(beta+gamma)(gamma+alpha)),

where alpha goes with x = r2, beta with y = r1, gamma with z = r12 and the
integration domain is the triangle |x-y| <= z <= x+y with measure x*y*z dxdydz.
The constant angular factor 8*pi^2 is omitted everywhere: it cancels in every
Rayleigh quotient.  (With this normalization F3 itself carries a factor 2
relative to the bare triangle integral.)

With s1 = alpha+beta, s2 = beta+gamma, s3 = gamma+alpha the moments
G(i,j,k) = (-1)^(i+j+k) d^(i+j+k) F3 are, in closed form,

    4 i! j! k! sum C(i1+j1,i1) C(j2+k2,j2) C(k3+i3,k3)
               / (s1^(i1+j1+1) s2^(j2+k2+1) s3^(k3+i3+1))

over i1+i3 = i, j1+j2 = j, k2+k3 = k: every term is positive, so there is no
cancellation at any order.  A weight column sum w G(cell) (a polynomial
weight in x, y, z, as the 1+ sector's |x_vec cross y_vec|^2) is expanded the
same way, with like monomials merged exactly before any float is formed.
`_g3_cells` evaluates a fixed tuple of cells and weight columns for whole
arrays of argument triples (one inverse-power table of s, one matrix
product); each block assembler calls it once for all its term pairs.

Term convention: a 3-tuple (a, b, c) means exp(-a*x - b*y - c*z), i.e. `a` on
electron 2's distance, `b` on electron 1's, `c` on r12.  Electron exchange is
the swap (a,b,c) -> (b,a,c).  Element functions also take (P, 3) arrays of
terms and then return P-vectors.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial, sqrt

import numpy as np

from .model import MatBlock, UNNATURAL, assemble


@lru_cache(maxsize=64)   # a solve reuses one set; g3_table brings one per order
def _plan(cols):
    """(powers, exps, coef): col[..., c] = sum_m coef[m, c] prod_n s_n^-powers[n, m],
    with the inverse-power table of s_n built from the exponents `exps`.

    A column is a cell (i, j, k) or a weight polynomial ((cell, w), ...),
    i.e. sum w G(cell).  Like monomials merge exactly (integer coefficients
    times dyadic weights), before any float sum is evaluated.
    """
    acc = {}
    for c, col in enumerate(cols):
        for (i, j, k), w in (col if isinstance(col[0], tuple) else ((col, 1),)):
            if min(i, j, k) < 0:
                raise ValueError("moment orders must be non-negative")
            f = 4 * factorial(i) * factorial(j) * factorial(k) * w
            for i1, j1, k2 in product(range(i + 1), range(j + 1), range(k + 1)):
                i3, j2, k3 = i - i1, j - j1, k - k2
                mono = (i1 + j1 + 1, j2 + k2 + 1, k3 + i3 + 1)
                acc[mono, c] = acc.get((mono, c), 0) + f * (
                    comb(i1 + j1, i1) * comb(j2 + k2, j2) * comb(k3 + i3, k3))
    monos = {mono: m for m, mono in enumerate(sorted({mono for mono, _ in acc}))}
    coef = np.zeros((len(monos), len(cols)))
    for (mono, c), w in acc.items():
        coef[monos[mono], c] = w
    powers = np.array(list(monos), dtype=np.intp).reshape(-1, 3).T
    return powers, -np.arange(powers.max(initial=0) + 1.0), coef


# e + e.take(_NEXT, -1) is (s1, s2, s3); [..., _ROWS, powers] reads s_n^-powers[n]
_NEXT, _ROWS = np.array([1, 2, 0]), np.arange(3)[:, None]


def _g3_cells(e, cols):
    """Each column of the tuple `cols` (a cell or a weight polynomial, as in
    _plan) at the triples e[..., :] = (alpha, beta, gamma): (..., len(cols))."""
    s = e + e.take(_NEXT, -1)
    if (s <= 0).any():
        raise ValueError("f3 domain: every pair sum must be positive")
    powers, exps, coef = _plan(cols)
    inv = (s[..., None] ** exps)[..., _ROWS, powers]    # (..., 3, monomials)
    return (inv[..., 0, :] * inv[..., 1, :] * inv[..., 2, :]) @ coef


def g3_table(alpha, beta, gamma, omax):     # kept: perfbench probes and traces it
    """All G(i,j,k) for i,j,k <= omax at one argument triple."""
    if min(omax) < 0:
        raise ValueError("moment orders must be non-negative")
    sh = tuple(o + 1 for o in omax)
    return _g3_cells(np.array([alpha, beta, gamma], dtype=float),
                     tuple(np.ndindex(sh))).reshape(sh)


def _split(t):
    """Exponent columns (a, b, c) of one term (3,) or of stacked terms (P, 3)."""
    return np.asarray(t, dtype=float).T


# the cells the scalar-sector elements read: Coulomb (order 2), overlap and
# the kinetic and recoil brackets (order 3)
_NTV_CELLS = tuple(c for c in product(range(4), repeat=3) if 2 <= sum(c) <= 3)


# _elements_ntv's cells: overlap, Coulomb, the (particle 1, 2) kinetic bracket terms
_NTV_TAKE = np.array([_NTV_CELLS.index(tuple(map(int, c))) for c in
                      "111 101 011 110 300 030 120 210 102 012".split()])


def _elements_ntv(u, v, z, invm):
    """(overlap, kinetic, potential) for the ordered term pairs u, v.

    p^2 of the electron at y (gradient form; at x swap a, b and x, y) is
    (b b' + c c') G(1,1,1) - (b c' + b' c)/2 (G(3,0,0) - G(1,2,0) - G(1,0,2)),
    the bracket being the angular average of y^.z^ = (y^2+z^2-x^2)/(2yz); both
    electrons run as one (P, 2) stack.  A finite-mass center adds im0 times
    the recoil cross term <px.py>.  The tests' scalar `kinetic3` and
    `he_cross` write out the same expressions in the same order."""
    im0, im1, im2 = invm
    G = _g3_cells(u + v, _NTV_CELLS)
    g = G[:, _NTV_TAKE]
    g111, g101, g011, g110 = g[:, :4].T
    x, xp, c, cp = u[:, 1::-1], v[:, 1::-1], u[:, 2:], v[:, 2:]
    kin = ((x * xp + c * cp) * g111[:, None]
           - 0.5 * (x * cp + xp * c) * (g[:, 4:6] - g[:, 6:8] - g[:, 8:]))
    tt = 0.5 * (im1 + im0) * kin[:, 0] + 0.5 * (im2 + im0) * kin[:, 1]
    if im0 != 0.0:
        (a, b, c), (ap, bp, cp) = u.T, v.T
        (_, g003, _, g012, _, g021, g030, _, g102, _, _, g120, _,
         g201, g210, g300) = G.T
        tt = tt + im0 * (ap * b * (0.5 * (g201 + g021 - g003))
                         + ap * c * (0.5 * (g030 - g210 - g012))
                         - b * cp * (-0.5 * (g300 - g120 - g102)) - c * cp * g111)
    return g111, tt, -z * g101 - z * g011 + g110


def _exchange_groups(terms, epsilon):
    """One group per term: t + epsilon * (a<->b), or t alone for epsilon None."""
    tl = [tuple(t) for t in terms]
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


def shellmodel_ntv(a, b, z):
    """N, T, V of psi = 1s_a(r1) 2s_b(r2) - 2s_b(r1) 1s_a(r2), in closed form.

    The hydrogenic orbitals 1s_a = 2 a^1.5 e^(-a r) and 2s_b = b^1.5/sqrt(2)
    (1 - b r/2) e^(-b r/2) give, with w = 2a + b and r = sqrt(2) (ab)^1.5, the
    overlap S = 32 r (a - b) / w^4, the kinetic integrals t_aa = a^2/2,
    t_bb = b^2/8, t_ab = 4 r ab (4a - b) / w^4, the nuclear ones u_aa = a,
    u_bb = b/4, u_ab = 4 r (2a - b) / w^3, and the direct and exchange
    Coulomb integrals J, K below.  Then N = 8 (1 - S^2), T = 8 (t_aa + t_bb -
    2 S t_ab), V = 8 (-z (u_aa + u_bb - 2 S u_ab) + J - K), rational in a, b:
    2 is the pair's norm and 4 the G-moment convention of natural_matblock.
    """
    if a <= 0 or b <= 0:
        raise ValueError("shell-model ranges must be positive")
    w = 2.0 * a + b
    r = sqrt(2.0) * (a * b) ** 1.5
    s = 32.0 * r * (a - b) / w**4
    N = 8.0 * (1.0 - s * s)
    if abs(N) < 1e-12:
        raise ValueError("degenerate shell-model basis: orbitals proportional")
    t_ab = 4.0 * r * a * b * (4.0 * a - b) / w**4
    u_ab = 4.0 * r * (2.0 * a - b) / w**3
    J = a * b * (8 * a**4 + 20 * a**3 * b + 12 * a**2 * b**2 + 10 * a * b**3
                 + b**4) / w**5
    K = 16.0 * a**3 * b**3 * (20 * a * a - 30 * a * b + 13 * b * b) / w**7
    T = 8.0 * (0.5 * a * a + 0.125 * b * b - 2.0 * s * t_ab)
    V = 8.0 * (-z * (a + 0.25 * b - 2.0 * s * u_ab) + J - K)
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
# element is a weight column of _plan (total order <= 7 with the measure).

_W2 = {(4, 0, 0): -0.25, (0, 4, 0): -0.25, (0, 0, 4): -0.25,
       (2, 2, 0): 0.5, (2, 0, 2): 0.5, (0, 2, 2): 0.5}


def _wcol(q):
    """The _plan weight column of _W2 times the polynomial q in (x, y, z)."""
    out = {}
    for k1, c1 in _W2.items():
        for k2, c2 in q.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            out[k] = out.get(k, 0) + c1 * c2
    return tuple(out.items())


# The 1+ columns: the overlap weight with the x y z measure, the same
# divided by x, y or z, the radial weights 2x^2, 2y^2, 2z^2, and the angular
# brackets: the weight times y^.z^, x^.z^ or x^.y^ (by the law of cosines,
# e.g. y^.z^ xyz = x (y^2+z^2-x^2)/2).
# Merged, every monomial coefficient of the first seven is positive
# (|x_vec cross y_vec|^2 is Heron's (p+q+r)pqr/4 in perimetric coordinates),
# so those columns are sums of positive terms and cannot cancel.
_UN_COLS = (
    *(_wcol(q) for q in ({(1, 1, 1): 1}, {(0, 1, 1): 1}, {(1, 0, 1): 1},
                         {(1, 1, 0): 1})),
    (((3, 1, 1), 2),), (((1, 3, 1), 2),), (((1, 1, 3), 2),),
    *(_wcol(q) for q in ({(1, 2, 0): 0.5, (1, 0, 2): 0.5, (3, 0, 0): -0.5},
                         {(2, 1, 0): 0.5, (0, 1, 2): 0.5, (0, 3, 0): -0.5},
                         {(2, 0, 1): 0.5, (0, 2, 1): 0.5, (0, 0, 3): -0.5})))


def _un_pair(u, v, z, invm):
    """(n, t, v) for ordered pairs of plain (a,b,c) vector terms."""
    a, b, c = _split(u)
    ap, bp, cp = _split(v)
    n, wx, wy, wz, xx, yy, zz, yz, xz, xy = _g3_cells(
        np.add(u, v, dtype=float), _UN_COLS).T
    pot = -z * wx - z * wy + wz
    # p1^2 (particle at y): radial part 2x^2 replaces the |W|^2 weight
    k1 = (xx - (b + bp) * wy - (c + cp) * wz + (b * bp + c * cp) * n
          + (b * cp + bp * c) * yz)
    k2 = (yy - (a + ap) * wx - (c + cp) * wz + (a * ap + c * cp) * n
          + (a * cp + ap * c) * xz)
    im0, im1, im2 = invm
    t = 0.5 * (im1 + im0) * k1 + 0.5 * (im2 + im0) * k2
    if im0 != 0.0:
        k3 = (zz - (a + ap) * wx - (b + bp) * wy + (a * ap + b * bp) * n
              + (a * bp + ap * b) * xy)
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
