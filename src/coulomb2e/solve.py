"""Variational engine: scale reduction, simplex searches, generalized
eigensolves, and the stability scans.

Everything here optimizes Rayleigh quotients built from the closed-form
matrix elements.  Every eigensolve reduces the overlap the same way
(`_reduce`, canonical orthogonalization with a relative floor; one or two
terms on Python floats, `_reduce2`), so a printed energy, its coefficients
and its virial ratio come from one pencil.  For a scale-closed family the
optimal scale is analytic (one kept direction: the vertex of
lam^2 t + lam v; two: the stationary point of the virial condition where E
is certified to have one minimum, `_scale2`) or else a one-dimensional
bounded search over the lowest eigenvalue of the reduced lam^2 T + lam V,
so a search needs only the shape.  A one-parameter shape goes to
`_grid_min`: min-max, the critical charge and the mass scans (and the
frozen scan); the single correlated term fixes a = 1.
Every three-body simplex runs through `_search3`, which resolves the
sector's kernel (`matel3.kernel3`) before its first step, so an evaluation
runs the kernel, the reduction and the scale step; Table I's two-range
and shell-model searches walk t alone at a = 1 (`_shape_search`).  The N-term
bases and `scan_mass4` still walk raw ranges, the scale a flat direction
(ROADMAP item 4).

No scipy runs here: `_fminbound`, `_nelder_mead` and `_brentq` port
scipy's bounded Brent, Nelder-Mead and brentq step for step, to the bit.
The simplex runs on Python floats (numpy's per-call cost on 2- to 9-vectors
outweighed the arithmetic); it re-sorts by one insertion unless a shrink, a
tie or a NaN needs np.argsort's own order.  Table I's closed forms take
Python floats too (numpy scalars' bits), and an extreme shape's float
ZeroDivisionError or OverflowError is a refusal.
A symmetric 2 x 2 has one eigensolver, a Jacobi rotation on Python floats
(`_jacobi2`), for the overlap of two terms (`_reduce2`) and for each scale
step of a two-direction pencil (`_step2`), so a block of one or two terms
takes no LAPACK call.  The lowest eigenvalue of a three-direction pencil is
Smith's trigonometric formula and one Newton step on Python floats
(`_step3`), which declines to the gufunc near a degenerate lowest pair and
where a cube of the entries could over- or underflow.  `_reduce` masks the
overlap eigenvectors only when a direction drops.  From three terms on the
overlap goes to numpy's private eigh_lo (`_dsyevd`), and its eigvalsh_lo
steps the scale from four directions, for k >= 1 and on a declined step
(`_scale_step`): numpy < 3.
"""

import math
import operator
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
# private to numpy, hence the numpy < 3 cap; check both on each numpy major
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo, eigvalsh_lo as _eigvalsh_lo

from .model import (MatBlock, SystemSpec, TwoBodyThreshold, VariationalResult,
                    NATURAL, threshold_for, hminus_spec, ps2_spec)
from . import matel3, matel4

_BIG = 1e6


class NonConvergenceError(RuntimeError):
    """Raised when no restart of the simplex produced a finite optimum."""


class CancellationError(ValueError):
    """A vector-sector basis whose overlap is too ill-conditioned to trust.

    The 1+ matrix elements are accurate to round-off, but a nearly
    dependent basis amplifies their last bits into fake binding of order
    1e-5, exactly the scale of the physics; `_search3` refuses such a
    basis (`_UN_COND_CAP`) rather than return its energy.
    """


@dataclass(frozen=True)
class MinimizerConfig:
    max_iter: int = 10_000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "restarts"):
            if type(v := getattr(self, name)) is not int or v < 1:  # nor bool
                raise ValueError(f"{name} must be an int >= 1, got {v!r}")
        if type(self.seed) is not int or self.seed < 0:     # bool is no seed
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")


# ---------------------------------------------------------------------------
# core solvers


def virial_reduce(n, t, v):
    """Scale-optimized Rayleigh quotient -v^2/(4 n t) and the optimal scale.

    Valid for any trial family closed under rescaling; requires an attractive
    net potential, otherwise no bound scale exists.
    """
    if not v < 0:           # NaN too
        raise ValueError("virial reduction needs V < 0 (attractive regime)")
    if not (n > 0 and t > 0):
        raise ValueError("virial reduction needs N > 0 and T > 0")
    lam = -v / (2.0 * t)
    return -v * v / (4.0 * n * t), lam


def _scale_inf(n, t, v):
    """virial_reduce's energy, or 0 (the infimum) where V >= 0 binds no scale."""
    return virial_reduce(n, t, v)[0] if v < 0 else 0.0


def _no_convergence(*_):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _checked(e):
    return _no_convergence() if math.isnan(e) else e   # a failed dsyevd's NaN


def _dsyevd(gufunc, a, signature):
    """np.linalg.eigh or eigvalsh less its checks and casts, raising where it raises."""
    with np.errstate(call=_no_convergence, all="ignore", invalid="call"):
        return gufunc(a, signature=signature)


def _check_finite(N):
    if not np.isfinite(N).all():
        raise np.linalg.LinAlgError("overlap matrix is not finite")


def _jacobi2(a, b, d):
    """The Jacobi rotation of the symmetric 2 x 2 [[a, b], [b, d]] (the
    symmetric Schur step of Golub & Van Loan, Matrix Computations, section
    8.5): t = tan theta, |t| <= 1, and the eigenvalues a - t b, d + t b."""
    t = 0.0
    if b != 0.0:
        tau = (d - a) / (b + b)
        t = (1.0 / (tau + math.hypot(1.0, tau)) if tau >= 0.0
             else -1.0 / (math.hypot(1.0, tau) - tau))
    return t, a - t * b, d + t * b


def _reduce2(N, T, V, floor):
    """`_reduce` of a one- or two-term block on Python floats: N, T and V
    are nested lists (their lower triangles are read), and the kept columns
    of X, Tt, Vt and w come back as lists.

    A 2 x 2 overlap is diagonalized by one Jacobi rotation (`_jacobi2`);
    the floor, the order of w and the non-finite overlap check are `_reduce`'s.
    A non-finite T or V entry with a direction kept raises LinAlgError
    (here for two terms, in `_vertex` for one).
    """
    if len(N) == 1:
        (w0,), = N
        if not w0 > floor * max(w0, 1e-300):      # NaN drops too
            _check_finite(N)
            return [], [], [], [w0]
        x = 1.0 / math.sqrt(w0)
        return [(x,)], [[T[0][0] * x * x]], [[V[0][0] * x * x]], [w0]
    (a, _), (b, d) = N
    t, *w = _jacobi2(a, b, d)
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    U = [(c, -s), (s, c)]
    if w[1] < w[0]:
        w.reverse()
        U.reverse()
    cut = floor * max(w[1], 1e-300)     # max keeps a NaN w[1]
    cols = [(x0 / r, x1 / r) for (x0, x1), wi in zip(U, w) if wi > cut
            for r in (math.sqrt(wi),)]
    (t0, _), (t1, t2) = T
    (v0, _), (v1, v2) = V
    if cols and not all(map(math.isfinite, (t0, t1, t2, v0, v1, v2))):
        raise np.linalg.LinAlgError("kinetic or potential matrix is not finite")
    # x^T M y = p m0 + q m1 + r m2 with (p, q, r) = (x0 y0, x0 y1 + x1 y0, x1 y1)
    if len(cols) < 2:
        _check_finite(N)
        pqr = [(x0 * x0, x0 * x1 + x1 * x0, x1 * x1) for x0, x1 in cols]
        return (cols, [[p * t0 + q * t1 + r * t2] for p, q, r in pqr],
                [[p * v0 + q * v1 + r * v2] for p, q, r in pqr], w)
    (x0, x1), (y0, y1) = cols
    p0, q0, r0 = x0 * x0, x0 * x1 + x1 * x0, x1 * x1
    p1, q1, r1 = x0 * y0, x0 * y1 + x1 * y0, x1 * y1
    p2, q2, r2 = y0 * y0, y0 * y1 + y1 * y0, y1 * y1
    tb, vb = p1 * t0 + q1 * t1 + r1 * t2, p1 * v0 + q1 * v1 + r1 * v2
    return (cols, [[p0 * t0 + q0 * t1 + r0 * t2, tb], [tb, p2 * t0 + q2 * t1 + r2 * t2]],
            [[p0 * v0 + q0 * v1 + r0 * v2, vb], [vb, p2 * v0 + q2 * v1 + r2 * v2]], w)


def _floats(block):
    """The block's N, T and V as float arrays."""
    return [np.asarray(m, dtype=float) for m in (block.n_mat, block.t_mat, block.v_mat)]


def _reduce(block: MatBlock, floor):
    """Canonical orthogonalization of the overlap: X, X^T T X, X^T V X, w.

    w holds the overlap's eigenvalues, ascending; X spans its eigendirections
    above floor times the largest, scaled so that X^T N X = 1.  A non-finite
    overlap raises LinAlgError: dsyevd does not always flag it, and its NaN
    eigenvalues fall below any floor, so it is checked once a direction
    drops out.  One or two terms go through `_reduce2` (Python floats, no
    LAPACK), so a printed coefficient comes from the scale search's pencil;
    three or more through dsyevd and matmuls.
    """
    N, T, V = _floats(block)
    if len(N) <= 2:
        cols, Tt, Vt, w = _reduce2(N.tolist(), T.tolist(), V.tolist(), floor)
        m = len(Tt)
        return (np.array(cols).reshape(m, len(N)).T, np.array(Tt).reshape(m, m),
                np.array(Vt).reshape(m, m), np.array(w))
    w, U = _dsyevd(_eigh_lo, N, "d->dd")
    cut = floor * max(w[-1], 1e-300)
    if w.min() > cut:              # every direction kept (min propagates NaN)
        X = U / np.sqrt(w)
    else:
        keep = w > cut
        X = U[:, keep] / np.sqrt(w[keep])
        _check_finite(N)
    return X, X.T @ T @ X, X.T @ V @ X, w


def _check_floor(floor):
    if not 0.0 <= floor < 1.0:          # NaN too
        raise ValueError(f"floor must lie in [0, 1), got {floor!r}")


def _reduced(N, T, V, floor):
    """`_reduce`'s (Tt, Vt, w) of the float matrices N, T, V, for one or two
    terms as `_reduce2`'s lists."""
    if len(N) <= 2:
        return _reduce2(N.tolist(), T.tolist(), V.tolist(), floor)[1:]
    return _reduce(MatBlock(N, T, V), floor)[1:]


def gen_eig(block: MatBlock, floor=1e-12):
    """All eigenpairs of (T+V) c = E N c, eigenvalues ascending.

    The overlap is reduced by `_reduce`: directions below the relative floor
    are projected out, not dropped by term, so a near-collinear basis yields
    fewer eigenpairs, and each coefficient column c = X y lies in the kept
    subspace with c^T N c = 1.  A floor outside [0, 1) raises ValueError.
    """
    _check_floor(floor)
    X, Tt, Vt, _ = _reduce(block, floor)
    w, y = _dsyevd(_eigh_lo, Tt + Vt, "d->dd")
    return w, X @ y


# scipy's default cap on the evaluations of a bounded scalar search
_FMIN_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(f, a, b, xatol):
    """Local minimum of f on [a, b] by Brent's bounded search.

    A step-for-step port of scipy.optimize.minimize_scalar(method="bounded")
    on Python floats, so it visits the same points and returns the same
    (x, f(x), evaluations); it only sheds scipy's per-step numpy scalar and
    result-object overhead.  Golden-section steps mixed with parabolic
    interpolation (Brent, Algorithms for Minimization without Derivatives,
    1973), at most _FMIN_MAXFUN evaluations.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    third = xatol / 3.0
    tol1 = _SQRT_EPS * abs(xf) + third
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:       # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q          # |q|: a zero's sign moves no comparison
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + max(rat, tol1) if rat >= 0 else xf - max(-rat, tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + third
        tol2 = 2.0 * tol1
        if num >= _FMIN_MAXFUN:
            break
    return xf, fx, num


def _grid_min(f, grid):
    """Lowest minimum of f over a sorted grid's span: (x, f(x), grid values).

    `_fminbound` refines the two cells around every grid-local minimum, the
    edges included, not just the best one: near the two-range critical
    charge the t -> 0 valley and the interior minimum lie a cell apart.
    """
    grid = [float(x) for x in grid]
    fs, last = [f(x) for x in grid], len(grid) - 1
    lows = [i for i in range(last + 1) if (i == 0 or fs[i] < fs[i - 1])
            and (i == last or fs[i] <= fs[i + 1])]
    x, fx, _ = min((_fminbound(f, grid[max(i - 1, 0)], grid[min(i + 1, last)],
                               1e-10) for i in lows), key=lambda r: r[1])
    return x, fx, fs


def _lower2(Tt, Vt):
    """The lower triangles (t0, t1, t2, v0, v1, v2) of a 2 x 2 pencil as floats."""
    ((t0, _), (t1, t2)), ((v0, _), (v1, v2)) = Tt, Vt
    return [float(x) for x in (t0, t1, t2, v0, v1, v2)]


def _scale_step(Tt, Vt, k):
    """lam -> the k-th eigenvalue of lam^2 Tt + lam Vt (see scaled_lowest)
    for three or more directions: the gufunc (NaN raises LinAlgError)."""
    return lambda lam: _checked(float(
        _eigvalsh_lo(lam * lam * Tt + lam * Vt, signature="d->d")[k]))


def _step2(t0, t1, t2, v0, v1, v2, k):
    """lam -> the k-th eigenvalue of the 2 x 2 pencil lam^2 T + lam V with
    lower triangles (t0, t1, t2) and (v0, v1, v2): `_jacobi2` on Python
    floats, LinAlgError unless both eigenvalues are finite."""
    low = k == 0

    def step2(lam):
        l2 = lam * lam
        _, e0, e1 = _jacobi2(l2 * t0 + lam * v0, l2 * t1 + lam * v1, l2 * t2 + lam * v2)
        if not (math.isfinite(e0) and math.isfinite(e1)):
            raise np.linalg.LinAlgError("scale pencil is not finite")
        return e1 if (e1 < e0) == low else e0

    return step2


def _step3(Tt, Vt):
    """lam -> the lowest eigenvalue of the 3 x 3 pencil lam^2 Tt + lam Vt on
    Python floats, or the gufunc's (`_scale_step`) where it declines.

    Smith's trigonometric formula (Commun. ACM 4, 168 (1961)) gives x from
    q = tr A / 3, p^2 = |A - q|_F^2 / 6 and the angle of det((A - q) / p) / 2;
    one Newton step on det(A - x I) polishes it, h = det C / s with
    C = A - x I and s the sum of C's principal 2 x 2 minors.  The step
    declines unless its error estimate, (4 |tr C| h^2 + 6 eps |c00 c11 c22|)
    / s, is at most 8 eps (|q| + p): the first term is the Newton step's
    quadratic one (up to 4 times low at a double root), the second bounds
    the determinant's rounding (6 |c00 c11 c22| bounds its products for
    C >= 0), and both grow as s shrinks near a degenerate lowest pair.  It
    declines as well where |A|_F^2 / 3 lies outside 2^+-600 or A is
    within 2^-340 of q times the identity, where a cube could over- or
    underflow; elsewhere the arithmetic is homogeneous, so a pencil times
    2^j steps to the step times 2^j exactly.  Sums are written out, not
    sum()'s compensated ones.
    """
    gufunc = _scale_step(Tt, Vt, 0)
    (t0, _, _), (t1, t2, _), (t3, t4, t5) = Tt.tolist()
    (v0, _, _), (v1, v2, _), (v3, v4, v5) = Vt.tolist()
    sqrt, cos, acos = math.sqrt, math.cos, math.acos
    third, eps = 2.0 * math.pi / 3.0, 2.0 ** -52

    def step3(lam):
        l2 = lam * lam
        a, b, d = l2 * t0 + lam * v0, l2 * t1 + lam * v1, l2 * t2 + lam * v2
        c, e, f = l2 * t3 + lam * v3, l2 * t4 + lam * v4, l2 * t5 + lam * v5
        q = (a + d + f) / 3.0
        a0, d0, f0 = a - q, d - q, f - q
        p2 = (a0 * a0 + d0 * d0 + f0 * f0 + 2.0 * (b * b + c * c + e * e)) / 6.0
        if 2.0 ** -600 < q * q + p2 + p2 < 2.0 ** 600 and p2 > 2.0 ** -680:  # NaN fails
            p = sqrt(p2)
            r = ((a0 * (d0 * f0 - e * e) - b * (b * f0 - e * c) + c * (b * e - d0 * c))
                 / (2.0 * p2 * p))
            x = q + 2.0 * p * cos(acos(-1.0 if r < -1.0 else 1.0 if r > 1.0 else r) / 3.0 + third)
            c0, c1, c2 = a - x, d - x, f - x
            c12, ee = c1 * c2, e * e
            s = c12 - ee + c0 * c2 - c * c + c0 * c1 - b * b
            if s > 0.0:
                h = (c0 * (c12 - ee) - b * (b * c2 - e * c) + c * (b * e - c1 * c)) / s
                if (4.0 * abs(c0 + c1 + c2) * h * h + 6.0 * eps * abs(c0 * c12)
                        <= 8.0 * eps * s * (abs(q) + p)):
                    return x + h
        return gufunc(lam)

    return step3


def _vertex(t, v, bounds):
    """min of lam^2 t + lam v over lam in bounds: (E, lam), the vertex
    -v / (2 t) clipped to bounds when t > 0, else the lower edge value."""
    if not (math.isfinite(t) and math.isfinite(v)):
        raise np.linalg.LinAlgError("scale pencil is not finite")
    lo, hi = bounds
    if t > 0.0:
        lam = min(max(-v / (2.0 * t), lo), hi)
        return lam * lam * t + lam * v, lam
    return min((lam * lam * t + lam * v, lam) for lam in (lo, hi))


# phi = j pi / 4, j = 0..8, as (cos phi, sin phi, cos 2 phi, sin 2 phi, phi)
_SCAN = [(math.cos(x), math.sin(x), math.cos(x + x), math.sin(x + x), x)
         for x in (j * math.pi / 4.0 for j in range(9))]


def _scale2(t0, t1, t2, v0, v1, v2, lo, hi):
    """The scale in (lo, hi) of the one local minimum of E(lam), the lowest
    eigenvalue of lam^2 T + lam V (lower triangles (t0, t1, t2), (v0, v1,
    v2)), or None unless E is certified to have only that one.

    With the eigenvector (cos theta, sin theta) and phi = 2 theta, t(phi) =
    p + c cos phi + d sin phi and v(phi) = P + a cos phi + b sin phi; at each
    phi the best scale is -v / (2 t), so the minima of E on (0, inf) are the
    minima of w = v / sqrt(t) where v < 0 (the virial theorem, 2T = -V).
    w' has the sign of D(phi) = c0 + a1 cos phi + b1 sin phi + a2 cos 2phi
    + b2 sin 2phi, whose two or four zeros bound one or two minima.  Two
    zeros are certified when the first harmonic dominates (D is then
    monotone on the two arcs where it can vanish), or when the quartic of D
    in u = tan(phi / 2) has a clearly negative discriminant (4 I^3 - J^2 in
    its invariants I and J) and a scan of D brackets two sign changes.  Safe-
    guarded Newton steps polish the rising zero to |dphi| <= 1e-6 (E is
    quadratic in the error).  Sums are written out, not sum()'s compensated
    ones.  The entries are first divided by a power of two near the sum of
    their magnitudes, exactly, so a pencil times 2^k gets the same answer.
    None also for T not positive definite, v >= 0, lam not strictly inside
    and a non-finite or overflowing sum of magnitudes.
    """
    m = abs(t0) + abs(t1) + abs(t2) + abs(v0) + abs(v1) + abs(v2)
    if not math.isfinite(m):
        return None
    g = math.ldexp(1.0, -math.frexp(m)[1])
    t0, t1, t2, v0, v1, v2 = t0 * g, t1 * g, t2 * g, v0 * g, v1 * g, v2 * g
    p, c, d = 0.5 * (t0 + t2), 0.5 * (t0 - t2), t1
    P, a, b = 0.5 * (v0 + v2), 0.5 * (v0 - v2), v1
    if not p > math.hypot(c, d):
        return None
    c0, a1, b1 = 1.5 * (b * c - a * d), 2.0 * b * p - P * d, P * c - 2.0 * a * p
    a2, b2 = 0.5 * (b * c + a * d), 0.5 * (b * d - a * c)
    B = math.hypot(a2, b2)
    K, r2 = abs(c0) + B, a1 * a1 + b1 * b1
    if r2 > K * K + 4.0 * B * B:        # |D - first harmonic| <= K: two arcs
        l = math.atan2(b1, a1) - math.pi    # D(l) <= 0 <= D(l + pi), one zero
        h = l + math.pi
    else:
        q4, q3, q2 = c0 - a1 + a2, 2.0 * b1 - 4.0 * b2, 2.0 * c0 - 6.0 * a2
        q1, q0 = 2.0 * b1 + 4.0 * b2, c0 + a1 + a2
        i = 12.0 * q4 * q0 - 3.0 * q3 * q1 + q2 * q2
        j = (72.0 * q4 * q2 * q0 + 9.0 * q3 * q2 * q1
             - 27.0 * (q4 * q1 * q1 + q0 * q3 * q3) - 2.0 * q2 * q2 * q2)
        im = 12.0 * abs(q4 * q0) + 3.0 * abs(q3 * q1) + q2 * q2     # the terms' magnitudes
        jm = (72.0 * abs(q4 * q2 * q0) + 9.0 * abs(q3 * q2 * q1)
              + 27.0 * (abs(q4) * q1 * q1 + abs(q0) * q3 * q3) + 2.0 * abs(q2 * q2 * q2))
        if not 4.0 * i * i * i - j * j < -1e-9 * (4.0 * im * im * im + jm * jm):
            return None
        fs = [(c0 + a1 * co + b1 * s + a2 * co2 + b2 * s2, x) for co, s, co2, s2, x in _SCAN]
        cells = [(f0 < 0.0, x0, x1) for (f0, x0), (f1, x1) in zip(fs, fs[1:])
                 if (f0 < 0.0) != (f1 < 0.0)]
        if len(cells) != 2:
            return None
        _, l, h = max(cells)            # the cell where D rises through 0
    x = 0.5 * (l + h)
    for _ in range(50):
        co, s = math.cos(x), math.sin(x)
        co2, s2 = co * co - s * s, 2.0 * co * s
        f = c0 + a1 * co + b1 * s + a2 * co2 + b2 * s2
        if f < 0.0:
            l = x
        else:
            h = x
        df = b1 * co - a1 * s + 2.0 * (b2 * co2 - a2 * s2)
        dx = f / df if df else math.inf
        if not l <= x - dx <= h:        # NaN too: bisect
            x = 0.5 * (l + h)
            continue
        x -= dx
        if abs(dx) <= 1e-6:
            break
    else:
        return None
    co, s = math.cos(x), math.sin(x)
    v = P + a * co + b * s
    lam = -v / (2.0 * (p + c * co + d * s))
    return lam if v < 0.0 and lo < lam < hi else None


def scaled_lowest(block: MatBlock, k=0, floor=1e-12, bounds=(0.05, 50.0)):
    """k-th eigenvalue minimized over the overall scale of the basis.

    The overlap is reduced by `_reduce` first (one or two terms in Python
    floats, `_reduce2`), which keeps the search robust when the simplex
    wanders into near-collinear bases; (_BIG, 1.0) when fewer than k + 1
    directions survive the floor.  A three-body search's objective
    (`_search3`) runs this reduction and scale step on the matrices of
    `matel3.kernel3`, which builds the sector's block, to the same bits.

    One kept direction is the parabola lam^2 t + lam v: its vertex, clipped
    to bounds (`_vertex`).  Two with k = 0 take the closed-form scale of
    `_scale2` where it certifies that E has one local minimum inside the
    bounds, and return the one step there.  Every other pencil goes to a
    local bounded Brent search.  E(lam), the k-th eigenvalue of
    lam^2 T + lam V, is a minimum of parabolas and need not be convex, so on
    some blocks the search stops in a local minimum above the global one;
    `_scale2` declines every such block, so Brent keeps its basin.  The
    curated starts and the printed energies were tuned with this search,
    and a global reduction steers the simplex of the N = 2 H- solve into an
    ill-conditioned basin that ends above the Table II value (ROADMAP item
    5).  A step of two directions is `_jacobi2`'s rotation on Python floats
    (`_step2`), as close to the exact eigenvalues as LAPACK's (within 2 eps
    max|entry|) and the same on every LAPACK build.  The lowest of three
    (`_step3`) is Smith's trigonometric formula and one Newton step, also on
    Python floats: over 100 000 seeded matrices and their corners its
    largest error where it did not decline was 2.13 eps max|entry|, the
    gufunc's on the same matrices 8.34; near a degenerate lowest pair and
    where a cube of the entries could over- or underflow it declines to the
    gufunc.  So LAPACK steps the scale only from four directions, for k >= 1
    and on a declined step (`_scale_step`: the gufunc behind
    np.linalg.eigvalsh, its values to the bit).  A non-finite step or a
    failed dsyevd (NaN) raises LinAlgError; a k that is not an int >= 0, a
    floor outside [0, 1) and bounds other than 0 < lo < hi < inf raise
    ValueError.
    """
    if type(k) is not int or k < 0:         # bool is no k
        raise ValueError(f"k must be an int >= 0, got {k!r}")
    _check_floor(floor)
    lo, hi = bounds
    if not 0.0 < lo < hi < math.inf:        # NaN too
        raise ValueError(f"bounds must satisfy 0 < lo < hi < inf, got {bounds!r}")
    return _lowest_over_scale(*_reduced(*_floats(block), floor)[:2], k, bounds)


def _lowest_over_scale(Tt, Vt, k, bounds=(0.05, 50.0)):
    """`scaled_lowest` on a reduced pencil (`_reduced`'s Tt, Vt)."""
    m = len(Tt)
    if m <= k:
        return _BIG, 1.0
    if m == 1:
        return _vertex(float(Tt[0][0]), float(Vt[0][0]), bounds)
    if m == 2:
        pencil = _lower2(Tt, Vt)
        step = _step2(*pencil, k)
        lam = _scale2(*pencil, *bounds) if k == 0 else None
        if lam is not None:
            return step(lam), lam
        lam, e, _ = _fminbound(step, bounds[0], bounds[1], 1e-12)
        return e, lam
    step = _step3(Tt, Vt) if m == 3 and k == 0 else _scale_step(Tt, Vt, k)
    with np.errstate(invalid="ignore"):    # the NaN check reports instead
        lam, e, _ = _fminbound(step, bounds[0], bounds[1], 1e-12)
    return e, lam


class _Spent(Exception):
    """The simplex's evaluation budget ran out."""


def _nelder_mead(f, x0, maxfev, xatol, fatol):
    """Nelder-Mead simplex from x0: (x, f(x), evaluations, converged).

    A step-for-step port of scipy.optimize.minimize(method="Nelder-Mead")
    with scipy's defaults and maxiter = maxfev (an iteration costs an
    evaluation, so that cap never binds first and is left out), down to a
    budget that stops an iteration between evaluations.  Vertices are lists
    of Python floats, each step numpy's expression in the same order (the
    centroid adds rows in turn as np.add.reduce does, never by sum(), which
    compensates from Python 3.12 on).  A step other than a shrink moves only
    the last vertex: while the other n stay strictly increasing in f and the
    new value falls strictly between its neighbours (NaN never does), one
    `bisect` insertion gives np.argsort's order, the only one.  A shrink, a
    tie (+-0.0 too) or a NaN sorts all n + 1, np.argsort ordering ties and
    NaN.  |f_0 - f_n| <= fatol, necessary for scipy's f test, goes first.
    """
    n, nfev = len(x0), 0

    def fc(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return float(f(np.array(x)))

    def ordered(sim, fsim):
        ind = sorted(range(n + 1), key=fsim.__getitem__)
        if not all(fsim[i] < fsim[j] for i, j in zip(ind, ind[1:])):
            ind = np.argsort(fsim).tolist()    # a tie or a NaN
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    x0 = np.asarray(x0, dtype=float).tolist()
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [math.inf] * (n + 1)
    with suppress(_Spent):
        for k in range(n + 1):
            fsim[k] = fc(sim[k])
    # scipy orders the first simplex twice; an unstable argsort may swap ties
    sim, fsim = ordered(*ordered(sim, fsim))
    while nfev < maxfev and not (
            abs(fsim[0] - fsim[-1]) <= fatol        # cheap and necessary: first
            and all(abs(a - b) <= xatol for s in sim[1:] for a, b in zip(s, sim[0]))
            and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])):
        shrink = False
        with suppress(_Spent):
            xbar = sim[0]
            for s in sim[1:-1]:
                xbar = list(map(operator.add, xbar, s))
            xbar = [a / n for a in xbar]
            w = sim[-1]
            xr = [2 * a - b for a, b in zip(xbar, w)]
            fxr = fc(xr)
            if fxr < fsim[0]:
                xe = [3 * a - 2 * b for a, b in zip(xbar, w)]
                fxe = fc(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # outside contraction
                    xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, w)]
                    fxc = fc(xc)
                    keep = fxc <= fxr
                else:                   # inside contraction
                    xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, w)]
                    fxc = fc(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:                   # shrink toward the best vertex
                    shrink = True
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(sim[0], sim[j])]
                        fsim[j] = fc(sim[j])
        fx = fsim[-1]                   # without a shrink only it moved
        i = bisect_left(fsim, fx, 0, n)
        if shrink or not (i == n or fx < fsim[i]) or not all(
                map(operator.lt, fsim[:n - 1], fsim[1:n])):
            sim, fsim = ordered(sim, fsim)      # a shrink, a tie or a NaN
        elif i < n:
            sim.insert(i, sim.pop())
            fsim.insert(i, fsim.pop())
    return np.array(sim[0]), np.min(fsim), nfev, nfev < maxfev


# refusal counter per ValueError subclass, most specific first
_REFUSALS = ((CancellationError, "refused_cancellation"),
             (np.linalg.LinAlgError, "refused_linalg"),
             (ValueError, "refused_value"))


def minimize_nm(objective, x0, config: MinimizerConfig):
    """Best-of-restarts Nelder-Mead; deterministic given config.seed.

    Returns (params, value, info).  An objective refuses a point by
    returning _BIG or by raising ValueError (CancellationError from the 1+
    overlap-condition cap, numpy.linalg.LinAlgError, the closed forms'
    domain errors); both read as _BIG to the simplex, and any other
    exception is a bug and propagates.  info: `nfev`, whether the best
    restart `converged`, and the refusals of all restarts: `refused_domain`
    (any _BIG return, the overlap floor's included), `refused_cancellation`
    (the 1+ condition cap), `refused_linalg`, `refused_value`.
    NonConvergenceError: no restart got below _BIG / 2.  ValueError, before
    any evaluation: an x0 entry that is not finite.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError(f"the simplex start must be finite, got {x0.tolist()}")
    scale = np.maximum(np.abs(x0), 0.1)
    info = dict.fromkeys(["refused_domain"] + [k for _, k in _REFUSALS], 0)

    def guarded(x):
        try:
            e = objective(x)
        except ValueError as exc:
            info[next(k for cls, k in _REFUSALS if isinstance(exc, cls))] += 1
            return _BIG
        if e == _BIG:
            info["refused_domain"] += 1
        return e

    starts = [x0]
    if config.restarts > 1:     # only then is numpy.random imported
        rng = np.random.default_rng(config.seed)
        starts += [x0 + 0.05 * scale * rng.standard_normal(x0.shape)
                   for _ in range(config.restarts - 1)]
    runs = [_nelder_mead(guarded, s, config.max_iter, 1e-8, 1e-10) for s in starts]
    best = min(runs, key=lambda r: r[1])     # the first of equal values
    if not np.isfinite(best[1]) or best[1] >= _BIG / 2:
        raise NonConvergenceError("no simplex restart reached a feasible optimum")
    return best[0], float(best[1]), {"nfev": sum(r[2] for r in runs),
                                     "converged": bool(best[3]), **info}


# ---------------------------------------------------------------------------
# three-body optimization


def _valid3(terms, min_sum):
    return all(a + b > min_sum and b + c > min_sum and c + a > min_sum
               for a, b, c in np.asarray(terms, dtype=float).tolist())


# Vector-sector bases whose overlap condition number exceeds this cap are
# refused.  In exact arithmetic a nearly dependent basis is harmless; in
# floats it amplifies the last bits of the elements into fake binding at the
# 1e-5 scale of the physics.  Free searches (seed 0, 3 x 4000 evaluations)
# with the cap at 1e10, 1e12 or none stayed above -0.125355451 (1+ H-) and
# -0.0625 (1+ Ps-), but without it the Ps- searches end 2e-14 to 4e-14
# above -0.0625, so the cap stays until that margin is shown to be safe.
_UN_COND_CAP = 1e8


def _search3(spec, x0, config, k=0, unpack=lambda x: x.reshape(-1, 3)):
    """Simplex search of the k-th state of a three-body basis from x0.

    `unpack` maps a simplex point (an array) to basis terms, by default its
    (n, 3) view; terms with a pair sum at or below the sector's floor (1e-3
    natural, 1e-6 vector) are refused.  The sector's kernel is resolved
    once, so an evaluation is `matel3.kernel3`'s block, its reduction, the
    1+ overlap-condition cap (`_UN_COND_CAP`) and the scale step: the bits
    of `scaled_lowest` of the sector's block.  Returns minimize_nm's triple.
    """
    natural = spec.sector == NATURAL
    min_sum = 1e-3 if natural else 1e-6
    kernel = matel3.kernel3(len(unpack(np.asarray(x0, dtype=float))), spec)

    def obj(x):
        terms = unpack(x)
        if not _valid3(terms, min_sum):
            return _BIG
        N, T, V = kernel(np.ravel(terms))
        Tt, Vt, w = _reduced(N, T, V, 1e-12)
        if not natural and (w[0] <= 0 or w[-1] > _UN_COND_CAP * w[0]):
            _check_finite(N)      # NaN can leave finite eigenvalues
            raise CancellationError("vector-sector overlap too ill-conditioned to trust")
        return _lowest_over_scale(Tt, Vt, k)[0]

    return minimize_nm(obj, x0, config)


# Curated starting points for the multi-term searches (found once by wider
# searches; kept fixed for determinism).  Keyed by (z, epsilon, n_terms, k).
_NAT_SEEDS = {
    (1.0, +1, 1, 0): [(1.07, 0.45, 0.05)],
    (1.0, +1, 2, 0): [(1.07, 0.45, 0.05), (0.6, 0.3, 0.02)],
    (1.0, +1, 3, 0): [(1.07, 0.45, 0.05), (0.8, 0.35, 0.02), (0.5, 0.25, 0.01)],
    (2.0, +1, 1, 0): [(2.2, 1.6, 0.1)],
    (2.0, +1, 2, 0): [(2.2, 1.6, 0.1), (1.4, 2.4, 0.3)],
    (2.0, +1, 3, 0): [(2.2, 1.6, 0.1), (1.4, 2.4, 0.3), (1.9, 1.0, 0.05)],
    (2.0, -1, 1, 0): [(2.0, 0.55, 0.02)],
    (2.0, -1, 2, 0): [(2.0, 0.55, 0.02), (1.8, 0.4, 0.01)],
    (2.0, +1, 2, 1): [(2.2, 1.6, 0.1), (2.0, 0.5, 0.02)],
}
# larger bases start from the optimized smaller basis plus one fresh term
_NAT_EXTEND = {
    (2.0, -1, 3, 0): ((2.0, -1, 2, 0), (1.5, 0.3, 0.0)),
    (2.0, +1, 3, 1): ((2.0, +1, 2, 1), (1.6, 0.4, 0.05)),
}


def _nat_seed(z, eps, n, k, config):
    """The natural search's seeds and the info of the search that made them
    ({} unless they extend the optimized curated basis of `_NAT_EXTEND`)."""
    key = (float(z), eps, n, k)
    if key in _NAT_SEEDS:
        return _NAT_SEEDS[key], {}
    if key in _NAT_EXTEND:
        base_key, extra = _NAT_EXTEND[key]
        x, _, info = _search3(hminus_spec(z=z, epsilon=eps),
                              np.ravel(_NAT_SEEDS[base_key]), config, k=base_key[3])
        return np.append(x, extra), info
    # generic fallback: hydrogenic scale with a diffuse partner
    base = [(1.05 * z, 0.45 * z, 0.05 * z)]
    for i in range(1, n):
        f = 0.7 ** i
        base.append((1.05 * z * f, 0.45 * z * f, 0.02 * z * f))
    return base, {}


# Curated multi-term vector-sector starts (infinite central mass, Z=1);
# found once by wide searches over guarded evaluations.  Both electrons sit
# in 2p-like orbitals (the vector prefactor supplies the angular momentum),
# so the ranges cluster around the one-electron 2p scale with a weak
# in-out radial split.
_UN_SEEDS = {
    (1.0, (0.0, 1.0, 1.0), 2): [(0.50, 0.22, -0.03), (0.19, 0.43, 0.08)],
    (1.0, (0.0, 1.0, 1.0), 3): [(0.566, 0.880, -0.063), (0.953, 0.176, -0.014),
                                (0.574, 0.805, 0.010)],
    (1.0, (0.0, 1.0, 1.0), 4): [(0.566, 0.880, -0.063), (0.953, 0.176, -0.014),
                                (0.574, 0.805, 0.010), (0.45, 0.45, -0.02)],
}


def _un_seed(spec, n):
    key = (float(spec.z_central), tuple(spec.inv_masses), n)
    if key in _UN_SEEDS:
        return _UN_SEEDS[key]
    # generic: 2p-like ranges spread by a short progression; the simplex
    # then releases every range individually
    s = 2.0 * threshold_for(spec).mu * spec.z_central
    return [(0.5 * s, i * (0.2 * s), -0.03 * s) for i in range(1, n + 1)]


def optimize_ion(spec: SystemSpec, n_terms: int, config: MinimizerConfig,
                 k: int = 0) -> VariationalResult:
    """Best variational energy of a three-body spec with an n-term basis.

    Single terms are shaped by the simplex directly.  Multi-term bases
    polish all 3n ranges from curated seeds (vector-sector seeds come from a
    short arithmetic progression when no curated set exists).  The vector
    sector's elements do not cancel, but a basis past the overlap condition
    cap (`_UN_COND_CAP`) is refused: the free simplex otherwise mines float
    noise near degenerate bases for fake binding at the 1e-5 level.
    """
    if spec.is_four_body:
        raise ValueError("optimize_ion needs a three-body spec")
    if type(n_terms) is not int or not 1 <= n_terms <= 8:
        raise ValueError(f"n_terms must be an int in [1, 8], got {n_terms!r}")
    if type(k) is not int or not 0 <= k < n_terms:
        raise ValueError(f"k must be an int in [0, n_terms), got {k!r}")
    thr = threshold_for(spec)
    natural = spec.sector == NATURAL
    seeds, spent = (_nat_seed(spec.z_central, spec.epsilon, n_terms, k, config)
                    if natural else (_un_seed(spec, n_terms), {}))
    x, e, info = _search3(spec, np.ravel(seeds), config, k)
    # the seed extension's evaluations and refusals count; `converged` is this search's
    info.update({key: info[key] + v for key, v in spent.items() if key != "converged"})
    terms = x.reshape(-1, 3)
    block = (matel3.natural_matblock if natural else matel3.unnatural_matblock)(terms, spec)
    _, lam = scaled_lowest(block, k=k)
    c, vr = _state_at_scale(block, lam, k)
    margin, stable = thr.verdict(e, spec.sector)
    return VariationalResult(
        energy=e, params=terms.tolist(), coeffs=list(c),
        virial_ratio=vr, threshold=thr, margin=margin, stable=stable,
        sector=spec.sector, meta={"k": k, "n_terms": n_terms, "scale": lam, **info})


def _state_at_scale(block, lam, k=0, floor=1e-12):
    """Coefficients of the k-th state at scale lam and their virial ratio.

    The eigenvector of the pencil that scaled_lowest reduces with the same
    floor; zeros and nan when fewer than k + 1 overlap directions survive.
    """
    w, cvec = gen_eig(MatBlock(block.n_mat, lam * lam * np.asarray(block.t_mat),
                               lam * np.asarray(block.v_mat)), floor)
    if len(w) <= k:
        return np.zeros(len(block.n_mat)), float("nan")
    c = cvec[:, k]     # LAPACK picks the sign: the largest entry is made > 0
    c = -c if c[np.argmax(np.abs(c))] < 0 else c
    return c, _virial_ratio(block, c, lam)


def _virial_ratio(block, c, lam):
    t = float(c @ (np.asarray(block.t_mat) @ c))
    v = float(c @ (np.asarray(block.v_mat) @ c))
    return -v / (2.0 * lam * t) if t != 0 else float("nan")


# ---------------------------------------------------------------------------
# dedicated two-parameter paths (closed-form matrix elements)


def chandrasekhar_energy(a, b, z, epsilon=+1):
    """Scale-optimized energy of the two-exponential pair at shape (a, b)."""
    n, t, v = matel3.chandrasekhar_ntv(a, b, z, epsilon)
    return virial_reduce(n, t, v)[0]


def _shape_search(ntv, t0, config):
    """Simplex over the shape t = b/a of virial_reduce(*ntv(1, t)) from t0; the
    closed forms refuse t <= 0, virial_reduce a shape with V >= 0 or NaN, and
    the objective one whose Python floats under- or overflow in the closed form.
    Returns (energy, (a, b), info) with the physical ranges lam * (1, t);
    info's `at_edge` flags a walk that ended below t = 1e-6, against the
    refused t <= 0, where the energy falls toward its t -> 0 limit (an
    unbound shape) instead of settling at an interior minimum."""
    def energy(p):
        try:
            return virial_reduce(*ntv(1.0, float(p[0])))[0]
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"shape t = {p[0]!r} is out of the float range") from exc

    (t,), e, info = minimize_nm(energy, [t0], config)
    lam = virial_reduce(*ntv(1.0, t))[1]
    info["at_edge"] = bool(t < 1e-6)
    return e, (lam, lam * t), info


def optimize_chandrasekhar(z, config: MinimizerConfig, epsilon=+1):
    """Minimize the two-exponential energy over its shape t = b/a; the
    physical ranges come larger first, as exchange makes (a, b) and (b, a)
    one state.

    Close to the critical charge this landscape develops a runaway valley
    at the t -> 0 edge that approaches the threshold from above, so
    scan_charge searches t on a grid instead.
    """
    e, (a, b), info = _shape_search(
        lambda a, b: matel3.chandrasekhar_ntv(a, b, z, epsilon),
        0.28 / 1.04, config)
    return e, (max(a, b), min(a, b)), info


def optimize_minmax(z):
    """Minimize the piecewise min/max exponential over its shape t = b/a on a
    log grid over [1e-12, 1e3]: (energy, (a, b)) at physical ranges.  An
    unbound z ends at the t -> 0 edge, z (1 - z) t above -z^2/2.  A shape
    with V >= 0 has no bound scale and counts as its infimum over it, 0."""
    t, e, _ = _grid_min(lambda t: _scale_inf(*matel3.minmax_ntv(1.0, t, z)),
                        np.geomspace(1e-12, 1e3, 151))
    lam = virial_reduce(*matel3.minmax_ntv(1.0, t, z))[1]
    return e, (lam, lam * t)


def optimize_shellmodel(z, config: MinimizerConfig):
    """Minimize the antisymmetrized (1s)(2s) energy over its shape t = b/a."""
    return _shape_search(lambda a, b: matel3.shellmodel_ntv(a, b, z), 0.6,
                         config)


def optimize_single_term(z, config: MinimizerConfig, epsilon, tie_ab):
    """Minimize the one-term correlated energy over its shape at a = 1: the
    simplex walks c/a if tie_ab ties b = a, else (b/a, c/a).  Returns
    (energy, (a, b, c), info) with the physical ranges lam * (1, b/a, c/a)."""
    unpack = lambda p: [(1.0, 1.0, p[0]) if tie_ab else (1.0, *p)]
    spec = hminus_spec(z=z, epsilon=epsilon)
    x, e, info = _search3(spec, [0.12] if tie_ab else [0.27, 0.05], config,
                          unpack=unpack)
    term = unpack(x)[0]
    lam = scaled_lowest(matel3.natural_matblock([term], spec))[1]
    return e, tuple(float(lam * r) for r in term), info


# ---------------------------------------------------------------------------
# scans


def scan_frozen(z):
    """Energy along b with the first range frozen at the central charge.

    This is the plain Rayleigh quotient (no scale optimization): rescaling
    would move the frozen range and collapse the scan onto the full
    two-parameter minimum.
    """
    if not 0 < z < math.inf:
        raise ValueError("z must be finite and > 0")
    b_grid = np.linspace(0.02, 1.2, 119)

    def e_of(b):
        with suppress(ZeroDivisionError, OverflowError):
            n, t, v = matel3.chandrasekhar_ntv(z, b, z, +1)
            if math.isfinite(e := (t + v) / n):
                return e
        raise ValueError(f"z = {z!r} takes the closed forms out of the float range")

    b0, e0, es = _grid_min(e_of, b_grid)
    return list(zip(b_grid.tolist(), es)), (b0, e0)


def scan_contour(z, a_range=(0.2, 2.0), b_range=(0.05, 1.2), grid=(61, 61)):
    """Matrix of scale-optimized energies over an (a, b) grid."""
    if not 0 < z < math.inf:
        raise ValueError("z must be finite and > 0")
    if min(a_range) <= 0 or min(b_range) <= 0:
        raise ValueError("ranges must be positive")
    if min(grid) < 1:
        raise ValueError(f"grid {grid} needs at least one point per axis")
    a_vals = np.linspace(a_range[0], a_range[1], grid[0])
    b_vals = np.linspace(b_range[0], b_range[1], grid[1])
    with np.errstate(all="ignore"):         # a non-finite energy raises below
        E = np.array([[chandrasekhar_energy(a, b, z) for b in b_vals]
                      for a in a_vals])
    if not np.isfinite(E).all():
        raise ValueError(f"z = {z!r} takes the closed forms out of the float range")
    return a_vals, b_vals, E


def _brentq(f, xa, xb):
    """Root of f between xa and xb by Brent's method.

    A step-for-step port of scipy.optimize.brentq (its C routine) on Python
    floats with scipy's defaults, xtol 2e-12, rtol 4 eps and 100 steps: the
    same iterates and the same root.  ValueError if f(xa) and f(xb) share a
    sign or f returns NaN; NonConvergenceError after 100 steps.
    """
    def ev(x):
        if math.isnan(fx := f(x)):
            raise ValueError(f"f({x}) is NaN")
        return fx

    xpre, xcur, fpre, fcur = xa, xb, ev(xa), ev(xb)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (2e-12 + 4 * 2.220446049250313e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis          # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = ev(xcur)
    raise NonConvergenceError("brentq did not converge in 100 steps")


def scan_charge(basis, z_lo=0.85, z_hi=1.3):
    """Critical central charge of a basis family: the root of its margin.

    The margin is the family's optimal energy above the threshold -Z^2/2.
    The product families have closed forms.  The two-exponential energy is
    scale-invariant, so a = 1 loses nothing and its optimum is one
    `_grid_min` over the shape t = b/a in [1e-3, 1].  The default bracket
    straddles the roots of all three families.
    """
    if basis == "perturbative":
        energy = matel3.perturbative_e
    elif basis == "effective":
        energy = lambda zz: matel3.energy_effective_charge(zz)[0]
    elif basis == "chandrasekhar":
        energy = lambda zz: _grid_min(
            lambda t: _scale_inf(*matel3.chandrasekhar_ntv(1.0, t, zz, +1)),
            np.geomspace(1e-3, 1.0, 31))[1]
    else:
        raise ValueError(f"unknown basis {basis!r}")

    margin = lambda zz: energy(zz) + 0.5 * zz * zz
    if not (margin(z_lo) > 0 > margin(z_hi)):
        raise NonConvergenceError("charge bracket does not straddle the margin")
    return _brentq(margin, z_lo, z_hi)


def _pair_scan(ratio, spec, symmetrize):
    """Mass-scan record of the two-range pair's lowest energy over its shape
    t = b/a in [1e-4, 1] at a = 1, with the physical ranges as `params`:
    (1, t, 0) exchange-symmetrized, or else (1, t, 0) and (t, 1, 0) as two
    vectors.  Up to scale, t -> 1/t maps either basis onto itself.  `at_edge`
    flags an end within 1e-9 of t = 1e-4, whose margin is the grid's."""
    def block(t):
        terms = [(1.0, t, 0.0)] if symmetrize else [(1.0, t, 0.0), (t, 1.0, 0.0)]
        return matel3.natural_matblock(terms, spec, symmetrize)

    t, e, _ = _grid_min(lambda t: scaled_lowest(block(t))[0],
                        np.geomspace(1e-4, 1.0, 41))
    lam = scaled_lowest(block(t))[1]
    thr = threshold_for(spec)
    margin, stable = thr.verdict(e)
    return {"ratio": ratio, "energy": e, "threshold": thr.e_ground,
            "margin": margin, "stable": stable,
            "at_edge": bool(t - 1e-4 < 1e-9), "mu": thr.mu, "params": [lam, lam * t]}


def scan_mass3(mass_ratios):
    """Finite central mass M/m > 0 (inf allowed) along H-'s two-range optimum:
    one `_pair_scan` record per ratio, `mu` the atom's reduced mass."""
    specs = [hminus_spec(mass_ratio=ratio) for ratio in mass_ratios]
    return [_pair_scan(ratio, spec, True) for ratio, spec in zip(mass_ratios, specs)]


def scan_asym3(ratios):
    """Unequal negative masses (finite m2/m1 > 0) at fixed average inverse
    mass around H-'s infinite center: the distinguishable particles' pair is
    not exchange-symmetrized (`_pair_scan`).  An unbound ratio ends at the
    t = 1e-4 edge, a hydrogen-like atom and a far electron just above, and
    its record says so in `at_edge`."""
    for r in ratios:
        if not 0 < r < math.inf:
            raise ValueError(f"mass ratio {r} must be finite and > 0")
    return [_pair_scan(r, SystemSpec(inv_masses=(0.0, 2.0 * r / (1.0 + r),
                                                 2.0 / (1.0 + r)),
                                     z_central=1.0), False) for r in ratios]


# ---------------------------------------------------------------------------
# four-body


def ps2_energy(beta):
    """Scale-optimized energy of the symmetric four-body pair at shape beta."""
    n, t, v = matel4.ho_ntv(beta)
    return virial_reduce(n, t, -v)[0]


def optimize_ps2():
    """Minimum of the one-parameter symmetric four-body family."""
    beta, e, _ = _fminbound(ps2_energy, 1e-4, 0.95, 1e-10)
    return float(e), float(beta)


# the four-body reduction: a looser overlap floor and a wider scale box
_FOUR = dict(floor=1e-11, bounds=(0.02, 50.0))


# each mode's mass pattern over the positives 1, 2, then the negatives 3, 4:
# as printed, and as 0 for the mass M and 1 for m = M / ratio
_PATTERNS = {"ps2": ("m1=m2=m3=m4", (0, 0, 0, 0)),
             "cc-break": ("m1=m2 and m3=m4", (0, 0, 1, 1)),
             "identity-break": ("m1=m3 and m2=m4", (0, 1, 0, 1))}


def _four_spec(mode, ratio):
    if not 0 <= ratio < math.inf:
        raise ValueError(f"mass ratio {ratio} must be finite and >= 0")
    if mode not in ("cc-break", "identity-break"):
        raise ValueError(f"unknown breaking mode {mode!r}")
    inv = (2.0 / (1.0 + ratio), 2.0 * ratio / (1.0 + ratio))   # 1/M + 1/m = 2
    return SystemSpec(inv_masses=tuple(inv[k] for k in _PATTERNS[mode][1]))


def _four_groups(mode, p):
    """Basis groups of one breaking mode at shape parameters p.

    cc-break: the orbit of (a, b, c, d) under both identical-pair exchanges;
    identity-break: the two terms (a,b,b,a) and (b,a,a,b) as separate
    vectors.  None when p leaves the integrable domain.
    """
    if mode == "cc-break":
        s = (p[0] + p[1], p[0] + p[2], p[1] + p[3], p[2] + p[3],
             p[0] + p[3], p[1] + p[2])
        if min(s) <= 1e-3:
            return None
        return [matel4.symmetrized_group(tuple(p))]
    a, b = p
    if a + b <= 1e-3 or a <= 0 or b <= 0:
        return None
    return [[(1.0, (a, b, b, a))], [(1.0, (b, a, a, b))]]


def scan_mass4(ratios, mode, config: MinimizerConfig):
    """Four-body stability along a mass-breaking direction.

    Ratios are taken at fixed average inverse mass so the charge-conjugation
    branch keeps a constant threshold.  Warm starts carry the optimized
    ranges from one ratio to the next.  Each record carries the simplex's
    `nfev` and `converged`.
    """
    out = []
    warm = [0.85, 0.15, 0.15, 0.85] if mode == "cc-break" else [0.85, 0.15]
    specs = [_four_spec(mode, ratio) for ratio in ratios]
    for ratio, spec in zip(ratios, specs):
        thr = threshold_for(spec)

        def obj(p):
            groups = _four_groups(mode, p)
            if groups is None:
                return _BIG
            return scaled_lowest(matel4.assemble4(groups, spec), **_FOUR)[0]

        x, e, info = minimize_nm(obj, warm, config)
        warm = list(x)
        margin, stable = thr.verdict(e)
        out.append({"ratio": ratio, "mode": mode, "energy": e,
                    "threshold": thr.e_ground, "margin": margin, "stable": stable,
                    "params": [float(v) for v in x], **info})
    return out


def molecule_result(mode, ratio, config: MinimizerConfig) -> VariationalResult:
    """One four-body solve packaged as a VariationalResult; ps2 has equal
    masses, so any ratio but 1 raises ValueError."""
    if mode == "ps2":
        if ratio != 1.0:
            raise ValueError(f"ps2 has equal masses: ratio {ratio} is not 1")
        e, beta = optimize_ps2()
        thr = threshold_for(ps2_spec())
        n, t, v = matel4.ho_ntv(beta)
        _, lam = virial_reduce(n, t, -v)
        # the analytic scale optimum satisfies the virial theorem exactly
        margin, stable = thr.verdict(e)
        return VariationalResult(
            energy=e, params=[beta], coeffs=[1.0], virial_ratio=1.0, threshold=thr,
            margin=margin, stable=stable, meta={"mode": mode, "scale": lam})
    rec = scan_mass4([ratio], mode, config)[0]
    spec = _four_spec(mode, ratio)
    block = matel4.assemble4(_four_groups(mode, rec["params"]), spec)
    _, lam = scaled_lowest(block, **_FOUR)
    c, vr = _state_at_scale(block, lam, floor=_FOUR["floor"])
    return VariationalResult(
        energy=rec["energy"], params=rec["params"], coeffs=list(c),
        virial_ratio=vr, threshold=threshold_for(spec), margin=rec["margin"],
        stable=rec["stable"],
        meta={"mode": mode, "ratio": ratio, "scale": lam,
              **{key: v for key, v in rec.items()
                 if key in ("nfev", "converged") or key.startswith("refused_")}})


def molecule_masses(mode, masses, config: MinimizerConfig):
    """(ratio, `molecule_result`) at masses (m1, m2, m3, m4) of the mode's
    pattern, rescaled by the mass unit s that restores them from unit average
    inverse mass.  cc-break solves heavy positives; lighter ones are its charge
    conjugate, whose ranges (a, b, c, d) relabel to (a, c, b, d) (r14 <-> r23)."""
    need, pattern = _PATTERNS.get(mode, (None, ()))   # molecule_result refuses others
    if len(masses) != 4 or not all(0 < m < math.inf for m in masses):
        raise ValueError(f"molecule needs m1,m2,m3,m4 finite and > 0, got {masses}")
    if any(m != masses[pattern.index(k)] for m, k in zip(masses, pattern)):
        raise ValueError(f"mode {mode} needs {need}")
    ratio = max(masses) / min(masses)
    s = 2.0 / (1.0 / max(masses) + 1.0 / min(masses))
    res = molecule_result(mode, ratio, config)
    thr = res.threshold
    res.energy *= s
    res.threshold = TwoBodyThreshold(s * thr.mu, s * thr.e_ground, s * thr.e_2p,
                                     thr.label)
    res.meta["scale"] *= s   # the ranges are params times the scale (ps2: the scale)
    if mode == "cc-break" and masses[0] < masses[2]:
        res.params = [res.params[i] for i in (0, 2, 1, 3)]
    return ratio, res
