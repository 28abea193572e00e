"""Variational engine: scale reduction, simplex searches, generalized
eigensolves, and the stability scans.

Everything here optimizes Rayleigh quotients built from the closed-form
matrix elements.  Every eigensolve reduces the overlap the same way
(`_reduce`, canonical orthogonalization with a relative floor), so a printed
energy, its coefficients and its virial ratio come from one pencil.  For a
scale-closed family the optimal scale is analytic (single term) or a
one-dimensional bounded search over the lowest eigenvalue of the reduced
lam^2 T + lam V (multi-term), so a search needs only the shape.  A
one-parameter shape goes to `_grid_min`: min-max, the critical charge and
the mass scans (and the frozen scan); the single correlated term fixes a = 1.
Every three-body simplex runs through `_search3`; Table I's two-range and
shell-model searches walk t alone at a = 1 (`_shape_search`).  The N-term
bases and `scan_mass4` still walk raw ranges, the scale a flat direction
(ROADMAP item 4).

No scipy runs here: `_fminbound`, `_nelder_mead` and `_brentq` port
scipy's bounded Brent, Nelder-Mead and brentq step for step, to the bit.
The simplex runs on Python floats (numpy's per-call cost on 2- to 9-vectors
outweighed the arithmetic) and leaves ties and NaN to np.argsort's own order.
Eigensolves call numpy's private eigh_lo and eigvalsh_lo (`_dsyevd`): numpy < 3.
"""

import math
import operator
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
# private to numpy, hence the numpy < 3 cap; check both on each numpy major
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo, eigvalsh_lo as _eigvalsh_lo

from .model import (MatBlock, SystemSpec, VariationalResult, NATURAL,
                    STABILITY_TOL, threshold_for, hminus_spec, ps2_spec)
from . import matel3, matel4

_BIG = 1e6


class NonConvergenceError(RuntimeError):
    """Raised when no restart of the simplex produced a finite optimum."""


class CancellationError(ValueError):
    """A vector-sector basis whose overlap is too ill-conditioned to trust.

    The 1+ matrix elements are accurate to round-off, but a nearly
    dependent basis amplifies their last bits into fake binding of order
    1e-5, exactly the scale of the physics; `_un_lowest` refuses such a
    basis (`_UN_COND_CAP`) rather than return its energy.
    """


@dataclass(frozen=True)
class MinimizerConfig:
    f_tol: float = 1e-10
    x_tol: float = 1e-8
    max_iter: int = 10_000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.f_tol < math.inf and 0 < self.x_tol < math.inf):
            raise ValueError("tolerances must be finite and > 0")
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
    if v >= 0:
        raise ValueError("virial reduction needs V < 0 (attractive regime)")
    if n <= 0 or t <= 0:
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


def _reduce(block: MatBlock, floor):
    """Canonical orthogonalization of the overlap: X, X^T T X and X^T V X.

    X spans the overlap eigendirections above floor times the largest
    overlap eigenvalue, scaled so that X^T N X = 1.  A non-finite overlap
    raises LinAlgError: dsyevd does not always flag it, and its NaN
    eigenvalues fall below any floor, so it is checked once a direction
    drops out.
    """
    N = np.asarray(block.n_mat, dtype=float)
    w, U = _dsyevd(_eigh_lo, N, "d->dd")
    keep = w > floor * max(w[-1], 1e-300)
    X = U[:, keep] / np.sqrt(w[keep])
    if X.shape[1] < len(w):
        _check_finite(N)
    return X, X.T @ np.asarray(block.t_mat) @ X, X.T @ np.asarray(block.v_mat) @ X


def gen_eig(block: MatBlock, floor=1e-12):
    """All eigenpairs of (T+V) c = E N c, eigenvalues ascending.

    The overlap is reduced by `_reduce`: directions below the relative floor
    are projected out, not dropped by term, so a near-collinear basis yields
    fewer eigenpairs, and each coefficient column c = X y lies in the kept
    subspace with c^T N c = 1.
    """
    X, Tt, Vt = _reduce(block, floor)
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
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
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
            q = abs(q)
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
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
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
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
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


def _eigvalsh2(d1, e, d2):
    """Eigenvalues, ascending, of the lower triangle d1; e, d2 as dsyevd
    (jobz='N') computes them at n = 2: dsytrd keeps d1, e, d2; dsterf splits
    (two tests, eps = 2^-53) or runs dlae2 on sqrt(e^2), d2 first when
    |d2| < |d1| (QR); dlasrt sorts.  None unless 1e-120 < max|entry| < 1e140,
    inside the range that dsyevd (up to 2^485) and dsterf (from 2^-405) run
    unscaled; NaN and inf give None too."""
    a1, ae, a2 = abs(d1), abs(e), abs(d2)
    if not (a1 < 1e140 and ae < 1e140 and a2 < 1e140 and max(a1, ae, a2) > 1e-120):
        return None
    e2, eps = e * e, 2.0 ** -53
    if ae > math.sqrt(a1) * math.sqrt(a2) * eps and e2 > eps * eps * abs(d1 * d2):
        a, c = (d2, d1) if a2 < a1 else (d1, d2)
        b = math.sqrt(e2)
        sm, adf, ab = a + c, abs(a - c), abs(b + b)
        acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
        hi, lo = (adf, ab) if adf > ab else (ab, adf)   # ab > 0; a tie gives sqrt(2)
        q = lo / hi
        rt = hi * math.sqrt(1.0 + q * q)
        rt1 = 0.5 * (sm - rt) if sm < 0.0 else 0.5 * (sm + rt)
        rt2 = -0.5 * rt if sm == 0.0 else (acmx / rt1) * acmn - (b / rt1) * b
        d1, d2 = (rt2, rt1) if a2 < a1 else (rt1, rt2)
    return (d2, d1) if d2 < d1 else (d1, d2)


def _scale_step(Tt, Vt, k):
    """lam -> the k-th eigenvalue of lam^2 Tt + lam Vt (see scaled_lowest), one
    closure per size; the 2 x 2 Python step is finite where it runs (NaN: gufunc)."""
    lapack = lambda lam: _checked(float(
        _eigvalsh_lo(lam * lam * Tt + lam * Vt, signature="d->d")[k]))
    if len(Tt) == 1:
        [[t]], [[v]] = Tt.tolist(), Vt.tolist()
        return lambda lam: _checked(lam * lam * t + lam * v)
    if len(Tt) == 2:
        ((t0, _), (t1, t2)), ((v0, _), (v1, v2)) = Tt.tolist(), Vt.tolist()

        def step2(lam):
            w = _eigvalsh2(lam * lam * t0 + lam * v0, lam * lam * t1 + lam * v1,
                           lam * lam * t2 + lam * v2)
            return lapack(lam) if w is None else w[k]

        return step2
    return lapack


def scaled_lowest(block: MatBlock, k=0, floor=1e-12, bounds=(0.05, 50.0)):
    """k-th eigenvalue minimized over the overall scale of the basis.

    The overlap is reduced by `_reduce` first, which keeps the search robust
    when the simplex wanders into near-collinear bases.

    The scale search is a local bounded Brent search.  E(lam), the k-th
    eigenvalue of lam^2 T + lam V, is a minimum of parabolas and need not be
    convex, so on some blocks it stops in a local minimum above the global
    one.  The curated starts and the printed energies were tuned with this
    search, and a global reduction steers the simplex of the N = 2 H- solve
    into an ill-conditioned basin that ends above the Table II value
    (ROADMAP item 5).  Each step (`_scale_step`) returns np.linalg.eigvalsh's
    values to the bit (LAPACK dsyevd, lower triangle).  One direction is the
    entry itself; two mirror dsyevd's dsterf and dlae2 arithmetic in Python
    floats (`_eigvalsh2`), which assumes a LAPACK whose dlae2 is built
    without FMA contraction, as `test_scale_step_is_eigvalsh` checks.  Three
    or more, or a 2 x 2 that dsyevd rescales, call the gufunc behind
    eigvalsh without its wrapper.  A failed dsyevd leaves NaN, which raises
    LinAlgError.
    """
    X, Tt, Vt = _reduce(block, floor)
    if X.shape[1] <= k:
        return _BIG, 1.0
    with np.errstate(invalid="ignore"):    # the NaN check reports instead
        lam, e, _ = _fminbound(_scale_step(Tt, Vt, k), bounds[0], bounds[1], 1e-12)
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
    compensates from Python 3.12 on); np.argsort itself orders ties and NaN.
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
            all(abs(a - b) <= xatol for s in sim[1:] for a, b in zip(s, sim[0]))
            and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])):
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
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(sim[0], sim[j])]
                        fsim[j] = fc(sim[j])
        sim, fsim = ordered(sim, fsim)
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
    NonConvergenceError: no restart got below _BIG / 2.
    """
    x0 = np.asarray(x0, dtype=float)
    scale = np.maximum(np.abs(x0), 0.1)
    rng = np.random.default_rng(config.seed)
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

    starts = [x0] + [x0 + 0.05 * scale * rng.standard_normal(x0.shape)
                     for _ in range(config.restarts - 1)]
    runs = [_nelder_mead(guarded, s, config.max_iter, config.x_tol, config.f_tol)
            for s in starts]
    best = min(runs, key=lambda r: r[1])     # the first of equal values
    if not np.isfinite(best[1]) or best[1] >= _BIG / 2:
        raise NonConvergenceError("no simplex restart reached a feasible optimum")
    return best[0], float(best[1]), {"nfev": sum(r[2] for r in runs),
                                     "converged": bool(best[3]), **info}


# ---------------------------------------------------------------------------
# three-body optimization


def _valid3(terms, min_sum):
    return all(t[0] + t[1] > min_sum and t[1] + t[2] > min_sum
               and t[2] + t[0] > min_sum for t in terms)


# Vector-sector bases whose overlap condition number exceeds this cap are
# refused.  In exact arithmetic a nearly dependent basis is harmless; in
# floats it amplifies the last bits of the elements into fake binding at the
# 1e-5 scale of the physics.  Free searches (seed 0, 3 x 4000 evaluations)
# with the cap at 1e10, 1e12 or none stayed above -0.125355451 (1+ H-) and
# -0.0625 (1+ Ps-), but without it the Ps- searches end 2e-14 to 4e-14
# above -0.0625, so the cap stays until that margin is shown to be safe.
_UN_COND_CAP = 1e8


def _un_lowest(terms, spec, k=0):
    blk = matel3.unnatural_matblock(terms, spec)
    wN = _dsyevd(_eigvalsh_lo, np.asarray(blk.n_mat, dtype=float), "d->d")
    if wN[0] <= 0 or wN[-1] > _UN_COND_CAP * wN[0]:
        _check_finite(blk.n_mat)      # NaN can leave finite eigenvalues
        raise CancellationError(
            "vector-sector overlap too ill-conditioned to trust")
    return scaled_lowest(blk, k=k)


def _rows3(x):
    x = np.asarray(x, dtype=float).tolist()    # floats skip numpy scalar math
    return [tuple(x[i:i + 3]) for i in range(0, len(x), 3)]


def _search3(spec, x0, config, k=0, unpack=_rows3):
    """Simplex search of the k-th state of a three-body basis from x0.

    `unpack` maps a simplex point to basis terms, or to None outside its
    domain; terms with a pair sum at or below the sector's floor (1e-3
    natural, 1e-6 vector) are refused too.  Returns minimize_nm's triple.
    """
    min_sum = 1e-3 if spec.sector == NATURAL else 1e-6

    def obj(x):
        terms = unpack(x)
        if terms is None or not _valid3(terms, min_sum):
            return _BIG
        if spec.sector == NATURAL:
            return scaled_lowest(matel3.natural_matblock(terms, spec), k=k)[0]
        return _un_lowest(terms, spec, k=k)[0]

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
    key = (float(z), eps, n, k)
    if key in _NAT_SEEDS:
        return _NAT_SEEDS[key]
    if key in _NAT_EXTEND:
        base_key, extra = _NAT_EXTEND[key]
        x, _, _ = _search3(hminus_spec(z=z, epsilon=eps),
                           np.ravel(_nat_seed(*base_key, config)), config,
                           k=base_key[3])
        return _rows3(x) + [extra]
    # generic fallback: hydrogenic scale with a diffuse partner
    base = [(1.05 * z, 0.45 * z, 0.05 * z)]
    for i in range(1, n):
        f = 0.7 ** i
        base.append((1.05 * z * f, 0.45 * z * f, 0.02 * z * f))
    return base


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
    if not 1 <= n_terms <= 8:
        raise ValueError("n_terms must be in [1, 8]")
    thr = threshold_for(spec)
    e_thr = thr.e_relevant(spec.sector)
    natural = spec.sector == NATURAL
    seeds = (_nat_seed(spec.z_central, spec.epsilon, n_terms, k, config)
             if natural else _un_seed(spec, n_terms))
    x, e, info = _search3(spec, np.ravel(seeds), config, k)
    terms = _rows3(x)
    block = (matel3.natural_matblock if natural
             else matel3.unnatural_matblock)(terms, spec)
    _, lam = scaled_lowest(block, k=k)
    c, vr = _state_at_scale(block, lam, k)
    margin = (e_thr - e) / abs(e_thr)
    return VariationalResult(
        energy=e, params=[list(t) for t in terms], coeffs=list(c),
        virial_ratio=vr, threshold=thr, margin=margin,
        stable=bool(e < e_thr - STABILITY_TOL), sector=spec.sector,
        meta={"k": k, "n_terms": n_terms, "scale": lam, **info})


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
    closed forms refuse t <= 0 and virial_reduce a shape with V >= 0.
    Returns (energy, (a, b), info) with the physical ranges lam * (1, t)."""
    (t,), e, info = minimize_nm(lambda p: virial_reduce(*ntv(1.0, p[0]))[0],
                                [t0], config)
    lam = virial_reduce(*ntv(1.0, t))[1]
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
        n, t, v = matel3.chandrasekhar_ntv(z, b, z, +1)
        return (t + v) / n

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
    E = np.array([[chandrasekhar_energy(a, b, z) for b in b_vals]
                  for a in a_vals])
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
    return {"ratio": ratio, "energy": e, "threshold": thr.e_ground,
            "margin": (thr.e_ground - e) / abs(thr.e_ground),
            "stable": bool(e < thr.e_ground - STABILITY_TOL),
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


def _four_spec(mode, ratio):
    if not 0 <= ratio < math.inf:
        raise ValueError(f"mass ratio {ratio} must be finite and >= 0")
    iM = 2.0 / (1.0 + ratio)
    im = 2.0 * ratio / (1.0 + ratio)
    if mode == "cc-break":
        inv = (iM, iM, im, im)       # heavy positives, light negatives
    elif mode == "identity-break":
        inv = (iM, im, iM, im)       # heavy/light pair of each sign
    else:
        raise ValueError(f"unknown breaking mode {mode!r}")
    return SystemSpec(inv_masses=inv, z_central=None,
                      charges=(1.0, 1.0, -1.0, -1.0))


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
        out.append({"ratio": ratio, "mode": mode, "energy": e,
                    "threshold": thr.e_ground,
                    "margin": (thr.e_ground - e) / abs(thr.e_ground),
                    "stable": bool(e < thr.e_ground - STABILITY_TOL),
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
        return VariationalResult(
            energy=e, params=[beta], coeffs=[1.0], virial_ratio=1.0,
            threshold=thr, margin=(thr.e_ground - e) / abs(thr.e_ground),
            stable=bool(e < thr.e_ground - STABILITY_TOL),
            meta={"mode": mode, "scale": lam})
    rec = scan_mass4([ratio], mode, config)[0]
    spec = _four_spec(mode, ratio)
    block = matel4.assemble4(_four_groups(mode, rec["params"]), spec)
    _, lam = scaled_lowest(block, **_FOUR)
    c, vr = _state_at_scale(block, lam, floor=_FOUR["floor"])
    return VariationalResult(
        energy=rec["energy"], params=rec["params"], coeffs=list(c),
        virial_ratio=vr, threshold=threshold_for(spec), margin=rec["margin"],
        stable=rec["stable"],
        meta={"mode": mode, "ratio": ratio,
              **{key: v for key, v in rec.items()
                 if key in ("nfev", "converged") or key.startswith("refused_")}})
