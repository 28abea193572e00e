"""Truncated multivariate Taylor ("jet") arithmetic for exact high-order derivatives.

A Jet stores the Taylor coefficients c[i1,...,in] of a smooth function around
an expansion point, for every multi-index with i_k < shape[k] on each axis,
i1 + ... + in <= degree in total and, if the layout has `below`, at or below
one of those multi-indices.  The kept multi-indices form an order ideal (a
product never feeds a kept coefficient from a dropped one), so arithmetic on
jets propagates every kept mixed partial exactly, which is what the
closed-form generating functions need: the four-body matrix elements are
mixed partials of F4 of total order up to 5, and finite differences are
hopeless at that depth.  The degree defaults to sum(shape - 1).

Multiplication is the truncated Cauchy product itself.  For each layout the
index pairs (i, j) whose sum is a kept multi-index are tabulated once, on
first use, by one lookup per pair in radix 2 * shape (where a sum of two
cells never carries), and a product is one gather, multiply and bincount
over that table.  Each output coefficient is thus the plain sum of its own
a_i b_j terms, in the same order on any ideal that keeps it, so its
round-off is relative to those terms only; an FFT convolution instead
spreads the round-off of the largest coefficients over all of them (it put
F4's moments off by 2.6e-8 relative at (2.0, 0.3, 1.7, 0.25) and by 4.5e-3
at (3.0, 0.1, 2.5, 0.15)).  Every univariate function of a jet is one
Taylor composition, `compose`: Horner's rule in t = x - val over f's
coefficients f^(m)(val)/m!, as Python floats, costs degree - 1 products.

A jet's `deg` bounds its degree: coefficients above it are exact zeros.  A
coordinate has 1, sums the larger bound, products the sum (capped), scalar
operations keep it; a product runs only over the table's pairs with
|i| <= deg1, |j| <= deg2, in order.  No bit changes: bincount starts cells
at +0.0, so a partial sum is never -0.0, and each skipped term is +-0.0 for
finite coefficients (0 * inf is NaN).  A composition over k + 1
coefficients has k * deg (capped).  `Jet(c, lay)` without `deg` is dense,
so only such a jet may have `c` written in place.  (Truncated Taylor
arithmetic: Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13.)
"""

from functools import cache
from math import factorial, log, prod

import numpy as np


class _Layout:
    """Kept multi-indices of one (shape, degree, below) and its product tables."""

    __slots__ = ("shape", "degree", "n", "index", "pi", "pj", "po", "tot",
                 "tables")

    def __init__(self, shape, degree, below=None):
        if degree is None:
            degree = sum(s - 1 for s in shape)
        cells = np.indices(shape).reshape(len(shape), -1).T
        keep = cells.sum(axis=1) <= degree
        if below is not None:
            keep &= (cells[:, None] <= np.array(below)).all(axis=2).any(axis=1)
        cells = cells[keep]                          # zero multi-index first
        # a cell's key in radix 2 * shape: the key of a sum of two cells is
        # the sum of their keys (no axis carries), so one lookup finds it
        radix = [2 * s for s in shape]
        key = cells @ [prod(radix[k + 1:]) for k in range(len(shape))]
        pos = np.full(prod(radix), -1, dtype=np.intp)
        pos[key] = np.arange(len(cells))
        out = pos[key[:, None] + key]
        pi, pj = np.nonzero(out >= 0)
        self.shape, self.degree, self.n = shape, degree, len(cells)
        self.index = {tuple(int(v) for v in e): k for k, e in enumerate(cells)}
        self.pi, self.pj, self.po = pi, pj, out[pi, pj]
        self.tot = cells.sum(axis=1)
        self.tables = {(degree, degree): (pi, pj, self.po)}

    def pairs(self, d1, d2):
        """The product table restricted to |i| <= d1 and |j| <= d2, in order."""
        t = self.tables.get((d1, d2))
        if t is None:
            keep = (self.tot[self.pi] <= d1) & (self.tot[self.pj] <= d2)
            t = self.tables[d1, d2] = (self.pi[keep], self.pj[keep], self.po[keep])
        return t


@cache
def _layout(shape, degree, below=None):
    """One shared layout per (shape, degree, below), built on first use."""
    return _Layout(shape, degree, below)


class Jet:
    """Taylor coefficients of f around a point, truncated per axis and in total."""

    __slots__ = ("c", "lay", "deg")

    def __init__(self, coeffs, lay, deg=None):
        self.c = coeffs
        self.lay = lay
        self.deg = lay.degree if deg is None else deg

    @property
    def val(self):
        return float(self.c[0])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c, self.lay, max(self.deg, other.deg))
        out = self.c.copy()
        out[0] += other
        return Jet(out, self.lay, self.deg)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c - other.c, self.lay, max(self.deg, other.deg))
        out = self.c.copy()
        out[0] -= other
        return Jet(out, self.lay, self.deg)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other, self.lay, self.deg)
        lay, d1, d2 = self.lay, self.deg, other.deg
        pi, pj, po = lay.pairs(d1, d2)
        return Jet(np.bincount(po, self.c[pi] * other.c[pj], lay.n), lay,
                   min(d1 + d2, lay.degree))

    __rmul__ = __mul__

    def compose(self, coefs):
        """f(self) from coefs[m] = f^(m)(val)/m!, m = 0 .. lay.degree, by
        Horner's rule in t = self - val (t^m starts at total degree m)."""
        t = self - self.val
        f = t * coefs[-1]
        for cm in coefs[-2:0:-1]:
            f = (f + cm) * t
        return f + coefs[0]

    def recip(self):
        """1/self; needs val != 0."""
        a0 = self.val
        if a0 == 0.0:
            raise ZeroDivisionError("jet reciprocal at zero value")
        return self.compose([(-1.0) ** m / a0 ** (m + 1)
                             for m in range(self.lay.degree + 1)])

    def log(self):      # kept: perfbench traces it by name
        """log(self); needs val > 0."""
        a0 = self.val
        if a0 <= 0.0:
            raise ValueError("jet log of non-positive value")
        return self.compose([log(a0)] + [(-1.0) ** (m + 1) / (m * a0 ** m)
                                         for m in range(1, self.lay.degree + 1)])

    def deriv(self, idx):
        """Mixed partial derivative of the given multi-index order.

        Raises ValueError for an order the truncation dropped, which would
        otherwise read as a silent zero.
        """
        k = self.lay.index.get(tuple(idx))
        if k is None:
            raise ValueError(
                f"derivative order {tuple(int(i) for i in idx)} not kept by the "
                f"jet ({self.lay.n} cells of shape {self.lay.shape})")
        return float(self.c[k]) * prod(factorial(i) for i in idx)
