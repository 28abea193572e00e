"""Shared domain types, unit conventions, and dissociation thresholds.

Everything internal is in natural units: m = hbar = e^2 = 1, so energies come
in units of m e^4 / hbar^2 (the hartree, 27.211386 eV) and lengths in Bohr
radii.  An infinitely massive particle is encoded by inverse mass 0, which
keeps every formula finite and branch-free.

A basis is an (n, width) exponent array x plus (cols, weight) maps: basis
vector i is sum weight * term(x[i, cols]), a broken permutation symmetry
restored by adding the permuted copies.  Every block goes through `kernel`,
which resolves the layout of an (n, width, maps) basis once.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

NATURAL = "natural"      # scalar 0+ sector
UNNATURAL = "unnatural"  # vector 1+ sector (threshold is the 2p atom)


@dataclass(frozen=True)
class SystemSpec:
    """One Hamiltonian instance: inverse masses, exchange symmetry, sector.

    Three-body systems carry a central charge ``z_central`` and inverse masses
    ``[1/M, 1/m1, 1/m2]`` (center first).  Four-body systems have no center:
    unit charges and ``inv_masses`` of the positives 1, 2, then the negatives
    3, 4, in the natural sector with epsilon +1 (their basis groups carry the
    exchange symmetry).
    """

    inv_masses: Tuple[float, ...]
    z_central: Optional[float] = None
    epsilon: int = +1
    sector: str = NATURAL

    def __post_init__(self):
        im = self.inv_masses
        if not all(0 <= x < math.inf for x in im):
            raise ValueError("inverse masses must be finite and >= 0")
        if self.epsilon not in (+1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.sector not in (NATURAL, UNNATURAL):
            raise ValueError(f"unknown sector {self.sector!r}")
        if self.z_central is None:
            if len(im) != 4:
                raise ValueError("four-body spec needs 4 inverse masses")
            if self.epsilon != +1 or self.sector != NATURAL:
                raise ValueError("four-body spec is natural with epsilon +1")
            if any(im[i] + im[j] == 0 for i in (0, 1) for j in (2, 3)):
                raise ValueError("an atom of two infinite masses is unbounded")
        else:
            if len(im) != 3:
                raise ValueError("three-body spec needs [1/M, 1/m1, 1/m2]")
            if not 0 < self.z_central < math.inf:
                raise ValueError("central charge z must be finite and > 0")
            if any(im[0] + x == 0 for x in im[1:]):
                raise ValueError("an atom of two infinite masses is unbounded")

    @property
    def is_four_body(self) -> bool:
        return self.z_central is None


@dataclass(frozen=True)
class MatBlock:
    """Overlap/kinetic/potential matrices over one basis."""

    n_mat: "object"
    t_mat: "object"
    v_mat: "object"


@lru_cache(maxsize=64)   # a solve keeps one basis size and map set; a scan a few
def gather(n, width, maps):
    """The pair layout of a basis of n rows of an (n, width) exponent array x
    with the column maps `maps`, ((cols, weight), ...): basis vector i is
    sum weight * term(x[i, cols]).  The ordered term pairs of the upper
    triangle, in u-major, v-minor order, as flat indices into x of their
    terms U and V, (pairs, len(cols)) each, then their cells m n^2 + i n + j
    in matrix m of three (all pairs of m = 0 first), their weight products
    and the mirror (entry (m, j, i) reads cell (m, i, j), i <= j)."""
    if not maps or len({len(c) for c, _ in maps}) != 1:
        raise ValueError("column maps must be non-empty and of one length")
    cols = np.array([c for c, _ in maps], dtype=np.intp)
    if cols.min() < 0 or cols.max() >= width:
        raise ValueError(f"a map column outside [0, {width})")
    k = len(maps)
    flat = (np.arange(n)[:, None, None] * width + cols).reshape(n * k, -1)
    gid = np.repeat(np.arange(n), k)
    w = np.tile(np.array([weight for _, weight in maps], dtype=float), n)
    p, q = np.nonzero(gid[:, None] <= gid[None, :])
    mirror = np.arange(3 * n * n).reshape(3, n, n)
    return (flat[p], flat[q], (gid[p] * n + gid[q] + n * n * np.arange(3)[:, None]).ravel(),
            w[p] * w[q], np.minimum(mirror, mirror.transpose(0, 2, 1)))


def kernel(n, width, maps, pair):
    """x, the flat exponents of `gather`'s basis (n, width, maps), -> its
    stacked N, T, V (3, n, n): entry (i, j) sums weight * `pair(U, V)`, one
    vector per matrix at the stacked term pairs U, V, over the pairs of vectors
    i <= j in gather's order (one bincount), mirrored below: Hermitian operators."""
    iu, iv, cell, ww, mirror = gather(n, width, maps)
    return lambda x: np.bincount(cell, (ww * pair(x[iu], x[iv])).ravel(), mirror.size)[mirror]


def block(x, maps, pair):
    """The MatBlock over the (n, width) exponents x with the maps: `kernel`'s."""
    return MatBlock(*kernel(*x.shape, maps, pair)(x.ravel()))


def contract(U, V, M, table, ones=None):
    """(n, t, v) of the term pairs U, V (P, d) with moments M (P, K): (F ⊗ M) @ W over
    the rows W keeps, F the features 1 (`ones`, (P, 1), if held), U_i + V_i, U_i V_j (i-major)."""
    (f, k, W), P = table, len(U)
    F = np.concatenate((np.ones((P, 1)) if ones is None else ones, U + V,
                        (U[:, :, None] * V[:, None, :]).reshape(P, -1)), 1)
    return ((F[:, f] * M[:, k]) @ W).T


def coefficients(d, K, elements):
    """`contract`'s table from a list of (weight, feature, column) per element,
    the feature () for 1, (i,) for U_i + V_i, (i, j) for U_i V_j: nonzero rows."""
    W = np.zeros((1 + d + d * d, K, len(elements)))
    for e, entries in enumerate(elements):
        for w, f, k in entries:
            W[0 if not f else 1 + f[0] if len(f) == 1 else 1 + d + d * f[0] + f[1],
              k, e] += w
    f, k = np.nonzero(W.any(2))
    return f, k, W[f, k]


def kinetic(w, e, f, overlap, bracket):
    """Entries of w p^2 (gradient form), exponents e, f on the particle's distances:
    (u_e v_e + u_f v_f) overlap + (u_e v_f + u_f v_e) (weight, column) bracket."""
    return ([(w, (e, e), overlap), (w, (f, f), overlap)]
            + [(w * c, p, k) for c, k in bracket for p in ((e, f), (f, e))])


# energy must undercut the threshold by more than this to count as bound;
# guards against declaring round-off noise a bound state
STABILITY_TOL = 1e-6


@dataclass(frozen=True)
class TwoBodyThreshold:
    mu: float
    e_ground: float
    e_2p: float
    label: str

    def e_relevant(self, sector: str) -> float:
        return self.e_2p if sector == UNNATURAL else self.e_ground

    def verdict(self, energy, sector=NATURAL):
        """(margin, stable) of an energy in a sector: how far it lies below the
        sector's threshold, relative to it, and whether by more than STABILITY_TOL."""
        e_thr = self.e_relevant(sector)
        return (e_thr - energy) / abs(e_thr), bool(energy < e_thr - STABILITY_TOL)


@dataclass
class VariationalResult:
    energy: float
    params: Sequence[float]
    coeffs: Sequence[float]
    virial_ratio: float
    threshold: TwoBodyThreshold
    margin: float
    stable: bool
    sector: str = NATURAL
    meta: dict = field(default_factory=dict)


def threshold_for(spec: SystemSpec) -> TwoBodyThreshold:
    """Lowest dissociation threshold of the spec, with its channel label.

    Three body: the central charge keeps the electron with which it forms the
    most strongly bound two-body atom; the other particle escapes to rest.
    Four body: both ways of splitting into two neutral atoms are evaluated and
    the lower sum wins.
    """
    if not spec.is_four_body:
        z = spec.z_central
        im0 = spec.inv_masses[0]
        mus = [1.0 / (im0 + imi) for imi in spec.inv_masses[1:]]
        mu = max(mus)
        e0 = -0.5 * z * z * mu
        label = f"(Z={z:g}) atom + free particle"
        return TwoBodyThreshold(mu=mu, e_ground=e0, e_2p=e0 / 4.0, label=label)

    # four-body: the positives 1, 2 pair with the negatives (3, 4) or (4, 3)
    im = spec.inv_masses

    def atoms(na, nb):
        mu_a, mu_b = 1.0 / (im[0] + im[na]), 1.0 / (im[1] + im[nb])
        return -0.5 * mu_a - 0.5 * mu_b, mu_a, f"atoms (1{na+1})(2{nb+1})"

    e0, mu, lab = min(atoms(2, 3), atoms(3, 2), key=lambda r: r[0])
    return TwoBodyThreshold(mu=mu, e_ground=e0, e_2p=e0 / 4.0, label=lab)


def hminus_spec(z: float = 1.0, mass_ratio: float = float("inf"),
                epsilon: int = +1, sector: str = NATURAL) -> SystemSpec:
    """Convenience constructor: (Z, e-, e-) with central mass M = mass_ratio * m.

    mass_ratio must be > 0; inf (the default) is the infinite nucleus.
    """
    if not mass_ratio > 0:
        raise ValueError(f"mass ratio {mass_ratio} must be > 0")
    im0 = 0.0 if mass_ratio == float("inf") else 1.0 / mass_ratio
    return SystemSpec(inv_masses=(im0, 1.0, 1.0), z_central=z,
                      epsilon=epsilon, sector=sector)


def ps2_spec() -> SystemSpec:
    """Positronium molecule: (e+, e+, e-, e-), all masses 1."""
    return SystemSpec(inv_masses=(1.0, 1.0, 1.0, 1.0))
