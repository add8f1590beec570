"""Probability densities on the open unit interval.

Beta sources, additive-noise kernels, and mixed continuous+atomic
mixtures. All interval queries use the half-open convention (a, b],
and partial moments are computed in closed form (regularized
incomplete beta for the continuous parts, polynomial antiderivatives
for the noise kernels), which keeps errors near machine precision.

The moment kernel is array-valued: `partial_moments(a, b)` broadcasts
over arrays of cell edges, so a caller gets (m0, m1, m2) for every cell
of a quantizer from one call. Each beta part makes one `betainc` call
per moment order over all edges, and each group of atoms sharing a
noise kernel is evaluated as one atoms x cells array. Scalar edges
return a tuple of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence, Tuple, Union

import numpy as np
from scipy import special

# clamping margin for endpoint-singular beta pdfs (alpha < 1 or beta < 1)
_EDGE = 1e-12

# below this mass a cell is considered empty
EMPTY_CELL_MASS = 1e-12


# (m0, m1, m2): floats for scalar edges, arrays of the broadcast shape otherwise
Moments = Tuple[Union[float, np.ndarray], Union[float, np.ndarray], Union[float, np.ndarray]]


def _moments_out(m0, m1, m2) -> Moments:
    if np.ndim(m0) == 0:
        return float(m0), float(m1), float(m2)
    return m0, m1, m2


def _clipped_powers(a, b, lo, hi):
    """(u^k - l^k) / k for k = 1..4 over (l, u] = (a, b] clipped to (lo, hi];
    all four are 0 where the intervals do not overlap."""
    l = np.maximum(a, lo)
    u = np.maximum(np.minimum(b, hi), l)
    l2, u2 = l * l, u * u
    return u - l, (u2 - l2) / 2.0, (u2 * u - l2 * l) / 3.0, (u2 * u2 - l2 * l2) / 4.0


class DomainError(ValueError):
    """Evaluation point outside the open unit interval."""


class EmptyCellError(ValueError):
    """Conditional moment requested over a cell with (numerically) no mass."""


def centroid_from_moments(a, b, m0, m1):
    """Conditional means m1 / m0 of the cells (a, b], clipped into each cell.

    Raises EmptyCellError if a cell carries less than EMPTY_CELL_MASS.
    """
    empty = np.asarray(m0) < EMPTY_CELL_MASS
    if empty.any():
        a, b, m0 = np.broadcast_arrays(a, b, m0)
        k = np.unravel_index(np.argmax(empty), empty.shape)
        raise EmptyCellError(f"cell ({a[k]}, {b[k]}] carries mass {m0[k]:.3g}")
    c = np.minimum(np.maximum(m1 / m0, a), b)
    return float(c) if np.ndim(c) == 0 else c


@dataclass(frozen=True)
class BetaDensity:
    """Beta(alpha, beta_param) law on (0, 1)."""

    alpha: float
    beta_param: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta_param > 0):
            raise ValueError(
                "beta shape parameters must be positive, got "
                f"({self.alpha}, {self.beta_param})"
            )

    def pdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), _EDGE, 1.0 - _EDGE)
        a, b = self.alpha, self.beta_param
        logp = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - special.betaln(a, b)
        return np.exp(logp)

    def cdf(self, x):
        return special.betainc(self.alpha, self.beta_param, np.clip(x, 0.0, 1.0))

    def partial_moments(self, a, b) -> Moments:
        """(m0, m1, m2): integrals of 1, x, x^2 against the pdf over (a, b].

        `a` and `b` broadcast; one `betainc` call per moment order covers
        both ends of every cell.
        """
        al, be = self.alpha, self.beta_param
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        ends = np.array((a, b))
        ia, ib = special.betainc(al, be, ends)
        m0 = ib - ia
        mu1 = al / (al + be)
        ia, ib = special.betainc(al + 1, be, ends)
        m1 = mu1 * (ib - ia)
        mu2 = mu1 * (al + 1) / (al + be + 1)
        ia, ib = special.betainc(al + 2, be, ends)
        m2 = mu2 * (ib - ia)
        return _moments_out(m0, m1, m2)

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta_param)

    def is_log_concave(self) -> bool:
        return self.alpha >= 1.0 and self.beta_param >= 1.0


class KernelShape(str, Enum):
    POINT = "point"
    UNIFORM = "uniform"
    TRIANGULAR = "triangular"


@dataclass(frozen=True)
class NoiseKernel:
    """Zero-mean additive noise applied to a transmitted word.

    `point` is the noiseless Dirac case (halfwidth 0); `uniform` and
    `triangular` have support (-halfwidth, +halfwidth) around the word.
    """

    shape: KernelShape = KernelShape.POINT
    halfwidth: float = 0.0

    def __post_init__(self):
        shape = KernelShape(self.shape)
        object.__setattr__(self, "shape", shape)
        if self.halfwidth < 0:
            raise ValueError("kernel halfwidth must be nonnegative")
        if shape is KernelShape.POINT and self.halfwidth != 0.0:
            raise ValueError("point kernel must have halfwidth 0")
        if shape is not KernelShape.POINT and self.halfwidth == 0.0:
            raise ValueError(f"{shape.value} kernel needs a positive halfwidth")

    @property
    def std(self) -> float:
        if self.shape is KernelShape.POINT:
            return 0.0
        if self.shape is KernelShape.UNIFORM:
            return self.halfwidth / math.sqrt(3.0)
        return self.halfwidth / math.sqrt(6.0)

    def check_word(self, y: float) -> None:
        """Feasibility of centering this kernel at word y inside (0, 1)."""
        if not 0.0 < y < 1.0:
            raise DomainError(f"word {y} not strictly inside (0, 1)")
        if self.std >= min(y, 1.0 - y):
            raise ValueError(
                f"kernel std {self.std:.3g} too wide for word {y:.6g}"
            )
        if self.shape is not KernelShape.POINT and (
            y - self.halfwidth <= 0.0 or y + self.halfwidth >= 1.0
        ):
            raise ValueError(
                f"kernel support around word {y:.6g} leaves the unit interval"
            )

    def pdf(self, x, center: float):
        """Density at x of center + noise. Zero for point kernels."""
        x = np.asarray(x, dtype=float)
        h = self.halfwidth
        if self.shape is KernelShape.POINT:
            return np.zeros_like(x)
        if self.shape is KernelShape.UNIFORM:
            inside = np.abs(x - center) < h
            return np.where(inside, 1.0 / (2.0 * h), 0.0)
        t = np.abs(x - center)
        return np.where(t < h, (h - t) / (h * h), 0.0)

    def partial_moments(self, a, b, center) -> Moments:
        """(m0, m1, m2) of the smeared density over (a, b].

        `a`, `b` and `center` broadcast, e.g. atoms down a column against
        cells along a row. Point kernels are Dirac masses: the atom is in
        (a, b] iff a < center <= b, so an atom on an edge belongs to the
        cell on its left.
        """
        a, b, c = (np.asarray(v, dtype=float) for v in (a, b, center))
        h = self.halfwidth
        if self.shape is KernelShape.POINT:
            inside = (a < c) & (c <= b)
            return _moments_out(inside.astype(float), inside * c, inside * (c * c))
        if self.shape is KernelShape.UNIFORM:
            inv = 1.0 / (2.0 * h)
            d1, d2, d3, _ = _clipped_powers(a, b, c - h, c + h)
            return _moments_out(d1 * inv, d2 * inv, d3 * inv)
        # triangular: density (h + s*(x - center)) / h^2 with s = +1 left, -1 right
        inv = 1.0 / (h * h)
        m0 = m1 = m2 = 0.0
        for seg_lo, seg_hi, s in ((c - h, c, 1.0), (c, c + h, -1.0)):
            c0 = h - s * c
            d1, d2, d3, d4 = _clipped_powers(a, b, seg_lo, seg_hi)
            m0 = m0 + (c0 * d1 + s * d2) * inv
            m1 = m1 + (c0 * d2 + s * d3) * inv
            m2 = m2 + (c0 * d3 + s * d4) * inv
        return _moments_out(m0, m1, m2)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw noise values (not shifted by any word)."""
        if self.shape is KernelShape.POINT:
            return np.zeros(size) if size is not None else 0.0
        if self.shape is KernelShape.UNIFORM:
            return rng.uniform(-self.halfwidth, self.halfwidth, size)
        return rng.triangular(-self.halfwidth, 0.0, self.halfwidth, size)


POINT_KERNEL = NoiseKernel(KernelShape.POINT, 0.0)

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MixtureDensity:
    """Weighted beta components plus (possibly noise-smeared) word atoms."""

    continuous_parts: Tuple[Tuple[float, BetaDensity], ...] = ()
    smeared_atoms: Tuple[Tuple[float, float, NoiseKernel], ...] = ()
    _atom_groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cont = tuple((float(w), d) for w, d in self.continuous_parts)
        atoms = tuple((float(w), float(c), k) for w, c, k in self.smeared_atoms)
        object.__setattr__(self, "continuous_parts", cont)
        object.__setattr__(self, "smeared_atoms", atoms)
        total = 0.0
        for w, d in cont:
            if w < 0:
                raise ValueError("negative mixture weight")
            if not isinstance(d, BetaDensity):
                raise TypeError("continuous parts must be BetaDensity")
            total += w
        for w, c, k in atoms:
            if w < 0:
                raise ValueError("negative atom weight")
            if not 0.0 < c < 1.0:
                raise ValueError(f"atom center {c} not strictly inside (0, 1)")
            if w > _WEIGHT_TOL:
                k.check_word(c)
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        # atom weights and centers as columns, one group per noise kernel
        groups = {}
        for w, c, k in atoms:
            groups.setdefault(k, []).append((w, c))
        object.__setattr__(self, "_atom_groups", tuple(
            (k, np.array(wc)[:, :1], np.array(wc)[:, 1:]) for k, wc in groups.items()))

    @classmethod
    def from_beta(cls, d: BetaDensity) -> "MixtureDensity":
        return cls(continuous_parts=((1.0, d),))

    def pdf(self, x):
        """Continuous density at x; point atoms contribute nothing here."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa <= 0.0) or np.any(xa >= 1.0):
            raise DomainError("pdf evaluation requires x strictly inside (0, 1)")
        out = np.zeros_like(xa)
        for w, d in self.continuous_parts:
            out = out + w * d.pdf(xa)
        for w, c, k in self.smeared_atoms:
            out = out + w * k.pdf(xa, c)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def partial_moments(self, a, b) -> Moments:
        """(m0, m1, m2) of the mixture over the cells (a, b].

        `a` and `b` broadcast. The weighted terms are added in declaration
        order (continuous parts, then atoms), the order a scalar loop over
        the parts would use.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape = a.shape
        a, b = a.ravel(), b.ravel()
        ok = (0.0 <= a) & (a < b) & (b <= 1.0)
        if not ok.all():
            k = np.argmin(ok)
            raise ValueError(f"need 0 <= a < b <= 1, got ({a[k]}, {b[k]})")
        # one row of weighted (m0, m1, m2) per part, summed down the rows
        terms = np.empty((len(self.continuous_parts) + len(self.smeared_atoms), 3, a.size))
        for r, (w, d) in enumerate(self.continuous_parts):
            for j, m in enumerate(d.partial_moments(a, b)):
                np.multiply(w, m, out=terms[r, j])
        r = len(self.continuous_parts)
        for kernel, w, c in self._atom_groups:
            rows = terms[r:r + w.shape[0]]
            for j, m in enumerate(kernel.partial_moments(a, b, c)):
                np.multiply(w, m, out=rows[:, j])
            r += w.shape[0]
        m0, m1, m2 = terms.sum(axis=0).reshape((3,) + shape)
        return _moments_out(m0, m1, m2)

    def mass_in(self, a, b):
        return self.partial_moments(a, b)[0]

    def cell_centroid(self, a, b):
        m0, m1, _ = self.partial_moments(a, b)
        return centroid_from_moments(a, b, m0, m1)

    def quantile(self, p, tol: float = 1e-13):
        """Smallest x with mass_in(0, x) >= p, by bisection. An array of
        levels is bisected all at once."""
        p = np.asarray(p, dtype=float)
        if not np.all((0.0 <= p) & (p <= 1.0)):
            raise ValueError("quantile level must be in [0, 1]")
        lo, hi = np.zeros_like(p), np.ones_like(p)
        while np.any(hi - lo > tol):
            mid = 0.5 * (lo + hi)
            up = self.mass_in(0.0, mid) >= p
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        x = 0.5 * (lo + hi)
        return float(x) if x.ndim == 0 else x

    def is_purely_continuous(self) -> bool:
        return all(w <= _WEIGHT_TOL for w, _, _ in self.smeared_atoms)


Density = Union[BetaDensity, MixtureDensity]


def as_mixture(d: Density) -> MixtureDensity:
    if isinstance(d, MixtureDensity):
        return d
    if isinstance(d, BetaDensity):
        return MixtureDensity.from_beta(d)
    raise TypeError(f"not a density: {d!r}")


def eval_pdf(d: Density, x) -> float:
    """Continuous density value at x (atoms excluded; query them via mass_in)."""
    return as_mixture(d).pdf(x)


def mass_in(d: Density, a: float, b: float) -> float:
    """Probability mass of the half-open interval (a, b]."""
    return as_mixture(d).mass_in(a, b)


def cell_centroid(d: Density, a: float, b: float) -> float:
    """Conditional mean E[X | X in (a, b]]."""
    return as_mixture(d).cell_centroid(a, b)


def check_semi_elasticity(d: Density, grid_size: int = 2001):
    """Whether d/dx log pdf is non-increasing on a uniform interior grid.

    Returns (ok, first_violation_x). The slope comparison allows a tiny
    amount of finite-difference noise.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    mix = as_mixture(d)
    x = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    p = np.asarray(mix.pdf(x))
    if np.any(p <= 0.0):
        bad = float(x[np.argmax(p <= 0.0)])
        raise DomainError(f"pdf vanishes at x={bad:.6g}; semi-elasticity undefined")
    slope = np.diff(np.log(p)) / np.diff(x)
    rises = np.nonzero(np.diff(slope) > 1e-9)[0]
    if rises.size == 0:
        return True, None
    return False, float(x[rises[0] + 1])


def hellinger_beta(p: BetaDensity, q: BetaDensity) -> float:
    """Beta-pair dissimilarity 1 - B((a1+a2)/2, (b1+b2)/2) / sqrt(B(a1,b1) B(a2,b2)).

    This is one minus the Bhattacharyya coefficient, i.e. the squared
    Hellinger distance under the textbook convention; we keep this form
    because it is the quantity the downstream similarity analysis plots.
    """
    a1, b1 = p.alpha, p.beta_param
    a2, b2 = q.alpha, q.beta_param
    log_bc = special.betaln((a1 + a2) / 2.0, (b1 + b2) / 2.0) - 0.5 * (
        special.betaln(a1, b1) + special.betaln(a2, b2)
    )
    return float(1.0 - math.exp(log_bc))
