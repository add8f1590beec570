"""Probability densities on the open unit interval.

Beta sources, additive-noise kernels, and mixed continuous+atomic
mixtures. All interval queries use the half-open convention (a, b],
and partial moments are computed in closed form (regularized
incomplete beta for the continuous parts, polynomial antiderivatives
for the noise kernels), which keeps errors near machine precision.

The moment kernel `partial_moments(boundaries, orders)` takes cell
boundaries along the last axis and returns the first `orders` of
(m0, m1, m2), stacked, for every cell of one quantizer or a batch. It is
an input check before `MixtureDensity._core`, which Lloyd-Max and
`quantile` enter directly with a terms buffer they keep. Each beta part
prices all orders at every boundary in one `betainc` call; all word
atoms, which share one noise kernel, form one atoms x cells array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Tuple

import numpy as np
from scipy import special

# below this mass a cell is considered empty
EMPTY_CELL_MASS = 1e-12


# the first `orders` of (m0, m1, m2), stacked down the first axis
Moments = np.ndarray


def _clipped_powers(a, b, lo, hi, n):
    """(u^k - l^k) / k for k = 1..n over (l, u] = (a, b] clipped to (lo, hi];
    all are 0 where the intervals do not overlap."""
    l = np.maximum(a, lo)
    u = np.maximum(np.minimum(b, hi), l)
    up, lp = [1.0, u], [1.0, l]  # x^k = x^(k // 2) * x^(k - k // 2)
    for k in range(2, n + 1):
        up.append(up[k // 2] * up[k - k // 2])
        lp.append(lp[k // 2] * lp[k - k // 2])
    return [(up[k] - lp[k]) / k for k in range(1, n + 1)]


class DomainError(ValueError):
    """A point, or the noise support around a word, outside the open unit interval."""


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
    return np.minimum(np.maximum(m1 / m0, a), b)


@dataclass(frozen=True)
class BetaDensity:
    """Beta(alpha, beta_param) law on (0, 1)."""

    alpha: float
    beta_param: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta_param < math.inf):
            raise ValueError(
                "beta shape parameters must be positive and finite, got "
                f"({self.alpha}, {self.beta_param})"
            )

    @cached_property
    def _moment_terms(self) -> Tuple[np.ndarray, np.ndarray]:
        """alpha + j and s_j, j < 3: moment j over (a, b] is s_j (I_b - I_a)(alpha + j, beta)."""
        al, be = self.alpha, self.beta_param
        s1 = 1.0 * al / (al + be)  # s_{j+1} = s_j (alpha + j) / (alpha + beta + j), s_0 = 1
        return al + np.arange(3.0), np.array([1.0, s1, s1 * (al + 1) / (al + be + 1)])


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
        if not 0 <= self.halfwidth < math.inf:
            raise ValueError(f"kernel halfwidth must be finite and nonnegative, "
                             f"got {self.halfwidth}")
        if shape is KernelShape.POINT and self.halfwidth != 0.0:
            raise ValueError("point kernel must have halfwidth 0")
        if shape is not KernelShape.POINT and self.halfwidth == 0.0:
            raise ValueError(f"{shape.value} kernel needs a positive halfwidth")

    def check_words(self, words: np.ndarray) -> None:
        """Raise DomainError unless the kernel centered at each word keeps
        its support (for point kernels, the word) strictly inside (0, 1)."""
        fits = (words - self.halfwidth > 0.0) & (words + self.halfwidth < 1.0)
        if not fits.all():
            raise DomainError(f"noise of halfwidth {self.halfwidth:g} around word "
                              f"{words[np.argmin(fits)]:.6g} leaves the unit interval")

    def partial_moments(self, a, b, center, orders: int) -> Moments:
        """The first `orders` of (m0, m1, m2) of the smeared density over (a, b].

        `a`, `b` and `center` are float arrays (or numbers) that broadcast,
        e.g. cells against a last axis of atoms. Only uniform and triangular
        kernels smear; `MixtureDensity`'s core prices point atoms itself.
        """
        h = self.halfwidth
        if self.shape is KernelShape.POINT:
            raise ValueError("a point kernel has no smeared moments")
        if self.shape is KernelShape.UNIFORM:
            d = _clipped_powers(a, b, center - h, center + h, orders)
            return np.array(d) * (1.0 / (2.0 * h))
        # triangular: density (h + s*(x - center)) / h^2 with s = +1 left, -1 right
        inv = 1.0 / (h * h)
        m = 0.0
        for seg_lo, seg_hi, s in ((center - h, center, 1.0), (center, center + h, -1.0)):
            d = np.array(_clipped_powers(a, b, seg_lo, seg_hi, orders + 1))
            m = m + ((h - s * center) * d[:-1] + s * d[1:]) * inv
        return m

    def sample(self, rng: np.random.Generator, size):
        """Draw noise values (not shifted by any word) from a uniform or
        triangular kernel; callers skip the point kernel."""
        if self.shape is KernelShape.UNIFORM:
            return rng.uniform(-self.halfwidth, self.halfwidth, size)
        return rng.triangular(-self.halfwidth, 0.0, self.halfwidth, size)


POINT_KERNEL = NoiseKernel(KernelShape.POINT, 0.0)

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # a field-wise == would compare arrays
class MixtureDensity:
    """Weighted beta components plus word atoms, every atom smeared by the
    same noise kernel. Atom k has weight `atom_weights[k]` and sits at
    `atom_centers[k]`; both are stored as read-only 1-D float arrays."""

    continuous_parts: Tuple[Tuple[float, BetaDensity], ...] = ()
    atom_weights: np.ndarray = ()
    atom_centers: np.ndarray = ()
    noise: NoiseKernel = POINT_KERNEL

    def __post_init__(self):
        cont = tuple((float(w), d) for w, d in self.continuous_parts)
        weights = np.array(self.atom_weights, dtype=float)
        centers = np.array(self.atom_centers, dtype=float)
        weights.flags.writeable = centers.flags.writeable = False
        object.__setattr__(self, "continuous_parts", cont)
        object.__setattr__(self, "atom_weights", weights)
        object.__setattr__(self, "atom_centers", centers)
        if weights.ndim != 1 or weights.shape != centers.shape:
            raise ValueError("atom weights and centers must be 1-D and of equal length")
        if not all(isinstance(d, BetaDensity) for _w, d in cont):
            raise TypeError("continuous parts must be BetaDensity")
        if any(w < 0 for w, _d in cont) or np.any(weights < 0):
            raise ValueError("negative mixture weight")
        if not np.all((0.0 < centers) & (centers < 1.0)):
            raise ValueError("atom centers must be strictly inside (0, 1)")
        self.noise.check_words(centers[weights > _WEIGHT_TOL])
        total = sum(w for w, _d in cont) + weights.sum()
        if not abs(total - 1.0) <= 1e-9:  # also rejects a nan weight
            raise ValueError(f"mixture weights sum to {total}, expected 1")

    @classmethod
    def from_beta(cls, d: BetaDensity) -> "MixtureDensity":
        return cls(continuous_parts=((1.0, d),))

    def partial_moments(self, boundaries, orders: int = 3) -> Moments:
        """The first `orders` of (m0, m1, m2) of the mixture over the cells
        (b_k, b_{k+1}] between consecutive boundaries along the last axis.
        The weighted terms are added in declaration order (continuous
        parts, then atoms), as a scalar loop over the parts adds them."""
        if orders not in (1, 2, 3):
            raise ValueError(f"orders must be 1, 2 or 3, got {orders}")
        b = np.asarray(boundaries, dtype=float)
        if b.ndim == 0 or b.shape[-1] < 2:
            raise ValueError(f"need >= 2 boundaries on the last axis, got shape {b.shape}")
        a, z = b[..., :-1], b[..., 1:]
        # increasing rows, all in [0, 1] (ufunc reductions: fewer calls than .all())
        if not (np.logical_and.reduce(a < z, axis=None) and 0.0 <= np.minimum.reduce(b, axis=None)
                and np.maximum.reduce(b, axis=None) <= 1.0):
            k = np.argmin((0.0 <= a) & (a < z) & (z <= 1.0))
            raise ValueError(f"need 0 <= a < b <= 1, got ({a.flat[k]}, {z.flat[k]})")
        rows = b.reshape(-1, b.shape[-1])
        m = self._core(rows, orders, self._buffer(orders, rows.shape[0], a.shape[-1]), False)
        return m.reshape((orders,) + a.shape)

    @cached_property
    def _parts(self):
        """The core's constants: each beta part's (w, alpha + j, s_j, beta), the
        atom centers, and their weights; point atoms weigh w, c w and (c c) w,
        their m0, m1 and m2 in the cell that holds them."""
        betas = tuple((w, shapes[:, None, None], scales[:, None, None], d.beta_param)
                      for w, d in self.continuous_parts for shapes, scales in [d._moment_terms])
        c, w = self.atom_centers[:, None, None], self.atom_weights[:, None, None]
        if self.noise.shape is KernelShape.POINT:
            w = np.stack((w, c * w, (c * c) * w))
        return betas, c, w

    def _buffer(self, orders, rows, cells):
        """An empty (orders, parts, rows, cells) array for `_core`'s terms."""
        return np.empty((orders, len(self.continuous_parts) + self.atom_weights.size, rows, cells))

    def _core(self, b, orders, terms, from_zero):
        """`partial_moments` of valid 2-D (rows, boundaries) `b`, unchecked, in a
        `_buffer` at least that large; with `from_zero`, of the cells (0, x]
        for each x in `b`, as the boundary pair (0, x) gives them (I_0 is 0).
        A point atom at c is in (a, b] iff a < c <= b: an edge's atom goes left."""
        betas, centers, weights = self._parts
        t = terms[:orders, :, :b.shape[0]]
        a, z = (0.0, b) if from_zero else (b[:, :-1], b[:, 1:])
        for r, (w, shapes, scales, beta) in enumerate(betas):
            cdf = special.betainc(shapes[:orders], beta, b)
            if not from_zero:
                cdf = np.subtract(cdf[:, :, 1:], cdf[:, :, :-1], out=t[:, r])
            np.multiply(w, np.multiply(scales[:orders], cdf, out=t[:, r]), out=t[:, r])
        n = len(betas)
        if n < t.shape[1]:  # the atoms, down the parts axis after the beta parts
            if self.noise.shape is KernelShape.POINT:
                np.multiply((a < centers) & (centers <= z), weights[:orders], out=t[:, n:])
            else:
                np.multiply(self.noise.partial_moments(a, z, centers, orders), weights,
                            out=t[:, n:])
        # unlike sum, accumulate never switches to pairwise summation
        return np.add.accumulate(t, axis=1)[:, -1]

    def quantile(self, p):
        """Smallest x with mass (0, x] >= p, by bisection to a bracket of
        2^-44 < 1e-13; an array of levels is bisected all at once. One
        kernel call prices the 15 inner points of each bracket's 1/16
        grid, which hold the midpoints of the next four steps, and the
        steps are replayed from those prices. The points are exact
        dyadics, so each step branches as a one-point bisection would."""
        p = np.asarray(p, dtype=float)
        if not np.all((0.0 <= p) & (p <= 1.0)):
            raise ValueError("quantile level must be in [0, 1]")
        rows = np.arange(p.size)
        lo, hi = np.zeros(p.size), np.ones(p.size)
        terms, level = self._buffer(1, p.size, 15), p.reshape(-1, 1)
        for _ in range(11):  # 44 exact halvings: the bracket is 2^-44 < 1e-13
            grid = lo[:, None] + (hi - lo)[:, None] * (np.arange(17) / 16.0)
            up = self._core(grid[:, 1:-1], 1, terms, True)[0] >= level
            # keep the lower half of [grid[j], grid[j + 2 half]] iff up at its midpoint
            j = np.zeros(p.size, dtype=int)
            for half in (8, 4, 2, 1):
                j = np.where(up[rows, j + half - 1], j, j + half)
            lo, hi = grid[rows, j], grid[rows, j + 1]
        return (0.5 * (lo + hi)).reshape(p.shape)


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
