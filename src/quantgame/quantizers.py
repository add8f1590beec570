"""Regular scalar quantizers and Lloyd-Max design on (0, 1).

A regular quantizer has cells (a_{k-1}, a_k] covering (0, 1) with each
word strictly inside its cell. Design alternates the nearest-neighbor
boundary rule (midpoints of adjacent words, squared-error case) with
the centroid rule against a MixtureDensity source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .densities import (
    EMPTY_CELL_MASS,
    Density,
    DomainError,
    MixtureDensity,
    Moments,
    as_mixture,
    centroid_from_moments,
)

# minimal gap used to keep words strictly interior / strictly increasing
_SEP = 1e-14


@dataclass(frozen=True)
class RegularQuantizer:
    """Ordered cell boundaries 0 = a_0 < ... < a_M = 1 and interior words."""

    boundaries: np.ndarray
    words: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        w = np.asarray(self.words, dtype=float)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "words", w)
        if b.ndim != 1 or w.ndim != 1 or b.size != w.size + 1:
            raise ValueError("need M words and M+1 boundaries")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("boundaries must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if np.any(w <= b[:-1]) or np.any(w >= b[1:]):
            raise ValueError("each word must lie strictly inside its cell")

    @property
    def levels(self) -> int:
        return self.words.size

    def cell_index(self, x) -> np.ndarray:
        """0-based cell index for x in (0, 1); cells are (a_k, a_{k+1}]."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa <= 0.0) or np.any(xa >= 1.0):
            raise DomainError("quantizer input must be strictly inside (0, 1)")
        idx = np.searchsorted(self.boundaries, xa, side="left") - 1
        return idx if np.ndim(x) else int(idx)

    def quantize(self, x):
        """Map x to (cell index, word value)."""
        idx = self.cell_index(x)
        return idx, self.words[idx] if np.ndim(x) else float(self.words[idx])

    def __call__(self, x):
        return self.quantize(x)[1]


def _midpoints(words: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], (words[:-1] + words[1:]) / 2.0, [1.0]))


def nearest_neighbor_boundaries(words: Sequence[float]) -> np.ndarray:
    """Midpoint boundaries for strictly increasing words in (0, 1)."""
    w = np.asarray(words, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("need at least one word")
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise ValueError("words must lie strictly inside (0, 1)")
    if np.any(np.diff(w) <= 0):
        raise ValueError("words must be strictly increasing")
    return _midpoints(w)


def quantizer_from_words(words: Sequence[float]) -> RegularQuantizer:
    return RegularQuantizer(nearest_neighbor_boundaries(words), np.asarray(words, float))


def _cell_moments(mix: MixtureDensity, boundaries: np.ndarray) -> Moments:
    return mix.partial_moments(boundaries[:-1], boundaries[1:])


def _loss(words: np.ndarray, moments: Moments) -> float:
    """sum_k (m2 - 2 y m1 + y^2 m0), added left to right: multi-start
    selection compares losses of starts that reach the same optimum, and
    those tie to rounding, so the order of the sum is kept fixed."""
    m0, m1, m2 = moments
    return float(np.cumsum(m2 - 2.0 * words * m1 + words * words * m0)[-1])


def quantization_loss(q: RegularQuantizer, d: Density) -> float:
    """Expected squared error sum_k int_(cell k) (x - y_k)^2 dP."""
    return _loss(q.words, _cell_moments(as_mixture(d), q.boundaries))


def centroid_residual(q: RegularQuantizer, d: Density) -> float:
    """Max over cells of |centroid - word|; zero iff the centroid condition holds."""
    b = q.boundaries
    centroids = as_mixture(d).cell_centroid(b[:-1], b[1:])
    return float(np.max(np.abs(centroids - q.words)))


@dataclass
class LloydMaxResult:
    quantizer: RegularQuantizer
    converged: bool
    iterations: int
    final_move: float
    loss_history: List[float] = field(default_factory=list)
    empty_cell_events: int = 0

    @property
    def loss(self) -> float:
        return self.loss_history[-1]


def _resolve_empty_cells(
    words: np.ndarray, moments: Moments, mix: MixtureDensity,
) -> Tuple[np.ndarray, np.ndarray, Moments, int]:
    """Move words of starved cells into the fattest cell, then re-sort.

    `moments` are the cell moments of `words`. Returns the (possibly
    new) words, their boundaries and cell moments, and the number of
    relocation events.
    """
    events = 0
    b = _midpoints(words)
    for _ in range(words.size):
        masses = moments[0]
        starved = np.nonzero(masses < EMPTY_CELL_MASS)[0]
        if starved.size == 0:
            break
        k = int(starved[0])
        fat = int(np.argmax(masses))
        # split the fattest cell: park the starved word between the fat
        # cell's word and its nearer boundary
        lo, hi = b[fat], b[fat + 1]
        mid = centroid_from_moments(lo, hi, masses[fat], moments[1][fat])
        new = 0.5 * (mid + (lo if abs(mid - lo) > abs(hi - mid) else hi))
        words = np.sort(np.concatenate((np.delete(words, k), [new])))
        words = _separate(words)
        events += 1
        b = _midpoints(words)
        moments = _cell_moments(mix, b)
    return words, b, moments, events


def _separate(words: np.ndarray) -> np.ndarray:
    """Nudge coincident or boundary-touching words apart."""
    w = np.clip(words, _SEP, 1.0 - _SEP)
    for k in range(1, w.size):
        if w[k] <= w[k - 1]:
            w[k] = w[k - 1] + _SEP
    return np.minimum(w, 1.0 - _SEP)


def lloyd_max(
    d: Density,
    levels: Optional[int] = None,
    init: Optional[Sequence[float]] = None,
    max_iters: int = 10_000,
    tol: float = 1e-10,
) -> LloydMaxResult:
    """Alternate midpoint boundaries and centroid words until words settle.

    `init` defaults to the source quantiles at levels (2k-1)/(2M). The
    iteration never raises on starved cells; their words are relocated
    and the event counted.

    Each iteration makes one moment-kernel call at the current words; the
    same moments give the empty-cell check, the centroids, and the loss of
    the previous iterate, so `loss_history[n - 1]` is the loss after
    iteration n and only the last entry costs an extra call.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    mix = as_mixture(d)
    if init is None:
        if levels is None:
            raise ValueError("need levels or an explicit init")
        init = _quantile_init(mix, levels)
    words = _separate(np.asarray(init, dtype=float))
    if levels is not None and words.size != levels:
        raise ValueError(f"init has {words.size} words, expected {levels}")
    if np.any(np.diff(words) <= 0):
        raise ValueError("init words must be strictly increasing")

    events_total = 0
    loss_history: List[float] = []
    move = np.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        moments = _cell_moments(mix, _midpoints(words))
        if it > 1:
            loss_history.append(_loss(words, moments))
        words, b, moments, events = _resolve_empty_cells(words, moments, mix)
        events_total += events
        new_words = _separate(centroid_from_moments(b[:-1], b[1:], moments[0], moments[1]))
        move = float(np.max(np.abs(new_words - words)))
        words = new_words
        if move < tol:
            converged = True
            break

    q = quantizer_from_words(words)
    loss_history.append(quantization_loss(q, mix))
    return LloydMaxResult(q, converged, it, move, loss_history, events_total)


def _quantile_init(mix: MixtureDensity, levels: int) -> np.ndarray:
    """Source quantiles at the levels (2k+1)/(2M), k = 0..M-1."""
    return mix.quantile((2 * np.arange(levels) + 1) / (2.0 * levels))


def multi_start_lloyd_max(
    d: Density,
    levels: int,
    n_starts: int = 8,
    seed: int = 0,
    warm_start: Optional[RegularQuantizer] = None,
    max_iters: int = 10_000,
    tol: float = 1e-10,
) -> LloydMaxResult:
    """Best of several Lloyd-Max runs: quantile init, jittered variants,
    and an optional warm start. Returns the minimum-loss result."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    mix = as_mixture(d)
    quant = _quantile_init(mix, levels)
    inits = []
    if warm_start is not None:
        if warm_start.levels != levels:
            raise ValueError("warm start has wrong number of levels")
        inits.append(warm_start.words.copy())
    inits.append(quant)
    rng = np.random.default_rng(seed)
    while len(inits) < n_starts + (warm_start is not None):
        jitter = rng.uniform(-0.5, 0.5, levels) / (2.0 * levels)
        cand = np.sort(np.clip(quant + jitter, 1e-6, 1.0 - 1e-6))
        inits.append(_separate(cand))

    best: Optional[LloydMaxResult] = None
    for init in inits:
        res = lloyd_max(mix, levels=levels, init=init, max_iters=max_iters, tol=tol)
        if best is None or res.loss < best.loss:
            best = res
    return best
