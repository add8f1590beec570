"""Regular scalar quantizers and Lloyd-Max design on (0, 1).

A regular quantizer has cells (a_{k-1}, a_k] covering (0, 1) with each
word strictly inside its cell. Design alternates the nearest-neighbor
boundary rule (midpoints of adjacent words, squared-error case) with
the centroid rule against a MixtureDensity source.

The design loop advances a (starts, levels) array of words: every start
of a multi-start design takes its iteration in the same moment-kernel
call, and a start leaves the batch once it settles. Each start's
arithmetic is elementwise along its own row, so a start run in a batch
gives bit for bit the result it gives alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .densities import (
    EMPTY_CELL_MASS,
    Density,
    EmptyCellError,
    MixtureDensity,
    Moments,
    as_mixture,
    centroid_from_moments,
)

# minimal gap used to keep words strictly interior / strictly increasing
_SEP = 1e-14

# tolerance and iteration cap of a single `lloyd_max` design
_TOL = 1e-10
_MAX_ITERS = 10_000
# every multi-start design (the game's best responses) runs to this inner
# tolerance, well below the sweep tolerance, or this iteration cap
_MULTI_TOL = 1e-11
_MULTI_MAX_ITERS = 20_000


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
        if not np.all(b[:-1] < b[1:]):  # also rejects nan
            raise ValueError("boundaries must be strictly increasing")
        if not (np.all(b[:-1] < w) and np.all(w < b[1:])):  # also rejects nan
            raise ValueError("each word must lie strictly inside its cell")

    @property
    def levels(self) -> int:
        return self.words.size

    def closed_cell_index(self, x: np.ndarray) -> np.ndarray:
        """Cell indices for an array x in [0, 1]: cells are (a_k, a_{k+1}],
        but a draw of 0.0 falls in the first cell and 1.0 in the last. The
        index is the number of interior boundaries below x; NaN is outside
        the domain."""
        k = np.zeros(np.shape(x), np.intp)
        for b in self.boundaries[1:-1].tolist():
            k += x > b
        return k


def _midpoints(words: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Boundaries 0, midpoints of adjacent words, 1, along the last axis;
    `out`, if given, already holds the 0 and 1 and takes the midpoints."""
    if out is None:
        out = np.empty(words.shape[:-1] + (words.shape[-1] + 1,))
        out[..., 0], out[..., -1] = 0.0, 1.0
    mid = np.add(words[..., :-1], words[..., 1:], out=out[..., 1:-1])
    np.divide(mid, 2.0, out=mid)
    return out


def quantizer_from_words(words: Sequence[float]) -> RegularQuantizer:
    """The quantizer with midpoint (nearest-neighbor) boundaries. Each
    word strictly inside its midpoint cell means strictly increasing
    words in (0, 1); RegularQuantizer rejects anything else."""
    w = np.asarray(words, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("need at least one word")
    return RegularQuantizer(_midpoints(w), w)


def _loss(words: np.ndarray, moments: Moments) -> np.ndarray:
    """sum_k (m2 - 2 y m1 + y^2 m0) along the last axis, added left to
    right: multi-start selection compares losses of starts that reach the
    same optimum, and those tie to rounding, so the order of the sum is
    kept fixed."""
    m0, m1, m2 = moments
    return np.cumsum(m2 - 2.0 * words * m1 + words * words * m0, axis=-1)[..., -1]


def quantization_loss(q: RegularQuantizer, d: Density) -> float:
    """Expected squared error sum_k int_(cell k) (x - y_k)^2 dP."""
    return float(_loss(q.words, as_mixture(d).partial_moments(q.boundaries)))


def centroid_residual(q: RegularQuantizer, d: Density) -> float:
    """Max over cells of |centroid - word|; zero iff the centroid condition holds."""
    centroids = as_mixture(d).cell_centroid(q.boundaries)
    return float(np.max(np.abs(centroids - q.words)))


@dataclass
class LloydMaxResult:
    """One Lloyd-Max run: its final quantizer and that quantizer's loss
    against the design source, plus how the run ended."""

    quantizer: RegularQuantizer
    converged: bool
    iterations: int
    final_move: float
    loss: float
    empty_cell_events: int = 0


def _resolve_empty_cells(
    words: np.ndarray, mix: MixtureDensity,
) -> Tuple[np.ndarray, np.ndarray, Moments, int]:
    """Move words of starved cells into the cell with the largest squared
    error about its centroid, then re-sort.

    Returns the (possibly new) words, their boundaries and cell moments
    (m0, m1, m2), and the number of relocation events; raises
    EmptyCellError if a cell is still starved after one relocation per word.
    """
    events = 0
    b = _midpoints(words)
    moments = mix.partial_moments(b)
    while True:
        m0, m1, m2 = moments
        starved = np.nonzero(m0 < EMPTY_CELL_MASS)[0]
        if starved.size == 0:
            return words, b, moments, events
        k = int(starved[0])
        if events == words.size:
            raise EmptyCellError(f"cell ({b[k]}, {b[k + 1]}] carries mass {m0[k]:.3g}")
        # split the cell with the largest error, not the heaviest one: a
        # cell holding a single atom is heavy but has nothing to split
        fat = int(np.argmax(m2 - m1 * m1 / np.maximum(m0, EMPTY_CELL_MASS)))
        # park the starved word in the wider half of that cell, between
        # its centroid and its farther boundary
        lo, hi = b[fat], b[fat + 1]
        mid = centroid_from_moments(lo, hi, m0[fat], m1[fat])
        new = 0.5 * (mid + (lo if abs(mid - lo) > abs(hi - mid) else hi))
        words = np.sort(np.concatenate((np.delete(words, k), [new])))
        words = _separate(words)
        events += 1
        b = _midpoints(words)
        moments = mix.partial_moments(b)


def _separate(words: np.ndarray) -> np.ndarray:
    """Nudge coincident or boundary-touching words apart along the last
    axis: the result is strictly increasing inside [_SEP, 1 - _SEP]. A
    forward pass lifts each tie or inversion above the word before it,
    then a backward pass lowers each word that rose onto the next one
    (words stacked at 1) below it; where the forward pass alone ends
    strictly increasing, the backward pass changes no bit."""
    w = np.minimum(np.maximum(words, _SEP), 1.0 - _SEP)
    if np.logical_and.reduce(w[..., 1:] > w[..., :-1], axis=None):
        return w  # the passes below would change nothing
    for k in range(1, w.shape[-1]):
        w[..., k] = np.where(w[..., k] <= w[..., k - 1], w[..., k - 1] + _SEP, w[..., k])
    w[..., -1] = np.minimum(w[..., -1], 1.0 - _SEP)
    for k in range(w.shape[-1] - 2, -1, -1):
        w[..., k] = np.where(w[..., k] >= w[..., k + 1], w[..., k + 1] - _SEP, w[..., k])
    return w


def lloyd_max(d: Density, levels: int) -> LloydMaxResult:
    """Alternate midpoint boundaries and centroid words until they move less
    than `_TOL`, from the quantile start of `multi_start_lloyd_max` (words
    at the source quantiles (2k-1)/(2M)), for at most `_MAX_ITERS` iterations.

    Words of starved cells are relocated into the cell with the largest
    error and the event counted; a cell still starved after `levels`
    relocations (e.g. fewer atoms than levels and no continuous part to
    feed it) raises EmptyCellError.

    Each iteration makes one moment-kernel call for (m0, m1) at the
    current words, which gives the empty-cell check and the centroids;
    one more call prices the final quantizer as `loss`.
    """
    mix = as_mixture(d)
    return _run_starts(mix, _multi_start_inits(mix, levels, 1, None), _MAX_ITERS, _TOL)[0]


def _run_starts(mix: MixtureDensity, words: np.ndarray, max_iters: int,
                tol: float) -> List[LloydMaxResult]:
    """Lloyd-Max from each row of the (starts, levels) array `words`.

    All unsettled rows take each iteration together: one kernel call for
    (m0, m1) over their cells, relocation (pricing m2 too) only in rows
    with a starved cell, then the centroid step on the whole array. A
    row leaves once its move is below `tol`, or stops unconverged after
    `max_iters`. One last kernel call prices every row's final iterate.
    Rows must be strictly increasing inside (0, 1), as `_separate` leaves
    them, `max_iters` at least 1 and `tol` positive and finite; `words` is
    overwritten with the final iterates.
    """
    n = words.shape[0]
    events = [0] * n
    iterations = np.full(n, max_iters)
    moves = np.full(n, np.inf)
    rows = np.arange(n)  # the row of `words` that each unsettled start came from
    w, b = words.copy(), _midpoints(words)
    for it in range(1, max_iters + 1):
        m0, m1 = mix.partial_moments(b, orders=2)
        if np.minimum.reduce(m0, axis=None) < EMPTY_CELL_MASS:
            for j in np.nonzero((m0 < EMPTY_CELL_MASS).any(axis=1))[0]:
                w[j], b[j], (m0[j], m1[j], _m2), e = _resolve_empty_cells(w[j], mix)
                events[rows[j]] += e
        # centroid_from_moments, whose starved test is the one above
        new = _separate(np.minimum(np.maximum(m1 / m0, b[:, :-1]), b[:, 1:]))
        move = np.maximum.reduce(np.abs(new - w), axis=1)
        if np.minimum.reduce(move) < tol:
            done = move < tol
            left, keep = rows[done], ~done
            words[left], moves[left], iterations[left] = new[done], move[done], it
            rows, new, move, b = rows[keep], new[keep], move[keep], b[keep]
            if rows.size == 0:
                break
        w = new
        _midpoints(w, out=b)
    words[rows], moves[rows] = new, move  # the rows stopped by max_iters

    final = _loss(words, mix.partial_moments(_midpoints(words))).tolist()
    return [
        LloydMaxResult(quantizer_from_words(words[r]), bool(moves[r] < tol),
                       int(iterations[r]), float(moves[r]), final[r], events[r])
        for r in range(n)
    ]


def _quantile_init(mix: MixtureDensity, levels: int) -> np.ndarray:
    """Source quantiles at the levels (2k+1)/(2M), k = 0..M-1."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    return mix.quantile((2 * np.arange(levels) + 1) / (2.0 * levels))


def multi_start_lloyd_max(
    d: Density,
    levels: int,
    n_starts: int,
    warm_start: Optional[RegularQuantizer] = None,
) -> LloydMaxResult:
    """Best of several Lloyd-Max runs: the optional warm start, the
    quantile start, and jittered quantile starts, `n_starts` cold starts
    in all, each run to `_MULTI_TOL` or `_MULTI_MAX_ITERS` iterations.
    The starts run as one batch, each exactly as it would run alone.
    Returns the minimum-loss result; on a tie the first start in that
    order wins, so a warm start keeps its place unless a cold start is
    strictly better."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    mix = as_mixture(d)
    inits = _multi_start_inits(mix, levels, n_starts, warm_start)
    return min(_run_starts(mix, inits, _MULTI_MAX_ITERS, _MULTI_TOL),
               key=lambda res: res.loss)


def _multi_start_inits(mix: MixtureDensity, levels: int, n_starts: int,
                       warm_start: Optional[RegularQuantizer]) -> np.ndarray:
    """(starts, levels) initial words, each row strictly increasing: the
    warm start if given, the quantile start, then jittered quantile starts
    up to `n_starts` cold starts."""
    quant = _quantile_init(mix, levels)
    inits = []
    if warm_start is not None:
        if warm_start.levels != levels:
            raise ValueError("warm start has wrong number of levels")
        inits.append(warm_start.words)
    inits.append(quant)
    # the jitter seed is a constant, so a design, and with it a solve, is
    # deterministic: the same source always gets the same starts
    rng = np.random.default_rng(0)
    while len(inits) < n_starts + (warm_start is not None):
        jitter = rng.uniform(-0.5, 0.5, levels) / (2.0 * levels)
        cand = np.sort(np.clip(quant + jitter, 1e-6, 1.0 - 1e-6))
        inits.append(_separate(cand))
    return _separate(np.array(inits))
