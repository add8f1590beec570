"""Path-sampling simulator of signal propagation, empirical loss
decomposition, and translation-chain / shared-vocabulary analysis.

Signals originate at some agent's physical source and hop through the
network, being re-quantized (and noised) at every transmission. Sampling
follows per-hop index arrays of the samples still in flight, grouped per
agent, draws one routing uniform per hop for each sample in flight only,
and reads the generator in a fixed order, so a seed fixes every sample.
The estimators sample in blocks of at most BLOCK signals, read one after
another from one generator, and merge per-block counts, means and sums of
squared deviations (Chan, Golub & LeVeque 1979), so their memory does not
grow with the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from .densities import DomainError, NoiseKernel, POINT_KERNEL, KernelShape
from .quantizers import RegularQuantizer

if TYPE_CHECKING:  # game imports this module
    from .game import GameState, QuantizationGame

DEPTH_CAP = 64

# most signals an estimator samples at once
BLOCK = 2 ** 16

# keep clamped samples strictly inside the open interval
_CLAMP = 1e-12


class NoChainError(LookupError):
    """No communication chain exists between the requested agents."""


def _route(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per uniform, how many of the ascending `edges` are <= it, by counting."""
    k = np.zeros(u.shape, np.min_scalar_type(edges.size))
    for e in edges.tolist():
        k += u >= e
    return k


def sample_paths(i: int, state: GameState, game: QuantizationGame, n: int,
                 rng: np.random.Generator):
    """Vectorized batch of n signals observed at agent i.

    The forward walk follows only the samples in flight, by ascending
    index, and keeps per hop the (indices, agents) of those that moved;
    back-propagation replays these hops in reverse. The generator is read
    in a fixed order: per hop, one uniform for each sample in flight,
    beta draws per terminal agent in agent order, then noise per hop from
    the last, each over samples in index order. Hops never follow a
    zero-weight edge, even where a row sums to slightly less than 1.

    Returns (x_true, x_obs, path_lengths, n_truncated, n_clamped).
    Truncated samples carry NaN values and must be masked by callers.
    """
    P = game.comm.entries
    cum = np.cumsum(P, axis=1)
    n_agents = game.n_agents
    last_edge = n_agents - 1 - np.argmax(P[:, ::-1] > 0.0, axis=1)

    idx = np.arange(n)  # samples in flight, ascending
    cur = np.full(n, i, dtype=np.int64)  # their current agents
    terminal_agent = cur.copy()  # latest agent of every sample
    lengths = np.ones(n, dtype=np.int64)
    hops = []  # per hop: (indices, new agents) of the samples that moved
    for hop in range(DEPTH_CAP):
        if idx.size == 0:
            break
        u = rng.random(idx.size)
        nxt = np.empty_like(cur)
        if hop == 0:  # every sample is at agent i
            nxt[:] = _route(cum[i, :last_edge[i]], u)
        else:
            for a in np.flatnonzero(np.bincount(cur, minlength=n_agents)):
                m = cur == a
                nxt[m] = _route(cum[a, :last_edge[a]], u[m])
        moved = np.flatnonzero(nxt != cur)
        idx, cur = idx[moved], nxt[moved]
        terminal_agent[idx] = cur
        lengths[idx] += 1
        hops.append((idx, cur))
    n_truncated = idx.size
    terminal_agent[idx] = -1  # still in flight after DEPTH_CAP hops

    # physical draw at each sample's terminal agent
    x = np.full(n, np.nan)
    for a in range(n_agents):
        m = terminal_agent == a
        if m.any():
            d = game.agents[a].physical
            x[m] = rng.beta(d.alpha, d.beta_param, int(m.sum()))

    # back to the receiver: quantize at each transmitter, then add noise
    value = x.copy()
    n_clamped = 0
    for moved, transmitter in reversed(hops):
        if n_truncated:
            keep = terminal_agent[moved] >= 0
            moved, transmitter = moved[keep], transmitter[keep]
        if moved.size == 0:
            continue
        v = value[moved]
        for a in np.flatnonzero(np.bincount(transmitter, minlength=n_agents)):
            ma = transmitter == a
            q = state.quantizers[a]
            v[ma] = q.words[q.closed_cell_index(v[ma])]
        if game.noise.shape is not KernelShape.POINT:
            noised = v + game.noise.sample(rng, moved.size)
            v = np.clip(noised, _CLAMP, 1.0 - _CLAMP)
            n_clamped += int(np.sum(noised != v))
        value[moved] = v

    return x, value, lengths, n_truncated, n_clamped


@dataclass
class LossReport:
    """Empirical loss decomposition: total = quantization + communication
    + cross, an exact per-sample identity."""

    total: float
    quantization: float
    communication: float
    cross: float
    total_se: float
    quantization_se: float
    communication_se: float
    cross_se: float
    n_samples: int
    n_truncated: int = 0
    n_clamped: int = 0


def _observed(i: int, state: GameState, game: QuantizationGame, n: int, seed: int):
    """n signals sampled at agent i in blocks of at most BLOCK, read one
    block after another from one generator. Yields per block, less its
    truncated samples: (x_true, x_obs, agent i's cell of each x_obs,
    n_truncated, n_clamped)."""
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    q = state.quantizers[i]
    for start in range(0, n, BLOCK):
        x, xhat, _lengths, n_trunc, n_clamp = sample_paths(
            i, state, game, min(BLOCK, n - start), rng)
        if n_trunc:
            ok = ~np.isnan(x)
            x, xhat = x[ok], xhat[ok]
        yield x, xhat, q.closed_cell_index(xhat), n_trunc, n_clamp


def _running(size: int):
    """Empty running (count, mean, M2) arrays of `size` entries for `_merge`."""
    return [np.zeros(size, dtype=np.int64), np.zeros(size), np.zeros(size)]


def _merge(acc, count, mean, m2):
    """Fold one block's per-entry count, mean and sum of squared deviations
    (M2) into the running arrays `acc`, in place, by the pairwise update of
    Chan, Golub & LeVeque (1979). An entry the block leaves empty keeps its
    values; an empty entry of `acc` takes the block's."""
    n = acc[0] + count
    w = np.divide(count, n, out=np.zeros(n.shape), where=n > 0)
    delta = mean - acc[1]
    acc[2] += m2 + delta * delta * acc[0] * w
    acc[1] += delta * w
    acc[0] = n


def _group_moments(values, groups, n_groups: int):
    """Per group 0..n_groups-1: count, mean and M2 of `values`; an empty
    group reads 0, 0.0, 0.0."""
    count = np.bincount(groups, minlength=n_groups)
    mean = np.divide(np.bincount(groups, values, n_groups), count,
                     out=np.zeros(n_groups), where=count > 0)
    return count, mean, np.bincount(groups, (values - mean[groups]) ** 2, n_groups)


def estimate_losses(i: int, state: GameState, game: QuantizationGame,
                    n: int, seed: int) -> LossReport:
    words = state.quantizers[i].words
    acc = _running(4)  # total, quantization, communication, cross
    n_trunc = n_clamp = 0
    for x, xhat, idx, t, c in _observed(i, state, game, n, seed):
        n_trunc += t
        n_clamp += c
        if x.size == 0:
            continue
        word = words[idx]
        total = (x - word) ** 2
        quant = (xhat - word) ** 2
        comm = (x - xhat) ** 2
        terms = np.stack([total, quant, comm, total - quant - comm])
        mean = terms.mean(axis=1)
        m2 = np.sum((terms - mean[:, None]) ** 2, axis=1)
        _merge(acc, np.full(4, x.size), mean, m2)
    m = int(acc[0][0])
    # NaN, with no warning, when every sample was truncated
    mean = acc[1] if m else np.full(4, np.nan)
    se = np.sqrt(acc[2] / (m - 1)) / np.sqrt(m) if m > 1 else np.full(4, np.nan)
    return LossReport(
        *mean.tolist(),
        *se.tolist(),
        n_samples=m,
        n_truncated=n_trunc,
        n_clamped=n_clamp,
    )


def true_env_residuals(i: int, state: GameState, game: QuantizationGame,
                       n_samples: int, seed: int):
    """Per-word residual mean(x_true | word k) - y_k with standard errors.

    Zero residuals (within noise) certify the centroid condition against
    the true environment.
    """
    q = state.quantizers[i]
    acc = _running(q.levels)
    for x, _xhat, idx, _t, _c in _observed(i, state, game, n_samples, seed):
        _merge(acc, *_group_moments(x, idx, q.levels))
    counts, mean, m2 = acc
    resid = np.full(q.levels, np.nan)
    se = np.full(q.levels, np.nan)
    ok = counts > 1
    resid[ok] = mean[ok] - q.words[ok]
    se[ok] = np.sqrt(m2[ok] / (counts[ok] - 1)) / np.sqrt(counts[ok])
    return resid, se, counts


def shared_vocabulary(quantizers: Sequence[RegularQuantizer],
                      agents: Optional[Sequence[int]] = None):
    """Whether the agent set shares a vocabulary: every index-k cell
    intersection is a nonempty open interval containing every member's
    k-th word. Returns (ok, witness intervals); agents with different
    numbers of words share none, and get (False, [])."""
    if agents is None:
        agents = range(len(quantizers))
    qs = [quantizers[a] for a in agents]
    levels = {q.levels for q in qs}
    if len(levels) != 1:
        return False, []
    M = levels.pop()
    witnesses = []
    ok = True
    for k in range(M):
        lo = max(q.boundaries[k] for q in qs)
        hi = min(q.boundaries[k + 1] for q in qs)
        witnesses.append((float(lo), float(hi)))
        if lo >= hi:
            ok = False
            continue
        for q in qs:
            if not lo < q.words[k] < hi:
                ok = False
    return ok, witnesses


@dataclass
class ChainReport:
    x: float
    hop_words: List[float]
    final_word: float
    translation_loss: float  # squared error of the final word vs the input
    word_drift: float  # |final word - first word|, the translation-bound quantity
    cell_index: int
    bound: Optional[float]  # cell-intersection width when the chain shares a vocabulary
    n_clamped: int = 0


def chain_translate(quantizers: Sequence[RegularQuantizer], chain: Sequence[int],
                    x: float, noise: NoiseKernel = POINT_KERNEL,
                    rng: Optional[np.random.Generator] = None) -> ChainReport:
    """Push input x through the chain, re-quantizing at every agent."""
    chain = list(chain)
    if len(chain) < 2:
        raise ValueError("a chain needs at least two agents")
    if noise.shape is not KernelShape.POINT and rng is None:
        raise ValueError("noisy translation needs an rng")
    if not 0.0 < x < 1.0:
        raise DomainError("quantizer input must be strictly inside (0, 1)")
    k = int(quantizers[chain[0]].closed_cell_index(x))
    hop_words = [float(quantizers[chain[0]].words[k])]
    clamped = 0
    for agent in chain[1:]:
        v = hop_words[-1]
        if noise.shape is not KernelShape.POINT:
            nv = v + float(noise.sample(rng))
            v = float(np.clip(nv, _CLAMP, 1.0 - _CLAMP))
            clamped += int(v != nv)
        q = quantizers[agent]
        hop_words.append(float(q.words[q.closed_cell_index(v)]))
    w = hop_words[-1]
    shared, witnesses = shared_vocabulary(quantizers, chain)
    bound = witnesses[k][1] - witnesses[k][0] if shared else None
    return ChainReport(
        x=float(x),
        hop_words=hop_words,
        final_word=w,
        translation_loss=float((w - x) ** 2),
        word_drift=float(abs(w - hop_words[0])),
        cell_index=k,
        bound=bound,
        n_clamped=clamped,
    )


def enumerate_chains(P, i: int, j: int, max_len: int) -> List[List[int]]:
    """All directed communication chains i -> j of length <= max_len,
    following edges with positive frequency (transmitter to receiver).
    Chains may revisit agents."""
    entries = P.entries
    n = entries.shape[0]
    receivers = [
        [m for m in range(n) if m != l and entries[m, l] > 0.0] for l in range(n)
    ]
    out: List[List[int]] = []
    stack = [[i]]
    while stack:
        w = stack.pop()
        if w[-1] == j and len(w) >= 2:
            out.append(w)
        if len(w) < max_len:
            for m in receivers[w[-1]]:
                stack.append(w + [m])
    return out


@dataclass
class ProbeReport:
    n_chains: int
    spread: float
    worst_input: float


def path_dependence_probe(quantizers: Sequence[RegularQuantizer], P,
                          i: int, j: int, max_len: int,
                          n_inputs: int) -> ProbeReport:
    """Compare final words across every chain i -> j of bounded length on a
    grid of inputs (noiseless). Zero spread means path independence on the
    probe set."""
    chains = enumerate_chains(P, i, j, max_len)
    if not chains:
        raise NoChainError(f"no communication chain from {i} to {j} "
                           f"within length {max_len}")
    grid = np.linspace(0.0, 1.0, n_inputs + 2)[1:-1]
    finals = np.empty((len(chains), grid.size))
    for c, chain in enumerate(chains):
        v = grid
        for agent in chain:
            q = quantizers[agent]
            v = q.words[q.closed_cell_index(v)]
        finals[c] = v
    spread = finals.max(axis=0) - finals.min(axis=0)
    worst = int(np.argmax(spread))
    return ProbeReport(
        n_chains=len(chains),
        spread=float(spread[worst]),
        worst_input=float(grid[worst]),
    )

