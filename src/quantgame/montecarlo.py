"""Path-sampling simulator of signal propagation, empirical loss
decomposition, and translation-chain / shared-vocabulary analysis.

Signals originate at some agent's physical source and hop through the
network, being re-quantized (and noised) at every transmission. Sampling
follows per-hop index arrays of the samples still in flight, draws one
routing uniform per hop for each sample in flight only, and reads the
generator in a fixed order, so a seed fixes every sample. It is
table-driven: per call, every agent's routing thresholds, interior cell
boundaries and words are laid out in tables padded with +inf, so that a
hop routes, and a reverse hop re-quantizes, all its samples at once by
lookups into these tables and comparisons, with no loop over agents.
The estimators sample in blocks of at most BLOCK signals, read one after
another from one generator, and merge per-block counts, means and sums of
squared deviations (Chan, Golub & LeVeque 1979), so their memory does not
grow with the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .densities import DomainError, NoiseKernel, POINT_KERNEL, KernelShape
from .networks import hop_matrix
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


def sample_paths(i: int, state: GameState, game: QuantizationGame, n: int,
                 rng: np.random.Generator):
    """Vectorized batch of n signals observed at agent i.

    The forward walk follows only the samples in flight, by ascending
    index, and keeps per hop the (indices, agents) of those that moved;
    back-propagation replays these hops in reverse. Past hop 0, the walk
    covers only the samples that left agent i. The generator is read
    in a fixed order: per hop, one uniform for each sample in flight,
    beta draws per terminal agent in agent order, then noise per hop from
    the last, each over samples in index order. Hops never follow a
    zero-weight edge, even where a row sums to slightly less than 1.

    Returns (x_true, x_obs, path_lengths, n_truncated, n_clamped).
    Truncated samples carry NaN values and must be masked by callers.
    """
    P = game.comm.entries
    n_agents = game.n_agents
    # thr[e, a]: a sample at agent a routes past edge e where u >= thr[e, a];
    # +inf from a's last positive edge on, so no hop follows a zero weight
    last_edge = n_agents - 1 - np.argmax(P[:, ::-1] > 0.0, axis=1)
    thr = np.where(np.arange(n_agents)[:, None] < last_edge, np.cumsum(P, axis=1).T,
                   np.inf)[:last_edge.max()]
    # per agent its interior boundaries (bounds[r, a]) and words
    # (words[a, k]), padded with +inf to the largest level count
    width = max(q.levels for q in state.quantizers)
    bounds = np.full((width - 1, n_agents), np.inf)
    words = np.full((n_agents, width), np.inf)
    for a, q in enumerate(state.quantizers):
        bounds[:q.levels - 1, a] = q.boundaries[1:-1]
        words[a, :q.levels] = q.words

    # hop 0: a sample stays at i iff t[i] <= u < t[i + 1], t being i's thresholds after
    # a -inf, +inf from i's last positive edge on (past it, all move); route the movers
    t = np.concatenate(([-np.inf], thr[:, i], np.full(n_agents - len(thr), np.inf)))
    u = rng.random(n)
    movers = np.flatnonzero((u < t[i]) | (u >= t[i + 1]))  # ascending
    u = u[movers]
    cur = np.zeros(movers.size, np.intp)  # the agents of the samples in flight
    for t in thr[:last_edge[i], i]:
        cur += u >= t
    lengths = np.ones(n, dtype=np.int64)
    lengths[movers] += 1
    # later hops follow positions in `movers`, as does each mover's latest agent
    pos, terminal = np.arange(movers.size), cur.copy()
    hops = [(movers, cur)]  # per hop: (indices, new agents) of the samples that moved
    for _hop in range(1, DEPTH_CAP):
        if pos.size == 0:
            break
        u = rng.random(pos.size)
        nxt = np.zeros(pos.size, np.intp)
        for t in thr:
            nxt += u >= t.take(cur)
        moved = np.flatnonzero(nxt != cur)
        pos, cur = pos[moved], nxt[moved]
        terminal[pos] = cur
        idx = movers[pos]
        lengths[idx] += 1
        hops.append((idx, cur))
    n_truncated = pos.size
    terminal[pos] = -1  # still in flight after DEPTH_CAP hops

    # physical draw at each sample's terminal agent
    home = np.ones(n, bool)  # agent i's: all but the movers that end elsewhere
    home[movers[terminal != i]] = False
    x = np.full(n, np.nan)
    for a in range(n_agents):
        m = home if a == i else movers[terminal == a]
        size = int(np.count_nonzero(m)) if a == i else m.size
        if size:
            d = game.agents[a].physical
            x[m] = rng.beta(d.alpha, d.beta_param, size)

    # back to the receiver: quantize at each transmitter, then add noise;
    # a truncated sample keeps its NaN
    xhat = x.copy()
    n_clamped = 0
    while hops:  # from the last; a hop's arrays go once it is replayed
        moved, transmitter = hops.pop()
        v = xhat[moved]
        if n_truncated:
            keep = ~np.isnan(v)
            moved, transmitter, v = moved[keep], transmitter[keep], v[keep]
        if moved.size == 0:
            continue
        k = transmitter * width  # flat index of the transmitter's first word
        for b in bounds:
            k += v > b.take(transmitter)
        v = words.take(k)
        if game.noise.shape is not KernelShape.POINT:
            noised = v + game.noise.sample(rng, moved.size)
            v = np.clip(noised, _CLAMP, 1.0 - _CLAMP)
            n_clamped += int(np.sum(noised != v))
        xhat[moved] = v

    return x, xhat, lengths, n_truncated, n_clamped


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
    block after another from one generator: an iterator over the blocks,
    each less its truncated samples, as (x_true, x_obs, agent i's cell of
    each x_obs, n_truncated, n_clamped). n is checked at the call. The
    iterator holds no block while it samples the next; nor may callers."""
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    return (_block(i, state, game, min(BLOCK, n - start), rng) for start in range(0, n, BLOCK))


def _block(i: int, state: GameState, game: QuantizationGame, n: int, rng):
    """One block of `_observed`."""
    x, xhat, _lengths, n_trunc, n_clamp = sample_paths(i, state, game, n, rng)
    if n_trunc:
        ok = ~np.isnan(x)
        x, xhat = x[ok], xhat[ok]
    return x, xhat, state.quantizers[i].closed_cell_index(xhat), n_trunc, n_clamp


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
    blocks = _observed(i, state, game, n, seed)  # checks n before buf is allocated
    acc = _running(4)  # total, quantization, communication, cross
    buf = np.empty(4 * min(n, BLOCK))  # one block's terms, row by row
    n_trunc = n_clamp = 0
    for x, xhat, idx, t, c in blocks:
        n_trunc += t
        n_clamp += c
        if x.size == 0:
            continue
        terms = buf[:4 * x.size].reshape(4, x.size)
        total, quant, comm, cross = terms
        word = words[idx]
        np.square(np.subtract(x, word, out=total), out=total)
        np.square(np.subtract(xhat, word, out=quant), out=quant)
        np.square(np.subtract(x, xhat, out=comm), out=comm)
        np.subtract(np.subtract(total, quant, out=cross), comm, out=cross)
        mean = terms.mean(axis=1)
        np.square(np.subtract(terms, mean[:, None], out=terms), out=terms)
        _merge(acc, np.full(4, x.size), mean, terms.sum(axis=1))
        del x, xhat, idx, word  # before the next block is sampled
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
        del x, _xhat, idx  # before the next block is sampled
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
    if len({q.levels for q in qs}) != 1:
        return False, []
    # (lo[k], hi[k]): the intersection of every member's cell k
    lo, hi = qs[0].boundaries[:-1], qs[0].boundaries[1:]
    for q in qs[1:]:
        lo, hi = np.maximum(lo, q.boundaries[:-1]), np.minimum(hi, q.boundaries[1:])
    ok = all(np.all((lo < q.words) & (q.words < hi)) for q in qs)
    return ok, list(zip(lo.tolist(), hi.tolist()))


@dataclass
class ChainReport:
    x: np.ndarray
    hop_words: List[np.ndarray]  # the expected word at each chain agent in turn
    final_word: np.ndarray
    translation_loss: np.ndarray  # expected squared error of the final word vs the input
    word_drift: np.ndarray  # expected |final word - first word|, the translation-bound quantity
    cell_index: np.ndarray
    bound: Optional[np.ndarray]  # cell-intersection width when the chain shares a vocabulary


def chain_translate(quantizers: Sequence[RegularQuantizer], chain: Sequence[int],
                    x, noise: NoiseKernel = POINT_KERNEL) -> ChainReport:
    """Translate input x, a number or an array, along the chain, exactly in
    expectation over the channel noise: `dist[c, l]`, the chance that the first
    agent's cell c ends in the current agent's cell l, takes one `hop_matrix` per
    hop, and each input reads its cell's values. Every per-input field of the
    report is a number for a number x, else an array of x's shape."""
    if len(chain) < 2:
        raise ValueError("a chain needs at least two agents")
    x = np.asarray(x, dtype=float)[()]  # a number stays a number
    if not ((0.0 < x) & (x < 1.0)).all():
        raise DomainError("quantizer input must be strictly inside (0, 1)")
    q = quantizers[chain[0]]
    k, first = q.closed_cell_index(x), q.words
    dist, means = np.eye(q.levels), [first]
    for r in chain[1:]:
        dist = dist @ hop_matrix(q, quantizers[r], noise)
        q = quantizers[r]
        means.append(dist @ q.words)
    mean, spread = means[-1], q.words - means[-1][:, None]
    d = mean[k] - x  # d * d is correctly rounded; a float's ** 2 goes through libm pow
    shared, witnesses = shared_vocabulary(quantizers, chain)
    return ChainReport(
        x=x,
        hop_words=[m[k] for m in means],
        final_word=mean[k],
        translation_loss=(dist * spread * spread).sum(axis=1)[k] + d * d,
        word_drift=(dist * abs(q.words - first[:, None])).sum(axis=1)[k],
        cell_index=k[()],
        bound=np.diff(witnesses)[k, 0] if shared else None,
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


def path_dependence_probes(quantizers: Sequence[RegularQuantizer], P, max_len: int,
                           n_inputs: int) -> Dict[Tuple[int, int], ProbeReport]:
    """For each ordered pair (i, j), i != j, that some chain connects, in
    (source, target) order, the spread of the final words of the chains i -> j
    of 2..max_len agents on a grid of inputs; zero spread means path independence
    on the probe set. No chain is listed: a hop sends transmitter t's word k to
    receiver r's word cell_r(w_tk), so chains walk (agent, word) states, and
    `n_chains` counts walks exactly in Python ints. Channel noise is ignored."""
    # n_chains = S + S^2 + ... + S^(max_len - 1) of the one-hop matrix S, by doubling
    # along the bits of max_len - 1: G(2k) = G(k) + S^k G(k), G(k + 1) = G(k) + S^(k + 1)
    S = P.links.T.astype(int).astype(object)  # S[t, r]: one hop t -> r, in Python ints
    n_chains = power = S if max_len > 1 else 0 * S
    for bit in bin(max(max_len - 1, 0))[3:]:
        n_chains, power = n_chains + power @ n_chains, power @ power
        if bit == "1":
            power = power @ S
            n_chains = n_chains + power
    # state (agent a, word k) is first[a] + k; cells[a] holds the state that
    # each word, then each input, takes at agent a; step[s, s'] is one hop s -> s'
    levels = [q.levels for q in quantizers]
    first = np.cumsum([0] + levels)
    words = np.concatenate([q.words for q in quantizers])
    grid = np.linspace(0.0, 1.0, n_inputs + 2)[1:-1]
    cells = np.array([first[a] + q.closed_cell_index(np.concatenate((words, grid)))
                      for a, q in enumerate(quantizers)])
    # agent r hears the agent of state `heard`, one pair per hop
    r, heard = np.nonzero(P.links[:, np.repeat(np.arange(len(levels)), levels)])
    step = np.zeros((first[-1], first[-1]), dtype=bool)
    step[heard, cells[r, heard]] = True
    # reached[s, s']: some chain of 2..max_len agents takes start state s to s'
    reached = frontier = step
    for _ in range(max_len - 2):
        frontier = frontier @ step
        if not (frontier & ~reached).any():
            break  # no new state at this hop, so none at any later one
        reached = reached | frontier
    # spread[s, a]: the range of agent a's words reached from start state s
    spread = (np.maximum.reduceat(np.where(reached, words, -np.inf), first[:-1], axis=1)
              - np.minimum.reduceat(np.where(reached, words, np.inf), first[:-1], axis=1))
    starts = cells[:, words.size:]
    worst = [spread[s].argmax(axis=0) for s in starts]  # worst[i][j]: the first widest input
    return {(i, j): ProbeReport(n_chains=count, spread=float(spread[starts[i][worst[i][j]], j]),
                                worst_input=float(grid[worst[i][j]]))
            for (i, j), count in np.ndenumerate(n_chains) if count and i != j}


def path_dependence_probe(quantizers: Sequence[RegularQuantizer], P, i: int, j: int,
                          max_len: int, n_inputs: int) -> ProbeReport:
    """The report of `path_dependence_probes` for the pair i -> j, kept only for
    `perfbench/workloads.py::chains_pass` (ROADMAP item 1 deletes it)."""
    probes = path_dependence_probes(quantizers, P, max_len, n_inputs)
    if (i, j) not in probes:
        raise NoChainError(f"no communication chain from {i} to {j} within length {max_len}")
    return probes[i, j]
