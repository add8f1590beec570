"""Independent numerical oracles used to validate the closed-form code paths.

Everything here avoids the library's own moment formulas: probabilities and
moments come from midpoint Riemann sums on dense grids, optimal quantizers
from exhaustive dynamic programming over a discretized source, and the
beta-pair overlap from adaptive quadrature.
"""

import math

import numpy as np
from scipy import integrate, special

from quantgame.densities import (
    EMPTY_CELL_MASS,
    KernelShape,
    POINT_KERNEL,
    centroid_from_moments,
)
from quantgame.montecarlo import (
    _CLAMP,
    DEPTH_CAP,
    ChainReport,
    NoChainError,
    ProbeReport,
    enumerate_chains,
    shared_vocabulary,
)
from quantgame.quantizers import (
    LloydMaxResult,
    _midpoints,
    _quantile_init,
    _resolve_empty_cells,
    _separate,
    quantizer_from_words,
)


def beta_pdf(x, alpha, beta_param):
    x = np.asarray(x, dtype=float)
    return np.exp(
        (alpha - 1.0) * np.log(x)
        + (beta_param - 1.0) * np.log1p(-x)
        - special.betaln(alpha, beta_param)
    )


def kernel_pdf(kernel, x, center):
    """Density at x of center + noise for a uniform or triangular kernel."""
    t = np.abs(np.asarray(x, dtype=float) - center)
    h = kernel.halfwidth
    if kernel.shape is KernelShape.UNIFORM:
        return np.where(t < h, 1.0 / (2.0 * h), 0.0)
    return np.where(t < h, (h - t) / (h * h), 0.0)


def riemann_moments(pdf, a, b, n=2_000_000):
    """(m0, m1, m2) of `pdf` over (a, b] by the midpoint rule."""
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    p = pdf(x) * h
    return float(p.sum()), float((x * p).sum()), float((x * x * p).sum())


def riemann_quantizer_loss(pdf, boundaries, words, n_per_cell=400_000):
    """Expected squared quantization error by midpoint Riemann sums."""
    total = 0.0
    for k, y in enumerate(words):
        a, b = boundaries[k], boundaries[k + 1]
        h = (b - a) / n_per_cell
        x = a + (np.arange(n_per_cell) + 0.5) * h
        total += float(np.sum((x - y) ** 2 * pdf(x)) * h)
    return total


def bhattacharyya_overlap(p_pdf, q_pdf):
    """Integral of sqrt(p q) over (0, 1) by adaptive quadrature."""
    val, _err = integrate.quad(
        lambda x: math.sqrt(p_pdf(x) * q_pdf(x)), 0.0, 1.0, limit=400
    )
    return val


def dp_optimal_quantizer(pdf, levels, n_grid=2000):
    """Globally optimal `levels`-cell quantizer of the discretized source.

    The source is collapsed to `n_grid` equal-width bins (midpoint mass),
    then an exact dynamic program picks the best cell boundaries. Returns
    (boundaries, words, loss) of the discrete solution; it approximates
    the continuous optimum to O(1/n_grid).
    """
    h = 1.0 / n_grid
    x = (np.arange(n_grid) + 0.5) * h
    m0 = pdf(x) * h
    m1 = x * m0
    m2 = x * x * m0
    c0 = np.concatenate(([0.0], np.cumsum(m0)))
    c1 = np.concatenate(([0.0], np.cumsum(m1)))
    c2 = np.concatenate(([0.0], np.cumsum(m2)))

    def cell_costs(i, j):
        # optimal (centroid) costs of grouping bins i..j-1 into one cell,
        # vectorized over an index array i
        w0 = c0[j] - c0[i]
        w1 = c1[j] - c1[i]
        w2 = c2[j] - c2[i]
        return np.where(w0 > 0.0, w2 - w1 * w1 / np.where(w0 > 0.0, w0, 1.0), 0.0)

    INF = float("inf")
    # cost[m][j]: best cost of covering bins 0..j-1 with m cells
    cost = np.full((levels + 1, n_grid + 1), INF)
    back = np.zeros((levels + 1, n_grid + 1), dtype=int)
    cost[0, 0] = 0.0
    for m in range(1, levels + 1):
        prev = cost[m - 1]
        for j in range(m, n_grid + 1):
            i = np.arange(m - 1, j)
            v = prev[i] + cell_costs(i, j)
            k = int(np.argmin(v))
            cost[m, j] = v[k]
            back[m, j] = i[k]
    cuts = [n_grid]
    j = n_grid
    for m in range(levels, 0, -1):
        j = back[m, j]
        cuts.append(j)
    cuts = cuts[::-1]
    boundaries = np.array([c * h for c in cuts])
    boundaries[0], boundaries[-1] = 0.0, 1.0
    words = np.array([
        (c1[cuts[k + 1]] - c1[cuts[k]]) / (c0[cuts[k + 1]] - c0[cuts[k]])
        for k in range(levels)
    ])
    return boundaries, words, float(cost[levels, n_grid])


def scalar_loop_moments(mix, a, b):
    """(m0, m1, m2) of a MixtureDensity over one cell (a, b] by a scalar loop
    over its parts: the per-cell kernel that the array kernel replaced, kept
    as its reference. Terms are added in declaration order, as the array
    kernel adds them, so on point-atom mixtures the two agree bit for bit."""
    m = [0.0, 0.0, 0.0]
    for w, d in mix.continuous_parts:
        al, be = d.alpha, d.beta_param
        mu1 = al / (al + be)
        scale = (1.0, mu1, mu1 * (al + 1) / (al + be + 1))
        for j in range(3):
            inc = special.betainc(al + j, be, b) - special.betainc(al + j, be, a)
            m[j] += w * float(scale[j] * inc)
    k = mix.noise
    h = k.halfwidth
    for w, c in zip(mix.atom_weights.tolist(), mix.atom_centers.tolist()):
        p = [0.0, 0.0, 0.0]
        if k.shape.value == "point":
            if a < c <= b:
                p = [1.0, c, c * c]
        else:
            # (lo, hi, density at x) pieces of the kernel around c
            if k.shape.value == "uniform":
                pieces = ((c - h, c + h, lambda x: 1.0 / (2.0 * h)),)
            else:
                pieces = ((c - h, c, lambda x: (h - (c - x)) / (h * h)),
                          (c, c + h, lambda x: (h - (x - c)) / (h * h)))
            for lo, hi, dens in pieces:
                l, u = max(a, lo), min(b, hi)
                if u > l:
                    # the density is linear on the piece: Simpson's rule is exact
                    for j in range(3):
                        f = [x ** j * dens(x) for x in (l, 0.5 * (l + u), u)]
                        p[j] += (u - l) * (f[0] + 4.0 * f[1] + f[2]) / 6.0
        for j in range(3):
            m[j] += w * p[j]
    return tuple(m)


def bisection_quantile(mix, p):
    """The quantile search that the 1/16-grid replay replaced, kept as its
    reference: 44 bisection steps, each one kernel call that prices the
    cell (0, mid] of every bracket's midpoint."""
    p = np.asarray(p, dtype=float)
    lo, hi = np.zeros_like(p), np.ones_like(p)
    while np.any(hi - lo > 1e-13):
        mid = 0.5 * (lo + hi)
        up = mix.partial_moments(np.stack((np.zeros_like(mid), mid), axis=-1), orders=1)[0, ..., 0] >= p
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    x = 0.5 * (lo + hi)
    return float(x) if x.ndim == 0 else x


def searchsorted_cell_index(q, x):
    """The binary-search cell lookup that the comparison count in
    `RegularQuantizer.closed_cell_index` replaced, kept as its reference."""
    idx = np.searchsorted(q.boundaries, x, side="left") - 1
    return np.clip(idx, 0, q.levels - 1)


def masked_sample_paths(i, state, game, n, rng):
    """The path sampler that the in-flight index walk replaced, kept as its
    reference: every hop runs full-width masks over all n samples and the
    routes are stacked into an (n, depth) matrix. It consumes the generator
    in the same order as `montecarlo.sample_paths` (per hop, one uniform for
    each active sample, in index order), so on rows whose cumulative sums
    end at 1 the two agree bit for bit."""
    P = game.comm.entries
    cum = np.cumsum(P, axis=1)
    n_agents = game.n_agents

    cur = np.full(n, i, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    routes = [cur.copy()]
    for _ in range(DEPTH_CAP):
        if not active.any():
            break
        u = np.zeros(n)
        u[active] = rng.random(int(active.sum()))
        nxt = cur.copy()
        for a in np.unique(cur[active]):
            m = active & (cur == a)
            nxt[m] = np.minimum(
                np.searchsorted(cum[a], u[m], side="right"), n_agents - 1
            )
        terminal = active & (nxt == cur)
        active = active & ~terminal
        step = np.where(active, nxt, -1)
        cur = np.where(active, nxt, cur)
        if active.any():
            routes.append(step)

    truncated = active
    route = np.stack(routes, axis=1)  # (n, depth); -1 past the terminal hop
    lengths = (route >= 0).sum(axis=1)

    x = np.full(n, np.nan)
    terminal_agent = route[np.arange(n), lengths - 1]
    for a in range(n_agents):
        m = (~truncated) & (terminal_agent == a)
        if m.any():
            d = game.agents[a].physical
            x[m] = rng.beta(d.alpha, d.beta_param, int(m.sum()))

    value = x.copy()
    n_clamped = 0
    max_len = int(lengths.max(initial=1))
    for pos in range(max_len - 2, -1, -1):
        m = (~truncated) & (lengths > pos + 1)
        if not m.any():
            continue
        transmitter = route[:, pos + 1]
        for a in np.unique(transmitter[m]):
            ma = m & (transmitter == a)
            q = state.quantizers[a]
            value[ma] = q.words[searchsorted_cell_index(q, value[ma])]
        if game.noise.shape is not KernelShape.POINT:
            noised = value[m] + game.noise.sample(rng, int(m.sum()))
            clipped = np.clip(noised, _CLAMP, 1.0 - _CLAMP)
            n_clamped += int(np.sum(noised != clipped))
            value[m] = clipped

    return x, value, lengths, int(truncated.sum()), n_clamped


def looped_detect_acyclic(P):
    """The Kahn's algorithm that the link graph of `CommMatrix` replaced,
    kept as its reference: each agent's peers by a scan of its row, and per
    agent popped from the first-in-first-out queue a scan of every peer
    list for its receivers."""
    n = P.n_agents
    listens = [[j for j in range(n) if j != i and P.entries[i, j] > 0.0] for i in range(n)]
    indeg = [len(listens[i]) for i in range(n)]
    queue = [i for i in range(n) if indeg[i] == 0]
    order = []
    while queue:
        j = queue.pop(0)
        order.append(j)
        for i in range(n):
            if j in listens[i]:
                indeg[i] -= 1
                if indeg[i] == 0:
                    queue.append(i)
    if len(order) != n:
        return False, None
    return True, order


def enumerated_probe(quantizers, P, i, j, max_len, n_inputs):
    """The path-dependence probe that the (agent, word) automaton replaced,
    kept as its reference: it lists every chain i -> j of 2..max_len agents
    with `enumerate_chains` and pushes the whole input grid through each."""
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


def looped_chain_translate(quantizers, chain, x, noise=POINT_KERNEL, rng=None):
    """The chain translation that the array pass replaced, kept as its
    reference: one input x at a time, one hop at a time in Python floats,
    with one noise draw per hop. Its translation_loss is `(w - x) ** 2`,
    which goes through libm's pow and can be 1 ulp off the correctly
    rounded square."""
    k = int(quantizers[chain[0]].closed_cell_index(x))
    hop_words = [float(quantizers[chain[0]].words[k])]
    for agent in chain[1:]:
        v = hop_words[-1]
        if noise.shape is not KernelShape.POINT:
            v = float(np.clip(v + float(noise.sample(rng, None)), _CLAMP, 1.0 - _CLAMP))
        q = quantizers[agent]
        hop_words.append(float(q.words[q.closed_cell_index(v)]))
    w = hop_words[-1]
    shared, witnesses = shared_vocabulary(quantizers, chain)
    return ChainReport(
        x=float(x),
        hop_words=hop_words,
        final_word=w,
        translation_loss=float((w - x) ** 2),
        word_drift=float(abs(w - hop_words[0])),
        cell_index=k,
        bound=witnesses[k][1] - witnesses[k][0] if shared else None,
    )


def sampled_chain_translations(quantizers, chain, grid, noise, rng, n):
    """n noisy translations of each input of `grid`, all at once, with the
    draws that calls of `looped_chain_translate` from one generator make:
    input by input, n calls each, one draw per hop. Returns the final
    words, translation losses and word drifts, each (inputs, n)."""
    grid = np.asarray(grid, dtype=float)[:, None]
    q = quantizers[chain[0]]
    first = q.words[q.closed_cell_index(grid)]
    eps = noise.sample(rng, (grid.size, n, len(chain) - 1))
    v = first
    for h, agent in enumerate(chain[1:]):
        q = quantizers[agent]
        v = q.words[q.closed_cell_index(np.clip(v + eps[..., h], _CLAMP, 1.0 - _CLAMP))]
    return v, (v - grid) ** 2, abs(v - first)


def forward_separate(words):
    """`quantizers._separate` before its backward pass, kept as its
    reference: ties and inversions are lifted above the word before them,
    then every word is clipped to 1 - 1e-14, which ties words stacked at 1
    again."""
    w = np.minimum(np.maximum(words, 1e-14), 1.0 - 1e-14)
    if np.logical_and.reduce(w[..., 1:] > w[..., :-1], axis=None):
        return w
    for k in range(1, w.shape[-1]):
        w[..., k] = np.where(w[..., k] <= w[..., k - 1], w[..., k - 1] + 1e-14, w[..., k])
    return np.minimum(w, 1.0 - 1e-14)


def sequential_multi_start(mix, levels, n_starts, warm_start, max_iters, tol):
    """The multi-start Lloyd-Max that the batched (starts, levels) loop
    replaced, kept as its reference: the same starts from the same draws
    (jitter seed 0), each run to its end on its own by the per-start loop.
    Returns every start's LloydMaxResult and the index of the first start
    with the lowest loss."""
    quant = _quantile_init(mix, levels)
    inits = []
    if warm_start is not None:
        inits.append(warm_start.words.copy())
    inits.append(quant)
    rng = np.random.default_rng(0)
    while len(inits) < n_starts + (warm_start is not None):
        jitter = rng.uniform(-0.5, 0.5, levels) / (2.0 * levels)
        cand = np.sort(np.clip(quant + jitter, 1e-6, 1.0 - 1e-6))
        inits.append(_separate(cand))
    results = [sequential_lloyd_max(mix, init, max_iters, tol)[0] for init in inits]
    best = 0
    for k, res in enumerate(results):
        if res.loss < results[best].loss:
            best = k
    return results, best


def _row_loss(words, moments):
    m0, m1, m2 = moments
    return float(np.cumsum(m2 - 2.0 * words * m1 + words * words * m0)[-1])


def sequential_lloyd_max(mix, init, max_iters, tol):
    """One start of `sequential_multi_start`: one kernel call per
    iteration on this start's cells alone. Returns the LloydMaxResult and
    the loss of every iterate: entry n - 1 is the loss after iteration n,
    taken from the moments of iteration n + 1 before any relocation, and
    the last entry is the result's `loss`."""
    words = _separate(np.asarray(init, dtype=float))
    events_total = 0
    loss_history = []
    move = np.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        b = _midpoints(words)
        moments = mix.partial_moments(b)
        if it > 1:
            loss_history.append(_row_loss(words, moments))
        if np.any(moments[0] < EMPTY_CELL_MASS):
            words, b, moments, events = _resolve_empty_cells(words, mix)
            events_total += events
        new_words = _separate(centroid_from_moments(b[:-1], b[1:], moments[0], moments[1]))
        move = float(np.max(np.abs(new_words - words)))
        words = new_words
        if move < tol:
            converged = True
            break
    q = quantizer_from_words(words)
    loss_history.append(_row_loss(q.words, mix.partial_moments(q.boundaries)))
    res = LloydMaxResult(q, converged, it, move, loss_history[-1], events_total)
    return res, loss_history
