"""Hypothesis strategies for the property tests: random beta mixtures with
word atoms under one point, uniform or triangular kernel, cell edges
that include 0, 1 and atoms placed exactly on an edge, random games
for the path sampler, and random forests for the solver."""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from quantgame import (
    BetaDensity,
    CommMatrix,
    GameState,
    MixtureDensity,
    NoiseKernel,
    POINT_KERNEL,
    QuantizationGame,
    quantizer_from_words,
)
from quantgame.networks import AgentSpec

# derandomized so a tier-1 run is reproducible; no example database on disk
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_shape = st.floats(0.5, 8.0)
_weight = st.floats(0.05, 1.0)


@st.composite
def kernels(draw):
    shape = draw(st.sampled_from(["point", "uniform", "triangular"]))
    if shape == "point":
        return POINT_KERNEL
    return NoiseKernel(shape, draw(st.floats(0.005, 0.05)))


@st.composite
def mixtures(draw, max_atoms=12, centers=st.floats(0.1, 0.9), kernel=None, n_betas=None):
    """A normalized mixture of 1-2 beta parts (or `n_betas`) and up to
    `max_atoms` atoms with centers drawn from `centers`, all smeared by one
    kernel (or `kernel`)."""
    betas = draw(st.lists(st.tuples(_shape, _shape), min_size=1 if n_betas is None else n_betas,
                          max_size=2 if n_betas is None else n_betas))
    atoms = draw(st.lists(st.tuples(_weight, centers), min_size=0 if betas else 1,
                          max_size=max_atoms))
    weights = np.array([draw(_weight) for _ in betas] + [w for w, _c in atoms])
    weights = weights / weights.sum()
    return MixtureDensity(
        tuple((w, BetaDensity(a, b)) for w, (a, b) in zip(weights, betas)),
        weights[len(betas):], [c for _w, c in atoms], kernel or draw(kernels()),
    )


def _edges(draw, centers):
    """Strictly increasing edges from 0 to 1 that may put some of the
    `centers` exactly on an edge."""
    interior = draw(st.lists(st.floats(0.01, 0.99), max_size=8))
    if centers:
        interior += draw(st.lists(st.sampled_from(centers), max_size=3))
    return np.unique(np.concatenate(([0.0, 1.0], interior)))


@st.composite
def mixtures_with_edges(draw):
    """(mixture, edges): strictly increasing edges from 0 to 1 that may put
    some atom centers exactly on an edge."""
    mix = draw(mixtures())
    return mix, _edges(draw, mix.atom_centers.tolist())


@st.composite
def mixture_stacks(draw):
    """(mixtures, edges): 1-4 mixtures that share a kernel and a count of
    0-3 beta parts, with 0-12 atoms each, and edges as in
    `mixtures_with_edges`, which may put an atom of any of them on an edge."""
    kernel, n_betas = draw(kernels()), draw(st.integers(0, 3))
    mixes = draw(st.lists(mixtures(kernel=kernel, n_betas=n_betas), min_size=1, max_size=4))
    return mixes, _edges(draw, np.concatenate([m.atom_centers for m in mixes]).tolist())


@st.composite
def games(draw):
    """(game, state, receiver, sample count, seed) for `sample_paths`: 2-5
    agents with 1-6 words each on the 1/32 grid, so that a word often sits
    exactly on a boundary of another agent, any kernel, and comm rows in
    multiples of 1/16, so that every cumulative sum ends exactly at 1.
    A row deals its 16 sixteenths at cut points drawn in [0, 16], so zero
    weights fall anywhere: before the first positive edge, on the
    diagonal, in the last column."""
    n_agents = draw(st.integers(2, 5))
    agents, quantizers = [], []
    for k in range(n_agents):
        levels = draw(st.integers(1, 6))
        agents.append(AgentSpec(k, BetaDensity(draw(_shape), draw(_shape)), levels))
        grid = draw(st.lists(st.integers(1, 31), min_size=levels, max_size=levels,
                             unique=True))
        quantizers.append(quantizer_from_words(np.sort(grid) / 32.0))
    rows = [np.diff([0, *sorted(draw(st.lists(st.integers(0, 16), min_size=n_agents - 1,
                                              max_size=n_agents - 1))), 16]) / 16.0
            for _ in range(n_agents)]
    game = QuantizationGame(tuple(agents), CommMatrix(np.array(rows)), draw(kernels()))
    state = GameState(quantizers, [np.full(q.levels, 1.0 / q.levels) for q in quantizers])
    return (game, state, draw(st.integers(0, n_agents - 1)), draw(st.integers(1, 2000)),
            draw(st.integers(0, 2**32 - 1)))


@st.composite
def forests(draw):
    """Unsolved games on random forests: 2-5 agents with 1-6 levels each in
    a random order whose first one or two are roots, every later agent
    hearing one earlier agent with a weight in sixteenths (all of its
    weight at 16/16, so that it has no physical source), any kernel."""
    n_agents = draw(st.integers(2, 5))
    order = draw(st.permutations(range(n_agents)))
    P = np.eye(n_agents)
    for pos in range(draw(st.integers(1, 2)), n_agents):
        receiver, w = order[pos], draw(st.integers(1, 16)) / 16.0
        P[receiver, receiver] = 1.0 - w
        P[receiver, order[draw(st.integers(0, pos - 1))]] = w
    agents = tuple(AgentSpec(k, BetaDensity(draw(_shape), draw(_shape)), draw(st.integers(1, 6)))
                   for k in range(n_agents))
    return QuantizationGame(agents, CommMatrix(P), draw(kernels()))
