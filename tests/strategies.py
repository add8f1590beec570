"""Hypothesis strategies for the property tests: random beta mixtures with
point, uniform and triangular word atoms, and cell edges that include 0, 1
and atoms placed exactly on an edge."""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from quantgame import BetaDensity, MixtureDensity, NoiseKernel, POINT_KERNEL

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
def mixtures(draw, max_atoms=12):
    """A normalized mixture of 1-2 beta parts and up to `max_atoms` atoms.
    The atoms may mix kernel shapes."""
    betas = draw(st.lists(st.tuples(_shape, _shape), min_size=1, max_size=2))
    atoms = draw(st.lists(st.tuples(_weight, st.floats(0.1, 0.9), kernels()),
                          max_size=max_atoms))
    weights = np.array([draw(_weight) for _ in betas] + [w for w, _c, _k in atoms])
    weights = weights / weights.sum()
    return MixtureDensity(
        tuple((w, BetaDensity(a, b)) for w, (a, b) in zip(weights, betas)),
        tuple((w, c, k) for w, (_w, c, k) in zip(weights[len(betas):], atoms)),
    )


@st.composite
def mixtures_with_edges(draw):
    """(mixture, edges): strictly increasing edges from 0 to 1 that may put
    some atom centers exactly on an edge."""
    mix = draw(mixtures())
    interior = draw(st.lists(st.floats(0.01, 0.99), max_size=8))
    centers = [c for _w, c, _k in mix.smeared_atoms]
    if centers:
        interior += draw(st.lists(st.sampled_from(centers), max_size=3))
    edges = np.unique(np.concatenate(([0.0, 1.0], interior)))
    return mix, edges
