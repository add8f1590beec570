"""Communication structure: the row-stochastic matrix P, graph queries,
true / observed environment mixtures, and the per-edge hop operator."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .densities import BetaDensity, KernelShape, MixtureDensity, NoiseKernel

_ROW_TOL = 1e-12


class IllPosedEnvironmentError(ValueError):
    """The true-environment linear system is singular (a closed
    communication cycle with no physical observation)."""


class StateConsistencyError(ValueError):
    """A peer's word-usage vector is not a probability vector."""


@dataclass(frozen=True, eq=False)  # a field-wise == would compare arrays
class CommMatrix:
    """Row-stochastic N x N frequency matrix; P[i, j] is how often agent i
    hears from agent j (diagonal = own-environment fraction). Read-only."""

    entries: np.ndarray

    def __post_init__(self):
        p = np.array(self.entries, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "entries", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("communication matrix must be square")
        bad = np.nonzero(np.any((p < 0.0) | (p > 1.0), axis=1))[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} has entries outside [0, 1]")
        rows = p.sum(axis=1)
        bad = np.nonzero(np.abs(rows - 1.0) > _ROW_TOL)[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} sums to {rows[bad[0]]!r}, expected 1")

    @property
    def n_agents(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def links(self) -> np.ndarray:
        """links[i, j] iff agent i listens to agent j (i != j and P[i, j] > 0)."""
        links = (self.entries > 0.0) & ~np.eye(self.n_agents, dtype=bool)
        links.flags.writeable = False
        return links

    @cached_property
    def _peers(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.links)

    def peers_of(self, i: int) -> Tuple[int, ...]:
        """Agents j != i that agent i listens to, in index order."""
        return self._peers[i]


@dataclass(frozen=True)
class AgentSpec:
    id: int
    physical: BetaDensity
    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be at least 1")


def detect_acyclic(P: CommMatrix) -> Tuple[bool, Optional[List[int]]]:
    """Kahn's algorithm, first in first out, on the transmitter->receiver
    graph `P.links.T`, each agent's receivers in index order. On success the
    order lists every agent after all agents it listens to."""
    indeg = P.links.sum(axis=1).tolist()
    order = [i for i, d in enumerate(indeg) if d == 0]
    for j in order:  # the order is the queue: agents join it as they are freed
        for i in np.flatnonzero(P.links[:, j]).tolist():
            indeg[i] -= 1
            if indeg[i] == 0:
                order.append(i)
    return (True, order) if len(order) == P.n_agents else (False, None)


# above this condition number of I - P_off the solved weights lose most
# of their digits; a closed cycle with no physical observation is singular
_MAX_CONDITION = 1e12


def true_environment_weights(P: CommMatrix) -> np.ndarray:
    """The mixing weight matrix W = (I - P_off)^{-1} diag(P).

    Well-posedness is judged by the condition number of I - P_off, which,
    unlike its determinant, does not shrink with the number of
    independent blocks in the network.
    """
    p = P.entries
    own = np.diag(np.diag(p))
    lhs = np.eye(P.n_agents) - (p - own)
    if not np.linalg.cond(lhs) < _MAX_CONDITION:
        raise IllPosedEnvironmentError(
            "closed communication cycle with no physical observation"
        )
    return np.linalg.solve(lhs, own)


def true_environment(P: CommMatrix, physicals: Sequence[BetaDensity]) -> List[MixtureDensity]:
    """Each agent's true environment as a beta mixture.

    Solves the self-consistency system p_sp = diag(P) p_phys + P_off p_sp,
    giving weights W = (I - P_off)^{-1} diag(P); rows of W are stochastic.
    """
    n = P.n_agents
    if len(physicals) != n:
        raise ValueError("need one physical density per agent")
    w = true_environment_weights(P)
    if np.any(w < -1e-10):
        raise IllPosedEnvironmentError("negative environment weights")
    w = np.clip(w, 0.0, None)
    out = []
    for i in range(n):
        row = w[i] / w[i].sum()
        out.append(MixtureDensity(
            continuous_parts=tuple((row[j], physicals[j]) for j in range(n))))
    return out


def check_usage(agent, u: np.ndarray) -> None:
    """Raise StateConsistencyError unless `u`, `agent`'s word usage, is a probability vector."""
    if not abs(u.sum() - 1.0) <= 1e-9 or u.min() < 0.0:
        raise StateConsistencyError(
            f"usage vector of agent {agent} sums to {float(u.sum())!r}, expected 1")


def observed_environment(
    i: int,
    physical: BetaDensity,
    quantizers: Sequence,
    usage: Sequence[np.ndarray],
    P: CommMatrix,
    noise: NoiseKernel,
) -> MixtureDensity:
    """Mixture actually seen by agent i: own physical source with weight
    P[i, i], plus one (possibly smeared) atom per peer word, weighted by
    the peer's communication frequency times its word-usage probability."""
    # peers' atoms in peer order; the empty arrays stand for an agent with no peers
    weights, centers = [np.empty(0)], [np.empty(0)]
    for j in P.peers_of(i):
        u = np.asarray(usage[j], dtype=float)
        check_usage(j, u)
        words = quantizers[j].words
        if u.size != words.size:
            raise StateConsistencyError(
                f"usage vector of agent {j} has {u.size} entries for {words.size} words"
            )
        weights.append(P.entries[i, j] * u)
        centers.append(words)
    return MixtureDensity(
        continuous_parts=((float(P.entries[i, i]), physical),),
        atom_weights=np.concatenate(weights),
        atom_centers=np.concatenate(centers),
        noise=noise,
    )


def hop_matrix(transmitter, receiver, noise: NoiseKernel) -> np.ndarray:
    """H[k, l]: the chance that the transmitter's word k, sent through the
    channel, falls in the receiver's cell l (a point word w is in (a, b] iff
    a < w <= b). The edge cells keep the mass past 0 or 1, where the sampler
    clamps it. Smeared mass is priced on cells shifted by -w, for precision."""
    edges = np.concatenate(([-np.inf], receiver.boundaries[1:-1], [np.inf]))
    a, b, w = edges[:-1], edges[1:], transmitter.words[:, None]
    if noise.shape is KernelShape.POINT:
        return ((a < w) & (w <= b)).astype(float)
    return noise.partial_moments(a - w, b - w, 0.0, 1)[0]


def word_usage(observed: MixtureDensity, quantizer) -> np.ndarray:
    """p_k = mass of the observed mixture in cell k of the quantizer."""
    u = observed.partial_moments(quantizer.boundaries, orders=1)[0]
    return u / u.sum()
