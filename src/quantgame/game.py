"""Strategic layer: best responses, cyclic distributed Lloyd-Max dynamics,
sequential solving on forests, Nash verification, and the social-stability
margin check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import montecarlo
from .densities import MixtureDensity, NoiseKernel, POINT_KERNEL
from .networks import (
    AgentSpec,
    CommMatrix,
    detect_acyclic,
    observed_environment,
    word_usage,
)
from .quantizers import LloydMaxResult, RegularQuantizer, centroid_residual, multi_start_lloyd_max

# the sweep orders `solve_equilibrium` accepts
SCHEDULE_POLICIES = ("cyclic", "topological_if_acyclic")


@dataclass(frozen=True, eq=False)  # its CommMatrix compares by identity
class QuantizationGame:
    """A population of agents with beta sources on a communication network."""

    agents: Tuple[AgentSpec, ...]
    comm: CommMatrix
    noise: NoiseKernel = POINT_KERNEL

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) != self.comm.n_agents:
            raise ValueError("agent count does not match matrix size")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")

    @property
    def n_agents(self) -> int:
        return len(self.agents)


@dataclass
class GameState:
    """Snapshot of all agents' strategies and their word usage."""

    quantizers: List[RegularQuantizer]
    usage: List[np.ndarray]
    iteration: int = 0
    last_max_move: float = float("inf")
    # agents whose response in the sweep that made this state stopped at the iteration cap
    unsettled: Tuple[int, ...] = ()
    # solve_equilibrium's ((game, n_starts, words+usage), (physical optima, closing responses))
    solved: Optional[tuple] = field(default=None, repr=False, compare=False)

    def copy(self) -> "GameState":
        return GameState(list(self.quantizers), [u.copy() for u in self.usage],
                         self.iteration, self.last_max_move)


def _words_and_usage(state: GameState) -> np.ndarray:
    return np.concatenate([q.words for q in state.quantizers] + list(state.usage))


def _saved(state: GameState, game: QuantizationGame, n_starts: int):
    """The (physical-only optima, closing best responses) saved on `state`
    if they were computed for this `game` object and `n_starts` from the
    words and usage the state holds now; otherwise None."""
    (g, n, held), saved = state.solved or ((None, 0, None), None)
    fits = g is game and n == n_starts and np.array_equal(held, _words_and_usage(state))
    return saved if fits else None


@dataclass
class EquilibriumReport:
    observed_residuals: np.ndarray
    br_distances: np.ndarray
    converged: bool
    sweeps: int
    true_residuals: Optional[np.ndarray] = None
    true_residual_ses: Optional[np.ndarray] = None
    # per agent, the true-environment samples that outlast DEPTH_CAP and so
    # are left out of the true residual
    true_residual_truncated: Optional[np.ndarray] = None
    # solve_equilibrium only: the state after each sweep, entry 0 the bootstrap
    history: List[GameState] = field(default_factory=list)


def observed_mixture(i: int, game: QuantizationGame, quantizers, usage) -> MixtureDensity:
    """Agent i's observed environment under the given strategies and usage."""
    return observed_environment(
        i, game.agents[i].physical, quantizers, usage, game.comm, game.noise
    )


def refresh_state(game: QuantizationGame, quantizers: Sequence[RegularQuantizer]) -> GameState:
    """Build a consistent GameState (usage vectors) from quantizers.

    Usage vectors are iterated to their mutual fixed point: each agent's
    usage depends on peers' usage through the observed mixture.
    """
    n = game.n_agents
    usage = [word_usage(MixtureDensity.from_beta(a.physical), q)
             for a, q in zip(game.agents, quantizers)]
    for _ in range(200):
        new_usage = []
        delta = 0.0
        for i in range(n):
            obs = observed_mixture(i, game, quantizers, usage)
            u = word_usage(obs, quantizers[i])
            delta = max(delta, float(np.max(np.abs(u - usage[i]))))
            new_usage.append(u)
        usage = new_usage
        if delta < 1e-14:
            break
    return GameState(list(quantizers), usage)


def bootstrap(game: QuantizationGame, n_starts: int) -> GameState:
    """Initial state: per-agent Lloyd-Max optimum on the physical source
    alone, with the usage each design priced."""
    designs = multi_start_lloyd_max([MixtureDensity.from_beta(a.physical) for a in game.agents],
                                    [a.levels for a in game.agents], n_starts=n_starts)
    return GameState([res.quantizer for res in designs], [res.usage for res in designs])


def best_response(agents: Sequence[int], state: GameState, game: QuantizationGame,
                  n_starts: int) -> List[LloydMaxResult]:
    """For each of `agents`, designed in one batch, the winning Lloyd-Max run
    against its current observed environment, warm-started from its present
    strategy. That environment reads only the agent's peers, so the run's
    usage is the agent's usage after its move. An error is the one that
    answering one agent after another raises first."""
    agents, mixes = list(agents), []
    try:
        for i in agents:
            mixes.append(observed_mixture(i, game, state.quantizers, state.usage))
    except Exception:
        best_response(agents[:len(mixes)], state, game, n_starts)  # an earlier failure first
        raise
    return multi_start_lloyd_max(mixes, [game.agents[i].levels for i in agents],
                                 n_starts, [state.quantizers[i] for i in agents])


def sweep(state: GameState, game: QuantizationGame,
          schedule: Sequence[int], n_starts: int) -> Tuple[GameState, float]:
    """One pass of best responses in schedule order. The responding agent's
    usage is refreshed after its move. Each run of consecutive agents in
    which no agent hears an earlier member answers as one batch: each sees
    what it sees when the agents answer one by one. Returns the new state
    (`unsettled` lists responses that hit the iteration cap) and the max move."""
    if sorted(schedule) != list(range(game.n_agents)):
        raise ValueError("schedule must be a permutation of all agents")
    runs: List[List[int]] = [[]]
    for i in schedule:
        if game.comm.links[i, runs[-1]].any():
            runs.append([])
        runs[-1].append(i)
    st = state.copy()
    move = 0.0
    for run in runs:
        for i, res in zip(run, best_response(run, st, game, n_starts=n_starts)):
            old = st.quantizers[i]
            new, st.unsettled = res.quantizer, st.unsettled + (i,) * (not res.converged)
            move = max(
                move,
                float(np.max(np.abs(new.words - old.words))),
                float(np.max(np.abs(new.boundaries - old.boundaries))),
            )
            st.quantizers[i] = new
            st.usage[i] = res.usage
    st.iteration += 1
    st.last_max_move = move
    return st, move


def solve_equilibrium(
    game: QuantizationGame,
    schedule_policy: str,
    tol: float,
    max_sweeps: int,
    n_starts: int,
) -> Tuple[GameState, EquilibriumReport]:
    """Distributed Lloyd-Max dynamics from the physical-only bootstrap.

    schedule_policy: "cyclic" (agent-id order) or "topological_if_acyclic"
    (forest networks get a transmitters-first order, which converges in a
    single pass). The report's `history` holds the bootstrap state and the
    state after each sweep. A solve whose last sweep left agents `unsettled` is not converged.
    """
    if schedule_policy not in SCHEDULE_POLICIES:
        raise ValueError(f"unknown schedule policy {schedule_policy!r}")
    schedule = list(range(game.n_agents))
    if schedule_policy == "topological_if_acyclic":
        is_forest, order = detect_acyclic(game.comm)
        if is_forest:
            schedule = order

    state = bootstrap(game, n_starts=n_starts)
    history = [state]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        # global multi-start on the first pass; afterwards the warm start
        # tracks the same optimum and extra restarts only add cost. The
        # final report re-checks best responses with the full multi-start.
        starts = n_starts if sweeps == 1 else 1
        state, move = sweep(state, game, schedule, n_starts=starts)
        history.append(state)
        if move < tol:
            converged = not state.unsettled
            break
    responses = [r.quantizer for r in best_response(range(game.n_agents), state, game, n_starts)]
    state.solved = (game, n_starts, _words_and_usage(state)), (history[0].quantizers, responses)
    report = _quick_report(state, game, converged, sweeps, n_starts)
    report.history = history
    return state, report


def _quick_report(state: GameState, game: QuantizationGame, converged: bool,
                  sweeps: int, n_starts: int) -> EquilibriumReport:
    """Observed residuals and distances to the closing best responses, which
    are the ones solve_equilibrium saved on `state` if they fit."""
    n = game.n_agents
    saved = _saved(state, game, n_starts)
    obs_res = np.empty(n)
    for i, q in enumerate(state.quantizers):
        try:
            obs_res[i] = centroid_residual(q, observed_mixture(i, game, state.quantizers,
                                                               state.usage))
        except Exception:
            if not saved:
                best_response(range(i), state, game, n_starts)  # an earlier failure first
            raise
    brs = saved[1] if saved else [res.quantizer for res in
                                  best_response(range(n), state, game, n_starts)]
    br_dist = np.array([float(np.max(np.abs(br.words - q.words)))
                        for br, q in zip(brs, state.quantizers)])
    return EquilibriumReport(obs_res, br_dist, converged, sweeps)


def verify_nash(
    state: GameState,
    game: QuantizationGame,
    tol: float,
    n_samples: int,
    seed: int,
    n_starts: int,
) -> EquilibriumReport:
    """Full equilibrium certificate: observed-environment centroid residuals,
    best-response distances, and Monte-Carlo estimates (with standard
    errors) of the true-environment word-conditional centroid residuals.

    An agent's true residual is the largest over the words with at least
    two accepted samples, and NaN if no word has that many. Samples that
    outlast DEPTH_CAP are not accepted; their count per agent is kept in
    `true_residual_truncated`."""
    if n_samples < 1:
        raise ValueError("sample count must be positive")
    report = _quick_report(state, game, converged=True,
                           sweeps=state.iteration, n_starts=n_starts)
    n = game.n_agents
    true_res = np.full(n, np.nan)
    true_se = np.full(n, np.nan)
    truncated = np.empty(n, dtype=int)
    for i in range(n):
        resid, se, counts = montecarlo.true_env_residuals(
            i, state, game, n_samples=n_samples, seed=seed + i
        )
        truncated[i] = n_samples - counts.sum()
        if not np.isnan(resid).all():  # resid is NaN on words with < 2 samples
            k = int(np.nanargmax(np.abs(resid)))
            true_res[i] = float(np.abs(resid[k]))
            true_se[i] = float(se[k])
    report.true_residuals = true_res
    report.true_residual_ses = true_se
    report.true_residual_truncated = truncated
    report.converged = bool(np.all(report.observed_residuals < 10 * tol))
    return report


@dataclass
class StabilityReport:
    """Largest separation margin epsilon per the social-stability conditions."""

    epsilon: float
    response_drift: float
    noise_halfwidth: float
    satisfied: bool


def check_social_stability(state: GameState, game: QuantizationGame,
                           n_starts: int) -> StabilityReport:
    """Margin between agents' physically-optimal words and communicating
    peers' cell boundaries, checked against best-response drift and the
    noise support.

    The supremum epsilon is the word-boundary margin; the state is
    socially stable when both the drift from the physical optima and the
    noise halfwidth stay below epsilon/2.
    """
    saved = _saved(state, game, n_starts)
    baseline = saved[0] if saved else bootstrap(game, n_starts).quantizers
    # every listener i against every source j it hears, its own source included
    margin = min(float(np.min(np.abs(baseline[i].words[:, None] - baseline[j].boundaries[1:])))
                 for i, j in np.argwhere(game.comm.entries > 0.0))
    drift = max(float(np.max(np.abs(b.words - q.words)))
                for b, q in zip(baseline, state.quantizers))
    hw = game.noise.halfwidth
    satisfied = margin > 2.0 * drift and margin > 2.0 * hw and margin > 0.0
    return StabilityReport(margin, drift, hw, satisfied)
