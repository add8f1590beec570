"""Shared fixtures: the reference five-agent experiment (loaded and solved
once per session), the constructed shared-vocabulary and shifted-ladder
quantizer sets, a weakly coupled two-agent pair used for the loss
decomposition checks, and a three-agent game with triangular noise whose
solved state is committed. Also the hypothesis profiles."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from quantgame import (
    BetaDensity,
    CommMatrix,
    NoiseKernel,
    QuantizationGame,
    RegularQuantizer,
    bootstrap,
    load_config,
    solve_equilibrium,
)
from quantgame.networks import AgentSpec
from quantgame.quantizers import _MAX_ITERS, _multi_start_inits, _run_starts

# Hypothesis profiles, for the property tests that take their example
# count from the loaded profile (the sampler against its masked oracle on
# random games): "tier1", the default, tries a few examples; "ci", chosen
# by HYPOTHESIS_PROFILE=ci, many more. Both are derandomized, so a run is
# reproducible, and keep no example database on disk.
settings.register_profile("tier1", max_examples=10, derandomize=True, database=None,
                          deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("ci", settings.get_profile("tier1"), max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = ROOT / "configs" / "reference.cfg"
IDENTITY_CONFIG = ROOT / "configs" / "identity.cfg"
# solve_equilibrium(triangular_noise_game()) saved by save_state
TRIANGULAR_NOISE_FIXTURE = ROOT / "tests" / "triangular_noise_state.json"

# Six-word reference target table for agent 5, and the beta parameters
# recovered from it by minimax search (committed fixture). No beta Lloyd-Max
# design reproduces this table: the best fit misses by 0.0194 per word, so
# it is not agent 5's physical-only design.
AGENT5_TARGET_WORDS = np.array(
    [0.1982, 0.3243, 0.4387, 0.5574, 0.6902, 0.8626]
)
RECOVERED_AGENT5_PARAMS = (2.6722600899, 2.4596656541)


def lloyd_max_to(mix, levels, tol):
    """`lloyd_max` run to `tol` in place of its fixed 1e-10: the same
    quantile start through the same loop, for tests that need a tighter
    design."""
    return _run_starts([mix], _multi_start_inits([mix], levels, 1, [None])[0], _MAX_ITERS, tol)[0]


def outcome(call):
    """("returned", call()'s result), or ("raised", the type and message of
    the exception it raised): a call and its reference must agree on both."""
    try:
        return "returned", call()
    except Exception as exc:  # noqa: BLE001 - compared with the reference's
        return "raised", type(exc), str(exc)


@pytest.fixture(scope="session")
def ref_cfg():
    return load_config(REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def ref_game(ref_cfg):
    return ref_cfg.game()


@pytest.fixture(scope="session")
def ref_solved(ref_cfg, ref_game):
    """Equilibrium state and report of the reference experiment (solved once)."""
    return solve_equilibrium(
        ref_game,
        schedule_policy=ref_cfg.solver.schedule_policy,
        tol=ref_cfg.solver.tol,
        max_sweeps=ref_cfg.solver.max_sweeps,
        n_starts=ref_cfg.solver.n_starts,
    )


@pytest.fixture(scope="session")
def ref_bootstrap(ref_game):
    """Physical-only optimal quantizers for the reference experiment."""
    return bootstrap(ref_game, n_starts=8)


def triangular_noise_game():
    """Three five-level agents on a loopy network; every word heard is
    smeared by triangular noise of halfwidth 0.02."""
    agents = tuple(AgentSpec(k + 1, BetaDensity(a, b), 5)
                   for k, (a, b) in enumerate([(2.0, 5.0), (3.0, 3.0), (5.0, 2.0)]))
    P = np.array([[0.8, 0.1, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]])
    return QuantizationGame(agents, CommMatrix(P), NoiseKernel("triangular", 0.02))


def _quantizer(boundaries, words):
    return RegularQuantizer(np.asarray(boundaries, float), np.asarray(words, float))


@pytest.fixture(scope="session")
def ladder_quantizers():
    """Four-agent shifted ladder WITHOUT a shared vocabulary.

    Each agent's boundaries sit 0.04 below the previous agent's and the
    words sit near cell tops, so every word straddles the next agent's
    boundary: re-quantization climbs one cell per hop and translation
    loss grows along the chain 0 -> 1 -> 2 -> 3.
    """
    return [
        _quantizer([0, 0.22, 0.44, 0.66, 1], [0.20, 0.42, 0.64, 0.90]),
        _quantizer([0, 0.18, 0.40, 0.62, 1], [0.16, 0.38, 0.60, 0.88]),
        _quantizer([0, 0.14, 0.36, 0.58, 1], [0.12, 0.34, 0.56, 0.86]),
        _quantizer([0, 0.10, 0.32, 0.54, 1], [0.08, 0.30, 0.52, 0.84]),
    ]


@pytest.fixture(scope="session")
def ladder_comm():
    """Fully connected four-agent matrix so every chain exists."""
    return CommMatrix(np.full((4, 4), 0.25))


@pytest.fixture(scope="session")
def shared_quantizers():
    """Three distinct quantizers that DO share a vocabulary: every index-k
    cell intersection is nonempty and contains all three k-th words."""
    return [
        _quantizer([0, 0.25, 0.50, 0.75, 1], [0.12, 0.37, 0.62, 0.87]),
        _quantizer([0, 0.27, 0.52, 0.77, 1], [0.14, 0.39, 0.64, 0.89]),
        _quantizer([0, 0.23, 0.48, 0.73, 1], [0.13, 0.38, 0.63, 0.88]),
    ]


@pytest.fixture(scope="session")
def shared_comm():
    return CommMatrix(np.full((3, 3), 1.0 / 3.0))


@pytest.fixture(scope="session")
def stable_pair():
    """Weakly coupled identical pair that passes the social-stability check.

    Returns (game, state, report)."""
    agents = (
        AgentSpec(0, BetaDensity(2.0, 2.0), 4),
        AgentSpec(1, BetaDensity(2.0, 2.0), 4),
    )
    game = QuantizationGame(agents, CommMatrix(np.array([[0.98, 0.02],
                                                         [0.02, 0.98]])))
    state, report = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=100, n_starts=8)
    return game, state, report
