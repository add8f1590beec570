"""Strategic layer: bootstrap, best responses, sweep dynamics, equilibrium
solving and certification, and the social-stability margin check."""

import numpy as np
import pytest

from quantgame import (
    BetaDensity,
    CommMatrix,
    NoiseKernel,
    QuantizationGame,
    best_response,
    bootstrap,
    centroid_residual,
    check_social_stability,
    lloyd_max,
    load_state,
    refresh_state,
    solve_equilibrium,
    sweep,
    verify_nash,
)
from quantgame.game import observed_mixture
from quantgame.networks import AgentSpec

from conftest import ROOT

# the benchmark's committed reference equilibrium, read here and never written
REFERENCE_FIXTURE = ROOT / "perfbench" / "fixtures" / "reference_state.json"
# solve_equilibrium(_triangular_noise_game()) saved by save_state
TRIANGULAR_NOISE_FIXTURE = ROOT / "tests" / "triangular_noise_state.json"


def _isolated_game():
    agents = (AgentSpec(0, BetaDensity(2, 5), 4),
              AgentSpec(1, BetaDensity(5, 2), 4))
    return QuantizationGame(agents, CommMatrix(np.eye(2)))


def _coupled_game():
    agents = (AgentSpec(0, BetaDensity(8, 2), 5),
              AgentSpec(1, BetaDensity(2, 8), 5))
    P = CommMatrix(np.array([[0.85, 0.15], [0.15, 0.85]]))
    return QuantizationGame(agents, P)


def _triangular_noise_game():
    """Three five-level agents on a loopy network; every word heard is
    smeared by triangular noise of halfwidth 0.02."""
    agents = tuple(AgentSpec(k + 1, BetaDensity(a, b), 5)
                   for k, (a, b) in enumerate([(2.0, 5.0), (3.0, 3.0), (5.0, 2.0)]))
    P = np.array([[0.8, 0.1, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]])
    return QuantizationGame(agents, CommMatrix(P), NoiseKernel("triangular", 0.02))


class TestGameConstruction:
    def test_agent_matrix_mismatch(self):
        agents = (AgentSpec(0, BetaDensity(2, 2), 3),)
        with pytest.raises(ValueError):
            QuantizationGame(agents, CommMatrix(np.eye(2)))

    def test_duplicate_ids(self):
        agents = (AgentSpec(7, BetaDensity(2, 2), 3),
                  AgentSpec(7, BetaDensity(2, 5), 3))
        with pytest.raises(ValueError):
            QuantizationGame(agents, CommMatrix(np.eye(2)))


class TestBootstrap:
    def test_matches_physical_optima(self):
        game = _coupled_game()
        state = bootstrap(game)
        for i, agent in enumerate(game.agents):
            ref = lloyd_max(agent.physical, levels=agent.levels, tol=1e-11)
            assert state.quantizers[i].words == pytest.approx(
                ref.quantizer.words, abs=1e-8)

    def test_usage_sums_to_one(self):
        state = bootstrap(_coupled_game())
        for u in state.usage:
            assert u.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(u >= 0)


class TestBestResponseAndSweep:
    def test_best_response_optimizes_observed(self):
        game = _coupled_game()
        state = bootstrap(game)
        br = best_response(0, state, game)
        obs = observed_mixture(0, game, state.quantizers, state.usage)
        assert centroid_residual(br, obs) < 1e-9

    def test_isolated_agents_do_not_move(self):
        game = _isolated_game()
        state = bootstrap(game)
        new_state, move = sweep(state, game, [0, 1])
        assert move < 1e-9

    def test_schedule_validation(self):
        game = _coupled_game()
        state = bootstrap(game)
        with pytest.raises(ValueError):
            sweep(state, game, [0, 0])
        with pytest.raises(ValueError):
            sweep(state, game, [0])

    def test_sweep_does_not_mutate_input(self):
        game = _coupled_game()
        state = bootstrap(game)
        words_before = [q.words.copy() for q in state.quantizers]
        sweep(state, game, [0, 1])
        for q, w in zip(state.quantizers, words_before):
            assert np.array_equal(q.words, w)


class TestSolveEquilibrium:
    def test_identity_network_converges_immediately(self):
        game = _isolated_game()
        state, report = solve_equilibrium(game, tol=1e-9, max_sweeps=10)
        assert report.converged
        assert report.sweeps <= 2
        ref = bootstrap(game)
        for i in range(2):
            assert state.quantizers[i].words == pytest.approx(
                ref.quantizers[i].words, abs=1e-9)

    def test_coupled_pair_equilibrium(self):
        game = _coupled_game()
        state, report = solve_equilibrium(game, tol=1e-10, max_sweeps=100)
        assert report.converged
        assert np.max(report.observed_residuals) < 1e-9
        assert np.max(report.br_distances) < 1e-8

    def test_repeat_solves_are_identical(self):
        game = _coupled_game()
        s1, _ = solve_equilibrium(game, tol=1e-10, max_sweeps=100)
        s2, _ = solve_equilibrium(game, tol=1e-10, max_sweeps=100)
        for q1, q2 in zip(s1.quantizers, s2.quantizers):
            assert np.array_equal(q1.words, q2.words)
            assert np.array_equal(q1.boundaries, q2.boundaries)

    def test_history_holds_bootstrap_and_every_sweep(self):
        game = _coupled_game()
        state, report = solve_equilibrium(game, tol=1e-10, max_sweeps=100)
        assert len(report.history) == report.sweeps + 1
        assert [s.iteration for s in report.history] == list(range(report.sweeps + 1))
        assert report.history[-1] is state
        for q, b in zip(report.history[0].quantizers, bootstrap(game).quantizers):
            assert np.array_equal(q.words, b.words)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            solve_equilibrium(_coupled_game(), schedule_policy="random")

    def test_non_convergence_reported(self):
        game = _coupled_game()
        _state, report = solve_equilibrium(game, tol=0.0, max_sweeps=3)
        assert not report.converged
        assert report.sweeps == 3

    def test_reference_experiment(self, ref_cfg, ref_solved):
        state, report = ref_solved
        assert report.converged
        assert report.sweeps <= ref_cfg.solver.max_sweeps
        assert np.max(report.observed_residuals) < 1e-8
        assert np.max(report.br_distances) < 1e-6

    def test_reference_experiment_matches_committed_fixture(self, ref_game, ref_solved):
        # the solve is deterministic, so any change that moves the reference
        # equilibrium by a single bit shows here
        state, report = ref_solved
        fixture = load_state(REFERENCE_FIXTURE, ref_game)
        assert report.sweeps == state.iteration == fixture.iteration == 48
        for got, want in zip(state.quantizers, fixture.quantizers):
            assert np.max(np.abs(got.words - want.words)) == 0.0
            assert np.max(np.abs(got.boundaries - want.boundaries)) == 0.0
        for got, want in zip(state.usage, fixture.usage):
            assert np.max(np.abs(got - want)) == 0.0

    def test_triangular_noise_solve_matches_committed_state(self):
        # the reference fixture has point atoms only; smeared atoms take the
        # noise kernel's polynomial branch, pinned here bit for bit too
        game = _triangular_noise_game()
        state, report = solve_equilibrium(game)
        fixture = load_state(TRIANGULAR_NOISE_FIXTURE, game)
        assert report.converged
        assert report.sweeps == state.iteration == fixture.iteration == 24
        for got, want in zip(state.quantizers, fixture.quantizers):
            assert np.max(np.abs(got.words - want.words)) == 0.0
            assert np.max(np.abs(got.boundaries - want.boundaries)) == 0.0
        for got, want in zip(state.usage, fixture.usage):
            assert np.max(np.abs(got - want)) == 0.0


class TestRefreshState:
    def test_usage_fixed_point(self, ref_game, ref_solved):
        state, _ = ref_solved
        rebuilt = refresh_state(ref_game, state.quantizers)
        for u1, u2 in zip(rebuilt.usage, state.usage):
            assert u1 == pytest.approx(u2, abs=1e-9)


class TestVerifyNash:
    def test_true_residuals_consistent_with_zero(self, stable_pair):
        game, state, _ = stable_pair
        report = verify_nash(state, game, n_samples=200_000, seed=5)
        assert report.converged
        for r, se in zip(report.true_residuals, report.true_residual_ses):
            assert r < 3.0 * se + 1e-4

    def test_sample_count_validation(self, stable_pair):
        game, state, _ = stable_pair
        with pytest.raises(ValueError, match="sample count"):
            verify_nash(state, game, n_samples=0)


class TestSocialStability:
    def test_identity_network_is_stable(self):
        game = _isolated_game()
        state, _ = solve_equilibrium(game, tol=1e-10, max_sweeps=10)
        rep = check_social_stability(state, game)
        # only the diagonal pairs apply: margin is each agent's own
        # word-to-boundary separation, and the drift is zero
        assert rep.satisfied
        assert rep.response_drift < 1e-9
        assert rep.epsilon > 0

    def test_identical_pair_margin(self, stable_pair):
        game, state, _ = stable_pair
        rep = check_social_stability(state, game)
        assert rep.satisfied
        base = bootstrap(game).quantizers[0]
        want = float(np.min(np.abs(base.words[:, None] -
                                   base.boundaries[None, 1:])))
        assert rep.epsilon == pytest.approx(want, abs=1e-9)

    def test_noise_wider_than_margin_fails(self, stable_pair):
        game, state, _ = stable_pair
        noisy = QuantizationGame(game.agents, game.comm,
                                 NoiseKernel("uniform", 0.2))
        rep = check_social_stability(state, noisy)
        assert not rep.satisfied
