"""Strategic layer: bootstrap, best responses, sweep dynamics, equilibrium
solving and certification, the social-stability margin check, the
certificates' reuse of a solve's designs, the report of best responses
stopped at the Lloyd-Max iteration cap, and the batched responses against
the one-agent-at-a-time loops they replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantgame import (
    BetaDensity,
    CommMatrix,
    EmptyCellError,
    GameState,
    MixtureDensity,
    NoiseKernel,
    QuantizationGame,
    RegularQuantizer,
    best_response,
    bootstrap,
    centroid_residual,
    check_social_stability,
    load_state,
    quantizer_from_words,
    refresh_state,
    save_state,
    solve_equilibrium,
    sweep,
    verify_nash,
)
from quantgame import game as game_module
from quantgame import quantizers
from quantgame.game import observed_mixture
from quantgame.networks import AgentSpec, word_usage

from conftest import ROOT, TRIANGULAR_NOISE_FIXTURE, lloyd_max_to, outcome, triangular_noise_game
from oracles import sequential_bootstrap, sequential_responses, sequential_solve, sequential_sweep
from strategies import forests, games

# the benchmark's committed reference equilibrium, read here and never written
REFERENCE_FIXTURE = ROOT / "perfbench" / "fixtures" / "reference_state.json"


def _isolated_game():
    agents = (AgentSpec(0, BetaDensity(2, 5), 4),
              AgentSpec(1, BetaDensity(5, 2), 4))
    return QuantizationGame(agents, CommMatrix(np.eye(2)))


def _coupled_game():
    agents = (AgentSpec(0, BetaDensity(8, 2), 5),
              AgentSpec(1, BetaDensity(2, 8), 5))
    P = CommMatrix(np.array([[0.85, 0.15], [0.15, 0.85]]))
    return QuantizationGame(agents, P)


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

    def test_compares_and_hashes_by_identity(self):
        game = _coupled_game()
        same = QuantizationGame(game.agents, game.comm, game.noise)
        assert game == game and not game != game
        assert not game == same and game != same
        assert hash(game) == hash(game)
        assert {game: 1, same: 2}[game] == 1


class TestBootstrap:
    def test_matches_physical_optima(self):
        game = _coupled_game()
        state = bootstrap(game, n_starts=8)
        for i, agent in enumerate(game.agents):
            ref = lloyd_max_to(MixtureDensity.from_beta(agent.physical), agent.levels, 1e-11)
            assert state.quantizers[i].words == pytest.approx(
                ref.quantizer.words, abs=1e-8)

    def test_usage_sums_to_one(self):
        state = bootstrap(_coupled_game(), n_starts=8)
        for u in state.usage:
            assert u.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(u >= 0)


class TestBestResponseAndSweep:
    def test_best_response_optimizes_observed(self):
        game = _coupled_game()
        state = bootstrap(game, n_starts=8)
        [res] = best_response([0], state, game, n_starts=8)
        obs = observed_mixture(0, game, state.quantizers, state.usage)
        assert res.converged
        assert centroid_residual(res.quantizer, obs) < 1e-9
        # the design's usage is the one its environment gives, bit for bit
        assert res.usage.tolist() == word_usage(obs, res.quantizer).tolist()

    def test_sweep_builds_each_mixture_once(self, monkeypatch, ref_game):
        # a responder's mixture reads only its peers, so the one its response
        # priced also gives its usage after the move
        game = _coupled_game()
        state = bootstrap(game, n_starts=8)
        built = []
        build = game_module.observed_environment
        monkeypatch.setattr(game_module, "observed_environment",
                            lambda i, *rest: built.append(i) or build(i, *rest))
        new_state, _move = sweep(state, game, [1, 0], n_starts=1)
        assert built == [1, 0]
        monkeypatch.undo()
        last = observed_mixture(0, game, new_state.quantizers, new_state.usage)
        want = last.partial_moments(new_state.quantizers[0].boundaries, orders=1)[0]
        assert new_state.usage[0].tolist() == (want / want.sum()).tolist()
        # so neither a warm sweep nor the bootstrap prices any usage again
        fixture = load_state(REFERENCE_FIXTURE, ref_game)
        priced = []
        pricing = MixtureDensity.partial_moments
        monkeypatch.setattr(MixtureDensity, "partial_moments",
                            lambda *args, **kw: priced.append(1) or pricing(*args, **kw))
        sweep(fixture, ref_game, range(ref_game.n_agents), n_starts=1)
        assert priced == []
        bootstrap(ref_game, 8)
        assert priced == []

    def test_isolated_agents_do_not_move(self):
        game = _isolated_game()
        state = bootstrap(game, n_starts=8)
        new_state, move = sweep(state, game, [0, 1], n_starts=8)
        assert move < 1e-9

    def test_schedule_validation(self):
        game = _coupled_game()
        state = bootstrap(game, n_starts=8)
        with pytest.raises(ValueError):
            sweep(state, game, [0, 0], n_starts=8)
        with pytest.raises(ValueError):
            sweep(state, game, [0], n_starts=8)

    def test_sweep_does_not_mutate_input(self):
        game = _coupled_game()
        state = bootstrap(game, n_starts=8)
        words_before = [q.words.copy() for q in state.quantizers]
        sweep(state, game, [0, 1], n_starts=8)
        for q, w in zip(state.quantizers, words_before):
            assert np.array_equal(q.words, w)


class TestSolveEquilibrium:
    def test_identity_network_converges_immediately(self):
        game = _isolated_game()
        state, report = solve_equilibrium(game, "cyclic", tol=1e-9, max_sweeps=10, n_starts=8)
        assert report.converged
        assert report.sweeps <= 2
        ref = bootstrap(game, n_starts=8)
        for i in range(2):
            assert state.quantizers[i].words == pytest.approx(
                ref.quantizers[i].words, abs=1e-9)

    def test_coupled_pair_equilibrium(self):
        game = _coupled_game()
        state, report = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=100, n_starts=8)
        assert report.converged
        assert np.max(report.observed_residuals) < 1e-9
        assert np.max(report.br_distances) < 1e-8

    def test_repeat_solves_are_identical(self):
        game = _coupled_game()
        s1, _ = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=100, n_starts=8)
        s2, _ = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=100, n_starts=8)
        for q1, q2 in zip(s1.quantizers, s2.quantizers):
            assert np.array_equal(q1.words, q2.words)
            assert np.array_equal(q1.boundaries, q2.boundaries)

    def test_history_holds_bootstrap_and_every_sweep(self):
        game = _coupled_game()
        state, report = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=100, n_starts=8)
        assert len(report.history) == report.sweeps + 1
        assert [s.iteration for s in report.history] == list(range(report.sweeps + 1))
        assert report.history[-1] is state
        for q, b in zip(report.history[0].quantizers, bootstrap(game, n_starts=8).quantizers):
            assert np.array_equal(q.words, b.words)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            solve_equilibrium(_coupled_game(), schedule_policy="random", tol=1e-9,
                              max_sweeps=200, n_starts=8)

    def test_non_convergence_reported(self):
        game = _coupled_game()
        _state, report = solve_equilibrium(game, "cyclic", tol=0.0, max_sweeps=3, n_starts=8)
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
        game = triangular_noise_game()
        state, report = solve_equilibrium(game, "cyclic", tol=1e-9, max_sweeps=200, n_starts=8)
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
        report = verify_nash(state, game, tol=1e-9, n_samples=200_000, seed=5, n_starts=8)
        assert report.converged
        for r, se in zip(report.true_residuals, report.true_residual_ses):
            assert r < 3.0 * se + 1e-4

    def test_sample_count_validation(self, stable_pair):
        game, state, _ = stable_pair
        with pytest.raises(ValueError, match="sample count"):
            verify_nash(state, game, tol=1e-9, n_samples=0, seed=0, n_starts=8)


class TestSocialStability:
    def test_identity_network_is_stable(self):
        game = _isolated_game()
        state, _ = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=10, n_starts=8)
        rep = check_social_stability(state, game, n_starts=8)
        # only the diagonal pairs apply: margin is each agent's own
        # word-to-boundary separation, and the drift is zero
        assert rep.satisfied
        assert rep.response_drift < 1e-9
        assert rep.epsilon > 0

    def test_identical_pair_margin(self, stable_pair):
        game, state, _ = stable_pair
        rep = check_social_stability(state, game, n_starts=8)
        assert rep.satisfied
        base = bootstrap(game, n_starts=8).quantizers[0]
        want = float(np.min(np.abs(base.words[:, None] -
                                   base.boundaries[None, 1:])))
        assert rep.epsilon == pytest.approx(want, abs=1e-9)

    def test_noise_wider_than_margin_fails(self, stable_pair):
        game, state, _ = stable_pair
        noisy = QuantizationGame(game.agents, game.comm,
                                 NoiseKernel("uniform", 0.2))
        rep = check_social_stability(state, noisy, n_starts=8)
        assert not rep.satisfied


@pytest.fixture
def designs(monkeypatch):
    """Counts the Lloyd-Max designs run: each multi-start design, and so
    each best response and each physical-only optimum, is one of the
    mixtures passed to `quantizers._run_starts`, which runs a batch of them."""
    calls = []
    run_starts = quantizers._run_starts

    def counting(mixes, *args):
        calls.extend(mixes)
        return run_starts(mixes, *args)

    monkeypatch.setattr(quantizers, "_run_starts", counting)
    return calls


def _certificates(state, game, n_starts):
    """verify_nash's and check_social_stability's numbers on `state`."""
    report = verify_nash(state, game, tol=1e-9, n_samples=2_000, seed=3, n_starts=n_starts)
    stability = check_social_stability(state, game, n_starts=n_starts)
    return [report.observed_residuals, report.br_distances, report.true_residuals,
            report.true_residual_ses, report.true_residual_truncated,
            np.array([stability.epsilon, stability.response_drift])]


class TestSolveRecord:
    """solve_equilibrium's state carries the physical-only optima and the
    closing best responses; the certificates reuse them for the same game
    and n_starts on the unchanged state, and recompute in every other case."""

    @pytest.fixture(scope="class")
    def solved(self):
        game = _coupled_game()
        state, _report = solve_equilibrium(game, "cyclic", tol=1e-10, max_sweeps=100, n_starts=8)
        return game, state

    def test_certificates_of_a_solved_state_run_no_design(self, solved, designs):
        game, state = solved
        _certificates(state, game, 8)
        assert designs == []

    def test_reused_equal_recomputed(self, solved, designs, tmp_path):
        game, state = solved
        reused = _certificates(state, game, 8)
        save_state(state, [a.id for a in game.agents], tmp_path / "state.json")
        loaded = load_state(tmp_path / "state.json", game)
        recomputed = _certificates(loaded, game, 8)
        # the loaded state carries nothing: n best responses and n optima
        assert len(designs) == 2 * game.n_agents
        assert all(np.array_equal(a, b) for a, b in zip(reused, recomputed))

    def test_changed_inputs_force_a_recompute(self, solved, designs):
        game, state = solved
        moved = state.copy()
        moved.solved = state.solved
        moved.quantizers[0] = quantizer_from_words(state.quantizers[0].words * 0.999)
        same_game = QuantizationGame(game.agents, game.comm, game.noise)
        for st, g, n_starts in ((moved, game, 8), (state, game, 4), (state, same_game, 8)):
            designs.clear()
            _certificates(st, g, n_starts)
            assert len(designs) == 2 * game.n_agents

    def test_each_solve_repeats_every_design(self, ref_cfg, designs):
        # nothing is kept between solves: the game's second solve, verify
        # and stability check run the same 250 designs as its first (the
        # bootstrap's 5, 48 sweeps of 5 and 5 closing responses), and the
        # certificates add none
        game, solver = ref_cfg.game(), ref_cfg.solver
        counts = []
        for _ in range(2):
            designs.clear()
            state, _report = solve_equilibrium(game, solver.schedule_policy, solver.tol,
                                               solver.max_sweeps, solver.n_starts)
            _certificates(state, game, solver.n_starts)
            counts.append(len(designs))
        assert counts == [250, 250]


class TestIterationCap:
    """A final-sweep best response that stops at the Lloyd-Max iteration
    cap without settling makes the solve unconverged."""

    def test_capped_final_response_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(quantizers, "_MULTI_MAX_ITERS", 2)
        game = _coupled_game()
        # two Lloyd steps per response: the sweeps settle below 1e-3 long
        # before any response reaches the inner tolerance
        state, report = solve_equilibrium(game, "cyclic", tol=1e-3, max_sweeps=100, n_starts=8)
        assert state.last_max_move < 1e-3
        assert not report.converged
        assert state.unsettled == (0, 1)

    def test_uncapped_solve_has_no_unsettled_agent(self, stable_pair):
        _game, state, report = stable_pair
        assert report.converged and state.unsettled == ()


def _assert_same(got, want):
    """Equal states (words, boundaries, usage, iteration, move, unsettled),
    quantizers and numbers, bit for bit, in any nesting of lists and tuples."""
    if isinstance(want, GameState):
        assert isinstance(got, GameState)
        assert (got.iteration, got.last_max_move, got.unsettled) == \
            (want.iteration, want.last_max_move, want.unsettled)
        _assert_same(got.quantizers, want.quantizers)
        _assert_same(got.usage, want.usage)
    elif isinstance(want, RegularQuantizer):
        _assert_same([got.words, got.boundaries], [want.words, want.boundaries])
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, (list, tuple)) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


def _assert_same_outcome(got, want):
    """Equal `outcome`s: the same results, or the same raised error."""
    assert got[0] == want[0]
    if want[0] == "raised":
        assert got == want
    else:
        _assert_same(got[1], want[1])


class TestStackedResponses:
    """Agents that hear none of each other answer in one batch: the
    bootstrap, each sweep's runs of such agents and the closing responses.
    Each must return what the one-agent-at-a-time loops of `oracles`
    return, bit for bit, and raise what they raise. The inner Lloyd-Max runs
    stop at 300 iterations, so that capped responses (`unsettled`) occur
    and the tests stay quick; examples come from the hypothesis profile."""

    @given(games(), st.integers(1, 3), st.data())
    def test_sweeps_equal_one_agent_at_a_time(self, case, n_starts, data):
        game, state = case[:2]
        schedule = data.draw(st.permutations(range(game.n_agents)), label="schedule")
        with mock.patch.object(quantizers, "_MULTI_MAX_ITERS", 300):
            _assert_same_outcome(outcome(lambda: bootstrap(game, n_starts)),
                                 outcome(lambda: sequential_bootstrap(game, n_starts)))
            for starts in (n_starts, 1):  # a cold sweep from the drawn state, then a warm one
                want = outcome(lambda: sequential_sweep(state, game, schedule, starts))
                _assert_same_outcome(outcome(lambda: sweep(state, game, schedule, starts)), want)
                if want[0] == "raised":
                    break
                state = want[1][0]
            _assert_same_outcome(
                outcome(lambda: [res.quantizer for res in
                                 best_response(range(game.n_agents), state, game, n_starts)]),
                outcome(lambda: sequential_responses(state, game, n_starts)))

    def test_first_agent_of_a_run_to_fail_raises(self):
        # one run of four agents: agent 0 hears one word with all its weight,
        # too few for its two, so its design starves; agent 1 hears agent 2,
        # whose usage is no probability vector, so its environment cannot be
        # built. One by one, agent 0's error comes first, so it must here.
        P = np.array([[0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, 0, 1, 0], [0, 0, 0, 1]], float)
        game = QuantizationGame(tuple(AgentSpec(k, BetaDensity(2, 3), levels)
                                      for k, levels in enumerate((2, 2, 1, 1))), CommMatrix(P))
        quantizers = [quantizer_from_words(w) for w in ([0.3, 0.7], [0.3, 0.7], [0.4], [0.6])]
        state = GameState(quantizers, [np.array([0.5, 0.5])] * 2 + [np.array([0.5]),
                                                                    np.array([1.0])])
        got = outcome(lambda: sweep(state, game, [0, 1, 2, 3], 2))
        assert got == outcome(lambda: sequential_sweep(state, game, [0, 1, 2, 3], 2))
        assert got[1] is EmptyCellError
        assert outcome(lambda: best_response(range(4), state, game, 2)) == \
            outcome(lambda: sequential_responses(state, game, 2))

    @given(forests(), st.integers(1, 3))
    def test_forest_solves_equal_one_agent_at_a_time(self, game, n_starts):
        schedule = game_module.detect_acyclic(game.comm)[1]
        with mock.patch.object(quantizers, "_MULTI_MAX_ITERS", 300):
            got = outcome(lambda: solve_equilibrium(game, "topological_if_acyclic", 1e-9, 4,
                                                    n_starts))
            want = outcome(lambda: sequential_solve(game, schedule, 1e-9, 4, n_starts))
        if got[0] == "returned":  # history, then the closing responses saved on the state
            got = got[0], (got[1][1].history, got[1][0].solved[1][1])
        _assert_same_outcome(got, want)
