"""Sampling layer: path routing, loss decomposition, estimates pinned bit
for bit, shared-vocabulary detection, translation chains, and
path-dependence probes."""

import json
import tracemalloc
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantgame import (
    BetaDensity,
    ChainReport,
    CommMatrix,
    DomainError,
    MixtureDensity,
    NoChainError,
    NoiseKernel,
    POINT_KERNEL,
    QuantizationGame,
    bootstrap,
    chain_translate,
    enumerate_chains,
    estimate_losses,
    load_config,
    load_state,
    quantization_loss,
    quantizer_from_words,
    refresh_state,
    shared_vocabulary,
    solve_equilibrium,
    true_env_residuals,
)
from quantgame import montecarlo
from quantgame.montecarlo import (
    BLOCK,
    DEPTH_CAP,
    _group_moments,
    _merge,
    _running,
    path_dependence_probe,
    path_dependence_probes,
    sample_paths,
)
from quantgame.networks import AgentSpec

from conftest import REFERENCE_CONFIG, ROOT, TRIANGULAR_NOISE_FIXTURE, triangular_noise_game
from oracles import (
    looped_chain_translate,
    looped_walk_counts,
    masked_sample_paths,
    sampled_chain_translations,
)
from strategies import PROPERTY_SETTINGS, games

# _estimator_record of the reference equilibrium and of the committed
# triangular-noise state, as json.dumps writes it (floats in full)
ESTIMATOR_FIXTURE = ROOT / "tests" / "estimator_pins.json"


def _identity_game():
    agents = (AgentSpec(0, BetaDensity(2, 5), 4),
              AgentSpec(1, BetaDensity(5, 2), 4))
    return QuantizationGame(agents, CommMatrix(np.eye(2)))


def _pair_game(p_listen=0.3):
    agents = (AgentSpec(0, BetaDensity(2, 2), 4),
              AgentSpec(1, BetaDensity(3, 3), 4))
    P = CommMatrix(np.array([[1.0 - p_listen, p_listen],
                             [p_listen, 1.0 - p_listen]]))
    return QuantizationGame(agents, P)


LOOP_NOISES = [POINT_KERNEL, NoiseKernel("uniform", 0.05),
               NoiseKernel("triangular", 0.08)]
LOOP_IDS = ["point", "uniform", "triangular"]


def _loop_game(noise, levels=(4, 4, 4)):
    """Three agents that almost never listen to themselves (diagonals 0.01),
    so about half of all paths outlast DEPTH_CAP hops. Agent 1 has a word at
    0.02, so smeared noise pushes some hops out of (0, 1) and gets clamped."""
    agents = tuple(AgentSpec(k, BetaDensity(2.0 + k, 3.0), levels[k]) for k in range(3))
    P = CommMatrix(np.array([[0.01, 0.50, 0.49],
                             [0.495, 0.01, 0.495],
                             [0.60, 0.39, 0.01]]))
    game = QuantizationGame(agents, P, noise)
    state = bootstrap(game, n_starts=8)
    state.quantizers[1] = quantizer_from_words([0.02, 0.3, 0.6, 0.9][:levels[1]])
    return game, state


def _assert_matches_oracle(i, state, game, n, seed):
    got = sample_paths(i, state, game, n, np.random.default_rng(seed))
    want = masked_sample_paths(i, state, game, n, np.random.default_rng(seed))
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
    return got


class _StubRng:
    """Uniforms just below 1 and every physical draw at 0.5."""

    def random(self, size):
        return np.full(size, 1.0 - 1e-13)

    def beta(self, a, b, size):
        return np.full(size, 0.5)


class _HalfRng(_StubRng):
    """Every uniform exactly 0.5 and every physical draw at 0.5."""

    def random(self, size):
        return np.full(size, 0.5)


class TestSampling:
    def test_identity_paths_are_direct(self):
        game = _identity_game()
        state = bootstrap(game, n_starts=8)
        rng = np.random.default_rng(0)
        x, xhat, lengths, n_trunc, n_clamp = sample_paths(0, state, game, 5000, rng)
        assert np.all(lengths == 1)
        assert n_trunc == 0 and n_clamp == 0
        assert np.array_equal(x, xhat)  # direct observation, no hops

    def test_sampler_path_structure(self):
        game = _pair_game()
        state = bootstrap(game, n_starts=8)
        rng = np.random.default_rng(1)
        x, xhat, lengths, n_trunc, _ = sample_paths(0, state, game, 300, rng)
        assert n_trunc == 0
        assert np.all((0.0 < x) & (x < 1.0))
        direct = lengths == 1
        assert np.array_equal(xhat[direct], x[direct])
        assert lengths.min() == 1 and lengths.max() >= 2

    def test_direct_fraction_matches_matrix(self):
        game = _pair_game(p_listen=0.3)
        state = bootstrap(game, n_starts=8)
        rng = np.random.default_rng(2)
        _x, _xhat, lengths, _t, _c = sample_paths(0, state, game, 200_000, rng)
        assert np.mean(lengths == 1) == pytest.approx(0.7, abs=0.01)

    def test_hop_words_come_from_transmitter(self):
        game = _pair_game()
        state = bootstrap(game, n_starts=8)
        rng = np.random.default_rng(3)
        _x, xhat, lengths, _t, _c = sample_paths(0, state, game, 200, rng)
        # every hop into agent 0 comes from agent 1, so the observed value
        # is one of agent 1's words
        hopped = lengths >= 2
        assert hopped.any()
        assert np.all(np.isin(xhat[hopped], state.quantizers[1].words))

    def test_reference_matches_masked_oracle(self, ref_game, ref_solved):
        state, _ = ref_solved
        for i in range(ref_game.n_agents):
            _assert_matches_oracle(i, state, ref_game, 100_000, seed=30 + i)

    @pytest.mark.parametrize(
        "noise, levels",
        [(k, (4, 4, 4)) for k in LOOP_NOISES] + [(NoiseKernel("uniform", 0.05), (1, 3, 8))],
        ids=LOOP_IDS + ["mixed-levels"])
    def test_truncating_loop_matches_masked_oracle(self, noise, levels):
        game, state = _loop_game(noise, levels)
        for i in range(3):
            _x, _xhat, _lengths, n_trunc, n_clamp = _assert_matches_oracle(
                i, state, game, 20_000, seed=40 + i)
            assert n_trunc > 0
            assert (n_clamp > 0) == (noise is not POINT_KERNEL)

    @given(games())
    def test_random_games_match_masked_oracle(self, case):
        # example count from the hypothesis profile (conftest.py)
        game, state, i, n, seed = case
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_paths(i, state, game, n, rng)
        want = masked_sample_paths(i, state, game, n, oracle_rng)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_uniform_on_an_edge_weight_routes_past_it(self):
        # agent 0 hears itself on [0, 0.5) and agent 1 on [0.5, 1): a
        # uniform of exactly 0.5 hops to agent 1, as in the oracle
        agents = tuple(AgentSpec(k, BetaDensity(2, 2), 2) for k in range(2))
        game = QuantizationGame(agents, CommMatrix(np.array([[0.5, 0.5], [0.0, 1.0]])))
        state = bootstrap(game, n_starts=8)
        got = sample_paths(0, state, game, 4, _HalfRng())
        want = masked_sample_paths(0, state, game, 4, _HalfRng())
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.all(got[2] == 2)

    def test_no_hop_along_zero_weight_edge(self):
        # row 0 sums to 1 - 5e-13, so a uniform above its last cumsum must
        # land on agent 1, the last agent it listens to, not on agent 2
        agents = tuple(AgentSpec(k, BetaDensity(2, 2), 2) for k in range(3))
        P = CommMatrix(np.array([[0.7, 0.3 - 5e-13, 0.0],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]]))
        game = QuantizationGame(agents, P)
        state = bootstrap(game, n_starts=8)
        state.quantizers[1] = quantizer_from_words([0.2, 0.6])
        state.quantizers[2] = quantizer_from_words([0.4, 0.8])
        x, xhat, lengths, n_trunc, _ = sample_paths(0, state, game, 4, _StubRng())
        assert n_trunc == 0
        assert np.all(lengths == 2)
        assert np.all(x == 0.5)
        assert np.all(xhat == 0.6)  # agent 1's word for 0.5; agent 2 says 0.4

    def test_no_later_hop_along_zero_weight_edge(self):
        # agent 3 hears only agent 0, whose row sums to 1 - 5e-13: the
        # second hop, routed per agent, must also stop at agent 1
        agents = tuple(AgentSpec(k, BetaDensity(2, 2), 2) for k in range(4))
        P = CommMatrix(np.array([[0.7, 0.3 - 5e-13, 0.0, 0.0],
                                 [0.0, 1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 0.0],
                                 [1.0, 0.0, 0.0, 0.0]]))
        game = QuantizationGame(agents, P)
        state = bootstrap(game, n_starts=8)
        state.quantizers[0] = quantizer_from_words([0.5, 0.9])
        state.quantizers[1] = quantizer_from_words([0.2, 0.6])
        state.quantizers[2] = quantizer_from_words([0.8, 0.9])
        x, xhat, lengths, n_trunc, _ = sample_paths(3, state, game, 4, _StubRng())
        assert n_trunc == 0
        assert np.all(lengths == 3)
        assert np.all(x == 0.5)
        assert np.all(xhat == 0.5)  # 0.6 from agent 1; via agent 2 it would be 0.9


class TestTruncation:
    def test_truncated_samples_are_nan_at_full_depth(self):
        game, state = _loop_game(NoiseKernel("uniform", 0.05))
        x, xhat, lengths, n_trunc, _ = sample_paths(
            0, state, game, 20_000, np.random.default_rng(50))
        truncated = np.isnan(x)
        assert n_trunc > 0 and truncated.sum() == n_trunc
        assert np.array_equal(np.isnan(xhat), truncated)
        assert np.all(lengths[truncated] == DEPTH_CAP + 1)
        assert np.all(lengths[~truncated] <= DEPTH_CAP)

    @pytest.mark.parametrize("noise", LOOP_NOISES, ids=LOOP_IDS)
    def test_decomposition_over_accepted_samples(self, noise):
        game, state = _loop_game(noise)
        rep = estimate_losses(2, state, game, 20_000, seed=51)
        assert rep.n_truncated > 0
        assert rep.n_samples + rep.n_truncated == 20_000
        assert rep.total == pytest.approx(
            rep.quantization + rep.communication + rep.cross, abs=1e-12)

    def test_estimators_accept_the_same_samples(self):
        game, state = _loop_game(NoiseKernel("triangular", 0.05))
        rep = estimate_losses(2, state, game, 20_000, seed=51)
        _resid, _se, counts = true_env_residuals(2, state, game, n_samples=20_000, seed=51)
        assert rep.n_truncated > 0
        assert rep.n_samples == counts.sum()

    def test_closed_cycle_reports_nan(self):
        # two agents that only hear each other: every path outlasts
        # DEPTH_CAP, and the report is NaN with no empty-mean warning
        agents = tuple(AgentSpec(k, BetaDensity(2, 2), 3) for k in range(2))
        game = QuantizationGame(agents, CommMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        rep = estimate_losses(0, bootstrap(game, n_starts=8), game, 1000, seed=5)
        assert rep.n_samples == 0 and rep.n_truncated == 1000
        assert np.all(np.isnan([rep.total, rep.quantization, rep.communication,
                                rep.cross, rep.total_se, rep.cross_se]))


class TestLossDecomposition:
    def test_identity_network_has_no_communication_loss(self):
        game = _identity_game()
        state = bootstrap(game, n_starts=8)
        rep = estimate_losses(0, state, game, 50_000, seed=9)
        assert rep.communication == 0.0
        assert rep.cross == 0.0
        assert rep.total == rep.quantization

    def test_identity_total_matches_analytic_loss(self):
        game = _identity_game()
        state = bootstrap(game, n_starts=8)
        rep = estimate_losses(0, state, game, 400_000, seed=10)
        want = quantization_loss(state.quantizers[0],
                                 MixtureDensity.from_beta(game.agents[0].physical))
        assert abs(rep.total - want) < 4.0 * rep.total_se

    def test_decomposition_identity(self, ref_game, ref_solved):
        state, _ = ref_solved
        rep = estimate_losses(0, state, ref_game, 100_000, seed=11)
        assert rep.total == pytest.approx(
            rep.quantization + rep.communication + rep.cross, abs=1e-12)

    def test_reproducible_with_seed(self, ref_game, ref_solved):
        state, _ = ref_solved
        a = estimate_losses(2, state, ref_game, 20_000, seed=21)
        b = estimate_losses(2, state, ref_game, 20_000, seed=21)
        assert a == b

    def test_sample_count_validation(self, ref_game, ref_solved):
        # checked before anything is allocated, e.g. an array of a negative size
        state, _ = ref_solved
        for estimator in (estimate_losses, true_env_residuals):
            for n in (0, -5):
                with pytest.raises(ValueError, match="^sample count must be positive$"):
                    estimator(0, state, ref_game, n, 0)


def _estimator_record(game, state, n=200_000):
    """Per agent, every field of estimate_losses and true_env_residuals'
    (resid, se, counts) at n samples and seed 60 + agent."""
    rows = []
    for i in range(game.n_agents):
        resid, se, counts = true_env_residuals(i, state, game, n_samples=n, seed=60 + i)
        rows.append({"losses": asdict(estimate_losses(i, state, game, n, seed=60 + i)),
                     "resid": resid.tolist(), "se": se.tolist(), "counts": counts.tolist()})
    return rows


class TestEstimatorsPinned:
    """The estimates themselves, not only the sampler, are held bit for bit
    from one change to the next."""

    def test_reference(self, ref_game, ref_solved):
        want = json.loads(ESTIMATOR_FIXTURE.read_text())["reference"]
        assert _estimator_record(ref_game, ref_solved[0]) == want

    def test_triangular_noise(self):
        game = triangular_noise_game()
        state = load_state(TRIANGULAR_NOISE_FIXTURE, game)
        want = json.loads(ESTIMATOR_FIXTURE.read_text())["triangular_noise"]
        assert _estimator_record(game, state) == want


class _RecordingRng:
    """A generator that records the size of every `random` call."""

    def __init__(self, rng):
        self._rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _record_blocks(monkeypatch):
    """Record every generator the estimators make, and the block size and
    path lengths of every `sample_paths` call they make."""
    rngs, calls = [], []
    make_rng, sample = np.random.default_rng, montecarlo.sample_paths

    def recording_rng(seed):
        rngs.append(_RecordingRng(make_rng(seed)))
        return rngs[-1]

    def recording_sample(i, state, game, n, rng):
        out = sample(i, state, game, n, rng)
        calls.append((n, out[2]))
        return out

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(montecarlo, "sample_paths", recording_sample)
    return rngs, calls


def _one_shot(i, state, game, n, seed):
    """The estimators' samples drawn at once: sample_paths over blocks of
    BLOCK from one generator, concatenated, less the truncated samples."""
    rng = np.random.default_rng(seed)
    blocks = [sample_paths(i, state, game, min(BLOCK, n - s), rng)[:2]
              for s in range(0, n, BLOCK)]
    x, xhat = (np.concatenate(a) for a in zip(*blocks))
    ok = ~np.isnan(x)
    return x[ok], xhat[ok]


def _assert_close(got, want):
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestBlocks:
    """The estimators sample in blocks of BLOCK from one generator and merge
    the blocks' moments; memory stays flat as the sample count grows."""

    def test_merge_matches_one_shot(self):
        rng = np.random.default_rng(70)
        n, levels = 50_000, 4
        values = rng.beta(2.0, 3.0, n)
        groups = rng.integers(0, levels, n)
        cuts = np.sort(np.concatenate([rng.integers(0, n, 9), [17_000, 17_000]]))
        acc = _running(levels)
        sizes = []
        for b, part in enumerate(np.split(np.arange(n), cuts)):
            if b % 2:  # the last word gets no sample in every other block
                groups[part] = np.minimum(groups[part], levels - 2)
            sizes.append(part.size)
            _merge(acc, *_group_moments(values[part], groups[part], levels))
        assert 0 in sizes and len(set(sizes)) > 3  # an empty block, random sizes
        counts, mean, m2 = acc
        for k in range(levels):
            v = values[groups == k]
            assert counts[k] == v.size
            _assert_close(mean[k], v.mean())
            _assert_close(np.sqrt(m2[k] / (v.size - 1)), np.std(v, ddof=1))

    def test_estimators_match_one_shot(self):
        game, state = _loop_game(NoiseKernel("triangular", 0.08))
        n, seed = BLOCK + 3_000, 71
        x, xhat = _one_shot(2, state, game, n, seed)
        q = state.quantizers[2]
        idx = q.closed_cell_index(xhat)
        w = q.words[idx]
        total, quant, comm = (x - w) ** 2, (xhat - w) ** 2, (x - xhat) ** 2
        rep = estimate_losses(2, state, game, n, seed=seed)
        assert rep.n_truncated > 0 and rep.n_samples == x.size
        for name, v in [("total", total), ("quantization", quant),
                        ("communication", comm), ("cross", total - quant - comm)]:
            _assert_close(getattr(rep, name), v.mean())
            _assert_close(getattr(rep, name + "_se"),
                          np.std(v, ddof=1) / np.sqrt(v.size))
        resid, se, counts = true_env_residuals(2, state, game, n_samples=n, seed=seed)
        for k in range(q.levels):
            xk = x[idx == k]
            assert counts[k] == xk.size
            _assert_close(resid[k], xk.mean() - q.words[k])
            _assert_close(se[k], np.std(xk, ddof=1) / np.sqrt(xk.size))

    @pytest.mark.parametrize("estimator", [
        lambda state, game, n: estimate_losses(0, state, game, n, seed=72),
        lambda state, game, n: true_env_residuals(0, state, game, n_samples=n, seed=72),
    ], ids=["estimate_losses", "true_env_residuals"])
    def test_memory_does_not_grow_with_samples(self, estimator):
        game = _pair_game()
        state = bootstrap(game, n_starts=8)
        peaks = []
        for n in (4 * BLOCK, 16 * BLOCK):
            tracemalloc.start()
            try:
                estimator(state, game, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("estimator, arrays", [(estimate_losses, 12), (true_env_residuals, 10)],
                             ids=["estimate_losses", "true_env_residuals"])
    def test_workspace_is_a_few_blocks(self, ref_game, estimator, arrays):
        # the tracemalloc peak in BLOCK-sized float64 arrays, at agent id 4
        # of the reference fixture (40% of its samples leave it at hop 0):
        # the sampler's walk covers only those, and no block outlives its turn
        state = load_state(ROOT / "perfbench" / "fixtures" / "reference_state.json", ref_game)
        estimator(3, state, ref_game, BLOCK, 74)  # any first-call caches
        tracemalloc.start()
        try:
            estimator(3, state, ref_game, 4 * BLOCK, 74)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * BLOCK * 8

    def test_reference_draws_only_uniforms_in_flight(self, monkeypatch, ref_game,
                                                     ref_solved):
        self._check_draws(monkeypatch, ref_game, ref_solved[0], 2 * BLOCK + 5_000)

    def test_truncating_loop_draws_only_uniforms_in_flight(self, monkeypatch):
        game, state = _loop_game(POINT_KERNEL)
        calls = self._check_draws(monkeypatch, game, state, BLOCK + 20_000)
        assert any(np.any(lengths > DEPTH_CAP) for _n, lengths in calls)

    @staticmethod
    def _check_draws(monkeypatch, game, state, n):
        rngs, calls = _record_blocks(monkeypatch)
        rep = estimate_losses(0, state, game, n, seed=73)
        assert len(rngs) == 1  # one generator, read block after block
        assert [size for size, _lengths in calls] == [BLOCK] * (n // BLOCK) + [n % BLOCK]
        lengths = np.concatenate([lengths for _n, lengths in calls])
        assert sum(rngs[0].sizes) == np.minimum(lengths, DEPTH_CAP).sum()
        assert rep.n_truncated == np.sum(lengths > DEPTH_CAP)
        return calls


class TestTrueEnvResiduals:
    def test_identity_residuals_near_zero(self):
        game = _identity_game()
        state = bootstrap(game, n_starts=8)
        resid, se, counts = true_env_residuals(0, state, game,
                                               n_samples=300_000, seed=13)
        assert counts.sum() == 300_000
        for k in range(4):
            assert abs(resid[k]) < 4.0 * se[k]


class TestDrawsAtOne:
    """Beta(2, 0.05) draws round to exactly 1.0 about one time in six.
    The cells (a_k, a_{k+1}] cover (0, 1], so the sampling layer looks
    cells up with `closed_cell_index`: 1.0 belongs to the last cell, as
    the closed right end of (a_{M-1}, 1]."""

    @staticmethod
    def _game():
        agents = (AgentSpec(0, BetaDensity(2, 0.05), 4),
                  AgentSpec(1, BetaDensity(2, 2), 4))
        game = QuantizationGame(agents, CommMatrix(np.array([[0.8, 0.2], [0.3, 0.7]])))
        quantizers = [quantizer_from_words([0.3, 0.6, 0.85, 0.97]),
                      quantizer_from_words([0.2, 0.4, 0.6, 0.8])]
        return game, refresh_state(game, quantizers)

    def test_draws_at_one_take_the_last_word(self):
        game, state = self._game()
        n, seed = 100_000, 31
        x, xhat, lengths, n_trunc, _ = sample_paths(
            1, state, game, n, np.random.default_rng(seed))
        at_one = x == 1.0
        assert n_trunc == 0 and at_one.any()
        # length 2: agent 0 quantized the draw and agent 1 heard it directly
        direct = at_one & (lengths == 2)
        assert direct.any()
        assert np.all(xhat[direct] == state.quantizers[0].words[-1])

        rep = estimate_losses(1, state, game, n, seed=seed)
        assert rep.n_truncated == 0 and rep.n_samples == n
        assert rep.total == pytest.approx(
            rep.quantization + rep.communication + rep.cross, abs=1e-12)
        _resid, _se, counts = true_env_residuals(1, state, game, n_samples=n, seed=seed)
        assert counts.sum() == n


class TestSharedVocabulary:
    def test_shared_fixture(self, shared_quantizers):
        ok, witnesses = shared_vocabulary(shared_quantizers)
        assert ok
        for (lo, hi), q in zip(witnesses, [shared_quantizers[0]] * 4):
            assert lo < hi
        # every member's k-th word lies in the k-th intersection
        for q in shared_quantizers:
            for k, (lo, hi) in enumerate(witnesses):
                assert lo < q.words[k] < hi

    def test_ladder_fixture_not_shared(self, ladder_quantizers):
        ok, witnesses = shared_vocabulary(ladder_quantizers)
        assert not ok

    def test_containment_violation(self):
        from quantgame import quantizer_from_words
        # agent 2's second word falls below agent 1's first boundary
        q1 = quantizer_from_words([0.55, 0.8])   # boundary at 0.675
        q2 = quantizer_from_words([0.2, 0.4])
        ok, _ = shared_vocabulary([q1, q2])
        assert not ok

    def test_subset_selection(self, shared_quantizers, ladder_quantizers):
        mixed = shared_quantizers + [ladder_quantizers[0]]
        ok, _ = shared_vocabulary(mixed, agents=[0, 1, 2])
        assert ok

    def test_level_mismatch(self, shared_quantizers):
        from quantgame import quantizer_from_words
        # agents with different numbers of words cannot share a vocabulary
        assert shared_vocabulary(shared_quantizers + [quantizer_from_words([0.5])]) \
            == (False, [])


class TestChains:
    def test_enumeration_counts(self):
        P = CommMatrix(np.full((3, 3), 1.0 / 3.0))
        chains = enumerate_chains(P, 0, 2, max_len=3)
        assert sorted(chains) == [[0, 1, 2], [0, 2]]

    def test_no_chain(self):
        P = CommMatrix(np.eye(3))
        assert enumerate_chains(P, 0, 1, max_len=5) == []
        from quantgame import quantizer_from_words
        qs = [quantizer_from_words([0.3, 0.7])] * 3
        with pytest.raises(NoChainError):
            path_dependence_probe(qs, P, 0, 1, max_len=5, n_inputs=101)
        assert path_dependence_probes(qs, P, max_len=5, n_inputs=101) == {}

    def test_ladder_translation_climbs(self, ladder_quantizers):
        rep = chain_translate(ladder_quantizers, [0, 1, 2, 3], 0.05)
        assert rep.hop_words == pytest.approx([0.20, 0.38, 0.56, 0.84])
        losses = [(w - rep.x) ** 2 for w in rep.hop_words]
        assert all(losses[i] < losses[i + 1] for i in range(len(losses) - 1))
        assert rep.bound is None  # no shared vocabulary, no bound

    def test_shared_translation_is_bounded(self, shared_quantizers, shared_comm):
        for chain in enumerate_chains(shared_comm, 0, 2, max_len=4):
            for x in np.linspace(0.01, 0.99, 37):
                rep = chain_translate(shared_quantizers, chain, float(x))
                assert rep.bound is not None
                assert rep.word_drift <= rep.bound + 1e-12

    def test_mixed_level_chain_has_no_bound(self, shared_quantizers):
        qs = shared_quantizers[:2] + [quantizer_from_words([0.3, 0.7])]
        rep = chain_translate(qs, [0, 1, 2], 0.4)
        assert rep.bound is None
        assert rep.final_word in qs[2].words

    def test_chain_validation(self, shared_quantizers):
        with pytest.raises(ValueError):
            chain_translate(shared_quantizers, [0], 0.5)
        for x in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(DomainError):
                chain_translate(shared_quantizers, [0, 1], x)


def _assert_equals_loop(rep, loop):
    """The array report `rep` equals the looped reports `loop`, one per
    input, field by field; translation_loss within 1 ulp of the loop's."""
    for field in fields(ChainReport):
        got, want = getattr(rep, field.name), [getattr(r, field.name) for r in loop]
        if field.name == "hop_words":
            assert np.array(got).T.tolist() == want
        elif field.name == "translation_loss":
            assert np.all(np.abs(got - want) <= np.spacing(want))
        elif got is None:
            assert want == [None] * len(loop)
        else:
            assert got.tolist() == want


class TestChainArrays:
    """`chain_translate` pushes a whole array of inputs through a chain at
    once and reports what translating them one by one reports."""

    def test_reference_fixture_matches_loop(self):
        game = load_config(REFERENCE_CONFIG).game()
        qs = load_state(ROOT / "perfbench" / "fixtures" / "reference_state.json",
                        game).quantizers
        grid = np.linspace(0.0, 1.0, 1003)[1:-1]
        for chain in ([0, 1, 2, 3, 4], [4, 2, 4, 0]):
            rep = chain_translate(qs, chain, grid)
            _assert_equals_loop(rep, [looped_chain_translate(qs, chain, x) for x in grid.tolist()])
            # a number in gives numbers out
            one = chain_translate(qs, chain, float(grid[500]))
            for name in ("x", "final_word", "translation_loss", "word_drift"):
                assert isinstance(getattr(one, name), float)
                assert getattr(one, name) == getattr(rep, name)[500]
            assert one.cell_index == rep.cell_index[500] and np.ndim(one.cell_index) == 0

    @PROPERTY_SETTINGS
    @given(games(), st.data())
    def test_random_games_match_loop(self, case, data):
        # words on the 1/32 grid and inputs on the 1/64 grid, so that words
        # and inputs sit exactly on cell boundaries; without noise
        _game, state, _i, _n, _seed = case
        qs = state.quantizers
        chain = data.draw(st.lists(st.integers(0, len(qs) - 1), min_size=2, max_size=5))
        grid = np.arange(1, 64) / 64.0
        _assert_equals_loop(chain_translate(qs, chain, grid),
                            [looped_chain_translate(qs, chain, x) for x in grid.tolist()])

    def test_translation_loss_is_correctly_rounded(self):
        # on glibc, (w - x) ** 2 reads 0.10722230250562698 here: libm's pow
        # is 1 ulp off the correctly rounded square that d * d gives
        w, x = 0.9566394159445416, 0.6291912482818915
        qs = [quantizer_from_words([w])] * 2
        exact = float(Fraction(w - x) ** 2)
        assert exact == 0.10722230250562699
        assert chain_translate(qs, [0, 1], x).translation_loss == exact
        assert chain_translate(qs, [0, 1], np.array([x])).translation_loss.tolist() == [exact]


# (state, chain) pairs: the triangular-noise state, and a uniform-noise
# state whose word at 0.02 sends noise below 0 on chains from agent 1
NOISY_CHAINS = [("triangular", [0, 1, 2]), ("triangular", [2, 1, 0]),
                ("triangular", [0, 1, 0, 1]), ("uniform", [1, 0, 2, 1]), ("uniform", [2, 1, 0])]


def _noisy_state(name):
    """The quantizers and noise kernel of a NOISY_CHAINS state."""
    if name == "triangular":
        game = triangular_noise_game()
        return load_state(TRIANGULAR_NOISE_FIXTURE, game).quantizers, game.noise
    game, state = _loop_game(LOOP_NOISES[1])
    return state.quantizers, game.noise


class TestNoisyChains:
    """Under channel noise `chain_translate` reports exact expectations
    over the noise, which sampling the noise hop by hop estimates."""

    def test_sampler_draws_as_loop(self):
        game = triangular_noise_game()
        qs = load_state(TRIANGULAR_NOISE_FIXTURE, game).quantizers
        grid = np.linspace(0.0, 1.0, 103)[1:-1:10]
        rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
        final, loss, drift = sampled_chain_translations(qs, [0, 1, 2, 1], grid, game.noise,
                                                        rng, 7)
        loop = [[looped_chain_translate(qs, [0, 1, 2, 1], x, game.noise, loop_rng)
                 for _ in range(7)] for x in grid.tolist()]
        assert final.tolist() == [[r.final_word for r in row] for row in loop]
        assert drift.tolist() == [[r.word_drift for r in row] for row in loop]
        want = np.array([[r.translation_loss for r in row] for row in loop])
        assert np.all(np.abs(loss - want) <= np.spacing(want))
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("case", range(len(NOISY_CHAINS)), ids=[
        name + "-" + "-".join(str(a + 1) for a in chain) for name, chain in NOISY_CHAINS])
    def test_exact_within_sampling_error(self, case):
        # each input's expectation lies within 4 SE of the mean of 4,000
        # sampled translations; where no draw differs, it is their value
        name, chain = NOISY_CHAINS[case]
        qs, noise = _noisy_state(name)
        grid = np.linspace(0.0, 1.0, 103)[1:-1]
        rep = chain_translate(qs, chain, grid, noise)
        samples = sampled_chain_translations(qs, chain, grid, noise,
                                             np.random.default_rng(case), 4000)
        varied = 0
        for field, s in zip(("final_word", "translation_loss", "word_drift"), samples):
            gap = np.abs(getattr(rep, field) - s.mean(axis=1))
            varies = s.min(axis=1) != s.max(axis=1)
            se = s.std(axis=1, ddof=1) / np.sqrt(s.shape[1])
            assert np.all(gap[varies] <= 4.0 * se[varies]), field
            assert np.all(gap[~varies] <= 1e-12), field
            varied = max(varied, int(varies.sum()))
        assert varied >= 30  # the noise moves many inputs' translations

    def test_triangular_cycle_loss_alternates(self):
        # along the 1 <-> 2 cycle of the triangular-noise state, the mean
        # expected translation loss over the 101-input grid alternates
        game = triangular_noise_game()
        qs = load_state(TRIANGULAR_NOISE_FIXTURE, game).quantizers
        grid = np.linspace(0.0, 1.0, 103)[1:-1]
        means = {n: chain_translate(qs, [0, 1] * (n // 2) + [0] * (n % 2), grid,
                                    game.noise).translation_loss.mean()
                 for n in range(2, 8)}
        assert {n: float(f"{m:.4g}") for n, m in means.items()} == {
            2: 8.611e-3, 3: 1.097e-2, 4: 8.611e-3, 5: 1.097e-2, 6: 8.611e-3, 7: 1.097e-2}


class TestPathDependenceProbe:
    def test_shared_set_is_path_independent(self, shared_quantizers, shared_comm):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                rep = path_dependence_probe(shared_quantizers, shared_comm,
                                            i, j, max_len=5, n_inputs=101)
                assert rep.spread == 0.0

    def test_ladder_is_path_dependent(self, ladder_quantizers, ladder_comm):
        rep = path_dependence_probe(ladder_quantizers, ladder_comm,
                                    0, 3, max_len=5, n_inputs=101)
        assert rep.spread > 0.0
        assert rep.n_chains > 1
        assert 0.0 < rep.worst_input < 1.0

    @PROPERTY_SETTINGS
    @given(games())
    def test_chain_counts_by_doubling_equal_the_loop(self, case):
        # every length bound below 10 and the CLI's largest, on link graphs
        # with zero weights anywhere
        game, state = case[:2]
        S = game.comm.links.T.astype(int).astype(object)
        for max_len in (*range(1, 10), 1000):
            want = looped_walk_counts(S, max_len - 1)
            got = path_dependence_probes(state.quantizers, game.comm, max_len, n_inputs=1)
            assert {pair: rep.n_chains for pair, rep in got.items()} == \
                {(i, j): count for (i, j), count in np.ndenumerate(want) if count and i != j}
