"""Network layer: matrix validation, acyclicity detection, the
true-environment fixed point, observed-environment construction, and the
per-edge hop operator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantgame import (
    POINT_KERNEL,
    BetaDensity,
    CommMatrix,
    IllPosedEnvironmentError,
    NoiseKernel,
    StateConsistencyError,
    hop_matrix,
    observed_environment,
    quantizer_from_words,
    true_environment,
    true_environment_weights,
    word_usage,
)
from quantgame.densities import MixtureDensity
from quantgame.montecarlo import _CLAMP
from quantgame.networks import detect_acyclic

from oracles import looped_detect_acyclic
from strategies import PROPERTY_SETTINGS, games


def random_forest(seed):
    """A CommMatrix on 2-300 agents in a random order: the first 2-8 are
    roots, and every later agent hears one earlier agent with a weight in
    [0.1, 0.4]. Agents freed at once are common, so the first-in-first-out
    order of Kahn's algorithm decides the order that `detect_acyclic`
    returns."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 301))
    roots = int(rng.integers(2, min(n, 8) + 1))
    order = rng.permutation(n)
    P = np.eye(n)
    for pos in range(roots, n):
        receiver, transmitter = order[pos], order[rng.integers(0, pos)]
        w = rng.uniform(0.1, 0.4)
        P[receiver, receiver] = 1.0 - w
        P[receiver, transmitter] = w
    return CommMatrix(P)


class TestCommMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            CommMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))  # bad row sum
        with pytest.raises(ValueError):
            CommMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            CommMatrix(np.ones((2, 3)) / 3.0)

    def test_peers(self):
        P = CommMatrix(np.array([[0.8, 0.2, 0.0],
                                 [0.0, 1.0, 0.0],
                                 [0.3, 0.0, 0.7]]))
        assert P.peers_of(0) == (1,)
        assert P.peers_of(1) == ()
        assert P.peers_of(2) == (0,)

    @PROPERTY_SETTINGS
    @given(games())
    def test_peers_match_row_scan(self, case):
        P = case[0].comm
        for i in range(P.n_agents):
            scan = [j for j in range(P.n_agents) if j != i and P.entries[i, j] > 0.0]
            assert list(P.peers_of(i)) == scan
            assert np.flatnonzero(P.links[i]).tolist() == scan

    def test_entries_are_a_read_only_copy(self):
        rows = np.array([[0.5, 0.5], [0.0, 1.0]])
        P = CommMatrix(rows)
        assert P.peers_of(1) == ()
        rows[1] = [0.5, 0.5]  # the caller's array is not the matrix
        assert P.peers_of(1) == ()
        for array in (P.entries, P.links):
            with pytest.raises(ValueError, match="read-only"):
                array[1, 0] = 0.5


class TestAcyclicity:
    def test_identity_is_acyclic(self):
        ok, order = detect_acyclic(CommMatrix(np.eye(4)))
        assert ok and sorted(order) == [0, 1, 2, 3]

    def test_chain_order_puts_transmitters_first(self):
        # 0 listens to 1, 1 listens to 2
        P = CommMatrix(np.array([[0.7, 0.3, 0.0],
                                 [0.0, 0.6, 0.4],
                                 [0.0, 0.0, 1.0]]))
        ok, order = detect_acyclic(P)
        assert ok
        assert order.index(2) < order.index(1) < order.index(0)

    def test_two_cycle_detected(self):
        P = CommMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        ok, order = detect_acyclic(P)
        assert not ok and order is None

    def test_reference_matrix_is_loopy(self, ref_game):
        ok, _ = detect_acyclic(ref_game.comm)
        assert not ok

    @PROPERTY_SETTINGS
    @given(games())
    def test_random_games_match_loop(self, case):
        P = case[0].comm
        assert detect_acyclic(P) == looped_detect_acyclic(P)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_forests_match_loop(self, seed):
        P = random_forest(seed)
        ok, order = detect_acyclic(P)
        assert ok and sorted(order) == list(range(P.n_agents))
        assert (ok, order) == looped_detect_acyclic(P)


class TestTrueEnvironment:
    def test_identity_matrix(self):
        P = CommMatrix(np.eye(3))
        assert true_environment_weights(P) == pytest.approx(np.eye(3))

    def test_two_agent_closed_form(self):
        # hand inverse of the 2x2 system
        P = CommMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        want = np.array([[0.8, 0.2 * 0.7], [0.3 * 0.8, 0.7]]) / 0.94
        assert true_environment_weights(P) == pytest.approx(want, abs=1e-12)
        envs = true_environment(P, [BetaDensity(2, 2), BetaDensity(2, 5)])
        w = [c[0] for c in envs[0].continuous_parts]
        assert w == pytest.approx(want[0], abs=1e-12)

    def test_fixed_point_residual(self, ref_game):
        # W must satisfy W = diag(P) + P_off W (the self-consistency system)
        P = ref_game.comm
        W = true_environment_weights(P)
        off = P.entries - np.diag(np.diag(P.entries))
        resid = W - (np.diag(np.diag(P.entries)) + off @ W)
        assert np.max(np.abs(resid)) < 1e-12
        assert W.sum(axis=1) == pytest.approx(np.ones(P.n_agents), abs=1e-12)

    def test_closed_cycle_rejected(self):
        P = CommMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(IllPosedEnvironmentError):
            true_environment(P, [BetaDensity(2, 2), BetaDensity(2, 2)])

    def test_many_weak_blocks_accepted(self):
        # six disjoint pairs that mostly hear each other: det(I - P_off) is
        # 1.999e-3 ** 6 ~ 6.4e-17, yet the system is well conditioned (~2e3)
        block = np.array([[0.001, 0.999], [0.999, 0.001]])
        P = CommMatrix(np.kron(np.eye(6), block))
        assert abs(np.linalg.det(np.eye(12) - (P.entries - np.diag(np.diag(P.entries))))) < 1e-16
        envs = true_environment(P, [BetaDensity(2, 2 + k) for k in range(12)])
        W = true_environment_weights(P)
        want = np.array([[1.0, 0.999], [0.999, 1.0]]) * 0.001 / (1.0 - 0.999 ** 2)
        assert W == pytest.approx(np.kron(np.eye(6), want), abs=1e-12)
        for env in envs:
            assert sum(w for w, _d in env.continuous_parts) == pytest.approx(1.0, abs=1e-12)


class TestObservedEnvironment:
    def _setup(self):
        P = CommMatrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        quantizers = [quantizer_from_words([0.3, 0.7]),
                      quantizer_from_words([0.25, 0.75])]
        usage = [np.array([0.5, 0.5]), np.array([0.4, 0.6])]
        return P, quantizers, usage

    def test_structure_and_mass(self):
        P, quantizers, usage = self._setup()
        obs = observed_environment(0, BetaDensity(2, 2), quantizers, usage, P, POINT_KERNEL)
        assert obs.continuous_parts[0][0] == pytest.approx(0.7)
        assert obs.atom_centers.tolist() == [0.25, 0.75]
        assert obs.atom_weights.tolist() == [0.3 * 0.4, 0.3 * 0.6]
        assert obs.noise is POINT_KERNEL
        assert obs.partial_moments([0.0, 1.0], orders=1)[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_usage_validation(self):
        P, quantizers, usage = self._setup()
        with pytest.raises(StateConsistencyError):
            observed_environment(0, BetaDensity(2, 2), quantizers,
                                 [usage[0], np.array([0.4, 0.4])], P, POINT_KERNEL)
        with pytest.raises(StateConsistencyError):
            observed_environment(0, BetaDensity(2, 2), quantizers,
                                 [usage[0], np.array([0.2, 0.3, 0.5])], P, POINT_KERNEL)
        with pytest.raises(StateConsistencyError, match="nan"):
            observed_environment(0, BetaDensity(2, 2), quantizers,
                                 [usage[0], np.array([np.nan, 0.6])], P, POINT_KERNEL)

    def test_word_usage_uniform(self):
        q = quantizer_from_words([(2 * k + 1) / 12.0 for k in range(6)])
        obs = MixtureDensity.from_beta(BetaDensity(1, 1))
        assert word_usage(obs, q) == pytest.approx(np.full(6, 1.0 / 6.0), abs=1e-12)

    def test_word_usage_counts_atoms(self):
        q = quantizer_from_words([0.3, 0.7])
        obs = MixtureDensity(((0.5, BetaDensity(1, 1)),), [0.5], [0.8])
        # atom at 0.8 lands in the upper cell (boundary at 0.5)
        assert word_usage(obs, q) == pytest.approx([0.25, 0.75], abs=1e-12)


class TestHopMatrix:
    @PROPERTY_SETTINGS
    @given(games(), st.floats(0.005, 0.05))
    def test_rows_are_distributions(self, case, halfwidth):
        # words on the 1/32 grid, some within the noise of 0 or 1 or of a boundary
        _game, state, _i, _n, _seed = case
        qs = state.quantizers
        for noise in (POINT_KERNEL, NoiseKernel("uniform", halfwidth),
                      NoiseKernel("triangular", halfwidth)):
            for t in qs:
                for r in qs:
                    h = hop_matrix(t, r, noise)
                    assert h.shape == (t.levels, r.levels)
                    assert np.all(h >= 0.0)
                    assert np.all(np.abs(h.sum(axis=1) - 1.0) <= 1e-12)
                    if noise is POINT_KERNEL:  # one-hot at the cell that holds the word
                        assert h.tolist() == np.eye(r.levels)[r.closed_cell_index(t.words)].tolist()

    def test_clamped_mass_lands_in_edge_cell(self):
        # uniform noise of halfwidth 0.02 around 0.01 reaches (-0.01, 0.03):
        # the quarter below 0 is clamped into the first cell, (0, 0.0125]
        noise = NoiseKernel("uniform", 0.02)
        transmitter = quantizer_from_words([0.01, 0.5])
        receiver = quantizer_from_words([0.005, 0.02, 0.5])
        h = hop_matrix(transmitter, receiver, noise)
        assert h[0] == pytest.approx([0.5625, 0.4375, 0.0], abs=1e-12)
        n = 200_000
        v = np.clip(0.01 + noise.sample(np.random.default_rng(5), n), _CLAMP, 1.0 - _CLAMP)
        freq = np.bincount(receiver.closed_cell_index(v), minlength=3) / n
        se = np.sqrt(h[0] * (1.0 - h[0]) / n)
        assert np.all(np.abs(freq - h[0]) <= 4.0 * se)
