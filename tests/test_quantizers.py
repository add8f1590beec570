"""Quantizer layer: regularity validation, half-open cell lookup, design
loops against analytic optima, a golden-section boundary oracle, an
exact dynamic-programming oracle on a discretized source, and the
loss-history contract on random mixtures."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantgame import (
    POINT_KERNEL,
    BetaDensity,
    DomainError,
    MixtureDensity,
    RegularQuantizer,
    centroid_residual,
    lloyd_max,
    multi_start_lloyd_max,
    nearest_neighbor_boundaries,
    quantization_loss,
    quantizer_from_words,
)

from conftest import AGENT5_TARGET_WORDS
from oracles import beta_pdf, dp_optimal_quantizer, riemann_quantizer_loss
from strategies import PROPERTY_SETTINGS, mixtures

# frozen golden-section oracle for the symmetric two-level design:
# boundary 1/2, words 5/16 and 11/16, loss 19/1280
BETA22_M2_BOUNDARY = 0.5
BETA22_M2_WORDS = (0.3125, 0.6875)
BETA22_M2_LOSS = 19.0 / 1280.0


class TestRegularQuantizer:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegularQuantizer(np.array([0.0, 0.5, 1.0]), np.array([0.25]))
        with pytest.raises(ValueError):
            RegularQuantizer(np.array([0.1, 0.5, 1.0]), np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            RegularQuantizer(np.array([0.0, 0.5, 0.4, 1.0]),
                             np.array([0.2, 0.45, 0.7]))
        with pytest.raises(ValueError):
            # word on a cell boundary is not strictly interior
            RegularQuantizer(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.7]))

    def test_half_open_cell_lookup(self):
        q = quantizer_from_words([(2 * k + 1) / 12.0 for k in range(6)])
        # boundary points belong to the cell on their left
        assert q.cell_index(1.0 / 6.0) == 0
        assert q.cell_index(1.0 / 6.0 + 1e-12) == 1
        assert q.cell_index(0.999999) == 5
        idx = q.cell_index(np.array([0.1, 0.5, 0.9]))
        assert list(idx) == [0, 2, 5]
        with pytest.raises(DomainError):
            q.cell_index(0.0)
        with pytest.raises(DomainError):
            q.cell_index(1.0)

    def test_quantize_and_call(self):
        q = quantizer_from_words([0.2, 0.8])
        k, w = q.quantize(0.3)
        assert (k, w) == (0, 0.2)
        assert q(0.7) == 0.8

    def test_reference_agent5_lookup(self):
        # x = 0.25 falls left of the first midpoint boundary 0.26125
        q = quantizer_from_words(AGENT5_TARGET_WORDS)
        assert q.boundaries[1] == pytest.approx(0.26125, abs=1e-12)
        assert q(0.25) == pytest.approx(0.1982)


class TestBoundaryRule:
    def test_uniform_words(self):
        words = [(2 * k + 1) / 12.0 for k in range(6)]
        b = nearest_neighbor_boundaries(words)
        assert b == pytest.approx([k / 6.0 for k in range(7)], abs=1e-15)

    def test_two_words(self):
        assert nearest_neighbor_boundaries([0.2, 0.8]) == pytest.approx(
            [0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            nearest_neighbor_boundaries([0.3, 0.2])
        with pytest.raises(ValueError):
            nearest_neighbor_boundaries([0.0, 0.5])
        with pytest.raises(ValueError):
            nearest_neighbor_boundaries([])


class TestLoss:
    def test_loss_against_riemann(self):
        res = lloyd_max(BetaDensity(2, 5), levels=4)
        got = quantization_loss(res.quantizer, BetaDensity(2, 5))
        want = riemann_quantizer_loss(lambda x: beta_pdf(x, 2, 5),
                                      res.quantizer.boundaries,
                                      res.quantizer.words)
        assert got == pytest.approx(want, abs=1e-9)

    def test_centroid_residual_zero_iff_centroids(self):
        d = BetaDensity(2, 2)
        res = lloyd_max(d, levels=3, tol=1e-12)
        assert centroid_residual(res.quantizer, d) < 1e-10
        shifted = RegularQuantizer(res.quantizer.boundaries,
                                   res.quantizer.words + 1e-3)
        assert centroid_residual(shifted, d) > 5e-4


class TestLloydMax:
    def test_uniform_source_optimum(self):
        res = lloyd_max(BetaDensity(1, 1), levels=6, tol=1e-12)
        assert res.converged
        assert res.quantizer.words == pytest.approx(
            [(2 * k + 1) / 12.0 for k in range(6)], abs=1e-10)
        assert res.quantizer.boundaries == pytest.approx(
            [k / 6.0 for k in range(7)], abs=1e-10)
        assert res.loss == pytest.approx(1.0 / 432.0, abs=1e-10)

    def test_two_level_golden_section_oracle(self):
        res = lloyd_max(BetaDensity(2, 2), levels=2, tol=1e-12)
        assert res.quantizer.boundaries[1] == pytest.approx(
            BETA22_M2_BOUNDARY, abs=1e-7)
        assert res.quantizer.words == pytest.approx(BETA22_M2_WORDS, abs=1e-7)
        assert res.loss == pytest.approx(BETA22_M2_LOSS, abs=1e-9)

    def test_against_dp_oracle(self):
        d = BetaDensity(2, 5)
        res = lloyd_max(d, levels=4, tol=1e-12)
        b, w, dp_loss = dp_optimal_quantizer(lambda x: beta_pdf(x, 2, 5), 4)
        # the DP solves a 1/2000-discretized source; agree to grid resolution
        assert res.quantizer.words == pytest.approx(w, abs=2e-3)
        assert res.loss <= dp_loss + 1e-5

    def test_loss_history_non_increasing(self):
        res = lloyd_max(BetaDensity(5, 2), levels=5, tol=1e-12)
        hist = np.asarray(res.loss_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_postcondition_residual(self):
        tol = 1e-10
        for a, b in ((2, 5), (5, 2), (1.3, 1.3)):
            res = lloyd_max(BetaDensity(a, b), levels=6, tol=tol)
            assert centroid_residual(res.quantizer, BetaDensity(a, b)) <= 10 * tol

    def test_explicit_init_validation(self):
        with pytest.raises(ValueError):
            lloyd_max(BetaDensity(2, 2))  # neither levels nor init
        with pytest.raises(ValueError):
            lloyd_max(BetaDensity(2, 2), levels=3, init=[0.2, 0.8])

    def test_starved_cells_recovered(self):
        # all words packed into the vanishing right tail of a left-heavy
        # source, so the initial cells carry essentially no mass
        res = lloyd_max(BetaDensity(2, 9), levels=4,
                        init=[0.9990, 0.9992, 0.9994, 0.9996], tol=1e-11)
        assert res.converged
        assert res.empty_cell_events > 0
        ref = lloyd_max(BetaDensity(2, 9), levels=4, tol=1e-11)
        assert res.quantizer.words == pytest.approx(ref.quantizer.words, abs=1e-6)

    def test_log_concave_init_independence(self):
        # unique local optimum: random inits all land on the same design
        rng = np.random.default_rng(7)
        ref = lloyd_max(BetaDensity(2, 5), levels=6, tol=1e-11).quantizer.words
        for _ in range(5):
            init = np.sort(rng.uniform(0.02, 0.98, 6))
            init += np.arange(6) * 1e-4  # enforce strict increase
            got = lloyd_max(BetaDensity(2, 5), levels=6, init=init,
                            tol=1e-11).quantizer.words
            assert got == pytest.approx(ref, abs=1e-7)


class TestMultiStart:
    def test_matches_single_start_on_log_concave(self):
        d = BetaDensity(3, 4)
        a = lloyd_max(d, levels=5, tol=1e-11)
        b = multi_start_lloyd_max(d, levels=5, n_starts=6, seed=1, tol=1e-11)
        assert b.quantizer.words == pytest.approx(a.quantizer.words, abs=1e-8)

    def test_bimodal_two_level_grid_oracle(self):
        mix = MixtureDensity(((0.5, BetaDensity(2, 8)), (0.5, BetaDensity(8, 2))))
        res = multi_start_lloyd_max(mix, levels=2, n_starts=8, seed=0, tol=1e-12)
        b, w, dp_loss = dp_optimal_quantizer(
            lambda x: 0.5 * beta_pdf(x, 2, 8) + 0.5 * beta_pdf(x, 8, 2), 2)
        assert res.quantizer.words == pytest.approx(w, abs=2e-3)
        assert res.loss <= dp_loss + 1e-5

    def test_warm_start_and_validation(self):
        d = BetaDensity(2, 2)
        warm = lloyd_max(d, levels=3, tol=1e-11).quantizer
        res = multi_start_lloyd_max(d, levels=3, n_starts=2, warm_start=warm)
        assert res.quantizer.words == pytest.approx(warm.words, abs=1e-9)
        with pytest.raises(ValueError):
            multi_start_lloyd_max(d, levels=4, warm_start=warm)
        with pytest.raises(ValueError):
            multi_start_lloyd_max(d, levels=3, n_starts=0)


class TestLossHistory:
    """Each Lloyd-Max iteration's kernel call also prices the previous
    iterate, so the history stays complete without extra kernel calls."""

    @PROPERTY_SETTINGS
    @given(mixtures(max_atoms=8), st.integers(1, 6))
    def test_history_complete_and_non_increasing(self, mix, levels):
        res = lloyd_max(mix, levels=levels, tol=1e-10, max_iters=3000)
        hist = np.asarray(res.loss_history)
        assert len(hist) == res.iterations
        assert hist[-1] == quantization_loss(res.quantizer, mix)
        assert res.loss == hist[-1]
        assert np.all(np.diff(hist) <= 1e-14)

    def test_history_prices_each_iterate_across_relocations(self):
        # entry n is the loss of the n-th iterate, i.e. of the result of a
        # run stopped after n iterations. On these atoms the second
        # iteration starves the middle cell and relocates its word, so the
        # first entry must come from the moments before that relocation.
        atoms = ((0.015, 0.175), (0.086, 0.378), (0.218, 0.423),
                 (0.385, 0.747), (0.226, 0.808), (0.07, 0.964))
        mix = MixtureDensity((), tuple((w, c, POINT_KERNEL) for w, c in atoms))
        init = [0.035, 0.722, 0.875]
        res = lloyd_max(mix, levels=3, init=init, tol=1e-11)
        assert res.converged and len(res.loss_history) == res.iterations
        events = []
        for n in range(1, res.iterations + 1):
            part = lloyd_max(mix, levels=3, init=init, tol=1e-11, max_iters=n)
            assert res.loss_history[n - 1] == quantization_loss(part.quantizer, mix)
            events.append(part.empty_cell_events)
        assert events[:2] == [0, 1]

    def test_max_iters_validation(self):
        with pytest.raises(ValueError):
            lloyd_max(BetaDensity(2, 2), levels=3, max_iters=0)
        res = lloyd_max(BetaDensity(2, 2), levels=3, max_iters=1)
        assert res.iterations == 1 and len(res.loss_history) == 1
