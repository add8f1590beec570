"""Quantizer layer: regularity validation, half-open cell lookup (also
against the binary search it replaced), design loops against analytic
optima, a golden-section boundary oracle, an exact dynamic-programming
oracle on a discretized source, monotone descent of the per-start
reference loop on random mixtures, the batched multi-start loop against
the per-start loop it replaced, and one-line rejection of bad design
arguments, and several designs in one batch against one design at a time."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantgame import (
    BetaDensity,
    EmptyCellError,
    MixtureDensity,
    RegularQuantizer,
    centroid_residual,
    lloyd_max,
    multi_start_lloyd_max,
    quantization_loss,
    quantizer_from_words,
)
from quantgame import quantizers
from quantgame.quantizers import (
    _MAX_ITERS,
    _MULTI_MAX_ITERS,
    _MULTI_TOL,
    _SEP,
    _TOL,
    _midpoints,
    _multi_start_inits,
    _run_starts,
    _separate,
)

from conftest import AGENT5_TARGET_WORDS, lloyd_max_to, outcome
from oracles import (
    beta_pdf,
    dp_optimal_quantizer,
    forward_separate,
    quantile_start,
    riemann_quantizer_loss,
    searchsorted_cell_index,
    sequential_lloyd_max,
    sequential_multi_start,
)
from strategies import PROPERTY_SETTINGS, kernels, mixtures

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

    @pytest.mark.parametrize("boundaries,words", [
        ([0.0, np.nan, 1.0], [0.2, 0.7]),
        ([0.0, 0.5, 1.0], [np.nan, 0.7]),
        ([0.0, 0.5, 1.0], [0.2, np.nan]),
        ([0.0, np.inf, 1.0], [0.2, 0.7]),
        ([0.0, 0.5, 1.0], [0.2, np.inf]),
    ], ids=["nan-boundary", "nan-first-word", "nan-last-word", "inf-boundary", "inf-word"])
    def test_non_finite_rejected(self, boundaries, words):
        with pytest.raises(ValueError):
            RegularQuantizer(np.array(boundaries), np.array(words))

    def test_half_open_cell_lookup(self):
        q = quantizer_from_words([(2 * k + 1) / 12.0 for k in range(6)])
        # boundary points belong to the cell on their left
        assert q.closed_cell_index(1.0 / 6.0) == 0
        assert q.closed_cell_index(1.0 / 6.0 + 1e-12) == 1
        assert q.closed_cell_index(0.999999) == 5
        idx = q.closed_cell_index(np.array([0.1, 0.5, 0.9]))
        assert list(idx) == [0, 2, 5]
        # the closed ends: 0.0 falls in the first cell, 1.0 in the last
        assert q.closed_cell_index(0.0) == 0
        assert q.closed_cell_index(1.0) == 5

    def test_lookup_words(self):
        q = quantizer_from_words([0.2, 0.8])
        k = q.closed_cell_index(0.3)
        assert (k, q.words[k]) == (0, 0.2)
        assert q.words[q.closed_cell_index(0.7)] == 0.8

    def test_reference_agent5_lookup(self):
        # x = 0.25 falls left of the first midpoint boundary 0.26125
        q = quantizer_from_words(AGENT5_TARGET_WORDS)
        assert q.boundaries[1] == pytest.approx(0.26125, abs=1e-12)
        assert q.words[q.closed_cell_index(0.25)] == pytest.approx(0.1982)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.booleans())
    def test_lookup_matches_search(self, levels, seed, midpoint):
        # random boundaries, or the midpoint boundaries of random words
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.uniform(1e-6, 1.0 - 1e-6, levels - 1))
        b = np.concatenate(([0.0], cuts, [1.0]))
        q = (quantizer_from_words(b[:-1] + np.diff(b) / 2.0) if midpoint
             else RegularQuantizer(b, b[:-1] + np.diff(b) / 2.0))
        edges = q.boundaries
        x = np.concatenate((rng.random(500), edges, q.words, [0.0, 1.0],
                            np.nextafter(edges, 0.5)))
        got = q.closed_cell_index(x)
        assert got.dtype == np.intp
        assert np.array_equal(got, searchsorted_cell_index(q, x))
        for v in (0.0, 1.0, edges[levels // 2], q.words[-1], x[0]):
            for scalar in (np.float64(v), np.array(v), float(v)):
                got = q.closed_cell_index(scalar)
                assert got.shape == () and got.dtype == np.intp
                assert got == searchsorted_cell_index(q, scalar)


class TestBoundaryRule:
    def test_uniform_words(self):
        words = [(2 * k + 1) / 12.0 for k in range(6)]
        b = quantizer_from_words(words).boundaries
        assert b == pytest.approx([k / 6.0 for k in range(7)], abs=1e-15)

    def test_two_words(self):
        assert quantizer_from_words([0.2, 0.8]).boundaries == pytest.approx(
            [0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            quantizer_from_words([0.3, 0.2])
        with pytest.raises(ValueError):
            quantizer_from_words([0.0, 0.5])
        with pytest.raises(ValueError):
            quantizer_from_words([])


class TestLoss:
    def test_loss_against_riemann(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 5))
        res = lloyd_max(d, levels=4)
        got = quantization_loss(res.quantizer, d)
        want = riemann_quantizer_loss(lambda x: beta_pdf(x, 2, 5),
                                      res.quantizer.boundaries,
                                      res.quantizer.words)
        assert got == pytest.approx(want, abs=1e-9)

    def test_centroid_residual_zero_iff_centroids(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 2))
        res = lloyd_max_to(d, 3, 1e-12)
        assert centroid_residual(res.quantizer, d) < 1e-10
        shifted = RegularQuantizer(res.quantizer.boundaries,
                                   res.quantizer.words + 1e-3)
        assert centroid_residual(shifted, d) > 5e-4


class TestLloydMax:
    def test_uniform_source_optimum(self):
        res = lloyd_max_to(MixtureDensity.from_beta(BetaDensity(1, 1)), 6, 1e-12)
        assert res.converged
        assert res.quantizer.words == pytest.approx(
            [(2 * k + 1) / 12.0 for k in range(6)], abs=1e-10)
        assert res.quantizer.boundaries == pytest.approx(
            [k / 6.0 for k in range(7)], abs=1e-10)
        assert res.loss == pytest.approx(1.0 / 432.0, abs=1e-10)

    def test_two_level_golden_section_oracle(self):
        res = lloyd_max_to(MixtureDensity.from_beta(BetaDensity(2, 2)), 2, 1e-12)
        assert res.quantizer.boundaries[1] == pytest.approx(
            BETA22_M2_BOUNDARY, abs=1e-7)
        assert res.quantizer.words == pytest.approx(BETA22_M2_WORDS, abs=1e-7)
        assert res.loss == pytest.approx(BETA22_M2_LOSS, abs=1e-9)

    def test_against_dp_oracle(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 5))
        res = lloyd_max_to(d, 4, 1e-12)
        b, w, dp_loss = dp_optimal_quantizer(lambda x: beta_pdf(x, 2, 5), 4)
        # the DP solves a 1/2000-discretized source; agree to grid resolution
        assert res.quantizer.words == pytest.approx(w, abs=2e-3)
        assert res.loss <= dp_loss + 1e-5

    @settings(max_examples=6, derandomize=True, database=None, deadline=None)
    @given(st.floats(1.0, 8.0), st.floats(1.0, 8.0), st.integers(2, 6))
    def test_against_dp_oracle_on_log_concave_betas(self, alpha, beta_param, levels):
        # alpha, beta >= 1: log-concave, so the optimum is unique
        res = lloyd_max_to(MixtureDensity.from_beta(BetaDensity(alpha, beta_param)), levels,
                           1e-12)
        _b, w, dp_loss = dp_optimal_quantizer(
            lambda x: beta_pdf(x, alpha, beta_param), levels)
        assert res.quantizer.words == pytest.approx(w, abs=2e-3)
        assert res.loss <= dp_loss + 1e-5

    def test_loss_history_non_increasing(self):
        mix = MixtureDensity.from_beta(BetaDensity(5, 2))
        res = lloyd_max_to(mix, 5, 1e-12)
        _ref, hist = sequential_lloyd_max(mix, quantile_start(mix, 5), _MAX_ITERS, 1e-12)
        assert np.all(np.diff(hist) <= 1e-14)
        assert res.loss == hist[-1]

    def test_postcondition_residual(self):
        for a, b in ((2, 5), (5, 2), (1.3, 1.3)):
            d = MixtureDensity.from_beta(BetaDensity(a, b))
            res = lloyd_max(d, levels=6)
            assert centroid_residual(res.quantizer, d) <= 10 * _TOL

    def test_starved_cells_recovered(self):
        # all words packed into the vanishing right tail of a left-heavy
        # source, so the initial cells carry essentially no mass
        res = _run_starts([MixtureDensity.from_beta(BetaDensity(2, 9))],
                          np.array([[0.9990, 0.9992, 0.9994, 0.9996]]), _MAX_ITERS, 1e-11)[0]
        assert res.converged
        assert res.empty_cell_events > 0
        ref = lloyd_max_to(MixtureDensity.from_beta(BetaDensity(2, 9)), 4, 1e-11)
        assert res.quantizer.words == pytest.approx(ref.quantizer.words, abs=1e-6)

    def test_starved_words_leave_a_heavy_atom(self):
        # the quantile start puts four of five words on the atom at 0.1,
        # whose cell is the heaviest but holds a single point: relocated
        # words must go where the uniform part can feed them
        mix = MixtureDensity(((1 / 3, BetaDensity(1, 1)),), [2 / 3], [0.1])
        res = lloyd_max_to(mix, 5, 1e-11)
        assert res.converged and res.empty_cell_events > 0
        assert centroid_residual(res.quantizer, mix) <= 1e-10

    def test_log_concave_init_independence(self):
        # unique local optimum: random inits all land on the same design
        rng = np.random.default_rng(7)
        mix = MixtureDensity.from_beta(BetaDensity(2, 5))
        ref = lloyd_max_to(mix, 6, 1e-11).quantizer.words
        inits = np.sort(rng.uniform(0.02, 0.98, (5, 6)), axis=1)
        inits += np.arange(6) * 1e-4  # enforce strict increase
        for got in _run_starts([mix], inits, _MAX_ITERS, 1e-11):
            assert got.quantizer.words == pytest.approx(ref, abs=1e-7)


class TestSeparate:
    """`_separate` leaves every row strictly increasing inside
    [_SEP, 1 - _SEP], and bit for bit where the forward-only version it
    replaced (`oracles.forward_separate`) already did."""

    # ties, the clip edges and neighbours of 1 make stacked words likely
    WORD = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, _SEP, 0.5, np.nextafter(1.0 - _SEP, 0.0), 1.0 - _SEP, np.nextafter(1.0, 0.0), 1.0]))

    @PROPERTY_SETTINGS
    @given(st.integers(1, 8), st.integers(1, 4), st.booleans(), st.data())
    def test_strictly_increasing_and_old_bits_kept(self, levels, n_rows, ordered, data):
        rows = np.array([data.draw(st.lists(self.WORD, min_size=levels, max_size=levels))
                         for _ in range(n_rows)])
        if ordered:
            rows.sort(axis=1)
        got = _separate(rows.copy())
        assert np.all(got[:, 1:] > got[:, :-1])
        assert np.all(got[:, 0] >= _SEP) and np.all(got[:, -1] <= 1.0 - _SEP)
        for row, g in zip(rows, got):
            assert np.array_equal(_separate(row.copy()), g)  # rows are independent
            old = forward_separate(row.copy())
            if np.all(old[1:] > old[:-1]):
                assert np.array_equal(old, g)

    def test_words_stacked_at_one(self):
        # the quantile start of Beta(1, 0.001) puts every word at 1
        got = _separate(np.ones(4))
        assert np.all(np.diff(got) > 0) and got[-1] == 1.0 - _SEP
        assert not np.all(np.diff(forward_separate(np.ones(4))) > 0)


class TestExtremeSources:
    """Beta sources with shape parameters from 1e-3 to 1e3 pile their mass
    against 0 or 1, where the quantile start stacks words: each design
    ends in a result or in EmptyCellError, never in another error."""

    LOG_SHAPE = st.floats(-3.0, 3.0)

    @PROPERTY_SETTINGS
    @given(LOG_SHAPE, LOG_SHAPE, st.integers(1, 6))
    @example(0.0, -3.0, 4)  # Beta(1, 0.001): every quantile start word is 1
    def test_design_returns_or_reports_starved_cell(self, log_a, log_b, levels):
        d = MixtureDensity.from_beta(BetaDensity(10.0 ** log_a, 10.0 ** log_b))
        for design in (lloyd_max, lambda d, k: multi_start_lloyd_max([d], [k], 8)[0]):
            try:
                res = design(d, levels)
            except EmptyCellError:
                continue
            assert res.quantizer.levels == levels
            assert np.isfinite(res.loss)


class TestMultiStart:
    def test_matches_single_start_on_log_concave(self):
        d = MixtureDensity.from_beta(BetaDensity(3, 4))
        a = lloyd_max_to(d, 5, 1e-11)
        [b] = multi_start_lloyd_max([d], [5], n_starts=6)
        assert b.quantizer.words == pytest.approx(a.quantizer.words, abs=1e-8)

    def test_bimodal_two_level_grid_oracle(self):
        mix = MixtureDensity(((0.5, BetaDensity(2, 8)), (0.5, BetaDensity(8, 2))))
        [res] = multi_start_lloyd_max([mix], [2], n_starts=8)
        b, w, dp_loss = dp_optimal_quantizer(
            lambda x: 0.5 * beta_pdf(x, 2, 8) + 0.5 * beta_pdf(x, 8, 2), 2)
        assert res.quantizer.words == pytest.approx(w, abs=2e-3)
        assert res.loss <= dp_loss + 1e-5

    def test_warm_start_and_validation(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 2))
        warm = lloyd_max_to(d, 3, 1e-11).quantizer
        [res] = multi_start_lloyd_max([d], [3], n_starts=2, warm_starts=[warm])
        assert res.quantizer.words == pytest.approx(warm.words, abs=1e-9)
        with pytest.raises(ValueError):
            multi_start_lloyd_max([d], [4], n_starts=8, warm_starts=[warm])
        with pytest.raises(ValueError):
            multi_start_lloyd_max([d], [3], n_starts=0)


class TestArgumentValidation:
    """Bad level counts fail with one line instead of a NumPy error."""

    @pytest.mark.parametrize("call", [
        lambda d: lloyd_max(d, levels=0),
        lambda d: multi_start_lloyd_max([d], [0], 8),
        lambda d: multi_start_lloyd_max([d], [-2], 8),
    ], ids=["lloyd_max-levels-0", "multi_start-0", "multi_start-minus-2"])
    def test_levels_must_be_positive(self, call):
        with pytest.raises(ValueError, match="^levels must be at least 1$"):
            call(MixtureDensity.from_beta(BetaDensity(2, 2)))


def _assert_same_run(got, want):
    assert np.array_equal(got.quantizer.words, want.quantizer.words)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.final_move == want.final_move
    assert got.loss == want.loss
    assert np.array_equal(got.usage, want.usage)
    assert got.empty_cell_events == want.empty_cell_events


# atoms on which the start below starves its middle cell in the second
# iteration and relocates that word
RELOCATION_ATOMS = ((0.015, 0.175), (0.086, 0.378), (0.218, 0.423),
                    (0.385, 0.747), (0.226, 0.808), (0.07, 0.964))
RELOCATION_INIT = [0.035, 0.722, 0.875]


class TestBatchedStarts:
    """All starts advance as one (starts, levels) array, yet each must end
    bit for bit where the per-start loop (`oracles.sequential_multi_start`)
    ends it, and the same start must win."""

    @PROPERTY_SETTINGS
    @given(mixtures(max_atoms=8), st.integers(1, 6), st.integers(1, 8),
           st.sampled_from([1, 5, _MULTI_MAX_ITERS]), st.data())
    def test_matches_sequential_starts(self, mix, levels, n_starts, max_iters, data):
        warm = None
        if data.draw(st.booleans(), label="warm"):
            words = data.draw(st.lists(st.floats(0.02, 0.98), min_size=levels,
                                       max_size=levels, unique=True), label="warm words")
            warm = quantizer_from_words(np.sort(words))
        inits = _multi_start_inits([mix], levels, n_starts, [warm])[0]
        try:
            want, best = sequential_multi_start(mix, levels, n_starts, warm, max_iters,
                                                _MULTI_TOL)
        except EmptyCellError:
            with pytest.raises(EmptyCellError):
                _run_starts([mix], inits, max_iters, _MULTI_TOL)
            return
        got = _run_starts([mix], inits, max_iters, _MULTI_TOL)
        assert len(got) == len(want) == n_starts + (warm is not None)
        for g, w in zip(got, want):
            _assert_same_run(g, w)
        if max_iters == _MULTI_MAX_ITERS:  # the cap multi_start_lloyd_max runs to
            _assert_same_run(multi_start_lloyd_max([mix], [levels], n_starts, [warm])[0],
                             want[best])

    def test_relocating_row_beside_settled_rows(self):
        # the first row relocates a word and needs one more iteration than
        # the others, which must leave the batch when they settle
        mix = MixtureDensity((), [w for w, _c in RELOCATION_ATOMS],
                             [c for _w, c in RELOCATION_ATOMS])
        rows = np.array([RELOCATION_INIT, [0.2, 0.4, 0.8], [0.3, 0.6, 0.9]])
        got = _run_starts([mix], rows.copy(), 10_000, 1e-11)
        for g, row in zip(got, rows):
            _assert_same_run(g, sequential_lloyd_max(mix, row, 10_000, 1e-11)[0])
        assert [g.empty_cell_events for g in got] == [1, 0, 0]
        assert [g.iterations for g in got] == [3, 2, 2]


class TestStackedDesigns:
    """Several designs in one `multi_start_lloyd_max` call, the designs of
    each level count, kernel and number of beta parts as one batch, against
    one call per design: the same results bit for bit, and the error that
    designing them one after another raises."""

    @PROPERTY_SETTINGS
    @given(kernels(), st.integers(1, 2), st.integers(1, 4), st.data())
    def test_designs_equal_one_at_a_time(self, kernel, n_betas, n_starts, data):
        # shared kernels and few level counts, so that designs batch; beta
        # part counts and kernels that differ split them, and a warm start
        # of the wrong size makes its batch raise
        designs = data.draw(st.lists(st.tuples(
            st.one_of(mixtures(max_atoms=8, kernel=kernel, n_betas=n_betas),
                      mixtures(max_atoms=8)),
            st.integers(1, 3), st.sampled_from([None, 0, 0, 1])), min_size=1, max_size=5))
        mixes, levels = [d[0] for d in designs], [d[1] for d in designs]
        warms = [None if extra is None else
                 quantizer_from_words((np.arange(k + extra) + 0.5) / (k + extra))
                 for _mix, k, extra in designs]
        with mock.patch.object(quantizers, "_MULTI_MAX_ITERS", 300):
            got = outcome(lambda: multi_start_lloyd_max(mixes, levels, n_starts, warms))
            want = outcome(lambda: [multi_start_lloyd_max([mix], [k], n_starts, [warm])[0]
                                    for mix, k, warm in zip(mixes, levels, warms)])
        assert got[0] == want[0]
        if want[0] == "raised":
            assert got == want
            return
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            _assert_same_run(g, w)

    def test_first_design_to_fail_is_raised(self, monkeypatch):
        # design 1 fails at its first relocation, design 0 only at its third:
        # one after another, design 0's error comes first, and so must it here
        calls = {}

        def failing(words, mix):
            calls[mix] = calls.get(mix, 0) + 1
            if calls[mix] == fail_at[mix]:
                raise EmptyCellError(f"design {mixes.index(mix)} starved")
            b = _midpoints(words)
            return words, b, mix.partial_moments(b), 0

        monkeypatch.setattr(quantizers, "EMPTY_CELL_MASS", 2.0)  # every cell starves
        monkeypatch.setattr(quantizers, "_resolve_empty_cells", failing)
        mixes = [MixtureDensity.from_beta(BetaDensity(2, 5)),
                 MixtureDensity.from_beta(BetaDensity(5, 2))]
        fail_at = {mixes[0]: 3, mixes[1]: 1}
        for designs, relocations in ((mixes, [3, 1]), (mixes[:1], [3])):
            calls.clear()
            with pytest.raises(EmptyCellError, match="^design 0 starved$"):
                multi_start_lloyd_max(designs, [4] * len(designs), 1)
            assert [calls[mix] for mix in designs] == relocations


class TestLoopWork:
    """The design loop's budget: one call of the kernel's core per
    iteration, for every start in the batch at once, plus one call for the
    final loss. The loop enters the core directly, past the public
    `partial_moments` and its input check, so the count is taken there."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        core = MixtureDensity._core

        def counting(self, *args):
            calls.append(args)
            return core(self, *args)

        monkeypatch.setattr(MixtureDensity, "_core", counting)
        return calls

    # a beta part feeds every cell, so no cell starves
    MIX = MixtureDensity(((0.7, BetaDensity(2, 5)),), [0.2, 0.1], [0.3, 0.6])

    def test_one_kernel_call_per_iteration(self, kernel_calls):
        res = _run_starts([self.MIX], np.array([[0.1, 0.4, 0.6, 0.9]]), _MAX_ITERS, 1e-10)[0]
        assert res.converged and res.empty_cell_events == 0
        assert len(kernel_calls) == res.iterations + 1

    def test_batched_starts_share_each_call(self, kernel_calls):
        rows = np.array([[0.1, 0.4, 0.6, 0.9], [0.2, 0.3, 0.5, 0.8], [0.05, 0.5, 0.7, 0.95]])
        got = _run_starts([self.MIX], rows, 10_000, 1e-10)
        assert all(r.converged and r.empty_cell_events == 0 for r in got)
        assert len(kernel_calls) == max(r.iterations for r in got) + 1


class TestLossHistory:
    """Lloyd-Max is a descent method: the loss of each iterate does not
    increase. The library keeps only the final loss, so the per-iterate
    losses come from the reference loop (`oracles.sequential_lloyd_max`),
    which runs the same iterates."""

    @PROPERTY_SETTINGS
    @given(mixtures(max_atoms=8), st.integers(1, 6))
    def test_history_complete_and_non_increasing(self, mix, levels):
        res = lloyd_max(mix, levels=levels)
        _ref, hist = sequential_lloyd_max(mix, quantile_start(mix, levels), _MAX_ITERS, _TOL)
        assert np.all(np.diff(hist) <= 1e-14)
        assert len(hist) == res.iterations
        assert res.loss == hist[-1] == quantization_loss(res.quantizer, mix)

    def test_history_prices_each_iterate_across_relocations(self):
        # a run stopped after n iterations returns the n-th iterate. On
        # these atoms the second iteration starves the middle cell and
        # relocates its word; the loss must still not rise across it.
        mix = MixtureDensity((), [w for w, _c in RELOCATION_ATOMS],
                             [c for _w, c in RELOCATION_ATOMS])
        res = _run_starts([mix], np.array([RELOCATION_INIT]), _MAX_ITERS, 1e-11)[0]
        assert res.converged
        losses, events = [], []
        for n in range(1, res.iterations + 1):
            part = _run_starts([mix], np.array([RELOCATION_INIT]), n, 1e-11)[0]
            assert part.loss == quantization_loss(part.quantizer, mix)
            losses.append(part.loss)
            events.append(part.empty_cell_events)
        assert np.all(np.diff(losses) <= 1e-14)
        assert losses[-1] == res.loss
        assert events[:2] == [0, 1]

    def test_max_iters_validation(self):
        # a cap of one iteration stops there and prices that iterate
        mix = MixtureDensity.from_beta(BetaDensity(2, 2))
        res = _run_starts([mix], _multi_start_inits([mix], 3, 1, [None])[0], 1, 1e-10)[0]
        assert res.iterations == 1 and not res.converged
        assert res.loss == quantization_loss(res.quantizer, mix)
