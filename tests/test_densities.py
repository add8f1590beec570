"""Density layer: beta and noise-kernel moments against Riemann-sum
oracles, atom and noise-kernel interval conventions, rejection of
non-finite parameters and of words the noise pushes out of (0, 1), of
malformed cells and orders, the beta-pair dissimilarity
formula against a quadrature oracle, properties of the boundaries moment
kernel on random mixtures, the unchecked core that the design loop and the
quantile search enter against the public kernel, rows of several mixtures
in one core call against one call per mixture, the grid quantile search
against the one-point bisection it replaced, and the work counts of both."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from quantgame import (
    BetaDensity,
    DomainError,
    EmptyCellError,
    KernelShape,
    MixtureDensity,
    NoiseKernel,
    POINT_KERNEL,
    hellinger_beta,
)
from quantgame.densities import MixtureStack, centroid_from_moments

from oracles import (
    beta_pdf,
    bhattacharyya_overlap,
    bisection_quantile,
    kernel_pdf,
    riemann_moments,
    scalar_loop_moments,
)
from strategies import PROPERTY_SETTINGS, mixture_stacks, mixtures, mixtures_with_edges

# frozen oracle values (midpoint Riemann, 10^7 points)
MASS_BETA25_0_02 = 0.34464000000000006
CENTROID_BETA22_025_075 = 0.5
# frozen quadrature oracle values for the pair dissimilarity
DISSIM_11_22 = 0.03808762737860061
DISSIM_25_52 = 0.5398057636397473


class TestBetaDensity:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaDensity(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaDensity(2.0, -1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                BetaDensity(bad, 2.0)
            with pytest.raises(ValueError):
                BetaDensity(2.0, bad)

    def test_mass_against_frozen_oracle(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 5))
        assert d.partial_moments([0.0, 0.2], orders=1)[0][0] == pytest.approx(
            MASS_BETA25_0_02, abs=1e-10)

    def test_centroid_against_frozen_oracle(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 2))
        m0, m1 = d.partial_moments([0.25, 0.75], orders=2)
        assert centroid_from_moments(0.25, 0.75, m0, m1)[0] == pytest.approx(
            CENTROID_BETA22_025_075, abs=1e-10)

    @pytest.mark.parametrize("alpha,beta_param,a,b", [
        (2.0, 5.0, 0.0, 0.2),
        (2.0, 5.0, 0.13, 0.77),
        (0.7, 0.9, 0.05, 0.95),
        (6.0, 1.5, 0.4, 1.0),
    ])
    def test_partial_moments_against_riemann(self, alpha, beta_param, a, b):
        d = MixtureDensity.from_beta(BetaDensity(alpha, beta_param))
        want = riemann_moments(lambda x: beta_pdf(x, alpha, beta_param), a, b)
        got = tuple(m[0] for m in d.partial_moments([a, b]))
        assert got == pytest.approx(want, abs=5e-9)


class TestNoiseKernel:
    def test_construction_errors(self):
        with pytest.raises(ValueError):
            NoiseKernel(KernelShape.POINT, 0.1)
        with pytest.raises(ValueError):
            NoiseKernel(KernelShape.UNIFORM, 0.0)
        with pytest.raises(ValueError):
            NoiseKernel(KernelShape.UNIFORM, -0.1)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                NoiseKernel(KernelShape.UNIFORM, bad)

    def test_check_word(self):
        k = NoiseKernel("uniform", 0.05)
        k.check_words(np.array([0.06, 0.5, 0.94]))
        k.check_words(np.empty(0))
        for word in (0.0, 0.01, 0.95, np.nan):  # support would leave (0, 1)
            with pytest.raises(DomainError, match="leaves the unit interval"):
                k.check_words(np.array([0.5, word]))
        POINT_KERNEL.check_words(np.array([1e-9, 1.0 - 1e-9]))
        with pytest.raises(DomainError):
            POINT_KERNEL.check_words(np.array([1.0]))

    def test_point_atom_interval_convention(self):
        # an atom exactly on a query boundary belongs to the left cell; the
        # mixture prices point atoms, the noise kernel only smeared ones
        k = MixtureDensity(atom_weights=[1.0], atom_centers=[0.5])
        assert k.partial_moments([0.0, 0.5])[0][0] == 1.0
        assert k.partial_moments([0.5, 1.0])[0][0] == 0.0
        m0, m1, m2 = k.partial_moments([0.2, 0.8])[:, 0]
        assert (m0, m1, m2) == (1.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="point kernel"):
            POINT_KERNEL.partial_moments(0.0, 0.5, 0.5, 3)

    @pytest.mark.parametrize("shape,a,b", [
        ("uniform", 0.0, 0.5),     # partial overlap on the left
        ("uniform", 0.48, 0.52),   # interior slice
        ("uniform", 0.55, 1.0),    # partial overlap on the right
        ("triangular", 0.0, 0.5),
        ("triangular", 0.48, 0.52),
        ("triangular", 0.52, 0.58),
    ])
    def test_kernel_moments_against_riemann(self, shape, a, b):
        k = NoiseKernel(shape, 0.06)
        # integrate only over the intersection with the kernel support so
        # the density jump at the support edge lies on the range boundary
        # (the midpoint rule converges slowly across a discontinuity)
        lo, hi = max(a, 0.5 - 0.06), min(b, 0.5 + 0.06)
        want = riemann_moments(lambda x: kernel_pdf(k, x, 0.5), lo, hi, n=400_000)
        got = k.partial_moments(a, b, 0.5, 3)
        assert got == pytest.approx(want, abs=1e-9)

    def test_sampling_matches_support_and_mean(self):
        rng = np.random.default_rng(4)
        for shape in ("uniform", "triangular"):
            k = NoiseKernel(shape, 0.05)
            z = k.sample(rng, 200_000)
            assert np.all(np.abs(z) <= 0.05)
            assert abs(z.mean()) < 5e-4
            # the kernel's closed-form variance, from the moments the solver uses
            var = k.partial_moments(-1.0, 1.0, 0.0, 3)[2]
            assert z.std() == pytest.approx(np.sqrt(var), rel=0.02)


class TestMixtureDensity:
    def test_weight_validation(self):
        d = BetaDensity(2, 2)
        with pytest.raises(ValueError):
            MixtureDensity(((0.5, d),))  # weights must sum to 1
        with pytest.raises(ValueError):
            MixtureDensity(((-0.2, d), (1.2, d)))
        with pytest.raises(ValueError):
            MixtureDensity(((0.5, d),), [0.5], [0.0])
        with pytest.raises(ValueError):
            MixtureDensity(((0.5, d),), [0.25, 0.25], [0.5])
        with pytest.raises(ValueError):
            MixtureDensity(((0.5, d),), [np.nan], [0.5])
        # a weighted atom whose noise leaves (0, 1) is rejected; a weightless one is not
        k = NoiseKernel("uniform", 0.05)
        with pytest.raises(DomainError):
            MixtureDensity(((0.5, d),), [0.5], [0.02], k)
        MixtureDensity(((0.5, d),), [0.5, 0.0], [0.5, 0.02], k)

    def test_atom_mass_and_centroid(self):
        d = MixtureDensity(((0.5, BetaDensity(1, 1)),), [0.3, 0.2], [0.25, 0.75])
        assert d.partial_moments([0.0, 0.5], orders=1)[0][0] == pytest.approx(0.55, abs=1e-12)
        # centroid mixes the uniform part and the atom at 0.25
        want = (0.5 * 0.125 + 0.3 * 0.25) / 0.55
        m0, m1 = d.partial_moments([0.0, 0.5], orders=2)
        assert centroid_from_moments(0.0, 0.5, m0, m1)[0] == pytest.approx(want, abs=1e-12)

    def test_empty_cell(self):
        d = MixtureDensity(
            ((1.0 - 1e-13, BetaDensity(2, 2)),),
        )
        # a zero-width-ish sliver right at the edge carries ~no mass
        b = [1.0 - 1e-14, 1.0]
        with pytest.raises(EmptyCellError):
            centroid_from_moments(*b, *d.partial_moments(b, orders=2))

    def test_quantile(self):
        u = MixtureDensity.from_beta(BetaDensity(1, 1))
        assert u.quantile(0.3) == pytest.approx(0.3, abs=1e-10)
        d = MixtureDensity.from_beta(BetaDensity(2, 5))
        p = 0.41
        assert d.partial_moments([0.0, d.quantile(p)], orders=1)[0][0] == pytest.approx(
            p, abs=1e-9)

    def test_smeared_atom_total_mass(self):
        k = NoiseKernel("triangular", 0.05)
        d = MixtureDensity(((0.6, BetaDensity(2, 2)),), [0.4], [0.5], k)
        assert d.partial_moments([0.0, 1.0], orders=1)[0][0] == pytest.approx(1.0, abs=1e-12)
        # the integrand holds the smeared atom too
        want = riemann_moments(
            lambda x: 0.6 * beta_pdf(x, 2, 2) + 0.4 * kernel_pdf(k, x, 0.5),
            0.3, 0.7, n=400_000)
        got = tuple(m[0] for m in d.partial_moments([0.3, 0.7]))
        assert got == pytest.approx(want, abs=1e-8)


class TestHellinger:
    def test_frozen_oracle_values(self):
        assert hellinger_beta(BetaDensity(1, 1), BetaDensity(2, 2)) == pytest.approx(
            DISSIM_11_22, abs=1e-10)
        assert hellinger_beta(BetaDensity(2, 5), BetaDensity(5, 2)) == pytest.approx(
            DISSIM_25_52, abs=1e-8)

    def test_identical_pair_is_zero(self):
        d = BetaDensity(3.7, 1.9)
        assert abs(hellinger_beta(d, d)) < 1e-12

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a1, b1, a2, b2 = rng.uniform(0.5, 8.0, 4)
            p, q = BetaDensity(a1, b1), BetaDensity(a2, b2)
            v = hellinger_beta(p, q)
            assert v == pytest.approx(hellinger_beta(q, p), abs=1e-14)
            assert -1e-12 <= v < 1.0

    def test_against_quadrature(self):
        p, q = BetaDensity(3.0, 1.2), BetaDensity(1.4, 4.8)
        want = 1.0 - bhattacharyya_overlap(
            lambda x: beta_pdf(x, 3.0, 1.2), lambda x: beta_pdf(x, 1.4, 4.8))
        assert hellinger_beta(p, q) == pytest.approx(want, abs=1e-8)


class TestArrayKernel:
    """One array call of the moment kernel against per-cell calls."""

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_array_call_matches_scalar_calls(self, case):
        mix, edges = case
        got = np.array(mix.partial_moments(edges))
        want = np.array([mix.partial_moments(edges[k:k + 2])
                         for k in range(edges.size - 1)])[..., 0].T
        assert np.all(np.abs(got - want) <= 1e-15)
        assert all(m.shape == (1,) for m in mix.partial_moments(edges[:2]))

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_matches_scalar_loop_reference(self, case):
        # bit for bit on point atoms; smeared atoms differ in rounding only,
        # amplified by the 1/h^2 of the narrowest kernel (h >= 0.005); the
        # boundaries come as a (2, M+1) batch: the edges and their mirror
        mix, edges = case
        batch = np.array([edges, 1.0 - edges[::-1]])
        got = np.array(mix.partial_moments(batch))
        want = np.array([[scalar_loop_moments(mix, a, b) for a, b in zip(row[:-1], row[1:])]
                         for row in batch]).transpose(2, 0, 1)
        smeared = mix.noise.shape is not KernelShape.POINT and mix.atom_weights.size > 0
        assert np.max(np.abs(got - want)) <= (1e-11 if smeared else 0.0)

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_fewer_orders_are_a_prefix(self, case):
        mix, edges = case
        batch = np.array([edges, 1.0 - edges[::-1]])
        d = MixtureDensity.from_beta(mix.continuous_parts[0][1])
        # the noise kernel prices every smeared atom (down the first axis) on
        # every cell; the mixture alone prices point atoms
        centers = mix.atom_centers[:, None, None]
        kernels = [lambda k: mix.partial_moments(batch, orders=k),
                   lambda k: d.partial_moments(batch, orders=k)]
        if mix.noise.shape is not KernelShape.POINT:
            kernels.append(lambda k: mix.noise.partial_moments(batch[..., :-1], batch[..., 1:],
                                                               centers, orders=k))
        for kernel in kernels:
            full = kernel(3)
            for k in (1, 2):
                part = kernel(k)
                assert len(part) == k
                assert all(np.array_equal(a, b) for a, b in zip(part, full))

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_cell_masses_sum_to_total_weight(self, case):
        mix, edges = case
        total = sum(w for w, _d in mix.continuous_parts) + mix.atom_weights.sum()
        m0 = mix.partial_moments(edges, orders=1)[0]
        assert np.all(m0 >= 0.0)
        assert m0.sum() == pytest.approx(total, abs=1e-12)

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_edge_atom_falls_in_left_cell(self, case):
        mix, edges = case
        m0 = mix.partial_moments(edges, orders=1)[0]
        if mix.noise is not POINT_KERNEL:
            return
        for w, c in zip(mix.atom_weights, mix.atom_centers):
            if c not in edges:
                continue
            left = int(np.searchsorted(edges, c)) - 1
            assert edges[left + 1] == c
            atom = MixtureDensity(atom_weights=[1.0], atom_centers=[c])
            inside = atom.partial_moments(edges, orders=1)[0]
            assert inside.tolist() == [1.0 if j == left else 0.0 for j in range(m0.size)]
            assert m0[left] >= w

    @PROPERTY_SETTINGS
    @given(mixtures(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_quantile_array_matches_elementwise(self, mix, levels):
        got = mix.quantile(np.array(levels))
        assert got.tolist() == [mix.quantile(p) for p in levels]

    @PROPERTY_SETTINGS
    @given(mixtures(centers=st.one_of(st.sampled_from([0.5, 0.25, 0.375]),
                                      st.floats(0.1, 0.9))),
           st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                    min_size=1, max_size=6))
    def test_quantile_matches_one_point_bisection(self, mix, levels):
        # atoms on dyadics put mass jumps exactly on bisection midpoints
        got = mix.quantile(np.array(levels))
        assert np.array_equal(got, bisection_quantile(mix, np.array(levels)))
        assert mix.quantile(levels[0]) == bisection_quantile(mix, levels[0])

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges(), st.data())
    def test_quantile_matches_one_point_bisection_on_edge_masses(self, case, data):
        # levels at the exact masses of (0, edge], atoms sitting on edges:
        # a level equal to the mass below an atom's jump must stop there
        mix, edges = case
        masses = np.cumsum(mix.partial_moments(edges, orders=1)[0])
        levels = data.draw(st.lists(st.sampled_from(masses[masses <= 1.0].tolist() + [0.0]),
                                    min_size=1, max_size=6), label="levels")
        got = mix.quantile(np.array(levels))
        assert np.array_equal(got, bisection_quantile(mix, np.array(levels)))
        assert mix.quantile(levels[0]) == bisection_quantile(mix, levels[0])

    def test_invalid_cells_rejected(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 2))
        with pytest.raises(ValueError, match="0.5, 0.5"):
            d.partial_moments(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            d.quantile(np.array([0.2, 1.5]))
        with pytest.raises(EmptyCellError):
            b = np.array([0.0, 1.0 - 1e-15, 1.0])
            centroid_from_moments(b[:-1], b[1:], *d.partial_moments(b, orders=2))
        for orders in (0, 4):
            with pytest.raises(ValueError, match="orders must be 1, 2 or 3"):
                d.partial_moments([0.0, 1.0], orders=orders)
        # a 0-d boundary, or fewer than two along the last axis, holds no cell
        for boundaries in (0.5, [0.5], np.zeros((3, 1)), np.empty((2, 0))):
            with pytest.raises(ValueError, match=">= 2 boundaries"):
                d.partial_moments(boundaries)


class TestCore:
    """The kernel's unchecked core, which the design loop and the quantile
    search enter directly, against the public kernel around it."""

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges(), st.integers(1, 3))
    def test_core_matches_public_kernel(self, case, orders):
        # one row and a batch of rows, both priced in one oversized buffer
        # that holds another call's leftovers, as the loop's buffer does
        mix, edges = case
        batch = np.array([edges, 1.0 - edges[::-1], np.sqrt(edges)])
        terms = mix._parts.buffer(3, 4, edges.size - 1)
        terms[...] = np.nan
        for rows in (edges[None], batch, batch[1:], edges[None]):
            got = mix._core(mix._parts, rows, orders, terms, False)
            assert np.array_equal(got, mix.partial_moments(rows, orders))
        if mix.noise is POINT_KERNEL:
            # a single row, maybe a single cell, added part by part
            want = np.array([scalar_loop_moments(mix, a, b)
                             for a, b in zip(edges[:-1], edges[1:])]).T
            assert np.array_equal(mix._core(mix._parts, edges[None], 3, terms, False)[:, 0], want)

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_from_zero_matches_cells_from_zero(self, case):
        # the quantile search prices (0, x] without pricing 0
        mix, edges = case
        x = np.array([edges[1:], edges[1:] ** 2])
        got = mix._core(mix._parts, x, 1, mix._parts.buffer(1, 2, x.shape[1]), True)[0]
        cells = np.stack((np.zeros_like(x), x), axis=-1)
        assert np.array_equal(got, mix.partial_moments(cells, orders=1)[0][..., 0])


class TestStackedKernel:
    """Rows drawn from several mixtures in one call of the core, each
    mixture's atoms padded to the stack's largest count, against one call
    per row of that row's own mixture, bit for bit."""

    @PROPERTY_SETTINGS
    @given(mixture_stacks(), st.integers(1, 3))
    def test_rows_equal_one_mixture_calls(self, case, orders):
        mixes, edges = case
        # the rows cycle through the mixtures, three edge sets each
        owner = np.arange(3 * len(mixes)) % len(mixes)
        rows = np.array([edges, 1.0 - edges[::-1], np.sqrt(edges)]).repeat(len(mixes), axis=0)
        stack = MixtureStack(mixes).take(owner)
        terms = stack.buffer(3, rows.shape[0] + 1, edges.size - 1)
        terms[...] = np.nan  # another call's leftovers
        got = MixtureDensity._core(stack, rows, orders, terms, False)
        for r, mix in enumerate(mixes[o] for o in owner):
            assert np.array_equal(got[:, r], mix.partial_moments(rows[r], orders))

    @PROPERTY_SETTINGS
    @given(mixture_stacks())
    def test_quantiles_equal_one_mixture_calls(self, case):
        mixes, edges = case
        levels = np.concatenate(([0.0, 1.0], edges[1:-1]))
        got = MixtureStack(mixes).take(np.arange(len(mixes)).repeat(levels.size)).quantile(
            np.tile(levels, len(mixes)))
        for d, mix in enumerate(mixes):
            assert np.array_equal(got[d * levels.size:(d + 1) * levels.size],
                                  mix.quantile(levels))

    def test_stacked_mixtures_share_a_kernel_and_a_count_of_beta_parts(self):
        beta = MixtureDensity.from_beta(BetaDensity(2, 5))
        for other in (MixtureDensity(((0.5, BetaDensity(2, 5)), (0.5, BetaDensity(5, 2)))),
                      MixtureDensity(((0.5, BetaDensity(2, 5)),), [0.5], [0.5],
                                     NoiseKernel("uniform", 0.02))):
            with pytest.raises(ValueError, match="one noise kernel and one count of beta parts"):
                MixtureStack([beta, other])


class TestKernelWork:
    """Work counts of the moment kernel and the quantile search."""

    def test_one_betainc_call_per_beta_part_over_all_orders(self, monkeypatch):
        # each boundary is priced once per order, every order in one call
        sizes = []
        betainc = special.betainc

        def counting(a, b, x):
            sizes.append(np.broadcast(a, b, x).size)
            return betainc(a, b, x)

        monkeypatch.setattr(special, "betainc", counting)
        mix = MixtureDensity(((0.4, BetaDensity(2, 5)), (0.2, BetaDensity(3, 1.5))),
                             [0.3, 0.1], [0.25, 0.5])
        batch = np.array([[0.0, 0.2, 0.5, 0.7, 1.0],
                          [0.0, 0.1, 0.3, 0.9, 1.0],
                          [0.0, 0.4, 0.6, 0.8, 1.0]])  # S = 3 rows of M + 1 = 5
        for k in (1, 2, 3):
            sizes.clear()
            mix.partial_moments(batch, orders=k)
            assert sizes == [k * batch.size] * 2  # one call per beta part

    def test_noise_kernel_prices_only_the_orders_asked_for(self, monkeypatch):
        asked = []
        kernel = NoiseKernel.partial_moments

        def counting(self, a, b, center, orders=3):
            asked.append(orders)
            return kernel(self, a, b, center, orders)

        monkeypatch.setattr(NoiseKernel, "partial_moments", counting)
        mix = MixtureDensity(((0.6, BetaDensity(2, 5)),), [0.4], [0.5],
                             NoiseKernel("triangular", 0.02))
        for k in (1, 2, 3):
            mix.partial_moments([0.0, 0.5, 1.0], orders=k)
        assert asked == [1, 2, 3]

    @pytest.mark.parametrize("levels", [1, 6])
    def test_quantile_makes_at_most_11_kernel_calls(self, monkeypatch, levels):
        # the search enters the kernel's core directly, so it is counted there
        calls = []
        core = MixtureDensity._core

        def counting(self, *args):
            calls.append(args)
            return core(self, *args)

        monkeypatch.setattr(MixtureDensity, "_core", counting)
        mix = MixtureDensity(((0.7, BetaDensity(2, 5)),), [0.3], [0.5],
                             NoiseKernel("triangular", 0.02))
        mix.quantile((2 * np.arange(levels) + 1) / (2.0 * levels))
        assert 0 < len(calls) <= 11
