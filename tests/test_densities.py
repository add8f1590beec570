"""Density layer: beta pdfs/moments against Riemann-sum oracles, atom and
noise-kernel interval conventions, log-concavity detection, the
beta-pair dissimilarity formula against a quadrature oracle, and
properties of the array moment kernel on random mixtures."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantgame import (
    BetaDensity,
    DomainError,
    EmptyCellError,
    KernelShape,
    MixtureDensity,
    NoiseKernel,
    POINT_KERNEL,
    cell_centroid,
    check_semi_elasticity,
    eval_pdf,
    hellinger_beta,
    mass_in,
)

from oracles import (
    beta_pdf,
    bhattacharyya_overlap,
    riemann_moments,
    scalar_loop_moments,
)
from strategies import PROPERTY_SETTINGS, mixtures, mixtures_with_edges

# frozen oracle values (midpoint Riemann, 10^7 points)
MASS_BETA25_0_02 = 0.34464000000000006
CENTROID_BETA22_025_075 = 0.5
# frozen quadrature oracle values for the pair dissimilarity
DISSIM_11_22 = 0.03808762737860061
DISSIM_25_52 = 0.5398057636397473


class TestBetaDensity:
    def test_pdf_values(self):
        assert eval_pdf(BetaDensity(2, 2), 0.5) == pytest.approx(1.5, abs=1e-12)
        assert eval_pdf(BetaDensity(1, 1), 0.123) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_rejects_exterior_points(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 2))
        for x in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                d.pdf(x)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaDensity(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaDensity(2.0, -1.0)

    def test_mass_against_frozen_oracle(self):
        assert mass_in(BetaDensity(2, 5), 0.0, 0.2) == pytest.approx(
            MASS_BETA25_0_02, abs=1e-10)

    def test_centroid_against_frozen_oracle(self):
        assert cell_centroid(BetaDensity(2, 2), 0.25, 0.75) == pytest.approx(
            CENTROID_BETA22_025_075, abs=1e-10)

    @pytest.mark.parametrize("alpha,beta_param,a,b", [
        (2.0, 5.0, 0.0, 0.2),
        (2.0, 5.0, 0.13, 0.77),
        (0.7, 0.9, 0.05, 0.95),
        (6.0, 1.5, 0.4, 1.0),
    ])
    def test_partial_moments_against_riemann(self, alpha, beta_param, a, b):
        d = BetaDensity(alpha, beta_param)
        want = riemann_moments(lambda x: beta_pdf(x, alpha, beta_param), a, b)
        got = d.partial_moments(a, b)
        assert got == pytest.approx(want, abs=5e-9)

    def test_mean_and_log_concavity(self):
        assert BetaDensity(2, 3).mean == pytest.approx(0.4)
        assert BetaDensity(1, 1).is_log_concave()
        assert not BetaDensity(0.5, 2.0).is_log_concave()


class TestNoiseKernel:
    def test_std_values(self):
        assert POINT_KERNEL.std == 0.0
        assert NoiseKernel("uniform", 0.06).std == pytest.approx(0.06 / np.sqrt(3))
        assert NoiseKernel("triangular", 0.06).std == pytest.approx(0.06 / np.sqrt(6))

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            NoiseKernel(KernelShape.POINT, 0.1)
        with pytest.raises(ValueError):
            NoiseKernel(KernelShape.UNIFORM, 0.0)
        with pytest.raises(ValueError):
            NoiseKernel(KernelShape.UNIFORM, -0.1)

    def test_check_word(self):
        k = NoiseKernel("uniform", 0.05)
        k.check_word(0.5)
        with pytest.raises(DomainError):
            k.check_word(0.0)
        with pytest.raises(ValueError):
            k.check_word(0.01)  # support would leave the unit interval

    def test_point_atom_interval_convention(self):
        # an atom exactly on a query boundary belongs to the left cell
        k = POINT_KERNEL
        assert k.partial_moments(0.0, 0.5, 0.5)[0] == 1.0
        assert k.partial_moments(0.5, 1.0, 0.5)[0] == 0.0
        m0, m1, m2 = k.partial_moments(0.2, 0.8, 0.5)
        assert (m0, m1, m2) == (1.0, 0.5, 0.25)

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
        want = riemann_moments(lambda x: k.pdf(x, 0.5), lo, hi, n=400_000)
        got = k.partial_moments(a, b, 0.5)
        assert got == pytest.approx(want, abs=1e-9)

    def test_sampling_matches_support_and_mean(self):
        rng = np.random.default_rng(4)
        for shape in ("uniform", "triangular"):
            k = NoiseKernel(shape, 0.05)
            z = k.sample(rng, 200_000)
            assert np.all(np.abs(z) <= 0.05)
            assert abs(z.mean()) < 5e-4
            assert z.std() == pytest.approx(k.std, rel=0.02)


class TestMixtureDensity:
    def test_weight_validation(self):
        d = BetaDensity(2, 2)
        with pytest.raises(ValueError):
            MixtureDensity(((0.5, d),))  # weights must sum to 1
        with pytest.raises(ValueError):
            MixtureDensity(((-0.2, d), (1.2, d)))
        with pytest.raises(ValueError):
            MixtureDensity(((0.5, d),), ((0.5, 0.0, POINT_KERNEL),))

    def test_atom_mass_and_centroid(self):
        d = MixtureDensity(
            ((0.5, BetaDensity(1, 1)),),
            ((0.3, 0.25, POINT_KERNEL), (0.2, 0.75, POINT_KERNEL)),
        )
        assert d.mass_in(0.0, 0.5) == pytest.approx(0.55, abs=1e-12)
        # centroid mixes the uniform part and the atom at 0.25
        want = (0.5 * 0.125 + 0.3 * 0.25) / 0.55
        assert d.cell_centroid(0.0, 0.5) == pytest.approx(want, abs=1e-12)

    def test_empty_cell(self):
        d = MixtureDensity(
            ((1.0 - 1e-13, BetaDensity(2, 2)),),
        )
        # a zero-width-ish sliver right at the edge carries ~no mass
        with pytest.raises(EmptyCellError):
            d.cell_centroid(1.0 - 1e-14, 1.0)

    def test_quantile(self):
        u = MixtureDensity.from_beta(BetaDensity(1, 1))
        assert u.quantile(0.3) == pytest.approx(0.3, abs=1e-10)
        d = MixtureDensity.from_beta(BetaDensity(2, 5))
        p = 0.41
        assert d.mass_in(0.0, d.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_smeared_atom_total_mass(self):
        k = NoiseKernel("triangular", 0.05)
        d = MixtureDensity(((0.6, BetaDensity(2, 2)),), ((0.4, 0.5, k),))
        assert d.mass_in(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        # pdf integrates the smeared atom too
        want = riemann_moments(lambda x: 0.6 * beta_pdf(x, 2, 2) + 0.4 * k.pdf(x, 0.5),
                               0.3, 0.7, n=400_000)
        assert d.partial_moments(0.3, 0.7) == pytest.approx(want, abs=1e-8)


class TestSemiElasticity:
    def test_log_concave_sources(self):
        ok, where = check_semi_elasticity(BetaDensity(2, 3))
        assert ok and where is None
        ok, _ = check_semi_elasticity(BetaDensity(1, 1))
        assert ok

    def test_convex_log_density_detected(self):
        ok, where = check_semi_elasticity(BetaDensity(0.5, 0.5))
        assert not ok and 0.0 < where < 1.0

    def test_bimodal_mixture_detected(self):
        mix = MixtureDensity(((0.5, BetaDensity(2, 8)), (0.5, BetaDensity(8, 2))))
        ok, _ = check_semi_elasticity(mix)
        assert not ok

    def test_vanishing_pdf_rejected(self):
        k = NoiseKernel("uniform", 0.05)
        atoms_only = MixtureDensity((), ((1.0, 0.5, k),))
        with pytest.raises(DomainError):
            check_semi_elasticity(atoms_only)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_semi_elasticity(BetaDensity(2, 2), grid_size=2)


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
    """One array call of the moment kernel against per-cell scalar calls."""

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_array_call_matches_scalar_calls(self, case):
        mix, edges = case
        got = np.array(mix.partial_moments(edges[:-1], edges[1:]))
        want = np.array([mix.partial_moments(a, b) for a, b in zip(edges[:-1], edges[1:])]).T
        assert np.all(np.abs(got - want) <= 1e-15)
        assert all(type(v) is float for v in mix.partial_moments(edges[0], edges[1]))

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_matches_scalar_loop_reference(self, case):
        # bit for bit on point atoms; smeared atoms differ in rounding only,
        # amplified by the 1/h^2 of the narrowest kernel (h >= 0.005)
        mix, edges = case
        got = np.array(mix.partial_moments(edges[:-1], edges[1:]))
        want = np.array([scalar_loop_moments(mix, a, b)
                         for a, b in zip(edges[:-1], edges[1:])]).T
        smeared = any(k.shape is not KernelShape.POINT for _w, _c, k in mix.smeared_atoms)
        assert np.max(np.abs(got - want)) <= (1e-11 if smeared else 0.0)

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_cell_masses_sum_to_total_weight(self, case):
        mix, edges = case
        total = (sum(w for w, _d in mix.continuous_parts)
                 + sum(w for w, _c, _k in mix.smeared_atoms))
        m0 = mix.mass_in(edges[:-1], edges[1:])
        assert np.all(m0 >= 0.0)
        assert m0.sum() == pytest.approx(total, abs=1e-12)

    @PROPERTY_SETTINGS
    @given(mixtures_with_edges())
    def test_edge_atom_falls_in_left_cell(self, case):
        mix, edges = case
        m0 = mix.mass_in(edges[:-1], edges[1:])
        for w, c, k in mix.smeared_atoms:
            if k is not POINT_KERNEL or c not in edges:
                continue
            left = int(np.searchsorted(edges, c)) - 1
            assert edges[left + 1] == c
            inside = POINT_KERNEL.partial_moments(edges[:-1], edges[1:], c)[0]
            assert inside.tolist() == [1.0 if j == left else 0.0 for j in range(m0.size)]
            assert m0[left] >= w

    @PROPERTY_SETTINGS
    @given(mixtures(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_quantile_array_matches_elementwise(self, mix, levels):
        got = mix.quantile(np.array(levels))
        assert got.tolist() == [mix.quantile(p) for p in levels]

    def test_scalar_inputs_return_floats(self):
        d = BetaDensity(2, 5)
        k = NoiseKernel("triangular", 0.05)
        for moments in (d.partial_moments(0.1, 0.4), k.partial_moments(0.4, 0.52, 0.5),
                        POINT_KERNEL.partial_moments(0.4, 0.5, 0.5)):
            assert all(type(v) is float for v in moments)
        mix = MixtureDensity(((0.5, d),), ((0.5, 0.5, k),))
        assert type(mix.quantile(0.5)) is float
        assert type(mix.cell_centroid(0.2, 0.6)) is float

    def test_invalid_cells_rejected(self):
        d = MixtureDensity.from_beta(BetaDensity(2, 2))
        with pytest.raises(ValueError, match="0.5, 0.5"):
            d.partial_moments(np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.quantile(np.array([0.2, 1.5]))
        with pytest.raises(EmptyCellError):
            d.cell_centroid(np.array([0.0, 1.0 - 1e-15]), np.array([1.0 - 1e-15, 1.0]))
