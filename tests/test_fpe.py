import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import oracles
from villanets import activations, fpe, model
from villanets.model import Dataset, LossSpec, Net, normalized_outer


def ridge_only_spec(lam, dim=1, y=0.0):
    act = activations.sigmoid(1.0)
    data = Dataset(np.ones((1, dim)), np.array([y]))
    return LossSpec(Net(np.zeros(1), np.zeros((1, dim)), act), data, lam)


def sigmoid_1d_spec(lam_mult=1.5, xs=(1.0,), ys=(1.0,)):
    act = activations.sigmoid(1.0)
    data = Dataset(np.asarray(xs, float).reshape(-1, 1), np.asarray(ys, float))
    net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 1)), act)
    return LossSpec(net, data, lam_mult * model.lambda_c(net, data))


def two_dim_spec():
    act = activations.sigmoid(1.0)
    data = Dataset(np.array([[1.0, -0.5]]), np.array([0.4]))
    net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 2)), act)
    return LossSpec(net, data, 0.5)


def ou_grid(lam=0.5, s=1.0, m=401, r=6.0):
    return fpe.build_grid(ridge_only_spec(lam), r, m, s)


def sigmoid_grid(dim, m, s=0.4):
    """A non-quadratic potential on a half-width-rule box."""
    spec = sigmoid_1d_spec(1.5, (0.6, 1.0, 1.4), (0.8, 0.5, 0.9)) if dim == 1 else two_dim_spec()
    return fpe.build_grid(spec, fpe.suggest_half_width(spec, s), m, s)


class TestBuildGrid:
    def test_gibbs_of_quadratic_potential_is_gaussian(self):
        lam, s = 0.5, 1.0
        grid = ou_grid(lam, s)
        mu = fpe.gibbs(grid)
        ref = norm.pdf(grid.axis(), scale=math.sqrt(s / (2 * lam)))
        ref = ref / (ref.sum() * grid.h)
        np.testing.assert_allclose(mu.values, ref, rtol=1e-6)

    def test_density_and_gibbs_mass(self):
        grid = ou_grid()
        assert abs(grid.mass() - 1.0) <= 1e-10
        mu = fpe.gibbs(grid)
        assert abs(np.sum(mu.values) * grid.h - 1.0) <= 1e-10
        assert np.all(mu.values > 0)

    def test_normalizer_matches_adaptive_quadrature(self):
        spec = sigmoid_1d_spec()
        s, r = 1.0, 8.0
        grid = fpe.build_grid(spec, r, 1601, s)
        z_grid = fpe.gibbs(grid).z
        z_quad, _ = quad(
            lambda w: math.exp(-2.0 * model.loss(spec, np.array([[w]])) / s),
            -r, r, limit=200,
        )
        assert abs(z_grid / z_quad - 1.0) <= 1e-6

    def test_rejects_large_weight_spaces(self):
        act = activations.sigmoid(1.0)
        data = Dataset(np.ones((1, 3)), np.array([0.0]))
        spec = LossSpec(Net(np.zeros(1), np.zeros((1, 3)), act), data, 0.5)
        with pytest.raises(ValueError):
            fpe.build_grid(spec, 4.0, 32, 1.0)

    def test_explicit_init_normalized(self):
        grid = fpe.build_grid(ridge_only_spec(0.5), 4.0, 101, 1.0,
                              init=np.ones(101))
        assert abs(grid.mass() - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            fpe.build_grid(ridge_only_spec(0.5), 4.0, 101, 1.0, init=-np.ones(101))

    def test_two_dimensional_grid(self):
        grid = fpe.build_grid(two_dim_spec(), 4.0, 41, 1.0)
        assert grid.dim == 2 and grid.size == 41 * 41
        assert abs(grid.mass() - 1.0) <= 1e-10

    def test_gibbs_raises_beyond_the_exponent_range(self):
        # 2 U / s reaches 2 * (10 / 2) * 10^2 / 0.01 = 1e5 at the box edge
        grid = fpe.build_grid(ridge_only_spec(10.0), 10.0, 101, 0.01)
        with pytest.raises(ValueError, match="exponent"):
            fpe.gibbs(grid)

    def test_gibbs_normalizer_underflows_to_zero(self):
        # U = 2 + W^2 / 4: log Z is about -2 * 2 / s = -800, far below exp's range
        grid = fpe.build_grid(ridge_only_spec(0.5, y=2.0), 0.5, 51, 0.005)
        mu = fpe.gibbs(grid)
        assert mu.z == 0.0
        assert math.isfinite(mu.log_z) and mu.log_z == pytest.approx(-801.7, abs=0.05)


class TestFixedPoint:
    @pytest.mark.parametrize("dim, m", [(1, 301), (2, 41)])
    def test_gibbs_is_the_exact_null_vector(self, dim, m):
        # G mu = 0 and H sqrt(mu) = 0 to round-off, not to O(h^2)
        grid = sigmoid_grid(dim, m)
        mu = fpe.gibbs(grid).values
        g_mat = fpe.generator(grid)
        scale = np.max(np.abs(g_mat.diagonal()))
        assert np.max(np.abs(g_mat @ mu)) <= 1e-13 * scale * np.max(mu)
        root = np.sqrt(mu)
        h_mat = fpe.symmetrized_generator(grid)
        assert np.max(np.abs(h_mat @ root)) <= 1e-13 * scale * np.max(root)


class TestDecayRate:
    def test_ou_rate_from_symmetric_start(self):
        # uniform init is even about the well, so the slowest excited mode
        # relaxes at twice the ridge strength
        lam, s = 0.5, 1.0
        fit = fpe.decay_rate(ou_grid(lam, s), t_max=12.0, dt=0.005)
        assert fit.rate == pytest.approx(2 * lam, rel=0.05)
        assert fit.r_squared >= 0.99
        assert not fit.early_converged

    def test_distance_series_monotone_after_transient(self):
        fit = fpe.decay_rate(ou_grid(m=201), t_max=4.0, dt=0.01)
        chi = np.sqrt(fit.chi2_series)
        assert np.all(np.diff(chi[1:]) <= 1e-12)
        assert np.all(np.abs(fit.mass_series - 1.0) <= 1e-12)

    def test_early_convergence_flag(self):
        grid = fpe.build_grid(ridge_only_spec(0.5), 6.0, 201, 1.0, init="gibbs")
        fit = fpe.decay_rate(grid, t_max=2.0, dt=0.01)
        assert fit.early_converged

    def test_refinement_consistency(self):
        rates = [fpe.decay_rate(ou_grid(m=m), t_max=10.0, dt=0.01).rate
                 for m in (101, 201, 401)]
        change1 = abs(rates[1] - rates[0])
        change2 = abs(rates[2] - rates[1])
        assert change2 < 5 * max(change1, 1e-12)


class TestSpectralGap:
    def test_ou_gap_matches_generator_eigenvalue(self):
        # the drift-diffusion generator for the quadratic well has
        # eigenvalue ladder {-k * lam}; the gap is lam itself
        lam = 0.5
        gap = fpe.spectral_gap(ou_grid(lam, m=401))
        assert gap == pytest.approx(lam, rel=0.01)
        gap2 = fpe.spectral_gap(ou_grid(lam, m=801))
        assert gap2 == pytest.approx(lam, rel=0.005)

    @pytest.mark.parametrize("dim, m, s, r", [(1, 401, 0.5, 4.0), (2, 31, 0.8, 3.0)])
    def test_flat_potential_gap_is_the_neumann_eigenvalue(self, dim, m, s, r):
        # a = 0, lam = 0: pure diffusion with D = s/2 and reflecting walls,
        # whose slowest mode decays at (2 s / h^2) sin^2(pi / (2 m))
        grid = fpe.build_grid(ridge_only_spec(0.0, dim=dim), r, m, s)
        expected = 2.0 * s / grid.h**2 * math.sin(math.pi / (2 * m)) ** 2
        assert fpe.spectral_gap(grid) == pytest.approx(expected, rel=1e-10)

    def test_gap_positive_above_critical_ridge(self):
        spec = sigmoid_1d_spec(lam_mult=1.5)
        r = fpe.suggest_half_width(spec, 0.5)
        assert fpe.spectral_gap(fpe.build_grid(spec, r, 301, 0.5)) > 0

    def test_gap_agrees_with_measured_decay(self):
        for xs, ys, s in [((1.0,), (1.0,), 0.2), ((0.6, 1.0, 1.4), (0.8, 0.5, 0.9), 0.4)]:
            spec = sigmoid_1d_spec(1.5, xs, ys)
            r = fpe.suggest_half_width(spec, s)
            grid = fpe.build_grid(spec, r, 501, s)
            fit = fpe.decay_rate(grid, t_max=60.0, dt=0.02)
            gap = fpe.spectral_gap(grid)
            assert gap > 0 and fit.rate > 0
            assert abs(fit.rate / gap - 1.0) <= 0.10
            assert fit.r_squared >= 0.99

    def test_two_dimensional_gap(self):
        # product of two independent quadratic wells: gap = min(lam) = lam
        act = activations.sigmoid(1.0)
        data = Dataset(np.ones((1, 2)), np.array([0.0]))
        spec = LossSpec(Net(np.zeros(1), np.zeros((1, 2)), act), data, 0.5)
        grid = fpe.build_grid(spec, 6.0, 101, 1.0)
        assert fpe.spectral_gap(grid) == pytest.approx(0.5, rel=0.02)

    def test_two_dimensional_decay_conserves_mass_and_relaxes(self):
        act = activations.sigmoid(1.0)
        data = Dataset(np.ones((1, 2)), np.array([0.0]))
        spec = LossSpec(Net(np.zeros(1), np.zeros((1, 2)), act), data, 0.5)
        grid = fpe.build_grid(spec, 6.0, 61, 1.0)
        fit = fpe.decay_rate(grid, t_max=8.0, dt=0.02)
        assert np.all(np.abs(fit.mass_series - 1.0) <= 1e-10)
        # even-symmetric start: slowest excited mode relaxes at 2 * lam
        assert fit.rate == pytest.approx(1.0, rel=0.06)

    def test_size_guard(self):
        grid = ou_grid(m=401)
        big = fpe.FpeGrid(dim=2, half_width=6.0, m=250, h=0.05, s=1.0,
                          potential=np.zeros(62500), rho=np.full(62500, 1.0))
        with pytest.raises(ValueError):
            fpe.spectral_gap(big)
        assert fpe.spectral_gap(grid) > 0


class TestSymmetricForm:
    """The banded symmetric form H against the rho-form oracles."""

    @pytest.mark.parametrize("dim, m", [(1, 101), (2, 21)])
    def test_symmetrized_generator_is_the_similarity_transform(self, dim, m):
        grid = sigmoid_grid(dim, m)
        h_mat = fpe.symmetrized_generator(grid)
        assert (h_mat != h_mat.T).nnz == 0
        ref = oracles.symmetrized_dense(grid)
        np.testing.assert_allclose(h_mat.toarray(), ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("dim, m", [(1, 201), (2, 41)])
    def test_decay_series_match_the_rho_form(self, dim, m):
        grid = sigmoid_grid(dim, m)
        fit = fpe.decay_rate(grid, t_max=4.0, dt=0.02)
        chi2, mass = oracles.decay_series_rho(grid, t_max=4.0, dt=0.02)
        np.testing.assert_allclose(fit.chi2_series, chi2, rtol=1e-10)
        np.testing.assert_allclose(fit.mass_series, mass, rtol=1e-10)

    @pytest.mark.parametrize("dim, m", [(1, 101), (2, 21)])
    def test_gap_matches_dense_eigenvalues(self, dim, m):
        grid = sigmoid_grid(dim, m)
        vals = np.linalg.eigvalsh(oracles.symmetrized_dense(grid))
        assert fpe.spectral_gap(grid) == pytest.approx(-vals[-2], rel=1e-9)


class TestHalfWidthRule:
    def test_quadratic_tail_mass(self):
        lam, s = 0.5, 1.0
        spec = ridge_only_spec(lam)
        r = fpe.suggest_half_width(spec, s, tail=1e-8)
        sigma = math.sqrt(s / (2 * lam))
        assert 2.0 * norm.sf(r / sigma) < 1e-8

    def test_boundary_density_negligible(self):
        spec = sigmoid_1d_spec()
        s = 0.5
        r = fpe.suggest_half_width(spec, s)
        mu = fpe.gibbs(fpe.build_grid(spec, r, 401, s))
        assert mu.values[0] < 1e-8 * mu.values.max()
        assert mu.values[-1] < 1e-8 * mu.values.max()

    def test_requires_coercive_ridge(self):
        with pytest.raises(ValueError):
            fpe.suggest_half_width(ridge_only_spec(0.0), 1.0)
