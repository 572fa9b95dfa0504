import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.blas import dsbmv
from scipy.stats import norm

import oracles
import villanets
from villanets import activations, dynamics, fpe, model
from villanets.dynamics import InitSpec
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
        z_grid = math.exp(fpe.gibbs(grid).log_z)
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
        # a negative, NaN or inf entry, or an all-zero array, is no density
        for init in (-np.ones(101), np.r_[np.ones(100), math.nan],
                     np.r_[np.ones(100), math.inf], np.zeros(101)):
            with pytest.raises(ValueError, match="init density"):
                fpe.build_grid(ridge_only_spec(0.5), 4.0, 101, 1.0, init=init)
        with pytest.raises(ValueError, match="init density must have 101 entries"):
            fpe.build_grid(ridge_only_spec(0.5), 4.0, 101, 1.0, init=np.ones(100))

    def test_refuses_a_box_where_the_loss_is_not_finite(self):
        # at lam = 0, w . w overflows to inf and 0 * inf is NaN; the check
        # reports it, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite on the box of half-width 1e"):
                fpe.build_grid(ridge_only_spec(0.0), 1e200, 101, 1.0)

    def test_gibbs_measure_refuses_a_zero(self):
        with pytest.raises(ValueError, match="strictly positive"):
            fpe.GibbsMeasure(values=np.array([0.5, 0.0, 0.5]), log_z=0.0)

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
        assert math.exp(mu.log_z) == 0.0
        assert math.isfinite(mu.log_z) and mu.log_z == pytest.approx(-801.7, abs=0.05)

    def test_unknown_init_name_raises(self):
        # init is None (uniform) or an array, so a name, "uniform" too, is no density
        for init in ("gibbs", "ones", "uniform"):
            with pytest.raises(ValueError, match="could not convert string to float"):
                fpe.build_grid(ridge_only_spec(0.5), 4.0, 101, 1.0, init=init)


class TestBernoulli:
    def test_zero_and_small_arguments(self):
        assert fpe._bernoulli(0.0) == 1.0
        for w in (1e-9, -1e-9):
            expected = 1.0 - w / 2.0
            assert abs(fpe._bernoulli(w) - expected) <= np.spacing(expected)

    def test_tails_are_exact(self):
        np.testing.assert_array_equal(fpe._bernoulli(np.array([710.0, 1e3, 1e300])), 0.0)
        neg = np.array([-746.0, -1e3, -1e300])
        np.testing.assert_array_equal(fpe._bernoulli(neg), -neg)

    def test_reflection_identity(self):
        # B(-w) = B(w) e^w, from w e^w / (e^w - 1)
        w = np.r_[np.linspace(-30.0, 30.0, 600), np.logspace(-7.0, 2.5, 50)]
        np.testing.assert_allclose(fpe._bernoulli(-w), fpe._bernoulli(w) * np.exp(w),
                                   rtol=1e-15, atol=0)

    def test_no_floating_point_warning(self):
        w = np.array([0.0, 1e-300, -1e-300, 800.0, -800.0, 1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(fpe._bernoulli(w)))


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
        # the upper-band storage that the solvers factor is the same H
        band = fpe._symmetric_band(grid)
        kd = band.shape[0] - 1
        assert np.max(np.abs(dsbmv(kd, 1.0, band, root))) <= 1e-13 * scale * np.max(root)
        x = np.random.default_rng(1).standard_normal(grid.size)
        np.testing.assert_allclose(dsbmv(kd, 1.0, band, x), h_mat @ x,
                                   rtol=0, atol=1e-13 * scale)


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
        base = fpe.build_grid(ridge_only_spec(0.5), 6.0, 201, 1.0)
        grid = fpe.build_grid(ridge_only_spec(0.5), 6.0, 201, 1.0, init=fpe.gibbs(base).values)
        fit = fpe.decay_rate(grid, t_max=2.0, dt=0.01)
        assert fit.early_converged
        # no point above the floor to fit, so no rate and no settled fit
        assert fit.rate == math.inf and not fit.settled

    def test_refinement_consistency(self):
        rates = [fpe.decay_rate(ou_grid(m=m), t_max=10.0, dt=0.01).rate
                 for m in (101, 201, 401)]
        change1 = abs(rates[1] - rates[0])
        change2 = abs(rates[2] - rates[1])
        assert change2 < 5 * max(change1, 1e-12)


@pytest.fixture
def tails(monkeypatch):
    """(served, solves) of each ``fpe._krylov_tail`` call: whether it
    returned the window's series, and how many steps it solved."""
    runs, real = [], fpe._krylov_tail

    def spy(solve, *args):
        count = []

        def counted(v):
            count.append(1)
            return solve(v)

        tail = real(counted, *args)
        runs.append((tail is not None, len(count)))
        return tail

    monkeypatch.setattr(fpe, "_krylov_tail", spy)
    return runs


class TestKrylovTail:
    """decay_rate's Lanczos tail against the loop that steps the whole horizon.

    The loop's q - sqrt(mu) cancels: each step leaves an error of a few eps
    in q, whose norm is ~1 in h^dim units, so the loop's chi is good to
    ~1e-14 absolute (a late chi of 1e-6 to ~1e-8 relative).  The tail reads
    the deviation from sqrt(mu) directly, so the comparison is chi within
    1e-10 relative or 1e-13 absolute, and the rate within 1e-10, or 1e-9
    where the whole window lies below chi ~ 1e-4.
    """

    @pytest.mark.parametrize("grid, t_max, rate_rtol", [
        (lambda: sigmoid_grid(1, 201), 4.0, 1e-10),
        (lambda: sigmoid_grid(2, 41), 4.0, 1e-10),
        (lambda: sigmoid_grid(2, 41), 20.0, 1e-10),
        # criterion 08c's grid: chi falls from 2.4e5 to 8e-7, late chi^2
        # differ by up to 1.8e-8 relative and the rates by 7.5e-10; stepping
        # the deviation d instead of q agrees with the tail's rate to 3e-14
        (lambda: fpe.build_grid(sigmoid_1d_spec(1.5), fpe.suggest_half_width(
            sigmoid_1d_spec(1.5), 0.2), 501, 0.2), 60.0, 1e-9),
    ], ids=["1d-m201", "2d-m41", "2d-m41-t20", "08c"])
    def test_the_tail_is_the_loop(self, tails, grid, t_max, rate_rtol):
        grid = grid()
        fit = fpe.decay_rate(grid, t_max, 0.02)
        ref = oracles.decay_fit_loop(grid, t_max, 0.02)
        ((served, solves),) = tails
        assert served and solves < round(t_max / 0.02) / 2
        np.testing.assert_allclose(np.sqrt(fit.chi2_series), np.sqrt(ref.chi2_series),
                                   rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(fit.mass_series, ref.mass_series, rtol=0, atol=1e-12)
        assert fit.rate == pytest.approx(ref.rate, rel=rate_rtol)
        assert fit.r_squared == pytest.approx(ref.r_squared, rel=1e-10)
        assert (fit.early_converged, fit.settled) == (ref.early_converged, ref.settled)

    @pytest.mark.parametrize("t_max, rtol", [(0.2, None), (4.0, -1.0)],
                             ids=["short-horizon", "run-not-settled"])
    def test_a_tail_that_does_not_pay_leaves_the_loop_bit_for_bit(self, tails, monkeypatch,
                                                                 t_max, rtol):
        # 5 steps left are fewer than two blocks; at a tolerance that no
        # change meets, the run is dropped before it needs 100 solves
        if rtol is not None:
            monkeypatch.setattr(fpe, "KRYLOV_RTOL", rtol)
        grid = sigmoid_grid(2, 41)
        fit = fpe.decay_rate(grid, t_max, 0.02)
        ref = oracles.decay_fit_loop(grid, t_max, 0.02)
        assert tails == [(False, 0 if rtol is None else 96)]
        for got, want in ((fit.chi2_series, ref.chi2_series), (fit.mass_series, ref.mass_series)):
            np.testing.assert_array_equal(got, want)
        assert (fit.rate, fit.r_squared) == (ref.rate, ref.r_squared)

    def test_reruns_are_bit_identical_and_chi_falls(self):
        grid = sigmoid_grid(2, 41)
        fits = [fpe.decay_rate(grid, 20.0, 0.02) for _ in range(2)]
        for name in ("times", "chi2_series", "mass_series"):
            np.testing.assert_array_equal(getattr(fits[0], name), getattr(fits[1], name))
        assert fits[0].rate == fits[1].rate
        assert np.all(np.diff(fits[0].chi2_series) < 0)

    def test_underflow_in_the_tail_warns_nothing(self, tails):
        # at t_max = 60 chi starts the window at ~1.6e-12 and ends far below
        # CHI_FLOOR, and the fast Ritz values' powers underflow to zero:
        # numpy's default leaves that silent, and the suite makes any
        # RuntimeWarning an error
        grid = ou_grid(m=201)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            fpe.decay_rate(grid, 60.0, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fpe.decay_rate(grid, 60.0, 0.05)
        assert tails[-1][0]
        assert np.sqrt(fit.chi2_series[-1]) < 1e-6 * fpe.CHI_FLOOR
        assert np.all(np.diff(fit.chi2_series) < 0)
        assert fit.rate == pytest.approx(1.0, rel=0.05)


def test_settled_compares_the_half_windows():
    # criterion 08c's grid: the halves read 0.24335 and 0.24333
    spec = sigmoid_1d_spec(1.5)
    grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, 0.2), 501, 0.2)
    assert fpe.decay_rate(grid, 60.0, 0.02).settled
    # the halves read 0.729 and 0.535 (rate 0.609) against a gap of 0.490;
    # tests/test_cli.py checks both ends on a 1-D spec through the CLI
    assert not fpe.decay_rate(sigmoid_grid(2, 41), 20.0, 0.02).settled


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

    @pytest.mark.parametrize("dim, m", [(1, 201), (2, 41)])
    def test_reruns_are_bit_identical(self, dim, m):
        grid = sigmoid_grid(dim, m)
        gaps = [fpe.spectral_gap(grid) for _ in range(3)]
        assert gaps[0] == gaps[1] == gaps[2]

    def test_an_uncertified_gap_is_a_runtime_error(self, monkeypatch):
        # no Ritz residual meets a negative tolerance, not even the zero one
        # of a basis that spans the grid
        monkeypatch.setattr(fpe, "KRYLOV_RTOL", -1.0)
        with pytest.raises(RuntimeError, match="eigenvalue iteration did not converge"):
            fpe.spectral_gap(ou_grid(m=101))

    def test_size_guard(self):
        grid = ou_grid(m=401)
        big = fpe.FpeGrid(dim=2, half_width=6.0, m=250, h=0.05, s=1.0,
                          potential=np.zeros(62500), rho=np.full(62500, 1.0))
        with pytest.raises(ValueError):
            fpe.spectral_gap(big)
        assert fpe.spectral_gap(grid) > 0


def test_sde_ensemble_relaxes_at_the_gap():
    # the paper's rate: for a reversible diffusion, E[psi_1(W_t)] =
    # exp(-gap t) psi_1(w_0) with psi_1 = v_1 / sqrt(mu), no other mode
    # mixed in, so the ensemble mean of psi_1 over run_sde paths decays at
    # the gap.  Criterion 08c's spec and grid; 4,000 paths from w_0 = 2.5.
    spec, s = sigmoid_1d_spec(1.5), 0.2
    grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 501, s)
    gap, v1 = oracles.gap_mode_1d(grid)
    axis, psi = grid.axis(), v1 / np.sqrt(fpe.gibbs(grid).values)
    paths = dynamics.run_sde_paths(spec, s, 0.01, 12.0, range(4000),
                                   init=InitSpec("explicit", w0=np.array([[2.5]])),
                                   log_every=25, eval_fn=lambda w: np.interp(w[0, 0], axis, psi))
    values = np.stack([path.eval_values[:, 0] for path in paths])
    times = paths[0].times
    mean = values.mean(axis=0) / values[0, 0]
    stderr = values.std(axis=0, ddof=1) / math.sqrt(len(paths)) / abs(values[0, 0])
    fit = (times >= 1.0) & (mean > 4 * stderr)
    # log mean = -rate * t through the exact value 1 at t = 0, each point
    # weighted by its squared signal-to-noise ratio.  Over ten disjoint sets
    # of 4,000 seeds rate / gap read 0.997 +- 0.013 (mean +- sd); this set
    # reads 0.996
    t, y, weight = times[fit], np.log(mean[fit]), (mean[fit] / stderr[fit]) ** 2
    rate = -np.sum(weight * t * y) / np.sum(weight * t * t)
    assert fit.sum() >= 30
    assert abs(rate / gap - 1.0) <= 0.03


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

    # at m = 8, 9 and 16 in 1-D the run ends on a basis that spans the grid
    @pytest.mark.parametrize("dim, m", [(1, 8), (1, 9), (1, 16), (1, 101), (2, 8), (2, 21)])
    def test_gap_matches_dense_eigenvalues(self, dim, m):
        grid = sigmoid_grid(dim, m)
        vals = np.linalg.eigvalsh(oracles.symmetrized_dense(grid))
        assert fpe.spectral_gap(grid) == pytest.approx(-vals[-2], rel=1e-9)


class TestHalfWidthRule:
    def test_quadratic_tail_mass(self):
        lam, s = 0.5, 1.0
        spec = ridge_only_spec(lam)
        r = fpe.suggest_half_width(spec, s)
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


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that finds this villanets; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(villanets.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_scipy():
    # fpe imports each scipy module the first time a function needs it, and
    # the harness the process pool only for a sweep on more than one job, so
    # commands that need neither pay for numpy only
    for module in ("villanets", "villanets.cli"):
        for packages in (("scipy",), ("multiprocessing", "concurrent")):
            _run_fresh(f"import sys, {module}\n"
                       "loaded = sorted(m for m in sys.modules\n"
                       f"                if m.split('.')[0] in {packages!r})\n"
                       "assert not loaded, loaded")


def test_deferred_scipy_imports_resolve_in_a_fresh_process():
    # this module imports scipy itself, so only a process that imported
    # nothing but villanets checks every deferred attribute path; a second
    # process that imports the scipy modules first must print the same floats
    code = """
import json
import numpy as np
from villanets import activations, fpe, model
from villanets.model import Dataset, LossSpec, Net, normalized_outer

data = Dataset(np.array([[0.6], [1.0], [1.4]]), np.array([0.8, 0.5, 0.9]))
net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 1)), activations.sigmoid(1.0))
spec = LossSpec(net, data, 1.5 * model.lambda_c(net, data))
r = fpe.suggest_half_width(spec, 0.4)
grid = fpe.build_grid(spec, r, 41, 0.4)
print(json.dumps([r, fpe.decay_rate(grid, 2.0, 0.05).rate, fpe.spectral_gap(grid),
                  float(abs(fpe.generator(grid)).sum()),
                  float(abs(fpe.symmetrized_generator(grid)).sum())]))
"""
    eager = "import scipy.linalg, scipy.optimize, scipy.sparse.linalg, scipy.special\n"
    assert json.loads(_run_fresh(code)) == json.loads(_run_fresh(eager + code))
