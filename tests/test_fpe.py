import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.blas import dsbmv
from scipy.stats import norm

import oracles
import villanets
from villanets import activations, datasets, dynamics, fpe, model, rules
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


def mixing_spec():
    """The 2-D spec of the benchmark's fpe_mixing workload at seed 0, whose
    data seed is SeedSequence([0, *b"fpe_mixing"]).generate_state(1)[0]."""
    data = datasets.gen_sine(d=2, n=16, noise_sd=0.1, seed=2971682510)
    net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 2)), activations.sigmoid(1.0))
    return LossSpec(net, data, 1.5 * model.lambda_c(net, data))


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

    @pytest.mark.parametrize("dim, m", [(2, 201), (1, 40_001)])
    def test_refuses_more_nodes_than_the_operator_size(self, dim, m):
        with pytest.raises(ValueError, match=f"operator size {m**dim} exceeds 40000"):
            fpe.build_grid(ridge_only_spec(0.5, dim=dim), 4.0, m, 1.0)

    def test_checks_the_operator_size_before_tabulating(self, monkeypatch):
        def no_tabulation(*args):
            raise AssertionError("tabulated the potential before checking the operator size")

        monkeypatch.setattr(fpe, "MAX_OPERATOR_SIZE", 100)
        monkeypatch.setattr(fpe, "tabulate_potential", no_tabulation)
        with pytest.raises(ValueError, match="operator size 121 exceeds 100"):
            fpe.build_grid(two_dim_spec(), 4.0, 11, 1.0)

    @pytest.mark.parametrize("half_width, m, message", [
        (0.0, 51, "half_width must be positive and finite"),
        (math.inf, 51, "half_width must be positive and finite"),
        (math.nan, 51, "half_width must be positive and finite"),
        (4.0, 7, "m must be at least 8, not 7"),
    ])
    def test_refuses_a_box_it_cannot_grid(self, half_width, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fpe.build_grid(ridge_only_spec(0.5), half_width, m, 1.0)

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

    @pytest.mark.parametrize("dim, m", [(1, 51), (2, 12)])
    def test_the_factor_is_written_over_the_band(self, monkeypatch, dim, m):
        # a factor holds one band: LAPACK factors the Fortran-ordered band in
        # place, to the bits of the factor of a copy shifted out of place
        band = fpe._symmetric_band(sigmoid_grid(dim, m))
        assert band.flags.f_contiguous
        shifted = -0.1 * band
        shifted[-1] += 1.0
        want = cholesky_banded(shifted)
        factors, real = [], fpe.linalg.cholesky_banded

        def spy(*args, **kwargs):
            factors.append(real(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(fpe.linalg, "cholesky_banded", spy)
        solve = fpe._band_solver(band, 1.0, 0.1)
        (factor,) = factors
        assert np.shares_memory(factor, band)
        np.testing.assert_array_equal(factor, want)
        x = np.random.default_rng(2).standard_normal(band.shape[1])
        np.testing.assert_array_equal(solve(x), cho_solve_banded((want, False), x))


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

    # inf, NaN and an overflowing ratio; 5 / 10, 1.4 and a horizon of one
    # step round to 1 step, and a negative horizon or step, or an infinite
    # step, to none.  The message is the horizon rule's, at least 2 steps
    @pytest.mark.parametrize("t_max, dt", [
        (math.inf, 0.02), (math.nan, 0.02), (1.0, math.nan), (math.inf, math.inf),
        (1e300, 1e-300), (5.0, 10.0), (1.4, 1.0), (1.0, 0.0), (-2.0, 0.5), (-2.0, -0.5),
        (0.02, 0.02), (1.0, math.inf), (1.0, -0.0),
    ])
    def test_refuses_a_horizon_it_cannot_hold(self, t_max, dt):
        with pytest.raises(ValueError, match=re.escape(f"got t_max = {t_max}, dt = {dt}")) as got:
            fpe.decay_rate(ou_grid(m=51), t_max, dt)
        with pytest.raises(ValueError) as rule:
            rules.steps(t_max, dt, 2)
        assert str(got.value) == str(rule.value)

    def test_takes_the_rounded_count_of_steps(self, monkeypatch):
        # 1.5 rounds to 2 steps, one per half; 3 steps read steps 2-3 off
        # the tail, whose 2 points are too few to fit, so the fit takes all 4
        tail_steps, real = [], fpe._krylov_tail

        def spy(solve, q, root, steps, vol):
            tail_steps.append(steps)
            return real(solve, q, root, steps, vol)

        monkeypatch.setattr(fpe, "_krylov_tail", spy)
        grid = ou_grid(m=51)
        fit = fpe.decay_rate(grid, 1.5, 1.0)
        np.testing.assert_array_equal(fit.times, [0.0, 1.0, 2.0])
        fit = fpe.decay_rate(grid, 0.3, 0.1)
        np.testing.assert_array_equal(fit.times, np.arange(4) * 0.1)
        assert tail_steps == [1, 1]
        assert fit.early_converged and fit.rate > 0

    @pytest.mark.parametrize("n", [5, 6])
    def test_fits_the_second_half_of_the_steps_taken(self, n):
        # steps of 0.5; log chi falls by 1 a step up to step 3, then by 2:
        # only a window of steps (n + 1) // 2 = 3 to n reads the rate 4
        # with R^2 = 1
        times = np.arange(n + 1) * 0.5
        log_chi = -np.minimum(np.arange(n + 1), 3) - 2 * np.maximum(np.arange(n + 1) - 3, 0)
        fit = fpe._fit_decay(times, np.exp(2 * log_chi), np.ones(n + 1))
        assert fit.rate == pytest.approx(4.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, rel=1e-12)
        assert not fit.early_converged


@pytest.fixture
def tails(monkeypatch):
    """The solves of each ``fpe._krylov_tail`` call."""
    runs, real = [], fpe._krylov_tail

    def spy(solve, *args):
        count = []

        def counted(v):
            count.append(1)
            return solve(v)

        tail = real(counted, *args)
        runs.append(len(count))
        return tail

    monkeypatch.setattr(fpe, "_krylov_tail", spy)
    return runs


class TestKrylovTail:
    """decay_rate's Lanczos tail against the loop that steps the whole horizon.

    decay_rate steps q through the first half, where q - sqrt(mu) cancels:
    each step leaves an error of a few eps in q, whose norm is ~1 in h^dim
    units, so chi there is good to ~1e-14 absolute.  The tail and the loop
    (:func:`oracles.decay_fit_loop`) both read the deviation from sqrt(mu)
    directly, so the comparison is chi within 1e-10 relative or 1e-13
    absolute, and the rate within 1e-10.  Over boxes one to three ulp
    either side of each grid's half-width, the rates agree to 1.2e-12.
    """

    @pytest.mark.parametrize("grid, t_max", [
        (lambda: sigmoid_grid(1, 201), 4.0),
        (lambda: sigmoid_grid(2, 41), 4.0),
        (lambda: sigmoid_grid(2, 41), 20.0),
        # criterion 08c's grid: chi falls from 2.4e5 to 8e-7
        (lambda: fpe.build_grid(sigmoid_1d_spec(1.5), fpe.suggest_half_width(
            sigmoid_1d_spec(1.5), 0.2), 501, 0.2), 60.0),
    ], ids=["1d-m201", "2d-m41", "2d-m41-t20", "08c"])
    def test_the_tail_is_the_loop(self, tails, grid, t_max):
        grid = grid()
        fit = fpe.decay_rate(grid, t_max, 0.02)
        ref = oracles.decay_fit_loop(grid, t_max, 0.02)
        (solves,) = tails
        assert solves < round(t_max / 0.02) / 2
        np.testing.assert_allclose(np.sqrt(fit.chi2_series), np.sqrt(ref.chi2_series),
                                   rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(fit.mass_series, ref.mass_series, rtol=0, atol=1e-12)
        assert fit.rate == pytest.approx(ref.rate, rel=1e-10)
        assert fit.r_squared == pytest.approx(ref.r_squared, rel=1e-10)
        assert (fit.early_converged, fit.settled) == (ref.early_converged, ref.settled)

    @pytest.mark.parametrize("t_max, rtol", [(0.2, None), (4.0, -1.0)],
                             ids=["short-horizon", "run-not-settled"])
    def test_a_basis_longer_than_the_window_is_exact(self, tails, monkeypatch, t_max, rtol):
        # 5 steps left are fewer than one block; at a tolerance that no
        # change meets, the run stops at the first block past 100 steps.
        # A basis of k vectors holds the first k steps exactly
        if rtol is not None:
            monkeypatch.setattr(fpe, "KRYLOV_RTOL", rtol)
        grid = sigmoid_grid(2, 41)
        fit = fpe.decay_rate(grid, t_max, 0.02)
        ref = oracles.decay_fit_loop(grid, t_max, 0.02)
        steps = round(t_max / 0.02) // 2
        (solves,) = tails
        assert steps < solves <= steps + fpe.KRYLOV_BLOCK
        np.testing.assert_allclose(np.sqrt(fit.chi2_series), np.sqrt(ref.chi2_series),
                                   rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(fit.mass_series, ref.mass_series, rtol=0, atol=1e-12)
        assert fit.rate == pytest.approx(ref.rate, rel=1e-10)
        assert fit.r_squared == pytest.approx(ref.r_squared, rel=1e-10)

    def test_a_stationary_start_is_read_without_a_solve(self):
        # q = 2 sqrt(mu) leaves d = 0 exactly: no run, chi^2 = 0, constant mass
        grid = sigmoid_grid(2, 41)
        root = np.sqrt(fpe.gibbs(grid).values)

        def solve(v):
            raise AssertionError("a stationary start needs no solve")

        chi2, mass = fpe._krylov_tail(solve, 2.0 * root, root, 50, grid.cell_volume)
        np.testing.assert_array_equal(chi2, np.zeros(51))
        np.testing.assert_array_equal(mass, np.full(51, 2.0 * (root @ root) * grid.cell_volume))
        assert mass[0] == pytest.approx(2.0, rel=1e-12)

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
        assert tails[-1] < 600
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

    def test_small_noise_gap_tends_to_the_hessian_minimum(self):
        # with one nondegenerate minimizer W*, the gap tends to
        # lambda_min(hess U(W*)) as s -> 0.  Criterion 08c's spec at m = 2001:
        # lambda_min 0.26451, and 1 - gap / lambda_min reads 0.0414 at s = 0.1
        # and 0.0087 at s = 0.02, about 0.41-0.44 s
        spec = sigmoid_1d_spec(1.5)
        w_star = oracles.gd_descend(spec, np.zeros((1, 1)))
        lam_min = np.linalg.eigvalsh(oracles.fd_hessian(spec, w_star))[0]
        errors = []
        for s in (0.1, 0.02):
            grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 2001, s)
            errors.append(abs(fpe.spectral_gap(grid) / lam_min - 1.0))
            assert errors[-1] <= 0.5 * s
        assert errors[1] < errors[0]

    def test_small_noise_gap_error_in_two_dimensions_shrinks_like_h_squared(self):
        # fpe_mixing's seed-0 spec: lambda_min 0.190065.  At s = 0.01 the
        # box scales with the Gibbs width, so 1 - gap / lambda_min levels off
        # at the grid error: 0.01791, 0.00717 and 0.00332 at m = 51, 81 and
        # 121, which shrinks by 0.401 and 0.185 against h^2 ratios of 0.391
        # and 0.174
        spec, s = mixing_spec(), 0.01
        w_star = oracles.gd_descend(spec, np.zeros((1, 2)))
        lam_min = np.linalg.eigvalsh(oracles.fd_hessian(spec, w_star))[0]
        r = fpe.suggest_half_width(spec, s)
        errors = {m: 1.0 - fpe.spectral_gap(fpe.build_grid(spec, r, m, s)) / lam_min
                  for m in (51, 81, 121)}
        for m in (81, 121):
            h2_ratio = ((51 - 1) / (m - 1)) ** 2
            assert errors[m] / errors[51] == pytest.approx(h2_ratio, rel=0.5)

    @pytest.mark.parametrize("s", [0.02, 0.3])
    def test_a_fine_grid_gap_takes_few_vectors(self, monkeypatch, s):
        # the shift is the box's free-diffusion rate, free of h: criterion
        # 08c's spec at m = 40,000 takes 16 (s = 0.02) and 24 (s = 0.3)
        # vectors, where a shift of 1e-4 max |diag H|, which grows like
        # 1 / h^2, took 224 and 304
        sizes = []
        lanczos = fpe._lanczos

        def spy(solve, v):
            for item in lanczos(solve, v):
                sizes.append(len(item[2]))
                yield item

        monkeypatch.setattr(fpe, "_lanczos", spy)
        spec = sigmoid_1d_spec(1.5)
        grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 40_000, s)
        gap = fpe.spectral_gap(grid)
        assert sizes[-1] <= 24
        assert gap == pytest.approx(oracles.gap_mode_1d(grid)[0], rel=1e-8)

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


@pytest.mark.parametrize("dt, log_every", [(0.01, 25), (0.2, 1)], ids=["dt-0.01", "dt-s"])
def test_sde_ensemble_relaxes_at_the_gap(dt, log_every):
    # the paper's rate: for a reversible diffusion, E[psi_1(W_t)] =
    # exp(-gap t) psi_1(w_0) with psi_1 = v_1 / sqrt(mu), no other mode
    # mixed in, so the ensemble mean of psi_1 over run_sde paths decays at
    # the gap.  Criterion 08c's spec and grid; 4,000 paths from w_0 = 2.5.
    # At dt = s, the theorem's SGD, Euler-Maruyama contracts the mode by
    # 1 - dt * gap a step on a quadratic well: a rate of -log(1 - dt * gap) / dt
    # = 1.0252 gap.  At dt = 0.01 that bias is 0.12% and the test reads the gap
    spec, s = sigmoid_1d_spec(1.5), 0.2
    grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 501, s)
    gap, v1 = oracles.gap_mode_1d(grid)
    axis, psi = grid.axis(), v1 / np.sqrt(fpe.gibbs(grid).values)
    paths = dynamics.run_sde_paths(spec, s, dt, 12.0, range(4000),
                                   init=InitSpec("explicit", w0=np.array([[2.5]])),
                                   log_every=log_every,
                                   eval_fn=lambda w: np.interp(w[:, 0, 0], axis, psi))
    # over ten disjoint sets of 4,000 seeds rate / gap read 0.997 +- 0.013
    # (mean +- sd) at dt = 0.01; this set reads 0.996.  At dt = s five
    # disjoint sets read 0.984-1.001 of the prediction, and this set 0.989
    rate = _ensemble_rate(paths[0].times, np.stack([path.eval_values[:, 0] for path in paths]))
    expected = gap if dt < s else -math.log(1.0 - dt * gap) / dt
    assert abs(rate / expected - 1.0) <= 0.03


@pytest.mark.parametrize("dt, log_every", [(0.01, 25), (0.3, 1)], ids=["dt-0.01", "dt-s"])
def test_sde_ensemble_relaxes_at_the_gap_in_two_dimensions(dt, log_every):
    # the same law in 2-D, on the benchmark's fpe_mixing seed-0 spec (p = 1,
    # d = 2, lam = 1.5 lambda_c) at s = 0.3: 3,000 paths from the node where
    # |psi_1| is largest among those with Gibbs density at least 1e-3 of its
    # peak.  psi_1 is interpolated bilinearly at the recorded weights, all at
    # once.  At dt = 0.01, over ten disjoint sets of 3,000 seeds rate / gap
    # read 1.004 +- 0.006 (mean +- sd), 0.993-1.014; this set reads 1.002, so
    # the 3% tolerance is five Monte Carlo sd.  At dt = s, logging every step,
    # the rate is compared with the Euler-Maruyama prediction
    # -log(1 - dt * gap) / dt = 1.029 gap: over ten disjoint sets of 3,000
    # seeds rate / prediction read 1.004 +- 0.009, 0.991-1.019, and this set
    # 0.998, so the tolerance is three Monte Carlo sd
    spec, s = mixing_spec(), 0.3
    grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 101, s)
    gap, v1 = oracles.gap_mode(grid)
    mu = fpe.gibbs(grid).values
    psi = v1 / np.sqrt(mu)
    start = np.argmax(np.abs(psi) * (mu >= 1e-3 * mu.max()))
    axis = grid.axis()
    w0 = axis[list(np.unravel_index(start, (grid.m, grid.m)))]
    paths = dynamics.run_sde_paths(spec, s, dt, 10.0, range(3000),
                                   init=InitSpec("explicit", w0=w0[None, :]),
                                   log_every=log_every, eval_fn=np.copy)
    weights = np.stack([path.eval_values for path in paths])    # (paths, log points, 1, 2)
    psi_at = RegularGridInterpolator((axis, axis), psi.reshape(grid.m, grid.m))
    values = psi_at(weights.reshape(-1, 2)).reshape(weights.shape[:2])
    assert values[0, 0] == pytest.approx(psi[start], rel=1e-12)
    expected = gap if dt < s else -math.log(1.0 - dt * gap) / dt
    assert abs(_ensemble_rate(paths[0].times, values) / expected - 1.0) <= 0.03


def _ensemble_rate(times: np.ndarray, values: np.ndarray) -> float:
    """The decay rate of the mean over paths (rows) of ``values``: log mean
    = -rate * t through the exact value 1 at t = 0, fitted on t >= 1 where
    the mean stands above 4 standard errors, each point weighted by its
    squared signal-to-noise ratio."""
    mean = values.mean(axis=0) / values[0, 0]
    stderr = values.std(axis=0, ddof=1) / math.sqrt(len(values)) / abs(values[0, 0])
    fit = (times >= 1.0) & (mean > 4 * stderr)
    t, y, weight = times[fit], np.log(mean[fit]), (mean[fit] / stderr[fit]) ** 2
    assert fit.sum() >= 30
    return float(-np.sum(weight * t * y) / np.sum(weight * t * t))


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

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_requires_positive_finite_noise(self, s):
        with pytest.raises(ValueError, match="^s must be positive and finite$"):
            fpe.suggest_half_width(ridge_only_spec(0.5), s)

    def test_quantile_of_a_centered_well(self):
        # the minimizer is 0, so the half-width is sigma * (quantile + 1)
        lam, s = 0.5, 1.0
        r = fpe.suggest_half_width(ridge_only_spec(lam), s)
        quantile = norm.isf(fpe.HALF_WIDTH_TAIL / 2.0)
        assert r == pytest.approx(math.sqrt(s / (2 * lam)) * (quantile + 1.0), rel=1e-14)


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that finds this villanets; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(villanets.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_scipy():
    # fpe imports each scipy module, and statistics, the first time a
    # function needs it, and the harness the process pool only for a sweep
    # on more than one job, so commands that need neither pay for numpy only
    packages = ("scipy", "statistics", "multiprocessing", "concurrent")
    for module in ("villanets", "villanets.cli"):
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
