import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
from villanets import activations, dynamics, fpe, model
from villanets.dynamics import DivergenceError, InitSpec, SgdConfig
from villanets.model import Dataset, LossSpec, Net, normalized_outer


def small_spec(kind="sigmoid", seed=0, p=2, d=2, n=8, lam_mult=1.5, beta=1.0):
    rng = np.random.default_rng(seed)
    act = activations.make(kind, beta)
    data = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, n))
    net = Net(normalized_outer(p, data.x_bound), np.zeros((p, d)), act)
    return LossSpec(net, data, lam_mult * model.lambda_c(net, data))


def ridge_only_spec(p, d, lam):
    """a = 0 turns the objective into a pure quadratic in W."""
    act = activations.make("sigmoid", 1.0)
    data = Dataset(np.ones((1, d)), np.array([0.0]))
    return LossSpec(Net(np.zeros(p), np.zeros((p, d)), act), data, lam)


class TestSgdStep:
    def test_zero_residual_batch_is_pure_shrinkage(self):
        rng = np.random.default_rng(3)
        spec = small_spec(seed=1)
        w = rng.standard_normal((2, 2))
        ys = model.predict(spec, spec.data.xs, w)
        spec_fit = LossSpec(Net(spec.net.a, w, spec.net.act),
                            Dataset(spec.data.xs, ys), spec.lam)
        out = dynamics.sgd_step(spec_fit, w, np.arange(8), s=0.05)
        np.testing.assert_allclose(out, (1 - 0.05 * spec.lam) * w, atol=1e-13)

    def test_zero_step_is_identity(self):
        spec = small_spec()
        w = np.full((2, 2), 0.7)
        np.testing.assert_array_equal(dynamics.sgd_step(spec, w, [0, 3], 0.0), w)

    def test_full_batch_equals_gradient_descent(self):
        rng = np.random.default_rng(7)
        for kind in ("sigmoid", "tanh", "softplus"):
            spec = oracles.random_spec(rng, activations.make(kind, 1.0))
            w = rng.standard_normal((spec.p, spec.d))
            s = 0.03
            stepped = dynamics.sgd_step(spec, w, np.arange(spec.n), s)
            np.testing.assert_allclose(stepped, w - s * model.grad(spec, w),
                                       atol=1e-12)

    @pytest.mark.parametrize("kind, beta", [("sigmoid", 1.0), ("tanh", 1.0), ("softplus", 2.5)])
    def test_step_is_the_update_formula_bit_for_bit(self, kind, beta):
        # the weights are read-only, so a write to them raises
        rng = np.random.default_rng(29)
        spec = oracles.random_spec(rng, activations.make(kind, beta))
        p, d, n = spec.p, spec.d, spec.n
        for w, batch in ((rng.standard_normal((p, d)), None),
                         (rng.standard_normal((p, d)), rng.integers(0, n, 3)),
                         (rng.standard_normal((4, p, d)), rng.integers(0, n, (4, 3)))):
            given = w.copy()
            w.setflags(write=False)
            want = oracles.sgd_step_reference(spec, w, batch, 0.03)
            for s in (0.03, np.array(0.03)):
                assert np.array_equal(dynamics.sgd_step(spec, w, batch, s), want)
            assert np.array_equal(w, given)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            dynamics.sgd_step(small_spec(), np.zeros((2, 2)), [], 0.1)

    def test_minibatch_is_unbiased(self):
        # average update over all b-tuples equals the full-batch update
        rng = np.random.default_rng(11)
        spec = oracles.random_spec(rng, activations.sigmoid(1.0),
                                   max_pdn=(3, 3, 5))
        w = rng.standard_normal((spec.p, spec.d))
        s = 0.05
        for b in range(1, min(spec.n, 3) + 1):
            total = np.zeros_like(w)
            count = 0
            for batch in itertools.product(range(spec.n), repeat=b):
                total += dynamics.sgd_step(spec, w, np.array(batch), s)
                count += 1
            np.testing.assert_allclose(
                total / count, dynamics.sgd_step(spec, w, np.arange(spec.n), s),
                atol=1e-12,
            )


class TestRunSgd:
    def test_full_batch_is_gradient_descent_and_draws_nothing(self):
        spec = small_spec(seed=2)
        cfg = SgdConfig(0.05, spec.n, 60, seed=9, init=InitSpec(tau=0.5), log_every=7)
        traj = dynamics.run_sgd(spec, cfg)
        rng = np.random.default_rng(cfg.seed)
        w = cfg.init.sample(rng, spec.p, spec.d, spec.lam, cfg.step_size)
        for _ in range(cfg.steps):
            w = w - cfg.step_size * model.grad(spec, w)
        np.testing.assert_array_equal(traj.final_w, w)
        # the generator has drawn the initial weights and nothing else
        assert traj.rng_state_digest == dynamics._digest(rng)

    def test_identical_seeds_bitwise_identical(self):
        spec = small_spec()
        cfg = SgdConfig(step_size=0.05, batch_size=4, steps=500, seed=42, log_every=50)
        t1 = dynamics.run_sgd(spec, cfg)
        t2 = dynamics.run_sgd(spec, cfg)
        np.testing.assert_array_equal(t1.losses, t2.losses)
        np.testing.assert_array_equal(t1.final_w, t2.final_w)
        assert t1.rng_state_digest == t2.rng_state_digest

    def test_different_seed_changes_run(self):
        spec = small_spec()
        cfg = SgdConfig(step_size=0.05, batch_size=4, steps=200, seed=1)
        other = SgdConfig(step_size=0.05, batch_size=4, steps=200, seed=2)
        assert (dynamics.run_sgd(spec, cfg).rng_state_digest
                != dynamics.run_sgd(spec, other).rng_state_digest)

    def test_full_batch_descent_under_smoothness_step(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            spec = oracles.random_spec(rng, activations.make(
                "sigmoid" if trial % 2 else "tanh", 1.0), lam_range=(0.01, 0.5))
            s = 1.0 / model.glip_bound(spec)
            cfg = SgdConfig(step_size=s, batch_size=spec.n, steps=200,
                            seed=trial, log_every=1)
            traj = dynamics.run_sgd(spec, cfg)
            assert np.all(np.diff(traj.losses) <= 1e-10)

    def test_weight_norm_a_priori_ball(self):
        # ||W_{k+1}|| <= (1 - s lam) ||W_k|| + s * drift for bounded activations
        spec = small_spec("tanh", seed=5)
        act = spec.net.act
        drift = (act.d1_sup * spec.data.x_bound * spec.net.a_norm
                 * (spec.data.y_bound
                    + spec.net.a_norm * act.sup_value * math.sqrt(spec.p)))
        rng = np.random.default_rng(23)
        s = 0.1
        assert s < 1.0 / spec.lam
        w = rng.standard_normal((spec.p, spec.d)) * 3.0
        for k in range(300):
            batch = rng.integers(0, spec.n, size=4)
            w_next = dynamics.sgd_step(spec, w, batch, s)
            bound = (1 - s * spec.lam) * np.linalg.norm(w) + s * drift
            assert np.linalg.norm(w_next) <= bound + 1e-12
            w = w_next

    def test_divergence_raises_with_last_state(self):
        spec = small_spec(lam_mult=80.0)  # s * lam >> 2: geometric blow-up
        cfg = SgdConfig(step_size=1.0, batch_size=4, steps=200, seed=0,
                        init=InitSpec("gaussian", tau=1.0), log_every=1)
        with pytest.raises(DivergenceError) as err:
            dynamics.run_sgd(spec, cfg)
        assert np.all(np.isfinite(err.value.last_w))
        assert err.value.step > 0

    def test_divergence_between_log_points_raises(self):
        # s * lam ~ 190: the weights overflow long before the only log point
        spec = small_spec()
        cfg = SgdConfig(step_size=1e3, batch_size=4, steps=1000, seed=0,
                        init=InitSpec("gaussian", tau=1.0), log_every=1000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                dynamics.run_sgd(spec, cfg)
        assert 0 < err.value.step < 1000
        assert np.all(np.isfinite(err.value.last_w))

    def test_weights_that_overflow_at_a_log_point_are_named(self):
        # s * lam = 1e305 takes w from 1e5 past the largest double at step 1,
        # a log point, where the loss is not finite either: the weights left first
        spec = small_spec(p=1, d=1)
        spec = LossSpec(spec.net, spec.data, 1.0)
        cfg = SgdConfig(step_size=1e305, batch_size=spec.n, steps=5, log_every=1,
                        init=InitSpec("explicit", w0=[[1e5]]))
        with pytest.raises(DivergenceError) as err:
            dynamics.run_sgd(spec, cfg)
        assert str(err.value) == "weights left the finite regime at step 1"
        assert err.value.step == 1
        np.testing.assert_array_equal(err.value.last_w, [[1e5]])

    def test_vector_eval_fn_logged_per_checkpoint(self):
        spec = small_spec()
        cfg = SgdConfig(step_size=0.05, batch_size=4, steps=100, seed=3, log_every=25)
        traj = dynamics.run_sgd(spec, cfg, eval_fn=lambda w: (1.0, 2.0))
        assert traj.eval_values.shape == (len(traj.steps), 2)

    def test_config_validation(self):
        spec = small_spec()
        # the config checks its own fields; the run checks the batch against the data
        with pytest.raises(ValueError, match=rf"batch_size must be in \[1, {spec.n}\]"):
            dynamics.run_sgd(spec, SgdConfig(step_size=0.1, batch_size=99, steps=10))
        for field, value in (("step_size", -0.1), ("step_size", math.nan), ("batch_size", 0),
                             ("steps", 0), ("log_every", 0)):
            with pytest.raises(ValueError, match=field):
                SgdConfig(**{"step_size": 0.1, "batch_size": 4, "steps": 10, field: value})

    @pytest.mark.parametrize("field, value, error, message", [
        ("step_size", True, TypeError, "step_size must be a number, not True"),
        ("step_size", "0.1", TypeError, "step_size must be a number, not '0.1'"),
        ("batch_size", 8.5, ValueError, "batch_size must be an integer, not 8.5"),
        ("steps", True, TypeError, "steps must be an integer, not True"),
        ("seed", 1.5, ValueError, "seed must be an integer, not 1.5"),
        ("log_every", "5", TypeError, "log_every must be an integer, not '5'"),
    ], ids=["step-bool", "step-string", "batch-fraction", "steps-bool", "seed-fraction",
            "log-string"])
    def test_config_fields_are_numbers_as_given(self, field, value, error, message):
        # as in a config file: refused in library code, not read as 1 or truncated
        with pytest.raises(error, match=message):
            SgdConfig(**{"step_size": 0.1, "batch_size": 4, "steps": 10, field: value})
        integral = SgdConfig(step_size=1, batch_size=4.0, steps=1e2)
        assert integral == SgdConfig(1.0, 4, 100)
        assert [type(integral.step_size), type(integral.batch_size)] == [float, int]


def sine_1d_spec():
    """1-D sigmoid spec: n = 16, x ~ U(-1, 1), y = sin 3x + 0.3 N(0, 1) (seed 5),
    lam = 1.5 lambda_c = 0.1875."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 16)
    data = Dataset(x[:, None], np.sin(3 * x) + 0.3 * rng.standard_normal(16))
    net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 1)), activations.sigmoid(1.0))
    return LossSpec(net, data, 1.5 * model.lambda_c(net, data))


def gibbs_moments(spec, s):
    """Mean and variance of the Gibbs law exp(-2 U / s) on a 1-D grid, m = 2001."""
    grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 2001, s)
    w, mass = grid.axis(), fpe.gibbs(grid).values * grid.h
    mean = np.sum(w * mass)
    return mean, np.sum((w - mean) ** 2 * mass)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_minibatch_sgd_samples_the_sme_law_not_the_gibbs_law(batch_size):
    # minibatch SGD follows the stochastic modified equation, noise covariance
    # eta Sigma(W) / b: near the minimizer w* its stationary variance is
    # eta Sigma(w*) / (2 b U''(w*)), far below the Gibbs variance at s = eta
    spec, eta = sine_1d_spec(), 0.05
    w_star = oracles.gd_descend(spec, np.zeros((1, 1)), grad_tol=1e-13, max_iter=100_000)
    sigma = oracles.per_sample_grads(spec, w_star).var(axis=0)[0]
    curvature = oracles.fd_hessian(spec, w_star)[0, 0]
    predicted = eta * sigma / (2 * batch_size * curvature)
    # 200 chains of 40,000 steps, sampled every 100 steps after step 10,000
    config = SgdConfig(eta, batch_size, 40_000, log_every=100)
    chains = dynamics.run_sgd_chains(spec, config, range(200), eval_fn=np.copy)
    samples = np.stack([chain.eval_values[chain.steps >= 10_000, 0, 0] for chain in chains])
    assert abs(samples.var() / predicted - 1) <= 0.1
    assert samples.var() < 0.05 * gibbs_moments(spec, eta)[1]


class TestInitSpec:
    def test_modes(self):
        rng = np.random.default_rng(0)
        assert np.all(InitSpec("zero").sample(rng, 2, 3, 0.1, 0.01) == 0.0)
        w0 = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(
            InitSpec("explicit", w0=w0).sample(rng, 2, 3, 0.1, 0.01), w0
        )
        with pytest.raises(ValueError):
            InitSpec("explicit")
        with pytest.raises(ValueError):
            InitSpec("gaussian", tau=-1.0)
        with pytest.raises(ValueError):
            InitSpec("explicit", w0=np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError, match="unknown init mode 'uniform'"):
            InitSpec("uniform")
        with pytest.raises(ValueError, match=r"w0 must have shape \(2, 3\)"):
            InitSpec("explicit", w0=[[1.0, 2.0]]).sample(rng, 2, 3, 0.1, 0.01)

    def test_tau_is_a_number_as_given(self):
        for tau in (True, "0.5"):
            with pytest.raises(TypeError, match=f"tau must be a number, not {tau!r}"):
                InitSpec(tau=tau)
        assert type(InitSpec(tau=1).tau) is float and InitSpec().tau is None

    @pytest.mark.parametrize("w0, message", [
        ([["0.5", 1.0]], "w0 entry must be a number, not '0.5'"),
        ([[0.5, True]], "w0 entry must be a number, not True"),
        (np.array([[True, False]]), "w0 entry must be a number, not True"),
        ([[0.5, None]], "w0 entry must be a number, not None"),
    ], ids=["string", "bool", "bool-array", "null"])
    def test_w0_entries_are_numbers_as_given(self, w0, message):
        # np.asarray(w0, dtype=float) would parse the string and read True as 1
        with pytest.raises(TypeError, match=message):
            InitSpec("explicit", w0=w0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"w0": [[1.0, 2.0]]}, "w0"),
        ({"mode": "zero", "w0": [[1.0, 2.0]]}, "w0"),
        ({"mode": "zero", "tau": 0.5}, "tau"),
        ({"mode": "explicit", "tau": 0.5, "w0": [[1.0, 2.0]]}, "tau"),
    ], ids=["w0-gaussian", "w0-zero", "tau-zero", "tau-explicit"])
    def test_refuses_a_setting_its_mode_never_reads(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} is read only in"):
            InitSpec(**kwargs)

    def test_default_scale_rule(self):
        draws = InitSpec().sample(np.random.default_rng(1), 40, 40, lam=0.25, s=1.0)
        # tau^2 = s / (4 lam) = 1
        assert abs(np.std(draws) - 1.0) < 0.05


class TestRunSde:
    def test_noiseless_limit_descends(self):
        rng = np.random.default_rng(31)
        spec = oracles.random_spec(rng, activations.sigmoid(1.0),
                                   lam_range=(0.05, 0.3))
        dt = 1.0 / model.glip_bound(spec)
        traj = dynamics.run_sde(spec, s=0.0, dt=dt, t_max=50 * dt, seed=0,
                                init=InitSpec("gaussian", tau=1.0))
        assert np.all(np.diff(traj.losses) <= 1e-10)

    def test_ou_stationary_variance(self):
        # a = 0, ridge lam: the diffusion is mean-reverting with stationary
        # per-coordinate variance s / (2 lam)
        lam, s, dt = 1.0, 0.5, 0.01
        spec = ridge_only_spec(4, 4, lam)
        traj = dynamics.run_sde(spec, s=s, dt=dt, t_max=782.0, seed=11,
                                init=InitSpec("gaussian", tau=math.sqrt(s / (2 * lam))),
                                log_every=1, eval_fn=np.copy)
        w = traj.eval_values
        samples = w[w.shape[0] // 5:].reshape(-1)
        assert samples.size >= 1_000_000
        assert abs(samples.var() / (s / (2 * lam)) - 1.0) <= 0.05

    def test_eval_fn_logs_one_row_per_log_point(self):
        # 103 steps at log_every 25: log points 0, 25, 50, 75, 100 and the last
        spec = small_spec()
        kwargs = dict(s=0.05, dt=0.01, t_max=1.03, seed=2,
                      init=InitSpec("gaussian", tau=1.0), log_every=25)
        traj = dynamics.run_sde(spec, **kwargs, eval_fn=np.copy)
        np.testing.assert_array_equal(traj.steps, [0, 25, 50, 75, 100, 103])
        assert traj.eval_values.shape == (6, spec.p, spec.d)
        np.testing.assert_array_equal(traj.eval_values[-1], traj.final_w)
        assert dynamics.run_sde(spec, **kwargs).eval_values is None

    def test_ou_mean_relaxation_error_halves_with_dt(self):
        # drift part of the integrator is first-order accurate
        lam = 1.0
        spec = ridge_only_spec(1, 1, lam)
        w0 = np.array([[2.0]])
        errs = []
        for dt in (0.05, 0.025):
            traj = dynamics.run_sde(spec, s=0.0, dt=dt, t_max=1.0, seed=0,
                                    init=InitSpec("explicit", w0=w0))
            errs.append(abs(traj.final_w[0, 0] - 2.0 * math.exp(-lam)))
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)

    def test_softplus_ensemble_gap_shrinks(self):
        act = activations.softplus(1.0)
        data = Dataset(np.array([[1.0], [0.5], [-0.8], [-0.3]]),
                       np.array([0.9, 0.6, 0.1, 0.4]))
        net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 1)), act)
        spec = LossSpec(net, data, 1.5 * model.lambda_c(net, data))
        w = np.zeros((1, 1))
        for _ in range(400):
            w = w - 0.1 * model.grad(spec, w)
        loss_star = model.loss(spec, w)
        s, dt, t_max = 0.05, 0.005, 1.0
        half, full = [], []
        for k in range(256):
            traj = dynamics.run_sde(spec, s=s, dt=dt, t_max=t_max, seed=k,
                                    init=InitSpec("explicit", w0=np.array([[2.5]])),
                                    log_every=int(round(t_max / 2 / dt)))
            half.append(traj.losses[1])
            full.append(traj.losses[2])
        gap_half = np.mean(half) - loss_star
        gap_full = np.mean(full) - loss_star
        assert gap_full > 0
        assert gap_half / gap_full >= 1.5

    def test_sde_at_dt_equal_to_s_samples_the_gibbs_law(self):
        # the theorem's SGD, W <- W - s grad + s G, is run_sde at dt = s; its
        # stationary law is the Gibbs law exp(-2 U / s)
        spec, s = sine_1d_spec(), 0.05
        mean, var = gibbs_moments(spec, s)
        # 200 paths of 40,000 steps, sampled every 100 steps after step 10,000
        paths = dynamics.run_sde_paths(spec, s, s, 40_000 * s, range(200), log_every=100,
                                       eval_fn=np.copy)
        samples = np.stack([path.eval_values[path.steps >= 10_000, 0, 0] for path in paths])
        # Monte Carlo error: the spread of the per-path averages, which are
        # independent however correlated the samples of one path are
        path_means = samples.mean(axis=1)
        path_vars = ((samples - samples.mean()) ** 2).mean(axis=1)

        def stderr(values):
            return values.std(ddof=1) / math.sqrt(len(values))

        # O(dt) slack: Euler-Maruyama in a quadratic well of curvature k has
        # stationary variance (s / 2k) / (1 - k dt / 2); allow twice that bias
        k = s / (2 * var)
        assert abs(path_vars.mean() - var) <= 4 * stderr(path_vars) + k * s * var
        assert abs(path_means.mean() - mean) <= 4 * stderr(path_means) + k * s * math.sqrt(var)

    def test_divergence_detection(self):
        spec = small_spec(lam_mult=200.0)
        with pytest.raises(DivergenceError):
            dynamics.run_sde(spec, s=0.0, dt=1.0, t_max=100.0, seed=0,
                             init=InitSpec("gaussian", tau=1.0))

    def test_divergence_between_log_points_raises(self):
        spec = small_spec()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                dynamics.run_sde(spec, s=0.01, dt=1e3, t_max=1e6, seed=0,
                                 init=InitSpec("gaussian", tau=1.0), log_every=1000)
        assert 0 < err.value.step < 1000
        assert np.all(np.isfinite(err.value.last_w))

    def test_parameter_validation(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            dynamics.run_sde(spec, s=-1.0, dt=0.1, t_max=1.0)
        with pytest.raises(ValueError):
            dynamics.run_sde(spec, s=0.1, dt=0.0, t_max=1.0)
        with pytest.raises(ValueError, match="log_every"):
            dynamics.run_sde(spec, s=0.1, dt=0.1, t_max=1.0, log_every=0)
        with pytest.raises(ValueError, match="log_every"):
            dynamics.run_sde_paths(spec, 0.1, 0.1, 1.0, seeds=[0, 1], log_every=-1)


def _outcome(entry):
    """Everything a run reports, as bytes and strings, for exact comparison."""
    if isinstance(entry, DivergenceError):
        return ("diverged", str(entry), entry.step, entry.last_w.tobytes())
    evals = None if entry.eval_values is None else entry.eval_values.tobytes()
    return (entry.final_w.tobytes(), entry.times.tobytes(), entry.steps.tobytes(),
            entry.losses.tobytes(), entry.grad_norms.tobytes(), evals,
            entry.rng_state_digest)


def _lone(run, *args, **kwargs):
    try:
        return _outcome(run(*args, **kwargs))
    except DivergenceError as err:
        return _outcome(err)


class TestBlockDraws:
    """The integrators draw each chain's randomness K steps at a time; that
    must consume the generator exactly as K per-step draws do."""

    @pytest.mark.parametrize("n, b", [(8, 3), (8, 4), (200, 7), (200, 32), (2**33, 5), (16, 1)])
    def test_integer_blocks_equal_per_step_draws(self, n, b):
        per_step, block = np.random.default_rng(5), np.random.default_rng(5)
        per_step.standard_normal((2, 3))  # an init draw comes first
        block.standard_normal((2, 3))
        steps = np.array([per_step.integers(0, n, size=b) for _ in range(37)])
        np.testing.assert_array_equal(block.integers(0, n, size=(37, b)), steps)
        assert block.bit_generator.state == per_step.bit_generator.state

    def test_normal_blocks_equal_per_step_draws(self):
        per_step, block = np.random.default_rng(6), np.random.default_rng(6)
        steps = np.array([per_step.standard_normal((3, 2)) for _ in range(23)])
        np.testing.assert_array_equal(block.standard_normal((23, 3, 2)), steps)
        assert block.bit_generator.state == per_step.bit_generator.state

    def test_run_sgd_equals_a_per_step_loop(self):
        # more steps than one block holds, so the run spans several blocks;
        # the loop passes the step size as a Python float, the run as a 0-d
        # array; beta != 1 takes the multiplies and divides by beta that
        # beta == 1 skips
        cfg = SgdConfig(step_size=0.05, batch_size=4, steps=dynamics.BLOCK_NUMBERS // 2 + 3,
                        seed=9, log_every=1000)
        for kind, beta in (("sigmoid", 1.0), ("tanh", 1.0), ("softplus", 2.0)):
            spec = small_spec(kind, beta=beta)
            traj = dynamics.run_sgd(spec, cfg)
            rng = np.random.default_rng(cfg.seed)
            w = cfg.init.sample(rng, spec.p, spec.d, spec.lam, cfg.step_size)
            for _ in range(cfg.steps):
                w = dynamics.sgd_step(spec, w, rng.integers(0, spec.n, size=4), cfg.step_size)
            np.testing.assert_array_equal(traj.final_w, w)
            assert traj.rng_state_digest == dynamics._digest(rng)

    def test_run_sde_equals_a_per_step_loop(self):
        # the run's 0-d dt and noise scale change no bit against Python floats
        spec = small_spec()
        s, dt = 0.05, 0.01
        steps = dynamics.BLOCK_NUMBERS // (spec.p * spec.d) + 3
        init = InitSpec("gaussian", tau=1.0)
        traj = dynamics.run_sde(spec, s, dt, steps * dt, seed=4, init=init, log_every=1000)
        assert traj.steps[-1] == steps
        rng = np.random.default_rng(4)
        w = init.sample(rng, spec.p, spec.d, spec.lam, s)
        for _ in range(steps):
            w = (w - dt * model.grad(spec, w)
                 + math.sqrt(s * dt) * rng.standard_normal((spec.p, spec.d)))
        np.testing.assert_array_equal(traj.final_w, w)
        assert traj.rng_state_digest == dynamics._digest(rng)


class TestEnsembles:
    """A stack of chains gives every seed exactly what a lone run gives."""

    @pytest.mark.parametrize("batch_size", [4, 8])  # minibatch and full batch (n = 8)
    def test_sgd_chains_equal_lone_runs(self, batch_size):
        spec = small_spec()
        cfg = SgdConfig(step_size=0.05, batch_size=batch_size, steps=700, seed=0,
                        init=InitSpec("gaussian", tau=1.0), log_every=90)
        seeds = [3, 1, 4, 1, 5]

        def eval_fn(w):
            return (float(np.sum(w)), model.loss(spec, w))

        stacked = dynamics.run_sgd_chains(spec, cfg, seeds, eval_fn=eval_fn)
        assert len(stacked) == len(seeds)
        for seed, entry in zip(seeds, stacked, strict=True):
            lone = _lone(dynamics.run_sgd, spec, dataclasses.replace(cfg, seed=seed), eval_fn)
            assert _outcome(entry) == lone

    @pytest.mark.parametrize("step_size, steps, log_every", [(12.0, 64, 1), (20.0, 800, 800)])
    def test_diverged_chains_leave_the_stack(self, step_size, steps, log_every):
        # s * lam = 2.25 or 3.75 > 2: the ridge term grows the weights
        # geometrically, so each chain's loss passes the limit (log_every=1)
        # or its weights overflow (log_every=800) at a step that depends on
        # its seed
        spec = small_spec()
        cfg = SgdConfig(step_size=step_size, batch_size=4, steps=steps, seed=0,
                        init=InitSpec("gaussian", tau=1.0), log_every=log_every)
        seeds = list(range(12))
        stacked = dynamics.run_sgd_chains(spec, cfg, seeds)
        diverged = [e for e in stacked if isinstance(e, DivergenceError)]
        assert diverged and len({e.step for e in diverged}) > 1
        if log_every == 1:
            assert len(diverged) < len(seeds)
        for seed, entry in zip(seeds, stacked, strict=True):
            assert _outcome(entry) == _lone(dynamics.run_sgd, spec,
                                            dataclasses.replace(cfg, seed=seed))

    def test_last_w_is_the_last_finite_row_of_the_update_formula(self):
        # s * lam ~ 190: every chain's weights overflow between log points
        spec = small_spec()
        cfg = SgdConfig(step_size=1e3, batch_size=4, steps=1000, seed=0,
                        init=InitSpec("gaussian", tau=1.0), log_every=1000)
        seeds = [0, 1, 2]
        for seed, entry in zip(seeds, dynamics.run_sgd_chains(spec, cfg, seeds), strict=True):
            assert isinstance(entry, DivergenceError) and 0 < entry.step < cfg.steps
            rng = np.random.default_rng(seed)
            w = cfg.init.sample(rng, spec.p, spec.d, spec.lam, cfg.step_size)
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(entry.step - 1):
                    w = oracles.sgd_step_reference(spec, w, rng.integers(0, spec.n, size=4),
                                                   cfg.step_size)
                last = oracles.sgd_step_reference(spec, w, rng.integers(0, spec.n, size=4),
                                                  cfg.step_size)
            assert np.isfinite(w).all() and not np.isfinite(last).all()
            assert np.array_equal(entry.last_w, w)

    @pytest.mark.parametrize("dt, t_max, log_every", [(0.01, 3.0, 40), (11.5, 1150.0, 5)])
    def test_sde_paths_equal_lone_runs(self, dt, t_max, log_every):
        # the second case diverges on some paths and not on others
        spec = small_spec()
        init = InitSpec("gaussian", tau=1.0)
        seeds = list(range(8))
        stacked = dynamics.run_sde_paths(spec, 0.01, dt, t_max, seeds, init=init,
                                         log_every=log_every, eval_fn=np.copy)
        if dt > 1:
            assert 0 < sum(isinstance(e, DivergenceError) for e in stacked) < len(seeds)
        for seed, entry in zip(seeds, stacked, strict=True):
            assert _outcome(entry) == _lone(dynamics.run_sde, spec, 0.01, dt, t_max, seed=seed,
                                    init=init, log_every=log_every, eval_fn=np.copy)

    def test_no_seeds_no_runs(self):
        cfg = SgdConfig(step_size=0.05, batch_size=4, steps=10)
        assert dynamics.run_sgd_chains(small_spec(), cfg, []) == []


class TestAllFinite:
    """The integrators' weight check: one dot product, then the elementwise
    check only when the sum of squares is not finite."""

    def test_finite_stacks_whose_sum_of_squares_overflows(self):
        w = np.full((3, 2, 2), 1e200)
        w[1] *= -1.0
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.vdot(w, w))
        assert dynamics._all_finite(w) is True
        assert dynamics._all_finite(np.zeros((3, 2, 2))) is True

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_entry_in_any_row(self, bad):
        rng = np.random.default_rng(2)
        for scale in (1.0, 1e200):                  # with and without overflow
            for row, j, k in itertools.product(range(3), range(2), range(3)):
                w = scale * rng.standard_normal((3, 2, 3))
                w[row, j, k] = bad
                with np.errstate(over="ignore", invalid="ignore"):
                    assert dynamics._all_finite(w) is False


def test_divergence_raises_without_overflow_warnings():
    spec = small_spec()
    init = InitSpec("gaussian", tau=1.0)
    cfg = SgdConfig(step_size=1e3, batch_size=4, steps=1000, seed=0, init=init,
                    log_every=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            dynamics.run_sgd(spec, cfg)
        with pytest.raises(DivergenceError):
            dynamics.run_sde(spec, s=0.01, dt=1e3, t_max=1e6, seed=0, init=init,
                             log_every=1000)


def test_loss_divergence_at_step_zero():
    # the ridge term of w0 alone passes the limit, so every run stops at the
    # step-0 log point with w0 as its last state
    spec = small_spec()
    w0 = np.full((spec.p, spec.d), 1e7)
    assert 0.5 * spec.lam * np.sum(w0 * w0) > dynamics.DIVERGENCE_LIMIT
    init = InitSpec("explicit", w0=w0)
    cfg = SgdConfig(step_size=0.05, batch_size=4, steps=50, init=init, log_every=10)

    def check(err):
        assert isinstance(err, DivergenceError)
        assert err.step == 0
        assert "loss" in str(err)
        np.testing.assert_array_equal(err.last_w, w0)

    with pytest.raises(DivergenceError) as sgd_err:
        dynamics.run_sgd(spec, cfg)
    check(sgd_err.value)
    with pytest.raises(DivergenceError) as sde_err:
        dynamics.run_sde(spec, s=0.1, dt=0.01, t_max=1.0, init=init)
    check(sde_err.value)
    stacked = dynamics.run_sgd_chains(spec, cfg, [0, 1, 2])
    assert len(stacked) == 3
    for err in stacked:
        check(err)
