import itertools
import math

import numpy as np
import pytest

import oracles
from villanets import activations, dynamics, model
from villanets.dynamics import DivergenceError, InitSpec, SgdConfig
from villanets.model import Dataset, LossSpec, Net, normalized_outer


def small_spec(kind="sigmoid", seed=0, p=2, d=2, n=8, lam_mult=1.5):
    rng = np.random.default_rng(seed)
    act = activations.make(kind, 1.0)
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

    def test_vector_eval_fn_logged_per_checkpoint(self):
        spec = small_spec()
        cfg = SgdConfig(step_size=0.05, batch_size=4, steps=100, seed=3, log_every=25)
        traj = dynamics.run_sgd(spec, cfg, eval_fn=lambda w: (1.0, 2.0))
        assert traj.eval_values.shape == (len(traj.steps), 2)

    def test_config_validation(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            dynamics.run_sgd(spec, SgdConfig(step_size=0.1, batch_size=99, steps=10))
        with pytest.raises(ValueError):
            dynamics.run_sgd(spec, SgdConfig(step_size=-0.1, batch_size=4, steps=10))


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
                                log_every=1, record_weights=True)
        w = np.array(traj.weights)
        samples = w[w.shape[0] // 5:].reshape(-1)
        assert samples.size >= 1_000_000
        assert abs(samples.var() / (s / (2 * lam)) - 1.0) <= 0.05

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


def test_step_size_guidance():
    spec = small_spec()
    bound = model.glip_bound(spec)
    assert dynamics.s_star(spec, epsilon=1e-3) == pytest.approx(1e-3)
    assert dynamics.s_star(spec, epsilon=100.0) == pytest.approx(1.0 / bound)
    with pytest.raises(ValueError):
        dynamics.s_star(spec, epsilon=0.0)
