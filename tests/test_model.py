import itertools
import math

import numpy as np
import pytest

import oracles
from villanets import activations, diagnostics, dynamics, fpe, harness, model
from villanets.model import Dataset, LossSpec, Net, normalized_outer


def make_spec(act_kind="sigmoid", beta=1.0, p=1, d=1, xs=None, ys=None,
              a=None, w=None, lam=0.0):
    act = activations.make(act_kind, beta)
    xs = np.atleast_2d(xs if xs is not None else [[1.0]])
    ys = np.atleast_1d(ys if ys is not None else [0.0])
    a = np.atleast_1d(a if a is not None else np.ones(p))
    w = np.atleast_2d(w if w is not None else np.zeros((p, d)))
    return LossSpec(Net(a, w, act), Dataset(xs, ys), lam)


def one_row(net: Net, x) -> float:
    """The net's output at one input, through ``predict`` on a one-row batch."""
    spec = LossSpec(net, Dataset(np.zeros((1, net.d)), np.zeros(1)), 0.0)
    out = model.predict(spec, np.atleast_2d(x))
    assert out.shape == (1,)
    return float(out[0])


class TestForward:
    def test_two_gates_at_zero_weights(self):
        net = Net(np.ones(2), np.zeros((2, 3)), activations.sigmoid(1.0))
        assert one_row(net, [0.3, -0.2, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_tanh_zero_weights(self):
        net = Net(np.array([2.0, -1.0]), np.zeros((2, 2)), activations.tanh())
        assert one_row(net, [5.0, 5.0]) == 0.0

    def test_scalar_sigmoid(self):
        net = Net(np.ones(1), np.zeros((1, 1)), activations.sigmoid(1.0))
        assert one_row(net, [1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_shape_error(self):
        net = Net(np.ones(1), np.zeros((1, 2)), activations.sigmoid(1.0))
        with pytest.raises(ValueError):
            one_row(net, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_a_stack_gives_each_matrix_its_own_prediction_bit_for_bit(self, kind):
        rng = np.random.default_rng(31)
        spec = oracles.random_spec(rng, activations.make(kind, 1.0))
        ws = rng.standard_normal((5, spec.p, spec.d))
        xs = rng.standard_normal((7, spec.d))
        stacked = model.predict(spec, xs, ws)
        assert stacked.shape == (5, 7)
        for w, row in zip(ws, stacked, strict=True):
            assert row.tobytes() == model.predict(spec, xs, w).tobytes()


class TestLoss:
    def test_tanh_zero_weights_unit_residual(self):
        spec = make_spec("tanh", p=1, d=1, xs=[[2.0]], ys=[1.0], a=[3.0])
        assert model.loss(spec) == pytest.approx(0.5, abs=1e-15)

    def test_exact_fit_with_ridge_at_zero_weights(self):
        spec = make_spec("sigmoid", xs=[[1.0]], ys=[0.5], lam=0.13)
        assert model.loss(spec) == pytest.approx(0.0, abs=1e-15)

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(42)
        for kind in ("sigmoid", "tanh", "softplus"):
            for _ in range(5):
                spec = oracles.random_spec(rng, activations.make(kind, 1.0))
                w = rng.standard_normal((spec.p, spec.d))
                assert model.loss(spec, w) == pytest.approx(
                    oracles.naive_loss(spec, w), abs=1e-12, rel=1e-12
                )


class TestGrad:
    def test_closed_form_at_origin(self):
        spec = make_spec("sigmoid", xs=[[1.0]], ys=[0.0])
        assert model.grad(spec)[0, 0] == pytest.approx(0.125, abs=1e-15)

    def test_zero_residuals_leave_ridge_term(self):
        rng = np.random.default_rng(5)
        act = activations.sigmoid(1.0)
        w = rng.standard_normal((3, 2))
        xs = rng.standard_normal((4, 2))
        net = Net(rng.standard_normal(3), w, act)
        ys = model.predict(LossSpec(net, Dataset(xs, np.zeros(4)), 0.0), xs)
        spec = LossSpec(net, Dataset(xs, ys), lam=0.27)
        np.testing.assert_allclose(model.grad(spec), 0.27 * w, atol=1e-12)

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(17)
        act = activations.make(kind, 1.0)
        for _ in range(30):
            spec = oracles.random_spec(rng, act)
            w = rng.standard_normal((spec.p, spec.d))
            g = model.grad(spec, w)
            fd = oracles.fd_gradient(spec, w)
            err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert err <= 1e-6


class TestLaplacian:
    def test_hand_evaluated_point(self):
        spec = make_spec("sigmoid", xs=[[1.0]], ys=[0.0], lam=0.13)
        # sigma'(0)^2 + 0.5 * sigma''(0) + lam * p * d
        assert model.laplacian(spec) == pytest.approx(0.0625 + 0.13, abs=1e-15)

    def test_tanh_zero_weights_curvature(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((5, 3))
        a = np.array([1.5, -2.0])
        spec = make_spec("tanh", p=2, d=3, xs=xs, ys=np.zeros(5), a=a,
                         w=np.zeros((2, 3)), lam=0.0)
        expected = np.sum(a**2) * np.mean(np.sum(xs * xs, axis=1))
        assert model.laplacian(spec) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_matches_fd_hessian_trace(self, kind):
        rng = np.random.default_rng(23)
        act = activations.make(kind, 1.0)
        for _ in range(15):
            spec = oracles.random_spec(rng, act)
            w = rng.standard_normal((spec.p, spec.d))
            lap = model.laplacian(spec, w)
            fd = oracles.fd_hessian_trace(spec, w)
            assert abs(lap - fd) / max(abs(fd), 1e-9) <= 1e-5


class TestEvaluate:
    OUTPUTS = ("loss", "grad", "laplacian")

    @pytest.mark.parametrize("minibatch", [False, True])
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_stack_matches_single_evaluations_and_oracles(self, kind, minibatch):
        rng = np.random.default_rng(41)
        for _ in range(6):
            spec = oracles.random_spec(rng, activations.make(kind, 1.0))
            batch = rng.integers(0, spec.n, size=3) if minibatch else None
            # the oracles see the selected samples as a dataset of their own
            sub = spec if batch is None else LossSpec(
                spec.net, Dataset(spec.data.xs[batch], spec.data.ys[batch]), spec.lam)
            stack = rng.standard_normal((4, spec.p, spec.d))
            stacked = model.evaluate(spec, stack, self.OUTPUTS, batch)
            for i, w in enumerate(stack):
                single = model.evaluate(spec, w, self.OUTPUTS, batch)
                for got, want in zip(stacked, single, strict=True):
                    assert np.shape(got[i]) == np.shape(want)
                    assert np.linalg.norm(got[i] - want) <= 1e-12 * np.linalg.norm(want)
                value, g, lap = single
                assert value == pytest.approx(oracles.naive_loss(sub, w), rel=1e-12, abs=1e-12)
                fd = oracles.fd_gradient(sub, w)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)
                fd_lap = oracles.fd_hessian_trace(sub, w)
                assert abs(lap - fd_lap) <= 1e-5 * max(abs(fd_lap), 1e-9)

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_stack_with_one_batch_per_matrix_is_exact(self, kind):
        # row i of a (k, b) batch is the minibatch of w[i]
        rng = np.random.default_rng(43)
        for _ in range(4):
            spec = oracles.random_spec(rng, activations.make(kind, 1.0))
            stack = rng.standard_normal((5, spec.p, spec.d))
            batches = rng.integers(0, spec.n, size=(5, 3))
            stacked = model.evaluate(spec, stack, self.OUTPUTS, batches)
            for i in range(len(stack)):
                single = model.evaluate(spec, stack[i], self.OUTPUTS, batches[i])
                for got, want in zip(stacked, single, strict=True):
                    np.testing.assert_array_equal(got[i], want)

    @pytest.mark.parametrize("beta", [1.0, 2.5])
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_outputs_are_the_formulas_bit_for_bit(self, kind, beta):
        # every order of every set of outputs, since they share the kernel's
        # arrays; the weights are read-only, so a write to them raises
        rng = np.random.default_rng(47)
        named = [names for k in (1, 2, 3) for names in itertools.permutations(self.OUTPUTS, k)]
        for _ in range(3):
            spec = oracles.random_spec(rng, oracles.make_activation(kind, beta))
            p, d, n = spec.p, spec.d, spec.n
            for w, batch in ((rng.standard_normal((p, d)), None),
                             (rng.standard_normal((p, d)), rng.integers(0, n, 3)),
                             (rng.standard_normal((4, p, d)), None),
                             (rng.standard_normal((4, p, d)), rng.integers(0, n, (4, 3)))):
                given = w.copy()
                w.setflags(write=False)
                want = dict(zip(self.OUTPUTS, oracles.evaluate_reference(spec, w, batch)))
                for outputs in named:
                    got = model.evaluate(spec, w, outputs, batch)
                    for name, out in zip(outputs, got, strict=True):
                        assert np.shape(out) == np.shape(want[name])
                        assert np.array_equal(out, want[name])
                assert np.array_equal(w, given)

    def test_outputs_come_in_the_order_named(self):
        spec = oracles.random_spec(np.random.default_rng(3), activations.tanh())
        lap, value = model.evaluate(spec, spec.net.w, ("laplacian", "loss"))
        assert (lap, value) == (model.laplacian(spec), model.loss(spec))
        with pytest.raises(KeyError):
            model.evaluate(spec, spec.net.w, ("hessian",))

    def test_public_entry_points_check_weights(self):
        spec = make_spec("sigmoid", p=1, d=1)
        for fn in (model.loss, model.grad, model.laplacian):
            with pytest.raises(ValueError):
                fn(spec, np.array([[np.nan]]))
            with pytest.raises(ValueError):
                fn(spec, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            model.predict(spec, np.array([[np.inf]]))
        # predict takes a (k, p, d) stack too, checked as the single matrix is
        for w in (np.zeros((3, 2, 1)), np.zeros((2, 3, 1, 1)), np.array([[[0.0]], [[np.nan]]])):
            with pytest.raises(ValueError):
                model.predict(spec, spec.data.xs, w)


class TestConstants:
    def test_critical_ridge_is_exact_for_unit_normalization(self):
        data = Dataset(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.5, 0.2]))
        net = Net(normalized_outer(4, data.x_bound), np.zeros((4, 2)),
                  activations.sigmoid(1.0))
        assert model.lambda_c(net, data) == 0.125  # bit-exact

    def test_zero_outer_weights(self):
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        net = Net(np.zeros(3), np.zeros((3, 1)), activations.tanh())
        assert model.lambda_c(net, data) == 0.0

    def test_tanh_unit_normalization(self):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        net = Net(np.ones(1), np.zeros((1, 1)), activations.tanh())
        assert model.lambda_c(net, data) == pytest.approx(2.0, rel=1e-15)

    def test_smoothness_bound_arithmetic(self):
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        net = Net(np.ones(1), np.zeros((1, 1)), activations.sigmoid(1.0))
        spec = LossSpec(net, data, 0.13)
        d2 = 1.0 / (6.0 * math.sqrt(3.0))
        expected = d2 + 0.25**2 + d2 * 1.0 + 0.13
        assert model.glip_bound(spec) == pytest.approx(expected, rel=1e-12)
        assert model.glip_bound(spec) == pytest.approx(0.38495, abs=1e-5)

    def test_smoothness_bound_vanishes(self):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        net = Net(np.zeros(2), np.zeros((2, 1)), activations.sigmoid(1.0))
        assert model.glip_bound(LossSpec(net, data, 0.0)) == 0.0

    def test_smoothness_bound_rejects_unbounded_activation(self):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        net = Net(np.ones(1), np.zeros((1, 1)), activations.softplus(1.0))
        with pytest.raises(ValueError):
            model.glip_bound(LossSpec(net, data, 0.1))

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    def test_empirical_lipschitz_ratio_below_bound(self, kind):
        rng = np.random.default_rng(31)
        act = activations.make(kind, 1.0)
        for _ in range(3):
            spec = oracles.random_spec(rng, act)
            bound = model.glip_bound(spec)
            for _ in range(2000):
                scale = rng.choice([0.1, 1.0, 10.0])
                w1 = scale * rng.standard_normal((spec.p, spec.d))
                w2 = scale * rng.standard_normal((spec.p, spec.d))
                num = np.linalg.norm(model.grad(spec, w1) - model.grad(spec, w2))
                den = np.linalg.norm(w1 - w2)
                assert num <= bound * den * (1 + 1e-12)


class TestCoercivity:
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    def test_ridge_dominates_at_large_radius(self, kind):
        rng = np.random.default_rng(13)
        act = activations.make(kind, 1.0)
        for _ in range(10):
            spec = oracles.random_spec(rng, act, lam_range=(0.05, 0.5))
            w = rng.standard_normal((spec.p, spec.d))
            big = 100.0 * w
            assert model.loss(spec, big) >= 0.9 * 0.5 * spec.lam * np.sum(big * big)


class TestIdentity:
    def test_hash_and_equality_are_by_identity(self):
        nets = [Net(np.ones(2), np.zeros((2, 2)), activations.sigmoid()) for _ in range(2)]
        assert nets[0] == nets[0] and nets[0] != nets[1]
        data = Dataset(np.ones((3, 2)), np.zeros(3))
        assert data != Dataset(np.ones((3, 2)), np.zeros(3))
        specs = [LossSpec(net, data, 0.1) for net in nets]
        assert len({specs[0], specs[1], specs[0], nets[0], data}) == 4
        assert specs[0] != specs[1] and hash(specs[0]) == hash(specs[0])

    @pytest.mark.parametrize("build", [
        lambda: fpe.FpeGrid(1, 1.0, 8, 2 / 7, 0.5, np.zeros(8), np.full(8, 0.5)),
        lambda: fpe.GibbsMeasure(np.full(2, 0.5), 0.0),
        lambda: fpe.DecayFit(1.0, 1.0, np.zeros(2), np.ones(2), np.ones(2), False, True),
        lambda: dynamics.Trajectory(*[np.zeros(2)] * 4, np.zeros((1, 1)), "digest"),
        lambda: diagnostics.VillaniReport(0.1, 0.1, 0.05, 1, np.ones(2), np.ones((1, 2)),
                                          0, 0, True),
        lambda: harness.SweepResult((0.1,), (2,), "best_test_loss", np.zeros((1, 1)), []),
        lambda: harness.AblationCurves(*[np.zeros(2)] * 4),
    ], ids=["FpeGrid", "GibbsMeasure", "DecayFit", "Trajectory", "VillaniReport",
            "SweepResult", "AblationCurves"])
    def test_records_that_hold_arrays_compare_by_identity(self, build):
        # a field-by-field == would ask numpy for the truth of an array
        first, second = build(), build()
        assert first == first and first != second
        assert len({first, second, first}) == 2


class TestDataset:
    def test_bounds_are_recomputed_maxima(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((20, 4))
        ys = rng.standard_normal(20)
        ds = Dataset(xs, ys)
        assert ds.x_bound == np.max(np.linalg.norm(xs, axis=1))
        assert ds.y_bound == np.max(np.abs(ys))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError, match=r"xs must be \(n, d\)"):
            Dataset(np.ones((2, 2, 2)), np.ones(2))

    def test_net_rejects_bad_shapes_and_weights(self):
        act = activations.tanh()
        for a, w, message in ((np.ones((2, 1)), np.ones((2, 1)), r"a must be \(p,\)"),
                              (np.ones(2), np.ones((3, 1)), r"a must be \(p,\)"),
                              (np.ones(0), np.ones((0, 2)), "p and d must be at least 1"),
                              (np.ones(1), np.ones((1, 0)), "p and d must be at least 1"),
                              (np.array([math.inf]), np.ones((1, 1)), "must be finite")):
            with pytest.raises(ValueError, match=message):
                Net(a, w, act)
        for p, x_bound, message in ((0, 1.0, "^p must be at least 1, not 0$"),
                                    (2, 0.0, "^x_bound must be positive and finite$")):
            with pytest.raises(ValueError, match=message):
                normalized_outer(p, x_bound)

    def test_normalized_outer_invariant(self):
        for p in (1, 3, 4, 10):
            for bx in (0.5, 1.0, math.sqrt(20.0)):
                a = normalized_outer(p, bx)
                assert np.linalg.norm(a) * bx == pytest.approx(1.0, rel=1e-14)
        signed = normalized_outer(4, 2.0, signed=True)
        assert np.linalg.norm(signed) * 2.0 == pytest.approx(1.0, rel=1e-14)
        assert signed[0] > 0 > signed[1]

    def test_outer_weights_vocabulary(self):
        np.testing.assert_array_equal(model.outer_weights("normalized", 4, 2.0),
                                      normalized_outer(4, 2.0))
        np.testing.assert_array_equal(model.outer_weights("normalized_signed", 4, 2.0),
                                      normalized_outer(4, 2.0, signed=True))
        np.testing.assert_array_equal(model.outer_weights("ones", 3, 2.0), np.ones(3))
        with pytest.raises(ValueError, match="unknown a_mode 'signed'"):
            model.outer_weights("signed", 4, 2.0)

    def test_lam_is_stored_as_a_float(self):
        lam = make_spec(lam=1).lam
        assert lam == 1.0 and type(lam) is float

    def test_lambda_mismatch_and_dim_checks(self):
        data = Dataset(np.ones((2, 3)), np.ones(2))
        net = Net(np.ones(2), np.zeros((2, 2)), activations.tanh())
        with pytest.raises(ValueError):
            LossSpec(net, data, 0.1)
        net_ok = Net(np.ones(2), np.zeros((2, 3)), activations.tanh())
        with pytest.raises(ValueError):
            LossSpec(net_ok, data, -0.1)
