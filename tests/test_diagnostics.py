import math
import warnings

import numpy as np
import pytest

import oracles
from villanets import activations, diagnostics, model
from villanets.model import Dataset, LossSpec, Net, normalized_outer


def scalar_spec(lam=0.13):
    net = Net(np.ones(1), np.zeros((1, 1)), activations.sigmoid(1.0))
    return LossSpec(net, Dataset(np.array([[1.0]]), np.array([0.0])), lam)


def small_spec(kind, lam_mult=1.5, seed=0, p=2, d=2, n=6):
    rng = np.random.default_rng(seed)
    act = activations.make(kind, 1.0)
    data = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, n))
    net = Net(normalized_outer(p, data.x_bound), np.zeros((p, d)), act)
    return LossSpec(net, data, lam_mult * model.lambda_c(net, data))


def test_v_s_composition():
    spec = scalar_spec()
    # grad = 0.125, laplacian = 0.1925 at the origin
    assert diagnostics.v_s(spec, 0.1) == pytest.approx(
        0.125**2 / 0.1 - 0.1925, abs=1e-12
    )


def test_v_s_at_flat_interpolating_point():
    rng = np.random.default_rng(4)
    act = activations.tanh()
    xs = rng.standard_normal((4, 3))
    # zero outer weights: gradient vanishes and the Hessian trace is the
    # ridge contribution alone, so v_s = -lam * p * d
    net0 = Net(np.zeros(2), np.zeros((2, 3)), act)
    spec = LossSpec(net0, Dataset(xs, rng.standard_normal(4)), 0.2)
    assert diagnostics.v_s(spec, 1.0) == pytest.approx(-0.2 * 6, rel=1e-10)
    # with nonzero outer weights and zero residuals, the first-derivative
    # curvature term remains
    a = rng.standard_normal(2)
    net1 = Net(a, np.zeros((2, 3)), act)
    ys = model.predict(LossSpec(net1, Dataset(xs, np.zeros(4)), 0.0), xs)
    spec1 = LossSpec(net1, Dataset(xs, ys), 0.2)
    expected = -(np.sum(a**2) * np.mean(np.sum(xs * xs, axis=1)) + 0.2 * 6)
    assert diagnostics.v_s(spec1, 1.0) == pytest.approx(expected, rel=1e-10)


def test_v_s_positive_far_out():
    spec = small_spec("sigmoid")
    w = 1e3 * np.full((spec.p, spec.d), 1.0 / np.sqrt(spec.p * spec.d))
    assert diagnostics.v_s(spec, 0.1, w) > 0


def test_v_s_monotone_in_s():
    spec = small_spec("sigmoid")
    w = np.full((spec.p, spec.d), 0.3)
    values = [diagnostics.v_s(spec, s, w) for s in (0.05, 0.1, 0.5, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_v_s_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        diagnostics.v_s(scalar_spec(), 0.0)
    for s in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            diagnostics.v_s(scalar_spec(), s)


class TestGradLowerBound:
    def test_zero_at_origin_and_without_ridge(self):
        spec = scalar_spec()
        assert diagnostics.grad_lower_bound(spec, np.zeros((1, 1))) == 0.0
        assert diagnostics.grad_lower_bound(scalar_spec(lam=0.0),
                                            np.ones((1, 1))) == 0.0

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_never_exceeds_squared_grad_norm(self, kind):
        rng = np.random.default_rng(8)
        act = activations.make(kind, 1.0)
        for _ in range(20):
            spec = oracles.random_spec(rng, act)
            for _ in range(50):
                w = rng.choice([0.3, 1.0, 5.0, 30.0]) * rng.standard_normal(
                    (spec.p, spec.d)
                )
                gsq = float(np.sum(model.grad(spec, w) ** 2))
                assert gsq >= diagnostics.grad_lower_bound(spec, w)


class TestLaplacianUpperBound:
    def test_zero_for_trivial_net(self):
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        net = Net(np.zeros(2), np.zeros((2, 1)), activations.sigmoid(1.0))
        spec = LossSpec(net, data, 0.0)
        assert diagnostics.laplacian_upper_bound(spec) == 0.0

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_dominates_laplacian(self, kind):
        rng = np.random.default_rng(9)
        act = activations.make(kind, 1.0)
        for _ in range(20):
            spec = oracles.random_spec(rng, act)
            for _ in range(50):
                w = rng.choice([0.3, 1.0, 5.0, 30.0]) * rng.standard_normal(
                    (spec.p, spec.d)
                )
                assert model.laplacian(spec, w) <= diagnostics.laplacian_upper_bound(spec, w)

    def test_affine_in_radius(self):
        spec = small_spec("tanh")
        w = np.full((spec.p, spec.d), 0.5)
        b1 = diagnostics.laplacian_upper_bound(spec, w)
        b2 = diagnostics.laplacian_upper_bound(spec, 2 * w)
        b3 = diagnostics.laplacian_upper_bound(spec, 3 * w)
        assert b2 - b1 == pytest.approx(b3 - b2, rel=1e-9)


@pytest.mark.parametrize("bound", [diagnostics.grad_lower_bound,
                                   diagnostics.laplacian_upper_bound])
def test_bounds_check_a_supplied_w(bound):
    spec = small_spec("sigmoid")
    with pytest.raises(ValueError, match="shape"):
        bound(spec, np.ones(7))
    with pytest.raises(ValueError, match="finite"):
        bound(spec, np.array([[1.0, np.nan], [0.0, 0.0]]))


def test_leading_coefficient_sign():
    spec = small_spec("sigmoid")
    lam_c = model.lambda_c(spec.net, spec.data)
    for mult in (1.01, 1.5, 3.0, 10.0):
        assert diagnostics.ray_quadratic_coeff(LossSpec(spec.net, spec.data, mult * lam_c)) > 0
    at_lam_c = diagnostics.ray_quadratic_coeff(LossSpec(spec.net, spec.data, lam_c))
    assert at_lam_c == pytest.approx(0.0, abs=1e-15)


class TestVillaniScan:
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_diverges_above_critical_ridge(self, kind):
        spec = small_spec(kind)
        report = diagnostics.villani_scan(spec, s=0.1, ray_count=16, r_max=1e3, seed=0)
        assert report.diverging
        assert report.grad_bound_violations == 0
        assert report.laplacian_bound_violations == 0

    def test_report_shape_and_radii(self):
        spec = small_spec("sigmoid")
        report = diagnostics.villani_scan(spec, s=0.5, ray_count=8, r_max=100.0, seed=3)
        assert np.all(np.diff(report.radii) > 0)
        assert report.radii[-1] == 100.0
        assert report.v_values.shape == (8, len(report.radii))
        assert report.lambda_c == pytest.approx(model.lambda_c(spec.net, spec.data))

    def test_json_round_trip(self):
        import json

        spec = small_spec("tanh")
        report = diagnostics.villani_scan(spec, s=0.2, ray_count=8, r_max=50.0, seed=1)
        obj = json.loads(json.dumps(report.to_dict()))
        assert obj["diverging"] == report.diverging
        assert obj["ray_count"] == 8

    def test_parameter_validation(self):
        spec = small_spec("sigmoid")
        with pytest.raises(ValueError):
            diagnostics.villani_scan(spec, s=-1.0)
        with pytest.raises(ValueError):
            diagnostics.villani_scan(spec, s=0.1, ray_count=4)
        with pytest.raises(ValueError):
            diagnostics.villani_scan(spec, s=0.1, r_max=5.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                diagnostics.villani_scan(spec, s=value)
            with pytest.raises(ValueError, match="finite"):
                diagnostics.villani_scan(spec, s=0.1, r_max=value)

    def test_violations_are_counted_per_point(self, monkeypatch):
        # bounds that no point meets: |grad|^2 >= inf and laplacian <= -inf
        monkeypatch.setattr(diagnostics, "_bounds",
                            lambda spec: (lambda wn: math.inf, lambda wn: -math.inf))
        report = diagnostics.villani_scan(small_spec("sigmoid"), s=0.1, ray_count=8,
                                          r_max=100.0)
        points = report.v_values.size
        assert report.grad_bound_violations == report.laplacian_bound_violations == points

    def test_radii_whose_v_s_overflows_read_as_diverging(self):
        # from r ~ 1e154 on, ||g||^2 overflows to inf and v_s with it; the
        # tail compares neighbours, inf >= inf, since their difference
        # inf - inf is NaN and would read as not diverging
        spec = small_spec("sigmoid", p=1, d=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = diagnostics.villani_scan(spec, s=0.1, ray_count=8, r_max=1e200)
        assert np.all(np.isinf(report.v_values[:, -3:]))
        assert report.diverging
        assert report.grad_bound_violations == report.laplacian_bound_violations == 0

    @pytest.mark.parametrize("r_max", [64.0, 100.0, 1e200])
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "softplus"])
    def test_matches_the_per_point_oracle_bit_for_bit(self, kind, r_max):
        # 1e200 takes the scan past the radii where ||g||^2 overflows to inf
        for size in ((2, 2, 6), (50, 20, 200)):
            spec = small_spec(kind, p=size[0], d=size[1], n=size[2], seed=sum(size))
            report = diagnostics.villani_scan(spec, s=0.1, ray_count=8, r_max=r_max, seed=4)
            v_values, grad_viol, lap_viol, diverging = oracles.villani_scan_reference(
                spec, 0.1, 8, r_max, 4)
            assert np.array_equal(report.v_values, v_values)
            assert (report.grad_bound_violations, report.laplacian_bound_violations,
                    report.diverging) == (grad_viol, lap_viol, diverging)

    @pytest.mark.parametrize("r_max", [64.0, 100.0, 1e3, 1e200])
    def test_kernel_runs_its_own_matmul_only_off_powers_of_two(self, monkeypatch, r_max):
        spec = small_spec("sigmoid", p=3, d=2, n=7)
        evaluate, own = model.evaluate, []

        def spy(spec, w, outputs, batch=None, forward=None):
            own.append(forward is None)
            # a forward pass handed in is the one the kernel would compute
            assert forward is None or np.array_equal(forward, w @ spec.data.xs.T)
            return evaluate(spec, w, outputs, batch, forward)

        monkeypatch.setattr(model, "evaluate", spy)
        report = diagnostics.villani_scan(spec, s=0.1, ray_count=8, r_max=r_max)
        off_powers = [r != 2.0 ** round(math.log2(r)) for r in report.radii]
        assert own == off_powers * 8
        assert off_powers[-1] == (r_max != 64.0) and not any(off_powers[:-1])

    def test_seeded_determinism(self):
        spec = small_spec("sigmoid")
        r1 = diagnostics.villani_scan(spec, s=0.1, ray_count=8, r_max=100.0, seed=5)
        r2 = diagnostics.villani_scan(spec, s=0.1, ray_count=8, r_max=100.0, seed=5)
        np.testing.assert_array_equal(r1.v_values, r2.v_values)
