import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

import oracles
from villanets import activations, model
from villanets.activations import Activation

ALL_KINDS = ["sigmoid", "tanh", "softplus"]


def test_values_at_zero():
    assert activations.sigmoid(1.0)(0.0) == pytest.approx(0.5, abs=1e-15)
    assert activations.tanh()(0.0) == 0.0
    assert activations.softplus(1.0)(0.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_first_derivatives_at_zero():
    assert activations.sigmoid(1.0).d1(0.0) == pytest.approx(0.25, abs=1e-15)
    assert activations.sigmoid(1.0).d2(0.0) == pytest.approx(0.0, abs=1e-15)
    assert activations.softplus(1.0).d1(0.0) == pytest.approx(0.5, abs=1e-15)
    assert activations.tanh().d1(0.0) == pytest.approx(1.0, abs=1e-15)


def test_constant_table():
    sig = activations.sigmoid(1.0)
    assert sig.lipschitz == 0.25 and sig.d1_sup == 0.25
    assert sig.d2_sup == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)), rel=1e-12)
    th = activations.tanh()
    assert th.lipschitz == th.d1_sup == 1.0
    assert th.d2_sup == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)
    sp = activations.softplus(2.0)
    assert math.isinf(sp.sup_value)
    assert sp.lipschitz == sp.d1_sup == 1.0
    assert sp.d2_sup == 0.5
    assert sp.at_zero == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    # every derived constant is the closed form's double, keys in table order
    for kind, beta in [("sigmoid", 1.0), ("sigmoid", 2.5), ("softplus", 1.0),
                       ("softplus", 2.5), ("tanh", 1.0)]:
        table = activations.make(kind, beta).table()
        want = oracles.constant_table(kind, beta)
        assert list(table) == list(want) and table == want


def test_only_kind_and_beta_are_settable():
    assert [f.name for f in dataclasses.fields(Activation) if f.init] == ["kind", "beta"]


def test_replace_rederives_the_constants():
    act = dataclasses.replace(activations.sigmoid(1.0), beta=2.0)
    assert act.d1_sup == act.lipschitz == 0.5 == act.d1(0.0)
    assert act.table() == oracles.constant_table("sigmoid", 2.0)
    assert act.beta_op == 2.0
    data = model.Dataset(np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([0.5, 0.2]))
    net = model.Net(np.array([0.5, -1.0, 0.25]), np.zeros((3, 2)), act)
    want = 2.0 * 0.5 * 0.5 * data.x_bound**2 * net.a_norm**2
    assert model.lambda_c(net, data) == want == pytest.approx(2.625)  # 4x that of beta = 1


@pytest.mark.parametrize("build", [
    lambda: Activation("relu", 1.0),
    lambda: Activation("sigmoid", -1.0),
    lambda: Activation("sigmoid", math.nan),
    lambda: dataclasses.replace(activations.tanh(), beta=3.0),
], ids=["unknown-kind", "negative-beta", "nan-beta", "tanh-beta-3"])
def test_constructor_refuses_what_make_refuses(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, value", [
    (lambda: Activation("sigmoid", True), True),
    (lambda: activations.make("sigmoid", "2"), "2"),
    (lambda: dataclasses.replace(activations.sigmoid(), beta=True), True),
    (lambda: activations.make("tanh", True), True),
], ids=["bool", "string", "replace-bool", "tanh-bool"])
def test_beta_is_held_to_the_number_rule(build, value):
    # the rule that a spec file's "beta" meets: True is not read as 1
    with pytest.raises(TypeError, match=re.escape(f"beta must be a number, not {value!r}")):
        build()


@pytest.mark.parametrize("kind", ["sigmoid", "softplus"])
@pytest.mark.parametrize("beta", [2, np.int64(3), np.float64(0.7)])
def test_number_betas_give_the_float_constants(kind, beta):
    act, want = Activation(kind, beta), Activation(kind, float(beta))
    assert type(act.beta) is float and act == want and hash(act) == hash(want)
    for name, value in act.table().items():
        assert value == want.table()[name] and type(value) is type(want.table()[name]), name
    assert act.beta_op == want.beta_op


@pytest.mark.parametrize("kind,beta", [("sigmoid", 1.0), ("sigmoid", 2.5), ("tanh", 1.0),
                                       ("softplus", 1.0), ("softplus", 2.5)])
def test_constructor_make_and_pickle_agree(kind, beta):
    # a sweep with --jobs sends its activation to the workers pickled
    act = Activation(kind, beta)
    made = activations.make(kind.upper(), beta)
    assert act == made and hash(act) == hash(made)
    back = pickle.loads(pickle.dumps(act))
    assert back == act and hash(back) == hash(act)
    assert back.table() == act.table() == oracles.constant_table(kind, beta)
    assert (back.beta_op is None) is (beta == 1.0) and back.beta_op == act.beta_op


@pytest.mark.parametrize("kind,beta", [("sigmoid", 1.0), ("sigmoid", 2.5), ("tanh", 1.0),
                                       ("softplus", 1.0), ("softplus", 3.0)])
def test_grid_maximization_matches_stored_sups(kind, beta):
    # dense 1-D maximization over [-20, 20] must recover the closed forms
    act = activations.make(kind, beta)
    x = np.linspace(-20.0, 20.0, 1_000_001)
    assert abs(np.max(np.abs(act.d1(x))) - act.d1_sup) <= 1e-6
    assert abs(np.max(np.abs(act.d2(x))) - act.d2_sup) <= 1e-6
    if act.bounded:
        assert np.max(np.abs(act(x))) <= act.sup_value + 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sampled_bounds_hold(kind):
    act = activations.make(kind, 1.0)
    rng = np.random.default_rng(7)
    x = rng.uniform(-50.0, 50.0, 1_000_000)
    if act.bounded:
        assert np.all(np.abs(act(x)) <= act.sup_value + 1e-12)
    assert np.all(np.abs(act.d1(x)) <= act.d1_sup + 1e-12)
    assert np.all(np.abs(act.d2(x)) <= act.d2_sup + 1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lipschitz_on_sampled_pairs(kind):
    act = activations.make(kind, 1.0)
    rng = np.random.default_rng(11)
    x1 = rng.uniform(-30.0, 30.0, 20_000)
    x2 = rng.uniform(-30.0, 30.0, 20_000)
    gap = np.abs(x1 - x2)
    assert np.all(np.abs(act(x1) - act(x2)) <= act.lipschitz * gap + 1e-12)
    assert np.all(np.abs(act.d1(x1) - act.d1(x2)) <= act.d2_sup * gap + 1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivs_equals_the_public_views(kind):
    act = oracles.make_activation(kind, 1.5)
    x = np.random.default_rng(5).uniform(-30.0, 30.0, (3, 40))
    value, d1, d2 = act.derivs(x, 2)
    np.testing.assert_array_equal(value, act(x))
    np.testing.assert_array_equal(d1, act.d1(x))
    np.testing.assert_array_equal(d2, act.d2(x))
    for order in (0, 1):
        for got, want in zip(act.derivs(x, order), (value, d1)[: order + 1], strict=True):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_derivs_are_the_formulas_bit_for_bit(kind, beta):
    # the in-place kernel against the formulas written out; its input is
    # read-only, so a write to it raises
    act = oracles.make_activation(kind, beta)
    rng = np.random.default_rng(23)
    for shape in ((7,), (5, 9), (3, 4, 6)):
        x = 20.0 * rng.standard_normal(shape)
        x.flat[:2] = (-800.0 / beta, 800.0 / beta)  # past the exponent cap
        given = x.copy()
        x.setflags(write=False)
        for order in (0, 1, 2):
            got = act.derivs(x, order)
            want = oracles.derivs_reference(act, x, order)
            for out, ref in zip(got, want, strict=True):
                assert out.shape == shape and np.array_equal(out, ref)
        assert np.array_equal(x, given)
    for x in (-800.0 / beta, -3.2, 0.0, 0.7, 30.0):
        for order, view in enumerate((act, act.d1, act.d2)):
            got = view(x)
            assert type(got) is float
            assert got == float(oracles.derivs_reference(act, np.array(x), order)[order])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivatives_match_finite_differences(kind):
    act = activations.make(kind, 1.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(-6.0, 6.0, 1000)
    h = 1e-5
    fd1 = (act(x + h) - act(x - h)) / (2 * h)
    fd2 = (act.d1(x + h) - act.d1(x - h)) / (2 * h)
    np.testing.assert_allclose(act.d1(x), fd1, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(act.d2(x), fd2, rtol=1e-6, atol=1e-9)


def test_softplus_approaches_relu():
    act = activations.softplus(50.0)
    for x in (-2.0, -1.0, 1.0, 2.0):
        assert abs(act(x) - max(0.0, x)) <= 0.02


def test_stable_at_large_preactivations():
    for kind in ALL_KINDS:
        act = activations.make(kind, 1.0)
        with np.errstate(over="raise"):
            vals = [act(700.0), act(-700.0), act.d1(700.0), act.d1(-700.0),
                    act.d2(700.0), act.d2(-700.0)]
        assert np.all(np.isfinite(vals))
    sp = activations.softplus(1.0)
    assert sp(700.0) == pytest.approx(700.0, rel=1e-12)


@pytest.mark.parametrize("kind", ["sigmoid", "softplus"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_logistic_matches_expit(kind, beta):
    # sigmoid's value and softplus's slope are 1 / (1 + exp(-beta x)) on numpy's
    # exp with the exponent capped at 709; expit evaluates the same formula on libm
    act = activations.make(kind, beta)
    rng = np.random.default_rng(17)
    x = np.concatenate([np.linspace(-800.0, 800.0, 160_001) / beta,
                        rng.standard_normal(100_000), 30.0 * rng.standard_normal(100_000)])
    got = act.derivs(x, 1)[0 if kind == "sigmoid" else 1]
    want = expit(beta * x)
    inside = beta * x > -700.0
    ulps = np.abs(got[inside].view(np.int64) - want[inside].view(np.int64))
    assert ulps.max() <= 4
    assert np.abs(got[~inside] - want[~inside]).max() <= 1.3e-308


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_derivs_warn_nothing_at_extreme_preactivations(kind, beta):
    act = oracles.make_activation(kind, beta)
    x = np.array([-800.0, 800.0]) / beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = act.derivs(x, 2)
    assert all(np.isfinite(v).all() for v in out)


def test_domain_and_parameter_errors():
    act = activations.sigmoid(1.0)
    with pytest.raises(ValueError):
        act(float("nan"))
    with pytest.raises(ValueError):
        act.d1(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        activations.make("sigmoid", -1.0)
    for beta in (float("nan"), float("inf")):
        for kind in ("sigmoid", "softplus"):
            with pytest.raises(ValueError, match="finite"):
                activations.make(kind, beta)
    with pytest.raises(ValueError):
        activations.make("relu")
    # tanh takes no beta but 1: another would be dropped in silence
    for beta in (3.0, 0.5, float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(ValueError, match=f"tanh takes no beta: it must be 1, not {beta!r}"):
            activations.make("tanh", beta)
    assert activations.make("tanh", 1) == activations.tanh()
