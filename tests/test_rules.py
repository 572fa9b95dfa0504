import math
import re

import numpy as np
import pytest

from villanets import activations, datasets, diagnostics, dynamics, fpe, harness, model, rules
from villanets.datasets import DataRecipe
from villanets.dynamics import SgdConfig
from villanets.model import Dataset, LossSpec, Net


def scalar_spec(lam=0.5):
    net = Net(np.ones(1), np.zeros((1, 1)), activations.sigmoid(1.0))
    return LossSpec(net, Dataset(np.array([[1.0]]), np.array([0.0])), lam)


# 0.6 is the least ratio that rounds to a step, and halves round to even
@pytest.mark.parametrize("t_max, dt, least, n", [
    (1.0, 0.1, 1, 10), (0.6, 1.0, 1, 1), (1.5, 1.0, 2, 2), (2.5, 1.0, 2, 2), (3.5, 1.0, 1, 4),
    (1e3, 1e-6, 2, 10**9),
])
def test_steps_is_the_rounded_ratio(t_max, dt, least, n):
    got = rules.steps(t_max, dt, least)
    assert got == n and type(got) is int


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_positive_refuses_what_is_not_positive_and_finite(value):
    with pytest.raises(ValueError, match="^x must be positive and finite$"):
        rules.positive(value, "x")


def test_positive_takes_any_positive_finite_number():
    for value in (5e-324, 1.0, 2, np.float64(1e308)):
        rules.positive(value, "x")


# fpe.suggest_half_width, the fourth caller, is tested with the solver
@pytest.mark.parametrize("caller", [
    lambda s: diagnostics.v_s(scalar_spec(), s),
    lambda s: diagnostics.villani_scan(scalar_spec(), s),
    lambda s: fpe.build_grid(scalar_spec(), 4.0, 51, s),
], ids=["v_s", "villani_scan", "build_grid"])
@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_every_s_caller_raises_the_rule_message(caller, s):
    with pytest.raises(ValueError, match="^s must be positive and finite$"):
        caller(s)


@pytest.mark.parametrize("rule, args, value, want", [
    (rules.positive, (), 2, 2.0),
    (rules.at_least, (0,), np.float64(0.0), 0.0),
    (rules.at_least, (1, int), 2.0, 2),
    (rules.fraction, (), 1, 1.0),
    (rules.finite, (), -3, -3.0),
])
def test_each_range_rule_returns_the_number_it_checked(rule, args, value, want):
    got = rule(value, "x", *args)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("rule, args, value, message", [
    (rules.at_least, (0,), -1.0, "x must be finite and at least 0, not -1.0"),
    (rules.at_least, (0,), math.inf, "x must be finite and at least 0, not inf"),
    (rules.at_least, (8, int), 7, "x must be at least 8, not 7"),
    (rules.fraction, (), math.nan, r"x must be in \[0, 1\], not nan"),
    (rules.finite, (), -math.inf, "x must be finite, not -inf"),
])
def test_each_range_rule_names_the_key_and_the_value(rule, args, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rule(value, "x", *args)


def _recipe(seed=0):
    return DataRecipe("sine", 8, 8, seed, params={"d": 1})


def _sweep(jobs=1, base_seed=0):
    cfg = harness.SweepConfig((0.1,), (2,), _recipe(), SgdConfig(0.1, 4, 10), base_seed=base_seed)
    return harness.run_sweep(cfg, jobs)


def _sde(paths, s=0.1, dt=0.1, t_max=1.0, log_every=1):
    if paths:
        return dynamics.run_sde_paths(scalar_spec(), s, dt, t_max, [0, 1], log_every=log_every)
    return dynamics.run_sde(scalar_spec(), s, dt, t_max, log_every=log_every)


# each entry point's scalars: the call with that scalar set to ``v`` (and
# ``rng`` as its generator, where it takes one), int for a count, and a
# value out of its range
SCALARS = [
    *((run, key, lambda v, rng, paths=paths, key=key: _sde(paths, **{key: v}),
       int if key == "log_every" else float, bad)
      for run, paths in (("run_sde", False), ("run_sde_paths", True))
      for key, bad in (("s", -1.0), ("log_every", 0), ("t_max", -1.0), ("dt", 0.0))),
    ("villani_scan", "s", lambda v, rng: diagnostics.villani_scan(scalar_spec(), v), float, 0.0),
    ("villani_scan", "ray_count", lambda v, rng: diagnostics.villani_scan(scalar_spec(), 0.1, v),
     int, 7),
    ("v_s", "s", lambda v, rng: diagnostics.v_s(scalar_spec(), v), float, -1.0),
    ("scan_radii", "r_max", lambda v, rng: diagnostics.scan_radii(v), float, 9.0),
    ("build_grid", "half_width", lambda v, rng: fpe.build_grid(scalar_spec(), v, 51, 0.5),
     float, 0.0),
    ("build_grid", "m", lambda v, rng: fpe.build_grid(scalar_spec(), 4.0, v, 0.5), int, 7),
    ("build_grid", "s", lambda v, rng: fpe.build_grid(scalar_spec(), 4.0, 51, v), float, 0.0),
    ("suggest_half_width", "s", lambda v, rng: fpe.suggest_half_width(scalar_spec(), v),
     float, 0.0),
    ("gen_sine", "d", lambda v, rng: datasets.gen_sine(v, 8, 0.1, rng), int, 0),
    ("gen_sine", "noise_sd", lambda v, rng: datasets.gen_sine(1, 8, v, rng), float, -0.1),
    ("sample_teacher", "d", lambda v, rng: datasets.sample_teacher(v, 2, rng), int, 0),
    ("sample_teacher", "p_teacher", lambda v, rng: datasets.sample_teacher(1, v, rng), int, 0),
    ("corrupt_labels", "fraction",
     lambda v, rng: datasets.corrupt_labels(scalar_spec().data, v, 1.0, rng), float, 1.5),
    ("normalized_outer", "p", lambda v, rng: model.normalized_outer(v, 1.0), int, 0),
    ("normalized_outer", "x_bound", lambda v, rng: model.normalized_outer(2, v), float, 0.0),
    ("LossSpec", "lam", lambda v, rng: scalar_spec(v), float, -0.5),
    ("run_sweep", "jobs", lambda v, rng: _sweep(v), int, 0),
    # every seed is a count; an integrator checks each of its seeds
    *((run, "seed", call, int, -1) for run, call in (
        ("run_sde", lambda v, rng: dynamics.run_sde(scalar_spec(), 0.1, 0.1, 1.0, seed=v)),
        ("run_sde_paths",
         lambda v, rng: dynamics.run_sde_paths(scalar_spec(), 0.1, 0.1, 1.0, [0, v])),
        ("run_sgd_chains",
         lambda v, rng: dynamics.run_sgd_chains(scalar_spec(), SgdConfig(0.1, 1, 10), [0, v])),
        ("SgdConfig", lambda v, rng: SgdConfig(0.1, 1, 10, seed=v)),
        ("DataRecipe", lambda v, rng: _recipe(v)),
        ("villani_scan", lambda v, rng: diagnostics.villani_scan(scalar_spec(), 0.1, seed=v)))),
    ("SweepConfig", "base_seed", lambda v, rng: _sweep(base_seed=v), int, -1),
    ("AblationConfig", "base_seed",
     lambda v, rng: harness.AblationConfig(_recipe(), 0.1, 2, 0.1, 4, 10, base_seed=v), int, -1),
]


def _scalar_cases():
    for run, key, call, kind, bad in SCALARS:
        refused = [("bool", True, TypeError), ("str", "1", TypeError), ("range", bad, ValueError)]
        if kind is int:
            refused.append(("fraction", bad + 1.5, ValueError))   # in range but fractional
        for what, value, error in refused:
            yield pytest.param(call, key, value, error, id=f"{run}-{key}-{what}")


def _no_work(*args, **kwargs):
    raise AssertionError("work started before every scalar was checked")


@pytest.mark.parametrize("call, key, value, error", _scalar_cases())
def test_every_scalar_is_checked_by_its_rule_before_any_work(monkeypatch, call, key, value,
                                                             error):
    # the entry points compute through these, or draw from the generator
    # handed in; an integrator's first work is to sample its initial weights
    for owner, attr in ((model, "evaluate"), (model, "predict"), (dynamics.InitSpec, "sample"),
                        (DataRecipe, "realize")):
        monkeypatch.setattr(owner, attr, _no_work)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match=rf"(^|\W){re.escape(key)}\W"):
        call(value, rng)
    assert rng.bit_generator.state == state
