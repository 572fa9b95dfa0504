import math

import numpy as np
import pytest

from villanets import activations, diagnostics, fpe, rules
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
