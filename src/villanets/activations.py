"""Smooth scalar activations with exact derivatives and certified constants.

Each activation derives, from its kind and beta, the constants every bound
downstream needs (see :class:`Activation`).  Every formula is written once, in
:meth:`Activation.derivs`, in place where a workload runs it.  The logistic
function of sigmoid and softplus is 1 / (1 + exp(-z)) on numpy's ``exp``,
with the exponent capped at 709 so no pre-activation overflows or warns:
below z = -709 it returns ~1.2e-308 in place of e^z, an absolute error
under 1.3e-308.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import rules

KINDS = ("sigmoid", "tanh", "softplus")

# The formulas' constants as 0-d arrays: numpy converts a Python float operand
# on every ufunc call, ~0.3-0.6 us per call on an SGD step's small arrays.
# The cap keeps exp finite: exp(709) < DBL_MAX < exp(710).
_ZERO, _ONE, _TWO, _MINUS_TWO = np.array(0.0), np.array(1.0), np.array(2.0), np.array(-2.0)
_EXP_CAP = np.array(709.0)


def _check_finite(x):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    return arr


@dataclass(frozen=True)
class Activation:
    """An elementwise nonlinearity plus its certified derivative constants.

    Built from ``kind`` and ``beta`` alone, which it checks: ``beta`` must
    be a number by :func:`~villanets.rules.as_number` (``TypeError``), the
    rest is a ``ValueError``.  Every other field is derived from them, as
    :class:`~villanets.model.Dataset` derives its bounds, so
    ``dataclasses.replace`` re-derives them too.
    Closed forms, each Lipschitz constant being sup|sigma'|:
      sigmoid:  sup|sigma| = 1,   sup|sigma'| = beta/4, sup|sigma''| = beta^2/(6 sqrt 3)
      tanh:     sup|sigma| = 1,   sup|sigma'| = 1,      sup|sigma''| = 4/(3 sqrt 3)
      softplus: sup|sigma| = inf, sup|sigma'| = 1,      sup|sigma''| = beta/4

    Attributes:
        kind: one of 'sigmoid', 'tanh', 'softplus'.
        beta: shape parameter, positive and finite; tanh takes only 1.
        sup_value: sup |sigma(x)| over the reals (inf for softplus).
        lipschitz: Lipschitz constant of sigma.
        d1_sup: sup |sigma'(x)|.
        d2_sup: sup |sigma''(x)|, which is also the Lipschitz constant of
            sigma'.
        at_zero: sigma(0). The constant offset vector for a width-p layer
            is sigma(0) * ones(p), with 2-norm sqrt(p) * |sigma(0)|.
        beta_op: beta as a 0-d array operand for :meth:`derivs`; None where
            beta == 1, whose multiplies and divides by beta are skipped.
    """

    kind: str
    beta: float
    sup_value: float = field(init=False)
    lipschitz: float = field(init=False)
    d1_sup: float = field(init=False)
    d2_sup: float = field(init=False)
    at_zero: float = field(init=False)
    beta_op: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}; expected one of {KINDS}")
        beta = rules.as_number(self.beta, "beta")
        if self.kind == "tanh" and beta != 1.0:   # NaN included
            raise ValueError(f"tanh takes no beta: it must be 1, not {beta!r}")
        rules.positive(beta, "beta")
        if self.kind == "sigmoid":
            derived = (1.0, beta / 4.0, beta / 4.0, beta**2 / (6.0 * math.sqrt(3.0)), 0.5)
        elif self.kind == "tanh":
            derived = (1.0, 1.0, 1.0, 4.0 / (3.0 * math.sqrt(3.0)), 0.0)
        else:
            derived = (math.inf, 1.0, 1.0, beta / 4.0, math.log(2.0) / beta)
        values = (beta, *derived, None if beta == 1.0 else np.array(beta))
        for f, value in zip(fields(self)[1:], values, strict=True):  # every field after kind
            object.__setattr__(self, f.name, value)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sup_value)

    def derivs(self, x: np.ndarray, order: int) -> tuple:
        """(sigma, sigma', sigma'')[: order + 1] at the array ``x``, all from
        one logistic function 1 / (1 + exp(-beta x)) or one tanh.

        ``x`` is not checked: the public views below check their input, and
        the model checks weights and data where they enter.  At beta == 1 the
        multiplies and divides by beta are skipped, which is exact
        (1.0 * x == x / 1.0 == x).  Every operand is an array.

        In place on the path a workload measures, sigmoid at beta == 1: the
        logistic chain runs in one array, sigma' and sigma'' in their own,
        each step the formula's IEEE operation on the same operands (a
        product's or sum's may swap; nothing is regrouped or folded), so the
        bits are the formula's.  Tanh, the softplus value and beta != 1 are
        the formulas written out.  ``x`` is never written and must have a
        dimension (a ufunc gives a scalar for 0-d input), so the views pass
        a 0-d input as one element.
        """
        if self.kind == "tanh":
            t = np.tanh(x)
            if not order:
                return (t,)
            d1 = _ONE - t * t
            return (t, d1) if order == 1 else (t, d1, (_MINUS_TWO * t) * d1)
        b = self.beta_op
        softplus = self.kind == "softplus"
        z = x if b is None else b * x
        s = ds = None
        if order or not softplus:
            # 1 / (1 + exp(min(-z, 709))) in one array
            s = np.negative(z)
            np.minimum(s, _EXP_CAP, out=s)
            np.exp(s, out=s)
            s += _ONE
            np.divide(_ONE, s, out=s)
        if order > softplus:
            # (beta s)(1 - s): sigma' of sigmoid, sigma'' of softplus
            ds = np.subtract(_ONE, s)
            ds *= s if b is None else b * s
        if softplus:
            # log(1 + e^(beta x)) / beta via stable log-sum-exp; its slope is s
            value = np.logaddexp(_ZERO, z)
            return (value if b is None else value / b, s, ds)[: order + 1]
        if order < 2:
            return (s, ds)[: order + 1]
        # (beta ds)(1 - 2 s)
        d2 = np.multiply(_TWO, s)
        np.subtract(_ONE, d2, out=d2)
        d2 *= ds if b is None else b * ds
        return (s, ds, d2)

    def _view(self, x, k: int):
        arr = _check_finite(x)
        if arr.ndim:
            return self.derivs(arr, k)[k]
        return float(self.derivs(arr.reshape(1), k)[k][0])

    def __call__(self, x):
        return self._view(x, 0)

    def d1(self, x):
        return self._view(x, 1)

    def d2(self, x):
        return self._view(x, 2)

    def table(self) -> dict:
        """Kind, beta and the derived constants, for reporting (JSON-friendly)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def make(kind: str, beta: float = 1.0) -> Activation:
    """The activation ``kind`` (any case) with shape parameter ``beta``."""
    return Activation(kind.lower(), beta)


def sigmoid(beta: float = 1.0) -> Activation:
    return make("sigmoid", beta)


def tanh() -> Activation:
    return make("tanh")


def softplus(beta: float = 1.0) -> Activation:
    return make("softplus", beta)
