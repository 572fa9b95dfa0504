"""Smooth scalar activations with exact derivatives and certified constants.

Each activation carries the constants every bound downstream needs:
the sup of |sigma|, the Lipschitz constant of sigma, the sups of the first
and second derivatives, and sigma(0).  The sup of |sigma''| is also the
Lipschitz constant of sigma'.  Every formula is written once, in
:meth:`Activation.derivs`.  The logistic function of sigmoid and softplus is
1 / (1 + exp(-z)) on numpy's vectorized ``exp``, with the exponent capped at
709 so no pre-activation overflows or warns: below z = -709 it returns
~1.2e-308 in place of e^z, an absolute error under 1.3e-308.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("sigmoid", "tanh", "softplus")

# The logistic's constants as 0-d arrays: numpy converts a Python float
# operand on every ufunc call, ~0.3 us per call on an SGD step's small arrays.
# The cap keeps exp finite: exp(709) < DBL_MAX < exp(710).
_ONE, _TWO, _EXP_CAP = np.array(1.0), np.array(2.0), np.array(709.0)


def _check_finite(x):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    return arr


@dataclass(frozen=True)
class Activation:
    """An elementwise nonlinearity plus its certified derivative constants.

    Attributes:
        kind: one of 'sigmoid', 'tanh', 'softplus'.
        beta: shape parameter (> 0); ignored for tanh.
        sup_value: sup |sigma(x)| over the reals (inf for softplus).
        lipschitz: Lipschitz constant of sigma.
        d1_sup: sup |sigma'(x)|.
        d2_sup: sup |sigma''(x)|, which is also the Lipschitz constant of
            sigma'.
        at_zero: sigma(0). The constant offset vector for a width-p layer
            is sigma(0) * ones(p), with 2-norm sqrt(p) * |sigma(0)|.
    """

    kind: str
    beta: float
    sup_value: float
    lipschitz: float
    d1_sup: float
    d2_sup: float
    at_zero: float

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sup_value)

    def derivs(self, x: np.ndarray, order: int) -> tuple:
        """(sigma, sigma', sigma'')[: order + 1] at the array ``x``, all from
        one logistic function 1 / (1 + exp(-beta x)) or one tanh.

        ``x`` is not checked: the public views below check their input, and
        the model checks weights and data where they enter.  At beta == 1 the
        multiplies by beta are skipped, which is exact (1.0 * x == x).
        """
        b = self.beta
        if self.kind == "tanh":
            t = np.tanh(x)
            d1 = 1.0 - t * t if order else None
            d2 = -2.0 * t * d1 if order > 1 else None
            return (t, d1, d2)[: order + 1]
        z = x if b == 1.0 else b * x
        softplus = self.kind == "softplus"
        s = _ONE / (_ONE + np.exp(np.minimum(-z, _EXP_CAP))) if order or not softplus else None
        # beta s (1 - s): sigma' of sigmoid, sigma'' of softplus
        ds = (s if b == 1.0 else b * s) * (_ONE - s) if order > softplus else None
        if softplus:
            # log(1 + e^(beta x)) / beta via stable log-sum-exp; its slope is s
            return (np.logaddexp(0.0, z) / b, s, ds)[: order + 1]
        d2 = (ds if b == 1.0 else b * ds) * (_ONE - _TWO * s) if order > 1 else None
        return (s, ds, d2)[: order + 1]

    def _view(self, x, k: int):
        out = self.derivs(_check_finite(x), k)[k]
        return float(out) if out.ndim == 0 else out

    def __call__(self, x):
        return self._view(x, 0)

    def d1(self, x):
        return self._view(x, 1)

    def d2(self, x):
        return self._view(x, 2)

    def table(self) -> dict:
        """Constant table for reporting (JSON-friendly)."""
        return {
            "kind": self.kind,
            "beta": self.beta,
            "sup_value": self.sup_value,
            "lipschitz": self.lipschitz,
            "d1_sup": self.d1_sup,
            "d2_sup": self.d2_sup,
            "at_zero": self.at_zero,
        }


def make(kind: str, beta: float = 1.0) -> Activation:
    """Build an activation with all constant fields filled in.

    Closed forms for the derivative sups:
      sigmoid: sup|sigma'| = beta/4, sup|sigma''| = beta^2/(6*sqrt(3))
      tanh:    sup|sigma'| = 1,      sup|sigma''| = 4/(3*sqrt(3))
      softplus:sup|sigma'| = 1,      sup|sigma''| = beta/4
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown activation kind {kind!r}; expected one of {KINDS}")
    if kind != "tanh" and beta <= 0:
        raise ValueError("beta must be positive")
    if kind == "sigmoid":
        d2 = beta**2 / (6.0 * math.sqrt(3.0))
        return Activation("sigmoid", beta, 1.0, beta / 4.0, beta / 4.0, d2, 0.5)
    if kind == "tanh":
        d2 = 4.0 / (3.0 * math.sqrt(3.0))
        return Activation("tanh", 1.0, 1.0, 1.0, 1.0, d2, 0.0)
    return Activation("softplus", beta, math.inf, 1.0, 1.0, beta / 4.0, math.log(2.0) / beta)


def sigmoid(beta: float = 1.0) -> Activation:
    return make("sigmoid", beta)


def tanh() -> Activation:
    return make("tanh")


def softplus(beta: float = 1.0) -> Activation:
    return make("softplus", beta)
