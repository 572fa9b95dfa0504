"""Depth-2 net, ridge-regularized squared loss, and its closed-form calculus.

The model is f(x) = a . sigma(W x) with the outer weights a fixed and the
p-by-d matrix W trainable.  The training objective on n pairs (x_i, y_i) is

    mean_i 0.5 * (y_i - f(x_i))^2  +  (lam / 2) * ||W||_F^2

Gradient and Laplacian (trace of the Hessian) are hand-coded closed forms,
computed with the loss from one forward pass by :func:`evaluate`;
finite-difference oracles in the test suite certify them.  The module also
provides the two landscape constants used throughout:

  * ``lambda_c``  - the critical ridge strength 2 * d1_sup * lip * B_x^2 * ||a||^2
    above which the objective has the coercive tail structure the dynamics
    and mixing modules rely on;
  * ``glip_bound`` - a closed-form upper bound on the gradient-Lipschitz
    (smoothness) coefficient, available for bounded activations.

All batched evaluation is single-threaded numpy with a fixed reduction
order, so repeated calls are bitwise-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rules
from .activations import Activation


def _readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable regression data with certified input/label bounds.

    ``x_bound`` = max_i ||x_i||_2 and ``y_bound`` = max_i |y_i| are always
    recomputed from the arrays at construction, never user-supplied, so the
    constants derived from them are certificates rather than assertions.
    ``xsq`` holds the row norms ||x_i||^2 that the Laplacian weights by.
    """

    xs: np.ndarray
    ys: np.ndarray
    x_bound: float = field(init=False)
    y_bound: float = field(init=False)
    xsq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xs = _readonly(np.atleast_2d(self.xs))
        ys = _readonly(np.atleast_1d(self.ys))
        if xs.ndim != 2 or ys.ndim != 1:
            raise ValueError("xs must be (n, d), ys must be (n,)")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys disagree on n")
        if xs.shape[0] < 1:
            raise ValueError("dataset needs at least one pair")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "x_bound", float(np.max(np.linalg.norm(xs, axis=1))))
        object.__setattr__(self, "y_bound", float(np.max(np.abs(ys))))
        object.__setattr__(self, "xsq", _readonly(np.sum(xs * xs, axis=-1)))

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]


@dataclass(frozen=True, eq=False)
class Net:
    """Depth-2 net: fixed outer weights ``a`` (p,), trainable ``w`` (p, d).

    ``a_col`` (the column a[:, None]) and ``a_sq`` (a * a) are the forms of
    ``a`` that :func:`evaluate` multiplies by."""

    a: np.ndarray
    w: np.ndarray
    act: Activation
    a_norm: float = field(init=False)
    a_col: np.ndarray = field(init=False, repr=False)
    a_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = _readonly(np.atleast_1d(self.a))
        w = _readonly(np.atleast_2d(self.w))
        if a.ndim != 1 or w.ndim != 2 or w.shape[0] != a.shape[0]:
            raise ValueError("a must be (p,) and w must be (p, d)")
        if a.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError("p and d must be at least 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
            raise ValueError("net weights must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a_norm", float(np.linalg.norm(a)))
        object.__setattr__(self, "a_col", _readonly(a[:, None]))
        object.__setattr__(self, "a_sq", _readonly(a * a))

    @property
    def p(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]


def normalized_outer(p: int, x_bound: float, signed: bool = False) -> np.ndarray:
    """Outer weights of magnitude 1 / (sqrt(p) * x_bound), so ||a||_2 * x_bound = 1.

    This is the normalization used by the experiment harness; with it the
    critical ridge strength reduces to 2 * d1_sup * lip.  ``signed`` flips
    every other sign, which zeroes the net's output offset a . sigma(0) for
    even p (useful when the targets are not one-sided); the norm, and hence
    every constant derived from it, is unchanged.
    """
    p, x_bound = rules.at_least(p, "p", 1, int), rules.positive(x_bound, "x_bound")
    a = np.full(p, 1.0 / (math.sqrt(p) * x_bound))
    if signed:
        a = a * np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
    return a


OUTER_MODES = ("normalized", "normalized_signed", "ones")


def check_outer_mode(mode: str) -> None:
    if mode not in OUTER_MODES:
        raise ValueError(f"unknown a_mode {mode!r}; expected one of {OUTER_MODES}")


def outer_weights(mode: str, p: int, x_bound: float) -> np.ndarray:
    """Outer weights by name, one of ``OUTER_MODES``, as spec files and the
    harness spell them: "normalized" and "normalized_signed" are
    :func:`normalized_outer` with all-positive and alternating signs,
    "ones" sets every a_j = 1.
    """
    check_outer_mode(mode)
    if mode == "ones":
        return np.ones(p)
    return normalized_outer(p, x_bound, signed=(mode == "normalized_signed"))


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Net + data + ridge strength; the unit every operation acts on.

    Immutable.  Like :class:`Net` and :class:`Dataset`, whose fields are
    arrays, a spec compares and hashes by identity.  ``lam`` is stored as a
    float.  ``lam_op``, ``half_lam_op`` and ``ridge_trace_op`` are lam,
    lam / 2 and the ridge term's Hessian trace lam * p * d as 0-d array
    operands of :func:`evaluate`.
    """

    net: Net
    data: Dataset
    lam: float
    lam_op: np.ndarray = field(init=False, repr=False)
    half_lam_op: np.ndarray = field(init=False, repr=False)
    ridge_trace_op: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam = rules.at_least(self.lam, "lam", 0)
        if self.net.d != self.data.d:
            raise ValueError(
                f"net input dim {self.net.d} does not match data dim {self.data.d}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_op", _readonly(lam))
        object.__setattr__(self, "half_lam_op", _readonly(0.5 * lam))
        object.__setattr__(self, "ridge_trace_op", _readonly(lam * self.p * self.d))

    @property
    def p(self) -> int:
        return self.net.p

    @property
    def d(self) -> int:
        return self.net.d

    @property
    def n(self) -> int:
        return self.data.n


def weights(spec: LossSpec, w=None, stacked=False) -> np.ndarray:
    """The net's own weights, or a caller-supplied (p, d) override (with
    ``stacked``, a (k, p, d) stack too) checked for shape and finiteness."""
    if w is None:
        return spec.net.w
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-2:] != (spec.p, spec.d) or w.ndim > 2 + stacked:
        raise ValueError(f"weight override must have shape {(spec.p, spec.d)}"
                         + (" or (k, p, d)" if stacked else ""))
    if not np.isfinite(w).all():
        raise ValueError("weight override must be finite")
    return w


_ORDER = {"loss": 0, "grad": 1, "laplacian": 2}
_HALF = _readonly(0.5)


@functools.cache
def _max_order(outputs: tuple) -> int:
    return max(_ORDER[name] for name in outputs)


@functools.cache
def _count(n: int) -> np.ndarray:
    """The sample count ``n`` as a 0-d array, one per count."""
    return _readonly(n)


def evaluate(spec: LossSpec, w: np.ndarray, outputs, batch=None, forward=None) -> tuple:
    """The ``outputs`` named, a tuple of any of 'loss', 'grad' and
    'laplacian', in the order named, from one forward pass at ``w``.

    Only the named outputs are computed, and sigma is differentiated only as
    far as the highest needs.  ``w`` is one (p, d) matrix or a (k, p, d)
    stack, which gives every output a leading axis of length k.  ``batch``
    restricts the data term to a non-empty array of sample indices: one
    (b,) array for all of ``w``, or a (k, b) array whose row i is the batch
    of ``w[i]``, exactly as k single evaluations would give.  ``w``
    is not checked here, in the inner loop, but where weights enter
    (:func:`weights`, the integrators): a row of a stack that is not finite
    gives outputs that mean nothing in its own row and changes no other.

    ``forward``, if given, is the caller's pre-activations ``w @ xs.T`` over
    the full data, used in place of this call's own matmul and never
    written; it is refused together with ``batch``, and not otherwise
    checked.  The outputs are bit for bit the kernel's own when ``forward``
    holds the bits that matmul gives.  One way to get them for w = r * D,
    with r a power of two: IEEE multiplication by r only moves the
    exponent, so every product and partial sum of ``(r * D) @ xs.T`` is r
    times that of ``D @ xs.T`` under the same BLAS call, and
    ``r * (D @ xs.T)`` is exact.  This holds absent overflow and subnormal
    products, whose rounding depends on the exponent.

    This is the inner loop of every SGD and Euler-Maruyama step, whose
    arrays are small enough that per-call costs outweigh the arithmetic:
    every constant is built once with the objects (:class:`Dataset`,
    :class:`Net`, :class:`LossSpec`, :class:`Activation` hold them as
    derived fields), and every operand is an array, 0-d for a scalar, since
    numpy converts a Python float or int operand on every call.  The 0-d
    operands hold the same doubles, so no result changes by a bit.  Each
    (..., p, n) and (..., p, d) temporary is written in place into an array
    this call owns, by the same IEEE operation on the same operands as the
    formula below (operands may swap; nothing is regrouped): the gradient's
    coefficient and the Laplacian's sigma'^2 reuse sigma's array, which
    nothing reads once the residual is formed.  ``w``, the data and the
    spec's constants are never written.

    With r_i = f(x_i) - y_i and means over the samples, row j of the
    gradient is mean_i a_j r_i sigma'(w_j.x_i) x_i + lam w_j, and the
    Laplacian is sum_j mean_i [a_j^2 sigma'^2 + r_i a_j sigma''] ||x_i||^2
    plus lam * p * d.

    The Laplacian's two sums are matrix-vector products, first over the
    samples and then over the rows, each with a trailing axis of length
    one: a stack then runs the same BLAS call per matrix as a single
    matrix does, so stacked and single evaluations agree bit for bit.
    """
    data, net = spec.data, spec.net
    xs, ys = data.xs, data.ys
    if batch is not None:
        if forward is not None:
            raise ValueError("forward holds the full data's pre-activations: it takes no batch")
        xs, ys = xs.take(batch, axis=0), ys.take(batch, axis=0)
    if forward is None:
        forward = w @ xs.swapaxes(-1, -2)
    n = _count(xs.shape[-2])
    sig = net.act.derivs(forward, _max_order(outputs))   # each (..., p, n)
    r = net.a @ sig[0]                                    # (..., n)
    r -= ys
    spare = sig[0]            # sigma's array, which nothing reads after r
    out = []
    for name in outputs:
        if name == "grad":
            coef = np.multiply(net.a_col, sig[1], out=spare)
            coef *= r[..., None, :]
            g = coef @ xs
            g /= n
            g += spec.lam_op * w
            out.append(g)
        elif name == "loss":
            # add.reduce / n is np.mean's own arithmetic, without its wrappers
            out.append(_HALF * (np.add.reduce(r * r, axis=-1) / n)
                       + spec.half_lam_op * np.add.reduce(w * w, axis=(-2, -1)))
        else:
            xsq = data.xsq if batch is None else data.xsq.take(batch)
            sq_term = net.a_sq @ (np.multiply(sig[1], sig[1], out=spare) @ xsq[..., None])
            curv_term = net.a @ (sig[2] @ (r * xsq)[..., None])
            out.append((sq_term + curv_term)[..., 0] / n + spec.ridge_trace_op)
    return tuple(out)


def predict(spec: LossSpec, xs: np.ndarray, w=None) -> np.ndarray:
    """Net outputs for a batch of inputs (rows of xs): (n,) at one (p, d)
    matrix ``w``, (k, n) at a (k, p, d) stack, row i bit for bit that of w[i]."""
    xs = np.asarray(xs, dtype=np.float64)
    if not np.isfinite(xs).all():
        raise ValueError("inputs must be finite")
    net = spec.net
    return net.a @ net.act.derivs(weights(spec, w, stacked=True) @ xs.T, 0)[0]


def loss(spec: LossSpec, w=None) -> float:
    return float(evaluate(spec, weights(spec, w), ("loss",))[0])


def grad(spec: LossSpec, w=None) -> np.ndarray:
    """Full gradient of the objective: data term average plus lam * W."""
    return evaluate(spec, weights(spec, w), ("grad",))[0]


def laplacian(spec: LossSpec, w=None) -> float:
    """Trace of the Hessian of the objective."""
    return float(evaluate(spec, weights(spec, w), ("laplacian",))[0])


def lambda_c(net: Net, data: Dataset) -> float:
    """Critical ridge strength 2 * d1_sup * lip * x_bound^2 * ||a||_2^2."""
    act = net.act
    return 2.0 * act.d1_sup * act.lipschitz * data.x_bound**2 * net.a_norm**2


def glip_bound(spec: LossSpec) -> float:
    """Closed-form upper bound on the gradient-Lipschitz coefficient.

    Requires a bounded activation (the bound carries a sup|sigma| factor), so
    softplus is rejected.
    """
    act = spec.net.act
    if not act.bounded:
        raise ValueError(
            "smoothness bound needs a bounded activation; "
            f"{act.kind} has sup|sigma| = inf"
        )
    p = spec.p
    an, bx, by = spec.net.a_norm, spec.data.x_bound, spec.data.y_bound
    row = (
        an * bx * by * act.d2_sup
        + math.sqrt(p) * an**2 * act.d1_sup**2 * bx**2
        + p * an**2 * bx**2 * act.d2_sup * act.sup_value
        + spec.lam
    )
    return math.sqrt(p) * row


def offset_norm(net: Net) -> float:
    """2-norm of the constant layer output sigma(0) * ones(p)."""
    return math.sqrt(net.p) * abs(net.act.at_zero)
