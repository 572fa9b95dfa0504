"""Constant-step minibatch SGD, and Euler-Maruyama for dW = -grad dt + sqrt(s) dB.

Both integrators log loss / gradient-norm trajectories of a
:class:`~villanets.model.LossSpec`.  The theorem's SGD, W <- W - s grad + s G
(G standard normal), is :func:`run_sde` at dt = s, whose law the FPE density,
the gap and the Villani scan describe.  Minibatch SGD (i.i.d. uniform draws
with replacement) follows the stochastic modified equation, noise covariance
eta Sigma(W) / b: its stationary law was measured ~100x narrower than the
Gibbs law.  Runs are deterministic given the seed.  Each chain owns its
generator, so an ensemble of seeds advances as one stack of weight
matrices (:func:`run_sgd_chains`, :func:`run_sde_paths`) and every chain
in it ends exactly as its lone run does.

One step of the toy chains (p=2, d=2, b=4) costs ~16 us in ``run_sgd`` (min
of 7 runs of 50,000 steps on a 2-vCPU Xeon, Python 3.11, numpy 2.4), nearly
all of it fixed per-call cost rather than arithmetic, so the step path
(:func:`_integrate` -> :func:`sgd_step`, full batch plus the noise in the
Euler-Maruyama step -> :func:`~villanets.model.evaluate` ->
``Activation.derivs``) keeps four rules:

* constants are hoisted: the model's objects carry theirs as derived
  fields, and the integrators turn the step size, ``dt`` and
  ``sqrt(s * dt)`` into 0-d arrays once per run;
* every operand is an array, 0-d for a scalar: numpy converts a Python
  float operand on every call (~0.6 us on these arrays), and a 0-d array
  holds the same double, so no bit changes;
* each step's weights are checked by :func:`_all_finite`, whose exact
  pre-check is one dot product;
* on the path a workload measures, each temporary is written in place,
  into an array that the same call allocated, by the same IEEE operation
  on the same operands (operands may swap; nothing is regrouped and no
  constant folded), so no bit changes; elsewhere the formula is written
  out.  Nothing the caller owns is written: not the
  input of ``derivs``, not the ``w`` given to ``evaluate`` or
  :func:`sgd_step` (:func:`_integrate` keeps the previous stack for
  ``DivergenceError.last_w``), not the data arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .datasets import as_number, numbers_as_declared
from .model import LossSpec

DIVERGENCE_LIMIT = 1e12
# Random numbers one chain draws per call: the integrators draw a chain's
# minibatch indices or noise for a block of up to BLOCK_NUMBERS // (numbers
# per step) steps at once.  A block consumes the generator exactly as the
# same steps drawn one by one, so the size trades memory (8 bytes per number
# and chain) against call overhead and changes no result.
BLOCK_NUMBERS = 1 << 14


class DivergenceError(RuntimeError):
    """Raised when the weights or the loss leave the finite regime; carries
    the last finite state for post-mortems."""

    def __init__(self, message: str, last_w: np.ndarray, step: int):
        super().__init__(message)
        self.last_w = last_w
        self.step = step


@dataclass(frozen=True)
class InitSpec:
    """Weight initialization: 'gaussian' (i.i.d. N(0, tau^2)), 'zero', or
    'explicit' with a given matrix.

    In gaussian mode with ``tau=None`` the scale defaults to
    sqrt(s / (4 * lam)); that keeps the initial density inside the class of
    laws whose squared ratio against the Gibbs factor exp(-2*loss/s) is
    integrable, the initialization requirement of the convergence theory
    for :func:`run_sde`'s s.  :func:`run_sgd` passes its step size as s,
    although minibatch SGD's law is far narrower.  (tau=1 when lam = 0.)
    """

    mode: str = "gaussian"
    tau: float | None = None
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("gaussian", "zero", "explicit"):
            raise ValueError(f"unknown init mode {self.mode!r}")
        # a setting that the mode never reads would be dropped in silence
        for name, mode in (("tau", "gaussian"), ("w0", "explicit")):
            if getattr(self, name) is not None and self.mode != mode:
                raise ValueError(f"{name} is read only in {mode} mode, not in {self.mode} mode")
        numbers_as_declared(self)
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.mode == "explicit" and self.w0 is None:
            raise ValueError("explicit init needs w0")
        entries = [] if self.w0 is None else np.asarray(self.w0, dtype=object).ravel()
        if not np.isfinite([as_number(v, "w0 entry") for v in entries]).all():
            raise ValueError("w0 must be finite")

    def sample(self, rng: np.random.Generator, p: int, d: int, lam: float, s: float):
        if self.mode == "zero":
            return np.zeros((p, d))
        if self.mode == "explicit":
            w0 = np.asarray(self.w0, dtype=np.float64)
            if w0.shape != (p, d):
                raise ValueError(f"w0 must have shape {(p, d)}")
            return w0.copy()
        tau = self.tau
        if tau is None:
            tau = math.sqrt(s / (4.0 * lam)) if lam > 0 else 1.0
        return tau * rng.standard_normal((p, d))


@dataclass(frozen=True)
class SgdConfig:
    step_size: float
    batch_size: int
    steps: int
    seed: int = 0
    init: InitSpec = field(default_factory=InitSpec)
    log_every: int = 100

    def __post_init__(self):
        numbers_as_declared(self)
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


@dataclass
class Trajectory:
    """Logged run: times, losses, gradient norms, and the final weights.

    ``eval_values`` holds what the run's ``eval_fn`` returned, one row per
    log point (a scalar gets a single column; ``eval_fn=np.copy`` gives the
    (p, d) weights), and is None without one.  The rng digest fingerprints
    the terminal generator state for reproducibility checks.
    """

    times: np.ndarray
    steps: np.ndarray
    losses: np.ndarray
    grad_norms: np.ndarray
    final_w: np.ndarray
    rng_state_digest: str
    eval_values: np.ndarray | None = None


def _digest(rng: np.random.Generator) -> str:
    return hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()


def sgd_step(spec: LossSpec, w: np.ndarray, batch_indices, s) -> np.ndarray:
    """One update W <- (1 - s*lam) W + (s/b) sum_{i in B} (y_i - f(x_i)) grad_W f(x_i).

    ``batch_indices`` None is the full batch.  ``s`` is a float or, from the
    integrators, the same float as a 0-d array.  ``w`` must be finite; the
    integrators check the weights of every step."""
    if batch_indices is not None:
        batch_indices = np.asarray(batch_indices)
        if batch_indices.size == 0:
            raise ValueError("batch must be non-empty")
    g = model.evaluate(spec, w, ("grad",), batch_indices)[0]
    g *= s
    return np.subtract(w, g, out=g)


def _all_finite(w: np.ndarray) -> bool:
    """Whether every entry of ``w`` is finite.  Exact: the sum of squares is
    NaN or inf when an entry is, and when it is inf because finite entries
    (beyond ~1e154) overflow it, the elementwise check decides."""
    return math.isfinite(np.vdot(w, w)) or bool(np.isfinite(w).all())


class _Chain:
    """One chain of a stack: its own generator and its log."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.steps, self.losses, self.gnorms, self.evals = [], [], [], []

    def trajectory(self, final_w: np.ndarray, dt: float) -> Trajectory:
        return Trajectory(
            times=np.array(self.steps) * dt,
            steps=np.array(self.steps),
            losses=np.array(self.losses),
            grad_norms=np.array(self.gnorms),
            final_w=final_w,
            rng_state_digest=_digest(self.rng),
            eval_values=np.array(self.evals) if self.evals else None,
        )


def _integrate(spec: LossSpec, seeds, init: InitSpec, init_s: float, n_steps: int,
               dt: float, log_every: int, step, draw=None, draw_shape=(),
               eval_fn=None) -> list:
    """Advance one chain per seed for ``n_steps`` steps of length ``dt``, all
    chains as one (R, p, d) stack; the loop of both integrators.

    Chain r samples its initial weights from its own
    ``np.random.default_rng(seeds[r])``, then ``draw(rng, (K, *draw_shape))``
    draws its random numbers for the next K steps in one call, which
    consumes the generator exactly as K per-step draws would.
    ``step(w, drawn)`` maps the stack and the chains' draws for this step
    (None without ``draw``) to the next stack.  Loss, gradient norm and
    ``eval_fn(w)``, with one chain's (p, d) weights, are logged at step 0,
    every ``log_every`` steps and at the last step.  Returns, per seed, the
    chain's :class:`Trajectory` or the :class:`DivergenceError` a lone run
    of it raises: at the first step whose weights are not finite, or at the
    first log point whose loss exceeds ``DIVERGENCE_LIMIT``.  A diverged
    chain leaves the stack; the others go on.  Overflow on the way to a
    divergence is not warned about, since the check above reports it.
    """
    chains = [_Chain(seed) for seed in seeds]
    out = [None] * len(chains)
    if not chains:
        return out
    live = list(range(len(chains)))                  # the chain of each stack row
    w = w_prev = np.stack([init.sample(c.rng, spec.p, spec.d, spec.lam, init_s) for c in chains])
    block = n_steps if draw is None else max(1, BLOCK_NUMBERS // math.prod(draw_shape))
    drawn, j, size = None, 0, 0      # drawn: (R, size, *draw_shape); drawn[:, j] is next
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            diverged = {}                            # stack row -> what left the finite regime
            if k and not _all_finite(w):
                diverged = dict.fromkeys(np.flatnonzero(~np.isfinite(w).all(axis=(1, 2))).tolist(),
                                         "weights")
            if k % log_every == 0 or k == n_steps:
                values, grads = model.evaluate(spec, w, ("loss", "grad"))
                for i, value in enumerate(values.tolist()):
                    if i in diverged:
                        continue
                    if not value <= DIVERGENCE_LIMIT:  # also true for NaN
                        diverged[i] = f"loss ({value!r})"
                        continue
                    c = chains[live[i]]
                    c.steps.append(k)
                    c.losses.append(value)
                    c.gnorms.append(float(np.linalg.norm(grads[i])))
                    if eval_fn is not None:
                        c.evals.append(np.atleast_1d(np.asarray(eval_fn(w[i]), dtype=np.float64)))
            if diverged:
                for i, what in diverged.items():
                    out[live[i]] = DivergenceError(f"{what} left the finite regime at step {k}",
                                                   last_w=w_prev[i].copy(), step=k)
                keep = [i not in diverged for i in range(len(live))]
                live = [c for c, kept in zip(live, keep) if kept]
                if not live:
                    break
                w = w[keep]
                if drawn is not None:
                    drawn = drawn[keep]
            if k == n_steps:
                break
            if j == size:
                size, j = min(n_steps - k, block), 0
                if draw is not None:
                    drawn = np.stack([draw(chains[c].rng, (size, *draw_shape)) for c in live])
            w_prev, w = w, step(w, None if drawn is None else drawn[:, j])
            j += 1
    for i, c in enumerate(live):
        out[c] = chains[c].trajectory(w[i].copy(), dt)
    return out


def run_sgd_chains(spec: LossSpec, config: SgdConfig, seeds, eval_fn=None) -> list:
    """:func:`run_sgd` under ``config`` once per seed (``config.seed`` is not
    used), all chains advanced as one stack, with one ``sgd_step`` per step.

    Returns one entry per seed: the :class:`Trajectory` of
    ``run_sgd(spec, replace(config, seed=seed), eval_fn)``, bit for bit, or
    the :class:`DivergenceError` that run raises.  A chain that diverges
    leaves the stack; the others go on.  ``eval_fn`` is called with one
    chain's (p, d) weights at a time.
    """
    if config.batch_size > spec.n:
        raise ValueError(f"batch_size must be in [1, {spec.n}]")
    s = config.step_size
    s_op = np.array(float(s))

    def draw(rng, size):
        return rng.integers(0, spec.n, size=size)

    def step(w, batch):
        return sgd_step(spec, w, batch, s_op)

    return _integrate(spec, seeds, config.init, s, config.steps, s, config.log_every, step,
                      None if config.batch_size == spec.n else draw, (config.batch_size,),
                      eval_fn=eval_fn)


def run_sgd(spec: LossSpec, config: SgdConfig, eval_fn=None) -> Trajectory:
    """Run constant-step minibatch SGD; minibatches are i.i.d. uniform with
    replacement, one draw per step.  ``batch_size == n`` uses the full
    dataset deterministically, so that setting is exact gradient descent
    (and inherits its descent guarantee for steps below the inverse
    smoothness bound).  Deterministic given ``config.seed``.

    Raises :class:`DivergenceError` at the first step whose weights are not
    finite, or at the first log point whose loss exceeds
    ``DIVERGENCE_LIMIT``, whatever ``log_every`` is.
    """
    return _one(run_sgd_chains(spec, config, [config.seed], eval_fn))


def run_sde_paths(spec: LossSpec, s: float, dt: float, t_max: float, seeds,
                  init: InitSpec | None = None, log_every: int = 1, eval_fn=None) -> list:
    """:func:`run_sde` once per seed, all paths advanced as one stack.

    Returns one entry per seed: the :class:`Trajectory` of ``run_sde`` with
    that seed and the same arguments, bit for bit, or the
    :class:`DivergenceError` that run raises.  A path that diverges leaves
    the stack; the others go on.  ``eval_fn`` is called with one path's
    (p, d) weights at each log point, as in :func:`run_sgd_chains`, so
    ``eval_fn=np.copy`` records the weights and ensemble moments read off
    ``eval_values``.
    """
    if not (0 <= s < math.inf and 0 < dt < math.inf and 0 < t_max < math.inf):
        raise ValueError("need finite s >= 0, dt > 0, t_max > 0")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    dt_op, noise_scale = np.array(float(dt)), np.array(math.sqrt(s * dt))

    def draw(rng, size):
        return noise_scale * rng.standard_normal(size)

    def step(w, noise):
        w = sgd_step(spec, w, None, dt_op)
        w += noise
        return w

    return _integrate(spec, seeds, init or InitSpec(), s if s > 0 else dt,
                      max(1, int(round(t_max / dt))), dt, log_every, step, draw,
                      (spec.p, spec.d), eval_fn=eval_fn)


def run_sde(
    spec: LossSpec,
    s: float,
    dt: float,
    t_max: float,
    seed: int = 0,
    init: InitSpec | None = None,
    log_every: int = 1,
    eval_fn=None,
) -> Trajectory:
    """Euler-Maruyama for dW = -grad(W) dt + sqrt(s) dB.

    Each step: W <- W - dt * grad + sqrt(s * dt) * G with i.i.d. standard
    normal G.  ``s = 0`` reduces to explicit-Euler gradient flow.  Raises
    :class:`DivergenceError` as :func:`run_sgd` does.
    """
    return _one(run_sde_paths(spec, s, dt, t_max, [seed], init, log_every, eval_fn))


def _one(outcomes: list) -> Trajectory:
    """The lone entry of a one-seed stack, raised if it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
