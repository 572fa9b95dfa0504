"""Constant-step minibatch SGD and its small-noise diffusion limit.

Both integrators operate on a :class:`~villanets.model.LossSpec` and log
loss / gradient-norm trajectories.  Minibatches are i.i.d. uniform with
replacement, matching the noise model under which the diffusion limit is
derived.  Runs are deterministic given the seed; each run owns its
generator, so ensembles parallelize trivially.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import LossSpec

DIVERGENCE_LIMIT = 1e12


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
    integrable, which is the qualitative initialization requirement of the
    convergence theory.  (Falls back to tau=1 when lam = 0.)
    """

    mode: str = "gaussian"
    tau: float | None = None
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("gaussian", "zero", "explicit"):
            raise ValueError(f"unknown init mode {self.mode!r}")
        if self.mode == "gaussian" and self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.mode == "explicit" and self.w0 is None:
            raise ValueError("explicit init needs w0")
        if self.w0 is not None and not np.isfinite(np.asarray(self.w0, dtype=np.float64)).all():
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

    def validate(self, n: int) -> None:
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 1 <= self.batch_size <= n:
            raise ValueError(f"batch_size must be in [1, {n}]")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


@dataclass
class Trajectory:
    """Logged run: times, losses, gradient norms, and the final weights.

    ``eval_values`` holds the optional held-out metrics at each log point,
    one row per log point (scalar metrics get a single column); ``weights``
    holds weight snapshots when requested.  The rng digest fingerprints the
    terminal generator state for reproducibility checks.
    """

    times: np.ndarray
    steps: np.ndarray
    losses: np.ndarray
    grad_norms: np.ndarray
    final_w: np.ndarray
    rng_state_digest: str
    eval_values: np.ndarray | None = None
    weights: list | None = None


def _digest(rng: np.random.Generator) -> str:
    return hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()


def sgd_step(spec: LossSpec, w: np.ndarray, batch_indices, s: float) -> np.ndarray:
    """One update W <- (1 - s*lam) W + (s/b) sum_{i in B} (y_i - f(x_i)) grad_W f(x_i).

    ``w`` must be finite; the integrators check the weights of every step."""
    batch_indices = np.asarray(batch_indices)
    if batch_indices.size == 0:
        raise ValueError("batch must be non-empty")
    return w - s * model.evaluate(spec, w, ("grad",), batch_indices)[0]


def _diverged(what: str, step: int, last_w: np.ndarray) -> DivergenceError:
    return DivergenceError(f"{what} left the finite regime at step {step}",
                           last_w=last_w, step=step)


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
    config.validate(spec.n)
    rng = np.random.default_rng(config.seed)
    s = config.step_size
    full_batch = np.arange(spec.n) if config.batch_size == spec.n else None
    w = config.init.sample(rng, spec.p, spec.d, spec.lam, s)
    times, steps, losses, gnorms, evals = [], [], [], [], []

    def log(k: int, wk: np.ndarray, last_w: np.ndarray):
        value, g = model.evaluate(spec, wk, ("loss", "grad"))
        if not value <= DIVERGENCE_LIMIT:  # also true for NaN
            raise _diverged(f"loss ({float(value)!r})", k, last_w)
        times.append(k * s)
        steps.append(k)
        losses.append(float(value))
        gnorms.append(float(np.linalg.norm(g)))
        if eval_fn is not None:
            evals.append(np.atleast_1d(np.asarray(eval_fn(wk), dtype=np.float64)))

    log(0, w, w)
    for k in range(1, config.steps + 1):
        batch = (full_batch if full_batch is not None
                 else rng.integers(0, spec.n, size=config.batch_size))
        w_next = sgd_step(spec, w, batch, s)
        if not np.isfinite(w_next).all():
            raise _diverged("weights", k, w)
        if k % config.log_every == 0 or k == config.steps:
            log(k, w_next, w)
        w = w_next
    return Trajectory(
        times=np.array(times),
        steps=np.array(steps),
        losses=np.array(losses),
        grad_norms=np.array(gnorms),
        final_w=w,
        rng_state_digest=_digest(rng),
        eval_values=np.array(evals) if eval_fn is not None else None,
    )


def run_sde(
    spec: LossSpec,
    s: float,
    dt: float,
    t_max: float,
    seed: int = 0,
    init: InitSpec | None = None,
    log_every: int = 1,
    record_weights: bool = False,
) -> Trajectory:
    """Euler-Maruyama for dW = -grad(W) dt + sqrt(s) dB.

    Each step: W <- W - dt * grad + sqrt(s * dt) * G with i.i.d. standard
    normal G.  ``s = 0`` reduces to explicit-Euler gradient flow.  Raises
    :class:`DivergenceError` as :func:`run_sgd` does.
    """
    if s < 0 or dt <= 0 or t_max <= 0:
        raise ValueError("need s >= 0, dt > 0, t_max > 0")
    init = init or InitSpec()
    rng = np.random.default_rng(seed)
    w = init.sample(rng, spec.p, spec.d, spec.lam, s if s > 0 else dt)
    n_steps = max(1, int(round(t_max / dt)))
    noise_scale = math.sqrt(s * dt)
    times, steps, losses, gnorms = [], [], [], []
    weights = [] if record_weights else None

    def log(k: int, wk: np.ndarray, last_w: np.ndarray):
        value, g = model.evaluate(spec, wk, ("loss", "grad"))
        if not value <= DIVERGENCE_LIMIT:  # also true for NaN
            raise _diverged(f"loss ({float(value)!r})", k, last_w)
        times.append(k * dt)
        steps.append(k)
        losses.append(float(value))
        gnorms.append(float(np.linalg.norm(g)))
        if record_weights:
            weights.append(wk.copy())

    log(0, w, w)
    for k in range(1, n_steps + 1):
        g = model.evaluate(spec, w, ("grad",))[0]
        w_next = w - dt * g + noise_scale * rng.standard_normal((spec.p, spec.d))
        if not np.isfinite(w_next).all():
            raise _diverged("weights", k, w)
        if k % log_every == 0 or k == n_steps:
            log(k, w_next, w)
        w = w_next
    return Trajectory(
        times=np.array(times),
        steps=np.array(steps),
        losses=np.array(losses),
        grad_norms=np.array(gnorms),
        final_w=w,
        rng_state_digest=_digest(rng),
        weights=weights,
    )


def s_star(spec: LossSpec, epsilon: float, user_scale: float = 1.0) -> float:
    """Step-size guidance min(1 / smoothness bound, epsilon * user_scale).

    The accuracy-to-step-size constants of the convergence theory are not
    computable in closed form, so the epsilon leg is scaled by explicit user
    configuration.  Bounded activations only (uses the smoothness bound).
    """
    if epsilon <= 0 or user_scale <= 0:
        raise ValueError("epsilon and user_scale must be positive")
    return min(1.0 / model.glip_bound(spec), epsilon * user_scale)
