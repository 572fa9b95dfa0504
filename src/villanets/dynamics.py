"""Constant-step minibatch SGD and its small-noise diffusion limit.

Both integrators operate on a :class:`~villanets.model.LossSpec` and log
loss / gradient-norm trajectories.  Minibatches are i.i.d. uniform with
replacement, matching the noise model under which the diffusion limit is
derived.  Runs are deterministic given the seed.  Each chain owns its
generator, so an ensemble of seeds advances as one stack of weight
matrices (:func:`run_sgd_chains`, :func:`run_sde_paths`) and every chain
in it ends exactly as its lone run does.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
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


class _Chain:
    """One chain of a stack: its own generator and its log."""

    def __init__(self, seed: int, record_weights: bool):
        self.rng = np.random.default_rng(seed)
        self.times, self.steps, self.losses, self.gnorms, self.evals = [], [], [], [], []
        self.weights = [] if record_weights else None

    def trajectory(self, final_w: np.ndarray, with_evals: bool) -> Trajectory:
        return Trajectory(
            times=np.array(self.times),
            steps=np.array(self.steps),
            losses=np.array(self.losses),
            grad_norms=np.array(self.gnorms),
            final_w=final_w,
            rng_state_digest=_digest(self.rng),
            eval_values=np.array(self.evals) if with_evals else None,
            weights=self.weights,
        )


def _integrate(spec: LossSpec, seeds, init: InitSpec, init_s: float, n_steps: int,
               dt: float, log_every: int, step, draw=None, draw_shape=(),
               eval_fn=None, record_weights=False) -> list:
    """Advance one chain per seed for ``n_steps`` steps of length ``dt``, all
    chains as one (R, p, d) stack; the loop of both integrators.

    Chain r samples its initial weights from its own
    ``np.random.default_rng(seeds[r])``, then ``draw(rng, (K, *draw_shape))``
    draws its random numbers for the next K steps in one call, which
    consumes the generator exactly as K per-step draws would.
    ``step(w, drawn)`` maps the stack and the chains' draws for this step
    (None without ``draw``) to the next stack.  Loss, gradient norm and
    ``eval_fn`` are logged at step 0, every ``log_every`` steps and at the
    last step.  Returns, per seed, the chain's :class:`Trajectory` or the
    :class:`DivergenceError` a lone run of it raises: at the first step
    whose weights are not finite, or at the first log point whose loss
    exceeds ``DIVERGENCE_LIMIT``.  A diverged chain leaves the stack; the
    others go on.  Overflow on the way to a divergence is not warned about,
    since the check above reports it.
    """
    chains = [_Chain(seed, record_weights) for seed in seeds]
    out = [None] * len(chains)
    if not chains:
        return out
    live = list(range(len(chains)))                  # the chain of each stack row
    w = np.stack([init.sample(c.rng, spec.p, spec.d, spec.lam, init_s) for c in chains])
    block = n_steps if draw is None else max(1, BLOCK_NUMBERS // math.prod(draw_shape))

    def log(k: int, w_k: np.ndarray, w_prev: np.ndarray, bad):
        """Log every row of ``w_k`` not already ``bad``; returns the rows
        that are bad now, those whose loss diverged included (None if none)."""
        values, grads = model.evaluate(spec, w_k, ("loss", "grad"))
        for i, value in enumerate(values.tolist()):
            if bad is not None and bad[i]:
                continue
            if not value <= DIVERGENCE_LIMIT:  # also true for NaN
                out[live[i]] = _diverged(f"loss ({value!r})", k, w_prev[i].copy())
                bad = np.zeros(len(w_k), dtype=bool) if bad is None else bad
                bad[i] = True
                continue
            c = chains[live[i]]
            c.times.append(k * dt)
            c.steps.append(k)
            c.losses.append(value)
            c.gnorms.append(float(np.linalg.norm(grads[i])))
            if eval_fn is not None:
                c.evals.append(np.atleast_1d(np.asarray(eval_fn(w_k[i]), dtype=np.float64)))
            if c.weights is not None:
                c.weights.append(w_k[i].copy())
        return bad

    def drop(bad, *stacks):
        """``live`` and the ``stacks`` (None stays None) without the bad rows."""
        keep = ~bad
        return ([c for c, kept in zip(live, keep) if kept],
                *(None if a is None else a[keep] for a in stacks))

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        bad = log(0, w, w, None)
        if bad is not None:
            live, w = drop(bad, w)
        while k < n_steps and live:
            size = min(n_steps - k, block)
            drawn = None
            if draw is not None:                     # (R, size, *draw_shape)
                drawn = np.stack([draw(chains[c].rng, (size, *draw_shape)) for c in live])
            for j in range(size):
                k += 1
                w_next = step(w, None if drawn is None else drawn[:, j])
                bad = None
                if not np.isfinite(w_next).all():
                    bad = ~np.isfinite(w_next).all(axis=(1, 2))
                    for i in np.flatnonzero(bad):
                        out[live[i]] = _diverged("weights", k, w[i].copy())
                if k % log_every == 0 or k == n_steps:
                    bad = log(k, w_next, w, bad)
                if bad is not None:
                    live, w_next, drawn = drop(bad, w_next, drawn)
                    if not live:
                        break
                w = w_next
    for i, c in enumerate(live):
        out[c] = chains[c].trajectory(w[i].copy(), eval_fn is not None)
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
    config.validate(spec.n)
    s = config.step_size
    full_batch = np.arange(spec.n) if config.batch_size == spec.n else None

    def draw(rng, size):
        return rng.integers(0, spec.n, size=size)

    def step(w, batch):
        return sgd_step(spec, w, full_batch if batch is None else batch, s)

    return _integrate(spec, seeds, config.init, s, config.steps, s, config.log_every, step,
                      None if full_batch is not None else draw, (config.batch_size,),
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
                  init: InitSpec | None = None, log_every: int = 1,
                  record_weights: bool = False) -> list:
    """:func:`run_sde` once per seed, all paths advanced as one stack.

    Returns one entry per seed: the :class:`Trajectory` of ``run_sde`` with
    that seed and the same arguments, bit for bit, or the
    :class:`DivergenceError` that run raises.  A path that diverges leaves
    the stack; the others go on.
    """
    if s < 0 or dt <= 0 or t_max <= 0:
        raise ValueError("need s >= 0, dt > 0, t_max > 0")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    noise_scale = math.sqrt(s * dt)

    def draw(rng, size):
        return rng.standard_normal(size)

    def step(w, noise):
        return w - dt * model.evaluate(spec, w, ("grad",))[0] + noise_scale * noise

    return _integrate(spec, seeds, init or InitSpec(), s if s > 0 else dt,
                      max(1, int(round(t_max / dt))), dt, log_every, step, draw,
                      (spec.p, spec.d), record_weights=record_weights)


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
    return _one(run_sde_paths(spec, s, dt, t_max, [seed], init, log_every, record_weights))


def _one(outcomes: list) -> Trajectory:
    """The lone entry of a one-seed stack, raised if it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
