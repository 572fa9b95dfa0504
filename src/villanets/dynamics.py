"""Constant-step minibatch SGD, and Euler-Maruyama for dW = -grad dt + sqrt(s) dB.

Both integrators log loss / gradient-norm trajectories of a
:class:`~villanets.model.LossSpec`; a full-batch step at a log point
descends along the gradient logged there, the same bits as its own
evaluation would give.  The theorem's SGD, W <- W - s grad + s G
(G standard normal), is :func:`run_sde` at dt = s, whose law the FPE density,
the gap and the Villani scan describe.  Minibatch SGD (i.i.d. uniform draws
with replacement) follows the stochastic modified equation, noise covariance
eta Sigma(W) / b: its stationary law was measured ~100x narrower than the
Gibbs law.  Runs are deterministic given the seed.  Each chain owns its
generator, so an ensemble of seeds advances as one stack of weight
matrices (:func:`run_sgd_chains`, :func:`run_sde_paths`) and every chain
in it ends exactly as its lone run does.

One step of the toy chains (p=2, d=2, b=4) costs ~13 us in ``run_sgd`` (min
of 7 runs of 50,000 steps logged every 500, one BLAS thread, on a 2-vCPU
Xeon, Python 3.11, numpy 2.4), nearly all of it fixed per-call cost rather
than arithmetic, so the step path
(:func:`_integrate` -> :func:`sgd_step`, full batch plus the noise in the
Euler-Maruyama step -> :func:`~villanets.model.evaluate` ->
``Activation.derivs``) keeps four rules:

* constants are hoisted: the model's objects carry theirs as derived
  fields, and the integrators turn the step size, ``dt`` and
  ``sqrt(s * dt)`` into 0-d arrays once per run;
* every operand is an array, 0-d for a scalar: numpy converts a Python
  float operand on every call (~0.6 us on these arrays), and a 0-d array
  holds the same double, so no bit changes;
* the loop walks one list of segment edges per run (the log points and the
  first step of each block of draws), calls only the step between two
  edges, and checks the stack's weights once per segment, at its end, by
  :func:`_all_finite`, whose exact pre-check is one dot product; the chains
  that fail it are replayed from the segment's start, one checked step at
  a time and keeping the rows that have left, to find where each left;
* on the path a workload measures, each temporary is written in place,
  into an array that the same call allocated, by the same IEEE operation
  on the same operands (operands may swap; nothing is regrouped and no
  constant folded), so no bit changes; elsewhere the formula is written
  out.  Nothing the caller owns is written: not the
  input of ``derivs``, not the ``w`` given to ``evaluate`` or
  :func:`sgd_step` (:func:`_integrate` keeps the previous stack for
  ``DivergenceError.last_w`` and a segment's first stack for its replay),
  not the data arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import model, rules
from .model import LossSpec
from .rules import as_number

DIVERGENCE_LIMIT = 1e12
# Random numbers one chain draws per call: the integrators draw a chain's
# minibatch indices or noise for a block of up to BLOCK_NUMBERS // (numbers
# per step) steps at once, and a full-batch run, which draws nothing, takes
# blocks as its p * d noise numbers per step would.  A block consumes the
# generator exactly as the same steps drawn one by one, so the size trades
# memory (8 bytes per number and chain) against call overhead, and bounds
# the steps a diverged chain takes before the check that finds it, but
# changes no result.
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
    'explicit' with a given matrix.  ``w0`` is copied when the spec is
    built, as the tuple of its float rows, so a later write to the caller's
    array does not reach :meth:`sample`, and the spec compares and hashes by
    value.

    In gaussian mode with ``tau=None`` the scale defaults to
    sqrt(s / (4 * lam)); that keeps the initial density inside the class of
    laws whose squared ratio against the Gibbs factor exp(-2*loss/s) is
    integrable, the initialization requirement of the convergence theory
    for :func:`run_sde`'s s.  :func:`run_sgd` passes its step size as s,
    although minibatch SGD's law is far narrower.  (tau=1 when lam = 0.)
    """

    mode: str = "gaussian"
    tau: float | None = None
    w0: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("gaussian", "zero", "explicit"):
            raise ValueError(f"unknown init mode {self.mode!r}")
        # a setting that the mode never reads would be dropped in silence
        for name, mode in (("tau", "gaussian"), ("w0", "explicit")):
            if getattr(self, name) is not None and self.mode != mode:
                raise ValueError(f"{name} is read only in {mode} mode, not in {self.mode} mode")
        if self.tau is not None:
            object.__setattr__(self, "tau", rules.positive(self.tau, "tau"))
        if self.mode == "explicit":
            rows = [] if (arr := np.asarray(self.w0, dtype=object)).ndim != 2 else arr.tolist()
            w0 = tuple(tuple(as_number(v, "w0 entry") for v in row) for row in rows)
            if not (w0 and w0[0] and np.isfinite(w0).all()):
                raise ValueError("explicit init needs w0, a non-empty matrix of finite numbers")
            object.__setattr__(self, "w0", w0)

    def sample(self, rng: np.random.Generator, p: int, d: int, lam: float, s: float):
        if self.mode == "zero":
            return np.zeros((p, d))
        if self.mode == "explicit":
            if (len(self.w0), len(self.w0[0])) != (p, d):
                raise ValueError(f"w0 must have shape {(p, d)}")
            return np.array(self.w0)
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
        object.__setattr__(self, "step_size", rules.positive(self.step_size, "step_size"))
        for key, least in (("batch_size", 1), ("steps", 1), ("log_every", 1), ("seed", 0)):
            object.__setattr__(self, key, rules.at_least(getattr(self, key), key, least, int))


@dataclass(eq=False)
class Trajectory:
    """Logged run: times, losses, gradient norms, and the final weights.

    ``eval_values`` holds the chain's row of ``eval_fn`` at each log point (a
    scalar is one column; ``eval_fn=np.copy`` gives the (p, d) weights), or
    None without one.  No array is shared with another trajectory.  The rng
    digest fingerprints the terminal generator state for reproducibility.
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
    integrators, the same float as a 0-d array.  The integrators check the
    weights once per segment of steps, so a row of a stacked ``w`` may be
    non-finite; its row of the result is then non-finite too, and no other
    row changes."""
    if batch_indices is not None:
        batch_indices = np.asarray(batch_indices)
        if batch_indices.size == 0:
            raise ValueError("batch must be non-empty")
    return _descend(w, model.evaluate(spec, w, ("grad",), batch_indices)[0], s)


def _descend(w: np.ndarray, g: np.ndarray, s) -> np.ndarray:
    """w - s g, written into ``g``."""
    g *= s
    return np.subtract(w, g, out=g)


def _all_finite(w: np.ndarray) -> bool:
    """Whether every entry of ``w`` is finite.  Exact: the sum of squares is
    NaN or inf when an entry is, and when it is inf because finite entries
    (beyond ~1e154) overflow it, the elementwise check decides."""
    return math.isfinite(np.vdot(w, w)) or bool(np.isfinite(w).all())


def _integrate(spec: LossSpec, seeds, init: InitSpec, init_s: float, n_steps: int,
               dt: float, log_every: int, step, draw=None, draw_shape=(),
               eval_fn=None) -> list:
    """Advance one chain per seed for ``n_steps`` steps of length ``dt``, all
    chains as one (R, p, d) stack; the loop of both integrators.

    Each seed must be a count, and is checked before any work.  Chain r
    samples its initial weights from its own
    ``np.random.default_rng(seeds[r])``, then ``draw(rng, (K, *draw_shape))``
    draws its random numbers for the next K steps in one call, which
    consumes the generator exactly as K per-step draws would.
    ``step(w, drawn, grads)`` maps the stack, the chains' draws for this
    step (None without ``draw``) and the logged full-batch gradients of the
    stack (None off a log point), which it may write, to the next stack.
    At step 0, every ``log_every`` steps and at the last step the whole
    stack is logged: its losses, gradient norms and ``eval_fn(w)`` of the
    (k, p, d) weights of the k live chains, one row per chain (a scalar is
    a one-column row), into per-chain arrays sized before the first step,
    so a log that cannot be held is a ``MemoryError`` before any step.
    ``eval_fn`` runs between the gradients and the step that reads them, so
    it must not write the stack it is handed.  Returns, per seed, the
    chain's :class:`Trajectory` or the :class:`DivergenceError` a lone run
    of it raises: at the first step whose weights are not finite, or at the
    first log point whose loss exceeds ``DIVERGENCE_LIMIT``.  A diverged
    chain leaves the stack; the others go on.  Overflow on the way to a
    divergence is not warned about, since the check above reports it.

    The loop walks the segment edges, one sorted list made before the first
    step: the log points and the first step of each block of draws (a
    full-batch run, which draws nothing, takes blocks of the size the noise
    of ``run_sde`` would).  Between two edges it only calls ``step``, and it
    checks the stack's weights once, at the segment's end.  That finds every
    chain that left the finite regime within the segment because ``step``
    must map weights with a non-finite entry to weights with a non-finite
    entry.  Both integrators' steps do: each entry of the next weights is
    that entry of ``w`` minus the step times the gradient's entry (plus the
    noise's), and an IEEE sum or difference with an infinite or NaN operand
    is not finite (inf - inf is NaN).  The chains that fail the check are
    replayed from the segment's start by :func:`_replay`, which finds the
    step at which each left; so a diverged chain takes at most one block of
    steps past its divergence.
    """
    rngs = [np.random.default_rng(rules.at_least(seed, "seed", 0, int)) for seed in seeds]
    out = [None] * len(rngs)
    if not rngs:
        return out
    logged = np.append(np.arange(0, n_steps, log_every), n_steps)    # the log points' steps
    losses, gnorms = np.empty((2, len(rngs), len(logged)))
    evals = None                  # (R, log points, *row), sized by eval_fn's first rows
    live, t = np.arange(len(rngs)), 0             # the chain of each stack row, log column
    w = w_prev = np.stack([init.sample(rng, spec.p, spec.d, spec.lam, init_s) for rng in rngs])
    block = max(1, BLOCK_NUMBERS // math.prod(draw_shape if draw is not None else w.shape[1:]))
    edges = np.union1d(logged, np.arange(0, n_steps, block)).tolist()
    drawn = None                                  # the block's draws, (size, R, *draw_shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, end in zip(edges, [*edges[1:], None]):
            diverged = {}                            # stack row -> its DivergenceError
            if k and not _all_finite(w):                 # the check of the segment to k
                bad = np.flatnonzero(~np.isfinite(w).all(axis=(1, 2))).tolist()
                diverged = _replay(step, bad, w_start, draws, k - len(draws))
            at_log = k == logged.item(t)    # a Python bool, so t stays an int
            grads = None
            if at_log:
                values, grads = model.evaluate(spec, w, ("loss", "grad"))
                losses[live, t] = values         # a diverging chain's entries are not read
                flat = grads.reshape(len(live), 1, -1)
                gnorms[live, t] = np.sqrt(flat @ flat.swapaxes(1, 2)).reshape(-1)
                for i, value in enumerate(values.tolist()):
                    if not value <= DIVERGENCE_LIMIT and i not in diverged:  # also for NaN
                        diverged[i] = DivergenceError(
                            f"loss ({value!r}) left the finite regime at step {k}",
                            last_w=w_prev[i].copy(), step=k)
            if diverged:
                for i, error in diverged.items():
                    out[live[i]] = error
                keep = [i not in diverged for i in range(len(live))]
                live, w = live[keep], w[keep]
                if drawn is not None:
                    drawn = drawn[:, keep]
                if grads is not None:
                    grads = grads[keep]
            if at_log and eval_fn is not None and len(live):
                got = np.asarray(eval_fn(w), dtype=np.float64)
                if got.shape[:1] != live.shape:
                    raise ValueError(f"eval_fn must return one row per chain, {len(live)} rows, "
                                     f"not an array of shape {got.shape}")
                if evals is None:
                    evals = np.empty((len(rngs), len(logged), *(got.shape[1:] or (1,))))
                evals[live, t] = got if got.ndim > 1 else got[:, None]
            t += at_log
            if end is None or not len(live):
                break
            if draw is not None and k % block == 0:
                drawn = np.stack([draw(rngs[c], (min(block, n_steps - k), *draw_shape))
                                  for c in live], axis=1)
            j = k % block               # the segment's first step within its block
            draws = [None] * (end - k) if draw is None else drawn[j:j + end - k]
            w_start, w_prev, w = w, w, step(w, draws[0], grads)
            for x in draws[1:]:
                w_prev, w = w, step(w, x, None)
    for i, c in enumerate(live.tolist()):
        out[c] = Trajectory(logged * dt, logged.copy(), losses[c].copy(), gnorms[c].copy(),
                            w[i].copy(), _digest(rngs[c]),
                            None if evals is None else evals[c].copy())
    return out


def _replay(step, bad: list, w: np.ndarray, draws, k: int) -> dict:
    """The :class:`DivergenceError` of each stack row in ``bad``, a row whose
    weights were not finite at the end of the segment that began at step
    ``k`` from the finite stack ``w``, one step per entry of ``draws`` (None
    without draws).  The rows retake the segment's steps, one checked step
    at a time, until each has left at the first step whose weights are not
    finite, with the weights before that step; a row that has left stays,
    as a step keeps it non-finite and changes no other row.  The rows of a
    stacked step are independent, so the replay repeats the segment's steps
    bit for bit; its first step evaluates its own gradients, which a logged
    step at ``k`` had descended along, bit for bit, and written over."""
    v, errors = w[bad], {}
    for j, x in enumerate(draws, k + 1):
        v_prev, v = v, step(v, None if x is None else x[bad], None)
        for i in np.flatnonzero(~np.isfinite(v).all(axis=(1, 2))).tolist():
            if bad[i] not in errors:
                errors[bad[i]] = DivergenceError(
                    f"weights left the finite regime at step {j}",
                    last_w=v_prev[i].copy(), step=j)
        if len(errors) == len(bad):
            break
    return errors


def run_sgd_chains(spec: LossSpec, config: SgdConfig, seeds, eval_fn=None) -> list:
    """:func:`run_sgd` under ``config`` once per seed (``config.seed`` is not
    used), all chains advanced as one stack, with one ``sgd_step`` per step.

    Returns one entry per seed: the :class:`Trajectory` of
    ``run_sgd(spec, replace(config, seed=seed), eval_fn)``, bit for bit, or
    the :class:`DivergenceError` that run raises.  A chain that diverges
    leaves the stack; the others go on.  At each log point ``eval_fn`` gets
    the (k, p, d) weights of the k live chains and returns one row each.
    """
    if config.batch_size > spec.n:
        raise ValueError(f"batch_size must be in [1, {spec.n}]")
    s = config.step_size
    s_op = np.array(float(s))

    def draw(rng, size):
        return rng.integers(0, spec.n, size=size)

    def step(w, batch, grads):
        if batch is None and grads is not None:    # a full-batch step at a log point
            return _descend(w, grads, s_op)
        return sgd_step(spec, w, batch, s_op)

    return _integrate(spec, seeds, config.init, s, config.steps, s, config.log_every, step,
                      None if config.batch_size == spec.n else draw, (config.batch_size,),
                      eval_fn=eval_fn)


def run_sgd(spec: LossSpec, config: SgdConfig, eval_fn=None) -> Trajectory:
    """Run constant-step minibatch SGD; minibatches are i.i.d. uniform with
    replacement, one draw per step.  ``batch_size == n`` uses the full
    dataset deterministically, so that setting is exact gradient descent
    (and inherits its descent guarantee for steps below the inverse
    smoothness bound).  Deterministic given ``config.seed``.  ``eval_fn``
    gets a (1, p, d) stack, as in :func:`run_sgd_chains`.

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
    the stack; the others go on.  ``eval_fn`` gets the stack of live paths
    at each log point, as in :func:`run_sgd_chains`, so
    ``eval_fn=np.copy`` records the weights and ensemble moments read off
    ``eval_values``.  Every path takes the round(t_max / dt) steps
    that :func:`run_sde` states, or none is run.
    """
    s = rules.at_least(s, "s", 0)
    n_steps = rules.steps(t_max, dt, 1)
    log_every = rules.at_least(log_every, "log_every", 1, int)
    dt_op, noise_scale = np.array(float(dt)), np.array(math.sqrt(s * dt))

    def draw(rng, size):
        return noise_scale * rng.standard_normal(size)

    def step(w, noise, grads):
        w = sgd_step(spec, w, None, dt_op) if grads is None else _descend(w, grads, dt_op)
        w += noise
        return w

    return _integrate(spec, seeds, init or InitSpec(), s if s > 0 else dt, n_steps, dt,
                      log_every, step, draw, (spec.p, spec.d), eval_fn=eval_fn)


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
    normal G.  ``s = 0`` reduces to explicit-Euler gradient flow.  The run
    takes round(t_max / dt) steps, so it ends at the nearest multiple of dt
    to ``t_max``; a ``t_max / dt`` that is not finite or rounds to no step
    at all is a ``ValueError`` naming both values.  Raises
    :class:`DivergenceError`, and calls ``eval_fn`` with a (1, p, d) stack,
    as :func:`run_sgd` does.
    """
    return _one(run_sde_paths(spec, s, dt, t_max, [seed], init, log_every, eval_fn))


def _one(outcomes: list) -> Trajectory:
    """The lone entry of a one-seed stack, raised if it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
