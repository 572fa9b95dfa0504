"""Experiment orchestration: ridge/width sweeps and noisy-label ablations.

A sweep trains one net per (ridge strength, width) cell, several restarts
per cell, and records the best held-out mean squared error seen over
training ("best" = minimum over logged checkpoints, then over restarts).
Cells are seeded positionally from (base_seed, cell, restart), so the grid
is identical no matter in which order, or on how many workers, the cells
run.  Divergent cells carry +inf rather than aborting the sweep.

The ablation trains on label-corrupted copies of a clean recipe and tracks
the clean held-out loss over training, which is how the response of the
optimizer to label noise is measured.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import activations, model, rules
from .datasets import DataRecipe, corrupt_labels
from .dynamics import DivergenceError, InitSpec, SgdConfig, run_sgd, run_sgd_chains
from .model import Dataset, LossSpec, Net, outer_weights
from .rules import numbers_as_declared

METRICS = ("best_test_loss", "final_train_loss")


@dataclass(frozen=True)
class SweepConfig:
    lambdas: tuple
    widths: tuple
    recipe: DataRecipe
    sgd: SgdConfig
    restarts_per_cell: int = 1
    metric: str = "best_test_loss"
    base_seed: int = 0
    act_kind: str = "sigmoid"
    act_beta: float = 1.0
    a_mode: str = "normalized"

    def __post_init__(self):
        """Check every cell, so that a bad one fails before any trains."""
        numbers_as_declared(self)
        object.__setattr__(self, "lambdas",
                           tuple(rules.at_least(v, "lambda", 0) for v in self.lambdas))
        object.__setattr__(self, "widths",
                           tuple(rules.at_least(v, "width", 1, int) for v in self.widths))
        if not self.lambdas or not self.widths:
            raise ValueError("lambdas and widths must be non-empty")
        for name, values in (("lambdas", self.lambdas), ("widths", self.widths)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat: {list(values)}")
        rules.at_least(self.restarts_per_cell, "restarts_per_cell", 1, int)
        rules.at_least(self.base_seed, "base_seed", 0, int)
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.sgd.seed != 0:
            raise ValueError(f"sgd.seed is not read ({self.sgd.seed}): "
                             "the cells are seeded from base_seed")
        self.activation()            # raises on an unknown kind or a bad beta
        _check_cells(self.a_mode, self.sgd, self.recipe)

    def activation(self):
        return activations.make(self.act_kind, self.act_beta)


def _check_cells(a_mode: str, sgd: SgdConfig, recipe: DataRecipe) -> None:
    """Raise the error that building or training a cell, whatever its
    lambda and width, on ``recipe``'s training split would raise."""
    model.check_outer_mode(a_mode)
    if sgd.batch_size > recipe.n_train:
        raise ValueError(f"batch_size must be in [1, {recipe.n_train}]")


@dataclass(eq=False)
class SweepResult:
    lambdas: tuple
    widths: tuple
    metric: str
    grid: np.ndarray                 # (len(lambdas), len(widths))
    per_cell: list                   # row dicts: lam, width, restart, metric, ...


def cell_seed(base_seed: int, i_lam: int, i_width: int, restart: int) -> int:
    """Positional seed; independent of execution order."""
    ss = np.random.SeedSequence([base_seed, i_lam, i_width, restart])
    return int(ss.generate_state(1)[0])


def test_mse(spec: LossSpec, test: Dataset, w: np.ndarray):
    """Unregularized held-out mean squared error: a float at one (p, d)
    matrix ``w``, and a (k,) array, one per row, at a (k, p, d) stack."""
    r = model.predict(spec, test.xs, w)
    r -= test.ys
    return np.mean(r * r, axis=-1)


def build_cell_spec(train: Dataset, width: int, lam: float, act,
                    a_mode: str = "normalized") -> LossSpec:
    """Net for one cell, outer weights named by ``a_mode`` as in
    :func:`model.outer_weights`: "normalized" (all-positive, ||a|| * x_bound
    = 1), "normalized_signed" (alternating signs, zero output offset for even
    widths) or "ones".
    """
    a = outer_weights(a_mode, width, train.x_bound)
    net = Net(a, np.zeros((width, train.d)), act)
    return LossSpec(net, train, lam)


@dataclass(frozen=True)
class _CellTask:
    """One (lambda, width) cell of ``cfg``, by its grid position."""

    i_lam: int
    i_width: int
    train: Dataset
    test: Dataset
    cfg: SweepConfig


def _run_cell(task: _CellTask):
    """Train the cell's restarts as one stack of chains.

    Every row's ``wall_time`` is the run time of that whole stack, shared
    by the cell's restarts, not the time of one restart.
    """
    cfg = task.cfg
    lam, width = cfg.lambdas[task.i_lam], cfg.widths[task.i_width]
    spec = build_cell_spec(task.train, width, lam, cfg.activation(), cfg.a_mode)
    seeds = [cell_seed(cfg.base_seed, task.i_lam, task.i_width, restart)
             for restart in range(cfg.restarts_per_cell)]
    t0 = time.perf_counter()
    outcomes = run_sgd_chains(spec, cfg.sgd, seeds,
                              eval_fn=lambda w: test_mse(spec, task.test, w))
    wall_time = time.perf_counter() - t0
    rows = []
    for restart, (seed, traj) in enumerate(zip(seeds, outcomes)):
        if isinstance(traj, DivergenceError):
            value = math.inf
            status = f"diverged at step {traj.step}"
        else:
            if cfg.metric == "best_test_loss":
                value = float(traj.eval_values.min())
            else:
                value = float(traj.losses[-1])
            status = "ok"
        rows.append(
            {
                "lam": lam,
                "width": width,
                "restart": restart,
                "metric": value,
                "seed": seed,
                "steps": cfg.sgd.steps,
                "wall_time": wall_time,
                "status": status,
            }
        )
    return task.i_lam, task.i_width, min(row["metric"] for row in rows), rows


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """Train every (lambda, width) cell and assemble the metric grid."""
    jobs = rules.at_least(jobs, "jobs", 1, int)
    train, test = cfg.recipe.realize()
    tasks = [
        _CellTask(i_lam, i_width, train, test, cfg)
        for i_lam in range(len(cfg.lambdas))
        for i_width in range(len(cfg.widths))
    ]
    grid = np.full((len(cfg.lambdas), len(cfg.widths)), math.inf)
    per_cell = []
    if jobs > 1:
        # imported here, so that no other command loads the process pool;
        # a worker more than the cells would only be forked to idle
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(t) for t in tasks]
    for i_lam, i_width, best, rows in outcomes:
        grid[i_lam, i_width] = best
        per_cell.extend(rows)
    per_cell.sort(key=lambda r: (r["lam"], r["width"], r["restart"]))
    return SweepResult(cfg.lambdas, cfg.widths, cfg.metric, grid, per_cell)


@dataclass(frozen=True)
class AblationConfig:
    """One (ridge, width, step-size) setting of the noisy-label study.

    ``sgd`` is the one SGD configuration, seed included, that every
    fraction trains with: the same init and batch sequence, so the curves
    differ only through the corrupted labels.
    """

    recipe: DataRecipe               # clean recipe; corruption applied here
    lam: float
    width: int
    step_size: float
    batch_size: int
    steps: int
    log_every: int = 100
    base_seed: int = 0
    corruption_scale: float = 0.05
    init_tau: float = 1.0
    a_mode: str = "normalized"
    sgd: SgdConfig = field(init=False, compare=False)

    def __post_init__(self):
        numbers_as_declared(self)
        rules.at_least(self.lam, "lam", 0)
        rules.at_least(self.width, "width", 1, int)
        rules.at_least(self.base_seed, "base_seed", 0, int)
        if any(self.recipe.corruption_map.values()):
            raise ValueError("the ablation recipe must be clean (corruption fraction and scale "
                             "0): corrupt it through fractions and corruption_scale")
        rules.finite(self.corruption_scale, "corruption_scale")
        object.__setattr__(self, "sgd", SgdConfig(
            step_size=self.step_size, batch_size=self.batch_size, steps=self.steps,
            seed=cell_seed(self.base_seed, 0, 0, 0),
            init=InitSpec("gaussian", tau=self.init_tau), log_every=self.log_every))
        _check_cells(self.a_mode, self.sgd, self.recipe)


@dataclass(eq=False)
class AblationCurves:
    steps: np.ndarray
    train_losses: np.ndarray
    clean_test: np.ndarray
    noisy_test: np.ndarray


def run_ablation(cfg: AblationConfig, fractions) -> dict:
    """Train once per corruption fraction, each a number given once; track
    clean/noisy held-out MSE.

    The training labels (and a mirrored copy of the test labels) are
    corrupted per fraction; the clean test set is never touched, so the
    clean-test curve isolates what the corruption does to the learned map.
    """
    fractions = [rules.fraction(fraction, "fraction") for fraction in fractions]
    if not fractions:
        raise ValueError("fractions must be a non-empty list")
    if len(set(fractions)) < len(fractions):
        raise ValueError(f"fractions must not repeat: {fractions}")
    clean_train, clean_test = cfg.recipe.realize()
    out = {}
    for fraction in fractions:
        # fraction 0 corrupts no label, so it trains on the clean labels
        train = corrupt_labels(clean_train, fraction, cfg.corruption_scale,
                               cell_seed(cfg.base_seed, 1, 0, 0))
        noisy_test = corrupt_labels(clean_test, fraction, cfg.corruption_scale,
                                    cell_seed(cfg.base_seed, 2, 0, 0))
        spec = build_cell_spec(train, cfg.width, cfg.lam, activations.sigmoid(1.0),
                               cfg.a_mode)

        def eval_fn(w):
            # one forward pass: the noisy test set has the clean inputs
            pred = model.predict(spec, clean_test.xs, w)
            return np.stack([np.mean(r * r, axis=-1)
                             for r in (pred - clean_test.ys, pred - noisy_test.ys)], axis=-1)

        traj = run_sgd(spec, cfg.sgd, eval_fn=eval_fn)
        out[fraction] = AblationCurves(
            steps=traj.steps,
            train_losses=traj.losses,
            clean_test=traj.eval_values[:, 0],
            noisy_test=traj.eval_values[:, 1],
        )
    return out

