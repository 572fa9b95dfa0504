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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import activations, model
from .datasets import DataRecipe, corrupt_labels
from .dynamics import DivergenceError, InitSpec, SgdConfig, run_sgd, run_sgd_chains
from .model import Dataset, LossSpec, Net, outer_weights

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
        if not self.lambdas or not self.widths:
            raise ValueError("lambdas and widths must be non-empty")
        if self.restarts_per_cell < 1:
            raise ValueError("restarts_per_cell must be at least 1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "widths", tuple(int(v) for v in self.widths))

    def activation(self):
        return activations.make(self.act_kind, self.act_beta)


@dataclass
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


def test_mse(spec: LossSpec, test: Dataset, w: np.ndarray) -> float:
    """Unregularized held-out mean squared error."""
    r = model.predict(spec, test.xs, w) - test.ys
    return float(np.mean(r * r))


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
    train, test = cfg.recipe.realize()
    tasks = [
        _CellTask(i_lam, i_width, train, test, cfg)
        for i_lam in range(len(cfg.lambdas))
        for i_width in range(len(cfg.widths))
    ]
    grid = np.full((len(cfg.lambdas), len(cfg.widths)), math.inf)
    per_cell = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    """One (ridge, width, step-size) setting of the noisy-label study."""

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


@dataclass
class AblationCurves:
    fraction: float
    steps: np.ndarray
    train_losses: np.ndarray
    clean_test: np.ndarray
    noisy_test: np.ndarray


def run_ablation(cfg: AblationConfig, fractions) -> dict:
    """Train once per corruption fraction; track clean/noisy held-out MSE.

    The training labels (and a mirrored copy of the test labels) are
    corrupted per fraction; the clean test set is never touched, so the
    clean-test curve isolates what the corruption does to the learned map.
    """
    if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    clean_train, clean_test = cfg.recipe.realize()
    out = {}
    for fraction in fractions:
        train = (
            corrupt_labels(clean_train, fraction, cfg.corruption_scale,
                           cell_seed(cfg.base_seed, 1, 0, 0))
            if fraction > 0 else clean_train
        )
        noisy_test = (
            corrupt_labels(clean_test, fraction, cfg.corruption_scale,
                           cell_seed(cfg.base_seed, 2, 0, 0))
            if fraction > 0 else clean_test
        )
        spec = build_cell_spec(train, cfg.width, cfg.lam, activations.sigmoid(1.0),
                               cfg.a_mode)
        # same SGD seed for every fraction: identical init and batch
        # sequence, so the curves differ only through the corrupted labels
        sgd = SgdConfig(
            step_size=cfg.step_size,
            batch_size=cfg.batch_size,
            steps=cfg.steps,
            seed=cell_seed(cfg.base_seed, 0, 0, 0),
            init=InitSpec("gaussian", tau=cfg.init_tau),
            log_every=cfg.log_every,
        )
        traj = run_sgd(
            spec,
            sgd,
            eval_fn=lambda w: (test_mse(spec, clean_test, w),
                               test_mse(spec, noisy_test, w)),
        )
        out[fraction] = AblationCurves(
            fraction=fraction,
            steps=traj.steps,
            train_losses=traj.losses,
            clean_test=traj.eval_values[:, 0],
            noisy_test=traj.eval_values[:, 1],
        )
    return out


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(result: SweepResult, out_dir, formats=("csv",)) -> list:
    """Write the sweep as a long-format CSV and optionally an SVG heatmap."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    csv_path = out_dir / "sweep.csv"
    lines = ["lambda,width,restart,metric"]
    for row in result.per_cell:
        lines.append(f"{row['lam']!r},{row['width']},{row['restart']},{row['metric']!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    paths.append(csv_path)
    if "svg" in formats:
        svg_path = out_dir / "sweep.svg"
        svg_path.write_text(heatmap_svg(result))
        paths.append(svg_path)
    return paths


def write_ablation_csv(curves_by_fraction: dict, out_dir) -> list:
    """One CSV per fraction: step, train_loss, clean_test, noisy_test."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for fraction in sorted(curves_by_fraction):
        c = curves_by_fraction[fraction]
        path = out_dir / f"ablation_f{fraction:.2f}.csv"
        lines = ["step,train_loss,clean_test,noisy_test"]
        for k in range(len(c.steps)):
            lines.append(
                f"{c.steps[k]},{c.train_losses[k]!r},{c.clean_test[k]!r},{c.noisy_test[k]!r}"
            )
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def heatmap_svg(result: SweepResult, cell: int = 48) -> str:
    """Deterministic standalone SVG heatmap of the sweep grid (log color scale)."""
    vals = np.array(result.grid)
    finite = np.maximum(vals[np.isfinite(vals)], 1e-300)
    lo = float(np.log10(finite.min())) if finite.size else 0.0
    hi = float(np.log10(finite.max())) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0
    n_rows, n_cols = vals.shape
    margin = 90
    width = margin + n_cols * cell + 20
    height = margin + n_rows * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="20" font-size="14">{result.metric} (log color scale)</text>',
    ]
    for i in range(n_rows):
        for j in range(n_cols):
            v = vals[i, j]
            if math.isfinite(v):
                t = (math.log10(max(v, 1e-300)) - lo) / span
                red = int(round(40 + 215 * t))
                blue = int(round(255 - 215 * t))
                color = f"rgb({red},80,{blue})"
            else:
                color = "rgb(0,0,0)"
            x = margin + j * cell
            y = margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="white"/>'
            )
    for i, lam in enumerate(result.lambdas):
        y = margin + i * cell + cell // 2 + 4
        parts.append(f'<text x="4" y="{y}" font-size="11">{lam:g}</text>')
    for j, w in enumerate(result.widths):
        x = margin + j * cell + cell // 2 - 6
        parts.append(f'<text x="{x}" y="{margin - 8}" font-size="11">{w}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
