"""The benchmark's four workloads.

Each workload is built from the benchmark seed alone (its constructor is the
set-up the benchmark times as ``setup_s``) and runs a fixed *round* of units
through the package functions the CLI subcommands call.  Every unit is
timed on its own and checked for its contract properties; the value it
returns is compared with reruns and, on the default seed, with the stored
reference values.  ``run_round(pause)`` calls ``pause()``, when given,
before every unit and outside its timing (the benchmark times the host-speed
kernel named by ``calibration`` there).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from villanets import activations, datasets, diagnostics, dynamics, fpe, harness, model
from villanets.dynamics import InitSpec, SgdConfig
from villanets.harness import SweepConfig
from villanets.model import Dataset, LossSpec, Net, normalized_outer

MASS_DRIFT_LIMIT = 1e-12


@dataclass
class Unit:
    """One timed unit: ``value`` must repeat on rerun, ``ref`` is compared
    with the reference values of the default seed."""

    key: str
    seconds: float
    ok: bool
    value: object = None
    ref: object = None
    detail: str = ""
    readouts: dict = field(default_factory=dict)
    start: float = math.nan         # perf_counter() at the start of the unit


def _seeds(seed: int, tag: str, count: int) -> list:
    """``count`` independent 32-bit seeds derived from the benchmark seed."""
    ss = np.random.SeedSequence([seed, *tag.encode()])
    return [int(v) for v in ss.generate_state(count)]


def _timed(key: str, run, check, pause=None) -> Unit:
    """Time ``run()`` after ``pause()``; ``check(out)`` gives
    (ok, value, ref, detail, readouts)."""
    if pause is not None:
        pause()
    t0 = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # a unit that raises is a failed unit, not a crash
        return Unit(key, time.perf_counter() - t0, False,
                    detail=f"{type(exc).__name__}: {exc}", start=t0)
    seconds = time.perf_counter() - t0
    ok, value, ref, detail, readouts = check(out)
    return Unit(key, seconds, ok, value, ref, detail, readouts, start=t0)


def _normalized_spec(data: Dataset, p: int, lam_mult: float) -> LossSpec:
    net = Net(normalized_outer(p, data.x_bound), np.zeros((p, data.d)),
              activations.sigmoid(1.0))
    return LossSpec(net, data, lam_mult * model.lambda_c(net, data))


class Chains:
    """Seeded SGD chains and Euler-Maruyama paths on the toy spec
    (sigmoid, p=2, d=2, n=8, lam = 1.5 * lambda_c).  One unit is one chain."""

    name = "chains"
    calibration = "mixed"  # host-speed kernel, see calibration.py
    rerun_rtol = 0.0
    SGD_CHAINS, SDE_PATHS = 6, 2
    STEPS, LOG_EVERY = 1500, 500
    SDE_S, SDE_DT = 0.05, 1e-2

    def __init__(self, seed: int):
        data_seed, *chain_seeds = _seeds(seed, self.name, 1 + self.SGD_CHAINS + self.SDE_PATHS)
        rng = np.random.default_rng(data_seed)
        data = Dataset(rng.uniform(-1, 1, (8, 2)), rng.uniform(-1, 1, 8))
        self.spec = _normalized_spec(data, p=2, lam_mult=1.5)
        self.init = InitSpec("gaussian", tau=1.0)
        self.sgd = [SgdConfig(step_size=1e-2, batch_size=4, steps=self.STEPS, seed=s,
                              init=self.init, log_every=self.LOG_EVERY)
                    for s in chain_seeds[: self.SGD_CHAINS]]
        self.sde_seeds = chain_seeds[self.SGD_CHAINS:]
        steps = (self.SGD_CHAINS + self.SDE_PATHS) * self.STEPS
        self.work = f"{self.SGD_CHAINS + self.SDE_PATHS} chains, {steps} steps"

    @staticmethod
    def _check(traj):
        finite = bool(np.all(np.isfinite(traj.losses)) and np.all(np.isfinite(traj.final_w)))
        loss = float(traj.losses[-1])
        value = {"loss": loss, "digest": traj.rng_state_digest}
        return finite, value, loss, "" if finite else "non-finite chain", {}

    def run_round(self, pause=None) -> list:
        units = []
        for i, cfg in enumerate(self.sgd):
            units.append(_timed(f"sgd{i}", lambda: dynamics.run_sgd(self.spec, cfg),
                                self._check, pause))
        t_max = self.STEPS * self.SDE_DT
        for i, seed in enumerate(self.sde_seeds):
            units.append(_timed(
                f"sde{i}",
                lambda: dynamics.run_sde(self.spec, self.SDE_S, self.SDE_DT, t_max, seed=seed,
                                         init=self.init, log_every=self.LOG_EVERY),
                self._check, pause))
        return units


class Sweep:
    """``harness.run_sweep`` on the criterion-09 sine recipe (d=20,
    n_train = n_test = 200).  One unit is one (lambda, width) cell."""

    name = "sweep"
    calibration = "mixed"  # host-speed kernel, see calibration.py
    rerun_rtol = 0.0
    LAMBDAS = (1.3e-5, 1.3e-4, 1.3e-3, 1.3e-2, 0.13)
    WIDTHS = (5, 10, 20, 50)
    STEPS, LOG_EVERY, RESTARTS = 400, 200, 2

    def __init__(self, seed: int):
        data_seed, base_seed = _seeds(seed, self.name, 2)
        recipe = datasets.DataRecipe("sine", 200, 200, seed=data_seed,
                                     params={"d": 20, "noise_sd": 0.5})
        self.cfg = SweepConfig(
            lambdas=self.LAMBDAS, widths=self.WIDTHS, recipe=recipe,
            sgd=SgdConfig(step_size=0.1, batch_size=32, steps=self.STEPS,
                          init=InitSpec("gaussian", tau=0.5), log_every=self.LOG_EVERY),
            restarts_per_cell=self.RESTARTS, base_seed=base_seed, a_mode="normalized",
        )
        # set-up covers data generation; run_sweep realizes the recipe again
        recipe.realize()
        cells = len(self.LAMBDAS) * len(self.WIDTHS)
        self.work = f"{cells} cells, {cells * self.RESTARTS * self.STEPS} steps"

    def run_round(self, pause=None) -> list:
        # Cells are timed around the harness's per-cell function, which the
        # serial sweep looks up by name for every cell.
        times = {}
        run_cell = harness._run_cell

        def timed_cell(task):
            if pause is not None:
                pause()
            t0 = time.perf_counter()
            try:
                return run_cell(task)
            finally:
                times[task.i_lam, task.i_width] = (t0, time.perf_counter() - t0)

        harness._run_cell = timed_cell
        try:
            result = harness.run_sweep(self.cfg, jobs=1)
            error = ""
        except Exception as exc:  # the whole round's cells fail together
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            harness._run_cell = run_cell
        units = []
        for i in range(len(self.LAMBDAS)):
            for j in range(len(self.WIDTHS)):
                key = f"lam{i}_w{j}"
                start, seconds = times.get((i, j), (math.nan, math.nan))
                if result is None:
                    units.append(Unit(key, seconds, False, detail=error, start=start))
                    continue
                value = float(result.grid[i, j])
                # +inf is the sweep's sentinel for a divergent cell: a result
                ok = value > 0 and not math.isnan(value)
                units.append(Unit(key, seconds, ok, value, value,
                                  "" if ok else f"bad cell value {value!r}", start=start))
        return units


class FpeMixing:
    """``fpe --gap`` solves (half-width rule, grid, decay fit, spectral gap)
    on the 2-D README-style spec (gen_sine d=2, p=1, lam = 1.5 * lambda_c).
    One unit is one solve at one (s, m)."""

    name = "fpe_mixing"
    calibration = "implicit_steps"  # host-speed kernel, see calibration.py
    # decay_rate's ARPACK-free path is bit-reproducible; the eigsh start
    # vector is not, so reruns agree to round-off only
    rerun_rtol = 1e-9
    # one grid size, so the units cost alike and the median and tail are
    # those of one distribution rather than the edges of three clusters
    CONFIGS = ((0.5, 51), (0.4, 51), (0.3, 51), (0.2, 51))
    T_MAX, DT = 20.0, 0.02

    def __init__(self, seed: int):
        (data_seed,) = _seeds(seed, self.name, 1)
        data = datasets.gen_sine(d=2, n=16, noise_sd=0.1, seed=data_seed)
        self.spec = _normalized_spec(data, p=1, lam_mult=1.5)
        solves = len(self.CONFIGS) * round(self.T_MAX / self.DT)
        self.work = f"{len(self.CONFIGS)} solves, {solves} triangular solves"

    def _solve(self, s: float, m: int):
        half_width = fpe.suggest_half_width(self.spec, s)
        grid = fpe.build_grid(self.spec, half_width, m, s)
        fit = fpe.decay_rate(grid, t_max=self.T_MAX, dt=self.DT)
        return fit, fpe.spectral_gap(grid)

    @staticmethod
    def _check(out):
        fit, gap = out
        drift = float(np.max(np.abs(fit.mass_series - 1.0)))
        ok = drift <= MASS_DRIFT_LIMIT and math.isfinite(fit.rate) and 0 < gap < math.inf
        value = {"gap": float(gap), "rate": float(fit.rate)}
        detail = "" if ok else f"mass drift {drift:.3e}, rate {fit.rate!r}, gap {gap!r}"
        readouts = {"mass_drift": drift, "decay_gap_ratio": float(fit.rate / gap)}
        return ok, value, value, detail, readouts

    def run_round(self, pause=None) -> list:
        return [_timed(f"s{s}_m{m}", lambda: self._solve(s, m), self._check, pause)
                for s, m in self.CONFIGS]


class VillaniScan:
    """``diagnostics.villani_scan`` on a sweep-scale spec (sigmoid, p=50,
    d=20, n=200, lam = 1.5 * lambda_c, s=0.1, 16 rays, r_max 1e3).
    One unit is one seeded scan."""

    name = "villani_scan"
    calibration = "mixed"  # host-speed kernel, see calibration.py
    rerun_rtol = 0.0
    SCANS, S, RAYS, R_MAX = 4, 0.1, 16, 1e3

    def __init__(self, seed: int):
        data_seed, *self.scan_seeds = _seeds(seed, self.name, 1 + self.SCANS)
        data = datasets.gen_sine(d=20, n=200, noise_sd=0.5, seed=data_seed)
        self.spec = _normalized_spec(data, p=50, lam_mult=1.5)
        points = self.SCANS * self.RAYS * len(diagnostics.scan_radii(self.R_MAX))
        self.work = f"{self.SCANS} scans, {points} points"

    @staticmethod
    def _check(rep):
        finite = bool(np.all(np.isfinite(rep.v_values)))
        ok = (rep.diverging and finite and rep.grad_bound_violations == 0
              and rep.laplacian_bound_violations == 0)
        detail = "" if ok else (
            f"diverging={rep.diverging} finite={finite} "
            f"violations={rep.grad_bound_violations}/{rep.laplacian_bound_violations}")
        values = rep.v_values.tolist()
        return ok, values, values, detail, {}

    def run_round(self, pause=None) -> list:
        return [_timed(f"scan{i}",
                       lambda: diagnostics.villani_scan(self.spec, s=self.S, ray_count=self.RAYS,
                                                        r_max=self.R_MAX, seed=seed),
                       self._check, pause)
                for i, seed in enumerate(self.scan_seeds)]


WORKLOADS = {cls.name: cls for cls in (Chains, Sweep, FpeMixing, VillaniScan)}
