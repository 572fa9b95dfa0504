#!/usr/bin/env python3
"""Benchmark of the villanets package: one workload per run.

    python3 bench/run.py --workload chains --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The workload repeats its
fixed round of units for ``--seconds`` (at least two rounds), checks every
unit, and prints one line per metric followed, as the last line, by a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every layer's functions are wrapped in
spans, and reports the per-layer metrics plus ``trace.overhead_s``, the
median difference between a traced round and the untraced round before it.
Results, machine information and the spans of the first traced round are
also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibration
import stats
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOAD_NAMES = ("chains", "sweep", "fpe_mixing", "villani_scan")
DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-9
MIN_ROUNDS = 2
SETUP_SAMPLES = 5
SETUP_SLICES = 5
# one thread of load: BLAS pools are pinned before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_s", "s"),
    ("unit_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import ``villanets`` from this checkout's ``src``; raise if absent."""
    sys.path.insert(0, str(SRC))
    import villanets

    if Path(villanets.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"villanets imported from {villanets.__file__}, not {SRC}")
    return villanets


def make_workload(name: str, seed: int):
    import workloads

    return workloads.WORKLOADS[name](seed)


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Set-up time in this fresh process (imports, data, specs), raw and
    rescaled by the calibration slices timed right after it."""
    t0 = time.perf_counter()
    import_package()
    workload = make_workload(name, seed)
    seconds = time.perf_counter() - t0
    cal = calibration.KERNELS[workload.calibration]()
    factor = cal.round_factor([cal.slice() for _ in range(SETUP_SLICES)])
    return seconds, seconds * factor


def measure_setup(name: str, seed: int) -> tuple[list, list]:
    """Raw and rescaled set-up times of ``SETUP_SAMPLES`` fresh processes,
    run one at a time."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        seconds, rescaled = map(float, out.stdout.strip().splitlines()[-1].split())
        raw.append(seconds)
        scaled.append(rescaled)
    return raw, scaled


@dataclass
class Round:
    """One round of a workload: its wall time, its units and, when traced,
    its per-layer metrics."""

    wall: float
    units: list
    layers: dict | None = None
    # host-speed rescaling of the round and of each unit, see calibration.py
    factor: float = 1.0
    unit_factors: list | None = None
    slices: list | None = None      # calibration slice times during the round


def one_round(workload) -> Round:
    gc.collect()
    t0 = time.perf_counter()
    units = workload.run_round()
    return Round(time.perf_counter() - t0, units)


def calibrated_round(workload, cal) -> Round:
    """One round with a calibration slice before every unit and after the
    last; the slices inside the round are taken out of its wall time."""
    gc.collect()
    first = len(cal.times)
    t0 = time.perf_counter()
    units = workload.run_round(cal.pause)
    wall = time.perf_counter() - t0 - sum(sec for _, sec in cal.times[first:])
    cal.pause()
    slices = [sec for _, sec in cal.times[first:]]
    return Round(wall, units, factor=cal.round_factor(slices), slices=slices)


def run_rounds(workload, seconds: float, cal) -> list:
    """Repeat the workload's calibrated round until ``seconds`` have passed,
    then give every unit its rescaling factor."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(calibrated_round(workload, cal))
    for rnd in rounds:
        timed = [u for u in rnd.units if not math.isnan(u.start)]
        factors = dict(zip(map(id, timed), cal.unit_factors(
            cal.times, [(u.start, u.seconds) for u in timed])))
        rnd.unit_factors = [factors.get(id(u), rnd.factor) for u in rnd.units]
    return rounds


def run_traced(workload, seconds: float, pkg) -> tuple[list, list, list]:
    """Alternate untraced and traced rounds for ``seconds``, so that both
    see the same machine state.  Returns both lists of rounds and the spans
    of the first traced round."""
    untraced, traced, first_spans = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        untraced.append(one_round(workload))
        with tracing.Tracer() as tracer:
            tracing.instrument(tracer, pkg)
            rnd = one_round(workload)
        spans = tracer.take()
        rnd.layers = tracing.round_metrics(spans)
        first_spans = first_spans or spans
        traced.append(rnd)
    return untraced, traced, first_spans


def agree(a, b, rtol: float) -> bool:
    """Nested equality of unit values; floats to relative tolerance ``rtol``."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(agree(a[k], b[k], rtol) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(agree(x, y, rtol) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, (int, float)):
        if a == b:
            return True
        if math.isnan(a) or math.isinf(a) or math.isinf(b):
            return False
        return abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def check_units(units, rerun_rtol: float, reference=None) -> None:
    """Mark units failed when they differ from the first run of the same
    unit, or from ``reference`` (key -> value) when one is given."""
    first = {}
    for unit in units:
        if not unit.ok:
            continue
        if unit.key not in first:
            first[unit.key] = unit
        elif not agree(unit.value, first[unit.key].value, rerun_rtol):
            unit.ok, unit.detail = False, "rerun differs from the first run"
            continue
        if reference is not None and not agree(unit.ref, reference.get(unit.key),
                                               REFERENCE_RTOL):
            unit.ok, unit.detail = False, "differs from the reference value"


def load_reference(name: str):
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def unit_times(rounds, rescale: bool):
    """Times of the units that passed, each rescaled by its own factor when
    ``rescale``; all units when none passed."""
    pairs = [(u, f if rescale else 1.0) for r in rounds
             for u, f in zip(r.units, r.unit_factors or [1.0] * len(r.units))
             if not math.isnan(u.seconds)]
    times = [u.seconds * f for u, f in pairs if u.ok]
    return times or [u.seconds * f for u, f in pairs] or [math.nan]


def timings(rounds, rescale: bool) -> dict:
    """wall_s (mean round), unit_p50_s and the tail, rescaled or raw."""
    times = unit_times(rounds, rescale)
    pct, tail_value = stats.tail(times)
    walls = [r.wall * (r.factor if rescale else 1.0) for r in rounds]
    return {"wall_s": sum(walls) / len(walls), "unit_p50_s": stats.median(times),
            "unit_tail_s": tail_value, "tail_pct": pct, "n": len(times)}


def end_to_end(workload, rounds, setup) -> tuple[dict, list]:
    units = [u for r in rounds for u in r.units]
    attempted, failed, frac = stats.fail_frac(units)
    scaled, raw = timings(rounds, True), timings(rounds, False)
    setup_raw, setup_scaled = setup
    metrics = {
        "setup_s": stats.median(setup_scaled),
        "wall_s": scaled["wall_s"],
        "unit_p50_s": scaled["unit_p50_s"],
        "unit_tail_s": scaled["unit_tail_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = scaled["n"]
    lines = [
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup_scaled)} fresh-process "
        f"set-ups (raw {stats.median(setup_raw):.4f} s)",
        f"wall_s       {scaled['wall_s']:.4f} s   mean round of {workload.work} "
        f"({len(rounds)} rounds; raw {raw['wall_s']:.4f} s)",
        f"unit_p50_s   {scaled['unit_p50_s']:.4f} s   n={n} (raw {raw['unit_p50_s']:.4f} s)",
        f"unit_tail_s  {scaled['unit_tail_s']:.4f} s   p{scaled['tail_pct']:g}, n={n} "
        f"(raw {raw['unit_tail_s']:.4f} s)",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        f"fail_frac    {frac:.4g}   ({failed} of {attempted} units failed)",
        f"calibration  kernel {workload.calibration}, median slice "
        f"{stats.median([x for r in rounds for x in r.slices]):.4f} s (reference "
        f"{calibration.KERNELS[workload.calibration].REFERENCE_SECONDS:g} s); timings "
        f"above are rescaled to the reference speed",
    ]
    return metrics, lines


def per_layer(workload, untraced, traced) -> tuple[dict, list]:
    first = traced[0].layers
    metrics = {}
    for name in first:
        if name in tracing.COUNT_METRICS:
            metrics[name] = first[name]
        else:
            metrics[name] = stats.median([r.layers[name] for r in traced])
    unstable = sorted(name for name in tracing.COUNT_METRICS & first.keys()
                      if any(r.layers[name] != first[name] for r in traced))
    readouts = [u.readouts for r in traced for u in r.units if u.readouts]
    metrics["fpe.mass_drift_max"] = max((x["mass_drift"] for x in readouts), default=0.0)
    metrics["fpe.decay_gap_ratio"] = (
        stats.median([x["decay_gap_ratio"] for x in readouts]) if readouts else 0.0)
    metrics["trace.overhead_s"] = stats.median(
        [t.wall - u.wall for t, u in zip(traced, untraced)])
    lines = [f"traced rounds {len(traced)}, untraced rounds {len(untraced)}; "
             f"counts and times are per round of {workload.work}"]
    if unstable:
        lines.append(f"warning: counts differ between rounds: {', '.join(unstable)}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()

    if args.setup_probe:
        print("%r %r" % setup_probe(args.workload, args.seed))
        return 0
    try:
        pkg = import_package()
        setup = measure_setup(args.workload, args.seed)
        workload = make_workload(args.workload, args.seed)
        cal = None if args.trace else calibration.KERNELS[workload.calibration]()
        reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    except (ImportError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        untraced, traced, spans = run_traced(workload, args.seconds, pkg)
        tracing.write_spans(spans, RESULTS / f"{stem}-spans.csv")
        rounds = untraced + traced
    else:
        rounds = run_rounds(workload, args.seconds, cal)
    units = [u for r in rounds for u in r.units]
    check_units(units, workload.rerun_rtol, reference)
    attempted, failed, _ = stats.fail_frac(units)

    if args.trace:
        metrics, lines = per_layer(workload, untraced, traced)
        units_of = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    else:
        metrics, lines = end_to_end(workload, rounds, setup)
        units_of = dict(END_TO_END)
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s, reference checks {'on' if reference else 'off'}")
    for line in lines:
        print(line)
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:34s} {value:.6g} {units_of[name]}")
    for unit in units:
        if not unit.ok:
            print(f"FAILED {unit.key}: {unit.detail}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]} for name in units_of},
    }
    raw = {"setup_s": setup[0], "setup_rescaled_s": setup[1],
           "round_walls_s": [r.wall for r in rounds],
           "unit_s": [[u.seconds for u in r.units] for r in rounds],
           "calibration_s": [r.slices for r in rounds],
           "round_factors": [r.factor for r in rounds],
           "unit_factors": [r.unit_factors for r in rounds]}
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "env": env, "raw": raw}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
