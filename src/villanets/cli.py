"""Command-line interface.

Subcommands: constants, villani-scan, train, sde, fpe, gen, sweep, ablate.
Exit codes: 0 on success (sweeps count divergence sentinels as success),
2 on configuration errors (a path that cannot be read or written among
them), 3 when a ``train``, ``sde`` or ``ablate`` run diverges (``diverged
at step k: ...`` on stderr; the diverged run writes no file, earlier
``ablate`` settings keep theirs).  This module writes every
file; the library reads its inputs and computes.  Every CSV, ``gen``'s data
included, is a header plus plain decimals that ``np.loadtxt(path,
delimiter=",", skiprows=1)`` reads back exactly; every JSON file is
``json.dumps(payload, indent=2)``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import activations, datasets, diagnostics, dynamics, fpe, harness, model
from .configio import (
    load_ablate_config,
    load_recipe,
    load_sgd_config,
    load_spec,
    load_sweep_config,
)


def _write_csv(path, header: str, *columns) -> Path:
    """Write ``header``, then row k of ``columns`` per line.  Each value is
    the repr of its Python scalar: the shortest decimal that reads back as
    the same float, ints as ints, +inf as ``inf``."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    path = Path(path)
    path.write_text("\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n")
    return path


def _write_json(path, payload) -> Path:
    """Write ``payload`` as two-space-indented JSON, no trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path


def emit_report(result: harness.SweepResult, out_dir, svg: bool = False) -> list:
    """Write the sweep as a long-format CSV and optionally an SVG heatmap."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [_write_csv(out_dir / "sweep.csv", "lambda,width,restart,metric",
                        *([row[key] for row in result.per_cell]
                          for key in ("lam", "width", "restart", "metric")))]
    if svg:
        svg_path = out_dir / "sweep.svg"
        svg_path.write_text(heatmap_svg(result))
        paths.append(svg_path)
    return paths


def _ablation_name(fraction: float) -> str:
    return f"ablation_f{fraction:.2f}.csv"


def write_ablation_csv(curves_by_fraction: dict, out_dir) -> list:
    """One CSV per fraction: step, train_loss, clean_test, noisy_test."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [
        _write_csv(out_dir / _ablation_name(fraction),
                   "step,train_loss,clean_test,noisy_test",
                   c.steps, c.train_losses, c.clean_test, c.noisy_test)
        for fraction, c in sorted(curves_by_fraction.items())
    ]


def heatmap_svg(result: harness.SweepResult) -> str:
    """Deterministic standalone SVG heatmap of the sweep grid (log color scale)."""
    cell = 48                        # side of one grid cell, in SVG pixels
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


def _cmd_constants(args) -> int:
    if args.spec:
        spec = load_spec(args.spec)
        payload = {
            "lambda_c": model.lambda_c(spec.net, spec.data),
            "glip_bound": (
                model.glip_bound(spec) if spec.net.act.bounded else None
            ),
            "B_x": spec.data.x_bound,
            "B_y": spec.data.y_bound,
            "a_norm": spec.net.a_norm,
        }
    else:
        act = activations.make(args.activation, args.beta)
        payload = act.table()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_villani_scan(args) -> int:
    spec = load_spec(args.spec)
    report = diagnostics.villani_scan(
        spec, s=args.s, ray_count=args.rays, r_max=args.rmax, seed=args.seed
    )
    _write_json(args.out, report.to_dict())
    print(
        f"diverging={report.diverging} "
        f"grad_violations={report.grad_bound_violations} "
        f"laplacian_violations={report.laplacian_bound_violations}"
    )
    return 0


def _cmd_train(args) -> int:
    spec = load_spec(args.spec)
    config = load_sgd_config(args.sgd)
    t0 = time.perf_counter()
    traj = dynamics.run_sgd(spec, config)
    wall = time.perf_counter() - t0
    _write_csv(args.out, "step,time,loss,grad_norm",
               traj.steps, traj.times, traj.losses, traj.grad_norms)
    print(f"final loss {traj.losses[-1]:.6g} after {traj.steps[-1]} steps; "
          f"{_rate(traj.steps[-1], wall, 'steps')}")
    return 0


def _rate(count: int, wall: float, what: str) -> str:
    """``count`` units of ``what`` in ``wall`` seconds, as the commands print it."""
    return f"wall {wall:.3g} s, {count / wall:.0f} {what}/s"


def _cmd_sde(args) -> int:
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")
    spec = load_spec(args.spec)
    t0 = time.perf_counter()
    paths = dynamics.run_sde_paths(
        spec, s=args.s, dt=args.dt, t_max=args.tmax,
        seeds=[args.seed + path_idx for path_idx in range(args.paths)],
        log_every=args.log_every,
    )
    wall = time.perf_counter() - t0
    for traj in paths:
        if isinstance(traj, dynamics.DivergenceError):
            raise traj
    columns = zip(*([np.full(len(traj.steps), path_idx), traj.steps, traj.times, traj.losses]
                    for path_idx, traj in enumerate(paths)))
    _write_csv(args.out, "path,step,t,loss", *map(np.concatenate, columns))
    steps = int(paths[0].steps[-1])
    print(f"{len(paths)} paths x {steps} steps; {_rate(len(paths) * steps, wall, 'path-steps')}")
    return 0


def _cmd_fpe(args) -> int:
    spec = load_spec(args.spec)
    half_width = args.R if args.R is not None else fpe.suggest_half_width(spec, args.s)
    grid = fpe.build_grid(spec, half_width, args.m, args.s)
    # the gap first: it rejects an oversized operator before the decay run
    gap = fpe.spectral_gap(grid) if args.gap else None
    fit = fpe.decay_rate(grid, t_max=args.tmax, dt=args.dt)
    if args.gap:
        payload = {"gap": gap, "decay_rate": fit.rate, "r_squared": fit.r_squared}
        print(json.dumps(payload, indent=2))
        return 0
    _write_csv(args.out, "t,chi2,mass", fit.times, fit.chi2_series, fit.mass_series)
    print(f"decay rate {fit.rate:.6g} (r^2 = {fit.r_squared:.4f})")
    return 0


def _cmd_gen(args) -> int:
    recipe = load_recipe(args.recipe)
    train, _ = recipe.realize()
    _write_csv(args.out, ",".join([*(f"x{j}" for j in range(train.d)), "y"]),
               *train.xs.T, train.ys)
    sidecar = _write_json(Path(args.out).with_suffix(".meta.json"),
                          {"recipe": asdict(recipe), "seed": recipe.seed, "B_x": train.x_bound,
                           "B_y": train.y_bound, "hash": datasets.content_hash(train)})
    print(f"wrote {train.n} rows to {args.out} (metadata: {sidecar})")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    result = harness.run_sweep(cfg, jobs=args.jobs)
    paths = emit_report(result, args.out, svg=args.svg)
    n_sentinel = int(np.sum(~np.isfinite(result.grid)))
    print(f"wrote {', '.join(str(p) for p in paths)}; divergent cells: {n_sentinel}")
    return 0


def _cmd_ablate(args) -> int:
    configs, fractions = load_ablate_config(args.config)
    subs = [Path(args.out) / f"lam{cfg.lam:g}_p{cfg.width}" for cfg in configs]
    paths = [sub / _ablation_name(fraction) for sub in subs for fraction in fractions]
    clashes = sorted({str(path) for path in paths if paths.count(path) > 1})
    if clashes:
        raise ValueError(f"ablation curves would overwrite each other in {', '.join(clashes)}")
    for cfg, sub in zip(configs, subs):
        curves = harness.run_ablation(cfg, fractions)
        write_ablation_csv(curves, sub)
        finals = {f: float(c.clean_test[-1]) for f, c in curves.items()}
        print(f"lam={cfg.lam:g} p={cfg.width}: final clean-test {finals}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="villanets",
        description="Ridge-regularized depth-2 net training and mixing diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print activation or problem constants as JSON")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--activation", choices=activations.KINDS)
    which.add_argument("--spec", help="problem spec JSON (prints lambda_c, glip_bound, ...)")
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("villani-scan", help="certify divergence of the coercivity diagnostic")
    p.add_argument("--spec", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--rays", type=int, default=16)
    p.add_argument("--rmax", type=float, default=1e3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_villani_scan)

    p = sub.add_parser("train", help="run minibatch SGD; write step,time,loss,grad_norm CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--sgd", required=True, help="SGD config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("sde", help="Euler-Maruyama SDE paths; at --dt = --s, the theorem's SGD")
    p.add_argument("--spec", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-every", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sde)

    p = sub.add_parser("fpe", help="density evolution on a 1-D/2-D weight box")
    p.add_argument("--spec", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--R", type=float, default=None, help="box half-width (default: auto)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--gap", action="store_true", help="print gap/decay JSON instead of CSV")
    p.add_argument("--out", default="fpe.csv")
    p.set_defaults(fn=_cmd_fpe)

    p = sub.add_parser("gen", help="materialize a dataset recipe to CSV + metadata")
    p.add_argument("--recipe", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("sweep", help="ridge/width sweep; writes CSV (and optional SVG)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("ablate", help="noisy-label ablation; writes per-fraction curves")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except dynamics.DivergenceError as exc:
        print(f"diverged at step {exc.step}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
