"""Command-line interface.

Subcommands: constants, villani-scan, train, sde, fpe, gen, sweep, ablate.
Exit codes: 0 on success (sweeps count divergence sentinels as success),
2 on configuration errors, 3 when a ``train`` or ``sde`` run diverges
(``diverged at step k: ...`` on stderr, no output file written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import activations, datasets, diagnostics, dynamics, fpe, harness, model
from .configio import (
    load_ablate_config,
    load_sgd_config,
    load_spec,
    load_sweep_config,
)


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
    report.to_json(args.out)
    print(
        f"diverging={report.diverging} "
        f"grad_violations={report.grad_bound_violations} "
        f"laplacian_violations={report.laplacian_bound_violations}"
    )
    return 0


def _cmd_train(args) -> int:
    spec = load_spec(args.spec)
    config = load_sgd_config(args.sgd)
    traj = dynamics.run_sgd(spec, config)
    lines = ["step,time,loss,grad_norm"]
    for k in range(len(traj.steps)):
        lines.append(
            f"{traj.steps[k]},{traj.times[k]!r},{traj.losses[k]!r},{traj.grad_norms[k]!r}"
        )
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"final loss {traj.losses[-1]:.6g} after {traj.steps[-1]} steps")
    return 0


def _cmd_sde(args) -> int:
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")
    spec = load_spec(args.spec)
    lines = ["path,step,t,loss"]
    paths = dynamics.run_sde_paths(
        spec, s=args.s, dt=args.dt, t_max=args.tmax,
        seeds=[args.seed + path_idx for path_idx in range(args.paths)],
        log_every=args.log_every,
    )
    for path_idx, traj in enumerate(paths):
        if isinstance(traj, dynamics.DivergenceError):
            raise traj
        for k in range(len(traj.steps)):
            lines.append(f"{path_idx},{traj.steps[k]},{traj.times[k]!r},{traj.losses[k]!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_fpe(args) -> int:
    spec = load_spec(args.spec)
    half_width = args.R if args.R is not None else fpe.suggest_half_width(spec, args.s)
    grid = fpe.build_grid(spec, half_width, args.m, args.s)
    fit = fpe.decay_rate(grid, t_max=args.tmax, dt=args.dt)
    if args.gap:
        payload = {
            "gap": fpe.spectral_gap(grid),
            "decay_rate": fit.rate,
            "r_squared": fit.r_squared,
        }
        print(json.dumps(payload, indent=2))
        return 0
    lines = ["t,chi2,mass"]
    for k in range(len(fit.times)):
        lines.append(f"{fit.times[k]!r},{fit.chi2_series[k]!r},{fit.mass_series[k]!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"decay rate {fit.rate:.6g} (r^2 = {fit.r_squared:.4f})")
    return 0


def _cmd_gen(args) -> int:
    with open(args.recipe) as fh:
        recipe = datasets.DataRecipe.from_dict(json.load(fh))
    train, _ = recipe.realize()
    datasets.save_csv(train, args.out)
    sidecar = Path(args.out).with_suffix(".meta.json")
    datasets.write_metadata(recipe, train, sidecar)
    print(f"wrote {train.n} rows to {args.out} (metadata: {sidecar})")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    result = harness.run_sweep(cfg, jobs=args.jobs)
    formats = ("csv", "svg") if args.svg else ("csv",)
    paths = harness.emit_report(result, args.out, formats=formats)
    n_sentinel = int(np.sum(~np.isfinite(result.grid)))
    print(f"wrote {', '.join(str(p) for p in paths)}; divergent cells: {n_sentinel}")
    return 0


def _cmd_ablate(args) -> int:
    configs, fractions = load_ablate_config(args.config)
    out_root = Path(args.out)
    for cfg in configs:
        curves = harness.run_ablation(cfg, fractions)
        sub = out_root / f"lam{cfg.lam:g}_p{cfg.width}"
        harness.write_ablation_csv(curves, sub)
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
    p.add_argument("--activation", choices=activations.KINDS)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--spec", help="problem spec JSON (prints lambda_c, glip_bound, ...)")
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

    p = sub.add_parser("sde", help="Euler-Maruyama paths of the diffusion limit")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "constants" and not args.spec and not args.activation:
        parser.error("constants needs --activation or --spec")
    try:
        return args.fn(args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except dynamics.DivergenceError as exc:
        print(f"diverged at step {exc.step}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
