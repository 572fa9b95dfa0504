"""JSON config loaders shared by the command-line interface.

Problem spec files describe a net + data + ridge strength:

    {"activation": "sigmoid", "beta": 1.0, "p": 8, "d": 2,
     "lambda": 0.13, "a_mode": "normalized", "data_path": "data.csv"}

``a_mode`` names the outer weights (:func:`villanets.model.outer_weights`):
"normalized" (a_j = 1 / (sqrt(p) * B_x), the default), "normalized_signed"
(the same with alternating signs) or "ones".  SGD configs, sweep configs,
and ablation configs mirror the corresponding dataclasses field for field.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import activations, datasets
from .datasets import DataRecipe
from .dynamics import InitSpec, SgdConfig
from .harness import AblationConfig, SweepConfig
from .model import LossSpec, Net, outer_weights


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_spec(path) -> LossSpec:
    obj = _load_json(path)
    act = activations.make(obj["activation"], float(obj.get("beta", 1.0)))
    p, d = int(obj["p"]), int(obj["d"])
    data_path = Path(path).parent / obj["data_path"]
    data = datasets.load_csv(data_path)
    if data.d != d:
        raise ValueError(f"spec says d={d} but {data_path} has d={data.d}")
    a = outer_weights(obj.get("a_mode", "normalized"), p, data.x_bound)
    net = Net(a, np.zeros((p, d)), act)
    return LossSpec(net, data, float(obj["lambda"]))


def parse_init(obj: dict | None) -> InitSpec:
    if not obj:
        return InitSpec()
    w0 = obj.get("w0")
    return InitSpec(
        mode=obj.get("mode", "gaussian"),
        tau=obj.get("tau"),
        w0=np.asarray(w0, dtype=np.float64) if w0 is not None else None,
    )


def parse_sgd(obj: dict) -> SgdConfig:
    return SgdConfig(
        step_size=float(obj["step_size"]),
        batch_size=int(obj["batch_size"]),
        steps=int(obj["steps"]),
        seed=int(obj.get("seed", 0)),
        init=parse_init(obj.get("init")),
        log_every=int(obj.get("log_every", 100)),
    )


def load_sgd_config(path) -> SgdConfig:
    return parse_sgd(_load_json(path))


def load_sweep_config(path) -> SweepConfig:
    obj = _load_json(path)
    return SweepConfig(
        lambdas=tuple(obj["lambdas"]),
        widths=tuple(obj["widths"]),
        recipe=DataRecipe.from_dict(obj["recipe"]),
        sgd=parse_sgd(obj["sgd"]),
        restarts_per_cell=int(obj.get("restarts_per_cell", 1)),
        metric=obj.get("metric", "best_test_loss"),
        base_seed=int(obj.get("base_seed", 0)),
        act_kind=obj.get("activation", "sigmoid"),
        act_beta=float(obj.get("beta", 1.0)),
        a_mode=obj.get("a_mode", "normalized"),
    )


def load_ablate_config(path) -> tuple[list[AblationConfig], list[float]]:
    obj = _load_json(path)
    recipe = DataRecipe.from_dict(obj["recipe"])
    fractions = [float(f) for f in obj["fractions"]]
    configs = []
    for setting in obj["settings"]:
        configs.append(
            AblationConfig(
                recipe=recipe,
                lam=float(setting["lambda"]),
                width=int(setting["width"]),
                step_size=float(setting["step_size"]),
                batch_size=int(setting["batch_size"]),
                steps=int(setting["steps"]),
                log_every=int(setting.get("log_every", 100)),
                base_seed=int(obj.get("base_seed", 0)),
                corruption_scale=float(obj.get("corruption_scale", 0.05)),
                init_tau=float(obj.get("init_tau", 1.0)),
                a_mode=obj.get("a_mode", "normalized"),
            )
        )
    return configs, fractions
