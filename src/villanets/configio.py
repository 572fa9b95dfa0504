"""JSON config loaders shared by the command-line interface.

Problem spec files describe a net + data + ridge strength:

    {"activation": "sigmoid", "beta": 1.0, "p": 8, "d": 2,
     "lambda": 0.13, "a_mode": "normalized", "data_path": "data.csv"}

``a_mode`` names the outer weights (:func:`villanets.model.outer_weights`):
"normalized" (a_j = 1 / (sqrt(p) * B_x), the default), "normalized_signed"
(the same with alternating signs) or "ones".  SGD configs, sweep configs,
and ablation configs mirror the corresponding dataclasses field for field;
an optional key a file leaves out takes the dataclass default.
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


def _given(obj: dict, keys: dict) -> dict:
    """Keyword arguments for the optional keys that ``obj`` holds; ``keys``
    maps a file key to (argument name, cast).  A key the file leaves out is
    not passed, so each default is written once, in its dataclass."""
    return {name: cast(obj[key]) for key, (name, cast) in keys.items() if key in obj}


def _as_is(value):
    return value


def parse_init(obj: dict | None) -> InitSpec:
    obj = obj or {}
    opts = _given(obj, {"mode": ("mode", _as_is), "tau": ("tau", _as_is)})
    if obj.get("w0") is not None:
        opts["w0"] = np.asarray(obj["w0"], dtype=np.float64)
    return InitSpec(**opts)


def parse_sgd(obj: dict) -> SgdConfig:
    return SgdConfig(
        step_size=float(obj["step_size"]),
        batch_size=int(obj["batch_size"]),
        steps=int(obj["steps"]),
        init=parse_init(obj.get("init")),
        **_given(obj, {"seed": ("seed", int), "log_every": ("log_every", int)}),
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
        **_given(obj, {"restarts_per_cell": ("restarts_per_cell", int),
                       "metric": ("metric", _as_is), "base_seed": ("base_seed", int),
                       "activation": ("act_kind", _as_is), "beta": ("act_beta", float),
                       "a_mode": ("a_mode", _as_is)}),
    )


def load_ablate_config(path) -> tuple[list[AblationConfig], list[float]]:
    obj = _load_json(path)
    recipe = DataRecipe.from_dict(obj["recipe"])
    fractions = [float(f) for f in obj["fractions"]]
    shared = _given(obj, {"base_seed": ("base_seed", int),
                          "corruption_scale": ("corruption_scale", float),
                          "init_tau": ("init_tau", float), "a_mode": ("a_mode", _as_is)})
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
                **_given(setting, {"log_every": ("log_every", int)}),
                **shared,
            )
        )
    return configs, fractions
