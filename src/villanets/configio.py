"""JSON config loaders shared by the command-line interface.

Problem spec files describe a net + data + ridge strength:

    {"activation": "sigmoid", "beta": 1.0, "p": 8, "d": 2,
     "lambda": 0.13, "a_mode": "normalized", "data_path": "data.csv"}

``a_mode`` names the outer weights (:func:`villanets.model.outer_weights`):
"normalized" (a_j = 1 / (sqrt(p) * B_x), the default), "normalized_signed"
(the same with alternating signs) or "ones".  SGD configs, sweep configs,
and ablation configs mirror the corresponding dataclasses field for field;
an optional key a file leaves out takes the dataclass default.  A key that
no loader reads (a misspelt optional key, or ``seed`` in a sweep's ``sgd``,
whose cells are seeded from ``base_seed``) is refused rather than ignored.
An unknown key, a value of the wrong JSON type (a number where a list
belongs, a list where a number does) and a value out of range are each a
``ValueError`` that names the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import activations, datasets
from .datasets import DataRecipe
from .dynamics import InitSpec, SgdConfig
from .harness import AblationConfig, SweepConfig, build_cell_spec
from .model import LossSpec


def _load(path, parse):
    """``parse`` applied to the JSON in ``path``.  A wrongly typed value
    surfaces in ``parse`` as a TypeError or AttributeError; it is raised
    again as a ValueError that names the file."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return parse(obj)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: wrongly typed value: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _known(obj: dict, what: str, keys) -> dict:
    """``obj``, checked to hold no key outside ``keys``: a misspelt key
    would otherwise be ignored, and its setting silently take the default."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known keys: {sorted(keys)}")
    return obj


def load_spec(path) -> LossSpec:
    return _load(path, lambda obj: _parse_spec(obj, Path(path).parent))


def _parse_spec(obj: dict, folder: Path) -> LossSpec:
    _known(obj, "spec", ("activation", "beta", "p", "d", "lambda", "a_mode", "data_path"))
    act = activations.make(obj["activation"], float(obj.get("beta", 1.0)))
    p, d = int(obj["p"]), int(obj["d"])
    data_path = folder / obj["data_path"]
    data = datasets.load_csv(data_path)
    if data.d != d:
        raise ValueError(f"spec says d={d} but {data_path} has d={data.d}")
    return build_cell_spec(data, p, float(obj["lambda"]), act,
                           **_given(obj, {"a_mode": ("a_mode", _as_is)}))


def _given(obj: dict, keys: dict) -> dict:
    """Keyword arguments for the optional keys that ``obj`` holds; ``keys``
    maps a file key to (argument name, cast).  A key the file leaves out is
    not passed, so each default is written once, in its dataclass."""
    return {name: cast(obj[key]) for key, (name, cast) in keys.items() if key in obj}


def _as_is(value):
    return value


def parse_init(obj: dict | None) -> InitSpec:
    obj = _known(obj or {}, "init", ("mode", "tau", "w0"))
    opts = _given(obj, {"mode": ("mode", _as_is), "tau": ("tau", _as_is)})
    if obj.get("w0") is not None:
        opts["w0"] = np.asarray(obj["w0"], dtype=np.float64)
    return InitSpec(**opts)


_SGD_KEYS = ("step_size", "batch_size", "steps", "seed", "log_every", "init")


def parse_sgd(obj: dict) -> SgdConfig:
    _known(obj, "sgd", _SGD_KEYS)
    return SgdConfig(
        step_size=float(obj["step_size"]),
        batch_size=int(obj["batch_size"]),
        steps=int(obj["steps"]),
        init=parse_init(obj.get("init")),
        **_given(obj, {"seed": ("seed", int), "log_every": ("log_every", int)}),
    )


def load_sgd_config(path) -> SgdConfig:
    return _load(path, parse_sgd)


def load_recipe(path) -> DataRecipe:
    return _load(path, _parse_recipe)


def _parse_recipe(obj: dict) -> DataRecipe:
    """:meth:`DataRecipe.from_dict`, refusing keys that the recipe does not
    read, in ``params`` those of its kind."""
    _known(obj, "recipe", ("kind", "n_train", "n_test", "seed", "params", "corruption"))
    recipe = DataRecipe.from_dict(obj)
    _known(recipe.params, f"{recipe.kind} params", datasets.RECIPE_PARAMS[recipe.kind])
    _known(recipe.corruption, "corruption", ("fraction", "scale"))
    return recipe


def load_sweep_config(path) -> SweepConfig:
    return _load(path, _parse_sweep)


def _parse_sweep(obj: dict) -> SweepConfig:
    optional = {"restarts_per_cell": ("restarts_per_cell", int),
                "metric": ("metric", _as_is), "base_seed": ("base_seed", int),
                "activation": ("act_kind", _as_is), "beta": ("act_beta", float),
                "a_mode": ("a_mode", _as_is)}
    _known(obj, "sweep", ("lambdas", "widths", "recipe", "sgd", *optional))
    # every cell is seeded from base_seed, so a seed in sgd would go unread
    _known(obj["sgd"], "sweep sgd", [key for key in _SGD_KEYS if key != "seed"])
    return SweepConfig(
        lambdas=tuple(obj["lambdas"]),
        widths=tuple(obj["widths"]),
        recipe=_parse_recipe(obj["recipe"]),
        sgd=parse_sgd(obj["sgd"]),
        **_given(obj, optional),
    )


def load_ablate_config(path) -> tuple[list[AblationConfig], list[float]]:
    return _load(path, _parse_ablate)


def _parse_ablate(obj: dict) -> tuple[list[AblationConfig], list[float]]:
    optional = {"base_seed": ("base_seed", int),
                "corruption_scale": ("corruption_scale", float),
                "init_tau": ("init_tau", float), "a_mode": ("a_mode", _as_is)}
    _known(obj, "ablate", ("recipe", "fractions", "settings", *optional))
    recipe = _parse_recipe(obj["recipe"])
    fractions = [float(f) for f in obj["fractions"]]
    shared = _given(obj, optional)
    configs = []
    for setting in obj["settings"]:
        _known(setting, "ablate setting",
               ("lambda", "width", "step_size", "batch_size", "steps", "log_every"))
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
