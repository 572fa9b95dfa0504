"""JSON config loaders shared by the command-line interface.

Problem spec files describe a net + data + ridge strength:

    {"activation": "sigmoid", "beta": 1.0, "p": 8, "d": 2,
     "lambda": 0.13, "a_mode": "normalized", "data_path": "data.csv"}

``a_mode`` names the outer weights (:func:`villanets.model.outer_weights`):
"normalized" (a_j = 1 / (sqrt(p) * B_x), the default), "normalized_signed"
(the same with alternating signs) or "ones".  Every other config is its
dataclass written as JSON, and its keys are the dataclass's fields: an SGD
config (``init`` an :class:`InitSpec`), a recipe, a sweep (``act_kind`` and
``act_beta`` spelt ``activation`` and ``beta``; its ``sgd`` takes no
``seed``, since the cells are seeded from ``base_seed``) and each ablate
setting (``lam`` spelt ``lambda``; the recipe and the shared fields sit at
the file's top level).  An unknown key and a missing required key are
refused, and an optional key left out takes the dataclass default.  Every
number (a field, a ``lambdas``, ``widths``, ``fractions`` or ``w0`` entry, a
recipe param or corruption entry, a spec's ``beta``) passes
``rules.as_number``: no bool, no string, and for an int no fraction
(``1e4`` is one).  The dataclasses, ``Activation`` included, apply that
rule to their own fields, so library code is held to it too.  A
``file`` recipe's relative ``path``, like a spec's ``data_path``, is read
against the folder of the config file that holds it.  Each failure, a JSON
syntax error and a value of the wrong JSON type (a string for an array)
included, is a ``ValueError`` that names the file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from . import activations, datasets, rules
from .datasets import DataRecipe
from .dynamics import InitSpec, SgdConfig
from .harness import AblationConfig, SweepConfig, build_cell_spec
from .rules import as_number, check_keys


def _load(path, parse):
    """``parse`` applied to the JSON in ``path``.  A wrongly typed value
    surfaces in ``parse`` as a TypeError or AttributeError; it, and a JSON
    syntax error, are raised again as a ValueError that names the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: wrongly typed value: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _build(cls, obj: dict, what: str, spelt=None, parse=None, drop=(), shared=None):
    """``cls`` built from the JSON object ``obj``, whose keys are the init
    fields of ``cls`` spelt as ``spelt`` maps them, less those in ``drop``:
    these take their defaults, or their values from ``shared``, the keys an
    enclosing object gives every ``obj``."""
    spelt, parse = spelt or {}, {"init": parse_init, **(parse or {})}
    fields = {spelt.get(f.name, f.name): f for f in dataclasses.fields(cls) if f.init}
    known = [key for key, f in fields.items() if f.name not in drop]
    check_keys(obj, what, known, [key for key in known if _required(fields[key])])
    given = {**(shared or {}), **obj}
    return cls(**{f.name: parse[f.name](given[key]) if f.name in parse else given[key]
                  for key, f in fields.items() if key in given})


def _array(value, what: str) -> list:
    if not isinstance(value, list):   # a string's characters would pass as entries
        raise TypeError(f"{what} must be a JSON array, not {value!r}")
    return value


def _required(field: dataclasses.Field) -> bool:
    return field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING


def load_spec(path):
    return _load(path, lambda obj: _parse_spec(obj, Path(path).parent))


def _parse_spec(obj: dict, folder: Path):
    """The spec file's vocabulary is not a dataclass, so it is read here."""
    check_keys(obj, "spec", ("activation", "beta", "p", "d", "lambda", "a_mode", "data_path"),
               ("activation", "p", "d", "lambda", "data_path"))
    act = activations.make(obj["activation"], obj.get("beta", 1.0))
    p, d = as_number(obj["p"], "p", int), as_number(obj["d"], "d", int)
    data_path = folder / obj["data_path"]
    data = datasets.load_csv(data_path)
    if data.d != d:
        raise ValueError(f"spec says d={d} but {data_path} has d={data.d}")
    a_mode = {"a_mode": obj["a_mode"]} if "a_mode" in obj else {}
    return build_cell_spec(data, p, as_number(obj["lambda"], "lambda"), act, **a_mode)


def parse_init(obj: dict | None) -> InitSpec:
    return _build(InitSpec, {} if obj is None else obj, "init")


def load_sgd_config(path) -> SgdConfig:
    return _load(path, lambda obj: _build(SgdConfig, obj, "sgd"))


def load_recipe(path) -> DataRecipe:
    return _load(path, lambda obj: _parse_recipe(obj, Path(path).parent))


def _parse_recipe(obj: dict, folder: Path) -> DataRecipe:
    """A ``file`` recipe's relative path is read against ``folder``, the
    folder of the config file that holds the recipe."""
    recipe = _build(DataRecipe, obj, "recipe")
    if recipe.kind != "file":
        return recipe
    return dataclasses.replace(recipe, params={"path": str(folder / recipe.param_map["path"])})


def load_sweep_config(path) -> SweepConfig:
    folder = Path(path).parent
    return _load(path, lambda obj: _build(
        SweepConfig, obj, "sweep", spelt={"act_kind": "activation", "act_beta": "beta"},
        parse={"sgd": lambda sgd: _build(SgdConfig, sgd, "sweep sgd", drop=("seed",)),
               "recipe": lambda recipe: _parse_recipe(recipe, folder),
               "lambdas": lambda values: _array(values, "lambdas"),
               "widths": lambda values: _array(values, "widths")}))


# the AblationConfig fields that an ablate file gives once, for every setting
_ABLATE_SHARED = ("recipe", "base_seed", "corruption_scale", "init_tau", "a_mode")


def load_ablate_config(path) -> tuple[list[AblationConfig], list[float]]:
    return _load(path, lambda obj: _parse_ablate(obj, Path(path).parent))


def _parse_ablate(obj: dict, folder: Path) -> tuple[list[AblationConfig], list[float]]:
    check_keys(obj, "ablate", (*_ABLATE_SHARED, "fractions", "settings"),
               ("recipe", "fractions", "settings"))
    fractions = [rules.fraction(f, "fraction") for f in _array(obj["fractions"], "fractions")]
    if not _array(obj["settings"], "settings"):
        raise ValueError("settings must be a non-empty list")
    shared = {key: obj[key] for key in _ABLATE_SHARED if key in obj}
    parse = {"recipe": lambda recipe: _parse_recipe(recipe, folder)}
    configs = [_build(AblationConfig, setting, "ablate setting", spelt={"lam": "lambda"},
                      parse=parse, drop=_ABLATE_SHARED, shared=shared)
               for setting in obj["settings"]]
    return configs, fractions
