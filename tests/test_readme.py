"""README's examples run as written, and say what they claim."""

import json
import re
from pathlib import Path

import pytest

import oracles
from villanets import configio, datasets

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_library_example_claims_hold():
    (block,) = _blocks("python")
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["lam_c"] == pytest.approx(0.125)
    report = names["report"]
    assert report.diverging
    assert report.grad_bound_violations == 0 and report.laplacian_bound_violations == 0
    assert abs(names["fit"].rate / names["gap"] - 1.0) <= 0.01


# the top-level key that tells each example config's kind, and its loader
LOADERS = (("data_path", configio.load_spec), ("lambdas", configio.load_sweep_config),
           ("fractions", configio.load_ablate_config), ("kind", configio.load_recipe),
           ("step_size", configio.load_sgd_config))


@pytest.mark.parametrize("block", _blocks("json"))
def test_json_examples_load(tmp_path, block):
    obj = json.loads(block)
    oracles.write_data_csv(datasets.gen_sine(obj.get("d", 2), 10, 0.0, seed=0),
                           tmp_path / "data.csv")
    path = tmp_path / "config.json"
    path.write_text(block)
    (load,) = [load for key, load in LOADERS if key in obj]
    load(path)
