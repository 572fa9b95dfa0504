import concurrent.futures
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from villanets import activations, cli, dynamics, harness, model
from villanets.datasets import DataRecipe
from villanets.dynamics import InitSpec, SgdConfig
from villanets.harness import AblationConfig, SweepConfig


def _no_training(*args, **kwargs):
    raise AssertionError("trained before checking every fraction")


def tiny_recipe(seed=3):
    return DataRecipe("sine", 40, 40, seed=seed, params={"d": 4, "noise_sd": 0.2})


def tiny_sweep(lambdas=(1e-3, 0.13), widths=(2, 4), restarts=1, base_seed=0,
               steps=300, step_size=0.05, log_every=50):
    return SweepConfig(
        lambdas=lambdas,
        widths=widths,
        recipe=tiny_recipe(),
        sgd=SgdConfig(step_size=step_size, batch_size=8, steps=steps,
                      init=InitSpec("gaussian", tau=0.5), log_every=log_every),
        restarts_per_cell=restarts,
        base_seed=base_seed,
    )


class TestSweep:
    @pytest.mark.parametrize("kwargs, error, message", [
        ({"widths": (2.5,)}, ValueError, "width must be an integer, not 2.5"),
        ({"widths": ("2",)}, TypeError, "width must be an integer, not '2'"),
        ({"lambdas": (True,)}, TypeError, "lambda must be a number, not True"),
        ({"lambdas": ("0.1",)}, TypeError, "lambda must be a number, not '0.1'"),
    ], ids=["width-fraction", "width-string", "lambda-bool", "lambda-string"])
    def test_cells_are_numbers_as_given(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            tiny_sweep(**kwargs)

    def test_degenerate_sweep_equals_single_run(self):
        cfg = tiny_sweep(lambdas=(0.05,), widths=(3,))
        result = harness.run_sweep(cfg)
        train, test = cfg.recipe.realize()
        spec = harness.build_cell_spec(train, 3, 0.05, cfg.activation())
        seed = harness.cell_seed(cfg.base_seed, 0, 0, 0)
        traj = dynamics.run_sgd(
            spec,
            SgdConfig(step_size=0.05, batch_size=8, steps=300, seed=seed,
                      init=InitSpec("gaussian", tau=0.5), log_every=50),
            eval_fn=lambda w: harness.test_mse(spec, test, w),
        )
        assert result.grid[0, 0] == float(traj.eval_values.min())

    def test_deterministic_rerun(self):
        r1 = harness.run_sweep(tiny_sweep())
        r2 = harness.run_sweep(tiny_sweep())
        np.testing.assert_array_equal(r1.grid, r2.grid)

    def test_pool_is_sized_by_the_cells(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process, so
        # that no worker is started: a pool forks all its workers at once
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        one_cell = tiny_sweep(lambdas=(0.05,), widths=(3,))
        result = harness.run_sweep(one_cell, jobs=64)
        np.testing.assert_array_equal(result.grid, harness.run_sweep(one_cell).grid)
        for jobs in (64, 3):
            harness.run_sweep(tiny_sweep(steps=50), jobs=jobs)
        assert asked == [1, 4, 3]

    def test_parallel_matches_serial(self):
        r1 = harness.run_sweep(tiny_sweep(restarts=2), jobs=1)
        r2 = harness.run_sweep(tiny_sweep(restarts=2), jobs=2)
        np.testing.assert_array_equal(r1.grid, r2.grid)
        for row1, row2 in zip(r1.per_cell, r2.per_cell, strict=True):
            assert {**row1, "wall_time": 0} == {**row2, "wall_time": 0}

    def test_cell_seeds_positional(self):
        assert harness.cell_seed(1, 2, 3, 4) == harness.cell_seed(1, 2, 3, 4)
        assert harness.cell_seed(1, 2, 3, 4) != harness.cell_seed(1, 3, 2, 4)

    def test_divergent_cell_carries_sentinel(self):
        # at step 10 the loss passes the limit by the log point; at step 1e3
        # the weights overflow long before it
        for step_size, steps in ((10.0, 50), (1e3, 400)):
            cfg = tiny_sweep(lambdas=(0.5,), widths=(2,), step_size=step_size,
                             steps=steps, log_every=steps)
            with np.errstate(over="ignore", invalid="ignore"):
                result = harness.run_sweep(cfg)
            assert np.isinf(result.grid[0, 0])
            assert "diverged" in result.per_cell[0]["status"]

    def test_final_train_loss_metric(self):
        cfg = SweepConfig(
            lambdas=(0.05,), widths=(2,), recipe=tiny_recipe(),
            sgd=SgdConfig(step_size=0.05, batch_size=8, steps=100,
                          init=InitSpec("gaussian", tau=0.5), log_every=20),
            metric="final_train_loss",
        )
        result = harness.run_sweep(cfg)
        assert np.isfinite(result.grid[0, 0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_sweep(lambdas=())
        with pytest.raises(ValueError, match="restarts_per_cell must be at least 1"):
            tiny_sweep(restarts=0)
        with pytest.raises(ValueError):
            SweepConfig(lambdas=(0.1,), widths=(2,), recipe=tiny_recipe(),
                        sgd=SgdConfig(0.05, 8, 10), metric="bogus")

    @pytest.mark.parametrize("change, match", [
        ({"lambdas": (0.01, -0.1)}, "lam must be finite and at least 0"),
        ({"lambdas": (0.01, math.inf)}, "lam must be finite and at least 0"),
        ({"lambdas": (0.01, 0.01)}, "lambdas must not repeat"),
        ({"widths": (2, 0)}, "width must be at least 1"),
        ({"widths": (2, 2)}, "widths must not repeat"),
        ({"act_kind": "relu"}, "unknown activation kind"),
        ({"act_beta": 0.0}, "beta must be positive"),
        ({"a_mode": "signed"}, "unknown a_mode"),
        ({"sgd": SgdConfig(0.05, 41, 10)}, r"batch_size must be in \[1, 40\]"),
        ({"sgd": SgdConfig(0.05, 8, 10, seed=5)}, "sgd.seed is not read.*base_seed"),
    ])
    def test_every_cell_checked_at_construction(self, change, match):
        base = {"lambdas": (0.01, 0.1), "widths": (2, 3), "recipe": tiny_recipe(),
                "sgd": SgdConfig(0.05, 8, 10)}
        with pytest.raises(ValueError, match=match):
            SweepConfig(**{**base, **change})

    @pytest.mark.parametrize("field, value, error, message", [
        ("restarts_per_cell", 1.5, ValueError, "restarts_per_cell must be an integer, not 1.5"),
        ("base_seed", True, TypeError, "base_seed must be an integer, not True"),
        ("act_beta", "2", TypeError, "act_beta must be a number, not '2'"),
    ], ids=["restarts-fraction", "seed-bool", "beta-string"])
    def test_scalar_fields_are_numbers_as_given(self, field, value, error, message):
        with pytest.raises(error, match=message):
            replace(tiny_sweep(), **{field: value})


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        result = harness.run_sweep(tiny_sweep(restarts=2))
        cli.emit_report(result, tmp_path)
        header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header == "lambda,width,restart,metric"
        back = []
        for line in lines:
            lam, width, restart, metric = line.split(",")
            back.append((float(lam), int(width), int(restart), float(metric)))
        assert back == [(r["lam"], r["width"], r["restart"], r["metric"])
                        for r in result.per_cell]

    def test_svg_well_formed_and_deterministic(self, tmp_path):
        result = harness.run_sweep(tiny_sweep())
        paths = cli.emit_report(result, tmp_path, svg=True)
        svg = [p for p in paths if p.suffix == ".svg"][0]
        ET.fromstring(svg.read_text())  # raises on malformed XML
        assert cli.heatmap_svg(result) == cli.heatmap_svg(result)

    def test_svg_paints_a_divergent_cell_black(self):
        grid = np.array([[0.5, math.inf], [2.0, 8.0]])
        result = harness.SweepResult((0.01, 0.1), (2, 4), "best_test_loss", grid, [])
        fills = [rect.get("fill") for rect in ET.fromstring(cli.heatmap_svg(result))
                 if rect.tag.endswith("rect")]
        assert len(fills) == 4 and fills[1] == "rgb(0,0,0)"
        assert "rgb(0,0,0)" not in fills[:1] + fills[2:]

    def test_csv_only_by_default(self, tmp_path):
        result = harness.run_sweep(tiny_sweep())
        paths = cli.emit_report(result, tmp_path)
        assert [p.suffix for p in paths] == [".csv"]


class TestAblation:
    def ablation_cfg(self, base_seed=7):
        return AblationConfig(
            recipe=DataRecipe("sine", 60, 60, seed=3, params={"d": 4, "noise_sd": 0.0}),
            lam=0.05, width=4, step_size=0.05, batch_size=8, steps=400,
            log_every=100, base_seed=base_seed, a_mode="normalized_signed",
        )

    def test_repeatable(self):
        c1 = harness.run_ablation(self.ablation_cfg(), [0.0, 0.5])
        c2 = harness.run_ablation(self.ablation_cfg(), [0.0, 0.5])
        for f in (0.0, 0.5):
            np.testing.assert_array_equal(c1[f].clean_test, c2[f].clean_test)
            np.testing.assert_array_equal(c1[f].train_losses, c2[f].train_losses)

    def test_fraction_zero_is_a_run_on_the_clean_split(self):
        cfg = self.ablation_cfg()
        (curves,) = harness.run_ablation(cfg, [0.0]).values()
        train, test = cfg.recipe.realize()
        spec = harness.build_cell_spec(train, cfg.width, cfg.lam, activations.sigmoid(1.0),
                                       cfg.a_mode)
        traj = harness.run_sgd(spec, cfg.sgd, eval_fn=lambda w: np.stack(
            [harness.test_mse(spec, test, w), harness.test_mse(spec, test, w)], axis=-1))
        for got, want in ((curves.steps, traj.steps), (curves.train_losses, traj.losses),
                          (curves.clean_test, traj.eval_values[:, 0]),
                          (curves.noisy_test, traj.eval_values[:, 1])):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("change, match", [
        ({"lam": -0.1}, "lam must be finite and at least 0"),
        ({"width": 0}, "width must be at least 1"),
        ({"a_mode": "signed"}, "unknown a_mode"),
        ({"step_size": 0.0}, "step_size must be positive and finite"),
        ({"batch_size": 61}, r"batch_size must be in \[1, 60\]"),
        ({"steps": 0}, "steps must be at least 1"),
        ({"init_tau": math.nan}, "tau must be positive and finite"),
        ({"corruption_scale": math.inf}, "corruption_scale must be finite"),
        ({"recipe": DataRecipe("sine", 60, 60, seed=3, params={"d": 4},
                               corruption={"fraction": 0.5, "scale": 0.05})},
         "recipe must be clean"),
    ])
    def test_setting_checked_at_construction(self, change, match):
        with pytest.raises(ValueError, match=match):
            replace(self.ablation_cfg(), **change)

    @pytest.mark.parametrize("field, value, error, message", [
        ("lam", True, TypeError, "lam must be a number, not True"),
        ("width", 2.5, ValueError, "width must be an integer, not 2.5"),
        ("step_size", "0.05", TypeError, "step_size must be a number, not '0.05'"),
        ("steps", True, TypeError, "steps must be an integer, not True"),
        ("base_seed", 1.5, ValueError, "base_seed must be an integer, not 1.5"),
        ("corruption_scale", True, TypeError, "corruption_scale must be a number, not True"),
        ("init_tau", "1", TypeError, "init_tau must be a number, not '1'"),
    ], ids=["lam-bool", "width-fraction", "step-string", "steps-bool", "seed-fraction",
            "scale-bool", "tau-string"])
    def test_setting_fields_are_numbers_as_given(self, field, value, error, message):
        # as in an ablate file: refused in library code, not read as 1 or truncated
        with pytest.raises(error, match=message):
            replace(self.ablation_cfg(), **{field: value})
        integral = replace(self.ablation_cfg(), lam=0, width=4.0)
        assert (type(integral.lam), type(integral.width)) == (float, int)

    def test_every_fraction_shares_one_seeded_sgd_config(self):
        cfg = self.ablation_cfg()
        assert cfg.sgd == SgdConfig(step_size=cfg.step_size, batch_size=cfg.batch_size,
                                    steps=cfg.steps, seed=harness.cell_seed(cfg.base_seed, 0, 0, 0),
                                    init=InitSpec("gaussian", tau=cfg.init_tau),
                                    log_every=cfg.log_every)

    def test_refuses_a_recipe_with_any_corruption_value(self):
        # the ablation reads neither value, so a scale alone would be ignored
        recipe = DataRecipe("sine", 60, 60, seed=3, params={"d": 4},
                            corruption={"fraction": 0.0, "scale": 5.0})
        with pytest.raises(ValueError, match="recipe must be clean"):
            replace(self.ablation_cfg(), recipe=recipe)

    @pytest.mark.parametrize("fraction", [True, "0.5"], ids=["bool", "string"])
    def test_fractions_are_numbers_as_given(self, monkeypatch, fraction):
        # as in an ablate file: no fraction trains or keys its curves as 1
        monkeypatch.setattr(harness, "run_sgd", _no_training)
        with pytest.raises(TypeError, match=f"fraction must be a number, not {fraction!r}"):
            harness.run_ablation(self.ablation_cfg(), [fraction])

    def test_a_numpy_fraction_keys_its_curves_as_a_float(self):
        (key,) = harness.run_ablation(self.ablation_cfg(), [np.float64(0.5)])
        assert type(key) is float and key == 0.5

    def test_repeated_fraction_rejected_before_any_training(self, monkeypatch):
        monkeypatch.setattr(harness, "run_sgd", _no_training)
        with pytest.raises(ValueError, match="repeat"):
            harness.run_ablation(self.ablation_cfg(), [0.0, 0.5, 0.0])

    def test_curve_shapes_and_fraction_zero(self):
        curves = harness.run_ablation(self.ablation_cfg(), [0.0, 0.9])
        for f, c in curves.items():
            assert len(c.steps) == len(c.clean_test) == len(c.noisy_test)
        # with no corruption the two test streams coincide
        np.testing.assert_array_equal(curves[0.0].clean_test, curves[0.0].noisy_test)

    def test_fraction_validation(self):
        for fractions, match in (([0.0, 1.5], r"^fraction must be in \[0, 1\], not 1.5$"),
                                 ([], "^fractions must be a non-empty list$")):
            with pytest.raises(ValueError, match=match):
                harness.run_ablation(self.ablation_cfg(), fractions)

    def test_fractions_checked_before_any_training(self, monkeypatch):
        monkeypatch.setattr(harness, "run_sgd", _no_training)
        with pytest.raises(ValueError, match=r"^fraction must be in \[0, 1\], not 1.5$"):
            harness.run_ablation(self.ablation_cfg(), [0.0, 1.5])

    def test_csv_emission(self, tmp_path):
        curves = harness.run_ablation(self.ablation_cfg(), [0.0, 0.5])
        paths = cli.write_ablation_csv(curves, tmp_path)
        assert len(paths) == 2
        header = paths[0].read_text().splitlines()[0]
        assert header == "step,train_loss,clean_test,noisy_test"


def test_equal_recipes_and_configs_hash_alike():
    # params and corruption are kept as sorted pairs, so neither key order
    # nor the spelling of a number changes a recipe, its hash or a config's
    recipes = (DataRecipe("teacher", 40, 40, seed=3, params={"noise_sd": 0, "d": 4.0},
                          corruption={"scale": 0, "fraction": 0}),
               DataRecipe("teacher", 40.0, 40, seed=3, params={"d": 4, "noise_sd": 0.0}))
    assert recipes[0] == recipes[1] and hash(recipes[0]) == hash(recipes[1])
    assert len({DataRecipe("sine", 5, 5, 0), DataRecipe("sine", 5, 5, 1)}) == 2
    sweeps = [replace(tiny_sweep(), recipe=recipe) for recipe in recipes]
    ablations = [AblationConfig(recipe, 0.05, 2, 0.05, 8, 100) for recipe in recipes]
    train, test = recipes[0].realize()
    tasks = [harness._CellTask(0, 1, train, test, sweep) for sweep in sweeps]
    for first, second in (sweeps, ablations, tasks):
        assert first == second and hash(first) == hash(second)
    with pytest.raises(TypeError):
        recipes[0].param_map["d"] = 5    # the mapping is a read-only view
    assert recipes[0].param_map == {"d": 4, "noise_sd": 0.0, "p_teacher": 5}
    assert [type(v) for v in recipes[0].param_map.values()] == [int, float, int]
    assert recipes[0].to_dict()["corruption"] == {"fraction": 0.0, "scale": 0.0}
