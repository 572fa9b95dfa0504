import xml.etree.ElementTree as ET

import numpy as np
import pytest

from villanets import dynamics, harness, model
from villanets.datasets import DataRecipe
from villanets.dynamics import InitSpec, SgdConfig
from villanets.harness import AblationConfig, SweepConfig


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
        with pytest.raises(ValueError):
            SweepConfig(lambdas=(0.1,), widths=(2,), recipe=tiny_recipe(),
                        sgd=SgdConfig(0.05, 8, 10), metric="bogus")


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        result = harness.run_sweep(tiny_sweep(restarts=2))
        harness.emit_report(result, tmp_path)
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
        paths = harness.emit_report(result, tmp_path, formats=("csv", "svg"))
        svg = [p for p in paths if p.suffix == ".svg"][0]
        ET.fromstring(svg.read_text())  # raises on malformed XML
        assert harness.heatmap_svg(result) == harness.heatmap_svg(result)

    def test_csv_only_by_default(self, tmp_path):
        result = harness.run_sweep(tiny_sweep())
        paths = harness.emit_report(result, tmp_path)
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

    def test_curve_shapes_and_fraction_zero(self):
        curves = harness.run_ablation(self.ablation_cfg(), [0.0, 0.9])
        for f, c in curves.items():
            assert len(c.steps) == len(c.clean_test) == len(c.noisy_test)
        # with no corruption the two test streams coincide
        np.testing.assert_array_equal(curves[0.0].clean_test, curves[0.0].noisy_test)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            harness.run_ablation(self.ablation_cfg(), [0.0, 1.5])

    def test_fractions_checked_before_any_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking every fraction")

        monkeypatch.setattr(harness, "run_sgd", no_training)
        with pytest.raises(ValueError, match="fractions"):
            harness.run_ablation(self.ablation_cfg(), [0.0, 1.5])

    def test_csv_emission(self, tmp_path):
        curves = harness.run_ablation(self.ablation_cfg(), [0.0, 0.5])
        paths = harness.write_ablation_csv(curves, tmp_path)
        assert len(paths) == 2
        header = paths[0].read_text().splitlines()[0]
        assert header == "step,train_loss,clean_test,noisy_test"
