import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import oracles
from villanets import activations, configio, datasets
from villanets.datasets import DataRecipe


class TestSine:
    def test_labels_follow_the_formula_without_noise(self):
        ds = datasets.gen_sine(20, 500, 0.0, seed=1)
        expected = np.sin(np.pi * np.sum(ds.xs**2, axis=1) / 20)
        np.testing.assert_array_equal(ds.ys, expected)
        assert np.all(np.abs(ds.ys) <= 1.0)

    def test_input_bound_certificate(self):
        for d in (1, 5, 20):
            ds = datasets.gen_sine(d, 200, 0.3, seed=2)
            assert ds.x_bound <= math.sqrt(d)
            assert ds.x_bound == np.max(np.linalg.norm(ds.xs, axis=1))

    def test_mean_squared_radius(self):
        ds = datasets.gen_sine(20, 100_000, 0.0, seed=3)
        assert np.mean(np.sum(ds.xs**2, axis=1) / 20) == pytest.approx(1 / 3, abs=0.01)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            datasets.gen_sine(0, 10, 0.0, seed=0)


class TestTeacher:
    def test_label_magnitude_bound(self):
        recipe = DataRecipe("teacher", 2000, 1, seed=5,
                            params={"d": 6, "p_teacher": 4, "noise_sd": 0.0})
        ds, _ = recipe.realize()
        a, _ = datasets.sample_teacher(6, 4, recipe.streams()[0])
        cap = np.linalg.norm(a) * math.sqrt(4) * 1.0  # Cauchy-Schwarz
        assert np.all(np.abs(ds.ys) <= cap)

    def test_variance_regression_value(self):
        # determinism regression: recorded at first build, must never drift
        recipe = DataRecipe("teacher", 100_000, 1, seed=123,
                            params={"d": 20, "p_teacher": 5, "noise_sd": 0.1})
        ds, _ = recipe.realize()
        assert float(np.var(ds.ys)) == 0.010825694547425265

    @pytest.mark.parametrize("params", [{"d": 0}, {"p_teacher": 0}])
    def test_rejects_bad_dimensions(self, params):
        with pytest.raises(ValueError, match="d and p_teacher must be at least 1"):
            DataRecipe("teacher", 5, 5, seed=1, params=params).realize()


class TestCorruption:
    def test_zero_fraction_is_identity(self):
        ds = datasets.gen_sine(5, 100, 0.1, seed=7)
        out = datasets.corrupt_labels(ds, 0.0, 0.05, seed=1)
        np.testing.assert_array_equal(out.ys, ds.ys)

    def test_zero_scale_is_identity(self):
        ds = datasets.gen_sine(5, 100, 0.1, seed=7)
        out = datasets.corrupt_labels(ds, 1.0, 0.0, seed=1)
        np.testing.assert_array_equal(out.ys, ds.ys)

    def test_exact_corruption_count(self):
        ds = datasets.gen_sine(5, 1000, 0.1, seed=9)
        out = datasets.corrupt_labels(ds, 0.5, 0.05, seed=2)
        assert int(np.sum(out.ys != ds.ys)) == 500

    def test_nested_across_fractions_for_fixed_seed(self):
        ds = datasets.gen_sine(5, 400, 0.1, seed=9)
        low = datasets.corrupt_labels(ds, 0.3, 0.05, seed=4)
        high = datasets.corrupt_labels(ds, 0.8, 0.05, seed=4)
        changed_low = np.flatnonzero(low.ys != ds.ys)
        np.testing.assert_array_equal(low.ys[changed_low], high.ys[changed_low])
        assert np.sum(high.ys != ds.ys) > changed_low.size

    def test_bound_recertified(self):
        ds = datasets.gen_sine(5, 500, 0.0, seed=11)
        out = datasets.corrupt_labels(ds, 0.9, 5.0, seed=3)
        assert out.y_bound == np.max(np.abs(out.ys))
        assert out.y_bound > ds.y_bound

    def test_fraction_validation(self):
        ds = datasets.gen_sine(2, 10, 0.0, seed=0)
        with pytest.raises(ValueError):
            datasets.corrupt_labels(ds, 1.5, 0.05, seed=0)


class TestRecipe:
    def test_same_seed_byte_identical(self):
        recipe = DataRecipe("teacher", 50, 30, seed=21,
                            params={"d": 4, "p_teacher": 3, "noise_sd": 0.1})
        t1, e1 = recipe.realize()
        t2, e2 = recipe.realize()
        assert datasets.content_hash(t1) == datasets.content_hash(t2)
        assert datasets.content_hash(e1) == datasets.content_hash(e2)

    def test_train_test_streams_disjoint(self):
        recipe = DataRecipe("sine", 50, 50, seed=8, params={"d": 3, "noise_sd": 0.0})
        train, test = recipe.realize()
        assert datasets.content_hash(train) != datasets.content_hash(test)
        # same shapes, different draws
        assert not np.array_equal(train.xs, test.xs)

    def test_teacher_shared_between_splits(self):
        recipe = DataRecipe("teacher", 2000, 2000, seed=13,
                            params={"d": 8, "p_teacher": 4, "noise_sd": 0.0})
        train, test = recipe.realize()
        # both splits' noise-free labels come from the one teacher drawn
        # from the shared stream
        a, w = datasets.sample_teacher(8, 4, recipe.streams()[0])
        for split in (train, test):
            np.testing.assert_array_equal(split.ys, a @ activations.sigmoid(1.0)(w @ split.xs.T))

    def test_corruption_applies_to_train_only(self):
        clean = DataRecipe("sine", 100, 100, seed=5, params={"d": 2, "noise_sd": 0.0})
        dirty = DataRecipe("sine", 100, 100, seed=5, params={"d": 2, "noise_sd": 0.0},
                           corruption={"fraction": 0.5, "scale": 0.1})
        ct, ce = clean.realize()
        dt, de = dirty.realize()
        np.testing.assert_array_equal(ce.ys, de.ys)
        np.testing.assert_array_equal(ct.xs, dt.xs)
        assert np.sum(ct.ys != dt.ys) == 50

    def test_round_trip_dict(self):
        recipe = DataRecipe("sine", 10, 10, seed=1, params={"d": 2, "noise_sd": 0.5})
        again = configio._parse_recipe(json.loads(json.dumps(asdict(recipe))), Path())
        assert again == recipe

    def test_validation(self):
        with pytest.raises(ValueError):
            DataRecipe("polynomial", 10, 10, seed=0)
        with pytest.raises(ValueError):
            DataRecipe("sine", 0, 10, seed=0)
        with pytest.raises(ValueError):
            DataRecipe("sine", 10, 10, seed=0, corruption={"fraction": 2.0})

    @pytest.mark.parametrize("kwargs, message", [
        ({"params": {"d": 2, "noise": 0.0}}, r"unknown sine params keys \['noise'\]"),
        ({"corruption": {"frac": 0.5}}, r"unknown corruption keys \['frac'\]"),
        ({"kind": "teacher", "params": {"d": 2, "p": 3}}, r"unknown teacher params keys \['p'\]"),
        ({"kind": "file"}, r"missing file params keys \['path'\]"),
    ], ids=["sine-params", "corruption", "teacher-params", "file-path"])
    def test_refuses_keys_it_does_not_read(self, kwargs, message):
        # a misspelt key would otherwise leave its setting at the default
        with pytest.raises(ValueError, match=message):
            DataRecipe(**{"kind": "sine", "n_train": 50, "n_test": 10, "seed": 0, **kwargs})

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"params": {"d": 2.5}}, ValueError, "d must be an integer, not 2.5"),
        ({"params": {"d": "2"}}, TypeError, "d must be an integer, not '2'"),
        ({"params": {"noise_sd": True}}, TypeError, "noise_sd must be a number, not True"),
        ({"kind": "teacher", "params": {"p_teacher": 1.5}}, ValueError,
         "p_teacher must be an integer, not 1.5"),
        ({"corruption": {"fraction": True}}, TypeError,
         "corruption fraction must be a number, not True"),
        ({"corruption": {"fraction": 0.1, "scale": "0.1"}}, TypeError,
         "corruption scale must be a number, not '0.1'"),
    ], ids=["d-fraction", "d-string", "noise-bool", "p_teacher-fraction", "fraction-bool",
            "scale-string"])
    def test_params_and_corruption_are_numbers_as_given(self, kwargs, error, message):
        # refused at construction, before any draw
        with pytest.raises(error, match=message):
            DataRecipe(**{"kind": "sine", "n_train": 50, "n_test": 10, "seed": 0, **kwargs})

    @pytest.mark.parametrize("field, value, error", [
        ("n_train", True, TypeError), ("n_test", 5.5, ValueError),
        ("seed", 1.5, ValueError), ("seed", "1", TypeError),
    ], ids=["n_train-bool", "n_test-fraction", "seed-fraction", "seed-string"])
    def test_counts_and_seed_are_numbers_as_given(self, field, value, error):
        with pytest.raises(error, match=f"{field} must be an integer, not {value!r}"):
            DataRecipe(**{"kind": "sine", "n_train": 50, "n_test": 10, "seed": 0, field: value})
        recipe = DataRecipe("sine", 50.0, 1e1, seed=np.int64(3))
        assert (recipe.n_train, recipe.n_test, recipe.seed) == (50, 10, 3)
        assert {type(v) for v in (recipe.n_train, recipe.n_test, recipe.seed)} == {int}

    def test_params_and_corruption_take_the_types_of_their_defaults(self):
        recipe = DataRecipe("teacher", 30, 10, seed=3, params={"d": 2.0, "noise_sd": 0},
                            corruption={"fraction": 1, "scale": 2})
        assert recipe.params == {"d": 2, "noise_sd": 0.0}
        assert [type(v) for v in recipe.params.values()] == [int, float]
        assert [type(v) for v in recipe.corruption.values()] == [float, float]
        given = DataRecipe("teacher", 30, 10, seed=3, params={"d": 2, "noise_sd": 0.0},
                           corruption={"fraction": 1.0, "scale": 2.0})
        for got, want in zip(recipe.realize(), given.realize()):
            np.testing.assert_array_equal(got.ys, want.ys)

    def test_params_left_out_take_the_table_defaults(self):
        for kind in ("sine", "teacher"):
            given, default = (DataRecipe(kind, 30, 10, seed=3, params=params).realize()
                              for params in ({"d": 2}, {**datasets.RECIPE_PARAMS[kind], "d": 2}))
            for got, want in zip(given, default):
                np.testing.assert_array_equal(got.ys, want.ys)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        ds = datasets.gen_sine(4, 50, 0.2, seed=31)
        path = tmp_path / "data.csv"
        oracles.write_data_csv(ds, path)
        back = datasets.load_csv(path)
        np.testing.assert_array_equal(back.xs, ds.xs)
        np.testing.assert_array_equal(back.ys, ds.ys)

    def test_csv_needs_a_feature_and_a_label(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("y\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="at least one feature column and a label"):
            datasets.load_csv(path)

    def test_file_recipe_split(self, tmp_path):
        ds = datasets.gen_sine(3, 30, 0.0, seed=17)
        path = tmp_path / "full.csv"
        oracles.write_data_csv(ds, path)
        recipe = DataRecipe("file", 20, 10, seed=0, params={"path": str(path)})
        train, test = recipe.realize()
        assert train.n == 20 and test.n == 10
        np.testing.assert_allclose(np.vstack([train.xs, test.xs]), ds.xs)
        too_many = DataRecipe("file", 25, 10, seed=0, params={"path": str(path)})
        with pytest.raises(ValueError, match="file dataset too small for requested split"):
            too_many.realize()


class TestAsNumber:
    def test_numbers_keep_their_values(self):
        for value in (0.1, 1e-300, -3, np.float64(0.13), np.int64(7)):
            got = datasets.as_number(value, "x")
            assert type(got) is float and got == value
        for value in (7, 1e4, 20.0, np.int64(7), np.float64(-2.0)):
            got = datasets.as_number(value, "n", int)
            assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, [1.0], {"x": 1}])
    def test_non_numbers_are_type_errors(self, value):
        for kind, noun in ((float, "a number"), (int, "an integer")):
            with pytest.raises(TypeError, match=f"x must be {noun}, not "):
                datasets.as_number(value, "x", kind)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, np.float64(0.5)])
    def test_fractions_are_no_integers(self, value):
        with pytest.raises(ValueError) as error:
            datasets.as_number(value, "n", int)
        assert str(error.value) == f"n must be an integer, not {value!r}"
