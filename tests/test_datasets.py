import json
import math

import numpy as np
import pytest

from villanets import activations, datasets
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
        again = DataRecipe.from_dict(json.loads(json.dumps(recipe.to_dict())))
        assert again == recipe

    def test_validation(self):
        with pytest.raises(ValueError):
            DataRecipe("polynomial", 10, 10, seed=0)
        with pytest.raises(ValueError):
            DataRecipe("sine", 0, 10, seed=0)
        with pytest.raises(ValueError):
            DataRecipe("sine", 10, 10, seed=0, corruption={"fraction": 2.0})


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        ds = datasets.gen_sine(4, 50, 0.2, seed=31)
        path = tmp_path / "data.csv"
        datasets.save_csv(ds, path)
        back = datasets.load_csv(path)
        np.testing.assert_allclose(back.xs, ds.xs, rtol=1e-15)
        np.testing.assert_allclose(back.ys, ds.ys, rtol=1e-15)

    def test_metadata_sidecar(self, tmp_path):
        recipe = DataRecipe("sine", 20, 10, seed=2, params={"d": 3, "noise_sd": 0.1})
        train, _ = recipe.realize()
        meta_path = tmp_path / "data.meta.json"
        datasets.write_metadata(recipe, train, meta_path)
        meta = json.loads(meta_path.read_text())
        assert meta["B_x"] == train.x_bound
        assert meta["hash"] == datasets.content_hash(train)
        assert meta["recipe"]["kind"] == "sine"

    def test_file_recipe_split(self, tmp_path):
        ds = datasets.gen_sine(3, 30, 0.0, seed=17)
        path = tmp_path / "full.csv"
        datasets.save_csv(ds, path)
        recipe = DataRecipe("file", 20, 10, seed=0, params={"path": str(path)})
        train, test = recipe.realize()
        assert train.n == 20 and test.n == 10
        np.testing.assert_allclose(np.vstack([train.xs, test.xs]), ds.xs)
