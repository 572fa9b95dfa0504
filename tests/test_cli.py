import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

import oracles
from villanets import activations, cli, datasets, dynamics, fpe, harness, model
from villanets import configio
from villanets.configio import load_spec
from villanets.datasets import DataRecipe
from villanets.dynamics import InitSpec, SgdConfig
from villanets.harness import AblationConfig, SweepConfig


def _assert_reads_back(path, header, *columns):
    """``path`` has ``header`` and, read by ``np.loadtxt``, exactly ``columns``."""
    assert path.read_text().splitlines()[0] == header
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (len(columns[0]), len(columns))
    for got, want in zip(table.T, columns, strict=True):
        assert np.array_equal(got, want)


def _sde_lone_runs(workdir, seeds, t_max, log_every):
    """The path, step, t and loss columns of one lone run per seed, path-major."""
    spec = load_spec(workdir / "spec.json")
    trajs = [dynamics.run_sde(spec, s=0.05, dt=0.01, t_max=t_max, seed=seed,
                              log_every=log_every) for seed in seeds]
    return (np.concatenate([np.full(len(t.steps), i) for i, t in enumerate(trajs)]),
            *(np.concatenate([getattr(t, key) for t in trajs])
              for key in ("steps", "times", "losses")))


@pytest.fixture
def workdir(tmp_path):
    ds = datasets.gen_sine(2, 40, 0.2, seed=5)
    oracles.write_data_csv(ds, tmp_path / "data.csv")
    (tmp_path / "spec.json").write_text(json.dumps({
        "activation": "sigmoid", "beta": 1.0, "p": 2, "d": 2,
        "lambda": 0.2, "a_mode": "normalized", "data_path": "data.csv",
    }))
    ds1 = datasets.gen_sine(1, 30, 0.1, seed=6)
    oracles.write_data_csv(ds1, tmp_path / "data1.csv")
    (tmp_path / "spec1d.json").write_text(json.dumps({
        "activation": "sigmoid", "beta": 1.0, "p": 1, "d": 1,
        "lambda": 0.5, "a_mode": "normalized", "data_path": "data1.csv",
    }))
    (tmp_path / "sgd.json").write_text(json.dumps({
        "step_size": 0.05, "batch_size": 8, "steps": 200, "seed": 1,
        "log_every": 50, "init": {"mode": "gaussian", "tau": 0.5},
    }))
    return tmp_path


def test_constants_activation_table(capsys):
    assert cli.main(["constants", "--activation", "sigmoid", "--beta", "1.0"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["d1_sup"] == 0.25


def test_constants_from_spec(workdir, capsys):
    assert cli.main(["constants", "--spec", str(workdir / "spec.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_c"] == pytest.approx(0.125)
    assert payload["a_norm"] * payload["B_x"] == pytest.approx(1.0)


def test_constants_requires_source(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants"])
    assert exc.value.code == 2


def test_constants_takes_one_source(workdir):
    # --spec would win over --activation without a word
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--activation", "tanh", "--spec", str(workdir / "spec.json")])
    assert exc.value.code == 2


def test_villani_scan_cli(workdir, capsys):
    out = workdir / "report.json"
    code = cli.main(["villani-scan", "--spec", str(workdir / "spec.json"),
                     "--s", "0.1", "--rays", "8", "--rmax", "100",
                     "--seed", "0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["diverging"] is True


def test_train_cli(workdir):
    out = workdir / "traj.csv"
    code = cli.main(["train", "--spec", str(workdir / "spec.json"),
                     "--sgd", str(workdir / "sgd.json"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,time,loss,grad_norm"
    assert len(lines) > 2


def test_sde_cli(workdir):
    out = workdir / "ensemble.csv"
    code = cli.main(["sde", "--spec", str(workdir / "spec.json"),
                     "--s", "0.05", "--dt", "0.01", "--tmax", "0.5",
                     "--paths", "2", "--log-every", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "path,step,t,loss"
    assert any(line.startswith("1,") for line in lines[1:])


def test_train_and_sde_print_wall_time_and_rate(workdir, capsys):
    assert cli.main(["train", "--spec", str(workdir / "spec.json"),
                     "--sgd", str(workdir / "sgd.json"), "--out", str(workdir / "t.csv")]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"final loss \S+ after 200 steps; wall (\S+) s, (\d+) steps/s", line)
    assert match and float(match[1]) > 0 and int(match[2]) > 0
    assert cli.main(["sde", "--spec", str(workdir / "spec.json"),
                     "--s", "0.05", "--dt", "0.01", "--tmax", "0.5",
                     "--paths", "3", "--log-every", "10", "--out", str(workdir / "s.csv")]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"3 paths x 50 steps; wall (\S+) s, (\d+) path-steps/s", line)
    assert match and float(match[1]) > 0 and int(match[2]) > 0


def test_sde_cli_paths_are_seeded_lone_runs(workdir):
    # path i is the lone run with seed --seed + i; rows stay path-major
    out = workdir / "paths.csv"
    code = cli.main(["sde", "--spec", str(workdir / "spec.json"),
                     "--s", "0.05", "--dt", "0.01", "--tmax", "0.3",
                     "--paths", "3", "--seed", "7", "--log-every", "4", "--out", str(out)])
    assert code == 0
    _assert_reads_back(out, "path,step,t,loss",
                       *_sde_lone_runs(workdir, seeds=[7, 8, 9], t_max=0.3, log_every=4))


def test_sde_cli_rejects_log_every_below_one(workdir, capsys):
    code = cli.main(["sde", "--spec", str(workdir / "spec.json"),
                     "--s", "0.05", "--dt", "0.01", "--tmax", "0.1",
                     "--log-every", "0", "--out", str(workdir / "x.csv")])
    assert code == 2
    assert "log_every" in capsys.readouterr().err


def test_sde_cli_rejects_paths_below_one(workdir, capsys):
    for paths in ("0", "-3"):
        out = workdir / f"paths{paths}.csv"
        code = cli.main(["sde", "--spec", str(workdir / "spec.json"),
                         "--s", "0.05", "--dt", "0.01", "--tmax", "0.1",
                         "--paths", paths, "--out", str(out)])
        assert code == 2
        assert "--paths must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_sde_cli_divergence_exit_code(workdir, capsys):
    out = workdir / "diverged.csv"
    code = cli.main(["sde", "--spec", str(workdir / "spec.json"),
                     "--s", "0.05", "--dt", "1000", "--tmax", "1e6",
                     "--paths", "2", "--log-every", "1000", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("diverged at step ")
    assert "left the finite regime" in err
    assert not out.exists()


def test_fpe_cli_csv_and_gap(workdir, capsys):
    out = workdir / "fpe.csv"
    code = cli.main(["fpe", "--spec", str(workdir / "spec1d.json"),
                     "--s", "0.5", "--m", "201", "--tmax", "2.0",
                     "--dt", "0.02", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "t,chi2,mass"
    capsys.readouterr()
    code = cli.main(["fpe", "--spec", str(workdir / "spec1d.json"),
                     "--s", "0.5", "--m", "201", "--tmax", "2.0",
                     "--dt", "0.02", "--gap"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] > 0


def test_gen_cli(workdir, capsys):
    recipe = DataRecipe("sine", 25, 10, seed=4, params={"d": 3, "noise_sd": 0.1})
    (workdir / "recipe.json").write_text(json.dumps(asdict(recipe)))
    out = workdir / "gen.csv"
    code = cli.main(["gen", "--recipe", str(workdir / "recipe.json"),
                     "--out", str(out)])
    assert code == 0
    ds = datasets.load_csv(out)
    assert ds.n == 25 and ds.d == 3
    meta = json.loads((workdir / "gen.meta.json").read_text())
    assert list(meta) == ["recipe", "seed", "B_x", "B_y", "hash"]
    assert meta["hash"] == datasets.content_hash(ds)
    assert meta["B_x"] == ds.x_bound
    assert meta["recipe"]["kind"] == "sine"


def test_sweep_cli(workdir):
    config = {
        "lambdas": [0.01, 0.13],
        "widths": [2],
        "recipe": {"kind": "sine", "n_train": 30, "n_test": 30, "seed": 2,
                   "params": {"d": 3, "noise_sd": 0.2}},
        "sgd": {"step_size": 0.05, "batch_size": 8, "steps": 100,
                "log_every": 25, "init": {"mode": "gaussian", "tau": 0.5}},
        "restarts_per_cell": 1,
    }
    (workdir / "sweep.json").write_text(json.dumps(config))
    out = workdir / "sweepdir"
    code = cli.main(["sweep", "--config", str(workdir / "sweep.json"),
                     "--out", str(out), "--svg"])
    assert code == 0
    assert (out / "sweep.csv").exists() and (out / "sweep.svg").exists()


def test_ablate_cli(workdir):
    config = {
        "recipe": {"kind": "sine", "n_train": 40, "n_test": 40, "seed": 3,
                   "params": {"d": 3, "noise_sd": 0.0}},
        "fractions": [0.0, 0.5],
        "settings": [{"lambda": 0.05, "width": 2, "step_size": 0.05,
                      "batch_size": 8, "steps": 100, "log_every": 25}],
        "a_mode": "normalized_signed",
    }
    (workdir / "ablate.json").write_text(json.dumps(config))
    out = workdir / "abldir"
    code = cli.main(["ablate", "--config", str(workdir / "ablate.json"),
                     "--out", str(out)])
    assert code == 0
    sub = out / "lam0.05_p2"
    assert (sub / "ablation_f0.00.csv").exists()
    assert (sub / "ablation_f0.50.csv").exists()


def _outer_weights_both_ways(workdir, a_mode):
    """Outer weights of the workdir spec with ``a_mode``, from a spec file
    and from the harness."""
    spec_obj = json.loads((workdir / "spec.json").read_text())
    (workdir / "mode.json").write_text(json.dumps({**spec_obj, "a_mode": a_mode}))
    data = datasets.load_csv(workdir / "data.csv")
    return (lambda: load_spec(workdir / "mode.json").net.a,
            lambda: harness.build_cell_spec(data, 2, 0.2, activations.sigmoid(1.0), a_mode).net.a)


@pytest.mark.parametrize("a_mode", model.OUTER_MODES)
def test_spec_files_and_the_harness_share_outer_weight_modes(workdir, a_mode):
    from_file, from_harness = (build() for build in _outer_weights_both_ways(workdir, a_mode))
    np.testing.assert_array_equal(from_file, from_harness)
    x_bound = datasets.load_csv(workdir / "data.csv").x_bound
    np.testing.assert_array_equal(from_file, model.outer_weights(a_mode, 2, x_bound))


def test_unknown_outer_weight_mode_is_one_error(workdir):
    for build in _outer_weights_both_ways(workdir, "signed"):
        with pytest.raises(ValueError, match="unknown a_mode 'signed'"):
            build()


def test_config_error_exit_code(workdir, capsys):
    (workdir / "bad.json").write_text("{not json")
    code = cli.main(["sweep", "--config", str(workdir / "bad.json"),
                     "--out", str(workdir / "x")])
    assert code == 2
    bad_spec = {"activation": "sigmoid", "p": 2, "d": 3,
                "lambda": 0.1, "data_path": "data.csv"}
    (workdir / "badspec.json").write_text(json.dumps(bad_spec))
    code = cli.main(["constants", "--spec", str(workdir / "badspec.json")])
    assert code == 2


RECIPE = {"kind": "sine", "n_train": 30, "n_test": 30, "seed": 2, "params": {"d": 3}}
SGD_REQUIRED = {"step_size": 0.05, "batch_size": 8, "steps": 100}
SETTING_REQUIRED = {"lambda": 0.05, "width": 2, "step_size": 0.05, "batch_size": 8,
                    "steps": 100}


def _write(workdir, name, obj):
    path = workdir / name
    path.write_text(json.dumps(obj))
    return path


def test_config_files_with_required_keys_take_the_dataclass_defaults(workdir):
    sgd = SgdConfig(0.05, 8, 100)
    assert configio.load_sgd_config(_write(workdir, "s.json", SGD_REQUIRED)) == sgd
    sweep = {"lambdas": [0.1], "widths": [2], "recipe": RECIPE, "sgd": SGD_REQUIRED}
    assert configio.load_sweep_config(_write(workdir, "w.json", sweep)) == SweepConfig(
        (0.1,), (2,), DataRecipe(**RECIPE), sgd)
    ablate = {"recipe": RECIPE, "fractions": [0.0], "settings": [SETTING_REQUIRED]}
    configs, _ = configio.load_ablate_config(_write(workdir, "a.json", ablate))
    assert configs == [AblationConfig(DataRecipe(**RECIPE), 0.05, 2, 0.05, 8, 100)]


def test_config_files_set_every_optional_key(workdir):
    sgd_file = {**SGD_REQUIRED, "seed": 4, "log_every": 7, "init": {"tau": 0.3}}
    sgd = SgdConfig(0.05, 8, 100, seed=4, init=InitSpec(tau=0.3), log_every=7)
    assert configio.load_sgd_config(_write(workdir, "s.json", sgd_file)) == sgd
    init = configio.parse_init({"mode": "explicit", "w0": [[1.0, 2.0]]})
    assert init.mode == "explicit" and init.tau is None
    np.testing.assert_array_equal(init.w0, [[1.0, 2.0]])
    # a sweep seeds its cells from base_seed, so its sgd block takes no seed
    sweep = {"lambdas": [0.1], "widths": [2], "recipe": RECIPE,
             "sgd": {key: value for key, value in sgd_file.items() if key != "seed"},
             "restarts_per_cell": 3, "metric": "final_train_loss", "base_seed": 5,
             "activation": "tanh", "beta": 2.0, "a_mode": "ones"}
    assert configio.load_sweep_config(_write(workdir, "w.json", sweep)) == SweepConfig(
        (0.1,), (2,), DataRecipe(**RECIPE), replace(sgd, seed=0), restarts_per_cell=3,
        metric="final_train_loss", base_seed=5, act_kind="tanh", act_beta=2.0, a_mode="ones")
    ablate = {"recipe": RECIPE, "fractions": [0.0],
              "settings": [{**SETTING_REQUIRED, "log_every": 9}], "base_seed": 6,
              "corruption_scale": 0.2, "init_tau": 0.7, "a_mode": "normalized_signed"}
    configs, _ = configio.load_ablate_config(_write(workdir, "a.json", ablate))
    assert configs == [AblationConfig(DataRecipe(**RECIPE), 0.05, 2, 0.05, 8, 100,
                                      log_every=9, base_seed=6, corruption_scale=0.2,
                                      init_tau=0.7, a_mode="normalized_signed")]


def test_sweep_cli_rejects_jobs_below_one(workdir, capsys, monkeypatch):
    def no_data(self):
        raise AssertionError("realized the data before checking --jobs")

    monkeypatch.setattr(DataRecipe, "realize", no_data)
    sweep = {"lambdas": [0.1], "widths": [2], "recipe": RECIPE, "sgd": SGD_REQUIRED}
    config = _write(workdir, "w.json", sweep)
    for jobs in ("0", "-4"):
        out = workdir / f"jobs{jobs}"
        code = cli.main(["sweep", "--config", str(config), "--out", str(out),
                         "--jobs", jobs])
        assert code == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_ablate_cli_rejects_empty_fractions(workdir, capsys):
    ablate = {"recipe": RECIPE, "fractions": [], "settings": [SETTING_REQUIRED]}
    out = workdir / "abldir"
    code = cli.main(["ablate", "--config", str(_write(workdir, "a.json", ablate)),
                     "--out", str(out)])
    assert code == 2
    assert "fractions" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_cli_rejects_empty_settings(workdir, capsys, no_work):
    ablate = {"recipe": RECIPE, "fractions": [0.0], "settings": []}
    err = _refused(workdir, capsys, "ablate", _write(workdir, "a.json", ablate))
    assert "settings must be a non-empty list" in err


@pytest.mark.parametrize("settings, fractions", [
    # two settings that differ only in step_size share a folder
    ([{**SETTING_REQUIRED, "lambda": 0.013, "step_size": step} for step in (0.05, 0.1)],
     [0.0, 0.5]),
    # two fractions that round to the same file name
    ([{**SETTING_REQUIRED, "lambda": 0.013}], [0.501, 0.504]),
], ids=["settings", "fractions"])
def test_ablate_cli_refuses_colliding_outputs(workdir, capsys, monkeypatch, settings, fractions):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the output paths")

    monkeypatch.setattr(harness, "run_sgd", no_training)
    ablate = {"recipe": RECIPE, "fractions": fractions, "settings": settings}
    out = workdir / "abldir"
    code = cli.main(["ablate", "--config", str(_write(workdir, "a.json", ablate)),
                     "--out", str(out)])
    assert code == 2
    assert str(out / "lam0.013_p2" / "ablation_f0.50.csv") in capsys.readouterr().err
    assert not out.exists()


SWEEP_REQUIRED = {"lambdas": [0.1], "widths": [2], "recipe": RECIPE, "sgd": SGD_REQUIRED}
SPEC = {"activation": "sigmoid", "p": 2, "d": 2, "lambda": 0.2, "data_path": "data.csv"}


def _refused(workdir, capsys, command, path) -> str:
    """stderr of ``command`` run on the config file ``path`` (the spec for
    ``constants`` and ``train``; ``sgd`` is ``train`` with ``path`` as its
    SGD config), which must exit 2 with a configuration error, print
    nothing to stdout and write nothing."""
    path, out = str(path), str(workdir / "out")
    spec = str(workdir / "spec.json")
    argv = {"sweep": ["sweep", "--config", path, "--out", out],
            "ablate": ["ablate", "--config", path, "--out", out],
            "constants": ["constants", "--spec", path],
            "gen": ["gen", "--recipe", path, "--out", out],
            "train": ["train", "--spec", path, "--sgd", str(workdir / "sgd.json"), "--out", out],
            "sgd": ["train", "--spec", spec, "--sgd", path, "--out", out]}
    assert cli.main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert not captured.out
    assert not (workdir / "out").exists()
    return captured.err


@pytest.fixture
def no_work(monkeypatch):
    """Every training run and every data draw raises: a configuration error
    must be found before any of them."""
    def refuse(*args, **kwargs):
        raise AssertionError("started work before checking the whole configuration")

    for owner, name in ((harness, "run_sgd"), (harness, "run_sgd_chains"),
                        (dynamics, "run_sgd_chains"), (DataRecipe, "realize")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("command, obj", [
    ("sweep", {**SWEEP_REQUIRED, "lambdas": 0.1}),
    ("ablate", {"recipe": RECIPE, "fractions": 0.5, "settings": [SETTING_REQUIRED]}),
    ("sweep", {**SWEEP_REQUIRED, "sgd": {**SGD_REQUIRED, "init": {"tau": "x"}}}),
    ("sweep", {**SWEEP_REQUIRED, "restarts_per_cell": None}),
    ("constants", {**SPEC, "lambda": [0.1]}),
    ("gen", {**RECIPE, "n_train": [5]}),
    ("train", [SPEC]),
], ids=["lambdas-number", "fractions-number", "tau-string", "restarts-null", "lambda-list",
        "n_train-list", "spec-list"])
def test_wrongly_typed_values_are_configuration_errors(workdir, capsys, command, obj):
    path = _write(workdir, "bad.json", obj)
    err = _refused(workdir, capsys, command, path)
    assert err.startswith(f"configuration error: {path}: wrongly typed value")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["constants", "sgd"])
def test_a_config_path_that_is_a_folder_is_a_configuration_error(workdir, capsys, no_work,
                                                                 command):
    folder = workdir / "folder.json"
    folder.mkdir()
    err = _refused(workdir, capsys, command, folder)
    assert str(folder) in err


def test_a_json_syntax_error_names_the_file(workdir, capsys, no_work):
    path = workdir / "cut.json"
    path.write_text('{"steps": 10,')
    err = _refused(workdir, capsys, "sgd", path)
    assert err.startswith(f"configuration error: {path}: Expecting property name")


@pytest.mark.parametrize("command, obj, message", [
    ("sgd", {**SGD_REQUIRED, "init": "zero"}, "init must be a JSON object, not 'zero'"),
    ("sgd", {**SGD_REQUIRED, "init": []}, "init must be a JSON object, not []"),
    ("train", [1, 2], "spec must be a JSON object, not [1, 2]"),
    ("gen", {**RECIPE, "params": "d"}, "sine params must be a JSON object, not 'd'"),
    ("ablate", {"recipe": RECIPE, "fractions": [0.0], "settings": {"lambda": 0.1}},
     "settings must be a JSON array, not {'lambda': 0.1}"),
    ("ablate", {"recipe": RECIPE, "fractions": "0.5", "settings": [SETTING_REQUIRED]},
     "fractions must be a JSON array, not '0.5'"),
    ("sweep", {**SWEEP_REQUIRED, "lambdas": "0.1"}, "lambdas must be a JSON array, not '0.1'"),
    ("sweep", {**SWEEP_REQUIRED, "widths": "2"}, "widths must be a JSON array, not '2'"),
], ids=["init-string", "init-list", "spec-list", "params-string", "settings-object",
        "fractions-string", "lambdas-string", "widths-string"])
def test_a_value_of_the_wrong_json_type_is_named_as_such(workdir, capsys, no_work, command,
                                                         obj, message):
    # a string's characters or an object's keys are never read as entries or keys
    path = _write(workdir, "shape.json", obj)
    err = _refused(workdir, capsys, command, path)
    assert err.startswith(f"configuration error: {path}: ") and message in err


@pytest.mark.parametrize("change, message", [
    ({"step_size": 0.0}, "step_size must be positive and finite"),
    ({"lambda": -0.1}, "lam must be a finite nonnegative real"),
    ({"width": 0}, "width must be at least 1"),
    ({"batch_size": 31}, "batch_size must be in [1, 30]"),
], ids=["step_size", "lambda", "width", "batch_size"])
def test_ablate_cli_checks_every_setting_before_training_any(workdir, capsys, no_work,
                                                             change, message):
    settings = [SETTING_REQUIRED, {**SETTING_REQUIRED, "lambda": 0.13, **change}]
    ablate = {"recipe": RECIPE, "fractions": [0.0, 0.5], "settings": settings}
    assert message in _refused(workdir, capsys, "ablate", _write(workdir, "a.json", ablate))


def test_ablate_cli_refuses_a_corrupted_recipe(workdir, capsys, no_work):
    recipe = {**RECIPE, "corruption": {"fraction": 0.5, "scale": 0.05}}
    ablate = {"recipe": recipe, "fractions": [0.0, 0.5], "settings": [SETTING_REQUIRED]}
    err = _refused(workdir, capsys, "ablate", _write(workdir, "a.json", ablate))
    assert "recipe must be clean" in err and "corruption_scale" in err


@pytest.mark.parametrize("change, message", [
    ({"lambdas": [0.01, -0.1]}, "lam must be a finite nonnegative real"),
    ({"lambdas": [0.01, math.nan]}, "lam must be a finite nonnegative real"),
    ({"lambdas": [0.01, 0.01]}, "lambdas must not repeat"),
    ({"widths": [2, 0]}, "width must be at least 1"),
    ({"widths": [2, 2]}, "widths must not repeat"),
    ({"activation": "relu"}, "unknown activation kind 'relu'"),
    ({"a_mode": "signed"}, "unknown a_mode 'signed'"),
    ({"sgd": {**SGD_REQUIRED, "batch_size": 31}}, "batch_size must be in [1, 30]"),
], ids=["negative-lambda", "nan-lambda", "repeated-lambda", "zero-width", "repeated-width",
        "activation", "a_mode", "batch_size"])
def test_sweep_cli_checks_every_cell_before_training_any(workdir, capsys, no_work,
                                                         change, message):
    sweep = {**SWEEP_REQUIRED, "widths": [2, 3], **change}
    assert message in _refused(workdir, capsys, "sweep", _write(workdir, "w.json", sweep))


@pytest.mark.parametrize("command, obj, key", [
    ("sweep", {**SWEEP_REQUIRED, "restart_per_cell": 4}, "restart_per_cell"),
    ("sweep", {**SWEEP_REQUIRED, "sgd": {**SGD_REQUIRED, "seed": 5}}, "seed"),
    ("sweep", {**SWEEP_REQUIRED, "recipe": {**RECIPE, "params": {"d": 3, "noise": 0.0}}},
     "noise"),
    ("sweep", {**SWEEP_REQUIRED, "sgd": {**SGD_REQUIRED, "init": {"taus": 0.5}}}, "taus"),
    ("ablate", {"recipe": RECIPE, "fractions": [0.0], "settings": [SETTING_REQUIRED],
                "corruption_scal": 0.1}, "corruption_scal"),
    ("ablate", {"recipe": RECIPE, "fractions": [0.0],
                "settings": [SETTING_REQUIRED, {**SETTING_REQUIRED, "log_evry": 5}]},
     "log_evry"),
    ("gen", {**RECIPE, "corruption": {"fraction": 0.1, "scales": 0.1}}, "scales"),
    ("gen", {**RECIPE, "kind": "teacher", "params": {"d": 3, "p": 2}}, "p"),
    ("gen", {**RECIPE, "n_tests": 5}, "n_tests"),
    ("train", {**SPEC, "lamda": 0.3}, "lamda"),
    ("sgd", {**SGD_REQUIRED, "log_evry": 5}, "log_evry"),
], ids=["sweep", "sweep-sgd-seed", "recipe-params", "init", "ablate", "ablate-setting",
        "corruption", "teacher-params", "recipe", "spec", "sgd"])
def test_unknown_config_keys_are_refused(workdir, capsys, no_work, command, obj, key):
    path = _write(workdir, "typo.json", obj)
    err = _refused(workdir, capsys, command, path)
    assert err.startswith(f"configuration error: {path}: unknown ")
    assert repr(key) in err


def _without(obj: dict, key: str) -> dict:
    return {k: value for k, value in obj.items() if k != key}


@pytest.mark.parametrize("command, obj, key", [
    ("sgd", _without(SGD_REQUIRED, "steps"), "steps"),
    ("sweep", _without(SWEEP_REQUIRED, "widths"), "widths"),
    ("sweep", {**SWEEP_REQUIRED, "sgd": _without(SGD_REQUIRED, "batch_size")}, "batch_size"),
    ("ablate", {"recipe": RECIPE, "fractions": [0.0],
                "settings": [SETTING_REQUIRED, _without(SETTING_REQUIRED, "lambda")]}, "lambda"),
    ("ablate", {"recipe": RECIPE, "settings": [SETTING_REQUIRED]}, "fractions"),
    ("gen", _without(RECIPE, "n_test"), "n_test"),
    ("gen", {**RECIPE, "kind": "file", "params": {}}, "path"),
    ("constants", _without(SPEC, "p"), "p"),
], ids=["sgd", "sweep", "sweep-sgd", "ablate-setting", "ablate", "recipe", "file-params", "spec"])
def test_missing_config_keys_are_refused(workdir, capsys, no_work, command, obj, key):
    path = _write(workdir, "short.json", obj)
    err = _refused(workdir, capsys, command, path)
    assert err.startswith(f"configuration error: {path}: missing ")
    assert repr(key) in err


FILE_RECIPE = {"kind": "file", "n_train": 30, "n_test": 10, "seed": 0,
               "params": {"path": "full.csv"}}


@pytest.mark.parametrize("command, obj", [
    ("gen", FILE_RECIPE),
    ("sweep", {**SWEEP_REQUIRED, "recipe": FILE_RECIPE}),
    ("ablate", {"recipe": FILE_RECIPE, "fractions": [0.0], "settings": [SETTING_REQUIRED]}),
])
def test_a_file_recipe_path_is_read_against_its_config_folder(workdir, monkeypatch, command,
                                                              obj):
    # run from another folder: the data file sits beside the config file
    folder = workdir / "cfg"
    folder.mkdir()
    full = datasets.gen_sine(3, 40, 0.1, seed=7)
    oracles.write_data_csv(full, folder / "full.csv")
    _write(folder, "config.json", obj)
    monkeypatch.chdir(workdir)
    flag = "--recipe" if command == "gen" else "--config"
    assert cli.main([command, flag, "cfg/config.json", "--out", "out"]) == 0
    if command == "gen":
        assert np.array_equal(datasets.load_csv("out").xs, full.xs[:30])


@pytest.mark.parametrize("command, obj, key", [
    ("sgd", {**SGD_REQUIRED, "steps": 100.7}, "steps"),
    ("sgd", {**SGD_REQUIRED, "batch_size": 8.9}, "batch_size"),
    ("sgd", {**SGD_REQUIRED, "batch_size": True}, "batch_size"),
    ("sgd", {**SGD_REQUIRED, "steps": "100"}, "steps"),
    ("sweep", {**SWEEP_REQUIRED, "restarts_per_cell": 1.5}, "restarts_per_cell"),
    ("gen", {**RECIPE, "seed": 2.5}, "seed"),
    ("constants", {**SPEC, "p": 2.7}, "p"),
], ids=["steps-fraction", "batch-fraction", "batch-bool", "steps-string", "restarts",
        "recipe-seed", "spec-p"])
def test_integer_fields_refuse_non_integers(workdir, capsys, no_work, command, obj, key):
    err = _refused(workdir, capsys, command, _write(workdir, "float.json", obj))
    assert f"{key} must be an integer, not {obj[key]!r}" in err


@pytest.mark.parametrize("init, name", [({"w0": [[1.0, 2.0]]}, "w0"),
                                         ({"mode": "zero", "tau": 0.5}, "tau")])
def test_init_settings_that_the_mode_never_reads_are_refused(workdir, capsys, no_work,
                                                             init, name):
    path = _write(workdir, "init.json", {**SGD_REQUIRED, "init": init})
    assert f"{path}: {name} is read only in" in _refused(workdir, capsys, "sgd", path)


def test_integer_fields_take_integral_floats(workdir):
    sgd = {"step_size": 0.05, "batch_size": 8.0, "steps": 1e2}
    loaded = configio.load_sgd_config(_write(workdir, "s.json", sgd))
    assert loaded == SgdConfig(0.05, 8, 100)
    assert type(loaded.steps) is int and type(loaded.batch_size) is int
    # so do a sweep's widths and a recipe's integer params
    sweep = {**SWEEP_REQUIRED, "widths": [2.0, 3], "recipe": {**RECIPE, "params": {"d": 20.0}}}
    cfg = configio.load_sweep_config(_write(workdir, "w.json", sweep))
    assert cfg.widths == (2, 3) and all(type(width) is int for width in cfg.widths)
    assert cfg.recipe.params == {"d": 20} and type(cfg.recipe.params["d"]) is int


@pytest.mark.parametrize("command, obj, message", [
    ("sgd", {**SGD_REQUIRED, "step_size": True}, "step_size must be a number, not True"),
    ("sgd", {**SGD_REQUIRED, "step_size": "0.05"}, "step_size must be a number, not '0.05'"),
    ("sweep", {**SWEEP_REQUIRED, "widths": [2.5]}, "width must be an integer, not 2.5"),
    ("sweep", {**SWEEP_REQUIRED, "lambdas": [True]}, "lambda must be a number, not True"),
    ("constants", {**SPEC, "beta": True}, "beta must be a number, not True"),
    ("constants", {**SPEC, "lambda": "0.2"}, "lambda must be a number, not '0.2'"),
    ("ablate", {"recipe": RECIPE, "fractions": [True, "0.5"], "settings": [SETTING_REQUIRED]},
     "fraction must be a number, not True"),
    ("gen", {**RECIPE, "params": {"d": 2.5}}, "d must be an integer, not 2.5"),
    ("gen", {**RECIPE, "params": {"d": "2"}}, "d must be an integer, not '2'"),
    ("gen", {**RECIPE, "corruption": {"fraction": True, "scale": "0.1"}},
     "corruption fraction must be a number, not True"),
    ("gen", {**RECIPE, "corruption": {"fraction": 0.5, "scale": "0.1"}},
     "corruption scale must be a number, not '0.1'"),
    ("sgd", {**SGD_REQUIRED, "init": {"tau": True}}, "tau must be a number, not True"),
    ("sgd", {**SGD_REQUIRED, "init": {"mode": "explicit", "w0": [["0.5", True], [0.1, 0.2]]}},
     "w0 entry must be a number, not '0.5'"),
    ("sgd", {**SGD_REQUIRED, "init": {"mode": "explicit", "w0": [[0.5, True], [0.1, 0.2]]}},
     "w0 entry must be a number, not True"),
], ids=["step_size-bool", "step_size-string", "width-fraction", "lambda-bool", "beta-bool",
        "lambda-string", "fractions", "d-fraction", "d-string", "corruption-fraction",
        "corruption-scale", "tau-bool", "w0-string", "w0-bool"])
def test_numbers_are_refused_rather_than_coerced(workdir, capsys, no_work, command, obj,
                                                 message):
    # a bool read as 1, a parsed string or a truncated fraction would run
    # with a number the file never gave
    path = _write(workdir, "coerced.json", obj)
    err = _refused(workdir, capsys, command, path)
    assert err.startswith(f"configuration error: {path}: ") and message in err


def test_a_key_error_inside_a_command_is_no_configuration_error(workdir, monkeypatch):
    # no configuration path raises KeyError, so one is a fault to surface
    def lookup_fault(*args, **kwargs):
        raise KeyError("unknown output 'hessian'")

    monkeypatch.setattr(harness, "run_sweep", lookup_fault)
    with pytest.raises(KeyError, match="hessian"):
        cli.main(["sweep", "--config", str(_write(workdir, "w.json", SWEEP_REQUIRED)),
                  "--out", str(workdir / "out")])


def test_fpe_gap_checks_the_operator_size_before_the_decay_run(workdir, capsys, monkeypatch):
    def no_decay_run(*args, **kwargs):
        raise AssertionError("ran the decay before checking the operator size")

    monkeypatch.setattr(fpe, "decay_rate", no_decay_run)
    spec = _write(workdir, "spec2d.json", {**SPEC, "p": 1})
    code = cli.main(["fpe", "--spec", str(spec), "--s", "0.5", "--m", "201",
                     "--tmax", "10", "--dt", "0.01", "--gap"])
    assert code == 2
    assert f"operator size 40401 exceeds {fpe.MAX_OPERATOR_SIZE}" in capsys.readouterr().err


@pytest.mark.parametrize("sgd_file", [
    {**SGD_REQUIRED, "step_size": math.nan},
    {**SGD_REQUIRED, "step_size": math.inf},
    {**SGD_REQUIRED, "init": {"tau": math.nan}},
])
def test_train_cli_rejects_non_finite_settings(workdir, capsys, sgd_file):
    # a NaN setting is a configuration error, not a run that diverged
    out = workdir / "traj.csv"
    code = cli.main(["train", "--spec", str(workdir / "spec.json"),
                     "--sgd", str(_write(workdir, "nan.json", sgd_file)), "--out", str(out)])
    assert code == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, spec, flag", [
    *(("sde", "spec.json", flag) for flag in ("--s", "--dt", "--tmax")),
    *(("fpe", "spec1d.json", flag) for flag in ("--s", "--R", "--dt", "--tmax")),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_settings(workdir, capsys, command, spec, flag, value):
    settings = {"--s": "0.05", "--dt": "0.01", "--tmax": "0.1", flag: value}
    out = workdir / "x.csv"
    grid = ["--m", "51"] if command == "fpe" else []
    code = cli.main([command, "--spec", str(workdir / spec), *grid,
                     *(token for item in settings.items() for token in item),
                     "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("argv", [
    ["villani-scan", "--s", "{}", "--rays", "8"],
    ["villani-scan", "--s", "0.1", "--rays", "8", "--rmax", "{}"],
    ["constants", "--activation", "sigmoid", "--beta", "{}"],
    ["constants", "--activation", "softplus", "--beta", "{}"],
], ids=["scan-s", "scan-rmax", "sigmoid-beta", "softplus-beta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_scan_and_constants_reject_non_finite_settings(workdir, capsys, argv, value):
    # villani-scan takes no --dt/--tmax and constants writes to stdout, so
    # these cases cannot share the base settings of the test above
    out = workdir / "report.json"
    argv = [token.format(value) for token in argv]
    if argv[0] == "villani-scan":
        argv += ["--spec", str(workdir / "spec.json"), "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert not captured.out
    assert not out.exists()

def test_every_csv_reads_back_exactly(workdir, capsys):
    spec_file = str(workdir / "spec.json")
    out = workdir / "train.csv"
    assert cli.main(["train", "--spec", spec_file, "--sgd", str(workdir / "sgd.json"),
                     "--out", str(out)]) == 0
    traj = dynamics.run_sgd(load_spec(spec_file),
                            configio.load_sgd_config(workdir / "sgd.json"))
    _assert_reads_back(out, "step,time,loss,grad_norm",
                       traj.steps, traj.times, traj.losses, traj.grad_norms)

    out = workdir / "sde.csv"
    assert cli.main(["sde", "--spec", spec_file, "--s", "0.05", "--dt", "0.01",
                     "--tmax", "0.2", "--paths", "2", "--log-every", "5",
                     "--out", str(out)]) == 0
    _assert_reads_back(out, "path,step,t,loss",
                       *_sde_lone_runs(workdir, seeds=[0, 1], t_max=0.2, log_every=5))

    out = workdir / "fpe.csv"
    assert cli.main(["fpe", "--spec", str(workdir / "spec1d.json"), "--s", "0.5",
                     "--m", "101", "--tmax", "1.0", "--dt", "0.02", "--out", str(out)]) == 0
    spec1d = load_spec(workdir / "spec1d.json")
    grid = fpe.build_grid(spec1d, fpe.suggest_half_width(spec1d, 0.5), 101, 0.5)
    fit = fpe.decay_rate(grid, t_max=1.0, dt=0.02)
    _assert_reads_back(out, "t,chi2,mass", fit.times, fit.chi2_series, fit.mass_series)

    ablate = {"recipe": RECIPE, "fractions": [0.0, 0.5],
              "settings": [{**SETTING_REQUIRED, "log_every": 25}]}
    config = _write(workdir, "a.json", ablate)
    assert cli.main(["ablate", "--config", str(config), "--out", str(workdir / "abl")]) == 0
    (cfg,), fractions = configio.load_ablate_config(config)
    for fraction, c in harness.run_ablation(cfg, fractions).items():
        _assert_reads_back(workdir / "abl" / "lam0.05_p2" / f"ablation_f{fraction:.2f}.csv",
                           "step,train_loss,clean_test,noisy_test",
                           c.steps, c.train_losses, c.clean_test, c.noisy_test)
