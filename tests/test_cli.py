import json

import numpy as np
import pytest

from villanets import activations, cli, datasets, dynamics, harness, model
from villanets import configio
from villanets.configio import load_spec
from villanets.datasets import DataRecipe
from villanets.dynamics import InitSpec, SgdConfig
from villanets.harness import AblationConfig, SweepConfig


@pytest.fixture
def workdir(tmp_path):
    ds = datasets.gen_sine(2, 40, 0.2, seed=5)
    datasets.save_csv(ds, tmp_path / "data.csv")
    (tmp_path / "spec.json").write_text(json.dumps({
        "activation": "sigmoid", "beta": 1.0, "p": 2, "d": 2,
        "lambda": 0.2, "a_mode": "normalized", "data_path": "data.csv",
    }))
    ds1 = datasets.gen_sine(1, 30, 0.1, seed=6)
    datasets.save_csv(ds1, tmp_path / "data1.csv")
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


def test_sde_cli_paths_are_seeded_lone_runs(workdir):
    # path i is the lone run with seed --seed + i; rows stay path-major
    out = workdir / "paths.csv"
    code = cli.main(["sde", "--spec", str(workdir / "spec.json"),
                     "--s", "0.05", "--dt", "0.01", "--tmax", "0.3",
                     "--paths", "3", "--seed", "7", "--log-every", "4", "--out", str(out)])
    assert code == 0
    spec = load_spec(workdir / "spec.json")
    lines = ["path,step,t,loss"]
    for path_idx in range(3):
        traj = dynamics.run_sde(spec, s=0.05, dt=0.01, t_max=0.3, seed=7 + path_idx,
                                log_every=4)
        for k in range(len(traj.steps)):
            lines.append(f"{path_idx},{traj.steps[k]},{traj.times[k]!r},{traj.losses[k]!r}")
    assert out.read_text() == "\n".join(lines) + "\n"


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
    (workdir / "recipe.json").write_text(json.dumps(recipe.to_dict()))
    out = workdir / "gen.csv"
    code = cli.main(["gen", "--recipe", str(workdir / "recipe.json"),
                     "--out", str(out)])
    assert code == 0
    ds = datasets.load_csv(out)
    assert ds.n == 25 and ds.d == 3
    meta = json.loads((workdir / "gen.meta.json").read_text())
    assert meta["hash"] == datasets.content_hash(ds)


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
        (0.1,), (2,), DataRecipe.from_dict(RECIPE), sgd)
    ablate = {"recipe": RECIPE, "fractions": [0.0], "settings": [SETTING_REQUIRED]}
    configs, _ = configio.load_ablate_config(_write(workdir, "a.json", ablate))
    assert configs == [AblationConfig(DataRecipe.from_dict(RECIPE), 0.05, 2, 0.05, 8, 100)]


def test_config_files_set_every_optional_key(workdir):
    sgd_file = {**SGD_REQUIRED, "seed": 4, "log_every": 7, "init": {"tau": 0.3}}
    sgd = SgdConfig(0.05, 8, 100, seed=4, init=InitSpec(tau=0.3), log_every=7)
    assert configio.load_sgd_config(_write(workdir, "s.json", sgd_file)) == sgd
    init = configio.parse_init({"mode": "explicit", "w0": [[1.0, 2.0]]})
    assert init.mode == "explicit" and init.tau is None
    np.testing.assert_array_equal(init.w0, [[1.0, 2.0]])
    sweep = {"lambdas": [0.1], "widths": [2], "recipe": RECIPE, "sgd": sgd_file,
             "restarts_per_cell": 3, "metric": "final_train_loss", "base_seed": 5,
             "activation": "tanh", "beta": 2.0, "a_mode": "ones"}
    assert configio.load_sweep_config(_write(workdir, "w.json", sweep)) == SweepConfig(
        (0.1,), (2,), DataRecipe.from_dict(RECIPE), sgd, restarts_per_cell=3,
        metric="final_train_loss", base_seed=5, act_kind="tanh", act_beta=2.0, a_mode="ones")
    ablate = {"recipe": RECIPE, "fractions": [0.0],
              "settings": [{**SETTING_REQUIRED, "log_every": 9}], "base_seed": 6,
              "corruption_scale": 0.2, "init_tau": 0.7, "a_mode": "normalized_signed"}
    configs, _ = configio.load_ablate_config(_write(workdir, "a.json", ablate))
    assert configs == [AblationConfig(DataRecipe.from_dict(RECIPE), 0.05, 2, 0.05, 8, 100,
                                      log_every=9, base_seed=6, corruption_scale=0.2,
                                      init_tau=0.7, a_mode="normalized_signed")]
