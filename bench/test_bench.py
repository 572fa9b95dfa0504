"""Tests of the benchmark's own logic: ``python3 -m pytest bench``."""

import json
import sys
import types
from pathlib import Path

import pytest

import calibration
import run
import stats
import tracing

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_units_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= 10 - 1e-9


def test_tail_value_and_small_sample_fallback():
    values = list(range(1, 101))                  # 100 units -> p90
    pct, value = stats.tail(values)
    assert pct == 90.0
    assert value == pytest.approx(90.1)
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],                 # overlaps a: union is [1, 5]
        ["c", 8.0, 12.0, 0, None],                # clipped to the parent's end
        ["a.child", 1.5, 2.5, 1, None],
        ["other_root", 20.0, 21.0, -1, None],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 4 - 2, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_log_point_time_counts_only_log_calls():
    spans = [
        ["dynamics.run_sde", 0.0, 100.0, -1, None],
        ["model.loss", 0.0, 1.0, 0, None],        # log(0): loss, grad
        ["model.grad", 1.0, 3.0, 0, None],
        ["model.grad", 3.0, 4.0, 0, None],        # step 1
        ["model.loss", 4.0, 5.0, 0, None],        # log point: check, loss, grad
        ["model.loss", 5.0, 6.0, 0, None],
        ["model.grad", 6.0, 8.0, 0, None],
        ["model.grad", 8.0, 9.0, 0, None],        # step 2
        ["model.predict", 4.1, 4.9, 4, None],     # nested: not a loop child
    ]
    assert tracing.log_point_time(spans) == pytest.approx(1 + 2 + 1 + 1 + 2)


def _unit(key, ok=True, value=1.0):
    run.import_package()
    import workloads

    return workloads.Unit(key, 0.1, ok, value, value)


def test_fail_frac_counts_failed_checks_and_exceptions():
    units = [_unit("a"), _unit("b", ok=False), _unit("a", value=2.0), _unit("c")]
    run.check_units(units, rerun_rtol=0.0)        # the second "a" differs from the first
    attempted, failed, frac = stats.fail_frac(units)
    assert (attempted, failed, frac) == (4, 2, 0.5)
    assert units[2].detail == "rerun differs from the first run"


def test_reference_check_uses_relative_tolerance():
    units = [_unit("a", value=1.0 + 1e-12), _unit("b", value=float("inf")),
             _unit("c", value=1.0 + 1e-6)]
    run.check_units(units, 0.0, reference={"a": 1.0, "b": float("inf"), "c": 1.0})
    assert [u.ok for u in units] == [True, True, False]


def test_wrappers_restore_original_functions():
    pkg = run.import_package()
    owners = [pkg.activations.Activation, pkg.model, pkg.dynamics, pkg.harness,
              pkg.datasets.DataRecipe, pkg.diagnostics, pkg.fpe]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer() as tracer:
        tracing.instrument(tracer, pkg)
        assert pkg.model.loss is not before[1]["loss"]
        assert pkg.fpe.spla is not before[6]["spla"]
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        assert after.keys() == snapshot.keys()
        assert all(after[k] is snapshot[k] for k in snapshot)


def test_wrappers_restore_after_an_exception():
    mod = types.ModuleType("m")
    mod.f = lambda x: x + 1
    original = mod.f
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer() as tracer:
            tracer.wrap(mod, "f", "m.f")
            mod.f(1)
            1 / 0
    assert mod.f is original
    assert [s[0] for s in tracer.take()] == ["m.f"]


def test_traced_sgd_counts_match_the_loop():
    pkg = run.import_package()
    import numpy as np
    from villanets.dynamics import SgdConfig

    data = pkg.model.Dataset(np.eye(3), np.array([0.1, -0.2, 0.3]))
    net = pkg.model.Net(np.ones(2), np.zeros((2, 3)), pkg.activations.sigmoid(1.0))
    spec = pkg.model.LossSpec(net, data, 0.5)
    cfg = SgdConfig(step_size=1e-2, batch_size=2, steps=10, seed=1, log_every=5)
    with tracing.Tracer() as tracer:
        tracing.instrument(tracer, pkg)
        pkg.dynamics.run_sgd(spec, cfg)
        layers = tracing.round_metrics(tracer.take())
    assert layers["dynamics.sgd_step.calls"] == 10
    assert layers["model.loss.calls"] == 5          # log(0), then check + log at 5 and 10
    assert layers["model.grad.calls"] == 3
    assert layers["activations.calls"] == 10 * 2 + 5 + 3 * 2


def test_benchmark_json_matches_the_code():
    run.import_package()
    import workloads

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_missing_package_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "chains", "--seconds", "1"]) == 2


def test_unit_factors_use_slices_within_one_unit_duration():
    cal = calibration.Calibration.__new__(calibration.Calibration)   # no kernel built
    ref = cal.REFERENCE_SECONDS
    slices = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref), (3.0, 4 * ref), (10.0, ref)]
    short, long_, late = cal.unit_factors(slices, [(0.1, 0.5), (1.5, 1.0), (5.0, 0.1)])
    assert short == pytest.approx(2 / 3)           # only the two slices around it
    assert long_ == pytest.approx(3 / 10)          # slices at 1, 2, 3 (within 0.5..3.5)
    assert late == pytest.approx(2 / 5)            # nearest slice on each side
    assert cal.round_factor([ref, 3 * ref]) == pytest.approx(0.5)


def test_every_workload_names_a_kernel():
    run.import_package()
    import workloads

    for cls in workloads.WORKLOADS.values():
        assert cls.calibration in calibration.KERNELS


def test_rescaled_timings_use_each_units_factor():
    run.import_package()
    import workloads

    units = [workloads.Unit("a", 1.0, True), workloads.Unit("b", 3.0, True),
             workloads.Unit("c", 100.0, False)]
    rnd = run.Round(wall=5.0, units=units, factor=0.5, unit_factors=[2.0, 1.0, 1.0])
    scaled, raw = run.timings([rnd], True), run.timings([rnd], False)
    assert scaled["wall_s"] == 2.5 and raw["wall_s"] == 5.0
    assert scaled["unit_p50_s"] == 2.5 and raw["unit_p50_s"] == 2.0   # failed unit left out
