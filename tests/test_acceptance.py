"""Acceptance gate: one test per top-level criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8 is split into its three clauses.  The middle clause (8b) pins
the quadratic-well spectral gap at twice the ridge strength; the
drift-diffusion generator's eigenvalue ladder is {-k * lam}, so the honest
second eigenvalue is lam itself and the stated target is unattainable by a
factor of exactly two.  8b is kept at full strength as a strict expected
failure rather than silently loosened; see the assertion message.
"""

import math

import numpy as np
import pytest

import oracles
from villanets import activations, diagnostics, dynamics, fpe, harness, model
from villanets.datasets import DataRecipe
from villanets.dynamics import InitSpec, SgdConfig
from villanets.harness import AblationConfig, SweepConfig
from villanets.model import Dataset, LossSpec, Net, normalized_outer


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def normalized_spec(kind, seed, p, d, n, lam_mult, beta=1.0):
    rng = np.random.default_rng(seed)
    act = activations.make(kind, beta)
    data = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-1, 1, n))
    net = Net(normalized_outer(p, data.x_bound), np.zeros((p, d)), act)
    return LossSpec(net, data, lam_mult * model.lambda_c(net, data))


def test_criterion_01_critical_ridge_exact():
    """Sigmoid(beta=1) with ||a|| * B_x = 1 gives lambda_c = 0.125 exactly."""
    data = Dataset(np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]),
                   np.array([0.3, -0.2, 0.5]))
    assert data.x_bound == 1.0
    net = Net(normalized_outer(4, data.x_bound), np.zeros((4, 2)),
              activations.sigmoid(1.0))
    value = model.lambda_c(net, data)
    report("criterion 1 (critical ridge exactness)", value == 0.125,
           f"lambda_c = {value!r}, expected exactly 0.125")


def test_criterion_02_derivative_oracles():
    """Analytic gradient/Laplacian vs finite differences on random specs."""
    rng = np.random.default_rng(101)
    worst_g, worst_l = 0.0, 0.0
    count = 0
    for kind in ("sigmoid", "tanh", "softplus"):
        act = activations.make(kind, 1.0)
        for _ in range(34):
            spec = oracles.random_spec(rng, act)
            w = rng.standard_normal((spec.p, spec.d))
            fd_g = oracles.fd_gradient(spec, w, h=1e-5)
            g_err = (np.linalg.norm(model.grad(spec, w) - fd_g)
                     / max(np.linalg.norm(fd_g), 1e-12))
            fd_l = oracles.fd_hessian_trace(spec, w)
            l_err = abs(model.laplacian(spec, w) - fd_l) / max(abs(fd_l), 1e-9)
            worst_g, worst_l = max(worst_g, g_err), max(worst_l, l_err)
            count += 1
    report("criterion 2 (derivative oracles)",
           count >= 100 and worst_g <= 1e-6 and worst_l <= 1e-5,
           f"{count} specs; worst grad rel err {worst_g:.2e} (<=1e-6), "
           f"worst laplacian rel err {worst_l:.2e} (<=1e-5)")


def test_criterion_03_pointwise_bounds():
    """Gradient lower / Laplacian upper bounds: zero violations in 10^3
    sampled weight points per activation."""
    rng = np.random.default_rng(202)
    violations = {}
    for kind in ("sigmoid", "tanh", "softplus"):
        act = activations.make(kind, 1.0)
        bad = 0
        for _ in range(20):
            spec = oracles.random_spec(rng, act)
            for _ in range(50):
                scale = rng.choice([0.2, 1.0, 4.0, 20.0, 200.0])
                w = scale * rng.standard_normal((spec.p, spec.d))
                gsq = float(np.sum(model.grad(spec, w) ** 2))
                if gsq < diagnostics.grad_lower_bound(spec, w):
                    bad += 1
                if model.laplacian(spec, w) > diagnostics.laplacian_upper_bound(spec, w):
                    bad += 1
        violations[kind] = bad
    total = sum(violations.values())
    report("criterion 3 (pointwise bounds)", total == 0,
           f"violations per activation {violations} over 1000 samples each")


def test_criterion_04_smoothness_bound():
    """Empirical gradient-Lipschitz ratio never exceeds the closed-form
    bound: 10^4 random weight pairs per bounded-activation spec."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for kind in ("sigmoid", "tanh"):
        act = activations.make(kind, 1.0)
        for _ in range(2):
            spec = oracles.random_spec(rng, act)
            bound = model.glip_bound(spec)
            for _ in range(10_000):
                scale = rng.choice([0.1, 1.0, 10.0])
                w1 = scale * rng.standard_normal((spec.p, spec.d))
                w2 = scale * rng.standard_normal((spec.p, spec.d))
                ratio = (np.linalg.norm(model.grad(spec, w1) - model.grad(spec, w2))
                         / np.linalg.norm(w1 - w2))
                worst = max(worst, ratio / bound)
    report("criterion 4 (smoothness bound)", worst <= 1.0,
           f"max empirical ratio / bound = {worst:.4f} (<= 1)")


def test_criterion_05_divergence_scans():
    """Coercivity diagnostic diverges at lam = 1.5 * lambda_c for all three
    activations (16 rays, radii up to 10^3)."""
    outcomes = {}
    for kind in ("sigmoid", "tanh", "softplus"):
        spec = normalized_spec(kind, seed=5, p=2, d=3, n=6, lam_mult=1.5)
        rep = diagnostics.villani_scan(spec, s=0.1, ray_count=16, r_max=1e3, seed=1)
        outcomes[kind] = (rep.diverging, rep.grad_bound_violations,
                          rep.laplacian_bound_violations)
    ok = all(d and gv == 0 and lv == 0 for d, gv, lv in outcomes.values())
    report("criterion 5 (divergence scans)", ok, f"{outcomes}")


def test_criterion_06_sgd_reaches_global_oracle():
    """20 seeded SGD runs end within 1e-3 of a 200-restart GD oracle."""
    spec = normalized_spec("sigmoid", seed=2024, p=2, d=2, n=8, lam_mult=1.5)
    oracle = oracles.multistart_gd_min(spec, restarts=200, seed=99)
    cfg = SgdConfig(step_size=1e-2, batch_size=4, steps=100_000,
                    init=InitSpec("gaussian", tau=1.0), log_every=10_000)
    # the 20 seeded chains advance as one stack, each exactly as a lone run
    trajs = dynamics.run_sgd_chains(spec, cfg, seeds=range(20))
    assert not any(isinstance(t, dynamics.DivergenceError) for t in trajs)
    gaps = [traj.losses[-1] - oracle for traj in trajs]
    worst = max(gaps)
    report("criterion 6 (SGD global convergence)",
           worst <= 1e-3 and min(gaps) >= -1e-9,
           f"oracle {oracle:.8f}; worst SGD terminal gap {worst:.2e} (<= 1e-3)")


def test_criterion_07_descent_property():
    """Full-batch updates with step <= 1 / smoothness bound never increase
    the loss (slack 1e-10) on 20 random specs."""
    rng = np.random.default_rng(404)
    worst_rise = -math.inf
    for trial in range(20):
        kind = ("sigmoid", "tanh")[trial % 2]
        spec = oracles.random_spec(rng, activations.make(kind, 1.0),
                                   lam_range=(0.01, 0.5))
        cfg = SgdConfig(step_size=1.0 / model.glip_bound(spec),
                        batch_size=spec.n, steps=200, seed=trial, log_every=1)
        traj = dynamics.run_sgd(spec, cfg)
        worst_rise = max(worst_rise, float(np.max(np.diff(traj.losses))))
    report("criterion 7 (descent property)", worst_rise <= 1e-10,
           f"max per-step loss increase {worst_rise:.2e} (<= 1e-10)")


def _ou_grid():
    act = activations.sigmoid(1.0)
    data = Dataset(np.array([[1.0]]), np.array([0.0]))
    spec = LossSpec(Net(np.zeros(1), np.zeros((1, 1)), act), data, 0.5)
    return fpe.build_grid(spec, 6.0, 401, 1.0)


def test_criterion_08a_ou_decay_rate():
    """Quadratic-well calibration: fitted density decay within 5% of 2*lam
    (uniform start excites only even modes) with fit R^2 >= 0.99."""
    fit = fpe.decay_rate(_ou_grid(), t_max=12.0, dt=0.005)
    ok = abs(fit.rate / 1.0 - 1.0) <= 0.05 and fit.r_squared >= 0.99
    report("criterion 8a (OU decay rate)", ok,
           f"rate {fit.rate:.4f} vs 2*lam = 1.0, r^2 {fit.r_squared:.5f}")


@pytest.mark.xfail(
    strict=True,
    reason="stated target (2*lam, 3%) is twice the generator's true second "
    "eigenvalue: the quadratic-well drift-diffusion spectrum is {-k*lam}, "
    "so the honest gap is lam = 0.5, confirmed by direct eigendecomposition "
    "and by the module-level oracle test; only the symmetric-start measured "
    "decay is 2*lam",
)
def test_criterion_08b_ou_spectral_gap_as_stated():
    gap = fpe.spectral_gap(_ou_grid())
    ok = abs(gap / 1.0 - 1.0) <= 0.03
    report("criterion 8b (OU spectral gap at stated 2*lam target)", ok,
           f"gap {gap:.4f} vs stated 2*lam = 1.0 (honest generator value: lam = 0.5)")


def test_criterion_08c_decay_gap_cross_validation():
    """1-D sigmoid spec above critical ridge: time-domain decay and
    eigenvalue gap agree within 10%, both positive, fit R^2 >= 0.99."""
    act = activations.sigmoid(1.0)
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    net = Net(normalized_outer(1, data.x_bound), np.zeros((1, 1)), act)
    spec = LossSpec(net, data, 1.5 * model.lambda_c(net, data))
    s = 0.2
    grid = fpe.build_grid(spec, fpe.suggest_half_width(spec, s), 501, s)
    fit = fpe.decay_rate(grid, t_max=60.0, dt=0.02)
    gap = fpe.spectral_gap(grid)
    ok = (gap > 0 and fit.rate > 0 and abs(fit.rate / gap - 1.0) <= 0.10
          and fit.r_squared >= 0.99)
    report("criterion 8c (decay vs gap cross-validation)", ok,
           f"decay {fit.rate:.4f}, gap {gap:.4f}, ratio {fit.rate / gap:.3f}, "
           f"r^2 {fit.r_squared:.5f}")


SWEEP_LAMBDAS = (1.3e-5, 1.3e-4, 1.3e-3, 1.3e-2, 0.13)
SWEEP_WIDTHS = (5, 10, 20, 50)


def _sine_sweep_config():
    return SweepConfig(
        lambdas=SWEEP_LAMBDAS, widths=SWEEP_WIDTHS,
        recipe=DataRecipe("sine", 200, 200, seed=7,
                          params={"d": 20, "noise_sd": 0.5}),
        sgd=SgdConfig(step_size=0.1, batch_size=32, steps=8000,
                      init=InitSpec("gaussian", tau=0.5), log_every=200),
        restarts_per_cell=2, base_seed=0, a_mode="normalized",
    )


def _teacher_sweep_config():
    return SweepConfig(
        lambdas=SWEEP_LAMBDAS, widths=SWEEP_WIDTHS,
        recipe=DataRecipe("teacher", 400, 400, seed=17,
                          params={"d": 20, "noise_sd": 0.1, "p_teacher": 5}),
        sgd=SgdConfig(step_size=0.1, batch_size=32, steps=15_000,
                      init=InitSpec("gaussian", tau=0.5), log_every=250),
        restarts_per_cell=2, base_seed=0, a_mode="normalized_signed",
    )


def test_criterion_09_sweep_mild_deterioration():
    """Best held-out loss at lam = 0.13 within 2x of the grid minimum for
    every width, on both data families; rerun is bit-identical."""
    details = []
    ok = True
    for name, cfg in (("sine", _sine_sweep_config()),
                      ("teacher", _teacher_sweep_config())):
        result = harness.run_sweep(cfg)
        gmin = float(result.grid.min())
        ratios = result.grid[-1, :] / gmin
        details.append(f"{name}: min {gmin:.4f}, lam=0.13 ratios "
                       f"{np.round(ratios, 2).tolist()}")
        ok = ok and bool(np.all(ratios <= 2.0))
        if name == "sine":
            rerun = harness.run_sweep(cfg)
            identical = np.array_equal(rerun.grid, result.grid)
            details.append(f"sine rerun bit-identical: {identical}")
            ok = ok and identical
    report("criterion 9 (sweep mild deterioration)", ok, "; ".join(details))


def test_criterion_10_ablation_ordering():
    """Final clean-test loss strictly increases with corruption fraction
    (0 < 0.5 < 0.9) at both ridge strengths and both widths."""
    recipe = DataRecipe("sine", 200, 500, seed=3, params={"d": 20, "noise_sd": 0.0})
    details = []
    ok = True
    for lam, width, eta in [(0.013, 10, 1e-2), (0.13, 10, 1e-2),
                            (0.013, 50, 5e-3), (0.13, 50, 1e-2)]:
        cfg = AblationConfig(recipe=recipe, lam=lam, width=width, step_size=eta,
                             batch_size=32, steps=30_000, log_every=2000,
                             base_seed=7, a_mode="normalized_signed")
        curves = harness.run_ablation(cfg, [0.0, 0.5, 0.9])
        finals = [float(curves[f].clean_test[-1]) for f in (0.0, 0.5, 0.9)]
        ordered = finals[0] < finals[1] < finals[2]
        ok = ok and ordered
        details.append(f"(lam={lam}, p={width}): "
                       f"{['%.4f' % v for v in finals]} {'ok' if ordered else 'BAD'}")
    report("criterion 10 (ablation ordering)", ok, "; ".join(details))
