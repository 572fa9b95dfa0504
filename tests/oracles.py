"""Independent oracles used across the test suite.

These deliberately avoid the library's own evaluation paths: the naive loss
walks python loops over math functions, the derivative oracles are central
finite differences of the loss, the global-minimum oracle is plain
multi-start full-batch gradient descent, and the density-solver oracles step
rho with a sparse LU of I - dt * G instead of the symmetric banded form.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from villanets import fpe, model
from villanets.activations import Activation
from villanets.model import Dataset, LossSpec, Net


def naive_sigma(kind: str, beta: float, z: float) -> float:
    if kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-beta * z))
    if kind == "tanh":
        return math.tanh(z)
    return math.log1p(math.exp(beta * z)) / beta


def naive_loss(spec: LossSpec, w: np.ndarray) -> float:
    """Straight-line reimplementation of the objective, python loops only."""
    act = spec.net.act
    total = 0.0
    for i in range(spec.n):
        f = 0.0
        for j in range(spec.p):
            pre = 0.0
            for k in range(spec.d):
                pre += w[j, k] * spec.data.xs[i, k]
            f += spec.net.a[j] * naive_sigma(act.kind, act.beta, pre)
        total += 0.5 * (spec.data.ys[i] - f) ** 2
    reg = 0.0
    for j in range(spec.p):
        for k in range(spec.d):
            reg += w[j, k] ** 2
    return total / spec.n + 0.5 * spec.lam * reg


def fd_gradient(spec: LossSpec, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(w)
    for j in range(w.shape[0]):
        for k in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[j, k] += h
            wm[j, k] -= h
            g[j, k] = (model.loss(spec, wp) - model.loss(spec, wm)) / (2 * h)
    return g


def fd_hessian_trace(spec: LossSpec, w: np.ndarray, h: float = 5e-4) -> float:
    base = model.loss(spec, w)
    tr = 0.0
    for j in range(w.shape[0]):
        for k in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[j, k] += h
            wm[j, k] -= h
            tr += (model.loss(spec, wp) - 2 * base + model.loss(spec, wm)) / h**2
    return tr


def random_spec(rng: np.random.Generator, act: Activation,
                max_pdn=(6, 6, 6), lam_range=(0.0, 0.5)) -> LossSpec:
    p = int(rng.integers(1, max_pdn[0] + 1))
    d = int(rng.integers(1, max_pdn[1] + 1))
    n = int(rng.integers(1, max_pdn[2] + 1))
    xs = rng.standard_normal((n, d))
    ys = rng.uniform(-1.0, 1.0, n)
    a = rng.standard_normal(p) / math.sqrt(p)
    w = rng.standard_normal((p, d))
    lam = float(rng.uniform(*lam_range))
    return LossSpec(Net(a, w, act), Dataset(xs, ys), lam)


def multistart_gd_min(spec: LossSpec, restarts: int, seed: int,
                      grad_tol: float = 1e-8, max_iter: int = 60_000,
                      init_scale: float = 2.0) -> float:
    """Global-minimum oracle: plain full-batch GD from many random starts.

    Step size 1 / smoothness-bound; each start is run to the gradient-norm
    tolerance (or the iteration cap); the minimum loss over starts wins.
    """
    rng = np.random.default_rng(seed)
    step = 1.0 / model.glip_bound(spec)
    best = math.inf
    for _ in range(restarts):
        w = init_scale * rng.standard_normal((spec.p, spec.d))
        for _ in range(max_iter):
            g = model.grad(spec, w)
            if np.linalg.norm(g) <= grad_tol:
                break
            w = w - step * g
        best = min(best, model.loss(spec, w))
    return best


def implicit_step_rho(grid: fpe.FpeGrid, dt: float):
    """LU factor of I - dt * G: the backward-Euler step on rho itself."""
    g_mat = fpe.generator(grid)
    return spla.splu(sp.identity(grid.size, format="csc") - dt * g_mat.tocsc())


def decay_series_rho(grid: fpe.FpeGrid, t_max: float, dt: float):
    """chi^2 and mass series of ``fpe.decay_rate`` from backward-Euler steps
    of rho with G, chi^2 = sum (rho - mu)^2 / mu * h^dim."""
    mu = fpe.gibbs(grid).values
    lu = implicit_step_rho(grid, dt)
    n_steps = max(2, int(round(t_max / dt)))
    rho = grid.rho.copy()
    chi2, mass = [], []
    for k in range(n_steps + 1):
        chi2.append(float(np.sum((rho - mu) ** 2 / mu) * grid.cell_volume))
        mass.append(float(np.sum(rho) * grid.cell_volume))
        if k < n_steps:
            rho = lu.solve(rho)
    return np.array(chi2), np.array(mass)


def symmetrized_dense(grid: fpe.FpeGrid) -> np.ndarray:
    """diag(mu)^-1/2 G diag(mu)^1/2 as a dense array, symmetrized by
    averaging with its transpose."""
    root = np.sqrt(fpe.gibbs(grid).values)
    h_mat = fpe.generator(grid).toarray() / root[:, None] * root[None, :]
    return (h_mat + h_mat.T) / 2.0
