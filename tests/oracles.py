"""Independent oracles used across the test suite.

These deliberately avoid the library's own evaluation paths: the naive loss
walks python loops over math functions, the derivative oracles are central
finite differences of the loss, the global-minimum oracle is plain
multi-start full-batch gradient descent, and the density-solver oracles step
rho with a sparse LU of I - dt * G instead of the symmetric banded form, or
step q = rho / sqrt(mu) through the whole horizon instead of reading the
fit window off a Lanczos run, and take the 1-D gap mode from a tridiagonal
eigensolver on G.
The kernel references write the formulas of ``Activation.derivs``,
``model.evaluate`` and ``dynamics.sgd_step`` out, one fresh array per
operation, in the order of operations that the library's in-place kernel
must reproduce bit for bit.  ``write_data_csv`` writes test data as
``villanets gen`` writes its CSV.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from villanets import activations, cli, fpe, model
from villanets.activations import Activation
from villanets.model import Dataset, LossSpec, Net


def write_data_csv(ds: Dataset, path) -> None:
    """``ds`` as a data CSV: columns x0, ..., x{d-1}, y."""
    cli._write_csv(path, ",".join([*(f"x{j}" for j in range(ds.d)), "y"]), *ds.xs.T, ds.ys)


def naive_sigma(kind: str, beta: float, z: float) -> float:
    if kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-beta * z))
    if kind == "tanh":
        return math.tanh(z)
    return math.log1p(math.exp(beta * z)) / beta


def make_activation(kind: str, beta: float) -> Activation:
    """``activations.make(kind, beta)``, but tanh at beta = 1, the one beta it takes."""
    return activations.make(kind, 1.0 if kind == "tanh" else beta)


def derivs_reference(act: Activation, x: np.ndarray, order: int) -> tuple:
    """(sigma, sigma', sigma'')[: order + 1] at ``x``; at beta = 1 each
    multiply and divide by beta is exact, so one formula serves every beta."""
    if act.kind == "tanh":
        t = np.tanh(x)
        d1 = 1.0 - t * t
        return (t, d1, -2.0 * t * d1)[: order + 1]
    b = act.beta
    z = b * x
    s = 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))
    ds = (b * s) * (1.0 - s)
    if act.kind == "softplus":
        return (np.logaddexp(0.0, z) / b, s, ds)[: order + 1]
    return (s, ds, (b * ds) * (1.0 - 2.0 * s))[: order + 1]


def evaluate_reference(spec: LossSpec, w: np.ndarray, batch=None) -> tuple:
    """(loss, grad, laplacian) of ``model.evaluate`` at one (p, d) matrix or
    a (k, p, d) stack, with ``batch`` as it takes it."""
    net, data = spec.net, spec.data
    xs, ys, xsq = data.xs, data.ys, data.xsq
    if batch is not None:
        xs, ys, xsq = xs.take(batch, axis=0), ys.take(batch, axis=0), xsq.take(batch)
    n = xs.shape[-2]
    sig = derivs_reference(net.act, w @ xs.swapaxes(-1, -2), 2)
    r = net.a @ sig[0] - ys
    loss = (0.5 * (np.add.reduce(r * r, axis=-1) / n)
            + 0.5 * spec.lam * np.add.reduce(w * w, axis=(-2, -1)))
    coef = (net.a[:, None] * sig[1]) * r[..., None, :]
    grad = (coef @ xs) / n + spec.lam * w
    sq_term = (net.a * net.a) @ ((sig[1] * sig[1]) @ xsq[..., None])
    curv_term = net.a @ (sig[2] @ (r * xsq)[..., None])
    laplacian = (sq_term + curv_term)[..., 0] / n + spec.lam * spec.p * spec.d
    return loss, grad, laplacian


def sgd_step_reference(spec: LossSpec, w: np.ndarray, batch, s) -> np.ndarray:
    """``dynamics.sgd_step``: W - s * grad over the batch."""
    return w - s * evaluate_reference(spec, w, batch)[1]


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


def fd_hessian(spec: LossSpec, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """The (p*d, p*d) Hessian by central differences of ``model.evaluate``'s
    gradient."""
    def grad(v):
        return model.evaluate(spec, v, ("grad",))[0].ravel()

    steps = h * np.eye(w.size).reshape(w.size, *w.shape)
    return np.array([(grad(w + e) - grad(w - e)) / (2 * h) for e in steps]).T


def per_sample_grads(spec: LossSpec, w: np.ndarray) -> np.ndarray:
    """(n, p*d): row i is the gradient of the one-row loss of sample i, ridge
    term included, so the rows average to the full-batch gradient."""
    xs, ys = spec.data.xs, spec.data.ys
    return np.array([model.grad(LossSpec(spec.net, Dataset(xs[i:i + 1], ys[i:i + 1]), spec.lam),
                                w).ravel() for i in range(spec.n)])


def gd_descend(spec: LossSpec, w: np.ndarray, grad_tol: float = 1e-8,
               max_iter: int = 60_000) -> np.ndarray:
    """Plain full-batch GD from ``w`` at step 1 / smoothness bound, run to the
    gradient-norm tolerance (or the iteration cap)."""
    step = 1.0 / model.glip_bound(spec)
    for _ in range(max_iter):
        g = model.grad(spec, w)
        if np.linalg.norm(g) <= grad_tol:
            break
        w = w - step * g
    return w


def multistart_gd_min(spec: LossSpec, restarts: int, seed: int,
                      grad_tol: float = 1e-8, max_iter: int = 60_000,
                      init_scale: float = 2.0) -> float:
    """Global-minimum oracle: :func:`gd_descend` from many random starts; the
    minimum loss over starts wins."""
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        w = init_scale * rng.standard_normal((spec.p, spec.d))
        best = min(best, model.loss(spec, gd_descend(spec, w, grad_tol, max_iter)))
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


def decay_fit_loop(grid: fpe.FpeGrid, t_max: float, dt: float) -> fpe.DecayFit:
    """``fpe.decay_rate`` with every step of the horizon a backward-Euler
    solve of q = rho / sqrt(mu): the loop without its Lanczos tail."""
    root = np.sqrt(fpe.gibbs(grid).values)
    solve = fpe._band_solver(fpe._symmetric_band(grid), 1.0, dt)
    n_steps = max(2, int(round(t_max / dt)))
    q = grid.rho / root
    chi2, mass = np.empty(n_steps + 1), np.empty(n_steps + 1)
    for k in range(n_steps + 1):
        diff = q - root
        chi2[k] = (diff @ diff) * grid.cell_volume
        mass[k] = (q @ root) * grid.cell_volume
        if k < n_steps:
            q = solve(q)
    return fpe._fit_decay(np.arange(n_steps + 1) * dt, chi2, mass, t_max)


def symmetrized_dense(grid: fpe.FpeGrid) -> np.ndarray:
    """diag(mu)^-1/2 G diag(mu)^1/2 as a dense array, symmetrized by
    averaging with its transpose."""
    root = np.sqrt(fpe.gibbs(grid).values)
    h_mat = fpe.generator(grid).toarray() / root[:, None] * root[None, :]
    return (h_mat + h_mat.T) / 2.0


def gap_mode_1d(grid: fpe.FpeGrid) -> tuple:
    """(gap, v_1) of a 1-D grid from a tridiagonal eigensolver, v_1 the
    unit eigenvector of the symmetrized generator H at -gap.  H has G's
    diagonal, and detailed balance makes its off-diagonal
    sqrt(G[i, i+1] * G[i+1, i])."""
    g_mat = fpe.generator(grid)
    vals, vecs = eigh_tridiagonal(g_mat.diagonal(), np.sqrt(g_mat.diagonal(1) * g_mat.diagonal(-1)),
                                  select="i", select_range=(grid.size - 2, grid.size - 2))
    return -float(vals[0]), vecs[:, 0]
