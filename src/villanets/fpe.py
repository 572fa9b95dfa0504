"""Finite-difference drift-diffusion density solver on 1-D/2-D weight spaces.

Solves the density evolution of the small-noise SGD diffusion,

    d rho / dt = div(rho * grad(U)) + (s/2) * laplace(rho),

for a tabulated potential U = loss(W) on a truncated box [-R, R]^dim with
reflecting (zero-flux) walls.  The flux through each cell interface is
discretized with Chang-Cooper / exponential-fitting weights derived from the
potential difference across the interface, which buys two properties the
tests rely on:

  * mass is conserved to round-off (telescoping interface fluxes), and
  * the discretized Gibbs density  exp(-2 U / s) / Z  is an *exact* fixed
    point, not just an O(h^2) one.

The long-time relaxation rate can be measured two independent ways: by
evolving the density and fitting the decay of the Gibbs-weighted L2 distance
(:func:`decay_rate`), or by an eigenvalue computation on the generator
(:func:`spectral_gap`).  Keeping both honest is the point; they are used to
cross-validate each other.

Detailed balance makes the generator similar to a symmetric operator H,
banded with half-bandwidth m^(dim-1) on the node grid.  One banded Cholesky
factor of a shifted H serves every implicit step of :func:`decay_rate`, the
one time-stepper.  :func:`spectral_gap` is one Lanczos run on the solve with
the banded Cholesky factor of sigma * I - H, started from a fixed-seed
vector so reruns are bit-identical.  Grids, edges, band and solvers are
written once for any dimension.  No solver path assembles the rho-form
generator G (:func:`generator`); it stays as the independent reference that
H is checked against.

Importing this module loads no scipy module, so ``import villanets`` costs
numpy only.  Each scipy module is imported the first time a function reads
from it: ``scipy.linalg`` by :func:`decay_rate` and :func:`spectral_gap`
(banded Cholesky and its solve), ``scipy.sparse.linalg`` by
:func:`spectral_gap` (``eigsh``), ``scipy.sparse`` by :func:`generator`
and :func:`symmetrized_generator`, and ``scipy.optimize`` and
``scipy.special`` by :func:`suggest_half_width`.  :func:`build_grid`,
:func:`tabulate_potential` and :func:`gibbs` use numpy only.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import LossSpec


class _Deferred:
    """A module imported on its first attribute access; each attribute
    read is then kept on this object, so later reads cost a plain lookup."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")
linalg = _Deferred("scipy.linalg")
optimize = _Deferred("scipy.optimize")
special = _Deferred("scipy.special")

CHI_FLOOR = 1e-12
MAX_OPERATOR_SIZE = 40_000
# exp(-x) beyond this nears the underflow range of float64
MAX_GIBBS_EXPONENT = 700.0
EIGSH_MAXITER = 10_000
# Gibbs mass that suggest_half_width leaves outside the box
HALF_WIDTH_TAIL = 1e-8


@dataclass(frozen=True)
class FpeGrid:
    """Node-centered tensor grid over the weight box [-R, R]^dim.

    ``potential`` and ``rho`` are flattened C-order arrays of length
    m^dim; ``rho`` integrates to one under the equal-weight rule
    sum(rho) * h^dim.
    """

    dim: int
    half_width: float
    m: int
    h: float
    s: float
    potential: np.ndarray
    rho: np.ndarray

    @property
    def size(self) -> int:
        return self.m**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.m)

    def mass(self) -> float:
        return float(np.sum(self.rho) * self.cell_volume)


@dataclass(frozen=True)
class GibbsMeasure:
    """Grid discretization of exp(-2 U / s) / Z, with log Z."""

    values: np.ndarray
    log_z: float

    def __post_init__(self):
        if np.any(self.values <= 0):
            raise ValueError("Gibbs values must be strictly positive")


@dataclass(frozen=True)
class DecayFit:
    """Fitted relaxation of the Gibbs-weighted L2 distance.

    ``chi2_series`` holds the squared distance chi^2(t); the fit is of
    log chi(t) (amplitude decay) over the tail half of the horizon.
    ``early_converged`` flags trajectories that hit the round-off floor
    before the fit window opened.
    """

    rate: float
    r_squared: float
    times: np.ndarray
    chi2_series: np.ndarray
    mass_series: np.ndarray
    early_converged: bool


def tabulate_potential(spec: LossSpec, points: np.ndarray) -> np.ndarray:
    """Loss at each flattened weight-space point (rows of ``points``)."""
    return model.evaluate(spec, points.reshape(-1, spec.p, spec.d), ("loss",))[0]


def build_grid(spec: LossSpec, half_width: float, m: int, s: float, init="uniform") -> FpeGrid:
    """Tabulate the loss on the box and set the initial density.

    Only weight spaces of total dimension p*d in {1, 2} are supported.
    ``init`` may be 'uniform' or an explicit finite, nonnegative array of
    the right size and positive sum (normalized here).
    """
    dim = spec.p * spec.d
    if dim not in (1, 2):
        raise ValueError(f"density solver supports p*d in {{1, 2}}, got {dim}")
    if not (0 < half_width < math.inf and m >= 8 and 0 < s < math.inf):
        raise ValueError("need finite half_width > 0, m >= 8, finite s > 0")
    axis = np.linspace(-half_width, half_width, m)
    h = axis[1] - axis[0]
    points = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, dim)
    potential = tabulate_potential(spec, points)
    size = m**dim
    if isinstance(init, str):
        if init != "uniform":
            raise ValueError(f"unknown init {init!r}")
        rho = np.full(size, 1.0)
    else:
        rho = np.asarray(init, dtype=np.float64).ravel()
        if rho.shape != (size,):
            raise ValueError(f"init density must have {size} entries")
        if not (np.all(np.isfinite(rho)) and np.all(rho >= 0) and np.sum(rho) > 0):
            raise ValueError("init density must be finite and nonnegative, with positive mass")
    rho = rho / (np.sum(rho) * h**dim)
    return FpeGrid(dim=dim, half_width=half_width, m=m, h=h, s=s,
                   potential=potential, rho=rho)


def gibbs(grid: FpeGrid) -> GibbsMeasure:
    """Discretized stationary density with its normalizer.

    Raises ``ValueError`` when 2 (U - min U) / s exceeds
    ``MAX_GIBBS_EXPONENT`` somewhere on the box, rather than clamping it.
    """
    d_coef = grid.s / 2.0
    u0 = grid.potential.min()
    exponent = (grid.potential - u0) / d_coef
    top = float(exponent.max())
    if top > MAX_GIBBS_EXPONENT:
        raise ValueError(
            f"Gibbs exponent 2 (U - min U) / s spans [0, {top:.4g}] on this box, beyond "
            f"{MAX_GIBBS_EXPONENT:g} where exp(-x) nears underflow; shrink the box or raise s"
        )
    raw = np.exp(-exponent)
    z_shifted = float(np.sum(raw) * grid.cell_volume)
    log_z = math.log(z_shifted) - u0 / d_coef
    return GibbsMeasure(values=raw / z_shifted, log_z=log_z)


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), with B(0) = 1.  Both tails come out of the one
    quotient: e^z - 1 overflows to inf for z >= 710 (B = 0) and rounds to -1
    for z <= -38 (B = -z)."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(z == 0.0, 1.0, z / np.expm1(z))


def _edges(grid: FpeGrid) -> list:
    """Neighbor pairs (left, right), one pair of index arrays per axis;
    right - left is the same for every edge of an axis."""
    flat = np.arange(grid.size).reshape((grid.m,) * grid.dim)
    return [(np.delete(flat, -1, axis=k).ravel(), np.delete(flat, 0, axis=k).ravel())
            for k in range(grid.dim)]


def generator(grid: FpeGrid) -> sp.csr_matrix:
    """Sparse generator G with d rho / dt = G rho.

    Interface flux between neighbors (L, R) along an axis:

        J = (D/h) * [ B(-w) * rho_R - B(w) * rho_L ],   w = (U_R - U_L) / D

    with D = s/2 and B the Bernoulli function.  Zero flux through the outer
    walls; columns of G sum to zero, so mass is conserved exactly.
    """
    d_coef = grid.s / 2.0
    size = grid.size
    rows, cols, vals = [], [], []
    for left, right in _edges(grid):
        w = (grid.potential[right] - grid.potential[left]) / d_coef
        cp = (d_coef / grid.h) * _bernoulli(-w)   # coefficient of rho_right in J
        cm = -(d_coef / grid.h) * _bernoulli(w)   # coefficient of rho_left in J
        # d rho_left / dt   += +J / h ; d rho_right / dt += -J / h
        rows.extend([left, left, right, right])
        cols.extend([right, left, right, left])
        vals.extend([cp / grid.h, cm / grid.h, -cp / grid.h, -cm / grid.h])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def _symmetric_band(grid: FpeGrid) -> np.ndarray:
    """H = diag(mu)^-1/2 G diag(mu)^1/2 in LAPACK upper-band storage.

    Shape (kd + 1, m^dim) with kd = m^(dim-1): row kd holds the diagonal
    and row kd - k the k-th superdiagonal, entry (i, i + k) in column i + k.
    Detailed balance makes the off-diagonal of edge (L, R)

        (D/h^2) * (w/2) / sinh(w/2) = (D/h^2) * sqrt(B(w) * B(-w)),

    symmetric in w by construction, so H is built without the Gibbs
    density and is exactly symmetric.  Its diagonal is G's.  H <= 0, with
    null vector sqrt(mu).
    """
    d_coef = grid.s / 2.0
    scale = d_coef / grid.h**2
    kd = grid.m ** (grid.dim - 1)
    band = np.zeros((kd + 1, grid.size))
    for left, right in _edges(grid):
        w = (grid.potential[right] - grid.potential[left]) / d_coef
        b_plus, b_minus = _bernoulli(w), _bernoulli(-w)
        band[kd - (right[0] - left[0]), right] = scale * np.sqrt(b_plus * b_minus)
        band[kd, left] -= scale * b_plus
        band[kd, right] -= scale * b_minus
    return band


def _band_solver(band: np.ndarray, shift: float, scale: float):
    """Solve with shift * I - scale * H from one banded Cholesky factor.

    ``band`` is H in upper-band storage (:func:`_symmetric_band`); H <= 0,
    so the matrix is SPD for shift, scale > 0.  A backward-Euler step is
    (shift, scale) = (1, dt); the gap's sigma * I - H is (sigma, 1).
    """
    ab = -scale * band
    ab[-1] += shift
    factor = linalg.cholesky_banded(ab, check_finite=False)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return linalg.lapack.dpbtrs(factor, rhs)[0]

    return solve


def decay_rate(grid: FpeGrid, t_max: float, dt: float) -> DecayFit:
    """Evolve to ``t_max`` (implicit steps) and fit the tail decay of chi(t).

    The steps evolve q = rho / sqrt(mu) under the symmetric form H, so the
    squared Gibbs-weighted distance sum (rho - mu)^2 / mu * h^dim is
    ||q - sqrt(mu)||^2 * h^dim and the mass is (q . sqrt(mu)) * h^dim.
    The fit is least-squares on log chi over the second half of the horizon,
    excluding points at the round-off floor.  A floor hit before the window
    opens sets ``early_converged``.

    The fit assumes that the second half of [0, t_max] is past the
    transient: the next decay rate lambda_2 must have died out against the
    gap by t_max / 2, which takes several times 1 / (lambda_2 - gap).
    Where it still shows, the rate comes out high with an R^2 near 1, and
    nothing flags it yet.  On README's 1-D grid (gap 0.2028, lambda_2
    0.3956), t_max = 40 gives 0.2203 and t_max = 80 gives 0.2024.
    """
    if not (0 < t_max < math.inf and 0 < dt < math.inf):
        raise ValueError("t_max and dt must be positive and finite")
    root = np.sqrt(gibbs(grid).values)
    solve = _band_solver(_symmetric_band(grid), 1.0, dt)
    n_steps = max(2, int(round(t_max / dt)))
    q = grid.rho / root
    times = np.empty(n_steps + 1)
    chi2 = np.empty(n_steps + 1)
    mass = np.empty(n_steps + 1)
    vol = grid.cell_volume
    for k in range(n_steps + 1):
        times[k] = k * dt
        diff = q - root
        chi2[k] = (diff @ diff) * vol
        mass[k] = (q @ root) * vol
        if k < n_steps:
            q = solve(q)
    chi = np.sqrt(chi2)
    window = times >= t_max / 2.0
    usable = chi > CHI_FLOOR
    early = bool(np.any(~usable & ~window))
    mask = window & usable
    if mask.sum() < 3:
        early = True
        mask = usable
    if mask.sum() < 3:
        return DecayFit(math.inf, 1.0, times, chi2, mass, True)
    t_fit = times[mask]
    y_fit = np.log(chi[mask])
    design = np.column_stack([t_fit, np.ones_like(t_fit)])
    coef, *_ = np.linalg.lstsq(design, y_fit, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y_fit - pred) ** 2))
    ss_tot = float(np.sum((y_fit - y_fit.mean()) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(-float(coef[0]), r_sq, times, chi2, mass, early)


def symmetrized_generator(grid: FpeGrid) -> sp.csr_matrix:
    """Similarity transform diag(mu)^-1/2 G diag(mu)^1/2 as CSR.

    The Chang-Cooper fluxes satisfy detailed balance with respect to the
    discrete Gibbs density, so this matrix is symmetric (bit for bit: it is
    a CSR copy of :func:`_symmetric_band`) and shares the generator's
    spectrum.
    """
    band = _symmetric_band(grid)
    upper = sp.dia_matrix((band[::-1], np.arange(band.shape[0])),
                          shape=(grid.size, grid.size)).tocsr()
    return (upper + sp.triu(upper, k=1).T).tocsr()


def spectral_gap(grid: FpeGrid) -> float:
    """Second-smallest eigenvalue magnitude of the generator.

    The spectrum is {0 = -lam_0 > -lam_1 > ...}; the returned gap is lam_1,
    the slowest relaxation rate of any density perturbation.  For a small
    sigma > 0, (sigma * I - H)^-1 has eigenvalues theta = 1 / (sigma + lam),
    so lam_0 and lam_1 are its two largest.  One Lanczos run finds them,
    solving with the banded Cholesky factor of sigma * I - H, and the gap is
    1 / min(theta) - sigma.  The run starts from a fixed-seed random vector
    (not all ones, which is orthogonal to the odd gap mode of a symmetric
    potential), so a rerun on one grid returns the same float.
    """
    if grid.size > MAX_OPERATOR_SIZE:
        raise ValueError(f"operator size {grid.size} exceeds {MAX_OPERATOR_SIZE}")
    band = _symmetric_band(grid)
    sigma = 1e-4 * float(np.max(np.abs(band[-1])))
    solve = _band_solver(band, sigma, 1.0)
    op = spla.LinearOperator((grid.size, grid.size), matvec=solve, dtype=np.float64)
    start = np.random.default_rng(0).standard_normal(grid.size)
    try:
        theta = spla.eigsh(op, k=2, which="LA", v0=start, maxiter=EIGSH_MAXITER,
                           return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError("eigenvalue iteration did not converge") from exc
    return float(1.0 / np.min(theta) - sigma)


def suggest_half_width(spec: LossSpec, s: float) -> float:
    """Box half-width keeping the Gibbs mass outside below ``HALF_WIDTH_TAIL``.

    The loss dominates (lam/2) * ||W||^2, so the Gibbs factor is dominated by
    a centered Gaussian of per-axis variance s / (2 lam); the box covers that
    Gaussian's quantile plus the offset of the loss minimizer.
    """
    if spec.lam <= 0:
        raise ValueError("half-width rule needs lam > 0 (coercive tail)")
    dim = spec.p * spec.d
    sigma = math.sqrt(s / (2.0 * spec.lam))

    def fun_and_grad(flat):
        value, g = model.evaluate(spec, flat.reshape(spec.p, spec.d), ("loss", "grad"))
        return float(value), g.ravel()

    res = optimize.minimize(fun_and_grad, np.zeros(dim), jac=True, method="L-BFGS-B")
    center = float(np.max(np.abs(res.x)))
    quantile = -float(special.ndtri(HALF_WIDTH_TAIL / (2.0 * dim)))
    return center + sigma * (quantile + 1.0)
