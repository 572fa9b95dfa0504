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
factor of a shifted H serves every implicit step and every shift-invert
solve of the eigenvalue iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cholesky_banded, eigh_tridiagonal
from scipy.linalg.lapack import dpbtrs
from scipy.optimize import minimize
from scipy.stats import norm

from . import model
from .model import LossSpec

CHI_FLOOR = 1e-12
MAX_OPERATOR_SIZE = 40_000
# exp(-x) beyond this nears the underflow range of float64
MAX_GIBBS_EXPONENT = 700.0


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
    """Grid discretization of exp(-2 U / s) / Z."""

    s: float
    values: np.ndarray
    z: float
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
    ``init`` may be 'uniform', 'gibbs', or an explicit nonnegative array of
    the right size (normalized here).
    """
    dim = spec.p * spec.d
    if dim not in (1, 2):
        raise ValueError(f"density solver supports p*d in {{1, 2}}, got {dim}")
    if half_width <= 0 or m < 8 or s <= 0:
        raise ValueError("need half_width > 0, m >= 8, s > 0")
    axis = np.linspace(-half_width, half_width, m)
    h = axis[1] - axis[0]
    if dim == 1:
        points = axis[:, None]
    else:
        g0, g1 = np.meshgrid(axis, axis, indexing="ij")
        points = np.column_stack([g0.ravel(), g1.ravel()])
    potential = tabulate_potential(spec, points)
    size = m**dim
    if isinstance(init, str):
        if init == "uniform":
            rho = np.full(size, 1.0)
        elif init == "gibbs":
            rho = np.exp(-2.0 * (potential - potential.min()) / s)
        else:
            raise ValueError(f"unknown init {init!r}")
    else:
        rho = np.asarray(init, dtype=np.float64).ravel()
        if rho.shape != (size,):
            raise ValueError(f"init density must have {size} entries")
        if np.any(rho < 0):
            raise ValueError("init density must be nonnegative")
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
    values = raw / z_shifted
    z = math.exp(log_z) if abs(log_z) < 700 else math.inf
    return GibbsMeasure(s=grid.s, values=values, z=z, log_z=log_z)


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), overflow-safe on both tails."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    big_pos = z > 700.0
    big_neg = z < -700.0
    mid = ~(small | big_pos | big_neg)
    out[small] = 1.0 - z[small] / 2.0 + z[small] ** 2 / 12.0
    out[mid] = z[mid] / np.expm1(z[mid])
    out[big_pos] = 0.0
    out[big_neg] = -z[big_neg]
    return out


def _edges(grid: FpeGrid) -> list:
    """Neighbor pairs (left, right), one pair of index arrays per axis;
    right - left is the same for every edge of an axis."""
    if grid.dim == 1:
        idx = np.arange(grid.m)
        return [(idx[:-1], idx[1:])]
    flat = np.arange(grid.size).reshape(grid.m, grid.m)
    return [(flat[:-1, :].ravel(), flat[1:, :].ravel()),
            (flat[:, :-1].ravel(), flat[:, 1:].ravel())]


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


def explicit_dt_limit(grid: FpeGrid) -> float:
    """Stability bound h^2 / (2 * dim * D + h * max|grad U|) for explicit steps."""
    d_coef = grid.s / 2.0
    if grid.dim == 1:
        du = np.abs(np.diff(grid.potential))
    else:
        u = grid.potential.reshape(grid.m, grid.m)
        du = np.concatenate(
            [np.abs(np.diff(u, axis=0)).ravel(), np.abs(np.diff(u, axis=1)).ravel()]
        )
    max_slope = float(du.max()) / grid.h if du.size else 0.0
    return grid.h**2 / (2.0 * grid.dim * d_coef + grid.h * max_slope)


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
    (shift, scale) = (1, dt); shift-invert about sigma is (sigma, 1).
    """
    ab = -scale * band
    ab[-1] += shift
    factor = cholesky_banded(ab, check_finite=False)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return dpbtrs(factor, rhs)[0]

    return solve


def step_fpe(grid: FpeGrid, dt: float, method: str = "explicit") -> FpeGrid:
    """Advance the density one step; returns a new grid.

    Explicit forward-Euler steps on G enforce the stability limit.
    Implicit (backward-Euler) steps accept any dt; like :func:`decay_rate`
    they step q = rho / sqrt(mu) with the symmetric form H.  Both conserve
    mass to round-off.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method == "explicit":
        limit = explicit_dt_limit(grid)
        if dt > limit:
            raise ValueError(f"explicit step dt={dt} exceeds stability limit {limit:.3e}")
        rho = grid.rho + dt * (generator(grid) @ grid.rho)
    elif method == "implicit":
        root = np.sqrt(gibbs(grid).values)
        rho = root * _band_solver(_symmetric_band(grid), 1.0, dt)(grid.rho / root)
    else:
        raise ValueError(f"unknown method {method!r}")
    return replace(grid, rho=rho)


def decay_rate(grid: FpeGrid, t_max: float, dt: float) -> DecayFit:
    """Evolve to ``t_max`` (implicit steps) and fit the tail decay of chi(t).

    The steps evolve q = rho / sqrt(mu) under the symmetric form H, so the
    squared Gibbs-weighted distance sum (rho - mu)^2 / mu * h^dim is
    ||q - sqrt(mu)||^2 * h^dim and the mass is (q . sqrt(mu)) * h^dim.
    The fit is least-squares on log chi over the second half of the horizon,
    excluding points at the round-off floor.  A floor hit before the window
    opens sets ``early_converged``.
    """
    if t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive")
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


def _band_csr(band: np.ndarray) -> sp.csr_matrix:
    """The symmetric matrix whose upper band is ``band``, as CSR."""
    kd, size = band.shape[0] - 1, band.shape[1]
    upper = sp.dia_matrix((band[::-1], np.arange(kd + 1)), shape=(size, size)).tocsr()
    return (upper + sp.triu(upper, k=1).T).tocsr()


def symmetrized_generator(grid: FpeGrid) -> sp.csr_matrix:
    """Similarity transform diag(mu)^-1/2 G diag(mu)^1/2.

    The Chang-Cooper fluxes satisfy detailed balance with respect to the
    discrete Gibbs density, so this matrix is symmetric (bit for bit: it is
    a CSR view of :func:`_symmetric_band`) and shares the generator's
    spectrum.
    """
    return _band_csr(_symmetric_band(grid))


def _eigsh_near_zero(band: np.ndarray, k: int, maxiter: int, vectors: bool):
    """The ``k`` eigenvalues of H nearest 0 (with eigenvectors if
    ``vectors``), by shift-invert about a small sigma > 0 that solves with
    the banded Cholesky factor of sigma * I - H."""
    sigma = 1e-4 * float(np.max(np.abs(band[-1])))
    solve = _band_solver(band, sigma, 1.0)
    size = band.shape[1]
    # eigsh wants OPinv = (H - sigma * I)^-1
    op_inv = spla.LinearOperator((size, size), matvec=lambda x: -solve(x), dtype=np.float64)
    try:
        return spla.eigsh(
            _band_csr(band), k=k, sigma=sigma, which="LM", OPinv=op_inv, maxiter=maxiter,
            return_eigenvectors=vectors,
        )
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError("eigenvalue iteration did not converge") from exc


def spectral_gap(grid: FpeGrid, maxiter: int = 10_000) -> float:
    """Second-smallest eigenvalue magnitude of the generator.

    The spectrum is {0 = -lam_0 > -lam_1 > ...}; the returned gap is lam_1,
    the slowest relaxation rate of any density perturbation.  Computed by
    shift-invert iteration on the symmetrized generator (1-D grids use the
    direct tridiagonal eigensolver on its band).
    """
    if grid.size > MAX_OPERATOR_SIZE:
        raise ValueError(f"operator size {grid.size} exceeds {MAX_OPERATOR_SIZE}")
    band = _symmetric_band(grid)
    if grid.dim == 1:
        vals = eigh_tridiagonal(
            band[1], band[0, 1:], select="i", select_range=(grid.size - 2, grid.size - 1),
            eigvals_only=True,
        )
        return float(-vals[0])
    vals = _eigsh_near_zero(band, 2, maxiter, vectors=False)
    return float(-np.min(vals))


def stationary_density(grid: FpeGrid, maxiter: int = 10_000) -> np.ndarray:
    """Normalized null vector of the generator (the discrete stationary law)."""
    _, vecs = _eigsh_near_zero(_symmetric_band(grid), 1, maxiter, vectors=True)
    q = vecs[:, 0]
    rho = q * np.sqrt(gibbs(grid).values)
    if rho.sum() < 0:
        rho = -rho
    rho = np.clip(rho, 0.0, None)
    return rho / (rho.sum() * grid.cell_volume)


def suggest_half_width(spec: LossSpec, s: float, tail: float = 1e-8) -> float:
    """Box half-width keeping the Gibbs mass outside below ``tail``.

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

    res = minimize(fun_and_grad, np.zeros(dim), jac=True, method="L-BFGS-B")
    center = float(np.max(np.abs(res.x)))
    quantile = float(norm.isf(tail / (2.0 * dim)))
    return center + sigma * (quantile + 1.0)
