"""Finite-difference drift-diffusion density solver on 1-D/2-D weight spaces.

Solves the density evolution of ``run_sde``'s SDE, the theorem's SGD at dt = s,

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
one time-stepper.  It steps one by one through the first half of the
horizon, the transient its fit discards, and reads the fit window's curve
off one Lanczos run on the same step, grown in blocks of ``KRYLOV_BLOCK``
vectors until the curve moves by at most ``KRYLOV_RTOL`` relative between
blocks or the basis makes it exact.  :func:`spectral_gap` runs the same
Lanczos code on the solve with the banded factor of sigma * I - H until the
Ritz residual certifies the gap, from a fixed-seed start; sigma is the
slowest nonzero rate of free diffusion on the box, so it does not grow as
the grid is refined.  Grids, edges, band and solvers are written once for
any dimension.  No solver path assembles the rho-form generator G
(:func:`generator`); it stays as the independent reference that H is
checked against.

One size rule serves every operator: :func:`build_grid` refuses a grid of
more than ``MAX_OPERATOR_SIZE`` nodes before it tabulates a point, so
:func:`decay_rate`, :func:`spectral_gap` and :func:`symmetrized_generator`
accept the same grids.

Importing this module loads no scipy module, so ``import villanets`` costs
numpy only.  Each scipy module is imported the first time a function reads
from it: ``scipy.linalg`` by :func:`decay_rate` and :func:`spectral_gap`
(banded Cholesky and its solve), ``scipy.sparse`` by :func:`generator`
and :func:`symmetrized_generator`, and ``scipy.optimize`` by
:func:`suggest_half_width`, which takes its Gaussian quantile from the
standard library's ``statistics``.  :func:`build_grid`,
:func:`tabulate_potential` and :func:`gibbs` use numpy only.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from . import model, rules
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
spla = _Deferred("scipy.sparse.linalg")    # no solver reads it; kept for the benchmark's tracer
linalg = _Deferred("scipy.linalg")
optimize = _Deferred("scipy.optimize")

CHI_FLOOR = 1e-12
# the decay fit's halves agree on the rate within this, or it has not settled
SETTLED_RTOL = 0.05
# Lanczos basis growth; the tail's stopping change in chi^2, the gap's Ritz residual
KRYLOV_BLOCK = 8
KRYLOV_RTOL = 1e-12
# the most nodes a grid may have, checked by build_grid
MAX_OPERATOR_SIZE = 40_000
# exp(-x) beyond this nears the underflow range of float64
MAX_GIBBS_EXPONENT = 700.0
# Gibbs mass that suggest_half_width leaves outside the box
HALF_WIDTH_TAIL = 1e-8


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class GibbsMeasure:
    """Grid discretization of exp(-2 U / s) / Z, with log Z."""

    values: np.ndarray
    log_z: float

    def __post_init__(self):
        if np.any(self.values <= 0):
            raise ValueError("Gibbs values must be strictly positive")


@dataclass(frozen=True, eq=False)
class DecayFit:
    """Fitted relaxation of the Gibbs-weighted L2 distance.

    ``chi2_series`` holds the squared distance chi^2(t); the fit is of
    log chi(t) (amplitude decay) over the tail half of the horizon.
    ``early_converged`` flags trajectories that hit the round-off floor
    before the fit window opened.  ``settled`` holds when the log-chi slopes
    over the two halves of the fitted points agree within ``SETTLED_RTOL``,
    a sign that the fit is past the transient (see :func:`decay_rate`).
    """

    rate: float
    r_squared: float
    times: np.ndarray
    chi2_series: np.ndarray
    mass_series: np.ndarray
    early_converged: bool
    settled: bool


def tabulate_potential(spec: LossSpec, points: np.ndarray) -> np.ndarray:
    """Loss at each flattened weight-space point (rows of ``points``)."""
    return model.evaluate(spec, points.reshape(-1, spec.p, spec.d), ("loss",))[0]


def build_grid(spec: LossSpec, half_width: float, m: int, s: float, init=None) -> FpeGrid:
    """Tabulate the loss on the box and set the initial density.

    Only weight spaces of total dimension p*d in {1, 2} are supported, the
    grid has at most ``MAX_OPERATOR_SIZE`` nodes (checked before any is
    tabulated), and the loss must be finite on every node of the box.
    ``init`` is None (uniform) or an explicit finite, nonnegative array of
    the right size and positive sum (normalized here).
    """
    dim = spec.p * spec.d
    if dim not in (1, 2):
        raise ValueError(f"density solver supports p*d in {{1, 2}}, got {dim}")
    half_width, s = rules.positive(half_width, "half_width"), rules.positive(s, "s")
    m = rules.at_least(m, "m", 8, int)
    size = m**dim
    if size > MAX_OPERATOR_SIZE:
        raise ValueError(f"operator size {size} exceeds {MAX_OPERATOR_SIZE}")
    axis = np.linspace(-half_width, half_width, m)
    h = axis[1] - axis[0]
    points = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, dim)
    # w . w overflows on a wide enough box, and 0 * inf (lam = 0) is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        potential = tabulate_potential(spec, points)
    if not np.isfinite(potential).all():
        raise ValueError(f"the loss is not finite on the box of half-width {half_width:g}; "
                         "shrink the box")
    if init is None:
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
    null vector sqrt(mu).  The band is in Fortran order, the layout that
    LAPACK factors in place (:func:`_band_solver`).
    """
    d_coef = grid.s / 2.0
    scale = d_coef / grid.h**2
    kd = grid.m ** (grid.dim - 1)
    band = np.zeros((kd + 1, grid.size), order="F")
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
    (shift, scale) = (1, dt); the gap's sigma * I - H is (sigma, 1).  The
    factor is written over ``band``, so a factor holds one band and the
    caller must not read ``band`` again.
    """
    band *= -scale
    band[-1] += shift
    factor = linalg.cholesky_banded(band, overwrite_ab=True, check_finite=False)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return linalg.lapack.dpbtrs(factor, rhs)[0]

    return solve


def decay_rate(grid: FpeGrid, t_max: float, dt: float) -> DecayFit:
    """Take n = round(t_max / dt) implicit steps of dt and fit the tail decay
    of chi(t).

    n must be at least 2, one step for each half of the fit; a ``t_max /
    dt`` that is not finite or rounds to fewer steps is a ``ValueError``
    naming both values, so the horizon is never stretched past ``t_max``.
    The steps evolve q = rho / sqrt(mu) under the symmetric form H, so the
    squared Gibbs-weighted distance sum (rho - mu)^2 / mu * h^dim is
    ||q - sqrt(mu)||^2 * h^dim and the mass is (q . sqrt(mu)) * h^dim.
    The fit is least-squares on log chi over the second half of the steps
    taken, steps (n + 1) // 2 to n, excluding points at the round-off floor.
    A floor hit before the window opens sets ``early_converged``.

    The loop steps through the first half, the transient the fit discards.
    The fit window's backward-Euler curve is read off one Lanczos run on
    the same step (:func:`_krylov_tail`), whose basis grows in blocks of
    ``KRYLOV_BLOCK`` until the window's chi^2 moves by at most
    ``KRYLOV_RTOL`` relative between blocks, or until it holds more
    vectors than the window has steps, where the curve is exact.

    The fit assumes that the second half of [0, t_max] is past the
    transient: the next decay rate lambda_2 must have died out against the
    gap by t_max / 2, which takes several times 1 / (lambda_2 - gap).
    Where it still shows, the rate comes out high with an R^2 near 1.
    ``settled`` flags it: it holds when the log-chi slopes over the two
    halves of the fitted points agree within ``SETTLED_RTOL``.  On
    README's 1-D grid (gap 0.2028, lambda_2 0.3956), t_max = 40 gives
    0.2203 and t_max = 80 gives 0.2024.
    """
    n_steps = rules.steps(t_max, dt, 2)
    root = np.sqrt(gibbs(grid).values)
    solve = _band_solver(_symmetric_band(grid), 1.0, dt)
    times = np.arange(n_steps + 1) * dt
    start = (n_steps + 1) // 2    # the fit window's first step
    q = grid.rho / root
    chi2 = np.empty(n_steps + 1)
    mass = np.empty(n_steps + 1)
    vol = grid.cell_volume
    for k in range(start):
        diff = q - root
        chi2[k] = (diff @ diff) * vol
        mass[k] = (q @ root) * vol
        q = solve(q)
    chi2[start:], mass[start:] = _krylov_tail(solve, q, root, n_steps - start, vol)
    return _fit_decay(times, chi2, mass)


def _lanczos(solve, v: np.ndarray):
    """Lanczos on the symmetric ``solve`` from the unit vector v, each vector
    reorthogonalized against the basis V.  After each block of ``KRYLOV_BLOCK``
    vectors yields T's eigenpairs (theta, u), V and the last beta: theta_i
    lies within beta * |u[-1, i]| of an eigenvalue (Parlett 1998, sec. 13.2).
    The caller stops the run; it ends by itself on a V that spans the space,
    which is invariant: there beta = 0."""
    size = v.size
    basis = np.empty((0, size))
    alpha, beta = [], []
    while len(alpha) < size:
        basis = np.concatenate([basis, np.empty((min(KRYLOV_BLOCK, size - len(alpha)), size))])
        for k in range(len(alpha), len(basis)):
            basis[k] = v
            w = solve(v)
            alpha.append(v @ w)
            span = basis[: k + 1]
            for _ in range(2):    # "twice is enough" (Kahan, Parlett)
                w -= span.T @ (span @ w)
            beta.append(math.sqrt(w @ w))
            v = w / beta[-1]
        # eigh reads T's lower triangle
        theta, u = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        yield theta, u, basis, (beta[-1] if len(alpha) < size else 0.0)


def _krylov_tail(solve, q: np.ndarray, root: np.ndarray, steps: int, vol: float):
    """The chi^2 and mass series of ``steps`` more backward-Euler steps
    ``solve`` from q, read off one Lanczos run (:func:`_lanczos`).

    q = c * sqrt(mu) + d with d orthogonal to sqrt(mu), which the step
    keeps fixed.  The run starts from d.  From the eigenpairs (theta_i, u_i)
    of its tridiagonal T, chi^2_j = ||d||^2 * sum_i u_i[0]^2 theta_i^(2j) * h^dim
    and mass_j = (c * ||sqrt(mu)||^2 + ||d|| * (U theta^j U^T e_1) . (V sqrt(mu)))
    * h^dim, so a leak of the basis V onto sqrt(mu) shows in the mass.  The
    basis grows until no chi^2_j above the fit's floor moves by more than
    ``KRYLOV_RTOL`` relative between blocks, or until the series is exact:
    a basis of k vectors holds solve^j d for j < k, and its Gauss quadrature
    is exact to polynomial degree 2k - 1 (Golub & Meurant 2010), so k > steps
    suffices, as does a basis that spans the grid.  A q with d = 0 is
    stationary.
    """
    norm2 = root @ root
    c = (q @ root) / norm2
    d = q - c * root
    d_norm = math.sqrt(d @ d)
    if d_norm == 0.0:
        return np.zeros(steps + 1), np.full(steps + 1, c * norm2 * vol)
    powers = np.arange(steps + 1)
    last = None
    for theta, u, basis, beta in _lanczos(solve, d / d_norm):
        chi2 = d_norm**2 * vol * ((u[0] ** 2) @ np.power.outer(theta, 2 * powers))
        converged = last is not None and np.all((np.abs(chi2 - last) <= KRYLOV_RTOL * chi2)
                                                | (chi2 <= CHI_FLOOR**2))
        if converged or len(basis) > steps or beta == 0.0:
            decay = u[0][:, None] * np.power.outer(theta, powers)
            return chi2, (c * norm2 + d_norm * ((u.T @ (basis @ root)) @ decay)) * vol
        last = chi2


def _fit_decay(times: np.ndarray, chi2: np.ndarray, mass: np.ndarray) -> DecayFit:
    """The :class:`DecayFit` of a chi^2 series, as :func:`decay_rate` fits it:
    of n steps, the window is steps (n + 1) // 2 to n."""
    chi = np.sqrt(chi2)
    window = np.arange(times.size) >= times.size // 2
    usable = chi > CHI_FLOOR
    early = bool(np.any(~usable & ~window))
    mask = window & usable
    if mask.sum() < 3:
        early = True
        mask = usable
    if mask.sum() < 3:
        return DecayFit(math.inf, 1.0, times, chi2, mass, True, False)
    t_fit = times[mask]
    y_fit = np.log(chi[mask])
    rate, r_sq = _line_fit(t_fit, y_fit)
    half = t_fit.size // 2
    first, second = (_line_fit(t_fit[part], y_fit[part])[0]
                     for part in (slice(None, half), slice(half, None)))
    settled = half >= 2 and abs(first - second) <= SETTLED_RTOL * abs(second)
    return DecayFit(rate, r_sq, times, chi2, mass, early, settled)


def _line_fit(t: np.ndarray, y: np.ndarray) -> tuple:
    """(-slope, R^2) of the least-squares line through (t, y)."""
    design = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -float(coef[0]), r_sq


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
    the slowest relaxation rate of any density perturbation.  For sigma > 0,
    (sigma * I - H)^-1 has eigenvalues theta = 1 / (sigma + lam), so lam_0
    and lam_1 are its two largest.  A :func:`_lanczos` run on the banded
    Cholesky solve with sigma * I - H stops once both Ritz residuals are at
    most ``KRYLOV_RTOL`` times their values, and the gap is
    1 / theta_2 - sigma.  The run starts from a fixed-seed random vector
    (not all ones, which is orthogonal to the odd gap mode of a symmetric
    potential), so a rerun on one grid returns the same float.

    The run separates theta_1 from theta_2 in few vectors when sigma sits
    at the scale of the wanted end of the spectrum (Ericsson & Ruhe, Math.
    Comp. 35, 1980).  sigma is (s/2) * (pi / (2 R))^2, the slowest nonzero
    rate of free diffusion on the box [-R, R].  It does not depend on the
    mesh width h, where the largest |H| grows like 1 / h^2, and on a box
    fitted to the Gibbs density it is a fixed share of the gap: ~0.05 lam
    on a quadratic well with :func:`suggest_half_width`'s box.  In a
    metastable potential, whose gap falls far below sigma, the run needs
    more vectors; the certificate still holds, so the gap stays correct.
    """
    band = _symmetric_band(grid)
    sigma = grid.s / 2.0 * (math.pi / (2.0 * grid.half_width)) ** 2
    solve = _band_solver(band, sigma, 1.0)
    start = np.random.default_rng(0).standard_normal(grid.size)
    for theta, u, _, beta in _lanczos(solve, start / np.linalg.norm(start)):
        if np.all(beta * np.abs(u[-1, -2:]) <= KRYLOV_RTOL * theta[-2:]):
            return float(1.0 / theta[-2] - sigma)
    raise RuntimeError("eigenvalue iteration did not converge")


def suggest_half_width(spec: LossSpec, s: float) -> float:
    """Box half-width keeping the Gibbs mass outside below ``HALF_WIDTH_TAIL``.

    The loss dominates (lam/2) * ||W||^2, so the Gibbs factor is dominated by
    a centered Gaussian of per-axis variance s / (2 lam); the box covers that
    Gaussian's quantile plus the offset of the loss minimizer.
    """
    from statistics import NormalDist    # imported here: it pulls in decimal and fractions

    s = rules.positive(s, "s")
    if spec.lam <= 0:
        raise ValueError("half-width rule needs lam > 0 (coercive tail)")
    dim = spec.p * spec.d
    sigma = math.sqrt(s / (2.0 * spec.lam))

    def fun_and_grad(flat):
        value, g = model.evaluate(spec, flat.reshape(spec.p, spec.d), ("loss", "grad"))
        return float(value), g.ravel()

    res = optimize.minimize(fun_and_grad, np.zeros(dim), jac=True, method="L-BFGS-B")
    center = float(np.max(np.abs(res.x)))
    quantile = -NormalDist().inv_cdf(HALF_WIDTH_TAIL / (2.0 * dim))
    return center + sigma * (quantile + 1.0)
