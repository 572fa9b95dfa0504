"""Coercivity diagnostics for the regularized objective.

The central quantity is v_s(W) = ||grad||_F^2 / s - laplacian(W).  For ridge
strength above the critical value the objective's tail makes v_s blow up
along every direction, which is the property the Gibbs-measure mixing
results hinge on.  This module evaluates v_s, the closed-form pointwise
bounds that force the blow-up (a quadratic lower bound on the squared
gradient norm and an affine-in-||W|| upper bound on the Laplacian), and a
ray-scan that certifies divergence numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .model import LossSpec


def v_s(spec: LossSpec, s: float, w=None) -> float:
    """||grad||_F^2 / s - laplacian, the divergence diagnostic."""
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    g, lap = model.evaluate(spec, model.weights(spec, w), ("grad", "laplacian"))
    return float(np.sum(g * g) / s - lap)


def ray_quadratic_coeff(spec: LossSpec) -> float:
    """Leading coefficient lam^2 - lam * lambda_c of the gradient lower bound.

    Strictly positive exactly when lam exceeds the critical ridge strength.
    """
    return spec.lam**2 - spec.lam * model.lambda_c(spec.net, spec.data)


def _bounds(spec: LossSpec):
    """The two pointwise bounds as functions of ||W||_F, with every factor
    that does not depend on W computed once."""
    act = spec.net.act
    an, bx, by = spec.net.a_norm, spec.data.x_bound, spec.data.y_bound
    cn = model.offset_norm(spec.net)
    quad = ray_quadratic_coeff(spec)
    lin = 2.0 * spec.lam * act.d1_sup * bx * an * (by + an * cn)
    sq = act.d1_sup**2 * bx**2 * an**2
    lip_bx, d2, bx2, ridge = act.lipschitz * bx, act.d2_sup, bx**2, spec.lam * spec.d

    def grad_bound(wn: float) -> float:
        return quad * wn**2 - lin * wn

    def laplacian_bound(wn: float) -> float:
        return spec.p * (sq + an * (by + an * (cn + lip_bx * wn)) * d2 * bx2 + ridge)

    return grad_bound, laplacian_bound


def _norm(spec: LossSpec, w) -> float:
    return float(np.linalg.norm(model.weights(spec, w)))


def grad_lower_bound(spec: LossSpec, w=None) -> float:
    """Pointwise lower bound on ||grad(W)||_F^2.

    (lam^2 - lam * lambda_c) * ||W||_F^2
        - 2 * lam * d1_sup * x_bound * ||a|| * (y_bound + ||a|| * c_norm) * ||W||_F

    where c_norm = sqrt(p) * |sigma(0)|.  Exact inequality: any violation at
    a sampled point indicates an implementation bug, not numerical noise.
    """
    return _bounds(spec)[0](_norm(spec, w))


def laplacian_upper_bound(spec: LossSpec, w=None) -> float:
    """Pointwise upper bound on the Hessian trace, affine in ||W||_F.

    p * [ d1_sup^2 x_bound^2 ||a||^2
          + ||a|| * (y_bound + ||a|| * (c_norm + lip * x_bound * ||W||_F)) * d2_sup * x_bound^2
          + lam * d ]
    """
    return _bounds(spec)[1](_norm(spec, w))


@dataclass(frozen=True)
class VillaniReport:
    """Result of a divergence ray-scan.

    ``diverging`` is true only if on every ray the v_s values over the last
    three radii are all positive and non-decreasing.  Bound-violation counts
    should always be zero; they exist to catch regressions.
    """

    lam: float
    s: float
    lambda_c: float
    ray_count: int
    radii: np.ndarray
    v_values: np.ndarray  # (ray_count, len(radii))
    grad_bound_violations: int
    laplacian_bound_violations: int
    diverging: bool

    def to_dict(self) -> dict:
        """The fields in order, ``lam`` as "lambda" and arrays as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"lambda" if name == "lam" else name:
                value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in values.items()}


def scan_radii(r_max: float) -> np.ndarray:
    """Geometric radii 1, 2, 4, ... capped with r_max as the last entry."""
    if not 10 <= r_max < math.inf:
        raise ValueError("r_max must be finite and at least 10")
    radii = [1.0]
    while radii[-1] * 2.0 < r_max:
        radii.append(radii[-1] * 2.0)
    radii.append(float(r_max))
    return np.array(radii)


def villani_scan(
    spec: LossSpec,
    s: float,
    ray_count: int = 16,
    r_max: float = 1e3,
    seed: int = 0,
) -> VillaniReport:
    """Evaluate v_s along random unit-Frobenius-norm rays at geometric radii.

    Directions are normalized Gaussian matrices (uniform on the Frobenius
    sphere), drawn from a seeded generator for reproducibility.  Every
    evaluation point also checks the two pointwise bounds.
    """
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    if ray_count < 8:
        raise ValueError("ray_count must be at least 8")
    radii = scan_radii(r_max)
    rng = np.random.default_rng(seed)
    grad_bound, laplacian_bound = _bounds(spec)
    v_values = np.empty((ray_count, len(radii)))
    grad_viol = 0
    lap_viol = 0
    for i in range(ray_count):
        direction = rng.standard_normal((spec.p, spec.d))
        direction /= np.linalg.norm(direction)
        for k, r in enumerate(radii):
            w = r * direction
            g, lap = model.evaluate(spec, w, ("grad", "laplacian"))
            # np.sum's and np.linalg.norm's own reductions, without their wrappers
            gsq = float(np.add.reduce(g * g, axis=None))
            v_values[i, k] = gsq / s - lap
            wn = math.sqrt(np.vdot(w, w))
            if gsq < grad_bound(wn):
                grad_viol += 1
            if lap > laplacian_bound(wn):
                lap_viol += 1
    tail = v_values[:, -3:]
    diverging = bool(
        np.all(tail > 0) and np.all(np.diff(tail, axis=1) >= 0)
    )
    return VillaniReport(
        lam=spec.lam,
        s=s,
        lambda_c=model.lambda_c(spec.net, spec.data),
        ray_count=ray_count,
        radii=radii,
        v_values=v_values,
        grad_bound_violations=grad_viol,
        laplacian_bound_violations=lap_viol,
        diverging=diverging,
    )
