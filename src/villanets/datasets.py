"""Seeded synthetic regression data generators and label corruption.

Two families: a sine-of-squared-norm target on uniform inputs, and a
teacher-student setup where labels come from a hidden width-p sigmoid net.
A heavy-tailed corruption operator additively perturbs a chosen fraction of
labels with scaled standard-Cauchy draws.  Train/test/corruption randomness
is split into disjoint child streams of one seed, so regenerating any part
is reproducible and independent of the others.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import activations
from .model import Dataset


def gen_sine(d: int, n: int, noise_sd: float, seed) -> Dataset:
    """x ~ Uniform[0,1)^d, y = sin(pi * ||x||^2 / d) + N(0, noise_sd^2)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    rng = _as_rng(seed)
    xs = rng.random((n, d))
    ys = np.sin(np.pi * np.sum(xs * xs, axis=1) / d)
    if noise_sd > 0:
        ys = ys + noise_sd * rng.standard_normal(n)
    return Dataset(xs, ys)


def sample_teacher(d: int, p_teacher: int, rng: np.random.Generator):
    """Hidden teacher parameters: a_i ~ N(0,1)/sqrt(p), W entries ~ N(0,1)."""
    if d < 1 or p_teacher < 1:
        raise ValueError("d and p_teacher must be at least 1")
    a = rng.standard_normal(p_teacher) / math.sqrt(p_teacher)
    w = rng.standard_normal((p_teacher, d))
    return a, w


def corrupt_labels(ds: Dataset, fraction: float, scale: float, seed) -> Dataset:
    """Additively corrupt a floor(fraction * n)-subset of labels by
    scale * xi with xi standard Cauchy (inverse CDF: tan(pi * (u - 1/2))).

    The subset is the first floor(fraction * n) entries of a seeded
    Fisher-Yates permutation (run fully, so the subset size is exact), and
    each position carries its own Cauchy draw.  For a fixed seed the
    corruptions are therefore nested across fractions: raising the fraction
    only corrupts additional labels, it never re-rolls the shared ones.
    That common-random-numbers coupling is what makes fraction ordering
    comparisons well-posed.  Bounds are re-certified on the returned dataset.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = _as_rng(seed)
    n = ds.n
    k = int(math.floor(fraction * n))
    ys = ds.ys.copy()
    perm = _fisher_yates(n, rng)
    u = rng.random(n)
    if k > 0 and scale != 0.0:
        idx = perm[:k]
        ys[idx] = ys[idx] + scale * np.tan(np.pi * (u[:k] - 0.5))
    return Dataset(ds.xs, ys)


def _fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    idx = np.arange(n)
    for i in range(n - 1):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _teacher_split(a, w, d: int, n: int, noise_sd: float, rng: np.random.Generator) -> Dataset:
    """n uniform inputs, labelled by the sigmoid teacher (a, w) plus noise."""
    act = activations.sigmoid(1.0)
    xs = rng.random((n, d))
    ys = a @ act(w @ xs.T)
    if noise_sd > 0:
        ys = ys + noise_sd * rng.standard_normal(n)
    return Dataset(xs, ys)


# the params each recipe kind reads
RECIPE_PARAMS = {"sine": ("d", "noise_sd"), "teacher": ("d", "p_teacher", "noise_sd"),
                 "file": ("path",)}


@dataclass(frozen=True)
class DataRecipe:
    """Declarative description of a train/test pair.

    kind: 'sine', 'teacher', or 'file'.
    params: generator arguments, the ``RECIPE_PARAMS`` of the kind.
    corruption: {'fraction': f in [0,1], 'scale': s}; applied to the training
        labels only.  Test draws always come from the clean recipe.
    """

    kind: str
    n_train: int
    n_test: int
    seed: int
    params: dict = field(default_factory=dict)
    corruption: dict = field(default_factory=lambda: {"fraction": 0.0, "scale": 0.0})

    def __post_init__(self):
        if self.kind not in RECIPE_PARAMS:
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be at least 1")
        frac = self.corruption.get("fraction", 0.0)
        if not 0.0 <= frac <= 1.0:
            raise ValueError("corruption fraction must be in [0, 1]")

    def streams(self):
        """Disjoint child generators: (shared, train, test, corruption).

        The shared stream holds randomness common to both splits (the hidden
        teacher); train/test draws never overlap it or each other.
        """
        children = np.random.SeedSequence(self.seed).spawn(4)
        return tuple(np.random.default_rng(c) for c in children)

    def realize(self) -> tuple[Dataset, Dataset]:
        """Materialize (train, test); corruption touches only train labels."""
        shared_rng, train_rng, test_rng, corrupt_rng = self.streams()
        if self.kind == "sine":
            d = int(self.params.get("d", 20))
            noise_sd = float(self.params.get("noise_sd", 0.5))
            train = gen_sine(d, self.n_train, noise_sd, train_rng)
            test = gen_sine(d, self.n_test, noise_sd, test_rng)
        elif self.kind == "teacher":
            d = int(self.params.get("d", 20))
            p_teacher = int(self.params.get("p_teacher", 5))
            noise_sd = float(self.params.get("noise_sd", 0.1))
            # one teacher for both splits; only inputs and noise are redrawn
            a, w = sample_teacher(d, p_teacher, shared_rng)
            train = _teacher_split(a, w, d, self.n_train, noise_sd, train_rng)
            test = _teacher_split(a, w, d, self.n_test, noise_sd, test_rng)
        else:
            full = load_csv(self.params["path"])
            if self.n_train + self.n_test > full.n:
                raise ValueError("file dataset too small for requested split")
            train = Dataset(full.xs[: self.n_train], full.ys[: self.n_train])
            test = Dataset(
                full.xs[self.n_train : self.n_train + self.n_test],
                full.ys[self.n_train : self.n_train + self.n_test],
            )
        frac = float(self.corruption.get("fraction", 0.0))
        scale = float(self.corruption.get("scale", 0.0))
        if frac > 0.0:
            train = corrupt_labels(train, frac, scale, corrupt_rng)
        return train, test

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(obj: dict) -> "DataRecipe":
        return DataRecipe(
            kind=obj["kind"],
            n_train=int(obj["n_train"]),
            n_test=int(obj["n_test"]),
            seed=int(obj["seed"]),
            params=dict(obj.get("params", {})),
            corruption=dict(obj.get("corruption", {"fraction": 0.0, "scale": 0.0})),
        )


def save_csv(ds: Dataset, path) -> None:
    """CSV with d feature columns followed by the label column."""
    table = np.column_stack([ds.xs, ds.ys])
    header = ",".join([f"x{j}" for j in range(ds.d)] + ["y"])
    np.savetxt(path, table, delimiter=",", header=header, comments="")


def load_csv(path) -> Dataset:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] < 2:
        raise ValueError("dataset CSV needs at least one feature column and a label")
    return Dataset(table[:, :-1], table[:, -1])


def content_hash(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.xs).tobytes())
    h.update(np.ascontiguousarray(ds.ys).tobytes())
    return h.hexdigest()


def write_metadata(recipe: DataRecipe, ds: Dataset, path) -> None:
    """Sidecar JSON: recipe, seed, certified bounds, and a content hash."""
    payload = {
        "recipe": recipe.to_dict(),
        "seed": recipe.seed,
        "B_x": ds.x_bound,
        "B_y": ds.y_bound,
        "hash": content_hash(ds),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
