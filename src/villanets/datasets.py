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
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import activations
from .model import Dataset


def gen_sine(d: int, n: int, noise_sd: float, seed) -> Dataset:
    """x ~ Uniform[0,1)^d, y = sin(pi * ||x||^2 / d) + N(0, noise_sd^2)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    rng = np.random.default_rng(seed)   # a Generator is returned as is
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
    rng = np.random.default_rng(seed)
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


def _teacher_split(a, w, n: int, noise_sd: float, rng: np.random.Generator) -> Dataset:
    """n uniform inputs, labelled by the sigmoid teacher (a, w) plus noise."""
    act = activations.sigmoid(1.0)
    xs = rng.random((n, w.shape[1]))
    ys = a @ act(w @ xs.T)
    if noise_sd > 0:
        ys = ys + noise_sd * rng.standard_normal(n)
    return Dataset(xs, ys)


def check_keys(obj: dict, what: str, known, required=()) -> None:
    """Refuse a key of ``obj`` outside ``known``, which would otherwise be
    ignored and its setting silently take the default, and a ``required``
    key that ``obj`` leaves out; a non-dict ``obj`` is a TypeError."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object, not {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known keys: {sorted(known)}")
    missing = sorted(key for key in required if key not in obj)
    if missing:
        raise ValueError(f"missing {what} keys {missing}")


def as_number(value, key: str, kind=float):
    """``value`` as a ``kind``, ``float`` or ``int``: a bool, a string or any
    other non-number is a TypeError, and a fraction for ``int`` (not ``1e4``)
    a ValueError, so no value is read as 1, parsed or truncated in silence."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{key} must be {noun}, not {value!r}")
    if kind is int and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return kind(value)


def numbers_as_declared(obj) -> None:
    """Pass each field of the dataclass ``obj`` that is declared ``int`` or
    ``float`` through :func:`as_number`, in place; a ``float | None``
    field whose default is None also takes None."""
    for f in fields(obj):
        kind = {"int": int, "float": float}.get(f.type.removesuffix(" | None"))
        if kind is None:
            continue
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            object.__setattr__(obj, f.name, as_number(value, f.name, kind))


# Each recipe kind's params and their defaults: the one place that names
# them.  None marks a param with no default, which the recipe must give.
RECIPE_PARAMS = {"sine": {"d": 20, "noise_sd": 0.5},
                 "teacher": {"d": 20, "p_teacher": 5, "noise_sd": 0.1},
                 "file": {"path": None}}


@dataclass(frozen=True)
class DataRecipe:
    """Declarative description of a train/test pair.

    kind: 'sine', 'teacher', or 'file'.
    params: generator arguments, the ``RECIPE_PARAMS`` of the kind, each a
        number of its default's type; one left out takes its default there,
        and an unknown one is refused.
    corruption: {'fraction': f in [0,1], 'scale': s}, numbers; applied to the
        training labels only.  Test draws always come from the clean recipe.
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
        numbers_as_declared(self)
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be at least 1")
        defaults = RECIPE_PARAMS[self.kind]
        check_keys(self.params, f"{self.kind} params", defaults,
                   [key for key, value in defaults.items() if value is None])
        check_keys(self.corruption, "corruption", ("fraction", "scale"))
        # a param with no default (a file's path) is no number
        object.__setattr__(self, "params", {
            key: value if defaults[key] is None else as_number(value, key, type(defaults[key]))
            for key, value in self.params.items()})
        object.__setattr__(self, "corruption", {
            key: as_number(value, f"corruption {key}") for key, value in self.corruption.items()})
        if not 0.0 <= self.corruption.get("fraction", 0.0) <= 1.0:
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
        params = {**RECIPE_PARAMS[self.kind], **self.params}
        if self.kind == "sine":
            train = gen_sine(params["d"], self.n_train, params["noise_sd"], train_rng)
            test = gen_sine(params["d"], self.n_test, params["noise_sd"], test_rng)
        elif self.kind == "teacher":
            # one teacher for both splits; only inputs and noise are redrawn
            a, w = sample_teacher(params["d"], params["p_teacher"], shared_rng)
            train = _teacher_split(a, w, self.n_train, params["noise_sd"], train_rng)
            test = _teacher_split(a, w, self.n_test, params["noise_sd"], test_rng)
        else:
            full = load_csv(params["path"])
            if self.n_train + self.n_test > full.n:
                raise ValueError("file dataset too small for requested split")
            train = Dataset(full.xs[: self.n_train], full.ys[: self.n_train])
            test = Dataset(
                full.xs[self.n_train : self.n_train + self.n_test],
                full.ys[self.n_train : self.n_train + self.n_test],
            )
        frac = self.corruption.get("fraction", 0.0)
        if frac > 0.0:
            train = corrupt_labels(train, frac, self.corruption.get("scale", 0.0), corrupt_rng)
        return train, test


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
