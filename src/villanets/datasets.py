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
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import activations, rules
from .model import Dataset
from .rules import check_keys


def gen_sine(d: int, n: int, noise_sd: float, seed) -> Dataset:
    """x ~ Uniform[0,1)^d, y = sin(pi * ||x||^2 / d) + N(0, noise_sd^2)."""
    d, noise_sd = rules.at_least(d, "d", 1, int), rules.at_least(noise_sd, "noise_sd", 0)
    rng = np.random.default_rng(seed)   # a Generator is returned as is
    xs = rng.random((n, d))
    ys = np.sin(np.pi * np.sum(xs * xs, axis=1) / d)
    if noise_sd > 0:
        ys = ys + noise_sd * rng.standard_normal(n)
    return Dataset(xs, ys)


def sample_teacher(d: int, p_teacher: int, rng: np.random.Generator):
    """Hidden teacher parameters: a_i ~ N(0,1)/sqrt(p), W entries ~ N(0,1)."""
    d, p_teacher = rules.at_least(d, "d", 1, int), rules.at_least(p_teacher, "p_teacher", 1, int)
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
    fraction = rules.fraction(fraction, "fraction")
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
        number of its default's type, an int at least 1 and a float at least
        0; one left out takes its default there, and an unknown one is refused.
    corruption: {'fraction': f in [0,1], 'scale': s}, numbers, each 0 if left
        out; applied to the training labels only (test draws stay clean).

    Both are given as mappings (or pairs) and kept, every default filled in,
    as sorted tuples of (key, value) pairs that :attr:`param_map` and
    :attr:`corruption_map` read as read-only mappings.  So a recipe holds each
    value it draws with, and two spellings of it compare and hash equal.
    """

    kind: str
    n_train: int
    n_test: int
    seed: int
    params: tuple = ()
    corruption: tuple = ()

    def __post_init__(self):
        if self.kind not in RECIPE_PARAMS:
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        for key, least in (("n_train", 1), ("n_test", 1), ("seed", 0)):
            object.__setattr__(self, key, rules.at_least(getattr(self, key), key, least, int))
        defaults = RECIPE_PARAMS[self.kind]
        rule = {"fraction": rules.fraction, "scale": rules.finite}     # of each corruption key
        params, corruption = (dict(pairs) if isinstance(pairs, tuple) else pairs
                              for pairs in (self.params, self.corruption))
        check_keys(params, f"{self.kind} params", defaults,
                   [key for key, value in defaults.items() if value is None])
        check_keys(corruption, "corruption", rule)
        # every default is filled in here and read by value everywhere else;
        # a param with no default (a file's path) is no number
        object.__setattr__(self, "params", tuple(sorted(
            (key, value if defaults[key] is None else rules.at_least(
                value, key, 1 if type(defaults[key]) is int else 0, type(defaults[key])))
            for key, value in {**defaults, **params}.items())))
        object.__setattr__(self, "corruption", tuple(   # both keys, each 0 if left out
            (key, check(corruption.get(key, 0.0), f"corruption {key}"))
            for key, check in rule.items()))

    @property
    def param_map(self) -> MappingProxyType:
        return MappingProxyType(dict(self.params))

    @property
    def corruption_map(self) -> MappingProxyType:
        return MappingProxyType(dict(self.corruption))

    def to_dict(self) -> dict:
        """The recipe as a recipe file spells it: params and corruption as objects."""
        return {**asdict(self), "params": dict(self.params), "corruption": dict(self.corruption)}

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
        params, corruption = self.param_map, self.corruption_map
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
        if corruption["fraction"] > 0.0:
            train = corrupt_labels(train, corruption["fraction"], corruption["scale"], corrupt_rng)
        return train, test


def load_csv(path) -> Dataset:
    """A header line naming the columns, then one row per sample: its
    features, then its label."""
    with open(path) as f:
        columns = len(f.readline().split(","))
        rows = [line for line in f if line.strip()]
    if columns < 2:
        raise ValueError(f"dataset CSV {path} needs at least one feature column and a label")
    if not rows:
        raise ValueError(f"dataset CSV {path} has a header but no data rows")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    if table.shape[1] != columns:
        raise ValueError(f"dataset CSV {path} has rows of {table.shape[1]} values "
                         f"under a header of {columns} columns")
    try:
        return Dataset(table[:, :-1], table[:, -1])
    except ValueError as err:  # here only a non-finite entry
        raise ValueError(f"dataset CSV {path}: {err}") from None


def content_hash(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.xs).tobytes())
    h.update(np.ascontiguousarray(ds.ys).tobytes())
    return h.hexdigest()
