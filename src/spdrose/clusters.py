"""Seeded SPD cluster benchmarks with controlled geometry.

Class centers are commuting (diagonal in a shared basis) matrices built
from orthonormal log-space directions, so every pair of centers sits at
exactly the requested geodesic distance.  Points are congruence-noise
samples ``A (I + E) A^T`` around each center, with ``E`` a small
symmetric Gaussian, which keeps samples SPD for moderate spread and
concentrates them at geodesic radius roughly ``spread * dim``.

Sampling is keyed per class, so adding classes or growing counts never
reshuffles previously generated points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, require_integer, require_real
from .manifold import SpdMatrix, _readonly_copy, _spd_or_errors, spd_stack, symmetrize
from .seeding import keyed_generator

MAX_SAMPLE_RETRIES = 100


@dataclass(frozen=True, eq=False)
class Benchmark:
    """Labeled train/test splits plus the generating centers."""

    centers: tuple
    train_points: tuple
    train_labels: np.ndarray
    test_points: tuple
    test_labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(self.centers))
        object.__setattr__(self, "train_points", tuple(self.train_points))
        object.__setattr__(self, "train_labels", _readonly_copy(self.train_labels, np.int64))
        object.__setattr__(self, "test_points", tuple(self.test_points))
        object.__setattr__(self, "test_labels", _readonly_copy(self.test_labels, np.int64))


def make_cluster_centers(
    n_classes: int, dim: int, separation: float, seed: int = 0
):
    """Centers whose pairwise geodesic distances all equal ``separation``.

    Log-space directions come from a seeded QR factorization, which
    needs ``dim >= n_classes``.
    """
    n_classes = require_integer(n_classes, "n_classes", least=1)
    dim = require_integer(dim, "dim", least=n_classes)
    separation = require_real(separation, "separation", nonnegative=True)
    rng = keyed_generator(seed, 0)
    # Factor a full square so existing centers stay fixed when classes
    # are added; only the first n_classes columns are used.
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scale = separation / np.sqrt(2.0)
    return spd_stack([np.diag(np.exp(scale * q[:, c])) for c in range(n_classes)])


def sample_cluster(center: SpdMatrix, count: int, spread: float, rng):
    """Congruence-noise samples around ``center``.

    A candidate that is not positive definite is skipped, and
    ``MAX_SAMPLE_RETRIES`` rejections in a row raise.  Each round draws the
    noise of the points still missing in one call and checks it as one
    stack; points and ``rng`` end as a point-by-point loop leaves them.
    """
    count = require_integer(count, "count", least=0)
    spread = require_real(spread, "spread", nonnegative=True)
    a = center.sqrt_array
    points, rejected = [], 0
    while len(points) < count:
        # Neither a full count nor the retry limit can end the loop in fewer draws.
        size = min(count - len(points), MAX_SAMPLE_RETRIES - rejected)
        noise = symmetrize(rng.normal(scale=spread, size=(size, *a.shape)))
        for point in _spd_or_errors(symmetrize(a @ (np.eye(len(a)) + noise) @ a.T)):
            if isinstance(point, SpdMatrix):
                points.append(point)
                rejected = 0
            elif isinstance(point, NotPositiveDefinite):
                rejected += 1
            else:
                raise point
        if rejected == MAX_SAMPLE_RETRIES:
            raise NotPositiveDefinite(
                f"no SPD sample after {MAX_SAMPLE_RETRIES} draws; "
                f"spread {spread} is too large"
            )
    return points


def make_benchmark(
    n_classes: int,
    dim: int,
    train_per_class: int,
    test_per_class: int,
    separation: float = 1.5,
    spread: float = 0.1,
    seed: int = 0,
) -> Benchmark:
    """Equidistant labeled clusters split into train and test."""
    train_per_class = require_integer(train_per_class, "train_per_class", least=0)
    test_per_class = require_integer(test_per_class, "test_per_class", least=0)
    centers = make_cluster_centers(n_classes, dim, separation, seed)
    train_points, train_labels = [], []
    test_points, test_labels = [], []
    for c, center in enumerate(centers):
        rng = keyed_generator(seed, c + 1)
        drawn = sample_cluster(center, train_per_class + test_per_class, spread, rng)
        train_points.extend(drawn[:train_per_class])
        train_labels.extend([c] * train_per_class)
        test_points.extend(drawn[train_per_class:])
        test_labels.extend([c] * test_per_class)
    return Benchmark(
        centers=tuple(centers),
        train_points=tuple(train_points),
        train_labels=np.array(train_labels, dtype=np.int64),
        test_points=tuple(test_points),
        test_labels=np.array(test_labels, dtype=np.int64),
    )
