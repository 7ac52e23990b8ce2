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

from .errors import NotPositiveDefinite
from .manifold import SpdMatrix, _readonly_copy, symmetrize
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

    @property
    def n_classes(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.centers[0].dim


def make_cluster_centers(
    n_classes: int, dim: int, separation: float, seed: int = 0
):
    """Centers whose pairwise geodesic distances all equal ``separation``.

    Log-space directions come from a seeded QR factorization, which
    needs ``dim >= n_classes``.
    """
    if n_classes < 1:
        raise ValueError(f"need at least one class, got {n_classes}")
    if dim < n_classes:
        raise ValueError(
            f"{n_classes} orthonormal log-directions do not fit in dimension {dim}"
        )
    if separation < 0.0:
        raise ValueError(f"separation must be nonnegative, got {separation}")
    rng = keyed_generator(seed, 0)
    # Factor a full square so existing centers stay fixed when classes
    # are added; only the first n_classes columns are used.
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    scale = separation / np.sqrt(2.0)
    return [
        SpdMatrix(np.diag(np.exp(scale * q[:, c]))) for c in range(n_classes)
    ]


def sample_cluster(center: SpdMatrix, count: int, spread: float, rng):
    """Congruence-noise samples around ``center``."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if spread < 0.0:
        raise ValueError(f"spread must be nonnegative, got {spread}")
    a = center.sqrt_array
    points = []
    for _ in range(count):
        for attempt in range(MAX_SAMPLE_RETRIES):
            noise = symmetrize(rng.normal(scale=spread, size=(center.dim,) * 2))
            candidate = symmetrize(a @ (np.eye(center.dim) + noise) @ a.T)
            try:
                points.append(SpdMatrix(candidate))
                break
            except NotPositiveDefinite:
                continue
        else:
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
