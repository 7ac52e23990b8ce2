"""Unit tests for the seeded equidistant-cluster benchmark generator."""

import numpy as np
import pytest

from spdrose import (
    NotPositiveDefinite,
    geodesic_distance,
    make_benchmark,
    make_cluster_centers,
    sample_cluster,
)
from spdrose.seeding import keyed_generator


def test_centers_are_exactly_equidistant():
    for n_classes, dim, sep in ((2, 3, 1.5), (5, 6, 3.0), (3, 3, 0.7)):
        centers = make_cluster_centers(n_classes, dim, sep, seed=4)
        for i in range(n_classes):
            for j in range(i + 1, n_classes):
                assert geodesic_distance(centers[i], centers[j]) == pytest.approx(
                    sep, rel=1e-10
                )


def test_centers_validation():
    with pytest.raises(ValueError):
        make_cluster_centers(0, 3, 1.0)
    with pytest.raises(ValueError):
        make_cluster_centers(4, 3, 1.0)
    with pytest.raises(ValueError):
        make_cluster_centers(2, 3, -1.0)


def test_centers_deterministic():
    a = make_cluster_centers(3, 4, 2.0, seed=11)
    b = make_cluster_centers(3, 4, 2.0, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x.array, y.array)
    c = make_cluster_centers(3, 4, 2.0, seed=12)
    assert not np.array_equal(a[0].array, c[0].array)


def test_sample_cluster_concentrates_near_center():
    centers = make_cluster_centers(2, 4, 2.0, seed=1)
    rng = keyed_generator(99)
    points = sample_cluster(centers[0], 40, 0.05, rng)
    assert len(points) == 40
    radii = [geodesic_distance(centers[0], p) for p in points]
    assert max(radii) < 1.0
    assert np.mean(radii) > 0.0


def test_sample_cluster_rejects_excess_spread():
    # At dimension 8 a huge-noise draw is essentially never positive
    # definite, so the retry budget runs out.
    centers = make_cluster_centers(1, 8, 0.0, seed=0)
    with pytest.raises(NotPositiveDefinite):
        sample_cluster(centers[0], 2, 50.0, keyed_generator(0))
    small = make_cluster_centers(1, 3, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_cluster(small[0], -1, 0.1, keyed_generator(0))
    with pytest.raises(ValueError):
        sample_cluster(small[0], 1, -0.1, keyed_generator(0))


def test_benchmark_shapes_and_labels():
    bench = make_benchmark(3, 4, train_per_class=5, test_per_class=7, seed=2)
    assert len(bench.centers) == 3
    assert bench.centers[0].dim == 4
    assert len(bench.train_points) == 15
    assert len(bench.test_points) == 21
    assert np.array_equal(np.bincount(bench.train_labels), [5, 5, 5])
    assert np.array_equal(np.bincount(bench.test_labels), [7, 7, 7])


def test_benchmark_deterministic_and_class_keyed():
    a = make_benchmark(2, 3, 4, 4, seed=6)
    b = make_benchmark(2, 3, 4, 4, seed=6)
    for x, y in zip(a.train_points, b.train_points):
        assert np.array_equal(x.array, y.array)
    # class 0 draws do not depend on how many classes follow
    wider = make_benchmark(3, 3, 4, 4, seed=6)
    for x, y in zip(a.train_points[:4], wider.train_points[:4]):
        assert np.array_equal(x.array, y.array)


def test_benchmark_separation_dominates_spread():
    bench = make_benchmark(2, 6, 10, 10, separation=3.0, spread=0.08, seed=5)
    inter = geodesic_distance(bench.centers[0], bench.centers[1])
    spreads = [
        geodesic_distance(bench.centers[label], point)
        for point, label in zip(bench.train_points, bench.train_labels)
    ]
    assert inter >= 3.0 * max(spreads)
