"""Unit tests for the seeded equidistant-cluster benchmark generator."""

import numpy as np
import pytest

from spdrose import (
    NotPositiveDefinite,
    SpdMatrix,
    geodesic_distance,
    make_benchmark,
    make_cluster_centers,
    sample_cluster,
    symmetrize,
)
from spdrose.clusters import MAX_SAMPLE_RETRIES
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


def _sample_point_by_point(center, count, spread, rng):
    """The rejection loop that ``sample_cluster`` batches, one candidate at a time.

    Returns the points, or the error raised, and the number of rejected
    candidates.
    """
    a = center.sqrt_array
    points, rejected = [], 0
    for _ in range(count):
        for _ in range(MAX_SAMPLE_RETRIES):
            noise = symmetrize(rng.normal(scale=spread, size=(center.dim,) * 2))
            try:
                points.append(SpdMatrix(symmetrize(a @ (np.eye(center.dim) + noise) @ a.T)))
                break
            except NotPositiveDefinite:
                rejected += 1
        else:
            return NotPositiveDefinite(
                f"no SPD sample after {MAX_SAMPLE_RETRIES} draws; "
                f"spread {spread} is too large"
            ), rejected
    return points, rejected


@pytest.mark.parametrize("spread", [0.25, 0.5, 0.7])
def test_sample_cluster_equals_the_point_by_point_loop(spread):
    # The degradation workload's geometry (5 classes, d = 6): spread 0.25
    # rejects a few candidates, 0.5 runs of them across rounds, and 0.7
    # runs out of retries part way through the points.
    rejected = 0
    for c, center in enumerate(make_cluster_centers(5, 6, 2.0, seed=20260814)[:3]):
        batched, reference = keyed_generator(1, c + 1), keyed_generator(1, c + 1)
        expected, count = _sample_point_by_point(center, 150, spread, reference)
        rejected += count
        if isinstance(expected, Exception):
            with pytest.raises(NotPositiveDefinite, match=f"^{expected}$"):
                sample_cluster(center, 150, spread, batched)
        else:
            points = sample_cluster(center, 150, spread, batched)
            assert [p.array.tobytes() for p in points] == [
                p.array.tobytes() for p in expected
            ]
        # The caller's generator is left where the loop leaves it.
        assert np.array_equal(batched.random(4), reference.random(4))
    assert rejected > 0


def test_sample_cluster_rejects_excess_spread():
    # At dimension 8 a huge-noise draw is essentially never positive
    # definite, so the retry budget runs out.
    centers = make_cluster_centers(1, 8, 0.0, seed=0)
    with pytest.raises(
        NotPositiveDefinite, match=r"^no SPD sample after 100 draws; spread 50\.0 is too large$"
    ):
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
