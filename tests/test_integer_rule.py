"""Every checked integer goes through ``errors.require_integer``.

At each site a bool, a float and a value below the site's bound raise
``ConfigError`` naming the field, and a numpy integer is stored as the
Python ``int`` the rule returns, so the object's JSON writer accepts it.
The command line's exit code 2 for each rejected flag or config value
is checked in ``test_cli``.
"""

import json

import numpy as np
import pytest

from spdrose import (
    ConfigError,
    DatasetManifest,
    ExperimentConfig,
    FeatureImage,
    KernelParams,
    ManifestEntry,
    ProjectionModel,
    SynthesisConfig,
    TrainedClassifier,
    box_downsample,
    build_projection_model,
    degradation_study,
    divergence_matrix,
    grid_covariances,
    karcher_mean_info,
    keyed_generator,
    knn_stein,
    make_benchmark,
    make_cluster_centers,
    run_experiment,
    sample_cluster,
    save_classifier,
    save_manifest,
    save_projection_model,
    save_report,
)
from spdrose.errors import require_integer


@pytest.fixture(scope="module")
def pool():
    bench = make_benchmark(2, 3, 8, 0, separation=2.5, spread=0.08, seed=0)
    return list(bench.train_points), np.asarray(bench.train_labels)


@pytest.fixture(scope="module")
def model(pool):
    points = pool[0][:6]
    return build_projection_model(
        points, divergence_matrix(points, points), k=3, params=KernelParams(0.5)
    )


def _image_manifest(**fields):
    return DatasetManifest((ManifestEntry("a.pgm", 0),), "intensity5", **fields)


def _config(**fields):
    return ExperimentConfig(**{"reps": 1, "train_per_class": 3, "seed": 3, **fields})


def _study(pool, **arguments):
    return degradation_study(*pool, _config(), **arguments)


def _model_with(model, **fields):
    base = dict(reference_points=model.reference_points, kernel_params=model.kernel_params,
                weights=model.weights, t=model.t, exponent_mode=model.exponent_mode,
                seed=model.seed)
    return ProjectionModel(**{**base, **fields})


def _classifier(first_label):
    return TrainedClassifier(
        classes=(first_label, 1), weights=np.ones((2, 2)), biases=np.zeros(2),
        feature_mean=np.zeros(2), feature_scale=np.ones(2), regularization=0.1,
    )


def _features():
    return FeatureImage(np.random.default_rng(0).uniform(size=(8, 8, 2)), ("a", "b"))


def _sample(count):
    return sample_cluster(make_cluster_centers(1, 3, 0.0)[0], count, 0.1, keyed_generator(0))


def _write_manifest(manifest, tmp_path):
    save_manifest(tmp_path / "manifest.json", manifest)


def _write_report(config_or_report, tmp_path, pool):
    report = config_or_report
    if isinstance(report, ExperimentConfig):
        report = run_experiment(*pool, report)
    save_report(tmp_path / "report.json", report)


# (id, field named in the message, least, valid value, make(value, pool, model),
#  stored(result), write(result, tmp_path, pool) or None)
SITES = [
    ("manifest-label", "label", 0, 0, lambda v, pool, model: ManifestEntry("a.txt", v),
     lambda e: e.label,
     lambda e, tmp_path, pool: _write_manifest(DatasetManifest((e,)), tmp_path)),
    ("manifest-grid", "grid size", 1, 2, lambda v, pool, model: _image_manifest(grid=(v, 2)),
     lambda m: m.grid[0], lambda m, tmp_path, pool: _write_manifest(m, tmp_path)),
    ("manifest-downsample", "downsample", 1, 2,
     lambda v, pool, model: _image_manifest(downsample=v),
     lambda m: m.downsample, lambda m, tmp_path, pool: _write_manifest(m, tmp_path)),
    ("config-synthetic", "synthetic count", 0, 0,
     lambda v, pool, model: _config(synthetic=v), lambda c: c.synthetic[0], _write_report),
    ("config-seed", "seed", None, 3, lambda v, pool, model: _config(seed=v),
     lambda c: c.seed, _write_report),
    ("config-reps", "reps", 1, 1, lambda v, pool, model: _config(reps=v),
     lambda c: c.reps, _write_report),
    ("config-train-per-class", "train_per_class", 2, 3,
     lambda v, pool, model: _config(train_per_class=v), lambda c: c.train_per_class,
     _write_report),
    ("config-knn-neighbors", "knn_neighbors", 1, 1,
     lambda v, pool, model: _config(knn_neighbors=v), lambda c: c.knn_neighbors,
     _write_report),
    ("degradation-count", "excluded class count", 0, 0,
     lambda v, pool, model: _study(pool, excluded_class_counts=(v,)),
     lambda r: r.excluded_class_counts[0], _write_report),
    ("degradation-budget", "synthetic budget", 0, 0,
     lambda v, pool, model: _study(pool, excluded_class_counts=(0,), synthetic_budget=v),
     lambda r: r.synthetic_budget, _write_report),
    ("synthesis-count", "count", 0, 2, lambda v, pool, model: SynthesisConfig(count=v),
     lambda c: c.count, None),
    ("synthesis-seed", "seed", None, 2, lambda v, pool, model: SynthesisConfig(seed=v),
     lambda c: c.seed, None),
    ("karcher-max-iter", "max_iter", 0, 5,
     lambda v, pool, model: karcher_mean_info(pool[0][:4], max_iter=v), None, None),
    ("build-model-t", "t", 1, 2,
     lambda v, pool, model: build_projection_model(
         model.reference_points, divergence_matrix(model.reference_points,
                                                   model.reference_points),
         k=3, params=model.kernel_params, t=v),
     lambda m: m.t, lambda m, tmp_path, pool: save_projection_model(tmp_path / "m.json", m)),
    ("model-t", "t", None, 2, lambda v, pool, model: _model_with(model, t=v),
     lambda m: m.t, lambda m, tmp_path, pool: save_projection_model(tmp_path / "m.json", m)),
    ("model-seed", "seed", None, 7, lambda v, pool, model: _model_with(model, seed=v),
     lambda m: m.seed,
     lambda m, tmp_path, pool: save_projection_model(tmp_path / "m.json", m)),
    ("classifier-label", "class label", None, 0, lambda v, pool, model: _classifier(v),
     lambda c: c.classes[0],
     lambda c, tmp_path, pool: save_classifier(tmp_path / "c.json", c)),
    # Sites that use the integer and store nothing.
    ("cluster-centers", "n_classes", 1, 2,
     lambda v, pool, model: make_cluster_centers(v, 3, 1.0), None, None),
    ("sample-cluster", "count", 0, 2, lambda v, pool, model: _sample(v), None, None),
    ("benchmark-train", "train_per_class", 0, 2,
     lambda v, pool, model: make_benchmark(2, 3, v, 1), None, None),
    ("benchmark-test", "test_per_class", 0, 1,
     lambda v, pool, model: make_benchmark(2, 3, 2, v), None, None),
    ("grid-rows", "rows", 1, 2,
     lambda v, pool, model: grid_covariances(_features(), v, 2), None, None),
    ("grid-cols", "cols", 1, 2,
     lambda v, pool, model: grid_covariances(_features(), 2, v), None, None),
    ("downsample-factor", "factor", 1, 2,
     lambda v, pool, model: box_downsample(np.zeros((4, 4)), v), None, None),
    ("knn-neighbors", "n_neighbors", 1, 2,
     lambda v, pool, model: knn_stein([0, 1, 0], v, np.zeros((1, 3))), None, None),
]
SITE_IDS = [site[0] for site in SITES]

REJECTED = [
    pytest.param(site, value, id=f"{site[0]}-{case}")
    for site in SITES
    for case, value in (("bool", True), ("float", 1.5), ("below", None))
    if case != "below" or site[2] is not None
]


@pytest.mark.parametrize("site, value", REJECTED)
def test_a_rejected_integer_raises_config_error_naming_the_field(pool, model, site, value):
    _, name, least, _, make, _, _ = site
    if value is None:
        value = least - 1
        message = f"{name} must be at least {least}, got {value}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ConfigError) as info:
        make(value, pool, model)
    assert str(info.value) == message


@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
def test_a_numpy_integer_is_stored_as_an_int_that_json_writes(pool, model, tmp_path, site):
    _, _, _, valid, make, stored, write = site
    result = make(np.int64(valid), pool, model)
    if stored is not None:
        assert type(stored(result)) is int and stored(result) == valid
    if write is not None:
        write(result, tmp_path, pool)
        [written] = tmp_path.iterdir()
        json.loads(written.read_text())


def test_require_integer_returns_the_int_and_checks_the_bound():
    assert type(require_integer(np.int64(3), "x")) is int
    assert require_integer(np.uint8(3), "x", least=3) == 3
    assert require_integer(-5, "x") == -5
    with pytest.raises(ConfigError, match="^x must be at least 4, got 3$"):
        require_integer(np.int32(3), "x", least=4)
    with pytest.raises(ConfigError, match="^x must be an integer, got "):
        require_integer(np.bool_(False), "x")
