"""Unit tests for manifests, configs, the experiment loop, and reports."""

import json
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spdrose.classify
import spdrose.pipeline
import spdrose.stein
import spdrose.synthesis
from spdrose import (
    ConfigError,
    DatasetManifest,
    DimensionMismatch,
    EmptyData,
    EmptyInput,
    ExclusionExceedsClasses,
    ExperimentConfig,
    FeatureImage,
    ManifestEntry,
    NonConvergence,
    ParseError,
    SingleClass,
    SpdMatrix,
    StageFailure,
    config_from_mapping,
    degradation_study,
    divergence_matrix,
    grid_covariances,
    intensity_feature_map,
    load_config,
    load_dataset,
    load_manifest,
    make_benchmark,
    read_pgm,
    resolve_synthetic,
    run_experiment,
    save_dataset,
    save_manifest,
    save_report,
    train_ova_svm,
    training_ball,
    write_matrix,
    write_pgm,
)
from spdrose.cli import main

from conftest import random_spd


def quick_config(**overrides):
    base = dict(reps=1, train_per_class=8, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def benchmark_pool(n_classes=2, per_class=12, dim=3, seed=0):
    bench = make_benchmark(
        n_classes, max(dim, n_classes), per_class, 0, separation=2.5,
        spread=0.08, seed=seed,
    )
    return list(bench.train_points), np.asarray(bench.train_labels)


def test_manifest_entry_validation():
    with pytest.raises(ConfigError, match="label must be at least 0, got -1"):
        ManifestEntry("a.txt", -1)
    for path in (None, 7, b"a.txt"):
        with pytest.raises(ConfigError, match="entry path must be a string"):
            ManifestEntry(path, 0)


def test_manifest_invariants():
    entries = (ManifestEntry("a.txt", 0), ManifestEntry("b.txt", 1))
    manifest = DatasetManifest(entries=entries)
    assert [e.label for e in manifest.entries] == [0, 1]
    with pytest.raises(ConfigError):
        DatasetManifest(entries=())
    with pytest.raises(ConfigError):
        DatasetManifest(entries=(ManifestEntry("a.txt", 0), ManifestEntry("b.txt", 2)))
    with pytest.raises(ConfigError):
        DatasetManifest(entries=entries, feature_mode="intensity5")
    with pytest.raises(ConfigError, match="feature_mode"):
        DatasetManifest(entries=entries, feature_mode=["precomputed"])
    with pytest.raises(ConfigError):
        DatasetManifest(entries=entries, grid=(2, 2))
    with pytest.raises(ConfigError):
        DatasetManifest(entries=entries, downsample=0)
    image_entries = (
        ManifestEntry("a.pgm", 0),
        ManifestEntry("b.pgm", 1),
    )
    with pytest.raises(ConfigError):
        DatasetManifest(entries=image_entries, feature_mode="intensity5", grid=(0, 2))
    for grid in (0, False, [], "", "23", (2, 3, 1)):
        with pytest.raises(ConfigError, match="grid must be"):
            DatasetManifest(entries=image_entries, feature_mode="intensity5", grid=grid)
    ok = DatasetManifest(entries=image_entries, feature_mode="intensity5", grid=[2, 3])
    assert ok.grid == (2, 3)


# write_json sorts keys and indents by one space; a tuple is written as a list.
MANIFEST_BYTES = """{
 "downsample": 3,
 "entries": [
  {
   "label": 0,
   "path": "x/a.pgm"
  },
  {
   "label": 1,
   "path": "x/b.pgm"
  }
 ],
 "feature_mode": "gabor43",
 "format": "spdrose.dataset",
 "grid": [
  2,
  2
 ],
 "version": 1
}
"""


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest(
        entries=(
            ManifestEntry("x/a.pgm", 0),
            ManifestEntry("x/b.pgm", 1),
        ),
        feature_mode="gabor43",
        grid=(2, 2),
        downsample=3,
    )
    path = tmp_path / "manifest.json"
    save_manifest(path, manifest)
    assert path.read_text() == MANIFEST_BYTES
    loaded = load_manifest(path)
    assert loaded == manifest


def test_a_manifest_with_entry_kinds_loads_to_the_same_points(tmp_path, rng):
    # Older writers put a "kind" on every entry.  The feature mode decides
    # how entries are read, so the key is ignored like any other unknown
    # entry key, and the writers no longer emit it.
    matrices = save_dataset(tmp_path / "m", [random_spd(rng, 3) for _ in range(4)], [0, 1, 0, 1])
    images = tmp_path / "i"
    images.mkdir()
    for name in ("a.pgm", "b.pgm"):
        write_pgm(images / name, rng.uniform(size=(8, 8)))
    save_manifest(
        images / "manifest.json",
        DatasetManifest(
            (ManifestEntry("a.pgm", 0), ManifestEntry("b.pgm", 1)), "intensity5", grid=(2, 2)
        ),
    )
    for manifest, kind in ((Path(matrices), "matrix"), (images / "manifest.json", "gray-image")):
        payload = json.loads(manifest.read_text())
        assert all(set(entry) == {"path", "label"} for entry in payload["entries"])
        points, labels = load_dataset(manifest)
        for entry in payload["entries"]:
            entry["kind"] = kind
        manifest.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        old_points, old_labels = load_dataset(manifest)
        assert old_labels.tolist() == labels.tolist()
        assert [p.array.tobytes() for p in old_points] == [p.array.tobytes() for p in points]


def test_manifest_load_rejections(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_manifest(path)
    path.write_text(json.dumps({"format": "other", "version": 1, "entries": []}))
    with pytest.raises(ParseError):
        load_manifest(path)
    path.write_text(
        json.dumps({"format": "spdrose.dataset", "version": 9, "entries": []})
    )
    with pytest.raises(ParseError):
        load_manifest(path)
    # sparse labels surface as a parse error naming the file
    payload = {
        "format": "spdrose.dataset",
        "version": 1,
        "feature_mode": "precomputed",
        "grid": None,
        "downsample": 1,
        "entries": [{"path": "a.txt", "label": 0}, {"path": "b.txt", "label": 3}],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as info:
        load_manifest(path)
    assert "m.json" in str(info.value)
    # A version is an exact JSON integer; true and 1.0 both equal 1 in Python.
    payload["entries"][1]["label"] = 1
    for version in (True, 1.0):
        path.write_text(json.dumps({**payload, "version": version}))
        with pytest.raises(ParseError, match="unsupported version"):
            load_manifest(path)
    # An image entry's suffix must be its feature mode's, in any letter
    # case, before any image is read (none of these files exists).
    gray = {**payload, "feature_mode": "intensity5", "grid": [2, 2]}
    for name in ("b.png", "b.ppm", "b"):
        gray["entries"] = [
            {"path": "a.PGM", "label": 0},
            {"path": name, "label": 1},
        ]
        path.write_text(json.dumps(gray))
        with pytest.raises(ParseError, match=f"need a .pgm image, got {name}"):
            load_manifest(path)
    gray["entries"][1]["path"] = "b.pgm"
    path.write_text(json.dumps(gray))
    assert [e.path for e in load_manifest(path).entries] == ["a.PGM", "b.pgm"]


@pytest.mark.parametrize(
    "field, value",
    [("grid", [2.9, 1]), ("downsample", 1.7), ("label", 1.6), ("label", True)],
)
def test_manifest_load_rejects_non_integers(tmp_path, field, value):
    # int() would truncate these to grid (2, 1), downsample 1 and label 1.
    payload = {
        "format": "spdrose.dataset",
        "version": 1,
        "feature_mode": "intensity5",
        "grid": [2, 1],
        "downsample": 1,
        "entries": [
            {"path": "a.pgm", "label": 0},
            {"path": "b.pgm", "label": 1},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert load_manifest(path).grid == (2, 1)
    if field == "label":
        payload["entries"][1]["label"] = value
    else:
        payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="must be an integer"):
        load_manifest(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("path", None),
        ("path", 7),
        ("label", None),
        ("label", "1"),
        ("feature_mode", None),
        ("grid", 0),
        ("grid", False),
        ("grid", []),
        ("grid", ""),
        ("downsample", "2"),
        ("feature_mode", ["precomputed"]),
    ],
)
def test_manifest_load_rejects_wrong_types(tmp_path, field, value):
    # Each value is reported as the manifest holds it, never through str(),
    # and a falsy grid is an error, not the 1x1 grid.
    payload = {
        "format": "spdrose.dataset",
        "version": 1,
        "feature_mode": "precomputed",
        "grid": None,
        "downsample": 1,
        "entries": [
            {"path": "a.txt", "label": 0},
            {"path": "b.txt", "label": 1},
        ],
    }
    if field in ("path", "label"):
        payload["entries"][1][field] = value
    else:
        payload[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: ")
    assert str(info.value).endswith(repr(value))


def test_dataset_round_trip(tmp_path, rng):
    points = [random_spd(rng, 3) for _ in range(6)]
    labels = [0, 0, 1, 1, 2, 2]
    manifest_path = save_dataset(tmp_path / "data", points, labels)
    back_points, back_labels = load_dataset(manifest_path)
    assert back_labels.tolist() == labels
    for a, b in zip(points, back_points):
        assert np.array_equal(a.array, b.array)


@pytest.mark.parametrize("labels", [[0, 1, 1.5], np.array([0.6, 0.2, 1.9]), [0, 1, -1]])
def test_save_dataset_rejects_a_label_before_writing(tmp_path, rng, labels):
    # An int64 cast used to truncate 0.6, 0.2 and 1.9 to the labels 0, 0, 1.
    with pytest.raises(ConfigError, match="^label must be"):
        save_dataset(tmp_path / "data", [random_spd(rng, 2) for _ in range(3)], labels)
    assert not (tmp_path / "data").exists()


def test_load_dataset_mixed_dimensions(tmp_path, rng):
    d = tmp_path / "data"
    d.mkdir()
    write_matrix(d / "a.txt", random_spd(rng, 2))
    write_matrix(d / "b.txt", random_spd(rng, 3))
    save_manifest(
        d / "manifest.json",
        DatasetManifest(
            entries=(ManifestEntry("a.txt", 0), ManifestEntry("b.txt", 1))
        ),
    )
    with pytest.raises(DimensionMismatch):
        load_dataset(d / "manifest.json")


def test_load_dataset_image_grid(tmp_path):
    rng = np.random.default_rng(8)
    d = tmp_path / "imgs"
    d.mkdir()
    pixels = [rng.uniform(size=(8, 8)) for _ in range(2)]
    write_pgm(d / "a.pgm", pixels[0])
    write_pgm(d / "b.pgm", pixels[1])
    save_manifest(
        d / "manifest.json",
        DatasetManifest(
            entries=(
                ManifestEntry("a.pgm", 0),
                ManifestEntry("b.pgm", 1),
            ),
            feature_mode="intensity5",
            grid=(2, 2),
        ),
    )
    points, labels = load_dataset(d / "manifest.json")
    assert len(points) == 8
    assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert all(p.dim == 5 for p in points)
    # first descriptor is the top-left cell of the first image
    features = intensity_feature_map(read_pgm(d / "a.pgm"))
    corner = FeatureImage(features.values[:4, :4], features.channel_tags)
    expected = grid_covariances(corner, 1, 1)[0]
    assert np.array_equal(points[0].array, expected.array)


def test_load_dataset_corrupt_image(tmp_path):
    d = tmp_path / "imgs"
    d.mkdir()
    (d / "bad.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    save_manifest(
        d / "manifest.json",
        DatasetManifest(
            entries=(
                ManifestEntry("bad.pgm", 0),
                ManifestEntry("bad.pgm", 1),
            ),
            feature_mode="intensity5",
        ),
    )
    with pytest.raises(ParseError) as info:
        load_dataset(d / "manifest.json")
    assert "bad.pgm" in str(info.value)


def test_load_dataset_downsample(tmp_path):
    from spdrose import box_downsample, grid_covariances

    rng = np.random.default_rng(5)
    d = tmp_path / "imgs"
    d.mkdir()
    pixels = rng.uniform(size=(16, 16))
    write_pgm(d / "a.pgm", pixels)
    write_pgm(d / "b.pgm", pixels.T)
    save_manifest(
        d / "manifest.json",
        DatasetManifest(
            entries=(
                ManifestEntry("a.pgm", 0),
                ManifestEntry("b.pgm", 1),
            ),
            feature_mode="intensity5",
            grid=(2, 2),
            downsample=2,
        ),
    )
    points, _ = load_dataset(d / "manifest.json")
    shrunk = box_downsample(read_pgm(d / "a.pgm").pixels, 2)
    from spdrose import GrayImage

    expected = grid_covariances(intensity_feature_map(GrayImage(shrunk)), 2, 2)
    assert np.array_equal(points[0].array, expected[0].array)


def test_config_normalization_and_defaults():
    config = ExperimentConfig(sigma=0.5, k_policy="n", synthetic="m")
    assert config.sigma == (0.5,)
    assert config.k_policy == ("n",)
    assert config.synthetic == ("m",)
    listed = ExperimentConfig(sigma=[0.5, 1.0], synthetic=[0, 10, "n"])
    assert listed.sigma == (0.5, 1.0)
    assert listed.synthetic == (0, 10, "n")


def test_config_validation():
    cases = [
        dict(sigma=-1.0),
        dict(sigma=[]),
        dict(k_policy="4n"),
        dict(synthetic="q"),
        dict(synthetic=-3),
        dict(reps=0),
        dict(train_per_class=1),
        dict(exponent_mode="inverse"),
        dict(psd_policy="warn"),
        dict(direction_mode="spiral"),
        dict(regularization=0.0),
        dict(knn_neighbors=0),
        dict(validation_fraction=1.0),
        dict(sigma=float("inf")),
        dict(regularization=float("inf")),
        dict(synthetic=1.5),
        dict(synthetic=[0, 2.5]),
        dict(reps=1.5),
        dict(reps=float("nan")),
        dict(reps=True),
        dict(train_per_class=float("nan")),
        dict(knn_neighbors=1.5),
        dict(seed=1.5),
        dict(sigma="0.5"),
        dict(sigma=[0.5, True]),
        dict(regularization=True),
        dict(validation_fraction="0.2"),
        dict(validation_fraction=None),
        dict(name=3),
        dict(name=None),
    ]
    for kwargs in cases:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


def test_config_rejects_a_policy_that_is_not_a_string():
    # An unhashable policy used to raise a bare TypeError at the lookup.
    for value in ([["2n"]], [{"n": 1}], [2]):
        with pytest.raises(ConfigError, match="k_policy must be one of"):
            ExperimentConfig(k_policy=value)
    with pytest.raises(ConfigError, match="k_policy"):
        config_from_mapping({"k_policy": [["2n"]]})


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError) as info:
        config_from_mapping({"seed": 1, "sgima": 0.5})
    assert "sgima" in str(info.value)
    with pytest.raises(ConfigError):
        config_from_mapping([1, 2, 3])


def test_config_file_round_trip(tmp_path):
    config = ExperimentConfig(sigma=[0.5, 1.0], reps=3, synthetic=["m", 0])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)))
    assert load_config(path) == config
    path.write_text("{oops")
    with pytest.raises(ConfigError):
        load_config(path)
    for token in ("NaN", "Infinity", "-Infinity"):
        path.write_text('{"sigma": %s}' % token)
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(path)


def test_resolve_synthetic():
    assert resolve_synthetic(0, 5, 8) == 0
    assert resolve_synthetic(17, 5, 8) == 17
    assert resolve_synthetic("n", 5, 8) == 40
    assert resolve_synthetic("m", 5, 8) == 8


def test_run_experiment_record_contents():
    points, labels = benchmark_pool()
    config = quick_config(reps=2)
    report = run_experiment(points, labels, config)
    assert len(report.records) == 2
    for rep, record in enumerate(report.records):
        assert record.rep == rep
        assert record.arm == "ROSE"
        assert record.excluded == ()
        assert record.sigma == 0.5
        assert record.synthetic == 0
        assert record.k == 2 * 16
        assert record.pool_size == 16
        assert 0.0 <= record.accuracy <= 1.0
        assert record.knn_accuracy is not None
        assert record.class_labels == (0, 1)
        for cls_index, row in enumerate(record.confusion):
            assert sum(row) == 4
    assert report.mean_knn_accuracy is not None


def test_run_experiment_deterministic_bytes(tmp_path):
    points, labels = benchmark_pool()
    config = quick_config(reps=2)
    a = run_experiment(points, labels, config).to_json()
    b = run_experiment(points, labels, config).to_json()
    assert a == b
    path = tmp_path / "report.json"
    save_report(path, run_experiment(points, labels, config))
    assert path.read_text() == a + "\n"


def test_report_statistics_recomputable():
    points, labels = benchmark_pool()
    report = run_experiment(points, labels, quick_config(reps=3))
    payload = json.loads(report.to_json())
    accuracies = [float(r["accuracy"]) for r in payload["records"]]
    knn = [float(r["knn_accuracy"]) for r in payload["records"]]
    assert payload["excluded_class_counts"] == [0]
    assert payload["means"] == {"ROSE": [repr(report.mean_accuracy)]}
    assert abs(float(payload["means"]["ROSE"][0]) - np.mean(accuracies)) <= 1e-12
    assert abs(float(payload["mean_knn_accuracy"]) - np.mean(knn)) <= 1e-12


def test_run_experiment_roses_mode():
    points, labels = benchmark_pool()
    config = quick_config(synthetic=6)
    report = run_experiment(points, labels, config)
    record = report.records[0]
    assert record.arm == "ROSES"
    assert record.synthetic == 6
    assert record.pool_size == 16 + 6
    assert record.k == 2 * 16


def test_run_experiment_symbolic_synthetic():
    points, labels = benchmark_pool()
    report = run_experiment(points, labels, quick_config(synthetic="m"))
    assert report.records[0].synthetic == 8
    assert report.records[0].pool_size == 16 + 8


def test_run_experiment_candidate_selection_carves_validation():
    points, labels = benchmark_pool()
    config = quick_config(sigma=[0.5, 1.0], synthetic=[0, 4], train_per_class=10)
    report = run_experiment(points, labels, config)
    record = report.records[0]
    assert record.sigma in (0.5, 1.0)
    assert record.synthetic in (0, 4)
    # one fold point per class is held out of the fitted pool
    assert record.pool_size == (record.synthetic + 16)
    assert record.k == 2 * 16


def test_run_experiment_guards():
    points, labels = benchmark_pool()
    with pytest.raises(EmptyData):
        run_experiment([], np.array([], dtype=int), quick_config())
    with pytest.raises(EmptyData):
        run_experiment([], [], quick_config())
    with pytest.raises(SingleClass):
        run_experiment(points[:5], np.zeros(5, dtype=int), quick_config())
    with pytest.raises(ConfigError):
        run_experiment(points, labels, quick_config(train_per_class=12))


@pytest.mark.parametrize("point_count, label_count", [(21, 24), (24, 21)])
def test_points_and_labels_must_have_the_same_length(point_count, label_count):
    # 21 points with 24 labels died with an IndexError; 24 points with 21
    # labels ran on the first 21 points.
    points, labels = benchmark_pool(n_classes=2, per_class=12)
    points, labels = points[:point_count], labels[:label_count]
    message = f"{point_count} points but {label_count} labels"
    with pytest.raises(DimensionMismatch, match=message):
        run_experiment(points, labels, quick_config())
    with pytest.raises(DimensionMismatch, match=message):
        degradation_study(points, labels, quick_config(), excluded_class_counts=(0,))


@pytest.mark.parametrize("sigma, voters", [(0.5, 16), ([0.5, 1.0], 14)])
def test_knn_neighbors_bounded_by_the_baseline_training_points(monkeypatch, sigma, voters):
    # Two classes of 8 training points; comparing two candidates holds
    # out int(0.2 * 8) = 1 point per class for validation.
    points, labels = benchmark_pool()
    report = run_experiment(points, labels, quick_config(sigma=sigma, knn_neighbors=voters))
    assert report.records[0].knn_accuracy is not None
    # One neighbour more is rejected before any repetition starts.
    monkeypatch.setattr(spdrose.pipeline, "_split_rep", None)
    with pytest.raises(ConfigError, match=f"exceeds the {voters} training points"):
        run_experiment(points, labels, quick_config(sigma=sigma, knn_neighbors=voters + 1))


@pytest.mark.parametrize(
    "module, name, stage",
    [
        (spdrose.pipeline, "generate_synthetic", "synthesize"),
        (spdrose.pipeline, "build_projection_model", "build"),
        (spdrose.pipeline, "embed_batch", "embed"),
        (spdrose.classify, "train_ova_svm", "train"),
        (spdrose.classify, "predict", "train"),
        (spdrose.classify, "knn_stein", "baseline"),
    ],
    ids=["synthesize", "build", "embed", "train", "predict", "baseline"],
)
def test_stage_failures_are_tagged(monkeypatch, module, name, stage):
    points, labels = benchmark_pool()
    cause = EmptyInput(f"{name} detonated")

    def explode(*args, **kwargs):
        raise cause

    monkeypatch.setattr(module, name, explode)
    with pytest.raises(StageFailure) as info:
        run_experiment(points, labels, quick_config(synthetic=4))
    err = info.value
    assert err.repetition == 0
    assert err.stage == stage
    assert err.__cause__ is cause
    assert f"repetition 0, stage {stage}: {name} detonated" == str(err)


def test_timing_section_is_optional():
    points, labels = benchmark_pool()
    report = run_experiment(points, labels, quick_config())
    bare = json.loads(report.to_json())
    timed = json.loads(report.to_json(include_timing=True))
    assert "stage_seconds" not in bare["records"][0]
    stages = timed["records"][0]["stage_seconds"]
    assert set(stages) == {"synthesize", "build", "embed", "train"}
    assert all(v >= 0.0 for v in stages.values())


def count_divergences(monkeypatch):
    """Count ``stein_divergence`` calls per unordered pair of point objects."""
    calls = Counter()
    seen = []  # keeps every point alive, so no id is reused during the run
    original = spdrose.stein.stein_divergence

    def counting(x, y):
        seen.append((x, y))
        calls[frozenset((id(x), id(y)))] += 1
        return original(x, y)

    monkeypatch.setattr(spdrose.stein, "stein_divergence", counting)
    return calls


def test_run_experiment_computes_each_pair_once(monkeypatch):
    points, labels = benchmark_pool()
    calls = count_divergences(monkeypatch)
    config = quick_config(reps=3, sigma=(0.5, 1.0), synthetic=4)
    run_experiment(points, labels, config)
    assert calls
    assert max(calls.values()) == 1


def test_each_repetition_reads_its_real_pairs_by_position(monkeypatch):
    # One store serves the whole experiment.  Every run reads the block of
    # its training then test (or validation) rows against its training
    # columns by position; each unordered real pair is computed at most
    # once, and only pairs some run reads are computed.
    points, labels = benchmark_pool()
    real = {id(p) for p in points}
    calls, reads, stores = Counter(), [], set()
    block = spdrose.pipeline._DivergenceStore.block
    divergence = spdrose.stein.stein_divergence

    def recording_block(store, rows, cols):
        stores.add(store)
        out = block(store, rows, cols)
        reads.append((list(rows), list(cols), out))
        return out

    def counting(x, y):
        if id(x) in real and id(y) in real:
            calls[frozenset((id(x), id(y)))] += 1
        return divergence(x, y)

    monkeypatch.setattr(spdrose.pipeline._DivergenceStore, "block", recording_block)
    monkeypatch.setattr(spdrose.stein, "stein_divergence", counting)
    run_experiment(points, labels, quick_config(reps=3, sigma=(0.5, 1.0), synthetic=4))
    # Two validation candidates and the final run per repetition.
    assert len(reads) == 9 and len(stores) == 1
    read_pairs = {
        frozenset((id(points[i]), id(points[j])))
        for rows, cols, _ in reads for i in rows for j in cols if i != j
    }
    assert max(calls.values()) == 1
    assert set(calls) == read_pairs
    for rows, cols, out in reads:
        assert rows[:len(cols)] == cols
        loop = [[divergence(points[i], points[j]) for j in cols] for i in rows]
        assert not out.flags.writeable
        assert np.array_equal(out, np.array(loop))
    # One table row per position that served as a training column.
    (store,) = stores
    columns = {j for _, cols, _ in reads for j in cols}
    assert set(store._row) == columns < set(range(len(points)))


_STORE_POSITIONS = st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True)


@st.composite
def _store_plans(draw):
    columns = draw(_STORE_POSITIONS)
    cols = st.lists(st.sampled_from(columns), min_size=1, max_size=len(columns), unique=True)
    return columns, draw(st.lists(st.tuples(_STORE_POSITIONS, cols), min_size=1, max_size=6))


@settings(max_examples=40)
# Column 0 meets column 2 in the square block and point 1 in the
# rectangular one; the read takes both from one row.
@example(plan=([2, 0], [([1, 2, 0], [0, 2])]))
@given(plan=_store_plans())
def test_property_store_computes_each_pair_once_in_any_read_order(plan):
    # Construction computes each unordered pair with at least one point
    # among the columns exactly once and no other pair; blocks read in any
    # order equal the direct divergence matrix, and another column is a
    # KeyError.
    columns, reads = plan
    points, _ = benchmark_pool(per_class=4)
    divergence = spdrose.stein.stein_divergence
    calls = Counter()

    def counting(x, y):
        calls[frozenset((id(x), id(y)))] += 1
        return divergence(x, y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spdrose.stein, "stein_divergence", counting)
        store = spdrose.pipeline._DivergenceStore(points, columns)
    assert max(calls.values()) == 1
    positions = range(len(points))
    assert set(calls) == {
        frozenset((id(points[i]), id(points[j]))) for i in columns for j in positions if i != j
    }
    for rows, cols in reads:
        block = store.block(rows, cols)
        expected = divergence_matrix([points[i] for i in rows], [points[j] for j in cols])
        assert not block.flags.writeable
        assert np.array_equal(block, expected)
    for j in set(positions) - set(columns):
        with pytest.raises(KeyError):
            store.block(columns, [j])


def test_training_ball_runs_once_per_repetition(monkeypatch):
    # The validation candidates and the final run build on the same pool.
    points, labels = benchmark_pool()
    karcher = spdrose.synthesis.karcher_mean_info
    pools = []

    def counting(pool, *args, **kwargs):
        pools.append(list(pool))
        return karcher(pool, *args, **kwargs)

    monkeypatch.setattr(spdrose.synthesis, "karcher_mean_info", counting)
    run_experiment(points, labels, quick_config(reps=2, sigma=(0.5, 1.0), synthetic=4))
    assert len(pools) == 2
    assert pools[0] != pools[1]


def test_a_stalled_training_ball_fails_the_synthesize_stage(monkeypatch):
    points, labels = benchmark_pool()
    karcher = spdrose.synthesis.karcher_mean_info

    def stalled(pool, tol, max_iter):
        return karcher(pool, tol=1e-300, max_iter=1)

    monkeypatch.setattr(spdrose.synthesis, "karcher_mean_info", stalled)
    with pytest.raises(StageFailure) as info:
        run_experiment(points, labels, quick_config(sigma=(0.5, 1.0), synthetic=4))
    assert info.value.repetition == 0
    assert info.value.stage == "synthesize"
    assert isinstance(info.value.__cause__, NonConvergence)


@pytest.mark.parametrize("study", ["experiment", "degradation"])
def test_shared_divergences_and_balls_leave_reports_unchanged(monkeypatch, study):
    # Reports equal those of runs that compute every block and ball afresh.
    points, labels = benchmark_pool(n_classes=3, per_class=10)
    config = quick_config(reps=2, train_per_class=6, sigma=(0.5, 1.0), synthetic=4)

    def run():
        if study == "experiment":
            return run_experiment(points, labels, config).to_json()
        return degradation_study(
            points, labels, replace(config, sigma=0.5), excluded_class_counts=(0, 1)
        ).to_json()

    shared = run()

    def fresh_block(store, rows, cols):
        out = divergence_matrix([points[i] for i in rows], [points[j] for j in cols])
        out.setflags(write=False)
        return out

    def fresh_ball(store, positions):
        return training_ball([points[i] for i in positions])

    monkeypatch.setattr(spdrose.pipeline._DivergenceStore, "block", fresh_block)
    monkeypatch.setattr(spdrose.pipeline._DivergenceStore, "ball", fresh_ball)
    assert run() == shared


@settings(max_examples=60)
@given(data=st.data())
def test_property_draw_partitions_positions_per_class(data):
    labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=30)))
    positions = sorted(data.draw(st.sets(st.integers(0, labels.size - 1))))
    wanted = data.draw(st.lists(st.integers(0, 6), min_size=4, max_size=4))
    seed = data.draw(st.integers(0, 2**32 - 1))

    def count(cls, size):
        return min(wanted[cls], size)

    drawn, rest = spdrose.pipeline._draw(
        labels, positions, count, np.random.default_rng(seed)
    )
    assert sorted(drawn + rest) == positions
    subset = labels[positions].tolist()
    for cls in set(subset):
        assert labels[drawn].tolist().count(cls) == count(cls, subset.count(cls))
    for part in (drawn, rest):
        keys = [(labels[i], i) for i in part]
        assert keys == sorted(keys)


def test_degradation_study_computes_each_pair_once(monkeypatch):
    points, labels = benchmark_pool(n_classes=3, per_class=10)
    calls = count_divergences(monkeypatch)
    degradation_study(
        points, labels, quick_config(), excluded_class_counts=(0, 1),
        synthetic_budget=4,
    )
    assert calls
    assert max(calls.values()) == 1


def test_degradation_structure_and_c0_equality():
    points, labels = benchmark_pool()
    config = quick_config()
    study = degradation_study(
        points, labels, config, excluded_class_counts=(0, 1), synthetic_budget=5
    )
    assert study.excluded_class_counts == (0, 1)
    assert max(r.synthetic for r in study.records) == 5
    # per arm: C(2,0) + C(2,1) = 3 records
    assert len(study.records) == 6
    for arm, count, expected in (
        ("ROSE", 0, 1),
        ("ROSE", 1, 2),
        ("ROSES", 0, 1),
        ("ROSES", 1, 2),
    ):
        matching = [
            r for r in study.records if r.arm == arm and len(r.excluded) == count
        ]
        assert len(matching) == expected

    plain_c0 = next(
        r for r in study.records if r.arm == "ROSE" and r.excluded == ()
    )
    baseline = run_experiment(points, labels, config)
    assert plain_c0.arm == baseline.records[0].arm
    assert plain_c0.accuracy == baseline.records[0].accuracy
    assert plain_c0.confusion == baseline.records[0].confusion

    augmented_c0 = next(
        r for r in study.records if r.arm == "ROSES" and r.excluded == ()
    )
    augmented_baseline = run_experiment(
        points, labels, replace(config, synthetic=(5,))
    )
    assert augmented_c0.arm == augmented_baseline.records[0].arm
    assert augmented_c0.accuracy == augmented_baseline.records[0].accuracy


def test_degradation_means_and_payload():
    points, labels = benchmark_pool()
    config = quick_config()
    study = degradation_study(
        points, labels, config, excluded_class_counts=(0, 1), synthetic_budget=4
    )
    payload = json.loads(study.to_json())
    assert payload["format"] == "spdrose.report"
    assert set(payload["means"]) == {"ROSE", "ROSES"}
    for arm in ("ROSE", "ROSES"):
        parsed = [float(s) for s in payload["means"][arm]]
        assert parsed == study.arm_means(arm)
    again = degradation_study(
        points, labels, config, excluded_class_counts=(0, 1), synthetic_budget=4
    )
    assert study.to_json() == again.to_json()


def test_both_studies_write_one_report_format():
    points, labels = benchmark_pool()
    run = json.loads(run_experiment(points, labels, quick_config()).to_json())
    study = json.loads(degradation_study(
        points, labels, quick_config(), excluded_class_counts=(0, 1), synthetic_budget=4
    ).to_json())
    assert set(run) == set(study) == {
        "format", "version", "config", "records", "excluded_class_counts", "means",
        "mean_knn_accuracy",
    }
    assert run["format"] == study["format"] == "spdrose.report"
    assert run["version"] == study["version"] == 2
    assert set(run["records"][0]) == set(study["records"][0]) | {"knn_accuracy"}
    assert run["mean_knn_accuracy"] is not None and study["mean_knn_accuracy"] is None


def test_a_zero_budget_study_reads_consistently():
    # Its augmented arm is "ROSES" with no synthetic point in any record,
    # so it repeats the plain arm's runs; no field says otherwise.
    points, labels = benchmark_pool()
    study = degradation_study(
        points, labels, quick_config(), excluded_class_counts=(0, 1), synthetic_budget=0
    )
    assert max(r.synthetic for r in study.records) == 0
    plain = [r for r in study.records if r.arm == "ROSE"]
    augmented = [r for r in study.records if r.arm == "ROSES"]
    assert len(plain) == len(augmented) == 3
    for a, b in zip(plain, augmented):
        assert a.synthetic == b.synthetic == 0
        assert a.excluded == b.excluded
        assert replace(a, arm="ROSES", stage_seconds=()) == replace(b, stage_seconds=())
    assert study.arm_means("ROSE") == study.arm_means("ROSES")
    for record in json.loads(study.to_json())["records"]:
        assert "mode" not in record
        assert record["synthetic"] == 0


def test_run_experiment_arm_follows_its_candidates():
    points, labels = benchmark_pool()
    for synthetic, arm in ((0, "ROSE"), ("m", "ROSES"), ((0, 4), "ROSES")):
        report = run_experiment(points, labels, quick_config(synthetic=synthetic))
        assert report.records[0].arm == arm
        assert report.arms == (arm,)


def test_degradation_counts_run_once_each_and_in_order():
    points, labels = benchmark_pool(n_classes=3, per_class=10)
    config = quick_config(train_per_class=6)
    twice = degradation_study(points, labels, config, excluded_class_counts=(1, 0, 1))
    once = degradation_study(points, labels, config, excluded_class_counts=(1, 0))
    assert twice.excluded_class_counts == (1, 0)
    assert twice.to_json() == once.to_json()
    with pytest.raises(ConfigError, match="excluded class counts must not be empty"):
        degradation_study(points, labels, config, excluded_class_counts=())


def _train_svm(points, labels, config):
    return train_ova_svm(np.arange(2.0 * len(labels)).reshape(-1, 2), labels)


@pytest.mark.parametrize("train", [run_experiment, degradation_study, _train_svm],
                         ids=["run_experiment", "degradation_study", "train_ova_svm"])
def test_float_labels_are_rejected_not_truncated(train):
    # Labels plus 0.6 used to be truncated back to the classes (0, 1).
    points, labels = benchmark_pool()
    for bad in (labels + 0.6, labels.astype(float), labels.astype(bool)):
        with pytest.raises(ConfigError, match="^labels must be integers, got "):
            train(points, bad, quick_config())


def test_degradation_exclusion_bounds():
    points, labels = benchmark_pool()
    with pytest.raises(ExclusionExceedsClasses):
        degradation_study(
            points, labels, quick_config(), excluded_class_counts=(2,)
        )
    # A negative count is a rejected value, not a data error.
    with pytest.raises(ConfigError, match="excluded class count must be at least 0, got -1"):
        degradation_study(
            points, labels, quick_config(), excluded_class_counts=(-1,)
        )


@pytest.mark.parametrize(
    "arguments",
    [
        dict(excluded_class_counts=(0.9,)),
        dict(excluded_class_counts=(0, True)),
        dict(synthetic_budget=2.7),
        dict(synthetic_budget=True),
    ],
)
def test_degradation_rejects_non_integer_counts(arguments):
    # These were truncated with int(): (0.9,) ran as count 0, 2.7 as 2.
    points, labels = benchmark_pool()
    with pytest.raises(ConfigError, match="must be an integer"):
        degradation_study(points, labels, quick_config(), **arguments)


def test_jl_check_smoke(rng, tmp_path, capsys):
    points = [random_spd(rng, 3) for _ in range(10)]
    manifest = save_dataset(tmp_path / "pool", points, [0] * len(points))
    argv = ["jl-check", "--data", str(manifest), "--k", "32", "--epsilon", "0.49"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 32
    assert report["pair_count"] == 45
    x = random_spd(rng, 3)
    manifest = save_dataset(tmp_path / "degenerate", [x] * 6, [0] * 6)
    argv = ["jl-check", "--data", str(manifest), "--k", "16", "--epsilon", "0.3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["fraction_within"] == 1.0
