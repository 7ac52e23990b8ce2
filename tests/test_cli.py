"""End-to-end tests for the command line interface.

Commands run in-process through ``spdrose.cli.main`` so exit codes and
output can be checked without spawning interpreters.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import spdrose.classify
import spdrose.pipeline
from spdrose import (
    DatasetManifest,
    ExperimentConfig,
    ManifestEntry,
    divergence_matrix,
    fit_model,
    load_dataset,
    make_benchmark,
    save_classifier,
    save_dataset,
    save_manifest,
    save_projection_model,
    write_pgm,
    write_ppm,
)
from spdrose.cli import main

from conftest import blas_thread_env, random_spd


def save_benchmark_dataset(tmp_path, name, n_classes=2, per_class=12, seed=0):
    bench = make_benchmark(
        n_classes, 3, per_class, 0, separation=2.5, spread=0.08, seed=seed
    )
    return save_dataset(
        tmp_path / name, list(bench.train_points), list(bench.train_labels)
    )


def write_config(tmp_path, **overrides):
    payload = dict(reps=2, train_per_class=8, seed=3)
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_extract_gray_grid(tmp_path, capsys):
    rng = np.random.default_rng(4)
    for name in ("a.pgm", "b.pgm"):
        write_pgm(tmp_path / name, rng.uniform(size=(10, 10)))
    code = main(
        [
            "extract",
            str(tmp_path / "a.pgm"),
            str(tmp_path / "b.pgm"),
            "--features", "intensity5",
            "--rows", "2", "--cols", "2",
            "--labels", "0,1",
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 0
    assert "8 descriptor(s)" in capsys.readouterr().out
    points, labels = load_dataset(tmp_path / "data" / "manifest.json")
    assert len(points) == 8
    assert all(p.dim == 5 for p in points)
    assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_extract_color_whole_image(tmp_path, capsys):
    rng = np.random.default_rng(9)
    write_ppm(tmp_path / "c.ppm", rng.uniform(size=(12, 12, 3)))
    code = main(
        [
            "extract", str(tmp_path / "c.ppm"),
            "--features", "color11",
            "--rows", "1", "--cols", "1",
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 0
    points, _ = load_dataset(tmp_path / "data" / "manifest.json")
    assert len(points) == 1
    assert points[0].dim == 11


def test_extract_suffix_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(2)
    write_ppm(tmp_path / "c.ppm", rng.uniform(size=(10, 10, 3)))
    code = main(
        [
            "extract", str(tmp_path / "c.ppm"),
            "--features", "intensity5",
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_extract_label_count_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(2)
    write_pgm(tmp_path / "a.pgm", rng.uniform(size=(10, 10)))
    code = main(
        [
            "extract", str(tmp_path / "a.pgm"),
            "--labels", "0,1",
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 2
    assert "1 image(s)" in capsys.readouterr().err


@pytest.mark.parametrize("labels", ["0,2", "0,-1"])
def test_extract_rejected_labels_write_nothing(tmp_path, capsys, labels):
    # Labels must be dense and nonnegative; each image gives 4 cells.
    rng = np.random.default_rng(2)
    for name in ("a.pgm", "b.pgm"):
        write_pgm(tmp_path / name, rng.uniform(size=(10, 10)))
    out = tmp_path / "data"
    code = main(
        [
            "extract", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
            "--labels", labels,
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "features, kind, writer, shape",
    [
        ("intensity5", "gray-image", write_pgm, (13, 11)),
        ("color11", "color-image", write_ppm, (13, 11, 3)),
    ],
)
def test_extract_matches_image_manifest(
    tmp_path, capsys, monkeypatch, features, kind, writer, shape
):
    rng = np.random.default_rng(6)
    names = [f"{i}.{'pgm' if kind == 'gray-image' else 'ppm'}" for i in range(2)]
    for name in names:
        writer(tmp_path / name, rng.uniform(size=shape))
    save_manifest(
        tmp_path / "manifest.json",
        DatasetManifest(
            entries=(ManifestEntry(names[0], 0), ManifestEntry(names[1], 1)),
            feature_mode=features,
            grid=(2, 2),
            downsample=2,
        ),
    )
    # Both paths look the feature map up in the pipeline's table per image.
    suffix, feature_map = spdrose.pipeline.FEATURE_MODES[features]
    images = []

    def counting(image):
        images.append(image)
        return feature_map(image)

    monkeypatch.setitem(spdrose.pipeline.FEATURE_MODES, features, (suffix, counting))
    expected, expected_labels = load_dataset(tmp_path / "manifest.json")
    code = main(
        [
            "extract", *(str(tmp_path / name) for name in names),
            "--features", features,
            "--rows", "2", "--cols", "2", "--downsample", "2",
            "--labels", "0,1",
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 0
    assert len(images) == 4
    written = tmp_path / "data" / "manifest.json"
    assert '"kind"' not in written.read_text()
    points, labels = load_dataset(written)
    assert len(points) == 8
    assert [p.array.tobytes() for p in points] == [p.array.tobytes() for p in expected]
    assert labels.tolist() == expected_labels.tolist()


def test_synth_writes_unlabeled_points(tmp_path, capsys):
    rng = np.random.default_rng(11)
    manifest = save_dataset(
        tmp_path / "base", [random_spd(rng, 3) for _ in range(6)], [0, 0, 0, 1, 1, 1]
    )
    code = main(
        [
            "synth", "--data", str(manifest),
            "--out", str(tmp_path / "aug"),
            "--count", "5", "--seed", "3",
        ]
    )
    assert code == 0
    assert "5 synthetic point(s)" in capsys.readouterr().out
    points, labels = load_dataset(tmp_path / "aug" / "manifest.json")
    assert len(points) == 5
    assert labels.tolist() == [0] * 5


@pytest.mark.parametrize("count", ["0", "-2"])
def test_synth_count_below_one_exits_2_before_reading_data(tmp_path, capsys, count):
    # The dataset path does not exist: reading it would exit 3 instead.
    missing = str(tmp_path / "absent" / "manifest.json")
    code = main(["synth", "--data", missing, "--out", str(tmp_path / "aug"), "--count", count])
    assert code == 2
    err = capsys.readouterr().err
    assert "--count" in err and "at least 1" in err
    assert not (tmp_path / "aug").exists()


@pytest.mark.parametrize("out", ["same", "dot-segment", "symlink"])
def test_synth_into_its_own_data_directory_exits_2_and_writes_nothing(
    tmp_path, capsys, out
):
    rng = np.random.default_rng(11)
    manifest = save_dataset(
        tmp_path / "base", [random_spd(rng, 3) for _ in range(6)], [0, 0, 0, 1, 1, 1]
    )
    (tmp_path / "link").symlink_to(tmp_path / "base")
    out_dir = {
        "same": tmp_path / "base",
        "dot-segment": tmp_path / "base" / ".." / "base",
        "symlink": tmp_path / "link",
    }[out]
    before = {p.name: p.read_bytes() for p in (tmp_path / "base").iterdir()}
    code = main(["synth", "--data", str(manifest), "--out", str(out_dir), "--count", "3"])
    assert code == 2
    assert "would overwrite the --data manifest" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (tmp_path / "base").iterdir()} == before
    _, labels = load_dataset(manifest)
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]


def write_textures(directory, count, size=64):
    """Oriented smoothed-noise PGMs; texture i is oriented at (i % 4) * pi / 4."""
    rng = np.random.default_rng(0)
    freq = np.fft.fftfreq(size)
    paths = []
    for i in range(count):
        theta = np.pi * (i % 4) / 4
        along = freq[None, :] * np.cos(theta) + freq[:, None] * np.sin(theta)
        across = -freq[None, :] * np.sin(theta) + freq[:, None] * np.cos(theta)
        noise = np.fft.fft2(rng.standard_normal((size, size)))
        smooth = np.real(np.fft.ifft2(noise * np.exp(-(400.0 * along**2 + 40.0 * across**2))))
        paths.append(str(directory / f"t{i}.pgm"))
        write_pgm(paths[-1], 0.5 + 0.15 * smooth / smooth.std())
    return paths


def test_synth_converges_on_gabor43_textures(tmp_path, capsys):
    # Oriented smoothed-noise textures give widely spread d=43 descriptors,
    # on which the unit-step Karcher iteration diverges.
    paths = write_textures(tmp_path, 8)
    data = tmp_path / "data"
    assert main(["extract", *paths, "--features", "gabor43", "--out", str(data)]) == 0
    code = main(
        ["synth", "--data", str(data / "manifest.json"), "--count", "6",
         "--out", str(tmp_path / "aug")]
    )
    assert code == 0, capsys.readouterr().err
    points, _ = load_dataset(tmp_path / "aug" / "manifest.json")
    assert len(points) == 6
    assert all(p.dim == 43 for p in points)


_THREADED_EXTRACT = """
import sys
from spdrose.cli import main
out, images = sys.argv[1], sys.argv[2:]
sys.exit(main(["extract", *images, "--features", "gabor43", "--out", out]))
"""


def test_gabor43_extract_is_identical_across_blas_thread_counts(tmp_path):
    # The covariance GEMM is the step of extract that uses BLAS threads.
    paths = write_textures(tmp_path, 4, size=96)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-c", _THREADED_EXTRACT, str(out), *paths],
            env=blas_thread_env(threads), check=True, timeout=120, capture_output=True,
        )
        matrices = sorted(p for p in out.iterdir() if p.suffix != ".json")
        written.append({p.name: p.read_bytes() for p in matrices})
    assert len(written[0]) == 16
    assert written[0] == written[1]


def test_train_eval_round_trip(tmp_path, capsys):
    bench = make_benchmark(2, 3, 12, 10, separation=2.5, spread=0.08, seed=1)
    train_manifest = save_dataset(
        tmp_path / "train", list(bench.train_points), list(bench.train_labels)
    )
    test_manifest = save_dataset(
        tmp_path / "test", list(bench.test_points), list(bench.test_labels)
    )
    code = main(
        [
            "train", "--train", str(train_manifest),
            "--out", str(tmp_path / "model"),
            "--k", "48", "--seed", "5",
        ]
    )
    assert code == 0
    assert (tmp_path / "model" / "model.json").exists()
    assert (tmp_path / "model" / "classifier.json").exists()
    capsys.readouterr()

    code = main(
        ["eval", "--model", str(tmp_path / "model"), "--test", str(test_manifest)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 20
    assert float(payload["accuracy"]) >= 0.9


def test_train_with_synthetic_pool(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "train", per_class=8)
    code = main(
        [
            "train", "--train", str(manifest),
            "--out", str(tmp_path / "model"),
            "--synthetic", "4", "--k", "32",
        ]
    )
    assert code == 0
    assert "pool 20" in capsys.readouterr().out


def test_train_is_fit_model_with_seed_root(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "train", per_class=8)
    code = main(
        [
            "train", "--train", str(manifest),
            "--out", str(tmp_path / "model"),
            "--synthetic", "4", "--k", "32", "--seed", "7",
        ]
    )
    assert code == 0
    points, labels = load_dataset(manifest)
    config = ExperimentConfig(synthetic=4)
    model, classifier, _ = fit_model(
        range(len(points)), points, labels, config, 0.5, 32, 4, 7,
        divergence_matrix(points, points),
    )
    save_projection_model(tmp_path / "model.json", model)
    save_classifier(tmp_path / "classifier.json", classifier)
    for name in ("model.json", "classifier.json"):
        written = (tmp_path / "model" / name).read_bytes()
        assert written == (tmp_path / name).read_bytes()


def test_train_nonconvergence_exits_3(tmp_path, capsys, monkeypatch):
    manifest = save_benchmark_dataset(tmp_path, "train")
    monkeypatch.setattr(spdrose.classify, "MAX_NEWTON_STEPS", 1)
    code = main(
        ["train", "--train", str(manifest), "--out", str(tmp_path / "model")]
    )
    assert code == 3
    assert "stage train" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["classifier.json", "model.json"])
def test_eval_non_finite_model_file_exits_3(tmp_path, capsys, field):
    manifest = save_benchmark_dataset(tmp_path, "data")
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / field
    payload = json.loads(path.read_text())
    payload["weights"][0][0] = float("nan")
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    assert code == 3
    assert field in capsys.readouterr().err


def test_eval_overflowing_model_weight_exits_3(tmp_path, capsys):
    # JSON reads the raw token 1e999 as inf; eval used to die in the
    # embedding with a bare ValueError and exit 1.
    manifest = save_benchmark_dataset(tmp_path, "data")
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / "model.json"
    payload = json.loads(path.read_text())
    payload["weights"][0][0] = "NUMBER"
    path.write_text(json.dumps(payload).replace('"NUMBER"', "1e999"))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    assert code == 3
    assert "model.json" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["model.json", "classifier.json"])
def test_eval_finite_weights_that_overflow_exit_3(tmp_path, capsys, field):
    # Weights of +-1e308 load, but their products overflow: the model file
    # used to end in a bare ValueError (exit 1), the classifier file in an
    # accuracy scored from non-finite margins (exit 0).
    manifest = save_benchmark_dataset(tmp_path, "data", per_class=6)
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / field
    payload = json.loads(path.read_text())
    payload["weights"] = [[1e308 * (-1) ** j for j in range(len(row))]
                          for row in payload["weights"]]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_eval_zero_feature_scale_exits_3(tmp_path, capsys):
    # A zero scale loaded before, and eval printed scores divided by zero.
    manifest = save_benchmark_dataset(tmp_path, "data")
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / "classifier.json"
    payload = json.loads(path.read_text())
    payload["feature_scale"][0] = 0.0
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    assert code == 3
    assert "classifier.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, key, value",
    [
        ("model.json", "t", 2.9),
        ("model.json", "seed", 3.7),
        ("classifier.json", "classes", [0.6, 1.2]),
    ],
)
def test_eval_non_integer_header_exits_3(tmp_path, capsys, field, key, value):
    # Such fields were truncated with int() and the file loaded silently.
    manifest = save_benchmark_dataset(tmp_path, "data")
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / field
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    assert code == 3
    assert field in capsys.readouterr().err


def test_eval_missing_reference_point_exits_3(tmp_path, capsys):
    # A model.json whose header p and weights disagree with its reference
    # points died with a numpy ValueError traceback (exit 1).
    manifest = save_benchmark_dataset(tmp_path, "data")
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / "model.json"
    payload = json.loads(path.read_text())
    del payload["reference_points"][-1]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    assert code == 3
    assert "reference points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, mutate",
    [
        # No hyperplanes: eval died in predict with a ValueError traceback.
        ("model.json", lambda m: m.update(k=0, weights=[[]] * m["p"])),
        # One reference point, which build_projection_model rejects.
        ("model.json", lambda m: m.update(
            p=1, t=1, reference_points=m["reference_points"][:1], weights=m["weights"][:1]
        )),
        # A string kernel width: eval died in the embedding with a TypeError.
        ("model.json", lambda m: m.update(sigma="0.5")),
        ("model.json", lambda m: m["weights"][0].__setitem__(0, "0.5")),
        ("classifier.json", lambda m: m.update(regularization="nan")),
        ("classifier.json", lambda m: m["biases"].__setitem__(0, "0.5")),
        ("classifier.json", lambda m: m.update(version=2.0)),
    ],
    ids=["k0", "one-reference", "string-sigma", "string-weight",
         "nan-regularization", "string-bias", "float-version"],
)
def test_eval_model_file_the_model_rejects_exits_3(tmp_path, capsys, field, mutate):
    manifest = save_benchmark_dataset(tmp_path, "data")
    model_dir = tmp_path / "model"
    assert main(["train", "--train", str(manifest), "--out", str(model_dir)]) == 0
    path = model_dir / field
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_dir), "--test", str(manifest)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_run_config_with_epochs_exits_2(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path, epochs=200)
    code = main(["run", "--data", str(manifest), "--config", str(config)])
    assert code == 2
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        '"reps": 1.5',
        '"reps": NaN',
        '"train_per_class": NaN',
        '"synthetic": 1.5',
        '"synthetic": [0, 2.5]',
        '"seed": 1.5',
        '"knn_neighbors": 1.5',
        '"sigma": Infinity',
        '"sigma": "0.5"',
        '"sigma": true',
        '"reps": 0',
        '"reps": true',
        '"train_per_class": 1',
        '"knn_neighbors": 0',
        '"synthetic": [0, -1]',
    ],
)
def test_run_config_bad_number_exits_2(tmp_path, capsys, entry):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = tmp_path / "config.json"
    config.write_text('{"train_per_class": 8, ' + entry + "}")
    code = main(["run", "--data", str(manifest), "--config", str(config)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("validation_fraction", '"0.2"'), ("validation_fraction", "null"),
     ("name", "3"), ("name", "null")],
)
def test_run_config_wrong_type_names_the_field(tmp_path, capsys, field, value):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = tmp_path / "config.json"
    config.write_text(f'{{"train_per_class": 8, "{field}": {value}}}')
    code = main(["run", "--data", str(manifest), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")


def test_run_config_with_a_nested_k_policy_exits_2(tmp_path, capsys):
    # A list policy used to reach the K_POLICIES lookup and print
    # "error: unhashable type: 'list'".
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path, k_policy=[["2n"]])
    code = main(["run", "--data", str(manifest), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: k_policy must be one of")


@pytest.mark.parametrize(
    "argv",
    [
        "train --sigma -1",
        "train --sigma nan",
        "train --epochs 0",
        "train --k -3",
        "train --t 0",
        "train --regularization 0",
        "jl-check --epsilon 2",
        "jl-check --sigma 0",
        "jl-check --sigma inf",
        "jl-check --k 0",
        "jl-check --k 8,0",
        "synth --count -2",
        "degrade --budget -1",
        "extract --rows 0",
        "extract --downsample 0",
        "extract --eps-rel nan",
        "extract --eps-rel inf",
        "extract --eps-rel -1",
        "extract --eps-rel=-1e-7",
        # The flag itself is gone, so an in-range value is rejected too.
        "extract --eps-rel 1e-4",
    ],
)
def test_bad_numeric_flag_exits_2(tmp_path, capsys, argv):
    command, *flags = argv.split()
    manifest = str(save_benchmark_dataset(tmp_path, "data"))
    image = tmp_path / "a.pgm"
    write_pgm(image, np.random.default_rng(1).uniform(size=(8, 8)))
    out = str(tmp_path / "out")
    required = {
        "train": ["--train", manifest, "--out", out],
        "jl-check": ["--data", manifest, "--k", "8"],
        "synth": ["--data", manifest, "--out", out, "--count", "3"],
        "degrade": ["--data", manifest],
        "extract": [str(image), "--out", out],
    }
    try:
        code = main([command, *required[command], *flags])
    except SystemExit as exc:  # argparse rejects an unknown flag itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "degrade", "train", "synth", "extract"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # Each --out is rejected before any data is loaded: run and degrade
    # need a report path in an existing directory, and the dataset and
    # model commands cannot make a directory where a file is.
    manifest = str(save_benchmark_dataset(tmp_path, "data"))
    config = str(write_config(tmp_path, reps=1))
    image = tmp_path / "a.pgm"
    write_pgm(image, np.random.default_rng(1).uniform(size=(8, 8)))
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {
        "run": ["--data", manifest, "--config", config],
        "degrade": ["--data", manifest, "--config", config, "--counts", "0"],
        "train": ["--train", manifest],
        "synth": ["--data", manifest, "--count", "3"],
        "extract": [str(image)],
    }

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(spdrose.pipeline, "load_dataset", no_work)
    monkeypatch.setattr(spdrose.pipeline, "image_descriptors", no_work)
    if command in ("run", "degrade"):
        outs = [str(tmp_path / "nodir" / "report.json"), str(tmp_path)]
    else:
        outs = [str(taken)]
    for out in outs:
        assert main([command, *argv[command], "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_run_knn_neighbors_beyond_training_split_exits_2(tmp_path, capsys):
    # Two classes of 5 training points: the baseline votes with 10 points.
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path, train_per_class=5, knn_neighbors=50)
    code = main(["run", "--data", str(manifest), "--config", str(config)])
    assert code == 2
    assert "knn_neighbors=50 exceeds the 10 training points" in capsys.readouterr().err


def test_run_writes_report(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "run", "--data", str(manifest),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "mean accuracy" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["format"] == "spdrose.report"
    assert len(payload["records"]) == 2


def test_run_stdout_and_determinism(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path)
    argv = ["run", "--data", str(manifest), "--config", str(config)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["config"]["seed"] == 3


def test_run_seed_override(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path)
    code = main(
        [
            "run", "--data", str(manifest),
            "--config", str(config),
            "--seed", "99",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 99


def test_run_missing_config_exits_2(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    code = main(
        ["run", "--data", str(manifest), "--config", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_corrupt_manifest_exits_3(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{broken")
    code = main(["run", "--data", str(bad)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["entries"][0].update(path=None),
        lambda m: m["entries"][0].update(label=None),
        lambda m: m.update(feature_mode=None),
        lambda m: m.update(grid=0),
        lambda m: m.update(grid=[]),
    ],
    ids=["path-null", "label-null", "feature-mode-null", "grid-0", "grid-empty"],
)
def test_run_manifest_with_a_wrong_type_exits_3(tmp_path, capsys, edit):
    manifest = save_benchmark_dataset(tmp_path, "data")
    with open(manifest) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(manifest, "w") as fh:
        json.dump(payload, fh)
    assert main(["run", "--data", str(manifest)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {manifest}: ")


def test_run_nan_matrix_exits_3(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    (tmp_path / "data" / "point_0000.txt").write_text(
        "3 v2\n1.0 nan 0.0\n1.0 0.0\n1.0\n"
    )
    code = main(["run", "--data", str(manifest)])
    assert code == 3
    assert "point_0000.txt" in capsys.readouterr().err


def test_degrade_report(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path, reps=1)
    out = tmp_path / "degradation.json"
    code = main(
        [
            "degrade", "--data", str(manifest),
            "--config", str(config),
            "--counts", "0,1", "--budget", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    console = capsys.readouterr().out
    assert "ROSE means:" in console
    assert "ROSES means:" in console
    payload = json.loads(out.read_text())
    assert payload["format"] == "spdrose.report"
    assert set(payload["means"]) == {"ROSE", "ROSES"}


def test_run_and_degrade_summary_lines(tmp_path, capsys):
    # Pinned lines: they read as they did when each study had its own
    # report type.
    bench = make_benchmark(3, 3, 12, 0, separation=0.6, spread=0.15, seed=1)
    manifest = save_dataset(
        tmp_path / "data", list(bench.train_points), list(bench.train_labels)
    )
    config = write_config(tmp_path, synthetic="m")
    study = ["--data", str(manifest), "--config", str(config)]
    out = tmp_path / "r.json"
    assert main(["run", *study, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"mean accuracy 0.8333 over 2 rep(s); baseline 0.9167; wrote {out}\n"
    )
    degrade = ["degrade", *study, "--counts", "0,1", "--budget", "4"]
    assert main([*degrade, "--out", str(tmp_path / "d.json")]) == 0
    assert capsys.readouterr().out == (
        "ROSE means: 0.7917, 0.8056\nROSES means: 0.8333, 0.8056\n"
    )


def test_degrade_excessive_count_exits_3(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path, reps=1)
    code = main(
        [
            "degrade", "--data", str(manifest),
            "--config", str(config),
            "--counts", "2",
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["-1", "0,-1"])
def test_degrade_negative_count_exits_2(tmp_path, capsys, counts):
    manifest = save_benchmark_dataset(tmp_path, "data")
    config = write_config(tmp_path, reps=1)
    code = main(
        ["degrade", "--data", str(manifest), "--config", str(config), f"--counts={counts}"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0] == "error: excluded class count must be at least 0, got -1"


def test_jl_check_k_beyond_the_weight_bound_exits_2(tmp_path, capsys):
    # 10**8 hyperplanes on 12 points would need 9.6 GB of weights; the
    # bound is checked before anything is allocated.
    manifest = save_benchmark_dataset(tmp_path, "data", per_class=6)
    code = main(["jl-check", "--data", str(manifest), "--k", "100000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "weights" in lines[0]


def test_degrade_bad_counts_exits_2(tmp_path, capsys):
    manifest = save_benchmark_dataset(tmp_path, "data")
    code = main(["degrade", "--data", str(manifest), "--counts", "a,b"])
    assert code == 2
    assert "integers" in capsys.readouterr().err


def test_jl_check_sweep(tmp_path, capsys):
    rng = np.random.default_rng(21)
    manifest = save_dataset(
        tmp_path / "data", [random_spd(rng, 3) for _ in range(10)], [0] * 10
    )
    code = main(
        [
            "jl-check", "--data", str(manifest),
            "--k", "8,32,128", "--epsilon", "0.49",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["k"] for entry in payload] == [8, 32, 128]
    fractions = [entry["fraction_within"] for entry in payload]
    assert fractions == sorted(fractions)
    assert all(entry["pair_count"] == 45 for entry in payload)


def test_jl_check_single_k_is_object(tmp_path, capsys):
    rng = np.random.default_rng(22)
    manifest = save_dataset(
        tmp_path / "data", [random_spd(rng, 3) for _ in range(6)], [0] * 6
    )
    code = main(["jl-check", "--data", str(manifest), "--k", "32"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 32


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
