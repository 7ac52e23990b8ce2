"""End-to-end experiment pipeline and its on-disk formats.

A dataset manifest lists entries, each a path and a label, and a
feature mode that decides how every entry is read: as a precomputed
matrix file, or as an image with the mode's suffix, expanded into grid
covariance descriptors (fixed ridge) at load time by
:func:`dataset_points`.  The manifest is the whole recipe: ``spdrose
extract`` builds one from its flags and expands it the same way.  An
experiment config holds the split rule (per-class train count,
repetitions, seed), hyperparameter candidates, and classifier settings;
its JSON file mirrors the dataclass field for field.

Splits are integer positions into the dataset.  Each repetition draws
a fresh seeded per-class train/test split; with more than one (sigma, k
policy, synthetic count) combination, the same per-class draw holds a
20% validation fold out of the training split, every combination is
scored on it, and the winner is retrained on the remaining training
points.  With a single combination the full training split is used.
Synthetic points, when requested, are generated around the Karcher mean
of the hyperplane-construction set as one unlabeled pool; they enlarge
that set only and never reach the classifier, whose labeled training
data is untouched.  A record's ``arm`` is the study arm its candidates
came from, "ROSE" (real points only) or "ROSES" (synthetic points may be
added); its ``synthetic`` is the count it used, zero included.

The degradation study reruns the same single-repetition pipeline for
every combination of excluded classes: hyperplanes are built without
the excluded classes' training points while the classifier still trains
on every class.  The augmented arm spends a constant synthetic budget
drawn from the surviving points, so its pool stays comparable as
classes disappear.  With zero exclusions each arm reproduces
``run_experiment`` for the matching synthetic count bit for bit.

The Stein divergence does not depend on sigma or on the seed, and only
this module decides which divergences to reuse.  ``run_experiment`` and
``degradation_study`` draw every repetition's split before the first
run and keep one store of real divergences for the whole experiment.
Every run (validation candidates, the final run, each exclusion pattern
of both degradation arms, the kNN baseline) reads its split's read-only
block from it by dataset position: rows are the training then the test
(or validation) points, columns the training points, and a pool is a
column selection.  The store computes, once and up front, every point
against the positions that train in some repetition, in two
:func:`~spdrose.stein.divergence_matrix` calls, and never the pairs no
run reads, such as test with test.  Synthetic points are new in
every fit, which computes their pairs with each other and with the
training points; the test pass computes the test points against them.
The training ball that synthesis samples from depends on neither sigma
nor the seed either, so each ordered pool's Karcher mean and radius are
computed once per experiment and shared by every fit around that pool.

Each run fits through :func:`fit_model` (synthesis, hyperplanes,
embedding of the training points, classifier) and then scores the test
points.  Random draws go through the chain ``config.seed -> repetition
-> stage``, so reports are identical across runs and machines once
timing fields are stripped.  ``spdrose train`` calls
:func:`fit_model` with its ``--seed`` as the root of the same stage
seeds.  Accuracy values are serialized as exact decimal strings to keep
report bytes stable.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import classify
from .descriptors import (
    box_downsample,
    color_feature_map,
    gabor_feature_map,
    grid_covariances,
    intensity_feature_map,
)
from .embedding import EXPONENT_MODES, build_projection_model, embed_batch
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyData,
    ExclusionExceedsClasses,
    ParseError,
    SingleClass,
    SpdRoseError,
    StageFailure,
    require_choice,
    require_integer,
    require_integer_array,
    require_positive,
    require_real,
)
from .io import load_json, read_container, read_matrix, read_pgm, read_ppm
from .io import write_json, write_matrix
from .seeding import derive_seed
from .stein import KernelParams, divergence_matrix
from .synthesis import SynthesisConfig, generate_synthetic
from .synthesis import training_ball

MANIFEST_FORMAT = "spdrose.dataset"
MANIFEST_FORMAT_VERSION = 1
REPORT_FORMAT = "spdrose.report"
REPORT_FORMAT_VERSION = 2

# Each feature mode's image suffix and feature map; precomputed entries
# are matrix files of any name.
FEATURE_MODES = {
    "precomputed": (None, None),
    "intensity5": (".pgm", intensity_feature_map),
    "color11": (".ppm", color_feature_map),
    "gabor43": (".pgm", gabor_feature_map),
}
K_POLICIES = {"n": 1, "2n": 2, "3n": 3}
SYNTH_TOKENS = ("n", "m")
ARM_PLAIN = "ROSE"
ARM_AUGMENTED = "ROSES"

_STAGE_SPLIT = 0
_STAGE_VALIDATION = 1
_STAGE_SYNTH = 2
_STAGE_EMBED = 3


@dataclass(frozen=True)
class ManifestEntry:
    """One data file and its class label; the manifest's feature mode says how to read it."""

    path: str
    label: int

    def __post_init__(self):
        if not isinstance(self.path, str):
            raise ConfigError(f"entry path must be a string, got {self.path!r}")
        object.__setattr__(self, "label", require_integer(self.label, "label", least=0))


@dataclass(frozen=True)
class DatasetManifest:
    """Labeled data files plus the descriptor recipe to apply to them.

    Labels must form a dense ``0..L-1`` set.  The feature mode decides
    how every entry is read: ``precomputed`` reads matrix files
    verbatim, and an image mode extracts grid covariance descriptors
    from images whose paths end in its suffix, in any letter case.
    """

    entries: tuple
    feature_mode: str = "precomputed"
    grid: Optional[tuple] = None
    downsample: int = 1

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        require_choice(self.feature_mode, "feature_mode", FEATURE_MODES)
        if not self.entries:
            raise ConfigError("manifest lists no entries")
        suffix = FEATURE_MODES[self.feature_mode][0]
        for entry in self.entries:
            if suffix and os.path.splitext(entry.path)[1].lower() != suffix:
                raise ConfigError(
                    f"{self.feature_mode} features need a {suffix} image, got {entry.path}"
                )
        labels = sorted({e.label for e in self.entries})
        if labels != list(range(len(labels))):
            raise ConfigError(f"labels must be dense 0..L-1, got {labels}")
        if self.grid is not None:
            if not isinstance(self.grid, (list, tuple)) or len(self.grid) != 2:
                raise ConfigError(f"grid must be [rows, cols], got {self.grid!r}")
            rows, cols = (require_integer(v, "grid size", least=1) for v in self.grid)
            object.__setattr__(self, "grid", (rows, cols))
        if self.feature_mode == "precomputed" and self.grid is not None:
            raise ConfigError("precomputed datasets take no grid")
        object.__setattr__(
            self, "downsample", require_integer(self.downsample, "downsample", least=1)
        )


def save_manifest(path, manifest: DatasetManifest) -> None:
    header = {"format": MANIFEST_FORMAT, "version": MANIFEST_FORMAT_VERSION}
    write_json(path, {**header, **asdict(manifest)})


def load_manifest(path) -> DatasetManifest:
    payload = read_container(path, MANIFEST_FORMAT, MANIFEST_FORMAT_VERSION)
    try:
        entries = tuple(
            ManifestEntry(path=e["path"], label=e["label"]) for e in payload["entries"]
        )
        return DatasetManifest(
            entries=entries,
            feature_mode=payload.get("feature_mode", "precomputed"),
            grid=payload.get("grid"),
            downsample=payload.get("downsample", 1),
        )
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed manifest: {exc}") from exc


def image_descriptors(path, feature_mode, grid, downsample):
    """Grid covariance descriptors of one image file, in row-major cell order.

    The image is read as ``feature_mode``'s suffix says, a PGM or a PPM,
    averaged over ``downsample``-sized blocks and mapped to that mode's
    features.
    ``grid`` is ``(rows, cols)``; ``None`` is the 1x1 grid, one
    descriptor of the whole image.  Descriptors use the fixed ridge of
    :func:`~spdrose.descriptors.grid_covariances`.
    """
    suffix, feature_map = FEATURE_MODES[feature_mode]
    image = read_pgm(path) if suffix == ".pgm" else read_ppm(path)
    if downsample > 1:
        image = type(image)(box_downsample(image.pixels, downsample))
    rows, cols = grid or (1, 1)
    return grid_covariances(feature_map(image), rows, cols)


def dataset_points(manifest: DatasetManifest, root):
    """(points, labels) of a manifest whose entry paths are relative to ``root``.

    A precomputed manifest's entries are read as they are; an image
    mode's entries expand into grid descriptors.  Ordering is manifest
    order, then grid row-major within an entry; every descriptor of an
    entry shares the entry's label.
    """
    points, labels = [], []
    for entry in manifest.entries:
        full = os.path.join(root, entry.path)
        if manifest.feature_mode == "precomputed":
            descriptors = [read_matrix(full)]
        else:
            descriptors = image_descriptors(
                full, manifest.feature_mode, manifest.grid, manifest.downsample
            )
        points.extend(descriptors)
        labels.extend([entry.label] * len(descriptors))
    return points, np.array(labels, dtype=np.int64)


def load_dataset(manifest_path):
    """Load (points, labels) of a manifest file, by :func:`dataset_points`."""
    manifest = load_manifest(manifest_path)
    root = os.path.dirname(os.path.abspath(manifest_path))
    points, labels = dataset_points(manifest, root)
    dims = {p.dim for p in points}
    if len(dims) > 1:
        raise DimensionMismatch(
            f"{manifest_path}: mixed descriptor dimensions {sorted(dims)}"
        )
    return points, labels


def save_dataset(directory, points, labels, prefix: str = "point") -> str:
    """Write matrices plus a precomputed manifest; returns the manifest path.

    The manifest is checked before any file is written, so rejected
    labels leave nothing behind.
    """
    labels = list(labels)
    if len(points) != len(labels):
        raise DimensionMismatch(f"{len(points)} points but {len(labels)} labels")
    width = max(4, len(str(max(len(points) - 1, 0))))
    names = [f"{prefix}_{i:0{width}d}.txt" for i in range(len(points))]
    entries = [ManifestEntry(path=n, label=label) for n, label in zip(names, labels)]
    manifest = DatasetManifest(entries=tuple(entries))
    os.makedirs(directory, exist_ok=True)
    for name, point in zip(names, points):
        write_matrix(os.path.join(directory, name), point)
    manifest_path = os.path.join(directory, "manifest.json")
    save_manifest(manifest_path, manifest)
    return manifest_path


def _normalize_candidates(value, kind):
    items = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if not items:
        raise ConfigError(f"{kind} candidate list must not be empty")
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    """Split rule, hyperparameter candidates, and classifier settings.

    ``sigma``, ``k_policy``, and ``synthetic`` each accept a single
    value or a candidate list; with more than one combination in play,
    the winner is picked per repetition on a validation fold.
    Synthetic counts may be the symbols ``"n"`` (training split size)
    or ``"m"`` (per-class train count) besides plain numbers.
    """

    name: str = "experiment"
    seed: int = 0
    reps: int = 1
    train_per_class: int = 10
    sigma: tuple = (0.5,)
    k_policy: tuple = ("2n",)
    synthetic: tuple = (0,)
    exponent_mode: str = "whitening"
    psd_policy: str = "clamp"
    direction_mode: str = "tangent_gaussian"
    regularization: float = classify.DEFAULT_LAMBDA
    knn_neighbors: int = 1
    validation_fraction: float = 0.2

    def __post_init__(self):
        sigmas = _normalize_candidates(self.sigma, "sigma")
        # The kernel and synthesis types own these checks.
        kernels = [KernelParams(s, self.psd_policy) for s in sigmas]
        SynthesisConfig(direction_mode=self.direction_mode)
        object.__setattr__(self, "sigma", tuple(kernel.sigma for kernel in kernels))
        policies = _normalize_candidates(self.k_policy, "k_policy")
        for policy in policies:
            require_choice(policy, "k_policy", K_POLICIES)
        object.__setattr__(self, "k_policy", policies)
        synthetic = tuple(
            require_choice(v, "synthetic symbol", SYNTH_TOKENS) if isinstance(v, str)
            else require_integer(v, "synthetic count", least=0)
            for v in _normalize_candidates(self.synthetic, "synthetic")
        )
        object.__setattr__(self, "synthetic", synthetic)
        for name, least in (("seed", None), ("reps", 1), ("train_per_class", 2),
                            ("knn_neighbors", 1)):
            object.__setattr__(self, name, require_integer(getattr(self, name), name, least))
        require_choice(self.exponent_mode, "exponent_mode", EXPONENT_MODES)
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        require_positive(self.regularization, "regularization")
        fraction = require_real(self.validation_fraction, "validation_fraction", below=1)
        object.__setattr__(self, "validation_fraction", fraction)


_CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__)


def config_from_mapping(payload) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError(
            f"config must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(**payload)


def load_config(path) -> ExperimentConfig:
    try:
        payload = load_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_mapping(payload)


def resolve_synthetic(value, n_classes: int, train_per_class: int) -> int:
    """Map a synthetic-count symbol to a number for a given split shape."""
    if value == "n":
        return n_classes * train_per_class
    if value == "m":
        return train_per_class
    return int(value)


@dataclass(frozen=True)
class RepRecord:
    """Outcome of one pipeline run: its arm, its excluded classes and its scores."""

    rep: int
    rep_seed: int
    arm: str
    excluded: tuple
    sigma: float
    k_policy: str
    synthetic: int
    k: int
    t: int
    pool_size: int
    accuracy: float
    clamped_mass: float
    class_labels: tuple
    confusion: tuple
    knn_accuracy: Optional[float] = None
    stage_seconds: tuple = ()

    @property
    def record(self):
        """The record itself; only the benchmark harness reads it."""
        return self

    def to_payload(self, include_timing: bool) -> dict:
        """Every field; accuracies as ``repr`` strings, kNN only when it ran,
        stage seconds only with ``include_timing``."""
        payload = asdict(self)
        payload["accuracy"] = repr(self.accuracy)
        knn = payload.pop("knn_accuracy")
        if knn is not None:
            payload["knn_accuracy"] = repr(knn)
        stage_seconds = payload.pop("stage_seconds")
        if include_timing:
            payload["stage_seconds"] = dict(stage_seconds)
        return payload


@dataclass(frozen=True)
class Report:
    """The records of one study; serializes deterministically without timing.

    Accuracies are emitted as exact decimal strings (``repr`` of the
    64-bit float) so report bytes cannot drift across platforms.  The
    summary is derived from the records: mean accuracy per arm and
    exclusion count, and the kNN baseline's mean when it ran.
    """

    config: ExperimentConfig
    records: tuple

    @property
    def arms(self) -> tuple:
        return tuple(dict.fromkeys(r.arm for r in self.records))

    @property
    def excluded_class_counts(self) -> tuple:
        return tuple(dict.fromkeys(len(r.excluded) for r in self.records))

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([r.accuracy for r in self.records]))

    @property
    def mean_knn_accuracy(self):
        values = [r.knn_accuracy for r in self.records if r.knn_accuracy is not None]
        return float(np.mean(values)) if values else None

    def arm_means(self, arm: str):
        """Mean accuracy of ``arm`` per exclusion count, in report count order."""
        return [
            float(np.mean([r.accuracy for r in self.records
                           if r.arm == arm and len(r.excluded) == count]))
            for count in self.excluded_class_counts
        ]

    def to_payload(self, include_timing: bool = False) -> dict:
        mean_knn = self.mean_knn_accuracy
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_FORMAT_VERSION,
            "config": asdict(self.config),
            "records": [r.to_payload(include_timing) for r in self.records],
            "excluded_class_counts": list(self.excluded_class_counts),
            "means": {arm: [repr(m) for m in self.arm_means(arm)] for arm in self.arms},
            "mean_knn_accuracy": None if mean_knn is None else repr(mean_knn),
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_payload(include_timing), indent=1, sort_keys=True)


def save_report(path, report, include_timing: bool = False) -> None:
    write_json(path, report.to_payload(include_timing))


def _draw(labels, positions, count, rng):
    """Split ``positions`` into ``count(cls, size)`` drawn per class and the rest.

    Classes are taken in label order, one ``rng.choice`` each; both lists
    are class-major and keep the order of ``positions`` within a class.
    """
    positions = np.asarray(positions, dtype=np.int64)
    owners = labels[positions]
    drawn, rest = [], []
    for cls in np.unique(owners).tolist():
        members = positions[owners == cls]
        chosen = rng.choice(members, size=count(cls, members.size), replace=False)
        kept = np.isin(members, chosen)
        drawn.extend(members[kept].tolist())
        rest.extend(members[~kept].tolist())
    return drawn, rest


def _validation_count(config, size) -> int:
    """Points of a class with ``size`` training points held out for validation."""
    return min(max(1, int(config.validation_fraction * size)), size - 1)


@contextlib.contextmanager
def _stage(rep, name, seconds):
    """Add the block's wall time to ``seconds[name]``; a :class:`SpdRoseError`
    raised in the block becomes :class:`StageFailure` for repetition ``rep``
    and stage ``name``, with the original error as ``__cause__``."""
    started = time.perf_counter()
    try:
        yield
    except SpdRoseError as exc:
        raise StageFailure(
            f"repetition {rep}, stage {name}: {exc}", repetition=rep, stage=name
        ) from exc
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - started


def fit_model(pool, train_points, train_labels, config, sigma, k, synth_count,
              seed_root, divergences, rep=0, ball=None):
    """Fit a projection model and a classifier on one training set.

    Hyperplanes are built from the training points at positions ``pool``
    plus ``synth_count`` synthetic points generated around them (ROSES;
    ROSE when the count is zero), which are the model's reference points
    in that order.  ``divergences`` is ``divergence_matrix(train_points,
    train_points)``.  ``ball`` returns the pool's ``training_ball`` when
    called with no arguments; by default it is computed from the pool
    points, while experiment runs pass their store's, which computes each
    pool's ball once.  The classifier trains on the embedded ``train_points``.
    Synthesis and hyperplanes each draw from their own stage seed under
    ``seed_root``.  ``synthesize`` (the ball included), ``build`` (the
    synthetic pairs included), ``embed`` and ``train`` are each one
    :func:`_stage` block; a failure in one, a classifier that does not
    converge included, raises :class:`StageFailure` for repetition
    ``rep``.  Returns the model, the classifier and the seconds per stage.
    """
    seconds = {}
    with _stage(rep, "synthesize", seconds):
        pool_points = [train_points[i] for i in pool]
        synthetic = []
        if synth_count > 0:
            synth_config = SynthesisConfig(
                count=synth_count,
                seed=derive_seed(seed_root, _STAGE_SYNTH),
                direction_mode=config.direction_mode,
            )
            synthetic = generate_synthetic(
                pool_points, synth_config, None if ball is None else ball()
            )
    with _stage(rep, "build", seconds):
        # The synthetic points' pairs with the training points serve both the
        # Gram matrix (pool columns) and the embedding of the training points.
        own = divergence_matrix(synthetic, synthetic)
        cross = divergence_matrix(synthetic, train_points)
        references = np.block([
            [divergences[np.ix_(pool, pool)], cross[:, pool].T],
            [cross[:, pool], own],
        ])
        model = build_projection_model(
            [*pool_points, *synthetic], references, k=k,
            params=KernelParams(sigma=sigma, psd_policy=config.psd_policy),
            exponent_mode=config.exponent_mode,
            seed=derive_seed(seed_root, _STAGE_EMBED),
        )
    with _stage(rep, "embed", seconds):
        embedded = embed_batch(model, np.hstack([divergences[:, pool], cross.T]))
    with _stage(rep, "train", seconds):
        classifier = classify.train_ova_svm(
            embedded, train_labels, regularization=config.regularization
        )
    return model, classifier, seconds


def _run_single(store, labels, train, test, config, rep, seed_root, arm, sigma,
                k_policy, synth_count, excluded=(), with_knn=False) -> RepRecord:
    """One pipeline run on dataset positions ``train`` and ``test``, reading ``store``.

    The training points of the ``excluded`` classes stay out of the pool.
    """
    points = store.points
    block = store.block(train + test, train)
    train_points = [points[i] for i in train]
    train_labels, test_labels = labels[train], labels[test]
    classes = tuple(np.unique(train_labels).tolist())
    pool = [i for i, label in enumerate(train_labels.tolist()) if label not in excluded]
    k = K_POLICIES[k_policy] * len(train)
    model, classifier, seconds = fit_model(
        pool, train_points, train_labels, config, sigma, k, synth_count,
        seed_root, block[:len(train)], rep,
        ball=functools.partial(store.ball, tuple(train[i] for i in pool)),
    )
    with _stage(rep, "embed", seconds):
        test_block = block[len(train):]
        synthetic = model.reference_points[len(pool):]
        test_divergences = np.hstack(
            [test_block[:, pool], divergence_matrix([points[i] for i in test], synthetic)]
        )
        test_embedded = embed_batch(model, test_divergences)
    with _stage(rep, "train", seconds):
        predictions = classify.predict(classifier, test_embedded)
    evaluation = classify.evaluate_accuracy(test_labels, predictions, class_labels=classes)
    knn_accuracy = None
    if with_knn:
        with _stage(rep, "baseline", {}):  # tagged, but kept out of stage_seconds
            knn_predictions = classify.knn_stein(train_labels, config.knn_neighbors, test_block)
        knn_accuracy = classify.evaluate_accuracy(test_labels, knn_predictions).accuracy
    return RepRecord(
        rep=rep,
        rep_seed=seed_root,
        arm=arm,
        excluded=excluded,
        sigma=sigma,
        k_policy=k_policy,
        synthetic=synth_count,
        k=k,
        t=model.t,
        pool_size=model.p,
        accuracy=evaluation.accuracy,
        clamped_mass=model.clamped_mass,
        class_labels=classes,
        confusion=evaluation.confusion,
        knn_accuracy=knn_accuracy,
        stage_seconds=tuple(seconds.items()),
    )


class _DivergenceStore:
    """What every run of one experiment shares: real divergences and training balls.

    Divergences are read by dataset position.  ``columns`` are the
    positions that train in some run, fixed before the first one; the
    table holds one row per column, its divergences with every point,
    so memory grows with the training columns, not with ``n**2``, and
    reading another column raises ``KeyError``.  Construction fills it
    with two :func:`divergence_matrix` calls: the columns against
    themselves, whose upper triangle is evaluated once and mirrored,
    and the columns against every other position.  Balls are keyed by
    ordered pool positions, because the Karcher mean's bits depend on
    point order.
    """

    def __init__(self, points, columns):
        self.points = points
        columns = list(columns)
        rest = sorted(set(range(len(points))) - set(columns))
        own = [points[j] for j in columns]
        self._table = np.empty((len(columns), len(points)))
        self._table[:, columns] = divergence_matrix(own, own)
        self._table[:, rest] = divergence_matrix(own, [points[i] for i in rest])
        self._row = {j: r for r, j in enumerate(columns)}
        self._balls = {}

    def block(self, rows, cols):
        """Read-only ``divergence_matrix`` of the points at ``rows`` with those at ``cols``."""
        table_rows = [self._row[j] for j in cols]
        block = np.ascontiguousarray(self._table[np.ix_(table_rows, rows)].T)
        block.setflags(write=False)
        return block

    def ball(self, positions):
        """``training_ball`` of the points at ``positions``, in that order."""
        if positions not in self._balls:
            self._balls[positions] = training_ball([self.points[i] for i in positions])
        return self._balls[positions]


def _split_rep(labels, config, rep, validate):
    """The repetition's seed, its validation fold and its effective split.

    The fold is ``(train, held)``, or ``None`` unless ``validate``, and the
    effective split ``(train, test)``, all lists of dataset positions.
    Both train on the same points.
    """
    rep_seed = derive_seed(config.seed, rep)

    def train_count(cls, size):
        if size <= config.train_per_class:
            raise ConfigError(
                f"class {cls} has {size} points; "
                f"train_per_class={config.train_per_class} leaves no test data"
            )
        return config.train_per_class

    rng = np.random.default_rng(derive_seed(rep_seed, _STAGE_SPLIT))
    train, test = _draw(labels, range(len(labels)), train_count, rng)
    held = []
    if validate:
        rng = np.random.default_rng(derive_seed(rep_seed, _STAGE_VALIDATION))
        held, train = _draw(
            labels, train, lambda cls, size: _validation_count(config, size), rng
        )
    return rep_seed, (train, held) if validate else None, (train, test)


def _prepare_rep(store, labels, fold, config, rep, rep_seed, arm, grid):
    """Pick (sigma, k_policy, synthetic) from ``arm``'s ``grid`` on the validation fold.

    Ties go to the earlier combination.  With a single combination there
    is no fold and it is returned as is.
    """
    if fold is None:
        return grid[0]
    scores = [
        _run_single(store, labels, *fold, config, rep,
                    derive_seed(rep_seed, _STAGE_VALIDATION, tag), arm, *combo).accuracy
        for tag, combo in enumerate(grid)
    ]
    return grid[scores.index(max(scores))]


def _dataset_classes(points, labels):
    """Labels as an int64 array and the sorted class list of a usable dataset."""
    labels = np.asarray(labels)
    if len(points) != labels.size:
        raise DimensionMismatch(f"{len(points)} points but {labels.size} labels")
    if len(points) == 0:
        raise EmptyData("dataset holds no points")
    labels = require_integer_array(labels, "labels")
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise SingleClass(f"dataset holds only class {classes}")
    return labels, classes


def _study(points, labels, classes, config, arms, patterns, with_knn=False):
    """Every run of one experiment: all splits drawn and one store built first.

    ``arms`` pairs a name with its synthetic-count candidates; its grid
    is every (sigma, k_policy, synthetic) combination.  Each repetition
    picks every grid's winner on its validation fold, then runs it once
    per tuple of excluded classes in ``patterns``.  Returns the records
    in repetition, arm, pattern order.
    """
    grids = [(arm, list(itertools.product(config.sigma, config.k_policy, synth)))
             for arm, synth in arms]
    validate = len(grids[0][1]) > 1
    per_class = config.train_per_class
    if validate:
        per_class -= _validation_count(config, per_class)
    if with_knn and config.knn_neighbors > len(classes) * per_class:
        raise ConfigError(
            f"knn_neighbors={config.knn_neighbors} exceeds the "
            f"{len(classes) * per_class} training points the kNN baseline votes with"
        )
    plans = [_split_rep(labels, config, rep, validate) for rep in range(config.reps)]
    columns = sorted({j for _, _, (train, _) in plans for j in train})
    store = _DivergenceStore(points, columns)
    records = []
    for rep, (rep_seed, fold, effective) in enumerate(plans):
        for arm, grid in grids:
            combo = _prepare_rep(store, labels, fold, config, rep, rep_seed, arm, grid)
            records.extend(
                _run_single(store, labels, *effective, config, rep, rep_seed, arm, *combo,
                            excluded=excluded, with_knn=with_knn)
                for excluded in patterns
            )
    return tuple(records)


def run_experiment(points, labels, config: ExperimentConfig) -> Report:
    """Run every repetition over seeded per-class splits.

    ``knn_neighbors`` larger than the kNN baseline's training points
    (the split less any validation fold) raises :class:`ConfigError` first.
    The one arm is "ROSES" when a synthetic candidate is positive.
    """
    labels, classes = _dataset_classes(points, labels)
    synth_choices = tuple(resolve_synthetic(v, len(classes), config.train_per_class)
                          for v in config.synthetic)
    arms = ((ARM_AUGMENTED if any(synth_choices) else ARM_PLAIN, synth_choices),)
    return Report(config, _study(points, labels, classes, config, arms, [()], with_knn=True))


def degradation_study(points, labels, config: ExperimentConfig,
                       excluded_class_counts=None, synthetic_budget=None) -> Report:
    """Score both arms under every class-exclusion combination.

    For each count ``c`` the study reruns the pipeline once per
    ``binomial(L, c)`` choice of excluded classes: their training
    points are withheld from hyperplane construction while the
    classifier still trains on all classes.  The plain arm uses no
    synthetic points; the augmented arm spends ``synthetic_budget``
    (default: the largest configured candidate) regardless of how many
    classes survive.  With ``c = 0`` each arm matches
    ``run_experiment`` for the corresponding synthetic count.  A count
    given twice runs once.
    """
    labels, classes = _dataset_classes(points, labels)
    if excluded_class_counts is None:
        excluded_class_counts = range(len(classes))
    counts = dict.fromkeys(require_integer(c, "excluded class count", least=0)
                           for c in excluded_class_counts)
    if not counts:
        raise ConfigError("excluded class counts must not be empty")
    if max(counts) >= len(classes):
        raise ExclusionExceedsClasses(f"cannot exclude {max(counts)} of {len(classes)} classes")
    if synthetic_budget is None:
        synthetic_budget = max(
            resolve_synthetic(v, len(classes), config.train_per_class)
            for v in config.synthetic
        )
    synthetic_budget = require_integer(synthetic_budget, "synthetic budget", least=0)
    arms = ((ARM_PLAIN, (0,)), (ARM_AUGMENTED, (synthetic_budget,)))
    patterns = [excluded for count in counts
                for excluded in itertools.combinations(classes, count)]
    return Report(config, _study(points, labels, classes, config, arms, patterns))
