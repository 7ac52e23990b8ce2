"""Command line interface.

Subcommands cover the full workflow: ``extract`` turns images into
precomputed covariance datasets, ``synth`` augments a dataset with
generated points, ``train``/``eval`` persist and score a projection
model plus classifier, ``run`` and ``degrade`` execute the experiment
protocols over a single labeled dataset (the config holds the split
rule), and ``jl-check`` audits embedding fidelity.  Reports go to
``--out`` when given, otherwise to standard output; every ``--out`` is
checked before any data is loaded.

The commands call the library instead of repeating it: ``extract``
builds an image manifest from its flags, which checks the whole recipe,
and expands it with :func:`pipeline.dataset_points` as ``load_dataset``
does, and ``train`` is :func:`pipeline.fit_model` with ``--seed`` as the
seed root, so it draws the same stage seeds as a ``run`` repetition.
Divergences come from :func:`~spdrose.stein.divergence_matrix`:
``train`` passes the training points against themselves, ``eval``
embeds the test points against the model's reference points, and
``jl-check`` computes one square block that every width shares.

Exit codes: 0 on success, 2 for a :class:`~spdrose.errors.ConfigError`,
which the library raises where it rejects a flag or config value, and
for an output that cannot be written, 3 for any other library error,
malformed or unusable data.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import classify, pipeline
from .embedding import (
    EXPONENT_MODES,
    build_projection_model,
    embed_batch,
    jl_distortion_report,
    load_projection_model,
    save_projection_model,
)
from .errors import ConfigError, SpdRoseError, require_integer, require_real
from .pipeline import FEATURE_MODES, ExperimentConfig
from .stein import PSD_POLICIES, KernelParams, divergence_matrix
from .synthesis import DIRECTION_MODES, SynthesisConfig, generate_synthetic


def _ints(text, flag):
    """The integers of a comma-separated flag value; anything else is a usage error."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be integers: {text!r}") from exc


def _check_out(args):
    """Reject an ``--out`` that cannot be written, before any data is loaded."""
    out = getattr(args, "out", None)
    if out and args.command in ("run", "degrade"):
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"--out {out} is not a file path in an existing directory")
    elif out and os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"--out {out} is an existing file, not a directory")


def _parse_labels(args, count):
    if args.labels is not None:
        labels = _ints(args.labels, "labels")
        if len(labels) != count:
            raise ConfigError(f"{len(labels)} labels given for {count} image(s)")
        return labels
    return [args.label] * count


def _cmd_extract(args):
    labels = _parse_labels(args, len(args.images))
    entries = [pipeline.ManifestEntry(path, label) for path, label in zip(args.images, labels)]
    recipe = pipeline.DatasetManifest(
        entries, args.features, grid=(args.rows, args.cols), downsample=args.downsample
    )
    points, point_labels = pipeline.dataset_points(recipe, "")
    manifest = pipeline.save_dataset(args.out, points, point_labels)
    print(f"wrote {len(points)} descriptor(s) to {manifest}")
    return 0


def _cmd_synth(args):
    # The library's count 0 means "no synthesis"; a synth command must make some.
    count = require_integer(args.count, "--count", least=1)
    written = os.path.realpath(os.path.join(args.out, "manifest.json"))
    if written == os.path.realpath(args.data):
        raise ConfigError(f"--out {args.out} would overwrite the --data manifest")
    config = SynthesisConfig(count=count, seed=args.seed, direction_mode=args.direction_mode)
    points, _ = pipeline.load_dataset(args.data)
    synthetic = generate_synthetic(points, config)
    # Synthetic points are unlabeled; the placeholder label 0 keeps the
    # output manifest well-formed.
    manifest = pipeline.save_dataset(
        args.out, synthetic, [0] * len(synthetic), prefix="synthetic"
    )
    print(f"wrote {len(synthetic)} synthetic point(s) to {manifest}")
    return 0


def _cmd_train(args):
    config = ExperimentConfig(
        sigma=args.sigma,
        synthetic=args.synthetic,
        exponent_mode=args.exponent_mode,
        psd_policy=args.psd_policy,
        direction_mode=args.direction_mode,
        regularization=args.regularization,
    )
    k = require_integer(args.k, "k", least=0)
    points, labels = pipeline.load_dataset(args.train)
    k = k or pipeline.K_POLICIES[args.k_policy] * len(points)
    model, classifier, _ = pipeline.fit_model(
        range(len(points)), points, labels, config, config.sigma[0], k,
        config.synthetic[0], args.seed, divergence_matrix(points, points),
    )
    os.makedirs(args.out, exist_ok=True)
    save_projection_model(os.path.join(args.out, "model.json"), model)
    classify.save_classifier(os.path.join(args.out, "classifier.json"), classifier)
    print(
        f"trained on {len(points)} point(s) "
        f"(pool {model.p}, k {model.k}, t {model.t}); wrote {args.out}"
    )
    return 0


def _cmd_eval(args):
    model = load_projection_model(os.path.join(args.model, "model.json"))
    classifier = classify.load_classifier(os.path.join(args.model, "classifier.json"))
    points, labels = pipeline.load_dataset(args.test)
    embedded = embed_batch(model, divergence_matrix(points, model.reference_points))
    predictions = classify.predict(classifier, embedded)
    result = classify.evaluate_accuracy(labels, predictions)
    print(
        json.dumps(
            {
                "total": result.total,
                "correct": result.correct,
                "accuracy": repr(result.accuracy),
                "per_class": {str(c): repr(a) for c, a in result.by_class},
            },
            indent=1,
            sort_keys=True,
        )
    )
    return 0


def _study_inputs(args):
    """The config, its seed replaced by any ``--seed``, and the ``--data`` points and labels."""
    config = pipeline.load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return (config, *pipeline.load_dataset(args.data))


def _write_report(args, report, summary):
    """Save ``report`` to ``--out`` and print ``summary``, or print the report."""
    if args.out:
        pipeline.save_report(args.out, report, args.include_timing)
        print(summary)
    else:
        print(report.to_json(include_timing=args.include_timing))
    return 0


def _cmd_run(args):
    config, points, labels = _study_inputs(args)
    report = pipeline.run_experiment(points, labels, config)
    return _write_report(
        args, report,
        f"mean accuracy {report.mean_accuracy:.4f} over {config.reps} rep(s); "
        f"baseline {report.mean_knn_accuracy:.4f}; wrote {args.out}",
    )


def _cmd_degrade(args):
    config, points, labels = _study_inputs(args)
    counts = None if args.counts is None else _ints(args.counts, "counts")
    report = pipeline.degradation_study(
        points, labels, config,
        excluded_class_counts=counts,
        synthetic_budget=args.budget,
    )
    summary = [
        f"{arm} means: " + ", ".join(f"{m:.4f}" for m in report.arm_means(arm))
        for arm in report.arms
    ]
    return _write_report(args, report, "\n".join(summary))


def _cmd_jl_check(args):
    ks = [require_integer(k, "k", least=1) for k in _ints(args.k, "k")]
    require_real(args.epsilon, "epsilon", below=1)
    params = KernelParams(args.sigma, args.psd_policy)
    points, _ = pipeline.load_dataset(args.data)
    # Every width reuses the same pairwise divergences.
    divergences = divergence_matrix(points, points)
    records = []
    for k in ks:
        model = build_projection_model(
            points, divergences, k=k, params=params,
            exponent_mode=args.exponent_mode, seed=args.seed,
        )
        report = jl_distortion_report(model, divergences, args.epsilon)
        records.append(dataclasses.asdict(report))
    payload = records[0] if len(records) == 1 else records
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdrose",
        description="Covariance descriptors, log-det kernels, and random "
        "hyperplane embeddings for SPD matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Whole flag names only, so a stale flag such as ``--t`` is rejected
    # instead of being read as a prefix of ``--train``.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("extract", help="images to covariance descriptors")
    p.add_argument("images", nargs="+", help="PGM or PPM files")
    image_modes = sorted(set(FEATURE_MODES) - {"precomputed"})
    p.add_argument("--features", choices=image_modes, default="intensity5")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--downsample", type=int, default=1)
    p.add_argument("--label", type=int, default=0, help="label for every image")
    p.add_argument("--labels", help="comma-separated per-image labels")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_extract)

    p = add_parser("synth", help="generate unlabeled synthetic points")
    p.add_argument("--data", required=True, help="input dataset manifest")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direction-mode", choices=DIRECTION_MODES,
                   default="tangent_gaussian")
    p.set_defaults(func=_cmd_synth)

    p = add_parser("train", help="fit projection model and classifier")
    p.add_argument("--train", required=True, help="training dataset manifest")
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--psd-policy", choices=PSD_POLICIES, default="clamp")
    p.add_argument("--k", type=int, default=0,
                   help="hyperplane count (overrides --k-policy)")
    p.add_argument("--k-policy", choices=sorted(pipeline.K_POLICIES), default="2n")
    p.add_argument("--exponent-mode", choices=EXPONENT_MODES, default="whitening")
    p.add_argument("--synthetic", type=int, default=0, help="synthetic pool budget")
    p.add_argument("--direction-mode", choices=DIRECTION_MODES,
                   default="tangent_gaussian")
    p.add_argument("--regularization", type=float, default=classify.DEFAULT_LAMBDA)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = add_parser("eval", help="score a trained model on a dataset")
    p.add_argument("--model", required=True, help="directory from `train`")
    p.add_argument("--test", required=True, help="test dataset manifest")
    p.set_defaults(func=_cmd_eval)

    def study_parser(name, help_text, func):
        p = add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="labeled dataset manifest")
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", help="report JSON path (default: stdout)")
        p.add_argument("--include-timing", action="store_true")
        p.set_defaults(func=func)
        return p

    study_parser("run", "full experiment protocol", _cmd_run)
    p = study_parser("degrade", "class-exclusion robustness study", _cmd_degrade)
    p.add_argument("--counts", help="comma-separated exclusion counts")
    p.add_argument("--budget", type=int, default=None, help="augmented-arm budget")

    p = add_parser("jl-check", help="embedding distortion report")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--k", required=True, help="hyperplane count or comma list")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--psd-policy", choices=PSD_POLICIES, default="clamp")
    p.add_argument("--exponent-mode", choices=EXPONENT_MODES, default="whitening")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_jl_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpdRoseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
