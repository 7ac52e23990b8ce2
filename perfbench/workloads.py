"""The three workloads: input generation, one pass, and output checks.

Every workload is a closed loop: one client in one process runs a pass,
checks its output, and only then starts the next.  Inputs come from the
workload seed alone; the program sees only the generated points, images
and config.

* ``experiment``: ``run_experiment`` with validation-fold selection of
  sigma, in-pipeline ROSES synthesis and the kNN baseline, on the
  acceptance classification geometry (2 classes, d=6).  The synthetic
  count is fixed at ``m``: with the candidates ``[0, m]`` the winner
  sets the final pool size (40 or 65 points), so the work per pass
  changed from seed to seed and spread ``wall_s`` across seeds by 0.14.
* ``degradation``: ``degradation_study`` on the acceptance degradation
  geometry (5 classes, d=6, paper_literal, sigma 2.5, budget 50) with
  exclusion counts (0, 1): the same real points are embedded again for
  every exclusion pattern, the heaviest reuse, and no kNN.
* ``images``: the ``spdrose`` CLI in-process on generated grey textures
  (oriented smoothed noise): extract gabor43 (d=43) on the train and
  test halves, synth, train, eval.  The only workload that reaches
  descriptors, file I/O and model persistence, and the one with little
  divergence reuse.

For the two cluster workloads the class centers are those of the
acceptance fixture and the seed draws the points and the config seed,
so with the fixture's own seed the inputs equal the acceptance fixture.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Step:
    """One operation of a pass: a library call or a CLI command.

    ``seconds`` is wall time; ``ref_seconds`` is the same interval at the
    speed probe's reference speed (see ``speed.py``).
    """

    name: str
    seconds: float
    ref_seconds: float
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one pass did: its steps, output digest, accuracy and defects."""

    steps: list = field(default_factory=list)
    digest: str = ""
    accuracy: float | None = None
    problems: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(step.seconds for step in self.steps)

    @property
    def ref_wall_s(self) -> float:
        return sum(step.ref_seconds for step in self.steps)

    @property
    def failed(self) -> int:
        return sum(not step.ok for step in self.steps)


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _cluster_points(m, n_classes, dim, per_class, separation, spread,
                    fixture_seed, seed):
    """Points around the fixture's centers, sampled from ``seed``.

    Mirrors ``make_benchmark`` (no test split), so ``seed ==
    fixture_seed`` reproduces the acceptance fixture exactly.
    """
    clusters, seeding = m["clusters"], m["seeding"]
    centers = clusters.make_cluster_centers(n_classes, dim, separation, fixture_seed)
    points, labels = [], []
    for c, center in enumerate(centers):
        rng = seeding.keyed_generator(seed, c + 1)
        points.extend(clusters.sample_cluster(center, per_class, spread, rng))
        labels.extend([c] * per_class)
    return points, np.array(labels, dtype=np.int64)


def _library_step(name, call, probe):
    def guarded():
        try:
            return call(), None
        except Exception as exc:  # a failed operation, counted and reported
            return None, f"{type(exc).__name__}: {exc}"

    (result, error), seconds, ref_seconds = probe.time(guarded)
    return Step(name, seconds, ref_seconds, error is None, error or ""), result


class Experiment:
    name = "experiment"
    fixture_seed = 99
    n_classes = 2
    reps = 3
    min_passes = 2
    expected_spans = (
        "pipeline", "stein.divergence", "stein.gram", "stein.gram_power",
        "embedding.build", "embedding.embed", "synthesis.generate",
        "synthesis.karcher", "classify.train", "classify.predict", "classify.knn",
    )

    def describe(self):
        return (f"run_experiment: 2 classes x 100 SPD points, d=6, train_per_class=25, "
                f"reps={self.reps}, sigma [0.5, 1.0] selected on a validation fold, synthetic m")

    def setup(self, m, seed, workdir):
        points, labels = _cluster_points(m, 2, 6, 100, 3.0, 0.08, self.fixture_seed, seed)
        config = m["pipeline"].ExperimentConfig(
            reps=self.reps, train_per_class=25, seed=seed,
            sigma=(0.5, 1.0), synthetic="m",
        )
        return points, labels, config

    def run_pass(self, m, inputs, workdir, probe):
        points, labels, config = inputs
        step, report = _library_step(
            "run_experiment",
            lambda: m["pipeline"].run_experiment(points, labels, config),
            probe,
        )
        outcome = Outcome(steps=[step])
        if report is None:
            return outcome
        outcome.digest = _sha256(report.to_json().encode("ascii"))
        outcome.accuracy = report.mean_accuracy
        if len(report.records) != config.reps:
            outcome.problems.append(f"{len(report.records)} records for {config.reps} reps")
        if any(r.knn_accuracy is None for r in report.records):
            outcome.problems.append("a repetition has no kNN baseline accuracy")
        return outcome


class Degradation:
    name = "degradation"
    fixture_seed = 20260814
    n_classes = 5
    counts = (0, 1)
    # A pass takes about 15 s; three give the median something to reject.
    min_passes = 3
    budget = 50
    expected_spans = (
        "pipeline", "stein.divergence", "stein.gram", "stein.gram_power",
        "embedding.build", "embedding.embed", "synthesis.generate",
        "synthesis.karcher", "classify.train", "classify.predict",
    )

    def describe(self):
        return (f"degradation_study: 5 classes x 40 SPD points, d=6, train_per_class=20, "
                f"paper_literal, sigma 2.5, counts {list(self.counts)}, budget {self.budget}")

    def setup(self, m, seed, workdir):
        points, labels = _cluster_points(m, 5, 6, 40, 2.0, 0.25, self.fixture_seed, seed)
        config = m["pipeline"].ExperimentConfig(
            reps=1, train_per_class=20, seed=seed,
            sigma=2.5, exponent_mode="paper_literal",
        )
        return points, labels, config

    def run_pass(self, m, inputs, workdir, probe):
        points, labels, config = inputs
        step, report = _library_step(
            "degradation_study",
            lambda: m["pipeline"].degradation_study(
                points, labels, config,
                excluded_class_counts=self.counts, synthetic_budget=self.budget,
            ),
            probe,
        )
        outcome = Outcome(steps=[step])
        if report is None:
            return outcome
        outcome.digest = _sha256(report.to_json().encode("ascii"))
        accuracies = [r.record.accuracy for r in report.records]
        outcome.accuracy = float(np.mean(accuracies))
        patterns = sum(math.comb(self.n_classes, c) for c in self.counts)
        if len(report.records) != 2 * patterns:
            outcome.problems.append(
                f"{len(report.records)} records, expected {2 * patterns}"
            )
        return outcome


class Images:
    name = "images"
    n_classes = 4
    min_passes = 2
    images_per_class = 6  # half train, half test
    size = 128
    grid = 2
    synth_count = 16
    # Stein divergences between these d=43 descriptors have a median near
    # 30; at the default sigma 0.5 every off-diagonal kernel value
    # underflows towards zero and eval scores at chance.
    sigma = 0.01
    expected_spans = (
        "cli", "pipeline", "descriptors.feature_map", "descriptors.covariance",
        "io.read", "io.write", "synthesis.generate", "synthesis.karcher",
        "stein.divergence", "stein.gram", "stein.gram_power", "embedding.build",
        "embedding.embed", "embedding.save", "embedding.load",
        "classify.train", "classify.predict",
    )

    @property
    def descriptors_per_half(self):
        return self.n_classes * self.images_per_class // 2 * self.grid * self.grid

    def describe(self):
        n = self.n_classes * self.images_per_class
        return (f"spdrose CLI: {n} grey {self.size}px oriented-noise PGMs, {self.n_classes} classes, "
                f"gabor43 on a {self.grid}x{self.grid} grid -> "
                f"{self.descriptors_per_half} + {self.descriptors_per_half} descriptors, d=43; "
                f"extract x2, synth --count {self.synth_count}, train --sigma {self.sigma}, eval")

    def setup(self, m, seed, workdir):
        """Write oriented smoothed-noise textures; class c is oriented at c*pi/4."""
        os.makedirs(workdir, exist_ok=True)
        fy = np.fft.fftfreq(self.size)[:, None]
        fx = np.fft.fftfreq(self.size)[None, :]
        halves = {"train": ([], []), "test": ([], [])}
        for i in range(self.n_classes * self.images_per_class):
            c = i % self.n_classes
            theta = np.pi * c / self.n_classes
            along = fx * np.cos(theta) + fy * np.sin(theta)
            across = -fx * np.sin(theta) + fy * np.cos(theta)
            noise = m["seeding"].keyed_generator(seed, i).standard_normal((self.size,) * 2)
            smooth = np.real(np.fft.ifft2(
                np.fft.fft2(noise) * np.exp(-(400.0 * along**2 + 40.0 * across**2))
            ))
            pixels = 0.5 + 0.15 * smooth / smooth.std()
            half = "train" if (i // self.n_classes) % 2 == 0 else "test"
            path = os.path.join(workdir, f"{half}_{i:03d}.pgm")
            m["io"].write_pgm(path, pixels)
            halves[half][0].append(path)
            halves[half][1].append(c)
        return seed, halves

    def run_pass(self, m, inputs, workdir, probe):
        seed, halves = inputs
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        out = {name: os.path.join(workdir, name) for name in ("train", "test", "synth", "model")}
        # (name, argv, manifest the command writes or None)
        commands = []
        for half in ("train", "test"):
            paths, labels = halves[half]
            commands.append(("extract", [
                "extract", *paths, "--features", "gabor43",
                "--rows", str(self.grid), "--cols", str(self.grid),
                "--labels", ",".join(str(v) for v in labels), "--out", out[half],
            ], os.path.join(out[half], "manifest.json")))
        train_manifest = os.path.join(out["train"], "manifest.json")
        commands.append(("synth", [
            "synth", "--data", train_manifest, "--count", str(self.synth_count),
            "--seed", str(seed), "--out", out["synth"],
        ], os.path.join(out["synth"], "manifest.json")))
        commands.append(("train", [
            "train", "--train", train_manifest, "--out", out["model"],
            "--sigma", str(self.sigma), "--seed", str(seed),
        ], None))
        commands.append(("eval", [
            "eval", "--model", out["model"],
            "--test", os.path.join(out["test"], "manifest.json"),
        ], None))

        outcome = Outcome()
        eval_stdout = b""
        for name, argv, manifest in commands:
            stdout, stderr = io.StringIO(), io.StringIO()

            def command():
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        return m["cli"].main(argv), stderr.getvalue().strip()
                except Exception as exc:  # a crash is a failed command, not a stop
                    return None, f"{type(exc).__name__}: {exc}"

            (code, detail), seconds, ref_seconds = probe.time(command)
            ok = code == 0
            if not ok and code is not None:
                detail = f"exit {code}: {detail}"
            outcome.steps.append(Step(name, seconds, ref_seconds, ok, detail))
            if ok:
                self._check(name, manifest, stdout.getvalue(), out, outcome)
            if name == "eval":
                eval_stdout = stdout.getvalue().encode("ascii")
        outcome.digest = _sha256(
            eval_stdout,
            _read_bytes(os.path.join(out["model"], "model.json")),
            _read_bytes(os.path.join(out["model"], "classifier.json")),
        )
        return outcome

    def _check(self, name, manifest, stdout, out, outcome):
        """Mark a command whose output is malformed as failed."""
        problem = None
        if manifest is not None:
            expected = self.synth_count if name == "synth" else self.descriptors_per_half
            entries = len(json.loads(_read_bytes(manifest) or b"{}").get("entries", []))
            if entries != expected:
                problem = f"{name}: {entries} entries, expected {expected}"
        elif name == "train":
            for file in ("model.json", "classifier.json"):
                if not os.path.isfile(os.path.join(out["model"], file)):
                    problem = f"train wrote no {file}"
        elif name == "eval":
            try:
                payload = json.loads(stdout)
                total, accuracy = int(payload["total"]), float(payload["accuracy"])
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"eval printed malformed JSON ({exc})"
            else:
                if total != self.descriptors_per_half or not 0.0 <= accuracy <= 1.0:
                    problem = f"eval scored {total} points at accuracy {accuracy}"
                outcome.accuracy = accuracy
        if problem:
            outcome.steps[-1].ok = False
            outcome.steps[-1].detail = problem
            outcome.problems.append(problem)


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


WORKLOADS = {w.name: w for w in (Experiment(), Degradation(), Images())}
