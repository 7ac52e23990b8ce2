"""Span tracer that wraps spdrose functions from outside the package.

Each wrapped function becomes a span with a name of the form
``<layer>.<part>`` (or just ``<layer>``).  A span's self time is its
duration minus the durations of the spans it called directly, so the
self times of every span in a tree add up to the duration of its root.

Wrappers are installed where the caller looks the function up: a name
bound at import (``classify.stein_divergence``), a module attribute
(``classify.train_ova_svm``) or a dict entry (``pipeline.FEATURE_MODES``).
They are removed again after each traced pass, so untraced passes run
the unmodified program.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects span self times, call counts, counters and error kinds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []
        self._patches = []
        self.fired = set()
        self.reset()

    def reset(self):
        """Forget what one pass recorded; ``fired`` and the wrappers stay."""
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.errors = Counter()
        self.root_s = 0.0
        self._pair_keys = set()
        self._content_keys = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(tracer, result, args, kwargs)`` runs inside the span once
        ``fn`` has returned, to update counters.
        """
        clock = self.clock
        stack = self._stack

        def traced(*args, **kwargs):
            started = clock()
            frame = [0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result, args, kwargs)
                return result
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                duration = clock() - started
                stack.pop()
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                self.fired.add(name)
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration

        traced.__wrapped__ = fn
        return traced

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    # -- installing wrappers -------------------------------------------------

    def install(self, targets):
        """Wrap every ``(owner, key, span, after)`` target; returns unbound ones.

        ``owner`` is a module (``key`` names an attribute) or a dict of
        ``(kind, function)`` specs (``key`` names an entry).  A target
        whose name no longer exists is returned instead of raising, so
        the coverage guard can report the span it would have fed.
        """
        unbound = []
        for owner, key, span, after in targets:
            if isinstance(owner, dict):
                spec = owner.get(key)
                if spec is None or spec[1] is None:
                    unbound.append((span, key))
                    continue
                self._patches.append((owner, key, spec))
                owner[key] = (spec[0], self.wrap(span, spec[1], after))
            else:
                original = getattr(owner, key, None)
                if original is None:
                    unbound.append((span, f"{owner.__name__}.{key}"))
                    continue
                self._patches.append((owner, key, original))
                setattr(owner, key, self.wrap(span, original, after))
        return unbound

    def uninstall(self):
        """Put every original function back, last patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- counter helpers -------------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] += amount

    def keep_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def content_key(self, point):
        """Hash of an SPD point's entries, memoised per object while traced."""
        entry = self._content_keys.get(id(point))
        if entry is None:
            # The point is stored with its key so its id cannot be reused
            # by another object before the next reset.
            entry = (point, hash(point.array.tobytes()))
            self._content_keys[id(point)] = entry
        return entry[1]

    def note_pair(self, x, y):
        a, b = self.content_key(x), self.content_key(y)
        self._pair_keys.add((a, b) if a <= b else (b, a))

    @property
    def distinct_pairs(self) -> int:
        return len(self._pair_keys)


def missing_spans(tracer: Tracer, expected) -> list:
    """Expected span names that never fired since the tracer was created."""
    return sorted(set(expected) - tracer.fired)


# -- counter callbacks used by the target table --------------------------------


def _divergence(tracer, result, args, kwargs):
    x, y = args[0], args[1]
    tracer.note_pair(x, y)
    tracer.add("stein.divergence.ops_computed", x.dim ** 3)


def _points_arg(counter, position):
    def after(tracer, result, args, kwargs):
        tracer.add(counter, len(args[position]))
    return after


def _points_result(counter):
    def after(tracer, result, args, kwargs):
        tracer.add(counter, len(result))
    return after


def _karcher(tracer, result, args, kwargs):
    _, record = result
    tracer.add("synthesis.karcher.iterations", record.iterations)
    tracer.add("synthesis.karcher.failures", 0 if record.converged else 1)
    tracer.keep_max("synthesis.karcher.residual_max", record.residual)


def _feature_map(tracer, result, args, kwargs):
    image = args[0]
    tracer.add("descriptors.feature_map.pixels", image.height * image.width)


def _covariances(tracer, result, args, kwargs):
    tracer.add("descriptors.count", len(result) if isinstance(result, list) else 1)


def _file_bytes(counter):
    def after(tracer, result, args, kwargs):
        tracer.add(counter, os.path.getsize(args[0]))
    return after


def _single_run(tracer, result, args, kwargs):
    tracer.add("pipeline.single_runs")


def layer_targets(spdrose_modules):
    """Where ``pipeline`` and ``cli`` (and the modules they reach) bind each layer.

    ``spdrose_modules`` maps short module names to the imported modules.
    """
    m = spdrose_modules
    pipeline, cli, classify = m["pipeline"], m["cli"], m["classify"]
    embedding, stein, synthesis = m["embedding"], m["stein"], m["synthesis"]
    targets = [
        # stein: stein_kernel_value reaches the divergence through the
        # stein module; knn_stein through the name classify imported.
        (stein, "stein_divergence", "stein.divergence", _divergence),
        (classify, "stein_divergence", "stein.divergence", _divergence),
        (embedding, "gram_matrix", "stein.gram", None),
        (embedding, "gram_power", "stein.gram_power", None),
        # embedding
        (pipeline, "build_projection_model", "embedding.build", None),
        (cli, "build_projection_model", "embedding.build", None),
        (pipeline, "embed_batch", "embedding.embed", _points_arg("embedding.embed.points", 1)),
        (cli, "embed_batch", "embedding.embed", _points_arg("embedding.embed.points", 1)),
        (cli, "save_projection_model", "embedding.save", _file_bytes("io.bytes_written")),
        (cli, "load_projection_model", "embedding.load", _file_bytes("io.bytes_read")),
        # synthesis
        (pipeline, "generate_synthetic", "synthesis.generate", _points_result("synthesis.points")),
        (cli, "generate_synthetic", "synthesis.generate", _points_result("synthesis.points")),
        (synthesis, "karcher_mean_info", "synthesis.karcher", _karcher),
        # classify
        (classify, "train_ova_svm", "classify.train", None),
        (classify, "predict", "classify.predict", None),
        (classify, "knn_stein", "classify.knn", _points_arg("classify.knn.queries", 2)),
        # descriptors
        (pipeline, "grid_covariances", "descriptors.covariance", _covariances),
        (cli, "grid_covariances", "descriptors.covariance", _covariances),
        (pipeline, "region_covariance", "descriptors.covariance", _covariances),
        # io: matrix text files, images and the classifier JSON
        (pipeline, "read_matrix", "io.read", _file_bytes("io.bytes_read")),
        (pipeline, "read_pgm", "io.read", _file_bytes("io.bytes_read")),
        (pipeline, "read_ppm", "io.read", _file_bytes("io.bytes_read")),
        (cli, "read_pgm", "io.read", _file_bytes("io.bytes_read")),
        (cli, "read_ppm", "io.read", _file_bytes("io.bytes_read")),
        (pipeline, "write_matrix", "io.write", _file_bytes("io.bytes_written")),
        (classify, "save_classifier", "io.write", _file_bytes("io.bytes_written")),
        (classify, "load_classifier", "io.read", _file_bytes("io.bytes_read")),
        # pipeline and cli orchestration
        (pipeline, "run_experiment", "pipeline", None),
        (pipeline, "degradation_study", "pipeline", None),
        (pipeline, "_run_single", "pipeline", _single_run),
        (pipeline, "load_dataset", "pipeline", None),
        (pipeline, "save_dataset", "pipeline", None),
        (cli, "main", "cli", None),
    ]
    # Feature maps are held as function references in two dicts: the
    # pipeline's FEATURE_MODES and the CLI's copy of its image modes.
    for table in (pipeline.FEATURE_MODES, getattr(cli, "_IMAGE_MODES", {})):
        for mode, (kind, fn) in list(table.items()):
            if fn is not None:
                targets.append((table, mode, "descriptors.feature_map", _feature_map))
    return targets
