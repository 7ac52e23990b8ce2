"""spdrose benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  BLAS is pinned to one
thread before numpy loads.

A run sets the seeded inputs up ``SETUP_REPS`` times (``setup_s`` is the
median), then repeats passes on them until the next pass would end after
``--seconds`` (at least the workload's ``min_passes``).  Every pass must give the same
output digest; the digest is compared with the one ``oracle.json``
records for this workload and seed, and a mismatch prints
``report_changed`` without counting as a failure.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self times
and counters per traced pass (mean over traced passes), the tracing
overhead, and the CLI command times of the untraced passes.  It also
runs the tracer self-tests, the coverage guard, and the BLAS-thread
determinism check: one pass in a child process with two BLAS threads
must give the same digest.

The last line of standard output is the result JSON; the lines before
it are a human-readable summary and the environment stamp.

``--record-oracle`` runs one pass and stores its digest in
``oracle.json`` under the workload and seed; re-record only in a change
that alters report bytes on purpose and says so.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
ORACLE_PATH = os.path.join(BENCH_DIR, "oracle.json")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 11
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "degradation", "images"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads for this process (default 1)")
    parser.add_argument("--digest-only", action="store_true",
                        help="run one pass and print only its output digest")
    parser.add_argument("--record-oracle", action="store_true",
                        help="run one pass and store its digest in oracle.json")
    return parser.parse_args(argv)


ARGS = parse_args() if __name__ == "__main__" else None
if ARGS is not None:
    for _name in BLAS_ENV:
        os.environ[_name] = str(ARGS.blas_threads)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402


def load_spdrose():
    """Import the checkout's package; exit 2 if the source is not there."""
    package = os.path.join(SRC, "spdrose")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no spdrose sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import importlib

    modules = {}
    for name in ("pipeline", "cli", "classify", "embedding", "stein", "synthesis",
                 "clusters", "seeding", "io", "descriptors"):
        modules[name] = importlib.import_module(f"spdrose.{name}")
    found = os.path.dirname(os.path.abspath(modules["pipeline"].__file__))
    if found != package:
        print(f"error: imported spdrose from {found}, not {package}", file=sys.stderr)
        sys.exit(2)
    return modules


def environment(blas_threads):
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    lines = 0
    for folder, _, files in os.walk(SRC):
        for file in files:
            if file.endswith(".py"):
                with open(os.path.join(folder, file), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": lines,
    }


def load_oracle():
    with open(ORACLE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def oracle_status(workload, seed, digest):
    recorded = load_oracle()["sha256"].get(workload.name, {}).get(str(seed))
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digest else "report_changed"


def timed_setups(m, workload, seed, workdir, probe):
    """Set the seeded inputs up SETUP_REPS times; keep the last inputs.

    Returns the inputs, the raw set-up times, and the same times at
    reference speed.
    """
    raw, ref = [], []
    inputs = None
    for i in range(SETUP_REPS):
        target = os.path.join(workdir, f"inputs-{i}")
        inputs, seconds, ref_seconds = probe.time(lambda: workload.setup(m, seed, target))
        raw.append(seconds)
        ref.append(ref_seconds)
        if i:
            shutil.rmtree(os.path.join(workdir, f"inputs-{i - 1}"), ignore_errors=True)
    return inputs, raw, ref


def run_passes(seconds, min_passes, one_pass):
    """Call ``one_pass`` until the next call would end after ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(one_pass())
        took = time.perf_counter() - before
        elapsed = time.perf_counter() - started
        if len(results) >= min_passes and elapsed + took > seconds:
            return results


# -- per-layer metrics ------------------------------------------------------------

SELF_SPANS = (
    "stein.divergence", "stein.gram", "stein.gram_power",
    "embedding.build", "embedding.embed", "embedding.save", "embedding.load",
    "synthesis.generate", "synthesis.karcher",
    "classify.train", "classify.predict", "classify.knn",
    "descriptors.feature_map", "descriptors.covariance",
    "io.read", "io.write", "pipeline", "cli",
)
COUNTERS = (
    "stein.divergence.ops_computed", "embedding.embed.points", "synthesis.points",
    "synthesis.karcher.iterations", "synthesis.karcher.failures",
    "classify.knn.queries", "descriptors.feature_map.pixels", "descriptors.count",
    "io.bytes_read", "io.bytes_written", "pipeline.single_runs",
)
CLI_COMMANDS = ("extract", "synth", "train", "eval")


def layer_snapshot(tracer):
    """Per-layer metrics of one traced pass."""
    snap = {f"{span}.self_s": tracer.self_s.get(span, 0.0) for span in SELF_SPANS}
    calls = tracer.calls["stein.divergence"]
    snap["stein.divergence.calls"] = calls
    snap["stein.divergence.distinct_pairs"] = tracer.distinct_pairs
    snap["stein.divergence.useful_ratio"] = tracer.distinct_pairs / calls if calls else 0.0
    snap["stein.gram.calls"] = tracer.calls["stein.gram"]
    snap["classify.train.calls"] = tracer.calls["classify.train"]
    for name in COUNTERS:
        snap[name] = tracer.counts[name]
    snap["synthesis.karcher.residual_max"] = tracer.maxima.get(
        "synthesis.karcher.residual_max", 0.0)
    snap["trace.wall_s"] = tracer.root_s
    return snap


def command_medians(outcomes):
    """Median seconds of each successful CLI command, with the sample count."""
    medians = {}
    for command in CLI_COMMANDS:
        times = [s.seconds for o in outcomes for s in o.steps if s.name == command and s.ok]
        medians[command] = (statistics.median(times) if times else 0.0, len(times))
    return medians


def per_layer_metrics(snaps, untraced_walls, commands):
    means = {k: statistics.fmean(s[k] for s in snaps) for k in snaps[0] if k != "errors"}
    metrics = {}
    for key, value in means.items():
        if key.endswith("_s"):
            unit = "s"
        elif key.endswith("useful_ratio"):
            unit = "fraction"
        elif key.endswith("residual_max"):
            unit = "norm"
        elif key.startswith("io.bytes"):
            unit = "bytes"
        else:
            unit = "count"
        metrics[key] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": means["trace.wall_s"] - statistics.fmean(untraced_walls), "unit": "s"}
    for command, (value, _) in commands.items():
        metrics[f"cli.{command}_s"] = {"value": value, "unit": "s"}
    return metrics


# -- running -----------------------------------------------------------------------


def main(args):
    m = load_spdrose()
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    try:
        if args.digest_only or args.record_oracle:
            inputs = workload.setup(m, args.seed, os.path.join(workdir, "inputs"))
            pass_dir = os.path.join(workdir, "pass")
            digest = workload.run_pass(m, inputs, pass_dir, speed.SpeedProbe()).digest
            if args.record_oracle:
                record_digest(workload, args.seed, digest)
            print(f"digest {digest}")
            return 0
        return measure(args, m, tracing, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def measure(args, m, tracing, workload, workdir):
    problems = []
    probe = speed.SpeedProbe()
    inputs, setup_raw, setup_times = timed_setups(m, workload, args.seed, workdir, probe)
    pass_dir = os.path.join(workdir, "pass")

    def untraced():
        return workload.run_pass(m, inputs, pass_dir, probe)

    if args.trace:
        problems += [f"self-test: {p}" for p in tracing_self_test()]
        tracer = tracing.Tracer()
        targets = tracing.layer_targets(m)
        boundary_probe = speed.SpeedProbe(sample_during=False)
        snaps, unbound = [], set()

        def traced():
            tracer.reset()
            unbound.update(tracer.install(targets))
            try:
                outcome = workload.run_pass(m, inputs, pass_dir, boundary_probe)
            finally:
                tracer.uninstall()
            gap = abs(tracer.total_self_s() - tracer.root_s)
            if gap > 1e-6 * max(tracer.root_s, 1.0):
                problems.append(f"self times sum to {tracer.total_self_s()!r}, "
                                f"traced wall is {tracer.root_s!r}")
            snap = layer_snapshot(tracer)
            snap["errors"] = dict(tracer.errors)
            snaps.append(snap)
            return outcome

        pairs = run_passes(args.seconds, 1, lambda: (untraced(), traced()))
        outcomes = [o for pair in pairs for o in pair]
        plain = [pair[0] for pair in pairs]
        missing = tracing.missing_spans(tracer, workload.expected_spans)
        if missing:
            problems.append(f"coverage: spans never fired: {', '.join(missing)}; "
                            f"unbound wrappers: {sorted(unbound) or 'none'}")
        threads = min(2, len(os.sched_getaffinity(0)))
        child = child_digest(workload, args.seed, threads)
        if child != outcomes[0].digest:
            problems.append(f"BLAS determinism: digest {outcomes[0].digest} at 1 thread, "
                            f"{child} at {threads}")
    else:
        outcomes = run_passes(args.seconds, workload.min_passes, untraced)
        plain = outcomes

    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        problems.append(f"passes on the same inputs gave {len(digests)} different outputs")
    status = oracle_status(workload, args.seed, outcomes[0].digest)
    accuracies = [o.accuracy for o in outcomes if o.accuracy is not None]
    accuracy = statistics.median(accuracies) if accuracies else 0.0
    if accuracy <= 1.0 / workload.n_classes:
        problems.append(f"accuracy {accuracy} is not above chance (1/{workload.n_classes})")
    for outcome in outcomes:
        problems += outcome.problems
    attempted = sum(len(o.steps) for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    walls = [o.ref_wall_s for o in plain]
    raw_walls = [o.wall_s for o in plain]

    print(f"workload {workload.name}  seed {args.seed}  closed loop, 1 client, "
          f"BLAS threads {args.blas_threads}")
    print(f"  inputs: {workload.describe()}")
    print(f"  report sha256 {outcomes[0].digest}  oracle: {status}")
    if status == "report_changed":
        print(f"report_changed: {workload.name} seed {args.seed} output differs from "
              f"oracle.json", file=sys.stderr)
    for line in failure_lines(outcomes):
        print(line)

    if args.trace:
        metrics = per_layer_metrics(snaps, raw_walls, command_medians(plain))
        metrics["classify.accuracy"] = {"value": accuracy, "unit": "fraction"}
        print_layers(metrics, snaps)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted, "unit": "fraction"},
        }
        print(f"  {'accuracy':<13} {accuracy:.6g} fraction  (reported as classify.accuracy "
              f"in traced runs)")
        notes = {"wall_s": f"median of {len(walls)} passes at reference speed "
                           f"(raw median {statistics.median(raw_walls):.6g} s)",
                 "setup_s": f"median of {len(setup_times)} set-ups at reference speed "
                            f"(raw median {statistics.median(setup_raw):.6g} s)",
                 "success_rate": f"{attempted - failed} of {attempted} operations"}
        for name, metric in metrics.items():
            print(f"  {name:<13} {metric['value']:.6g} {metric['unit']}  {notes.get(name, '')}")
        if workload.name == "images":
            for command, (value, n) in command_medians(outcomes).items():
                shown = f"{value:.6g} s" if n else "n/a"
                print(f"  {command + '_s':<13} {shown}  median of {n} successful command(s)")
    print(f"  correct: {not problems}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(args.blas_threads), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def failure_lines(outcomes):
    kinds = {}
    for outcome in outcomes:
        for step in outcome.steps:
            if not step.ok:
                key = (step.name, step.detail.splitlines()[0] if step.detail else "")
                kinds[key] = kinds.get(key, 0) + 1
    return [f"  FAILED {name} x{count}: {detail}" for (name, detail), count in kinds.items()]


def print_layers(metrics, snaps):
    wall = metrics["trace.wall_s"]["value"]
    print(f"  traced passes: {len(snaps)}; per-pass means; traced wall {wall:.6g} s")
    for name, metric in metrics.items():
        share = ""
        if name.endswith(".self_s") and wall > 0:
            share = f"  {100.0 * metric['value'] / wall:5.1f}%"
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}{share}")
    errors = {}
    for snap in snaps:
        for key, n in snap["errors"].items():
            errors[key] = errors.get(key, 0) + n
    for (span, kind), n in sorted(errors.items()):
        print(f"  ERROR {span} raised {kind} x{n}")


def tracing_self_test():
    import selftest

    return selftest.run()


def child_digest(workload, seed, threads):
    """Digest of one pass in a child process with ``threads`` BLAS threads."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
             "--seed", str(seed), "--digest-only", "--blas-threads", str(threads)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "child timed out"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("digest "):
        return f"child failed (exit {done.returncode}): {done.stderr.strip()[-300:]}"
    return lines[-1].split()[1]


def record_digest(workload, seed, digest):
    oracle = load_oracle()
    oracle["sha256"].setdefault(workload.name, {})[str(seed)] = digest
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(ARGS))
