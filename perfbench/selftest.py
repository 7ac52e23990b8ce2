"""Fast self-tests of the tracer's self-time arithmetic and patching.

    python3 perfbench/selftest.py

A scripted clock makes every duration exact, so the checks compare
with ``==``.  ``run()`` returns a list of failure messages (empty when
all pass); traced benchmark runs call it and report any failure.
"""

from __future__ import annotations

import sys
import types

from tracer import Tracer, missing_spans


class ScriptedClock:
    """A clock that only moves when a test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _nested_spans():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(3.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(2.0)
        traced_leaf()

    def root():
        clock.advance(4.0)
        traced_middle()
        clock.advance(0.5)

    traced_leaf = tracer.wrap("stein.divergence", leaf)
    traced_middle = tracer.wrap("embedding.embed", middle)
    tracer.wrap("pipeline", root)()
    expected = {"stein.divergence": 6.0, "embedding.embed": 3.0, "pipeline": 4.5}
    checks = [
        (dict(tracer.self_s) == expected, f"self times {dict(tracer.self_s)} != {expected}"),
        (tracer.root_s == 13.5, f"root time {tracer.root_s} != 13.5"),
        (tracer.total_self_s() == tracer.root_s, "self times do not add up to the root"),
        (tracer.calls["stein.divergence"] == 2, "leaf calls not counted"),
    ]
    return [message for ok, message in checks if not ok]


def _recursion_and_errors():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)
        else:
            raise ValueError("bottom")

    traced = tracer.wrap("pipeline", recurse)
    try:
        traced(2)
    except ValueError:
        pass
    else:
        return ["the wrapped exception was swallowed"]
    failures = []
    if tracer.self_s["pipeline"] != 3.0 or tracer.root_s != 3.0:
        failures.append(f"recursive self time {tracer.self_s['pipeline']}, root {tracer.root_s}")
    if tracer.errors[("pipeline", "ValueError")] != 3:
        failures.append(f"error kinds {dict(tracer.errors)}")
    if tracer._stack:
        failures.append("span stack not empty after an exception")
    return failures


def _install_round_trip():
    module = types.ModuleType("fake")
    module.work = lambda x: x + 1
    original = module.work
    table = {"mode": ("gray-image", original), "plain": ("matrix", None)}
    tracer = Tracer(ScriptedClock())
    unbound = tracer.install([
        (module, "work", "embedding.embed", None),
        (table, "mode", "descriptors.feature_map", None),
        (module, "gone", "classify.train", None),
    ])
    failures = []
    if unbound != [("classify.train", "fake.gone")]:
        failures.append(f"unbound targets {unbound}")
    if module.work(1) != 2 or table["mode"][1](1) != 2:
        failures.append("wrapped functions changed their results")
    if tracer.calls["embedding.embed"] != 1 or tracer.calls["descriptors.feature_map"] != 1:
        failures.append("wrappers did not fire")
    missing = missing_spans(tracer, ("embedding.embed", "classify.train"))
    if missing != ["classify.train"]:
        failures.append(f"coverage guard reported {missing}")
    tracer.uninstall()
    if module.work is not original or table["mode"][1] is not original:
        failures.append("uninstall did not restore the originals")
    return failures


def run():
    failures = []
    for test in (_nested_spans, _recursion_and_errors, _install_round_trip):
        failures += [f"{test.__name__}: {message}" for message in test()]
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failure(s)")
    sys.exit(1 if problems else 0)
