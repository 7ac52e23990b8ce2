"""Shared generators for the test suite.

All randomness is drawn from explicitly seeded generators so every
test is reproducible in isolation; ``hypothesis`` runs under one
derandomized profile.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

import spdrose
from spdrose.manifold import SpdMatrix, symmetrize

# Property tests draw the same examples on every run, take as long as they
# need, and write no example database to disk.
settings.register_profile("spdrose", derandomize=True, deadline=None, database=None)
settings.load_profile("spdrose")


def blas_thread_env(threads):
    """Child-process environment: ``threads`` BLAS threads, this ``spdrose``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spdrose.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return env


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_spd(rng, dim, log_spread=2.0):
    """Random SPD matrix with eigenvalues exp(U[-log_spread, log_spread])."""
    q = random_orthogonal(rng, dim)
    eigenvalues = np.exp(rng.uniform(-log_spread, log_spread, size=dim))
    return SpdMatrix(symmetrize(q @ np.diag(eigenvalues) @ q.T))


def random_symmetric(rng, dim, scale=1.0):
    return symmetrize(rng.normal(scale=scale, size=(dim, dim)))


def wishart_cluster(center_sqrt, count, noise, rng):
    """Congruence-noise samples around ``center_sqrt @ center_sqrt.T``."""
    dim = center_sqrt.shape[0]
    points = []
    for _ in range(count):
        bump = np.eye(dim) + random_symmetric(rng, dim, scale=noise)
        points.append(SpdMatrix(symmetrize(center_sqrt @ bump @ center_sqrt.T)))
    return points


def two_cluster_pool(dim, per_cluster, noise, data_seed, log_center):
    """Two well-separated clusters sharing one seeded generator."""
    rng = np.random.default_rng(data_seed)
    first = wishart_cluster(np.eye(dim), per_cluster, noise, rng)
    second_sqrt = np.diag(np.exp(np.asarray(log_center) / 2.0))
    second = wishart_cluster(second_sqrt, per_cluster, noise, rng)
    return first + second


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


_ACCEPTANCE_OUTCOMES = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _ACCEPTANCE_OUTCOMES[report.nodeid.rsplit("::", 1)[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_OUTCOMES):
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
