"""Shared fixtures: the heavyweight simulation runs used by several tests,
and the dense form of stage 2's four-value rows.

The session-scoped fixtures below are lazy; they only execute when a test
that requests them is selected, so ``-m "not slow"`` keeps the suite fast.
Acceptance tests append one line per criterion to ``ACCEPTANCE_LINES`` and
the terminal-summary hook prints them at the end of the run.
"""

import functools
import time

import numpy as np
import pytest

from modalband.simulate import SimConfig, run_experiment
from modalband.spline import _bspline_rows

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dense_rows(first, values, columns):
    """The dense rows that are zero outside columns first ... first + 3, where
    they hold the four ``values``."""
    rows = np.zeros((len(first), columns))
    np.put_along_axis(rows, np.asarray(first)[:, None] + np.arange(4), values, axis=1)
    return rows


def bspline_rows(x, basis):
    """The segments + 3 cubic B-splines at each x, as dense rows."""
    x = np.asarray(x, dtype=float)
    seg = basis.segment_index(x)
    return dense_rows(seg, _bspline_rows(basis, seg, x - basis.knots[seg]), basis.segments + 3)


def rows_by_lambda(rows, method):
    """Map penalty value -> aggregated row for one method arm."""
    return {row.lam: row for row in rows if row.method == method}


@pytest.fixture(scope="session")
def dist1_experiment():
    """Distribution 1, n=1000, 50 replications over the full penalty grid."""
    config = SimConfig(dist=1, n=1000, replications=50, seed=0)
    t0 = time.perf_counter()
    rows = run_experiment(config)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def dist2_experiment():
    """Distribution 2, n=3000, 50 replications at the single penalty 1e-1."""
    config = SimConfig(
        dist=2, n=3000, replications=50, lambdas=(1e-1,), seed=0,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def timing_experiment():
    """Per-stage mean seconds at each sample size, single penalty, 3 reps."""
    stage_means = {}
    for n in (500, 1000, 2000, 3000):
        config = SimConfig(
            dist=1, n=n, replications=3, lambdas=(1e-2,), seed=0,
        )
        row = run_experiment(config)[0]
        stage_means[n] = (row.step1_mean, row.step2_mean)
    return stage_means


@pytest.fixture(scope="session")
def size_sweep():
    """Proposed-method aggregates across sample sizes at penalty 1e-2."""
    rows = {}
    for n in (500, 1000, 2000, 3000):
        config = SimConfig(
            dist=1, n=n, replications=16, lambdas=(1e-2,), seed=0,
        )
        rows[n] = run_experiment(config)[0]
    return rows


@pytest.fixture
def grid_builds(monkeypatch):
    """Every basis whose grid-only matrices were built, one entry per build,
    under the name of each ``SplineBasis`` cached property: the B-spline map
    ``null_space``, the ``penalty`` P'QP and the ``noncross`` rows GP."""
    from modalband.spline import SplineBasis

    calls = {}
    for name in ("null_space", "penalty", "noncross"):
        calls[name] = []
        build = SplineBasis.__dict__[name].func

        def counted(basis, build=build, seen=calls[name]):
            seen.append(basis)
            return build(basis)

        prop = functools.cached_property(counted)
        prop.__set_name__(SplineBasis, name)
        monkeypatch.setattr(SplineBasis, name, prop)
    return calls
