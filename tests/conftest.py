import numpy as np
import pytest

from strbench.datasets import generate_synthetic
from strbench.driver import make_estimators, run_inexact_tr
from strbench.problems import from_dataset, quadratic_problem


@pytest.fixture(scope="session")
def small_logistic():
    ds = generate_synthetic(60, 8, seed=11)
    return from_dataset(ds, "logistic_nc", reg_lambda=1e-3, reg_alpha=10.0)


@pytest.fixture(scope="session")
def small_nls():
    ds = generate_synthetic(60, 8, seed=12)
    return from_dataset(ds, "nls_nc", reg_lambda=1e-3, reg_alpha=10.0)


@pytest.fixture(scope="session")
def quad_problem():
    return quadratic_problem(12, 5, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def recording():
    """``recording(estimator, points)`` wraps an estimator callable so that each
    call appends a copy of its point to ``points``.  Wrapped around a run's
    gradient estimator, it records the run's path ``x_0, x_1, ...``: every
    iterate the loop evaluates, which is all but the last post-step one."""

    def wrap(estimator, points):
        def fn(x, counters):
            points.append(x.copy())
            return estimator(x, counters)

        return fn

    return wrap


@pytest.fixture(scope="session")
def run_path(recording):
    """``run_path(problem, config)`` is ``run(config.variant, problem, config)``
    that also returns the run's whole path: every iterate, ``x_0`` first and
    ``x_final`` last."""

    def run(problem, config):
        g_fn, h_fn = make_estimators(config.variant, problem, config,
                                     np.random.default_rng(config.seed))
        points = []
        result = run_inexact_tr(problem, config, recording(g_fn, points), h_fn)
        return result, points + [result.x_final]

    return run
