import itertools
import math

import numpy as np
import pytest

from strbench.datasets import generate_synthetic
from strbench.estimators import (
    GradEstimatorState,
    GradSchedule,
    HessEstimatorState,
    HessSchedule,
    corrected_step,
    gradient_schedule_case1,
    gradient_schedule_case2,
    hessian_estimate_step,
    hessian_schedule,
    spider_step,
)
from strbench.problems import (
    OracleCounters,
    from_dataset,
    full_gradient,
    full_hessian,
    quadratic_problem,
)


class FixedDraws:
    """rng stand-in replaying a prescribed sequence of index multisets."""

    def __init__(self, *batches):
        self.batches = [np.asarray(b, dtype=np.intp) for b in batches]
        self.calls = 0

    def integers(self, low, high, size=None):
        batch = self.batches[self.calls]
        self.calls += 1
        assert len(batch) == size
        assert batch.min() >= low and batch.max() < high
        return batch


@pytest.fixture(scope="module")
def logistic20():
    ds = generate_synthetic(50, 6, seed=31)
    return from_dataset(ds, "logistic_nc")


# -- schedules -----------------------------------------------------------------


def test_hessian_schedule_frozen_values():
    # n=10000, d=100, eps=1e-2, L1=L2=1, delta=0.1, K0=1000
    # log(d K0 / delta) = ln(1e6) = 13.815510557964274
    sched_i = hessian_schedule(10000, 100, 1e-2, 1.0, 1.0, 0.1, 1000, force_option="I")
    assert sched_i.p2 == 100
    assert sched_i.s2 == 10000  # ceil(3200 * 13.8155...) = 44210, capped at n
    uncapped = hessian_schedule(10**8, 100, 1e-2, 1.0, 1.0, 0.1, 1000, force_option="I")
    assert uncapped.s2 == math.ceil(32 * 10**4 * math.log(100 * 1000 / 0.1))
    sched_ii = hessian_schedule(10000, 100, 1e-2, 1.0, 1.0, 0.1, 1000, force_option="II")
    assert sched_ii.p2 == 5  # ceil(1 / (2 sqrt(1e-2)))
    assert sched_ii.s2 == 4421  # ceil(320 * 13.8155...)
    assert sched_ii.s2_prime == 10000  # ceil(1600 * 13.8155...) = 22105, capped
    # амortized 2 s2: option II (8842) beats option I (20000)
    auto = hessian_schedule(10000, 100, 1e-2, 1.0, 1.0, 0.1, 1000)
    assert auto.option == "II"


def test_hessian_schedule_option_selection_flip():
    # L1/sqrt(eps L2) < sqrt(n) makes option II cheaper, matching log factors
    small_ratio = hessian_schedule(10_000, 10, 1.0, 1.0, 1.0, 0.1, 10)
    assert 1.0 / math.sqrt(1.0) < math.sqrt(10_000)
    assert small_ratio.option == "II"
    big_ratio = hessian_schedule(16, 10, 1e-8, 10.0, 1.0, 0.1, 10)
    assert 10.0 / math.sqrt(1e-8) > math.sqrt(16)
    assert big_ratio.option == "I"


def test_hessian_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        hessian_schedule(100, 5, 0.0, 1.0, 1.0, 0.1, 10)
    with pytest.raises(ValueError):
        hessian_schedule(100, 5, 1e-2, 1.0, 1.0, 1.5, 10)
    with pytest.raises(ValueError):
        hessian_schedule(100, 5, 1e-2, 1.0, 1.0, 0.1, 10, kappa=0.0)


def test_case1_frozen_values():
    # n=1e6, eps=1e-2, L1=L2=1, delta=0.1, K0=100: log = ln(1000) = 6.907755...
    sched = gradient_schedule_case1(1_000_000, 1e-2, 1.0, 1.0, 0.1, 100)
    assert sched.s1 == 892062  # ceil(sqrt(1152e6 * 6.907755.../1e-2))
    assert sched.p1 == 2  # ceil(sqrt(1e4 / 7957.73...)) = ceil(1.1210)
    assert sched.case == 1


def test_case1_saturation_full_gradient():
    # c L1^2 log(K0/delta) / (eps L2) >= n forces s1 = n, p1 = 1
    sched = gradient_schedule_case1(100, 1e-3, 1.0, 1.0, 0.1, 1000)
    assert sched.s1 == 100
    assert sched.p1 == 1


def test_case1_amortization_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(10, 10_000_000))
        eps = 10.0 ** rng.uniform(-6, -1)
        L1 = 10.0 ** rng.uniform(-1, 1)
        L2 = 10.0 ** rng.uniform(-1, 1)
        K0 = int(rng.integers(2, 100_000))
        sched = gradient_schedule_case1(n, eps, L1, L2, 0.1, K0)
        if sched.s1 < n:
            assert sched.s1 * sched.p1 >= n


def test_case1_practical_rescales_epoch():
    sched = gradient_schedule_case1(1000, 1e-3, 1.0, 1.0, 0.1, 100, kappa=0.002)
    assert 1 <= sched.s1 < 1000
    assert sched.s1 * sched.p1 >= 1000


def test_case2_frozen_values():
    # constructed so log(K0/delta) == 1
    delta = 2.0 / math.e
    sched = gradient_schedule_case2(16, delta, 2)
    assert sched.p1 == 2
    assert sched.s1 == 16  # min(16, ceil(8 * 1152 * 1))
    big = gradient_schedule_case2(100_000_000, delta, 2)
    assert big.p1 == 100
    assert big.s1 == 100_000_000  # capped at n


def test_case2_sizes_always_positive():
    for n in (1, 2, 7, 31):
        sched = gradient_schedule_case2(n, 0.5, 10)
        assert sched.p1 >= 1 and 1 <= sched.s1 <= n


# -- step behavior -------------------------------------------------------------


def test_hessian_step_constant_hessian_identity():
    prob = quadratic_problem(10, 4, seed=0)
    sched = HessSchedule("I", p2=3, s2=2, s2_prime=None)
    state = HessEstimatorState(schedule=sched)
    rng = np.random.default_rng(0)
    c = OracleCounters()
    x = np.zeros(4)
    for k in range(7):
        H = hessian_estimate_step(state, prob, x, c, rng)
        assert np.array_equal(H, np.eye(4))
        x = x + rng.standard_normal(4) * 0.1


def test_hessian_step_zero_displacement(logistic20):
    sched = HessSchedule("I", p2=5, s2=3, s2_prime=None)
    state = HessEstimatorState(schedule=sched)
    rng = np.random.default_rng(1)
    c = OracleCounters()
    x = np.full(logistic20.d, 0.2)
    h0 = hessian_estimate_step(state, logistic20, x, c, rng)
    h1 = hessian_estimate_step(state, logistic20, x, c, rng)
    assert np.array_equal(h0, h1)


def test_hessian_step_counters_and_epoch(logistic20):
    n = logistic20.n
    sched = HessSchedule("II", p2=3, s2=4, s2_prime=7)
    state = HessEstimatorState(schedule=sched)
    rng = np.random.default_rng(2)
    c = OracleCounters()
    x = np.zeros(logistic20.d)
    deltas = []
    for k in range(6):
        before = c.sso
        hessian_estimate_step(state, logistic20, x, c, rng)
        deltas.append(c.sso - before)
    assert deltas == [7, 8, 8, 7, 8, 8]  # s2' at epoch start, 2 s2 inside


def test_spider_zero_displacement(logistic20):
    sched = GradSchedule(case=1, p1=4, s1=5)
    state = GradEstimatorState(schedule=sched)
    rng = np.random.default_rng(3)
    c = OracleCounters()
    x = np.full(logistic20.d, -0.1)
    g0 = spider_step(state, logistic20, x, c, rng)
    g1 = spider_step(state, logistic20, x, c, rng)
    assert np.array_equal(g0, g1)
    assert c.sfo == logistic20.n + 2 * 5


def test_spider_full_cover_telescopes(logistic20):
    n, d = logistic20.n, logistic20.d
    sched = GradSchedule(case=1, p1=4, s1=n)
    state = GradEstimatorState(schedule=sched)
    cover = np.random.default_rng(4).permutation(n)  # each component exactly once
    rng = FixedDraws(cover)
    c = OracleCounters()
    x0 = np.zeros(d)
    spider_step(state, logistic20, x0, c, np.random.default_rng(0))  # exact reset
    x1 = x0 + 0.05
    g1 = spider_step(state, logistic20, x1, c, rng)
    exact = full_gradient(logistic20, x1, OracleCounters())
    assert np.allclose(g1, exact, atol=1e-14)


def test_corrected_exact_on_quadratic():
    prob = quadratic_problem(12, 3, seed=6)
    sched = GradSchedule(case=2, p1=5, s1=2)
    state = GradEstimatorState(schedule=sched)
    rng = np.random.default_rng(7)
    c = OracleCounters()
    x = np.zeros(3)
    for k in range(9):
        g = corrected_step(state, prob, x, c, rng)
        exact = full_gradient(prob, x, OracleCounters())
        assert np.allclose(g, exact, atol=1e-13)
        x = x + 0.3 * rng.standard_normal(3)


def test_corrected_zero_displacement_zero_correction(logistic20):
    sched = GradSchedule(case=2, p1=4, s1=6)
    state = GradEstimatorState(schedule=sched)
    rng = np.random.default_rng(8)
    c = OracleCounters()
    x = np.full(logistic20.d, 0.3)
    g0 = corrected_step(state, logistic20, x, c, rng)
    g1 = corrected_step(state, logistic20, x, c, rng)
    assert np.allclose(g0, g1, atol=1e-15)


def test_corrected_counters(logistic20):
    n = logistic20.n
    sched = GradSchedule(case=2, p1=3, s1=4)
    state = GradEstimatorState(schedule=sched)
    rng = np.random.default_rng(9)
    c = OracleCounters()
    x = np.zeros(logistic20.d)
    corrected_step(state, logistic20, x, c, rng)
    assert (c.sfo, c.sso) == (n, n)  # exact reset caches gradient + Hessian
    corrected_step(state, logistic20, x + 0.1, c, rng)
    assert (c.sfo, c.sso) == (n + 8, n + 4)  # 2 s1 first-order, s1 second-order


def test_corrected_requires_cached_hessian(logistic20):
    sched = GradSchedule(case=2, p1=3, s1=4)
    state = GradEstimatorState(
        schedule=sched, k_in_epoch=1,
        g_prev=np.zeros(logistic20.d), x_prev=np.zeros(logistic20.d),
    )
    with pytest.raises(RuntimeError):
        corrected_step(state, logistic20, np.ones(logistic20.d),
                       OracleCounters(), np.random.default_rng(0))


def test_case_mismatch_rejected(logistic20):
    s1 = GradEstimatorState(schedule=GradSchedule(case=1, p1=2, s1=2))
    with pytest.raises(ValueError):
        corrected_step(s1, logistic20, np.zeros(logistic20.d),
                       OracleCounters(), np.random.default_rng(0))
    s2 = GradEstimatorState(schedule=GradSchedule(case=2, p1=2, s1=2))
    with pytest.raises(ValueError):
        spider_step(s2, logistic20, np.zeros(logistic20.d),
                    OracleCounters(), np.random.default_rng(0))


# -- unbiasedness by exhaustive enumeration -------------------------------------


def test_spider_one_step_unbiased_enumeration():
    """Conditional on the state, averaging over every multiset draw recovers
    the true gradient difference plus the carried estimate."""
    ds = generate_synthetic(5, 3, seed=41)
    prob = from_dataset(ds, "logistic_nc")
    n, s1 = prob.n, 2
    x_prev = np.array([0.1, -0.2, 0.3])
    x_new = x_prev + np.array([0.05, 0.02, -0.04])
    g_prev = full_gradient(prob, x_prev, OracleCounters()) + np.array([1e-3, 0.0, -2e-3])
    acc = np.zeros(3)
    count = 0
    for draw in itertools.product(range(n), repeat=s1):
        state = GradEstimatorState(
            schedule=GradSchedule(case=1, p1=10, s1=s1),
            k_in_epoch=1, g_prev=g_prev.copy(), x_prev=x_prev.copy(),
        )
        g = spider_step(state, prob, x_new, OracleCounters(), FixedDraws(list(draw)))
        acc += g
        count += 1
    mean = acc / count
    truth = (
        full_gradient(prob, x_new, OracleCounters())
        - full_gradient(prob, x_prev, OracleCounters())
        + g_prev
    )
    assert np.allclose(mean, truth, atol=1e-12)


def test_hessian_one_step_unbiased_enumeration():
    ds = generate_synthetic(4, 2, seed=43)
    prob = from_dataset(ds, "logistic_nc")
    n, s2 = prob.n, 2
    x_prev = np.array([0.2, 0.1])
    x_new = x_prev + np.array([-0.03, 0.06])
    H_prev = full_hessian(prob, x_prev, OracleCounters()) + np.diag([1e-3, -1e-3])
    acc = np.zeros((2, 2))
    count = 0
    for draw in itertools.product(range(n), repeat=s2):
        state = HessEstimatorState(
            schedule=HessSchedule("I", p2=10, s2=s2, s2_prime=None),
            k_in_epoch=1, H_prev=H_prev.copy(), x_prev=x_prev.copy(),
        )
        H = hessian_estimate_step(state, prob, x_new, OracleCounters(), FixedDraws(list(draw)))
        acc += H
        count += 1
    truth = (
        full_hessian(prob, x_new, OracleCounters())
        - full_hessian(prob, x_prev, OracleCounters())
        + H_prev
    )
    assert np.allclose(acc / count, truth, atol=1e-12)


# -- same-multiset discipline and replay ----------------------------------------


def test_same_multiset_replay(logistic20):
    """One rng draw per sampled step; replaying it reproduces the estimate."""
    n = logistic20.n
    sched = GradSchedule(case=1, p1=4, s1=7)
    state = GradEstimatorState(schedule=sched)
    rng = np.random.default_rng(77)
    c = OracleCounters()
    x0 = np.zeros(logistic20.d)
    g0 = spider_step(state, logistic20, x0, c, rng)
    x1 = x0 + 0.1
    g1 = spider_step(state, logistic20, x1, c, rng)
    # replay: same seed, skip no draws (epoch start drew nothing)
    idx = np.random.default_rng(77).integers(0, n, size=7)
    from strbench.problems import batch_gradient

    expect = (
        batch_gradient(logistic20, x1, idx, OracleCounters())
        - batch_gradient(logistic20, x0, idx, OracleCounters())
        + g0
    )
    assert np.array_equal(g1, expect)


def test_epoch_reset_zero_error(logistic20):
    x = np.full(logistic20.d, 0.4)
    for sched, step in [
        (GradSchedule(case=1, p1=3, s1=2), spider_step),
        (GradSchedule(case=2, p1=3, s1=2), corrected_step),
    ]:
        state = GradEstimatorState(schedule=sched)
        g = step(state, logistic20, x, OracleCounters(), np.random.default_rng(0))
        assert np.allclose(g, full_gradient(logistic20, x, OracleCounters()), atol=1e-15)
    hstate = HessEstimatorState(schedule=HessSchedule("I", p2=3, s2=2, s2_prime=None))
    H = hessian_estimate_step(hstate, logistic20, x, OracleCounters(), np.random.default_rng(0))
    assert np.allclose(H, full_hessian(logistic20, x, OracleCounters()), atol=1e-15)


@pytest.mark.parametrize("kind", ["logistic_nc", "nls_nc"])
@pytest.mark.parametrize("step,schedule", [
    (spider_step, GradSchedule(case=1, p1=3, s1=9)),
    (corrected_step, GradSchedule(case=2, p1=3, s1=9)),
    (hessian_estimate_step, HessSchedule("I", p2=3, s2=9, s2_prime=None)),
])
def test_recurrent_step_gathers_its_multiset_once(monkeypatch, kind, step, schedule):
    prob = from_dataset(generate_synthetic(50, 6, seed=31), kind, reg_lambda=1e-3)
    blocks = []
    rows = prob._rows

    def recording_rows(x, idx):
        out = rows(x, idx)
        blocks.append(out.X)
        return out

    monkeypatch.setattr(prob, "_rows", recording_rows)
    state = (GradEstimatorState if isinstance(schedule, GradSchedule)
             else HessEstimatorState)(schedule=schedule)
    S = np.array([0, 4, 4, 17, 23, 23, 23, 41, 49])
    c = OracleCounters()
    x = np.full(prob.d, 0.2)
    step(state, prob, x, c, FixedDraws())  # epoch start: full batch, no draw
    before = c.snapshot()
    blocks.clear()
    step(state, prob, x + 0.1, c, FixedDraws(S))
    # both endpoints (and case 2's correction at x_ref) read one gathered block
    calls = 3 if step is corrected_step else 2
    assert len(blocks) == calls
    assert all(b is blocks[0] for b in blocks)
    assert np.array_equal(blocks[0], prob.X[S])
    grown = tuple(a - b for a, b in zip(c.snapshot(), before))
    s = len(S)
    assert grown == {spider_step: (2 * s, 0, 0), corrected_step: (2 * s, s, 0),
                     hessian_estimate_step: (0, 2 * s, 0)}[step]
