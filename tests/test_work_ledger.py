"""A work ledger: exact counts of the per-row and per-point terms a run derives.

A recorded full pass keeps its point's gradient coefficient, Hessian weight and
``reg_lambda`` times the regularizer's value, gradient and diagonal, so a run
derives each of them once per recorded point; a gathered batch derives its own
coefficient and weight per call.  The counts depend only on the code path, not
on the host, so a change that loses a record hit shows here as an exact delta.
A change that moves a count on purpose updates the table and says why.
"""

from collections import Counter

import pytest

from strbench import problems
from strbench.datasets import generate_synthetic
from strbench.driver import RunConfig, run
from strbench.problems import from_dataset

# (kind, variant): iterations, sfo, sso, then the evaluations of the regularizer
# (one per part), of the link's gradient coefficient and of its Hessian weight.
# A run records the full pass at each of its 40 iterates and at x_final, where
# the certificate needs no value: 3 * 40 + 2 regularizer parts and 41
# coefficients.  Gathered Hessian batches add weights of their own.
EXPECTED = {
    ("nls_nc", "exact_tr"): (40, 12000, 12000, 122, 41, 41),
    ("nls_nc", "str1"): (40, 11792, 11040, 122, 41, 73),
    ("nls_nc", "str2"): (40, 21600, 23040, 122, 41, 81),
    ("nls_nc", "subsampled"): (40, 4800, 1200, 122, 41, 41),
    ("logistic_nc", "exact_tr"): (40, 12000, 12000, 122, 41, 41),
    ("logistic_nc", "str1"): (40, 16440, 18370, 122, 41, 76),
    ("logistic_nc", "str2"): (40, 21600, 30370, 122, 41, 84),
    ("logistic_nc", "subsampled"): (40, 4800, 1200, 122, 41, 41),
}

_KNOBS = {
    "exact_tr": {},
    "str1": {"mode": "practical", "kappa_grad": 0.01, "kappa_hess": 0.05},
    "str2": {"mode": "practical", "kappa_grad": 0.5, "kappa_hess": 0.05},
    "subsampled": {"sub_s1": 120, "sub_s2": 30},
}


def _counting(monkeypatch):
    """Counts of ``_regularizer``, ``grad_coef`` and ``hess_weight`` calls from
    here on; the wrappers return what they wrap."""
    counts = Counter()

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(problems, "_regularizer", counted("regularizer", problems._regularizer))
    for kind, link in list(problems._LINKS.items()):
        monkeypatch.setitem(problems._LINKS, kind, link._replace(
            grad_coef=counted("grad_coef", link.grad_coef),
            hess_weight=counted("hess_weight", link.hess_weight)))
    return counts


@pytest.mark.parametrize("kind,variant", list(EXPECTED))
def test_run_derives_each_recorded_term_once(monkeypatch, kind, variant):
    prob = from_dataset(generate_synthetic(300, 8, seed=4), kind)
    cfg = RunConfig(variant=variant, epsilon=1e-3, K_override=40, seed=7, **_KNOBS[variant])
    counts = _counting(monkeypatch)
    result = run(variant, prob, cfg)
    got = (len(result.trace), result.counters.sfo, result.counters.sso,
           counts["regularizer"], counts["grad_coef"], counts["hess_weight"])
    assert got == EXPECTED[kind, variant]
