"""Shared fixtures: the acceptance report collector and a PLA warning recorder.

Acceptance tests record one human-readable PASS/FAIL line each; the lines
are echoed in a dedicated section of the terminal summary so they survive
pytest's output capture.
"""

import warnings

import numpy as np
import pytest

from hetnetcov import pla

_LINES: list[str] = []


@pytest.fixture
def acceptance_report():
    def record(line: str) -> None:
        _LINES.append(line)

    return record


@pytest.fixture
def pla_warnings(monkeypatch):
    """run -> (run(), what its PlaAccuracyWarnings carry, what its PLA calls flag).

    `pla.approx_gamma_kernel_integral` and `pla.check_kernel_regime` are
    wrapped for the test.  Each of the two lists holds one tuple per item, of
    (U, V, power, alpha, bound) tuples: one item per PlaAccuracyWarning
    raised, and one per (wrapped call, exponent) pair whose
    `pla.approx_kernel_error_bound` exceeds PLA_WARN_BOUND at some point,
    with its flagged points in order.  A run that warns exactly once per
    flagging pair, for exactly its flagged points, gives equal lists once
    sorted; `sum(items, ())` lists the points.  Other warnings are raised
    again, after the run.
    """
    flagging: list[tuple] = []

    def flags(call):
        def wrapped(u, v, power, alpha):
            powers = np.atleast_1d(power).tolist()
            bounds = np.reshape(pla.approx_kernel_error_bound(u, v, power, alpha),
                                (len(powers), -1))
            for p, bound in zip(powers, bounds):
                points = tuple((float(x), v, p, alpha, float(b))
                               for x, b in zip(np.atleast_1d(u), bound) if b > pla.PLA_WARN_BOUND)
                if points:
                    flagging.append(points)
            return call(u, v, power, alpha)

        return wrapped

    for name in ("approx_gamma_kernel_integral", "check_kernel_regime"):
        monkeypatch.setattr(pla, name, flags(getattr(pla, name)))

    def record(run):
        flagging.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run()
        warned = [tuple((u, w.message.v, w.message.power, w.message.alpha, b)
                        for u, b in zip(w.message.u, w.message.bound))
                  for w in caught if w.category is pla.PlaAccuracyWarning]
        for w in caught:  # any other warning goes on to the caller's filters
            if w.category is not pla.PlaAccuracyWarning:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result, warned, list(flagging)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
