"""Acceptance criteria, one test per criterion.

Each test runs the corresponding suite criterion (seeded, wall-clock limited)
and records its `[PASS|FAIL] name: detail (elapsed, limit)` line; the lines
are printed together in the terminal summary. Time limits are part of the
criteria: a slow pass is a failure.
"""

import pytest

from jordanmaps.suite import _CRITERIA, run_one

# every criterion of the suite, so none can be added without a test here
CRITERIA = [name for name, _, _ in _CRITERIA]


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name, acceptance_lines):
    result = run_one(name, seed=0)
    acceptance_lines.append(result.line())
    assert result.passed, result.line()
