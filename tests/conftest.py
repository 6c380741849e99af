"""Fixtures shared by every test module."""

import pytest

from relbayes.harness import runner


@pytest.fixture(autouse=True)
def fresh_gp_learner():
    """Each test starts with no memoised gp learner, so a count of kernel
    factorisations does not depend on which tests ran before it in the same
    process."""
    runner._gp_learner.cache_clear()
