"""The zero-weight rule is written in one function.

A zero relevance weight drops its observation's term outright, even where
the log-likelihood is -inf, since 0 * -inf is nan in floats.
inference._zero_weight_safe applies that rule for both grid engines and the
diagnostics, and finding the -inf terms is its work alone.  This walks each
module under src/relbayes with ast and fails on a call of isneginf anywhere
else.
"""

import ast
from pathlib import Path

import pytest

import relbayes
from test_loglik_callers import _calls

SRC = Path(relbayes.__file__).parent
CALLEE = "isneginf"
MODULE, HELPER = "inference.py", "_zero_weight_safe"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_only_the_helper_looks_for_neginf_terms(path):
    rel = path.relative_to(SRC).as_posix()
    calls = _calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), CALLEE)
    if rel == MODULE:
        assert {function for function, _ in calls} == {HELPER}, calls
    else:
        assert not calls, f"{rel} calls {CALLEE} at {calls}"


def test_the_walk_sees_isneginf():
    tree = ast.parse("import numpy as np\n"
                     "def f(x):\n"
                     "    return np.where(np.isneginf(x), 0.0, x)\n"
                     "isneginf(y)\n"
                     "z = np.isneginf\n")
    assert _calls(tree, CALLEE) == [("f", 3), (None, 4)]
