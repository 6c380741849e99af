"""Only relevance calls a model's log_predictive_mode_density.

The hook normalizes the prior-expected relevance score, and every score in
the package, the expert-prompt agreement included, goes through
relevance.prior_expected_relevance or refine_relevance.  A second caller
would be a second copy of that formula, so this walks each module under
src/relbayes with ast and fails on any call of the hook outside relevance.
"""

import ast
from pathlib import Path

import pytest

import relbayes

SRC = Path(relbayes.__file__).parent
HOOK = "log_predictive_mode_density"
CALLER = "relevance.py"


def _hook_calls(tree: ast.Module) -> list[int]:
    """Line of every call whose callee is named HOOK, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and HOOK in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_only_relevance_calls_the_normalizer(path):
    rel = path.relative_to(SRC).as_posix()
    calls = _hook_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    if rel == CALLER:
        assert calls, f"{rel} no longer calls {HOOK}"
    else:
        assert not calls, f"{rel} calls {HOOK} at lines {calls}"


def test_the_walk_sees_a_call():
    tree = ast.parse("m.log_predictive_mode_density(d, t, p, b)\n"
                     "log_predictive_mode_density(d)\n"
                     "x = m.log_predictive_mode_density is None\n")
    assert _hook_calls(tree) == [1, 2]
