"""Every model evaluation goes through a checked entry point.

A model's log_likelihood returns raw cells, and a NaN among them would
silently poison a posterior or a Metropolis step.  models.loglik_tensor
(the cells) and models.loglik_sum (their sum) reject NaN, so they are the
only functions that may call the hook.  This walks each module under
src/relbayes with ast and fails on a call of log_likelihood anywhere else.
"""

import ast
from pathlib import Path

import pytest

import relbayes

SRC = Path(relbayes.__file__).parent
HOOK = "log_likelihood"
CALLER = "models.py"
ENTRY_POINTS = {"loglik_tensor", "loglik_sum"}


def _calls(tree: ast.Module, callee: str = HOOK) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of every call whose callee is
    named callee, bare or as an attribute; the function is None at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        if isinstance(node, ast.Call) and \
                callee in (getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_only_the_checked_entry_points_call_the_model(path):
    rel = path.relative_to(SRC).as_posix()
    calls = _calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    if rel == CALLER:
        assert {function for function, _ in calls} == ENTRY_POINTS, calls
    else:
        assert not calls, f"{rel} calls {HOOK} at {calls}"


def test_the_walk_sees_a_call():
    tree = ast.parse("def f(m):\n"
                     "    def g():\n"
                     "        return m.log_likelihood(d, t, p)\n"
                     "    return log_likelihood(d)\n"
                     "h = lambda m: m.log_likelihood(d, t, p)\n"
                     "m.log_likelihood(d, t, p)\n"
                     "m.proxy_log_likelihood(z, p)\n"
                     "x = m.log_likelihood is None\n")
    assert _calls(tree) == [("g", 3), ("f", 4), ("<lambda>", 5), (None, 6)]
