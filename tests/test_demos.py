"""The scripts under demos/ and the README's quick start run to the end
and write no file.

Each runs in a fresh namespace, as `python demos/<name>.py` would, from an
empty working directory; afterwards the working directory must still be
empty and no file under the repository may have been added, removed or
modified (interpreter byte-code caches aside).
"""

import os
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
README = ROOT / "README.md"


def _tree(root: Path) -> dict:
    """Every file under root with its size and modification time, byte-code
    caches and tool caches left out."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in ("__pycache__", ".git", ".pytest_cache", ".hypothesis")]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.stat()
            out[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def _run_clean(run, tmp_path, monkeypatch, capsys) -> str:
    """Call run() from the empty tmp_path, check that it wrote no file, and
    return what it printed."""
    monkeypatch.chdir(tmp_path)
    before = _tree(ROOT)
    run()
    assert _tree(ROOT) == before
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().out


def _run_demo(name, tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.setattr("sys.argv", [str(DEMOS / name)])
    return _run_clean(lambda: runpy.run_path(str(DEMOS / name), run_name="__main__"),
                      tmp_path, monkeypatch, capsys)


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    """The README's one python block runs as written and prints the classic
    and the weighted theta marginal, one array each."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          flags=re.M | re.S)
    code = compile(block, str(README), "exec")
    out = _run_clean(lambda: exec(code, {"__name__": "__main__"}),
                     tmp_path, monkeypatch, capsys)
    assert out.count("[") == 2 and out.count("]") == 2


def test_transfer_vs_classic(tmp_path, monkeypatch, capsys):
    out = _run_demo("transfer_vs_classic.py", tmp_path, monkeypatch, capsys)
    assert "advantage (weighted - classic)" in out


def test_exact_diagnostics_walkthrough(tmp_path, monkeypatch, capsys):
    out = _run_demo("exact_diagnostics_walkthrough.py", tmp_path, monkeypatch, capsys)
    assert "bound holds" in out


@pytest.mark.slow
def test_contamination_sweep(tmp_path, monkeypatch, capsys):
    out = _run_demo("contamination_sweep.py", tmp_path, monkeypatch, capsys)
    assert len([line for line in out.splitlines() if line.strip().endswith("%")]) == 4
