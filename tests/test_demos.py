"""The scripts under demos/ run to the end and write no file.

Each runs in a fresh namespace, as `python demos/<name>.py` would, from an
empty working directory; afterwards the working directory must still be
empty and no file under the repository may have been added, removed or
modified (interpreter byte-code caches aside).
"""

import os
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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


def _run_demo(name, tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", [str(DEMOS / name)])
    before = _tree(ROOT)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert _tree(ROOT) == before
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().out


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
