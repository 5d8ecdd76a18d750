"""``benchmarks/reachability.py`` refuses to report on a tree edited mid-run.

The script matches recorded code objects to the ``def`` lines it parsed
when the run started; an edit made while it runs would shift those lines
and report reached functions as unreached.  These tests drive ``main`` on a
temporary tree with the (minutes-long) measured loop replaced.
"""

import importlib.util
import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def reachability(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO_ROOT / "benchmarks" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    src = tmp_path / "repro"
    (src / "sim").mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "sim" / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return 2\n")
    monkeypatch.setattr(module, "SRC", str(src))
    return module, src


def _run(module, src, edit):
    """``main([])`` with a measured loop that reaches ``used`` and, when
    ``edit`` is set, rewrites ``sim/mod.py`` meanwhile."""
    path = src / "sim" / "mod.py"

    def record_calls():
        if edit:
            path.write_text("# edited\n" + path.read_text())
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        return {(os.path.realpath(path), 1)}

    module.record_calls = record_calls
    return module.main([])


def test_edit_during_the_run_refuses_to_report(reachability, capsys):
    module, src = reachability
    assert _run(module, src, edit=True) == 2
    out, err = capsys.readouterr()
    assert os.path.join("repro", "sim", "mod.py") in err
    assert "unused" not in out and "total" not in out


def test_unedited_tree_reports(reachability, capsys):
    module, src = reachability
    assert _run(module, src, edit=False) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "repro/sim/mod.py" in out.replace(os.sep, "/")


def test_added_and_removed_files_count_as_changed(reachability):
    module, src = reachability
    before = module.source_mtimes(str(src))
    (src / "new.py").write_text("")
    (src / "__init__.py").unlink()
    assert module.changed_sources(before, str(src)) == [
        os.path.join("repro", "__init__.py"), os.path.join("repro", "new.py")]
