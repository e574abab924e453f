"""``tools/output_grid.py compare A B`` on hand-made grid directories."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_grid.py"


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("output_grid", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


BASE = {"a.csv": "m,bias,note\n64,0.5,x\n128,0.25,y\n",
        "a.csv.json": '{"config": {"seed": "1"}, "v": [1.0, 2.0]}\n',
        "a.exit": "0\n", "a.stderr": ""}


def test_identical_grids_compare_equal(grid, tmp_path, capsys):
    a, b = _write(tmp_path / "a", BASE), _write(tmp_path / "b", BASE)
    assert grid.compare(a, b) == 0
    assert capsys.readouterr().out == "4 of 4 files byte-identical\n"


def test_numbers_only_report_rows_and_largest_differences(grid, tmp_path,
                                                          capsys):
    a = _write(tmp_path / "a", BASE)
    b = _write(tmp_path / "b", {
        **BASE, "a.csv": "m,bias,note\n64,0.5,x\n128,0.2500000001,y\n",
        "a.csv.json": '{"config": {"seed": "1"}, "v": [1.0, 2.5]}\n'})
    assert grid.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a.csv: numbers only in rows 2"
    assert out[1] == "  bias: largest relative difference 4e-10"
    assert out[2] == "a.csv.json: numbers only"
    assert out[3] == "  /v/1: largest relative difference 0.2"
    assert out[-1] == "2 of 4 files byte-identical"


@pytest.mark.parametrize("name, text, report", [
    ("a.csv", "m,bias,note\n64,0.5,x\n128,0.25,z\n",
     "a.csv: text differs: note of row 2: 'y' -> 'z'"),
    ("a.csv", "m,bias,note\n64,0.5,x\n", "a.csv: shape differs"),
    ("a.exit", "3\n", "a.exit: exit code 0 -> 3"),
    ("a.stderr", "SketchTooSmall\n", "a.stderr: text differs"),
])
def test_other_differences_are_named(grid, tmp_path, capsys, name, text,
                                     report):
    a = _write(tmp_path / "a", BASE)
    b = _write(tmp_path / "b", {**BASE, name: text})
    assert grid.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines()[0] == report


def test_a_missing_file_is_named(grid, tmp_path, capsys):
    a = _write(tmp_path / "a", BASE)
    b = _write(tmp_path / "b", {k: v for k, v in BASE.items()
                                if k != "a.stderr"})
    assert grid.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"a.stderr: only in {a}"


def test_a_closed_reader_ends_compare_quietly(tmp_path):
    # ``compare A B | head``: the reader is gone before the report is
    # written, so every write to stdout fails with EPIPE
    a = _write(tmp_path / "a", BASE)
    b = _write(tmp_path / "b", {**BASE, "a.exit": "3\n"})
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(_TOOL), "compare",
                               str(a), str(b)],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_a_missing_grid_exits_2(grid, tmp_path, capsys):
    # 0 and 1 say whether two grids agree; a grid that is not there is
    # neither, and a caller that accepts 1 must not accept it
    a = _write(tmp_path / "a", BASE)
    assert grid.main(["compare", str(a), str(tmp_path / "b")]) == 2
    assert capsys.readouterr() == ("", f"no grid directory {tmp_path / 'b'}\n")
