"""The output comparison and digest tools on small trees."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_outputs  # noqa: E402


def _write(root: Path, files: dict) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return root


def _report(tmp_path, parent: dict, change: dict):
    return compare_outputs.compare_trees(
        _write(tmp_path / "parent", parent), _write(tmp_path / "change", change)
    )


BASE = {
    "exit_codes.txt": "0 check_diag21_i1\n2 check_rot_i1\n",
    "run/multicone.json": {
        "radius": 0.00869,
        "components": [[0, 1, 2]],
        "verdict": {"kind": "dominated"},
        "note": "eps=0.00869: margin 0.0012",
    },
    "run/table.csv": "0,1,0.25,0.5\n1,1,0.75,0.125\n",
    "example.json": {"lambda": 32.0, "passed": True, "margin": 0.0478},
}


def test_identical_trees_are_same(tmp_path):
    lines, moved = _report(tmp_path, BASE, BASE)
    assert not moved
    assert all(line.startswith("same") for line in lines[:-1])
    assert lines[-1] == "4 same, 0 changed, 0 added, 0 removed; 0 gate changes"


def test_numeric_moves_report_largest_difference(tmp_path):
    change = dict(BASE)
    change["run/multicone.json"] = {
        "radius": 0.00104,
        "components": [[0, 2], [1]],
        "verdict": {"kind": "dominated"},
        "note": "eps=0.00104: margin 0.0011",
    }
    change["run/table.csv"] = "0,1,0.25,0.5\n1,1,0.75,0.1255\n"
    change["example.json"] = {"lambda": 32.0, "passed": True, "margin": 0.0461}
    lines, moved = _report(tmp_path, BASE, change)
    assert not moved
    text = "\n".join(lines)
    assert "changed  example.json  max|delta| 0.0017 at margin" in text
    assert "changed  run/multicone.json  max|delta| 0.00765 at radius" in text
    assert "discrete components: length 1 -> 2" in text
    assert "discrete components[0]" not in text
    assert "changed  run/table.csv  max|delta| 0.0005 at line 2" in text
    assert "GATE" not in text


def test_gate_values_and_file_sets_are_flagged(tmp_path):
    change = {k: v for k, v in BASE.items() if k != "run/table.csv"}
    change["exit_codes.txt"] = "0 check_diag21_i1\n1 check_rot_i1\n"
    change["example.json"] = {"lambda": 16.0, "passed": False, "margin": 0.0478}
    change["run/multicone.json"] = dict(BASE["run/multicone.json"], verdict={"kind": "inconclusive"})
    change["new.json"] = {}
    lines, moved = _report(tmp_path, BASE, change)
    assert moved
    _, files_only = _report(tmp_path / "files", BASE, {k: v for k, v in BASE.items() if k != "example.json"})
    assert not files_only
    text = "\n".join(lines)
    assert "GATE line 2: '2 check_rot_i1' -> '1 check_rot_i1'" in text
    assert "GATE lambda: 32.0 -> 16.0" in text
    assert "GATE passed: True -> False" in text
    assert "GATE verdict.kind: 'dominated' -> 'inconclusive'" in text
    assert "removed  run/table.csv" in text and "added    new.json" in text
    assert lines[-1] == "0 same, 3 changed, 1 added, 1 removed; 4 gate changes"


@pytest.mark.parametrize("key", ["passed", "lambda"])
def test_dropped_gate_key_is_a_gate_change(key, tmp_path, capsys):
    change = dict(BASE, **{"example.json": {k: v for k, v in BASE["example.json"].items() if k != key}})
    _write(tmp_path / "parent", BASE)
    _write(tmp_path / "change", change)
    assert compare_outputs.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "    GATE keys ['lambda', 'margin', 'passed'] -> " in out
    assert out.splitlines()[-1] == "3 same, 1 changed, 0 added, 0 removed; 1 gate changes"


def test_dropped_plain_key_is_discrete(tmp_path, capsys):
    audited = dict(BASE["run/multicone.json"], semiconvexity_audit=[])
    parent = dict(BASE, **{"run/multicone.json": audited})
    _write(tmp_path / "parent", parent)
    _write(tmp_path / "change", BASE)
    assert compare_outputs.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    out = capsys.readouterr().out
    assert "    discrete keys ['components', 'note', 'radius', 'semiconvexity_audit', 'verdict'] -> " in out
    assert "GATE" not in out
    assert out.splitlines()[-1] == "3 same, 1 changed, 0 added, 0 removed; 0 gate changes"


def _output_digest(monkeypatch):
    # the tool puts src/ and bench/ on the path; the test's path is restored
    monkeypatch.setattr(sys, "path", list(sys.path))
    import output_digest

    return output_digest


@pytest.mark.parametrize("planted", [None, "NaN", "Infinity", "-Infinity"])
def test_output_digest_refuses_non_strict_json(planted, monkeypatch, tmp_path, capsys):
    # the runs are replaced by a small tree; every file is still hashed, and
    # a .json holding a non-JSON constant fails the tool, naming the file
    tool = _output_digest(monkeypatch)
    files = {"a/report.json": '{"margin": 0.5, "values": [1, 2]}', "table.csv": "NaN,1\n"}
    if planted is not None:
        files["b/multicone.json"] = f'{{"margin": {planted}}}'
    monkeypatch.setattr(tool, "run_all", lambda out: _write(out, files))
    code = tool.main([str(tmp_path / "tree")])
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == len(files)
    if planted is None:
        assert code == 0 and err == ""
    else:
        assert code == 1
        assert err == f"not strict JSON: b/multicone.json: non-JSON token {planted}\n"
