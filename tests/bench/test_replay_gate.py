"""``scripts/check_replay_gate.py``: the CI gate on a traced replay sweep."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "check_replay_gate.py"
_spec = importlib.util.spec_from_file_location("check_replay_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _result(correct=True, failed=0, engine_calls=0, replayed=156):
    return {
        "correct": correct,
        "attempted": 91,
        "failed": failed,
        "metrics": {
            "engine.calls": {"value": engine_calls, "unit": "count"},
            "replay.phases_replayed": {"value": replayed, "unit": "count"},
        },
    }


def _write(tmp_path, result):
    out = tmp_path / "gate.out"
    out.write_text("per-layer table\n" + json.dumps(result) + "\n", encoding="utf-8")
    return str(out)


def test_passes_on_full_replay(tmp_path, capsys):
    assert gate.main([_write(tmp_path, _result())]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [
    dict(correct=False, failed=1),
    dict(engine_calls=12),
    dict(replayed=104),
])
def test_fails_on_any_count(tmp_path, bad):
    assert gate.main([_write(tmp_path, _result(**bad))]) == 1


def test_fails_without_result_line(tmp_path):
    out = tmp_path / "gate.out"
    out.write_text("INVALID RUN\n", encoding="utf-8")
    assert gate.main([str(out)]) == 1
