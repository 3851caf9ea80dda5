"""Report serialization: canonical JSON, text rendering, round trips."""

import json

import numpy as np
import pytest

from hardylab.reports import Report, emit_report


def sample_report(**overrides):
    fields = dict(
        scenario_id="demo",
        command="check-beurling",
        caps=(4, 4),
        tolerance=1e-8,
        seed=3,
        residuals={"beurling_defect_product": 0.0, "xij": 2.5e-16},
        verdicts={"beurling_defect_product": True, "xij": True},
        details={"note": "round trip"},
    )
    fields.update(overrides)
    return Report(**fields)


def test_json_round_trip_is_lossless():
    r = sample_report()
    assert json.loads(emit_report(r, fmt="json")) == r.to_dict()


def test_json_round_trip_with_error_status():
    r = sample_report(residuals={}, verdicts={}, status="error: no symbol")
    back = json.loads(emit_report(r))
    assert back == r.to_dict()
    assert back["status"] == "error: no symbol"
    assert not r.ok


def test_empty_residual_map_serializes_as_empty_object():
    r = sample_report(residuals={}, verdicts={})
    doc = json.loads(emit_report(r))
    assert doc["residuals"] == {}
    assert doc["verdicts"] == {}


def test_json_bytes_do_not_depend_on_insertion_order():
    a = sample_report(residuals={"x": 1.0, "a": 2.0}, verdicts={})
    b = sample_report(residuals={"a": 2.0, "x": 1.0}, verdicts={})
    assert emit_report(a) == emit_report(b)


def test_runtime_never_reaches_json():
    fast = sample_report(runtime_seconds=0.001)
    slow = sample_report(runtime_seconds=9.5)
    assert emit_report(fast) == emit_report(slow)
    assert b"runtime" not in emit_report(fast)


def test_runtime_shows_in_text():
    r = sample_report(runtime_seconds=0.25)
    rendered = emit_report(r, fmt="text").decode()
    assert "runtime 0.250s" in rendered
    assert "pass" in rendered


def test_text_marks_failures():
    r = sample_report(verdicts={"xij": False}, residuals={"xij": 0.5})
    assert "FAIL" in emit_report(r, fmt="text").decode()


def test_compact_json_is_single_line():
    payload = emit_report(sample_report(), fmt="json", compact=True)
    assert payload.endswith(b"\n")
    assert payload.count(b"\n") == 1
    assert b": " not in payload


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        emit_report(sample_report(), fmt="yaml")


def test_every_verdict_needs_a_residual():
    with pytest.raises(ValueError, match="matching residual"):
        sample_report(verdicts={"mystery": True}, residuals={})


def test_numpy_scalars_and_complex_coerce():
    r = sample_report(
        residuals={"v": np.float64(0.5)},
        verdicts={"v": np.bool_(True)},
        details={"point": 1 + 2j, "counts": np.array([1, 2])},
    )
    doc = json.loads(emit_report(r))
    assert doc["residuals"]["v"] == 0.5
    assert doc["verdicts"]["v"] is True
    assert doc["details"]["point"] == [1.0, 2.0]
    assert doc["details"]["counts"] == [1, 2]


def test_unserializable_detail_raises():
    r = sample_report(details={"bad": object()})
    with pytest.raises(TypeError, match="serialize"):
        emit_report(r)


def test_float_repr_survives_round_trip():
    value = 1.4623308103126345e-3
    r = sample_report(residuals={"tail": value}, verdicts={})
    assert json.loads(emit_report(r))["residuals"]["tail"] == value
