"""PYTHIA-RECORD intake: validation happens before the grammar sees an event."""

from __future__ import annotations

import pytest

from repro.core.record import PythiaRecord
from repro.obs import metrics as obs_metrics


@pytest.fixture
def fresh_registry():
    prev = obs_metrics.get_registry()
    reg = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield reg
    obs_metrics.set_registry(prev)


def test_rejected_timestamp_leaves_no_event():
    rec = PythiaRecord(record_timestamps=True)
    rec.record(0, 1.0)
    rec.record(1, 2.0)
    with pytest.raises(ValueError):
        rec.record(0, 0.5)
    assert rec.event_count == 2
    trace = rec.finish()
    assert trace.event_count == 2
    assert trace.grammar.unfold() == [0, 1]


def test_missing_timestamp_leaves_no_event():
    rec = PythiaRecord(record_timestamps=True)
    rec.record(0, 1.0)
    with pytest.raises(ValueError):
        rec.record(1)
    assert rec.event_count == 1
    assert rec.finish().grammar.unfold() == [0]


def test_rejected_terminal_leaves_no_timestamp():
    rec = PythiaRecord(record_timestamps=True)
    rec.record(0, 1.0)
    with pytest.raises(TypeError):
        rec.record(True, 2.0)  # type: ignore[arg-type]
    rec.record(1, 1.5)
    trace = rec.finish()
    assert trace.event_count == 2
    assert trace.timing is not None


def test_loop_events_counter(fresh_registry):
    rec = PythiaRecord()
    body = [0, 1, 2, 3]
    for t in body * 50:
        rec.record(t)
    rec.finish()
    absorbed = fresh_registry.counter("pythia_record_loop_events_total").value
    assert absorbed == rec.grammar.loop_events
    # all but the first few iterations skip the Sequitur step
    assert absorbed >= len(body) * 45
    events = fresh_registry.counter("pythia_record_events_total").value
    assert events == 200
