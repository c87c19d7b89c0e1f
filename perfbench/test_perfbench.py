"""Tests of the benchmark's own parts: generator, scoring, tracer and host-speed scaling.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")]

from perfbench import hostspeed as H  # noqa: E402
from perfbench import streams as S  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.tracer import Tracer, load_aggregate  # noqa: E402


def test_same_seed_gives_identical_streams():
    for app in ("amg", "quicksilver", "bt"):
        assert S.capture(app, "small", 7).records == S.capture(app, "small", 7).records


def test_other_seed_changes_the_irregular_streams():
    for app in ("amg", "quicksilver"):
        a = S.capture(app, "small", 7)
        b = S.capture(app, "small", 8)
        assert a.records != b.records
        assert a.thread_events() != b.thread_events()


def test_records_follow_simulated_global_order():
    stream = S.capture("amg", "small", 3)
    times = [t for _rank, _name, _payload, t in stream.records]
    assert times == sorted(times)
    assert any(name is S.SYNC for _r, name, _p, _t in stream.records)
    assert {r for r, *_rest in stream.records} == set(range(stream.ranks))


def test_capture_cap_keeps_an_event_prefix():
    full = S.capture("bt", "small", 1)
    capped = S.capture("bt", "small", 1, max_events=10)
    assert capped.event_count() == 10
    assert capped.records == full.records[: len(capped.records)]


def test_score_counts_next_event_hits_per_thread():
    # two threads, sync point in between; terminals 1,2,1 on t0 and 5,5 on t1
    records = [(0, "a", 0, 0.0), (1, "x", 0, 0.1), (0, "b", 0, 0.2),
               (0, S.SYNC, "barrier", 0.3), (1, "x", 0, 0.4), (0, "a", 0, 0.5)]
    stream = S.Stream("t", "small", 0, 2, records)
    terms = [1, 5, 2, -1, 5, 1]
    preds = {0: [(2,), (3,), (None,)], 1: [(5,), (None,)]}
    # t0: pred after 1 is 2 (hit), after 2 is 3 (miss); t1: 5 (hit)
    assert W._score(stream, terms, preds) == (2, 3)


def test_tracer_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        return inner() + inner()

    outer = tracer.wrap("outer", outer_fn)
    assert outer() == 2 * sum(range(20000))
    agg = tracer.aggregate()
    calls, total, self_ns = agg[("outer", Tracer.REGULAR)]
    icalls, itotal, iself = agg[("inner", Tracer.REGULAR)]
    assert (calls, icalls) == (1, 2)
    assert itotal == iself
    assert self_ns == total - itotal
    path = str(tmp_path / "spans.bin")
    assert tracer.dump(path) == 3
    assert load_aggregate(path) == agg


def test_host_speed_takes_each_timings_fastest_pass_then_the_median():
    speed = H.HostSpeed()
    for times in ([10, 40, 30], [20, 10, 60], [30, 50, 20]):
        speed.start_pass()
        speed.passes[-1].extend(times)
    # per-position minima 10, 10, 20
    assert speed.fastest_ns() == 10
    assert speed.median_ns() == 30
    assert abs(speed.kernel_ns() - 10 ** H.FASTEST_WEIGHT * 30 ** (1 - H.FASTEST_WEIGHT)) < 1e-9
    speed.start_pass()
    speed.sample()
    assert len(speed.passes[-1]) == H.REPS
    assert speed.cpu_s > 0


def test_scaled_times_follow_their_unit():
    res = W.Result(scale=0.5)
    res.put("t_us", 10.0, "us", 1)
    res.put("rate", 100.0, "1/s", 1)
    res.put("ratio", 0.9, "ratio", 1)
    res.put_setup([(4, 1.0), (2, 2.0), (8, 3.0)])
    assert res.metrics["t_us"][0] == 5.0
    assert res.metrics["rate"][0] == 200.0
    assert res.metrics["ratio"][0] == 0.9
    assert res.metrics["setup_s"][0] == 2.0e-9
    assert res.measured == {"t_us": 10.0, "rate": 100.0, "setup_s": 4.0e-9}


def test_benchmark_json_matches_the_metric_tables():
    from perfbench import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _names in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_rest in run.PER_LAYER
    ]
