"""The three workloads: record, predict and serve.

Every workload drives the oracle through its public API only, on
streams from :mod:`perfbench.streams`, and fills a :class:`Result`:
end-to-end metrics, per-layer metrics (traced run only), per-phase op
accounting and correctness checks.

Latencies are per call, timed with ``perf_counter_ns`` around the public
call.  A call that raises counts as failed and enters the latency
distribution as :data:`FAILED`, so it misses any latency limit.

The end-to-end run repeats the same work in identical passes
(:data:`PASSES` per workload: fresh oracles, same streams, same calls)
and keeps, for every call, its fastest pass; percentiles and means are
taken over those per-call minima.  The CPU speed of a shared machine
drifts by up to 2x over a few seconds, and the per-call minimum across
passes that run seconds apart removes the drift within a run.  A call
that failed in any pass stays failed.  The traced run makes one untraced pass, then one
traced pass.

Every time is reported scaled to the reference host of
:mod:`perfbench.hostspeed`, whose kernel is timed every
:data:`SAMPLE_EVERY` events of a pass, and around every set-up: a slow
spell of a shared host can outlast a whole run, and per-call minima
cannot remove it.  The report prints the measured values beside the
scaled ones.

Once the inputs exist they are frozen out of the garbage collector's
reach (:func:`gc.freeze`), and every pass starts after a full
collection, so that the collector's work during a pass is the oracle's
own and is the same in every pass.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns, process_time

from repro.core.events import Event
from repro.core.oracle import Pythia
from repro.core.trace_file import load_trace
from repro.obs import metrics as obs_metrics
from repro.server.client import PythiaClient

from perfbench import streams as S
from perfbench.daemon import Daemon
from perfbench.hostspeed import REFERENCE_NS, HostSpeed
from perfbench.tracer import Tracer, load_aggregate

#: prediction distances of the MPI shim's far queries at sync points
FAR_DISTANCES = (4, 16, 64)
#: extra executions of each irregular app in the record workload
RECORD_EXTRA_SEEDS = 3
#: identical passes of the end-to-end run, per workload
PASSES = {"record": 5, "predict": 6, "serve": 6}
#: events between two host-speed samples, per workload: about 80
#: sample points per pass
SAMPLE_EVERY = {"record": 2000, "predict": 400, "serve": 100}
#: event cap of each recorded execution (a prefix in simulated order)
RECORD_MAX_EVENTS = 30_000
#: per-app event caps of the replayed streams, per second of ``--seconds``
PREDICT_EVENTS_PER_S = 200
SERVE_EVENTS_PER_S = 50
#: record set-up repetitions per pass (set-up is ~20 us per oracle)
RECORD_SETUP_REPS = 11
#: predict set-up repetitions per pass
PREDICT_SETUP_REPS = 3
PIPELINE_WINDOW = 32

#: latency recorded for a failed call (ns)
FAILED = 2**62

#: units scaled by :attr:`Result.scale`, and their exponent
TIME_UNITS = {"s": 1, "ms": 1, "us": 1, "1/s": -1}


@dataclass
class Phase:
    """Op accounting of one phase, summed over passes."""

    name: str
    sent: int = 0
    failed: int = 0

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed


@dataclass
class Result:
    """Everything one workload run reports.

    ``metrics`` holds the workload's end-to-end metrics under the names
    of :data:`perfbench.run.END_TO_END`'s per-workload columns;
    ``layers`` the per-layer metrics of the traced run.  Both map a
    name to ``(value, unit, samples)``, a time scaled to the reference
    host by ``scale`` (or the factor given); ``measured`` keeps the
    unscaled times.
    """

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)
    phases: list[Phase] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    scale: float = 1.0

    def _scaled(self, name: str, value: float, unit: str, scale: float | None) -> float:
        value = float(value)
        if unit not in TIME_UNITS:
            return value
        self.measured[name] = value
        return value * (self.scale if scale is None else scale) ** TIME_UNITS[unit]

    def put(self, name: str, value: float, unit: str, samples: int,
            scale: float | None = None) -> None:
        self.metrics[name] = (self._scaled(name, value, unit, scale), unit, int(samples))

    def layer(self, name: str, value: float, unit: str, samples: int) -> None:
        self.layers[name] = (self._scaled(name, value, unit, None), unit, int(samples))

    def copy_layer(self, name: str) -> None:
        """An end-to-end metric that is also in the per-layer list."""
        value, unit, samples = self.metrics[name]
        self.layer(name, self.measured.get(name, value), unit, samples)

    def set_speed(self, speed: HostSpeed) -> None:
        """Scale later times by ``speed``'s kernel time."""
        kernel_ns = speed.kernel_ns()
        self.scale = REFERENCE_NS / kernel_ns
        self.notes.append(
            f"host speed: reference kernel {kernel_ns / 1e3:.2f} us "
            f"({speed.fastest_ns() / 1e3:.2f} us per-call minima, "
            f"{speed.median_ns() / 1e3:.2f} us median, {speed.count()} timings); "
            f"times x {self.scale:.4f} to the reference host"
        )

    def put_setup(self, setups: list[tuple[int, float]]) -> None:
        """``setup_s``: median of the run's (measured, scaled) set-ups."""
        measured = statistics.median(m for m, _s in setups)
        scaled = statistics.median(s for _m, s in setups)
        self.put("setup_s", measured / 1e9, "s", len(setups), scaled / measured)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    def phase(self, name: str) -> Phase:
        for p in self.phases:
            if p.name == name:
                return p
        p = Phase(name)
        self.phases.append(p)
        return p

    def count(self, phase: str, sent: int, failed: int) -> None:
        p = self.phase(phase)
        p.sent += sent
        p.failed += failed

    @property
    def attempted(self) -> int:
        return sum(p.sent for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)

    @property
    def correct(self) -> bool:
        return all(ok for _n, ok, _d in self.checks)


@dataclass
class Context:
    """What every workload needs: seed, time budget, scratch space."""

    root: str
    seed: int
    seconds: int
    trace: bool
    tmp: str
    out: str

    def path(self, *parts: str) -> str:
        p = os.path.join(self.tmp, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if not n:
        return float(FAILED)
    return sorted_values[max(0, min(n - 1, math.ceil(q * n) - 1))]


def best_of(passes: list[array]) -> array:
    """Per-call minimum over identical passes; failed in any pass stays failed."""
    if len(passes) == 1:
        return passes[0]
    out = array("q")
    for values in zip(*passes):
        out.append(FAILED if max(values) >= FAILED else min(values))
    return out


def put_latency(res: Result, prefix: str, lat_ns: array) -> None:
    """``<prefix>.p50`` / ``.p99`` in µs."""
    ordered = sorted(lat_ns)
    for q, tag in ((0.50, "p50"), (0.99, "p99")):
        res.put(f"{prefix}.{tag}", percentile(ordered, q) / 1e3, "us", len(ordered))


def mean_us(lat_ns: array, spans: list[tuple[int, int]]) -> tuple[float, int]:
    """Mean µs of ``lat_ns`` over the index ranges ``spans``, and the count."""
    total = n = 0
    for a, b in spans:
        total += sum(lat_ns[a:b])
        n += b - a
    return total / n / 1e3, n


def _pred_key(pred) -> tuple:
    """A prediction as exactly comparable values (bits of the floats)."""
    if pred is None:
        return (None,)
    eta = None if pred.eta is None else float(pred.eta).hex()
    return (pred.terminal, float(pred.probability).hex(), eta)


def _counter(name: str) -> float:
    return obs_metrics.get_registry().counter(name).value


def _timed(fn, *args, **kwargs):
    """``(ns, result)`` of one call, or ``(FAILED, exception)``."""
    t0 = perf_counter_ns()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed op by the caller
        return FAILED, exc
    return perf_counter_ns() - t0, out


def _note_error(res: Result, where: str, exc: BaseException) -> None:
    if len(res.notes) < 50:
        res.notes.append(f"{where}: {exc!r}")


def freeze_inputs() -> None:
    """Keep the generated inputs out of every later collection."""
    gc.collect()
    gc.freeze()


def run_passes(ctx: Context, workload: str, speed: HostSpeed, one_pass) -> list:
    """``one_pass(i)`` for each pass of the run, each after a full collection."""
    out = []
    for i in range(1 if ctx.trace else PASSES[workload]):
        gc.collect()
        speed.start_pass()
        out.append(one_pass(i))
    return out


def _untimed_speed(speed: HostSpeed) -> HostSpeed:
    """Sample sink of a traced pass, which samples like the untraced
    passes of ``speed`` so that the walls compare."""
    twin = HostSpeed(speed.cpus, every=speed.every)
    twin.start_pass()
    return twin


def _irregular_spans(streams) -> list[tuple[int, int]]:
    """Index ranges of the irregular apps' events in a pass's latency array."""
    spans, pos = [], 0
    for s in streams:
        n = s.event_count()
        if s.irregular:
            spans.append((pos, pos + n))
        pos += n
    return spans


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------


def _record_pass(ctx: Context, res: Result, streams, tracer: Tracer | None,
                 setup_reps: int, speed: HostSpeed) -> dict:
    paths = [ctx.path("record", f"{s.label}.pythia") for s in streams]
    setups = []
    for _rep in range(setup_reps):
        ns, scaled, oracles = speed.timed_setup(lambda: [
            Pythia(path, mode="record", record_timestamps=True,
                   meta={"app": s.app, "seed": s.seed})
            for s, path in zip(streams, paths)
        ])
        setups.append((ns, scaled))
    lat, finish = array("q"), array("q")
    traces = []
    wall0 = perf_counter_ns()
    tick = speed.tick
    for s, oracle in zip(streams, oracles):
        if tracer is not None:
            tracer.group = Tracer.IRREGULAR if s.irregular else Tracer.REGULAR
        ev = oracle.event
        for rank, name, payload, t in s.records:
            if name is S.SYNC:
                continue
            tick()
            ns, out = _timed(ev, name, payload, timestamp=t, thread=rank)
            lat.append(ns)
            if ns == FAILED:
                _note_error(res, f"event {s.label}.t{rank}", out)
        ns, trace = _timed(oracle.finish)
        finish.append(ns)
        if ns == FAILED:
            _note_error(res, f"finish {s.label}", trace)
            trace = None
        traces.append((s, oracle.trace_path, trace))
    wall = perf_counter_ns() - wall0
    if tracer is not None:
        tracer.group = Tracer.REGULAR
    res.count("event", len(lat), lat.count(FAILED))
    res.count("finish", len(finish), finish.count(FAILED))
    return {"lat": lat, "finish": finish, "wall_ns": wall, "setups": setups,
            "traces": traces}


def _check_traces(res: Result, traces, what: str) -> None:
    """unfold() == input terminals per thread, and load(save(t)) == t."""
    unfold_bad, roundtrip_bad = [], []
    for s, path, trace in traces:
        if trace is None:
            unfold_bad.append(s.label)
            continue
        reg = trace.registry
        for rank, events in s.thread_events().items():
            want = [reg.lookup(Event(n, p)) for n, p in events]
            got = trace.threads[rank].grammar.unfold() if rank in trace.threads else []
            if got != want:
                unfold_bad.append(f"{s.label}.t{rank}")
        loaded = load_trace(path)
        if json.dumps(loaded.to_obj()) != json.dumps(trace.to_obj()):
            roundtrip_bad.append(s.label)
    res.check(f"{what}_unfold_equals_input", not unfold_bad, ",".join(unfold_bad[:5]))
    res.check(f"{what}_trace_roundtrip", not roundtrip_bad, ",".join(roundtrip_bad[:5]))


def run_record(ctx: Context, res: Result) -> None:
    streams = S.all_apps("small", ctx.seed, RECORD_MAX_EVENTS) + S.extra_irregular(
        "small", ctx.seed, RECORD_EXTRA_SEEDS
    )
    freeze_inputs()
    events = sum(s.event_count() for s in streams)
    irr = _irregular_spans(streams)
    res.notes.append(
        f"record: {len(streams)} executions, {events} events "
        f"({sum(b - a for a, b in irr) / events:.1%} irregular)"
    )
    speed = HostSpeed(every=SAMPLE_EVERY["record"])
    passes = run_passes(
        ctx, "record", speed,
        lambda _i: _record_pass(ctx, res, streams, None, RECORD_SETUP_REPS, speed),
    )
    res.set_speed(speed)
    _check_traces(res, passes[-1]["traces"], "record")
    lat = best_of([p["lat"] for p in passes])
    finish = best_of([p["finish"] for p in passes])
    res.put_setup([x for p in passes for x in p["setups"]])
    put_latency(res, "record_event_us", lat)
    irr_us, irr_n = mean_us(lat, irr)
    res.put("record_us_per_event.irregular", irr_us, "us", irr_n)
    res.put("finish_s", sum(finish) / 1e9, "s", len(finish))
    res.put("record_events_per_s", events / ((sum(lat) + sum(finish)) / 1e9),
            "1/s", events)
    if not ctx.trace:
        return
    res.copy_layer("finish_s")
    gc.collect()
    tracer = Tracer().install()
    created0 = _counter("pythia_record_rules_created_total")
    merges0 = _counter("pythia_record_exponent_merges_total")
    try:
        tp = _record_pass(ctx, res, streams, tracer, 1, _untimed_speed(speed))
    finally:
        tracer.uninstall()
    created = _counter("pythia_record_rules_created_total") - created0
    merges = _counter("pythia_record_exponent_merges_total") - merges0
    final = sum(
        t.grammar.rule_count for _s, _p, trace in tp["traces"] if trace is not None
        for t in trace.threads.values()
    )
    _check_traces(res, tp["traces"], "record_traced")
    agg = tracer.aggregate()
    layer_selfs(res, agg)
    for group, tag in ((Tracer.REGULAR, "regular"), (Tracer.IRREGULAR, "irregular")):
        res.layer(f"grammar.append.self_us.{tag}", _self_us(agg, "grammar.append", group),
                  "us", _calls(agg, "grammar.append", group))
    res.layer("grammar.rules_created", created, "count", 1)
    res.layer("grammar.rules_final", final, "count", 1)
    res.layer("grammar.rule_survival_ratio", final / created if created else 0.0,
              "ratio", created)
    res.layer("grammar.exponent_merges", merges, "count", 1)
    for name, metric in (("frozen.from_grammar", "frozen.from_grammar_s"),
                         ("timing.from_replay", "timing.from_replay_s"),
                         ("trace_file.save", "trace_file.save_s")):
        res.layer(metric, _total_s(agg, name), "s", _calls(agg, name))
    res.layer("trace_file.bytes",
              sum(os.path.getsize(path) for _s, path, _t in tp["traces"]), "bytes",
              len(tp["traces"]))
    res.layer("trace.overhead_ratio", tp["wall_ns"] / passes[0]["wall_ns"], "ratio", 1)
    dump_spans(ctx, res, tracer, "record")


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def _references(ctx: Context, res: Result) -> dict:
    """Record the references: the record workload's executions at the
    seed (small, capped at :data:`RECORD_MAX_EVENTS`), which hold far
    more of each app than a replayed prefix.  Returns app -> (path, trace)."""
    refs = {}
    traces = []
    for s in S.all_apps("small", ctx.seed, RECORD_MAX_EVENTS):
        path = ctx.path("refs", f"{s.app}.pythia")
        oracle = Pythia(path, mode="record", record_timestamps=True,
                        meta={"app": s.app, "seed": s.seed})
        for rank, name, payload, t in s.records:
            if name is not S.SYNC:
                oracle.event(name, payload, timestamp=t, thread=rank)
        trace = oracle.finish()
        refs[s.app] = (path, trace)
        traces.append((s, path, trace))
    _check_traces(res, traces, "reference")
    return refs


def _replay_streams(ctx: Context, refs: dict, per_s: int) -> list:
    """Medium streams at seed+1, capped per app, with reference terminals.

    The terminal of a record is its event's id in the app's reference
    registry, or ``-1`` for a sync point or an event the reference
    never saw."""
    out = []
    for s in S.all_apps("medium", ctx.seed + 1, per_s * ctx.seconds):
        reg = refs[s.app][1].registry
        terms = []
        for _rank, name, payload, _t in s.records:
            term = None if name is S.SYNC else reg.lookup(Event(name, payload))
            terms.append(-1 if term is None else term)
        out.append((s, terms))
    return out


def _open_oracles(refs: dict, replay) -> list:
    oracles = []
    for s, _terms in replay:
        oracle = Pythia(refs[s.app][0], mode="predict")
        oracle.enable_drift()
        oracles.append(oracle)
    return oracles


def _score(stream: S.Stream, terms: list, preds: dict) -> tuple[int, int]:
    """(hits, scored) of distance-1 predictions against the next event
    on the same thread; ``preds[rank]`` lists prediction keys in order."""
    hits = scored = 0
    pos: dict[int, int] = {}
    for (rank, name, _p, _t), actual in zip(stream.records, terms):
        if name is S.SYNC:
            continue
        i = pos.get(rank, 0)
        pos[rank] = i + 1
        if i == 0:
            continue
        prev = preds[rank][i - 1]
        scored += 1
        if prev[0] is not None and prev[0] == actual:
            hits += 1
    return hits, scored


def _hit_rate(replay, keys) -> tuple[int, int]:
    hits = scored = 0
    for s, terms in replay:
        preds = {r: keys.get((s.app, r), []) for r in range(s.ranks)}
        h, n = _score(s, terms, preds)
        hits += h
        scored += n
    return hits, scored


def _predict_pass(res: Result, refs: dict, replay, tracer: Tracer | None,
                  setup_reps: int, speed: HostSpeed) -> dict:
    setups = []
    for _rep in range(setup_reps):
        ns, scaled, oracles = speed.timed_setup(lambda: _open_oracles(refs, replay))
        setups.append((ns, scaled))
    lat, far = array("q"), array("q")
    keys: dict[tuple[str, int], list] = {}
    wall0 = perf_counter_ns()
    tick = speed.tick
    for (s, _terms), oracle in zip(replay, oracles):
        if tracer is not None:
            tracer.group = Tracer.IRREGULAR if s.irregular else Tracer.REGULAR
        ep, pr = oracle.event_and_predict, oracle.predict
        out = {r: [] for r in range(s.ranks)}
        for rank, name, payload, _t in s.records:
            if name is S.SYNC:
                for d in FAR_DISTANCES:
                    ns, exc = _timed(pr, d, thread=rank)
                    far.append(ns)
                    if ns == FAILED:
                        _note_error(res, f"predict({d}) {s.label}.t{rank}", exc)
                continue
            tick()
            ns, reply = _timed(ep, name, payload, distance=1, thread=rank,
                               with_time=True)
            lat.append(ns)
            if ns == FAILED:
                _note_error(res, f"event_and_predict {s.label}.t{rank}", reply)
                out[rank].append(("failed",))
            else:
                out[rank].append(_pred_key(reply[1]))
        for rank, preds in out.items():
            keys[(s.app, rank)] = preds
    wall = perf_counter_ns() - wall0
    if tracer is not None:
        tracer.group = Tracer.REGULAR
    stats, machines = [], []
    for oracle in oracles:
        stats.append(oracle.stats())
        for tt in oracle.reference.threads.values():
            machines.append(tt.grammar.machine().stats())
        oracle.finish()
    res.count("event_and_predict", len(lat), lat.count(FAILED))
    res.count("far_predict", len(far), far.count(FAILED))
    return {"lat": lat, "far": far, "wall_ns": wall, "setups": setups,
            "keys": keys, "stats": stats, "machines": machines}


def run_predict(ctx: Context, res: Result) -> None:
    refs = _references(ctx, res)
    replay = _replay_streams(ctx, refs, PREDICT_EVENTS_PER_S)
    streams = [s for s, _t in replay]
    events = sum(s.event_count() for s in streams)
    syncs = sum(len(s.records) for s in streams) - events
    res.notes.append(f"predict: {len(replay)} executions, {events} events, "
                     f"{syncs} sync points x {len(FAR_DISTANCES)} far queries")
    freeze_inputs()
    speed = HostSpeed(every=SAMPLE_EVERY["predict"])
    passes = run_passes(
        ctx, "predict", speed,
        lambda _i: _predict_pass(res, refs, replay, None, PREDICT_SETUP_REPS, speed),
    )
    res.set_speed(speed)
    p = passes[-1]
    observed = sum(st["observed"] for st in p["stats"])
    res.check("observed_equals_submitted", observed == events, f"{observed} vs {events}")
    res.check("predictions_repeat_across_passes",
              all(q["keys"] == p["keys"] for q in passes))
    hits, scored = _hit_rate(replay, p["keys"])
    res.check("hit_rate_positive", hits > 0, f"{hits}/{scored}")
    lat = best_of([q["lat"] for q in passes])
    far = best_of([q["far"] for q in passes])
    res.put_setup([x for q in passes for x in q["setups"]])
    put_latency(res, "predict_event_us", lat)
    irr_us, irr_n = mean_us(lat, _irregular_spans(streams))
    res.put("predict_us_per_event.irregular", irr_us, "us", irr_n)
    res.put("predict_far_us.p50", percentile(sorted(far), 0.5) / 1e3, "us", len(far))
    res.put("hit_rate", hits / scored, "ratio", scored)
    res.put("predict_events_per_s", events / ((sum(lat) + sum(far)) / 1e9), "1/s",
            events)
    if not ctx.trace:
        return
    for name in ("predict_far_us.p50", "hit_rate"):
        res.copy_layer(name)
    gc.collect()
    tracer = Tracer().install()
    try:
        tp = _predict_pass(res, refs, replay, tracer, 1, _untimed_speed(speed))
    finally:
        tracer.uninstall()
    res.check("traced_predictions_identical", tp["keys"] == p["keys"])
    agg = tracer.aggregate()
    layer_selfs(res, agg)
    res.layer("trace_file.load_s", _total_s(agg, "trace_file.load"), "s",
              _calls(agg, "trace_file.load"))
    for key in ("unexpected", "unknown", "pruned"):
        res.layer(f"predict.{key}", sum(st[key] for st in tp["stats"]), "count", 1)
    ms = tp["machines"]
    lookups = sum(m["hits"] + m["misses"] for m in ms)
    res.layer("successor.hit_rate",
              sum(m["hits"] for m in ms) / lookups if lookups else 0.0, "ratio", lookups)
    res.layer("successor.det_hit_ratio",
              sum(m["det_hits"] for m in ms) / observed, "ratio", observed)
    res.layer("successor.evictions", sum(m["evictions"] for m in ms), "count", 1)
    res.layer("trace.overhead_ratio", tp["wall_ns"] / p["wall_ns"], "ratio", 1)
    dump_spans(ctx, res, tracer, "predict")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def _expected_stream(refs: dict, replay) -> dict:
    """In-process prediction keys per (app, rank) over the same events."""
    keys: dict[tuple[str, int], list] = {}
    for s, oracle in zip((s for s, _t in replay), _open_oracles(refs, replay)):
        out = {r: [] for r in range(s.ranks)}
        for rank, name, payload, _t in s.records:
            if name is not S.SYNC:
                _m, pred = oracle.event_and_predict(
                    name, payload, distance=1, thread=rank, with_time=True
                )
                out[rank].append(_pred_key(pred))
        oracle.finish()
        for rank, preds in out.items():
            keys[(s.app, rank)] = preds
    return keys


def _open_clients(refs: dict, replay, daemon: Daemon) -> tuple[dict, list]:
    """One client per execution with every rank's session open; returns
    the clients and each client's first ``open_session`` time (ns)."""
    clients, opens = {}, []
    for s, _terms in replay:
        client = PythiaClient(refs[s.app][0], socket=daemon.socket, fallback="raise")
        clients[s.app] = client
        t0 = perf_counter_ns()
        client.stats(thread=0)
        opens.append(perf_counter_ns() - t0)
        for rank in range(1, s.ranks):
            client.stats(thread=rank)
    return clients, opens


def _close(clients: dict, faults: dict) -> None:
    for client in clients.values():
        for k in faults:
            faults[k] += client.fault_stats()[k]
        client.finish()


def _serve_pass(ctx: Context, res: Result, refs: dict, replay,
                tracer: Tracer | None, tag: str, cpu: int | None,
                speed: HostSpeed) -> dict:
    """Spawn a daemon, open every session (set-up), run the sync phase,
    then the pipelined phase on fresh sessions, and stop the daemon."""
    spans = os.path.join(ctx.out, "spans-serve-daemon.bin") if tracer else None
    codec = None
    if tracer is not None:
        codec = frozenset(tracer.name_id(n) for n in ("protocol.encode", "protocol.decode"))
    faults = {"reconnects": 0, "retries": 0, "fallbacks": 0}
    daemon = None

    def start():
        nonlocal daemon
        daemon = Daemon(ctx.root, ctx.path("serve", tag, "x"), spans=spans, cpu=cpu)
        return _open_clients(refs, replay, daemon)

    try:
        ns, scaled, (clients, opens) = speed.timed_setup(start)
        setup = (ns, scaled)

        # -- sync phase: one connection per execution, one outstanding op
        lat = array("q")
        queue, handler, residual = array("d"), array("d"), array("d")
        sync_keys = {}
        cpu_d0, cpu_c0 = daemon.cpu_seconds(), process_time() - speed.cpu_s
        wall0 = perf_counter_ns()
        for s, _terms in replay:
            client = clients[s.app]
            ep = client.event_and_predict
            out = {r: [] for r in range(s.ranks)}
            for rank, name, payload, _t in s.records:
                if name is S.SYNC:
                    continue
                speed.tick()
                mark = tracer.mark() if tracer is not None else 0
                ns, reply = _timed(ep, name, payload, distance=1, thread=rank,
                                   with_time=True)
                lat.append(ns)
                if ns == FAILED:
                    _note_error(res, f"sync {s.label}.t{rank}", reply)
                    out[rank].append(("failed",))
                    continue
                out[rank].append(_pred_key(reply[1]))
                timing = client.last_timing
                if timing is not None and timing["queue_us"] is not None:
                    queue.append(timing["queue_us"])
                    handler.append(timing["handler_us"])
                    if tracer is not None:
                        rest = ns - tracer.sum_since(mark, codec)
                        residual.append(
                            rest / 1e3 - timing["queue_us"] - timing["handler_us"]
                        )
            for rank, preds in out.items():
                sync_keys[(s.app, rank)] = preds
        sync_wall = perf_counter_ns() - wall0
        cpu_d1, cpu_c1 = daemon.cpu_seconds(), process_time() - speed.cpu_s
        _close(clients, faults)
        res.count("sync", len(lat), lat.count(FAILED))

        # -- pipelined phase: fresh sessions, window of 32 per connection
        pipe_clients, _ = _open_clients(refs, replay, daemon)
        pipe_keys = {}
        pipe_ns = array("q")  # one entry per (execution, rank)
        pipe_ops = pipe_failed = 0
        cpu_d2, cpu_c2 = daemon.cpu_seconds(), process_time() - speed.cpu_s
        for s, _terms in replay:
            speed.sample()
            client = pipe_clients[s.app]
            for rank, events in s.thread_events().items():
                if not events:
                    continue
                pipe = client.pipeline(thread=rank, window=PIPELINE_WINDOW)
                try:
                    with pipe:
                        t1 = perf_counter_ns()
                        for name, payload in events:
                            pipe.submit(name, payload, distance=1, with_time=True)
                        pipe.drain()
                    pipe_ns.append(perf_counter_ns() - t1)
                except Exception as exc:  # unanswered ops count as failed below
                    _note_error(res, f"pipeline {s.label}.t{rank}", exc)
                    pipe_ns.append(FAILED)
                keys = []
                for r in pipe.results:
                    if isinstance(r, tuple):
                        keys.append(_pred_key(r[1]))
                    else:
                        pipe_failed += 1
                        keys.append(("failed",))
                pipe_failed += len(events) - len(pipe.results)
                pipe_ops += len(events)
                pipe_keys[(s.app, rank)] = keys
        cpu_d3, cpu_c3 = daemon.cpu_seconds(), process_time() - speed.cpu_s
        _close(pipe_clients, faults)
        res.count("pipelined", pipe_ops, pipe_failed)
        rss = daemon.rss_mb()
    finally:
        code = daemon.stop() if daemon is not None else None
    sync_ops = len(lat)
    return {
        "lat": lat, "queue": queue, "handler": handler, "residual": residual,
        "sync_wall_ns": sync_wall, "sync_keys": sync_keys, "pipe_keys": pipe_keys,
        "pipe_ns": pipe_ns, "pipe_ops": pipe_ops, "setup": setup, "opens": opens,
        "faults": faults, "rss_mb": rss, "exit_code": code,
        "cpu": {
            "daemon.sync": (cpu_d1 - cpu_d0) / sync_ops,
            "client.sync": (cpu_c1 - cpu_c0) / sync_ops,
            "daemon.pipelined": (cpu_d3 - cpu_d2) / pipe_ops,
            "client.pipelined": (cpu_c3 - cpu_c2) / pipe_ops,
        },
    }


def _check_serve(res: Result, p: dict, expected: dict, replay, tag: str) -> None:
    want = _hit_rate(replay, expected)
    for phase in ("sync", "pipe"):
        got = p[f"{phase}_keys"]
        bad = [f"{a}.t{r}" for (a, r), keys in expected.items() if got.get((a, r)) != keys]
        res.check(f"served_{phase}_{tag}_identical_to_in_process", not bad,
                  ",".join(bad[:5]))
        res.check(f"hit_rate_{phase}_{tag}_equals_in_process",
                  _hit_rate(replay, got) == want)
    res.check(f"daemon_{tag}_exit_code_0", p["exit_code"] == 0, str(p["exit_code"]))


def pin_serve() -> int | None:
    """Pin the load thread to the first CPU this process may use and
    return the second for the daemon, so that each owns one core and the
    scheduler never stacks or moves them.  None (nothing pinned) on one
    CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


def run_serve(ctx: Context, res: Result) -> None:
    daemon_cpu = pin_serve()
    refs = _references(ctx, res)
    replay = _replay_streams(ctx, refs, SERVE_EVENTS_PER_S)
    streams = [s for s, _t in replay]
    events = sum(s.event_count() for s in streams)
    res.notes.append(f"serve: {len(replay)} executions, {events} events per phase")
    expected = _expected_stream(refs, replay)
    freeze_inputs()
    # the round trip runs on both CPUs: time the kernel on each
    speed = HostSpeed(None if daemon_cpu is None
                      else [min(os.sched_getaffinity(0)), daemon_cpu],
                      every=SAMPLE_EVERY["serve"])
    passes = run_passes(
        ctx, "serve", speed,
        lambda i: _serve_pass(ctx, res, refs, replay, None, f"u{i}", daemon_cpu, speed),
    )
    res.set_speed(speed)
    for i, p in enumerate(passes):
        _check_serve(res, p, expected, replay, f"u{i}")
    lat = best_of([p["lat"] for p in passes])
    pipe_ns = best_of([p["pipe_ns"] for p in passes])
    hits, scored = _hit_rate(replay, expected)
    res.put_setup([p["setup"] for p in passes])
    put_latency(res, "serve_sync_us", lat)
    irr_us, irr_n = mean_us(lat, _irregular_spans(streams))
    res.put("serve_sync_us_per_event.irregular", irr_us, "us", irr_n)
    res.put("serve_pipelined_ops_per_s", events / (sum(pipe_ns) / 1e9), "1/s", events)
    res.put("hit_rate", hits / scored, "ratio", scored)
    res.put("daemon_rss_mb", statistics.median(p["rss_mb"] for p in passes), "MB",
            len(passes))
    if not ctx.trace:
        return
    for name in ("hit_rate", "daemon_rss_mb"):
        res.copy_layer(name)
    _serve_layers(res, passes[0], "")
    gc.collect()
    tracer = Tracer().install()
    try:
        tp = _serve_pass(ctx, res, refs, replay, tracer, "t", daemon_cpu,
                         _untimed_speed(speed))
    finally:
        tracer.uninstall()
    _check_serve(res, tp, expected, replay, "traced")
    agg = tracer.aggregate()
    for name in ("protocol.encode", "protocol.decode"):
        res.layer(f"{name}.self_us", _self_us(agg, name), "us", _calls(agg, name))
    res.layer("serve.residual_us.p50", percentile(sorted(tp["residual"]), 0.5), "us",
              len(tp["residual"]))
    u = passes[0]
    res.layer("trace.overhead_ratio",
              (tp["sync_wall_ns"] + sum(tp["pipe_ns"]))
              / (u["sync_wall_ns"] + sum(u["pipe_ns"])), "ratio", 1)
    _serve_layers(res, tp, ".traced")
    dump_spans(ctx, res, tracer, "serve")
    daemon_spans = os.path.join(ctx.out, "spans-serve-daemon.bin")
    if os.path.exists(daemon_spans):
        res.notes.append("daemon-side self time (traced daemon):")
        for (name, _g), (calls, _tot, self_ns) in sorted(
            load_aggregate(daemon_spans).items()
        ):
            res.notes.append(f"  {name:<28} {self_ns / calls / 1e3:9.2f} us x {calls}")


def _serve_layers(res: Result, p: dict, suffix: str) -> None:
    """Daemon stamps, CPU per op and client counters of one serve pass.

    The untraced pass fills the per-layer metrics; the traced pass's
    values go to the report only (``suffix``)."""
    if suffix:
        res.notes.append("traced serve pass:")

        def put(name, value, unit, n):
            res.notes.append(f"  {name}{suffix:<10} {value:12.3f} {unit} (n={n})")
    else:
        put = res.layer
    put("daemon.handler_us.p50", percentile(sorted(p["handler"]), 0.5), "us",
        len(p["handler"]))
    put("daemon.queue_us.p50", percentile(sorted(p["queue"]), 0.5), "us",
        len(p["queue"]))
    for key, value in p["cpu"].items():
        who, phase = key.split(".")
        put(f"{who}.cpu_us_per_op.{phase}", value * 1e6, "us", 1)
    put("client.open_session_ms", statistics.mean(p["opens"]) / 1e6, "ms",
        len(p["opens"]))
    for key, value in p["faults"].items():
        put(f"client.{key}", value, "count", 1)


# ----------------------------------------------------------------------
# per-layer helpers
# ----------------------------------------------------------------------


def _sum(agg, name: str, group: int | None, idx: int) -> int:
    return sum(v[idx] for (n, g), v in agg.items()
               if n == name and (group is None or g == group))


def _calls(agg, name: str, group: int | None = None) -> int:
    return _sum(agg, name, group, 0)


def _self_us(agg, name: str, group: int | None = None) -> float:
    calls = _calls(agg, name, group)
    return _sum(agg, name, group, 2) / calls / 1e3 if calls else 0.0


def _total_s(agg, name: str) -> float:
    return _sum(agg, name, None, 1) / 1e9


#: span name -> per-layer metric reported as mean self time per call
SELF_TIME_METRICS = {
    "oracle.event": "oracle.event.self_us",
    "oracle.event_and_predict": "oracle.event_and_predict.self_us",
    "events.intern": "events.intern.self_us",
    "events.lookup": "events.lookup.self_us",
    "record.record": "record.record.self_us",
    "predict.observe": "predict.observe.self_us",
    "predict.predict.d1": "predict.predict.self_us.d1",
    "predict.predict.far": "predict.predict.self_us.far",
    "successor.expand": "successor.expand.self_us",
    "accuracy.note": "accuracy.note.self_us",
    "drift.update": "drift.update.self_us",
    "flight.tick": "flight.tick.self_us",
}


def layer_selfs(res: Result, agg) -> None:
    """Self-time metrics of the in-process layers, plus watcher call counts."""
    for span_name, metric in SELF_TIME_METRICS.items():
        res.layer(metric, _self_us(agg, span_name), "us", _calls(agg, span_name))
    for name in ("drift.update", "flight.tick"):
        res.layer(f"{name}.calls", _calls(agg, name), "count", 1)


def dump_spans(ctx: Context, res: Result, tracer: Tracer, workload: str) -> None:
    path = os.path.join(ctx.out, f"spans-{workload}.bin")
    n = tracer.dump(path)
    res.notes.append(f"{n} spans written to {os.path.relpath(path, ctx.root)}")


WORKLOADS = {"record": run_record, "predict": run_predict, "serve": run_serve}


def cleanup(ctx: Context) -> None:
    shutil.rmtree(ctx.tmp, ignore_errors=True)
