"""In-memory span tracer installed around the oracle's public entry points.

The benchmark's traced run patches the layer entry points listed in
:data:`ENTRY_POINTS` with timing wrappers.  Each call records one span:
name, group, parent span, start and duration (``perf_counter_ns``).
When a span ends its duration is added to its parent's child time, so a
layer's *self time* is ``duration - child time``.  Spans stay in
per-thread arrays until :meth:`Tracer.dump` writes them out.

Nothing here changes what the wrapped functions compute: a wrapper
calls the original with the same arguments and returns its result.
"""

from __future__ import annotations

import importlib
import json
import threading
from array import array
from time import perf_counter_ns

#: (span name, module, attribute path) of every traced entry point.
#: ``predict.predict`` is split by distance into ``.d1`` and ``.far``.
#: Names that appear twice aggregate several entry points into one layer.
ENTRY_POINTS = (
    ("oracle.event", "repro.core.oracle", "Pythia.event"),
    ("oracle.event_and_predict", "repro.core.oracle", "Pythia.event_and_predict"),
    ("events.intern", "repro.core.events", "EventRegistry.intern"),
    ("events.lookup", "repro.core.events", "EventRegistry.lookup"),
    ("record.record", "repro.core.record", "PythiaRecord.record"),
    ("grammar.append", "repro.core.grammar", "Grammar.append"),
    ("frozen.from_grammar", "repro.core.frozen", "FrozenGrammar.from_grammar"),
    ("timing.from_replay", "repro.core.timing", "TimingTable.from_replay"),
    ("trace_file.save", "repro.core.trace_file", "save_trace"),
    ("trace_file.load", "repro.core.trace_file", "load_trace"),
    # modules that imported load_trace by name
    ("trace_file.load", "repro.core.oracle", "load_trace"),
    ("trace_file.load", "repro.server.store", "load_trace"),
    ("predict.observe", "repro.core.predict", "PythiaPredict.observe"),
    ("predict.predict", "repro.core.predict", "PythiaPredict.predict"),
    ("successor.expand", "repro.core.successor", "SuccessorMachine.expand"),
    ("accuracy.note", "repro.obs.accuracy", "AccuracyTracker.note_observation"),
    ("accuracy.note", "repro.obs.accuracy", "AccuracyTracker.note_prediction"),
    ("drift.update", "repro.obs.drift", "DriftMonitor.update"),
    ("flight.tick", "repro.obs.flight", "FlightRecorder.tick"),
    # client-side codec of the oracle service
    ("protocol.encode", "repro.server.client", "PythiaClient._bin_encode_request"),
    ("protocol.encode", "repro.server.client", "encode_json_frame"),
    ("protocol.encode", "repro.server.client", "encode_payload"),
    ("protocol.decode", "repro.server.client", "PythiaClient._bin_decode_reply"),
    ("protocol.decode", "repro.server.client", "PythiaClient._pred"),
)


class _Buffer:
    """One thread's spans, as parallel arrays."""

    __slots__ = ("name", "group", "parent", "start", "dur", "child", "stack")

    def __init__(self) -> None:
        self.name = array("H")
        self.group = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.dur = array("q")
        self.child = array("q")
        self.stack: list[int] = []


class Tracer:
    """Span store plus the wrapper factory.

    ``group`` tags every span opened while it is set; the benchmark sets
    it to :data:`IRREGULAR` while it feeds an irregular app, which is
    how ``grammar.append`` splits into ``.regular`` and ``.irregular``.
    """

    REGULAR = 0
    IRREGULAR = 1

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.group = self.REGULAR

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def buffer(self) -> _Buffer:
        """The calling thread's span buffer (created on first use)."""
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, split=None):
        """A timing wrapper around ``fn``.

        ``split(args, kwargs) -> bool`` optionally picks the ``.far``
        variant of the span name instead of the ``.d1`` one.
        """
        nid = self.name_id(name)
        far_id = None
        if split is not None:
            far_id = self.name_id(name + ".far")
            nid = self.name_id(name + ".d1")
        tracer = self

        def traced(*args, **kwargs):
            buf = getattr(tracer._local, "buf", None)
            if buf is None:
                buf = tracer.buffer()
            stack = buf.stack
            parent = stack[-1] if stack else -1
            idx = len(buf.name)
            buf.name.append(far_id if far_id is not None and split(args, kwargs) else nid)
            buf.group.append(tracer.group)
            buf.parent.append(parent)
            buf.start.append(0)
            buf.dur.append(0)
            buf.child.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                buf.start[idx] = t0
                buf.dur[idx] = dur
                if parent >= 0:
                    buf.child[parent] += dur

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        for name, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            split = _far_distance if path == "PythiaPredict.predict" else None
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(name, raw.__func__, split))
            elif isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, split))
            else:
                patched = self.wrap(name, raw, split)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reading ----------------------------------------------------------

    def mark(self) -> int:
        """Span count of the calling thread's buffer (see :meth:`sum_since`)."""
        return len(self.buffer().name)

    def sum_since(self, mark: int, names: frozenset[int]) -> int:
        """Total ns of the calling thread's outermost spans named in
        ``names`` opened after ``mark`` (nested ones are not re-counted)."""
        buf = self.buffer()
        total = 0
        bname, bparent, bdur = buf.name, buf.parent, buf.dur
        for i in range(mark, len(bname)):
            if bname[i] in names:
                parent = bparent[i]
                if parent < 0 or bname[parent] not in names:
                    total += bdur[i]
        return total

    def aggregate(self) -> dict[tuple[str, int], list[int]]:
        """``{(name, group): [calls, total ns, self ns]}`` over all threads."""
        out: dict[tuple[int, int], list[int]] = {}
        for buf in list(self._buffers):
            bname, bgroup, bdur, bchild = buf.name, buf.group, buf.dur, buf.child
            for i in range(len(bname)):
                key = (bname[i], bgroup[i])
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = [0, 0, 0]
                d = bdur[i]
                acc[0] += 1
                acc[1] += d
                acc[2] += d - bchild[i]
        return {(self.names[n], g): acc for (n, g), acc in out.items()}

    def dump(self, path: str) -> int:
        """Write every span to ``path``; returns the span count.

        Layout: one JSON header line (span names, per-buffer counts,
        array typecodes), then per buffer the raw ``name, group,
        parent, start, dur, child`` arrays in that order.
        """
        buffers = list(self._buffers)
        header = {
            "names": self.names,
            "buffers": [len(b.name) for b in buffers],
            "arrays": ["name:H", "group:B", "parent:i", "start:q", "dur:q", "child:q"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for b in buffers:
                for arr in (b.name, b.group, b.parent, b.start, b.dur, b.child):
                    arr.tofile(fh)
        return sum(header["buffers"])


def _far_distance(args, kwargs) -> bool:
    distance = args[1] if len(args) > 1 else kwargs.get("distance", 1)
    return distance != 1


def load_aggregate(path: str) -> dict[tuple[str, int], list[int]]:
    """:meth:`Tracer.aggregate` of a file written by :meth:`Tracer.dump`."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        tracer.names = header["names"]
        for count in header["buffers"]:
            buf = _Buffer()
            for arr in (buf.name, buf.group, buf.parent, buf.start, buf.dur, buf.child):
                arr.fromfile(fh, count)
            tracer._buffers.append(buf)
    return tracer.aggregate()
