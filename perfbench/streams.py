"""Seeded event-stream generator for the benchmark.

The application skeletons in :mod:`repro.apps` run under
:func:`repro.mpi.launcher.mpirun` with a capturing interceptor instead of
the PYTHIA runtime shim.  The interceptor writes every MPI entry
(``name``, ``payload``, simulated time) and every synchronisation point
into one list, in the order the simulator reaches them: the simulated
global order across ranks.  The oracle under test never sees the
skeletons, only these captured streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.apps import get_app, list_apps
from repro.experiments.harness import default_network
from repro.mpi.launcher import mpirun

#: apps whose per-rank grammars keep >= 10 rules (data-dependent control
#: flow); the others are loop-shaped
IRREGULAR_APPS = ("amg", "kripke", "quicksilver")

#: a captured synchronisation point has this in the ``name`` slot
SYNC = None


@dataclass(slots=True)
class Stream:
    """One captured execution of one app.

    ``records`` holds ``(rank, name, payload, sim_time)`` tuples in
    simulated global order; a synchronisation point has ``name is
    SYNC`` and the MPI function in ``payload``.
    """

    app: str
    ws: str
    seed: int
    ranks: int
    records: list[tuple[int, Any, Any, float]]

    @property
    def irregular(self) -> bool:
        """True for the apps whose grammars stay irregular."""
        return self.app in IRREGULAR_APPS

    @property
    def label(self) -> str:
        """``app.ws.seed``: unique within one benchmark run."""
        return f"{self.app}.{self.ws}.{self.seed}"

    def event_count(self) -> int:
        """Number of events (sync points excluded)."""
        return sum(1 for r in self.records if r[1] is not SYNC)

    def thread_events(self) -> dict[int, list[tuple[str, Any]]]:
        """Per-rank ``(name, payload)`` lists, sync points dropped."""
        out: dict[int, list[tuple[str, Any]]] = {r: [] for r in range(self.ranks)}
        for rank, name, payload, _t in self.records:
            if name is not SYNC:
                out[rank].append((name, payload))
        return out


class _Full(Exception):
    """Raised by the interceptor to stop a capture at its event cap."""


class _Capture:
    """Interceptor that records instead of consulting an oracle."""

    __slots__ = ("records", "rank", "comm", "budget")

    def __init__(self, records: list, rank: int, comm, budget: list) -> None:
        self.records = records
        self.rank = rank
        self.comm = comm
        self.budget = budget  # events left, shared by all ranks

    def mpi_call(self, fn: str, payload: Any) -> None:
        if self.budget[0] == 0:
            raise _Full
        self.budget[0] -= 1
        self.records.append((self.rank, fn, payload, self.comm.now))

    def mpi_sync(self, fn: str) -> None:
        self.records.append((self.rank, SYNC, fn, self.comm.now))

    def take_overhead(self) -> float:
        return 0.0


def capture(app_name: str, ws: str, seed: int, max_events: int = -1) -> Stream:
    """Run one app skeleton at its default rank count and capture it.

    With ``max_events >= 0`` the simulation stops at the event that
    would exceed it, which keeps the prefix of the simulated global
    order that holds exactly ``max_events`` events.
    """
    app = get_app(app_name)
    records: list = []
    budget = [max_events]
    try:
        mpirun(
            app.default_ranks,
            app.main,
            ws,
            seed,
            network=default_network(app, app.default_ranks),
            interceptor_factory=lambda rank, comm: _Capture(records, rank, comm, budget),
            name=app.name,
        )
    except _Full:
        pass
    return Stream(app.name, ws, seed, app.default_ranks, records)


def all_apps(ws: str, seed: int, max_events: int = -1) -> list[Stream]:
    """Every registered app at one working set and seed."""
    return [capture(name, ws, seed, max_events) for name in list_apps()]


def extra_irregular(ws: str, seed: int, copies: int) -> list[Stream]:
    """``copies`` more executions of each irregular app, at seeds
    ``seed + 1000 * k`` (k = 1..copies): distinct from every seed the
    benchmark uses for the main streams."""
    return [
        capture(name, ws, seed + 1000 * k)
        for k in range(1, copies + 1)
        for name in IRREGULAR_APPS
    ]
