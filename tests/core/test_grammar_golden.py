"""Golden grammars: every app skeleton's recorded grammar, byte for byte.

The digests below are SHA-256 sums of the JSON form
(:meth:`FrozenGrammar.to_obj`, in rule insertion order) of every rank's
grammar, recorded from each :mod:`repro.apps` skeleton at ``small`` with
4 ranks and seed 0.  They were captured from the plain Sequitur slow path
before the recorder's loop cursor existed, so they pin the cursor to
identical rule ids, bodies and rule order.  Regenerate them with::

    PYTHONPATH=src python -m tests.core.test_grammar_golden
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from repro.apps import get_app, list_apps
from repro.core.oracle import Pythia
from repro.experiments.fig7 import fig7_bt_grammar
from repro.mpi import NetworkModel, mpirun
from repro.runtime.mpi_interpose import MPIRuntimeSystem

RANKS = 4

GOLDEN = {
    "amg": "9a7edfda03cd4558b8f873268c8421b615f2db3ebe594cefbe3192c74c83c493",
    "bt": "05f39eabc56efca47d4a4e859d77f0d68494bf2d0199654424b4c8c42b7cd486",
    "cg": "182ac75c75ab7798a42bfc17130ad0cf112676e141a34953c87c541061751774",
    "ep": "51bdb1c69903a28c34ee9f8304ff5939d9cddf71a6d4df6bb5c679099a30d1c7",
    "ft": "eb9ae4f92b0d105edf209da0ae493c74d5f09d36740e698a1d542b7f08aacc24",
    "is": "d58f5f3169086cc3f80866f7815ad33341c8acc3871a31e19d22485df371d0d9",
    "kripke": "52b2999919ca1c754e0ecbc81eaae469ff2844b316a3d4c9c0bf09ade47a973c",
    "lu": "c173539865a0170de52f732098d276aa2a781dc7bd9b060dbc91aaf6bd07e1c9",
    "lulesh": "efc9d4873db10baa6b591dc707976143752f27fd488b6705bf938520505b2273",
    "mg": "9129ba21b574a8d270aca7ddd7c122da403c8b2c2f532545719e6fd33d33e30f",
    "minife": "8b00e1c3e7807514ab2eedc2e5a55cb08569562c931dff1022cf555c4171f9d1",
    "quicksilver": "d6f5ce1f2759d35f9ffbb975a42ab169f75e3094178238ddcea8ce75dba3b530",
    "sp": "a0afc9a5b79047e9d52c91e2406df67527d2c22701cd5e96d8572cfd6959c050",
}

#: rank 1 of BT.small on 4 ranks, as Fig 7 renders it
FIG7_BT_SMALL = """\
R -> Bcast(0)^6 R4 Barrier R11^200 Allreduce(SUM) Allreduce(MAX) R4 Reduce(('SUM', 0)) Barrier
R4 -> Irecv(0) Irecv(2) Isend(2) Isend(0) Waitall
R11 -> R4 Isend(2) Irecv(0) Wait^2
"""


def app_digest(app: str) -> str:
    """SHA-256 of every rank's frozen grammar for one skeleton run."""
    with tempfile.TemporaryDirectory() as tmp:
        oracle = Pythia(os.path.join(tmp, f"{app}.pythia"), mode="record",
                        record_timestamps=False)
        mpirun(RANKS, get_app(app).main, "small", 0, network=NetworkModel(),
               interceptor_factory=lambda r, c: MPIRuntimeSystem(oracle, r, c))
        trace = oracle.finish()
    obj = [[tid, trace.threads[tid].grammar.to_obj()] for tid in sorted(trace.threads)]
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("app", sorted(list_apps()))
def test_app_grammar_matches_golden(app):
    assert app_digest(app) == GOLDEN[app]


def test_fig7_bt_grammar_unchanged():
    assert fig7_bt_grammar(ws="small", ranks=RANKS, rank=1) == FIG7_BT_SMALL.rstrip("\n")


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(list_apps()):
        print(f'    "{name}": "{app_digest(name)}",')
    print("}")
    print(fig7_bt_grammar(ws="small", ranks=RANKS, rank=1))
