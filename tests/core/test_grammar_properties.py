"""Property-based tests (hypothesis) for the grammar engine.

The two load-bearing properties of §II-A:

1. the grammar is lossless — unfolding recovers exactly the appended
   sequence, for *any* sequence;
2. the three paper invariants hold after every append.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.frozen import FrozenGrammar
from repro.core.grammar import Grammar
from tests.conftest import random_structured_stream

events = st.integers(min_value=0, max_value=6)
sequences = st.lists(events, min_size=0, max_size=200)


@given(sequences)
@settings(max_examples=200, deadline=None)
def test_unfold_roundtrip(seq):
    g = Grammar()
    g.extend(seq)
    assert g.unfold() == seq


@given(st.lists(events, min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_invariants_after_every_append(seq):
    g = Grammar()
    for t in seq:
        g.append(t)
        g.check_invariants()


@given(
    st.lists(events, min_size=1, max_size=8),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_looped_streams(body, reps, outer):
    """Loop-structured streams (the HPC case) stay lossless and legal."""
    seq = (body * reps) * outer
    g = Grammar()
    g.extend(seq)
    g.check_invariants()
    assert g.unfold() == seq


@given(st.lists(events, min_size=1, max_size=8), st.integers(min_value=2, max_value=50))
@settings(max_examples=60, deadline=None)
def test_loop_compresses(body, reps):
    """A repeated body must compress: rules stay tiny vs. the trace."""
    seq = body * reps
    g = Grammar()
    g.extend(seq)
    # the grammar never stores more symbol uses than a small multiple of
    # the distinct structure; certainly far fewer than the trace length
    total_uses = sum(len(rule) for rule in g.rules.values())
    assert total_uses <= len(set(body)) * 8 + len(body) * 4


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_structured_random_streams(seed):
    seq = random_structured_stream(seed)
    g = Grammar()
    g.extend(seq)
    g.check_invariants()
    assert g.unfold() == seq


@given(sequences)
@settings(max_examples=100, deadline=None)
def test_freeze_preserves_sequence(seq):
    g = Grammar()
    g.extend(seq)
    fg = FrozenGrammar.from_grammar(g)
    assert fg.unfold() == seq
    assert fg.trace_len == len(seq)


@given(sequences)
@settings(max_examples=100, deadline=None)
def test_frozen_occurrence_counts_match_bruteforce(seq):
    g = Grammar()
    g.extend(seq)
    fg = FrozenGrammar.from_grammar(g)
    unfolded = fg.unfold()
    # every terminal position's occurrence count must match a brute count
    for terminal, positions in fg.terminal_positions.items():
        total = sum(fg.position_occurrences(rid, idx) for rid, idx in positions)
        assert total == unfolded.count(terminal)


# ----------------------------------------------------------------------
# loop cursor: identical to the slow path
# ----------------------------------------------------------------------


def _state(g: Grammar) -> tuple:
    """Everything the cursor must reproduce exactly."""
    frozen = FrozenGrammar.from_grammar(g)
    return (
        g.dump(),
        frozen.bodies,
        list(frozen.bodies),
        g._next_rid,
        g.rules_created,
        g.exponent_merges,
        len(g),
    )


def _settled_reference(seq: list[int]) -> Grammar:
    """Append ``seq`` with a settling read after every event, so the cursor
    never completes an iteration: every event takes the slow path."""
    g = Grammar()
    for t in seq:
        g.append(t)
        g.rule_count
    assert g.loop_events == 0
    return g


def _assert_cursor_exact(seq: list[int]) -> Grammar:
    g = Grammar()
    g.extend(seq)
    assert _state(g) == _state(_settled_reference(seq))
    g.check_invariants()
    assert g.unfold() == seq
    return g


def _loop_stream(draw_parts: list[tuple[list[int], int, list[int]]]) -> list[int]:
    seq: list[int] = []
    for body, reps, noise in draw_parts:
        seq += body * reps + noise
    return seq


loop_parts = st.lists(
    st.tuples(
        st.lists(events, min_size=1, max_size=8),
        st.integers(min_value=1, max_value=25),
        st.lists(events, min_size=0, max_size=3),
    ),
    min_size=1,
    max_size=5,
)


@given(sequences)
@settings(max_examples=150, deadline=None)
def test_cursor_matches_slow_path_random(seq):
    _assert_cursor_exact(seq)


@given(loop_parts)
@settings(max_examples=200, deadline=None)
def test_cursor_matches_slow_path_loops(parts):
    _assert_cursor_exact(_loop_stream(parts))


@given(
    st.lists(events, min_size=1, max_size=5),
    st.lists(events, min_size=1, max_size=5),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_cursor_matches_slow_path_nested_loops(inner, tail, inner_reps, outer_reps):
    _assert_cursor_exact(((inner * inner_reps) + tail) * outer_reps)


def test_cursor_shrunk_counterexample():
    """A cursor learned while replaying a mismatch must not outlive the
    next slow append (it once bumped a node that was no longer the tail)."""
    _assert_cursor_exact([4, 3, 4, 3, 0, 0, 1] * 3 + [4, 3, 4, 3, 2, 4, 3])


def test_cursor_absorbs_steady_state_loop():
    body = [0, 1, 2, 3, 4]
    g = _assert_cursor_exact(body * 100)
    assert g.loop_events >= len(body) * 95


@given(loop_parts, st.data())
@settings(max_examples=100, deadline=None)
def test_reads_mid_iteration_equal_settled_state(parts, data):
    seq = _loop_stream(parts)
    cut = data.draw(st.integers(min_value=0, max_value=len(seq)))
    ref = _settled_reference(seq[:cut])
    g = Grammar()
    g.extend(seq[:cut])
    assert len(g) == len(ref)
    assert g.unfold() == ref.unfold() == seq[:cut]
    g = Grammar()
    g.extend(seq[:cut])
    assert g.rule_count == ref.rule_count
    g = Grammar()
    g.extend(seq[:cut])
    assert g.dump() == ref.dump()
    g = Grammar()
    g.extend(seq[:cut])
    assert FrozenGrammar.from_grammar(g).bodies == FrozenGrammar.from_grammar(ref).bodies
    # reading does not disturb what follows
    g.extend(seq[cut:])
    assert _state(g) == _state(_settled_reference(seq))
