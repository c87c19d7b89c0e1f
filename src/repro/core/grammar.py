"""On-the-fly grammar reduction of event sequences (§II-A of the paper).

PYTHIA-RECORD compresses the per-thread event sequence into a context-free
grammar whose only derivable word is the trace.  The algorithm is Sequitur
[Nevill-Manning & Witten 1997] extended with *consecutive-repetition
exponents* (the extension Cyclitur introduced and the paper adopts): each
body element carries an exponent, so a loop of 100 iterations is one node
``A^100`` instead of 100 nodes.

The grammar maintains the paper's three invariants after every appended
event:

1. **Rule utility** — every non-root rule is used at least twice, counting
   a use with exponent ``e`` as ``e`` usages ("each non-terminal symbol
   represents a sequence that repeats in the trace").
2. **Digram uniqueness** — every ordered couple of adjacent symbols appears
   at most once among all rule bodies.  With exponents, two sites
   ``x^n y^m`` and ``x^p y^k`` share the couple ``(x, y)``; the shared part
   ``x^min(n,p) y^min(m,k)`` is factored into a rule and residual exponents
   stay in place — exactly the Fig. 3 behaviour (``b^5 c`` against
   ``A -> b^3 c^2`` factors ``C -> b^3 c``).
3. **Adjacent merging** — equal adjacent symbols merge exponents
   (``a^n a^m`` becomes ``a^{n+m}``), so no symbol ever neighbours itself.

The implementation appends terminals at the root's end and restores the
invariants with a local repair loop (digram check / factor / merge /
inline), which is operationally equivalent to the paper's recursive
"remove the last symbol and re-add the non-terminal" description.  This
repair loop is the *slow path*.

Loop cursor
-----------

In a steady-state loop the root ends in a rule use ``X^k`` and the slow
path spends every iteration building transient rules out of the incoming
terminals, inlining them again, and finally merging one more ``X`` into
``X^{k+1}``.  The cursor replaces those iterations by an O(1) step per
event, and yields the grammar the slow path would have built, rule ids
included:

* **Learn.**  When a slow append leaves a rule use ``T = X^k`` at the
  root's tail and the next terminal starts ``X``'s expansion, the slow
  appends that follow are watched for as long as they keep spelling that
  expansion, at most one expansion long.  The iteration is *clean* when
  at its end ``T`` is again the tail, as ``X^{k+1}``; every rule it
  created is gone again and no older rule was deleted; every older
  non-root rule it modified has its old body back; and it never changed
  a root node before ``T`` nor factored, substituted or unlinked ``T``
  itself.  The watch hooks sit only where a body changes (substitute,
  merge, inline) and run only while a watch is open.  A clean iteration
  arms the cursor with ``X``'s flat expansion and the iteration's
  advances of ``_next_rid``/``rules_created`` and ``exponent_merges``.
* **Apply.**  Each event equal to the next terminal of the expansion only
  advances the cursor.  A completed expansion bumps ``T`` to
  ``X^{k+1}`` and applies the learned advances.
* **Settle.**  On the first mismatch, the buffered prefix and the event go
  through the slow path.  Every public read (:attr:`root`, :attr:`rules`,
  :attr:`rule_count`, :attr:`rules_created`, :attr:`exponent_merges`,
  :meth:`unfold`, :meth:`dump`, :meth:`iter_rules`,
  :meth:`check_invariants`, and so :meth:`FrozenGrammar.from_grammar
  <repro.core.frozen.FrozenGrammar.from_grammar>`) first replays a
  partial iteration the same way.  Any slow append disarms the cursor.

Proof obligation: the cursor must produce identical rule ids, bodies and
rule order.  It does because the slow path reads ``T``'s exponent only
when ``T`` is factored (excluded by the clean test) and through ``X``'s
usage count, which it only compares with 2 and which only grows.  So
from the state after a clean iteration the next iteration repeats the
same operations on the same structure, with rule ids shifted by the same
amount.  ``tests/core`` holds the differential properties (cursor against
a read after every event, which settles every partial iteration, so the
cursor never completes one) and golden digests of every app skeleton's
grammar.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.symbols import Rule, Symbol, SymbolUse, is_terminal

DigramKey = tuple

__all__ = ["Grammar", "GrammarError"]


class GrammarError(Exception):
    """Raised when an invariant check fails (a bug, or a corrupted trace)."""


class _Watch:
    """One slow-path loop iteration under observation (see "Learn" above)."""

    __slots__ = ("node", "exp", "seq", "count", "rid0", "merges0", "nrules",
                 "born", "snaps", "dirty")

    def __init__(self, grammar: "Grammar", node: SymbolUse) -> None:
        self.node = node
        self.exp = node.exp
        #: the expansion the watched events must spell, and how far they got
        self.seq = _expand(node.symbol)
        self.count = 0
        self.rid0 = grammar._next_rid
        self.merges0 = grammar._exponent_merges
        self.nrules = len(grammar._rules)
        #: root nodes made during the watch (all of them lie after ``node``)
        self.born: set[SymbolUse] = set()
        #: body of every older non-root rule, before the watch first changed it
        self.snaps: dict[Rule, list[tuple[Symbol, int]]] = {}
        self.dirty = False


class Grammar:
    """A mutable Sequitur-with-exponents grammar.

    Use :meth:`append` to feed the event sequence one terminal at a time;
    the grammar always represents exactly the sequence appended so far
    (:meth:`unfold` recovers it).
    """

    def __init__(self) -> None:
        self._next_rid = 0
        self._rules_created = 0
        self._exponent_merges = 0
        #: events the loop cursor absorbed without running the slow path
        self.loop_events = 0
        #: live rules indexed by id (includes the root)
        self._rules: dict[int, Rule] = {}
        self._root = self._new_rule()
        #: ordered couple of symbols -> left node of its unique occurrence
        self._digrams: dict[DigramKey, SymbolUse] = {}
        #: rules whose usage decreased and may need inlining
        self._maybe_useless: list[Rule] = []
        self._length = 0
        # loop cursor: X's flat expansion while armed, else None
        self._loop: list[int] | None = None
        self._loop_pos = 0
        self._loop_node: SymbolUse | None = None
        self._loop_rids = 0
        self._loop_merges = 0
        # rule use left at the root's tail by the last slow append
        self._candidate: SymbolUse | None = None
        self._watch: _Watch | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of terminals appended so far (length of the trace)."""
        return self._length

    @property
    def root(self) -> Rule:
        """The root rule ``R``, whose expansion is the whole trace."""
        self._settle()
        return self._root

    @property
    def rules(self) -> dict[int, Rule]:
        """Live rules indexed by id, root included, in creation order."""
        self._settle()
        return self._rules

    @property
    def rule_count(self) -> int:
        """Number of rules, root included (Table I's "# rules" counts these)."""
        return len(self.rules)

    @property
    def rules_created(self) -> int:
        """Rules ever created, root included; never decremented when a rule
        is inlined away.  Counted exactly as the slow path counts them: the
        cursor adds the slow path's per-iteration count, and a read in the
        middle of an iteration settles it first."""
        self._settle()
        return self._rules_created

    @property
    def exponent_merges(self) -> int:
        """Consecutive-repetition exponent merges, counted exactly as the
        slow path counts them (see :attr:`rules_created`)."""
        self._settle()
        return self._exponent_merges

    def append(self, terminal: int) -> None:
        """Append one terminal event id to the represented sequence."""
        if (terminal.__class__ is not int and not is_terminal(terminal)) or terminal < 0:
            raise TypeError(f"terminal event id must be a non-negative int, got {terminal!r}")
        self._length += 1
        seq = self._loop
        if seq is not None:
            pos = self._loop_pos
            if seq[pos] == terminal:
                pos += 1
                if pos == len(seq):
                    node = self._loop_node
                    node.exp += 1
                    node.symbol.usage += 1
                    self._next_rid += self._loop_rids
                    self._rules_created += self._loop_rids
                    self._exponent_merges += self._loop_merges
                    self.loop_events += pos
                    pos = 0
                self._loop_pos = pos
                return
            self._settle()
        self._append_slow(terminal)

    def extend(self, terminals: Iterable[int]) -> None:
        """Append every terminal of ``terminals`` in order."""
        for t in terminals:
            self.append(t)

    def unfold(self) -> list[int]:
        """Expand the grammar back into the full terminal sequence."""
        return _expand(self.root)

    def dump(self, names: Callable[[int], str] | None = None) -> str:
        """Render the grammar in the paper's notation (one rule per line)."""
        names = names or str

        def sym_str(node: SymbolUse) -> str:
            s = node.symbol
            text = s.name if isinstance(s, Rule) else names(s)
            if node.exp != 1:
                text += f"^{node.exp}"
            return text

        lines = []
        rules = self.rules
        for rid in sorted(rules):
            rule = rules[rid]
            body = " ".join(sym_str(n) for n in rule) or "<empty>"
            lines.append(f"{rule.name} -> {body}")
        return "\n".join(lines)

    def iter_rules(self) -> Iterator[Rule]:
        """Iterate over live rules (root first)."""
        rules = self.rules
        root = self._root
        yield root
        for rid in sorted(rules):
            if rid != root.rid:
                yield rules[rid]

    # ------------------------------------------------------------------
    # loop cursor (see the module docstring)
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        """Replay a partial iteration through the slow path (which disarms
        the cursor)."""
        seq = self._loop
        pos = self._loop_pos
        if not pos:
            return  # between iterations the grammar is settled as it stands
        self._loop = None
        self._loop_pos = 0
        for t in seq[:pos]:
            self._append_slow(t)

    def _append_slow(self, terminal: int) -> None:
        """One Sequitur step, watched when it may belong to a loop iteration."""
        self._loop = None  # any slow append disarms the cursor
        root = self._root
        watch = self._watch
        cand = self._candidate
        if cand is not None:
            self._candidate = None
            if _head(cand.symbol) == terminal:
                watch = self._watch = _Watch(self, cand)
        elif watch is not None and watch.seq[watch.count] != terminal:
            watch = self._watch = None  # not another iteration of this loop
        last = root.guard.prev
        if last.symbol == terminal:
            last.exp += 1
            self._exponent_merges += 1
        else:
            node = self._link_after(last, terminal, 1, root)
            if watch is not None:
                watch.born.add(node)
            self._check_digram(last)
            self._drain_useless()
        tail = root.guard.prev
        if watch is not None:
            watch.count += 1
            if tail is not watch.node and not watch.dirty and watch.count < len(watch.seq):
                return
            self._watch = None
            if tail is watch.node and self._clean(watch):
                self._arm(watch)
                return
        if tail.symbol.__class__ is Rule:
            self._candidate = tail

    def _clean(self, watch: _Watch) -> bool:
        """True if the watched iteration's only net effect was ``X^k -> X^{k+1}``."""
        rules = self._rules
        return (
            not watch.dirty
            and watch.count == len(watch.seq)
            and watch.node.exp == watch.exp + 1
            and len(rules) == watch.nrules
            and not any(rid in rules for rid in range(watch.rid0, self._next_rid))
            and all(rule.body() == body for rule, body in watch.snaps.items())
        )

    def _arm(self, watch: _Watch) -> None:
        """Arm the cursor with what a clean watched iteration did."""
        self._loop = watch.seq
        self._loop_pos = 0
        self._loop_node = watch.node
        self._loop_rids = self._next_rid - watch.rid0
        self._loop_merges = self._exponent_merges - watch.merges0

    def _touch(self, rule: Rule, node: SymbolUse) -> None:
        """Watch hook: ``rule``'s body is about to change at ``node``."""
        watch = self._watch
        if rule is self._root:
            if node not in watch.born:
                watch.dirty = True
        elif rule.rid < watch.rid0 and rule not in watch.snaps:
            watch.snaps[rule] = rule.body()

    # ------------------------------------------------------------------
    # invariant checking (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`GrammarError` if any paper invariant is violated."""
        rules = self.rules
        seen_digrams: dict[DigramKey, SymbolUse] = {}
        usage: dict[int, int] = {rid: 0 for rid in rules}
        for rule in rules.values():
            prev: SymbolUse | None = None
            for node in rule:
                if node.owner is not rule:
                    raise GrammarError(f"node {node!r} has wrong owner in {rule.name}")
                if node.exp < 1:
                    raise GrammarError(f"non-positive exponent on {node!r} in {rule.name}")
                sym = node.symbol
                if isinstance(sym, Rule):
                    if sym.rid not in rules:
                        raise GrammarError(f"{rule.name} references dead rule {sym.name}")
                    usage[sym.rid] += node.exp
                    if node not in sym.use_nodes:
                        raise GrammarError(f"use-node index misses {node!r} for {sym.name}")
                if prev is not None:
                    if prev.symbol == sym:
                        raise GrammarError(
                            f"adjacent equal symbols in {rule.name}: {prev!r} {node!r}"
                        )
                    key = (prev.symbol, sym)
                    if key in seen_digrams:
                        raise GrammarError(f"duplicate digram {key!r} in grammar")
                    seen_digrams[key] = prev
                    registered = self._digrams.get(key)
                    if registered is not prev:
                        raise GrammarError(f"digram index stale for {key!r}")
                prev = node
        for rid, count in usage.items():
            rule = rules[rid]
            if rule.usage != count:
                raise GrammarError(
                    f"usage counter of {rule.name} is {rule.usage}, recount says {count}"
                )
            if rid != self._root.rid and count < 2:
                raise GrammarError(f"rule {rule.name} used {count} < 2 times")
        for key, node in self._digrams.items():
            if node.owner is None:
                raise GrammarError(f"digram index holds dead node for {key!r}")
            if seen_digrams.get(key) is not node:
                raise GrammarError(f"digram index entry {key!r} points at wrong node")

    # ------------------------------------------------------------------
    # structural primitives
    # (``node.symbol is None`` is ``node.is_guard()`` without the call)
    # ------------------------------------------------------------------

    def _new_rule(self) -> Rule:
        rule = Rule(self._next_rid)
        self._next_rid += 1
        self._rules_created += 1
        self._rules[rule.rid] = rule
        return rule

    def _add_usage(self, sym: Symbol, delta: int) -> None:
        if isinstance(sym, Rule) and delta:
            sym.usage += delta
            if delta < 0:
                self._maybe_useless.append(sym)

    def _link_after(self, after: SymbolUse, sym: Symbol, exp: int, rule: Rule) -> SymbolUse:
        """Splice a new node carrying ``sym^exp`` right after ``after``."""
        node = SymbolUse(sym, exp)
        node.owner = rule
        nxt = after.next
        node.prev = after
        node.next = nxt
        after.next = node
        nxt.prev = node
        if isinstance(sym, Rule):
            sym.use_nodes.add(node)
            self._add_usage(sym, exp)
        return node

    def _unlink(self, node: SymbolUse) -> None:
        """Remove ``node`` from its body; digram entries must be forgotten first."""
        node.prev.next = node.next
        node.next.prev = node.prev
        sym = node.symbol
        if isinstance(sym, Rule):
            sym.use_nodes.discard(node)
            self._add_usage(sym, -node.exp)
        node.owner = None
        node.prev = node.next = None

    def _forget(self, left: SymbolUse | None) -> None:
        """Drop the digram-index entry registered for ``(left, left.next)``."""
        if left is None or left.owner is None or left.symbol is None:
            return
        right = left.next
        if right is None or right.symbol is None:
            return
        key = (left.symbol, right.symbol)
        if self._digrams.get(key) is left:
            del self._digrams[key]

    # ------------------------------------------------------------------
    # repair loop: digram uniqueness + merging + factoring
    # ------------------------------------------------------------------

    def _check_digram(self, left: SymbolUse | None) -> None:
        """Restore invariants for the couple starting at ``left``."""
        if left is None or left.owner is None or left.symbol is None:
            return
        right = left.next
        if right is None or right.symbol is None:
            return
        if left.symbol == right.symbol:
            # invariant 3: merge exponents (a^n a^m -> a^{n+m})
            if self._watch is not None:
                self._touch(left.owner, right)
            self._exponent_merges += 1
            self._forget(left)
            self._forget(right)
            self._add_usage(left.symbol, right.exp)  # exponent moves onto `left`...
            left.exp += right.exp
            self._unlink(right)  # ...and _unlink takes it back off `right`: net 0
            self._check_digram(left)
            return
        key = (left.symbol, right.symbol)
        found = self._digrams.get(key)
        if found is None or found.owner is None:
            self._digrams[key] = left
            return
        if found is left:
            return
        if found.next is None or found.next.symbol is None or found.next.symbol != right.symbol:
            # stale entry (should not happen); re-point and continue
            self._digrams[key] = left
            return
        self._factor(found, left)

    def _is_exact_couple_body(self, left: SymbolUse, en: int, em: int) -> bool:
        """True if ``left`` and its successor form an entire non-root rule body
        with exactly the shared exponents ``(en, em)`` — the reuse case."""
        rule = left.owner
        assert rule is not None
        if rule is self._root:
            return False
        return (
            left.prev.symbol is None
            and left.next.next.symbol is None
            and left.exp == en
            and left.next.exp == em
        )

    def _factor(self, occ1: SymbolUse, occ2: SymbolUse) -> None:
        """Factor two occurrences of the same couple into a rule (§II-A)."""
        x = occ1.symbol
        y = occ1.next.symbol
        en = min(occ1.exp, occ2.exp)
        em = min(occ1.next.exp, occ2.next.exp)

        reuse: Rule | None = None
        for occ in (occ1, occ2):
            if self._is_exact_couple_body(occ, en, em):
                reuse = occ.owner
                break

        if reuse is None:
            target = self._new_rule()
            nx = self._link_after(target.guard, x, en, target)
            self._link_after(nx, y, em, target)
            self._digrams[(x, y)] = nx
            sites = [occ1, occ2]
        else:
            target = reuse
            self._digrams[(x, y)] = target.first  # keep index on the body copy
            sites = [occ for occ in (occ1, occ2) if occ.owner is not target]

        recheck: list[SymbolUse] = []
        for occ in sites:
            recheck.extend(self._substitute(occ, target, en, em))
        for node in recheck:
            self._check_digram(node)

    def _substitute(
        self, left: SymbolUse, target: Rule, en: int, em: int
    ) -> list[SymbolUse]:
        """Replace ``x^en y^em`` (inside ``x^n y^m`` at ``left``) by ``target``.

        Residual exponents ``x^{n-en}`` / ``y^{m-em}`` stay in place.
        Returns boundary nodes whose digrams must be re-checked.
        """
        right = left.next
        rule = left.owner
        assert rule is not None and right is not None
        watch = self._watch
        if watch is not None:
            self._touch(rule, left)
        prev = left.prev
        self._forget(prev)
        self._forget(left)
        self._forget(right)

        use = self._link_after(left, target, 1, rule)
        if watch is not None and rule is self._root:
            watch.born.add(use)

        self._add_usage(left.symbol, -en)
        left.exp -= en
        if left.exp == 0:
            self._unlink(left)
        self._add_usage(right.symbol, -em)
        right.exp -= em
        if right.exp == 0:
            self._unlink(right)

        recheck = []
        for node in (prev, use.prev, use, use.next):
            if node is not None and node.owner is not None and node.symbol is not None:
                if node not in recheck:
                    recheck.append(node)
        return recheck

    # ------------------------------------------------------------------
    # rule utility (invariant 1)
    # ------------------------------------------------------------------

    def _drain_useless(self) -> None:
        """Inline every rule whose usage dropped below 2 (paper Fig. 3f)."""
        while self._maybe_useless:
            rule = self._maybe_useless.pop()
            if rule.rid not in self._rules or rule is self._root:
                continue
            if rule.usage >= 2:
                continue
            if rule.usage <= 0:
                raise GrammarError(
                    f"rule {rule.name} usage dropped to {rule.usage}; "
                    "grammar bookkeeping is corrupted"
                )
            self._inline(rule)

    def _inline(self, rule: Rule) -> None:
        """Splice the body of a once-used rule into its single use site."""
        uses = [n for n in rule.use_nodes if n.owner is not None]
        if len(uses) != 1 or uses[0].exp != 1:
            return  # defensive: only a single exp-1 use can be inlined
        use = uses[0]
        host = use.owner
        assert host is not None
        watch = self._watch
        if watch is not None:
            self._touch(host, use)
        prev = use.prev
        nxt = use.next
        self._forget(prev)
        self._forget(use)
        first = rule.first
        last = rule.last
        del self._rules[rule.rid]
        self._unlink(use)
        if first is None:
            # empty body (cannot normally happen): nothing to splice
            self._check_digram(prev)
            return
        # splice the body nodes (keeping internal digram entries valid)
        node = first
        while True:
            node.owner = host
            if node is last:
                break
            node = node.next
        prev.next = first
        first.prev = prev
        last.next = nxt
        nxt.prev = last
        if watch is not None and host is self._root:
            node = first
            while node is not nxt:
                watch.born.add(node)
                node = node.next
        self._check_digram(prev)
        self._check_digram(last)


# ----------------------------------------------------------------------
# expansions
# ----------------------------------------------------------------------


def _expand(rule: Rule) -> list[int]:
    """The terminal sequence ``rule`` expands to.

    Iterative (explicit stack) so that adversarial traces cannot hit
    Python's recursion limit.  Each stack entry ``(node, reps)`` means
    "expand ``node`` ``reps`` more times, then continue at ``node.next``".
    """
    out: list[int] = []
    stack: list[tuple[SymbolUse, int]] = []
    first = rule.first
    if first is None:
        return out
    stack.append((first, first.exp))
    while stack:
        node, reps = stack.pop()
        if reps == 0:
            nxt = node.next
            if nxt.symbol is not None:
                stack.append((nxt, nxt.exp))
            continue
        sym = node.symbol
        if is_terminal(sym):
            out.extend([sym] * reps)
            nxt = node.next
            if nxt.symbol is not None:
                stack.append((nxt, nxt.exp))
        else:
            stack.append((node, reps - 1))  # continuation after one expansion
            body_first = sym.first
            if body_first is not None:
                stack.append((body_first, body_first.exp))
    return out


def _head(rule: Rule) -> int:
    """First terminal of ``rule``'s expansion."""
    sym: Symbol = rule
    while sym.__class__ is Rule:
        sym = sym.guard.next.symbol
    return sym

