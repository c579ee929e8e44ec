"""DFA policies: the order of actions matters, not just which or how many.

A policy automaton accepts the complete local traces a single agent may
produce. Enforcement between automata is language inclusion, decided by
the complement/product/emptiness construction. An agent's possible traces
are captured by a regular expression extended with shuffle and shuffle
closure; conformance is language inclusion of that expression in the
automaton's language, decided by a breadth-first search over expression
derivatives paired with automaton states.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import chain
from typing import ClassVar, Iterable, Mapping

from .core import (
    Act, Agent, Go, Judgment, Nil, Par, PolicyRegime, Repl, System, combine,
    _leaves, judge_trustworthy, subagents, threads,
)

DEFAULT_BOUND = 10_000


# ---------------------------------------------------------------------------
# Automata


@dataclass(frozen=True)
class Dfa:
    """A deterministic finite automaton with a total transition function.

    Policy automata arriving from files additionally have a nonempty final
    set and are minimized on ingest; automata derived internally
    (complements, products) may have an empty final set.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    start: str
    finals: frozenset[str]
    transitions: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        if self.start not in self.states:
            raise ValueError(f"start state '{self.start}' not among states")
        if not self.finals <= self.states:
            raise ValueError("final states must be a subset of states")
        seen = set()
        for src, sym, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition {src} -{sym}-> {dst} references unknown state")
            if sym not in self.alphabet:
                raise ValueError(f"transition symbol '{sym}' not in alphabet")
            if (src, sym) in seen:
                raise ValueError(f"duplicate transition from {src} on '{sym}'")
            seen.add((src, sym))
        if len(seen) != len(self.states) * len(self.alphabet):
            raise ValueError("transition function must be total")

    @classmethod
    def of(cls, states: Iterable[str], alphabet: Iterable[str], start: str,
           finals: Iterable[str], transitions: Mapping[tuple[str, str], str]) -> "Dfa":
        return cls(frozenset(states), frozenset(alphabet), start, frozenset(finals),
                   tuple(sorted((s, a, d) for (s, a), d in transitions.items())))

    @cached_property
    def delta(self) -> dict[tuple[str, str], str]:
        return {(s, a): d for s, a, d in self.transitions}

    def step(self, state: str, symbol: str) -> str | None:
        """Successor state, or None for symbols outside the alphabet (implicit sink)."""
        return self.delta.get((state, symbol))

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.states)), tuple(sorted(self.alphabet)),
                self.start, tuple(sorted(self.finals)), self.transitions)


@dataclass(frozen=True)
class DfaPolicy:
    """A named reference to a policy automaton, as written `@name` in system files."""

    name: str
    dfa: Dfa
    regime: ClassVar[PolicyRegime] = PolicyRegime.DFA

    def __str__(self) -> str:
        return f"@{self.name}"

    def sort_key(self) -> tuple:
        return ("dfa", self.name, self.dfa.sort_key())


def accepts_from(a: Dfa, state: str, word: Iterable[str]) -> bool:
    """Whether the word leads the automaton from `state` to a final state.

    Symbols outside the alphabet fall into the implicit sink: the word is
    rejected.
    """
    s: str | None = state
    if s not in a.states:
        raise ValueError(f"unknown state '{state}'")
    for sym in word:
        s = a.step(s, sym)
        if s is None:
            return False
    return s in a.finals


def accepts(a: Dfa, word: Iterable[str]) -> bool:
    return accepts_from(a, a.start, word)


def with_alphabet(a: Dfa, symbols: Iterable[str]) -> Dfa:
    """The same language over an enlarged alphabet; new symbols go to a sink."""
    extended = a.alphabet | frozenset(symbols)
    if extended == a.alphabet:
        return a
    sink = "sink"
    while sink in a.states:
        sink += "_"
    delta = dict(a.delta)
    for s in a.states:
        for sym in extended - a.alphabet:
            delta[(s, sym)] = sink
    for sym in extended:
        delta[(sink, sym)] = sink
    return Dfa.of(a.states | {sink}, extended, a.start, a.finals, delta)


def complement(a: Dfa) -> Dfa:
    """Flip final states; correct because the transition function is total."""
    return Dfa(a.states, a.alphabet, a.start, a.states - a.finals, a.transitions)


def intersect(a1: Dfa, a2: Dfa) -> Dfa:
    """Product automaton over the union alphabet (missing symbols routed to sinks)."""
    sigma = a1.alphabet | a2.alphabet
    return _product(with_alphabet(a1, sigma), with_alphabet(a2, sigma))


def _product(a1: Dfa, a2: Dfa) -> Dfa:
    # Callers guarantee identical alphabets. Pair states get index-based
    # names so that no choice of input state names can collide.
    assert a1.alphabet == a2.alphabet
    s1 = sorted(a1.states)
    s2 = sorted(a2.states)
    name = {(p, q): f"p{i}_{j}" for i, p in enumerate(s1) for j, q in enumerate(s2)}
    delta = {}
    for p in s1:
        for q in s2:
            for sym in a1.alphabet:
                delta[(name[(p, q)], sym)] = name[(a1.delta[(p, sym)], a2.delta[(q, sym)])]
    finals = {name[(p, q)] for p in a1.finals for q in a2.finals}
    return Dfa.of(name.values(), a1.alphabet, name[(a1.start, a2.start)], finals, delta)


def _bfs(start, edges):
    """Breadth-first search from `start`, where `edges(node)` lists its
    (symbol, successor) pairs; yields each node reached with the first
    word that reached it."""
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        node, word = queue.popleft()
        yield node, word
        for sym, nxt in edges(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (sym,)))


def _reachable(a: Dfa):
    """Every reachable state with a shortest word reaching it, breadth-first
    over the sorted alphabet."""
    syms = sorted(a.alphabet)
    return _bfs(a.start, lambda s: [(sym, a.delta[(s, sym)]) for sym in syms])


def is_empty(a: Dfa) -> bool:
    """Empty iff no final state is reachable."""
    return all(s not in a.finals for s, _ in _reachable(a))


def enforces_dfa(a1: Dfa, a2: Dfa) -> bool:
    """Language inclusion: no word leads a1 to a final state and a2 not.

    Explores the product lazily, breadth-first from the start pair over
    the union alphabet, and stops at the first pair that is final in a1
    and not in a2. A symbol outside an automaton's alphabet sends it to
    its sink (None), which is never final; pairs where a1 is in its sink
    are not explored, since no final pair lies beyond them.
    """
    syms = sorted(a1.alphabet | a2.alphabet)

    def edges(pair):
        p, q = pair
        return [(sym, (a1.step(p, sym), a2.step(q, sym) if q is not None else None))
                for sym in syms if sym in a1.alphabet]

    return not any(p in a1.finals and q not in a2.finals
                   for (p, q), _ in _bfs((a1.start, a2.start), edges))


def minimize(a: Dfa) -> Dfa:
    """The minimal automaton for the same language, canonically named.

    Unreachable states are dropped, equivalent states merged by Hopcroft's
    partition refinement, and the result renamed q0,q1,... in breadth-first
    order over the sorted alphabet, so language-equal minimal automata
    compare equal as values.
    """
    syms = sorted(a.alphabet)
    reach = [s for s, _ in _reachable(a)]
    sources: dict[tuple[str, str], list[str]] = {}  # (symbol, state) -> predecessors
    for s in reach:
        for sym in syms:
            sources.setdefault((sym, a.delta[(s, sym)]), []).append(s)
    blocks = [b for b in ({s for s in reach if s in a.finals},
                          {s for s in reach if s not in a.finals}) if b]
    block_of = {s: i for i, b in enumerate(blocks) for s in b}
    # Refine against (block, symbol) splitters. One of the first two
    # blocks is enough to start from, and once a block splits, only the
    # smaller half needs to serve as a new splitter: splitting by the whole
    # block and by one half already splits by the other.
    todo = {(len(blocks) - 1, sym) for sym in syms}
    while todo:
        i, sym = todo.pop()
        movers: dict[int, list[str]] = {}
        for t in blocks[i]:
            for s in sources.get((sym, t), ()):
                movers.setdefault(block_of[s], []).append(s)
        for j, moved in movers.items():
            if len(moved) == len(blocks[j]):
                continue
            k = len(blocks)
            blocks.append(set(moved))
            blocks[j] -= blocks[k]
            for s in moved:
                block_of[s] = k
            small = k if len(blocks[k]) <= len(blocks[j]) else j
            for sym2 in syms:
                todo.add((k, sym2) if (j, sym2) in todo else (small, sym2))

    rep = [next(iter(b)) for b in blocks]
    quotient = _bfs(block_of[a.start],
                    lambda i: [(sym, block_of[a.delta[(rep[i], sym)]]) for sym in syms])
    names = {i: f"q{k}" for k, (i, _) in enumerate(quotient)}

    delta = {}
    finals = set()
    for i, label in names.items():
        if rep[i] in a.finals:
            finals.add(label)
        for sym in syms:
            delta[(label, sym)] = names[block_of[a.delta[(rep[i], sym)]]]
    return Dfa.of(names.values(), a.alphabet, "q0", finals, delta)


# ---------------------------------------------------------------------------
# Concurrent regular expressions

# Grammar: empty word, a single symbol, concatenation, shuffle (arbitrary
# interleaving of one word from each side), and shuffle closure (any number
# of words from the body, interleaved).

_set = object.__setattr__


@dataclass(frozen=True, slots=True, eq=False)
class Cre:
    """Base class for expression nodes. All nodes are immutable and hashable.

    Besides its fields, every node caches its hash, whether it is
    nullable, its symbol set and its size (the number of nodes in its
    tree; nonzero once filled). All four are filled together, children
    first, by one explicit-stack walk, and never changed once set. Each is
    a function of the node's structure alone, so nodes stay values.
    Equality and ordering also walk with explicit stacks, so a deep
    expression costs no Python recursion. `_rank` orders the node kinds
    as the tags of `cre_key` sort (clo < eps < seq < shuf < sym), so
    `_cre_cmp` orders nodes as their keys.
    """

    _hash: int = field(default=0, init=False, repr=False)
    _nullable: bool = field(default=False, init=False, repr=False)
    _symbols: frozenset[str] = field(default=frozenset(), init=False, repr=False)
    _size: int = field(default=0, init=False, repr=False)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return hash(self) == hash(other) and _cre_cmp(self, other) == 0

    def __hash__(self) -> int:
        if not self._size:
            _fill(self)
        return self._hash


class Eps(Cre):
    """The empty word; there is one instance, EPS."""

    __slots__ = ()
    _rank = 1

    def __new__(cls):
        return EPS

    def __init__(self):
        pass

    def __str__(self) -> str:
        return "eps"


@dataclass(frozen=True, slots=True, eq=False)
class Sym(Cre):
    symbol: str
    _rank: ClassVar[int] = 4

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True, slots=True, eq=False)
class Seq(Cre):
    first: Cre
    second: Cre
    _rank: ClassVar[int] = 2
    _tag: ClassVar[str] = "seq"

    def __str__(self) -> str:
        return f"({self.first}.{self.second})"


@dataclass(frozen=True, slots=True, eq=False)
class Shuffle(Cre):
    left: Cre
    right: Cre
    _rank: ClassVar[int] = 3
    _tag: ClassVar[str] = "shuf"

    def __str__(self) -> str:
        return f"({self.left} (x) {self.right})"


@dataclass(frozen=True, slots=True, eq=False)
class ShuffleClosure(Cre):
    body: Cre
    _rank: ClassVar[int] = 0

    def __str__(self) -> str:
        return f"({self.body})*x"


def _pair(e: Seq | Shuffle) -> tuple[Cre, Cre]:
    return (e.first, e.second) if type(e) is Seq else (e.left, e.right)


def _children(e: Cre) -> tuple:
    if isinstance(e, (Seq, Shuffle)):
        return _pair(e)
    if isinstance(e, ShuffleClosure):
        return (e.body,)
    if isinstance(e, (Eps, Sym)):
        return ()
    raise TypeError(f"not a CRE: {e!r}")


def _fill_node(e: Cre) -> Cre:
    """Set the caches of e from those of its children, which must be set."""
    if isinstance(e, Eps):
        h, null, syms, size = hash(("eps",)), True, frozenset(), 1
    elif isinstance(e, Sym):
        h, null, syms, size = hash(("sym", e.symbol)), False, frozenset((e.symbol,)), 1
    elif isinstance(e, ShuffleClosure):
        body = e.body
        h, null, syms, size = hash(("clo", body._hash)), True, body._symbols, body._size + 1
    else:
        a, b = _pair(e)
        h = hash((e._tag, a._hash, b._hash))
        null = a._nullable and b._nullable
        syms = b._symbols if a._symbols <= b._symbols else a._symbols | b._symbols
        size = a._size + b._size + 1
    _set(e, "_hash", h)
    _set(e, "_nullable", null)
    _set(e, "_symbols", syms)
    _set(e, "_size", size)
    return e


EPS = _fill_node(object.__new__(Eps))


def _fill(e: Cre) -> Cre:
    """Fill the caches of e and of every node below it that lacks them,
    children first; returns e."""
    stack = [e]
    while stack:
        node = stack[-1]
        if not isinstance(node, Cre):
            raise TypeError(f"not a CRE: {node!r}")
        if node._size:
            stack.pop()
            continue
        pending = [c for c in _children(node) if not isinstance(c, Cre) or not c._size]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        _fill_node(node)
    return e


def _cre_cmp(a: Cre, b: Cre) -> int:
    """Compare cre_key(a) with cre_key(b) (-1, 0 or 1), pairwise down both
    trees: the first difference in pre-order decides, as it does between
    the nested key tuples. Shared subtrees are skipped by identity."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x._rank != y._rank:
            return -1 if x._rank < y._rank else 1
        if isinstance(x, Sym):
            if x.symbol != y.symbol:
                return -1 if x.symbol < y.symbol else 1
        elif isinstance(x, ShuffleClosure):
            stack.append((x.body, y.body))
        elif not isinstance(x, Eps):
            (x1, x2), (y1, y2) = _pair(x), _pair(y)
            stack.append((x2, y2))
            stack.append((x1, y1))
    return 0


_CRE_ORDER = cmp_to_key(_cre_cmp)


def cre_key(e: Cre) -> tuple:
    """Structural sort key; injective on expressions. Built children first
    by one explicit-stack walk; `_cre_cmp` gives the same order without
    building it."""
    keys: dict[int, tuple] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in keys:
            stack.pop()
            continue
        kids = _children(node)
        pending = [c for c in kids if id(c) not in keys]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Eps):
            key = ("eps",)
        elif isinstance(node, Sym):
            key = ("sym", node.symbol)
        elif isinstance(node, ShuffleClosure):
            key = ("clo", keys[id(node.body)])
        else:
            key = (node._tag, keys[id(kids[0])], keys[id(kids[1])])
        keys[id(node)] = key
    return keys[id(e)]


def nullable(e: Cre) -> bool:
    """Whether the empty word belongs to the expression's language."""
    return _fill(e)._nullable


def cre_symbols(e: Cre) -> frozenset[str]:
    return _fill(e)._symbols


def _parts(e: Cre, kind: type) -> list[Cre]:
    """The nodes of e's tree of `kind` nodes that are not of that kind
    themselves, left to right (e itself when it is of another kind)."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            a, b = _pair(node)
            stack.append(b)
            stack.append(a)
        else:
            out.append(node)
    return out


def _factors(e: Cre, kind: type) -> list[Cre]:
    """The factors of a normal `kind` chain, left to right: none for EPS,
    e alone when it is of another kind."""
    if e is EPS:
        return []
    out = []
    if kind is Shuffle:
        while type(e) is Shuffle:
            out.append(e.left)
            e = e.right
    else:
        while type(e) is Seq:
            out.append(e.first)
            e = e.second
    out.append(e)
    return out


_NO_RESIDUALS = frozenset()
_EPS_ONLY = frozenset({EPS})


class _Engine:
    """Normal forms and derivatives for one search or one call.

    Every node the engine returns is in normal form and interned in its
    table: equal nodes built by one engine are one object, so the memo,
    the derivative sets and the search compare them by identity, and
    their caches are computed once. Constructors take normal arguments
    and build only a new top chain: a sequence prepends its first part's
    factors to the second part, and a shuffle sorts two already sorted
    factor lists together, which takes about as many comparisons as there
    are factors. Nothing is shared between
    engines, and the tables go when the engine does.
    """

    __slots__ = ("nodes", "derivs")

    def __init__(self):
        self.nodes: dict = {}   # symbol, or (kind, id(child), id(child)) -> node
        self.derivs: dict = {}  # (id(node), symbol) -> frozenset of residuals

    def _node(self, kind: type, a: Cre, b: Cre | None = None) -> Cre:
        key = (kind, id(a), id(b))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = _fill_node(kind(a) if b is None else kind(a, b))
        return node

    def sym(self, symbol: str) -> Sym:
        node = self.nodes.get(symbol)
        if node is None:
            node = self.nodes[symbol] = _fill_node(Sym(symbol))
        return node

    def chain(self, kind: type, factors: list[Cre], tail: Cre | None = None) -> Cre:
        """The right-nested `kind` chain of the factors, ending in `tail`
        (the last factor when no tail is given); EPS when empty."""
        if tail is None:
            if not factors:
                return EPS
            tail = factors[-1]
            factors = factors[:-1]
        for f in reversed(factors):
            tail = self._node(kind, f, tail)
        return tail

    def seq(self, a: Cre, b: Cre) -> Cre:
        """The normal form of a.b."""
        return a if b is EPS else self.chain(Seq, _factors(a, Seq), b)

    def shuffle(self, a: Cre, b: Cre) -> Cre:
        """The normal form of a (x) b."""
        return self.flat(Shuffle, [a, b])

    def closure(self, body: Cre) -> Cre:
        """The normal form of the shuffle closure of body."""
        if body is EPS or type(body) is ShuffleClosure:
            return body
        return self._node(ShuffleClosure, body)

    def flat(self, kind: type, parts: list[Cre]) -> Cre:
        """The normal `kind` composition of normal parts, in one pass: each
        part's factors are spliced in, and shuffle factors sorted once."""
        factors = [f for part in parts for f in _factors(part, kind)]
        if kind is Shuffle:
            factors.sort(key=_CRE_ORDER)
        return self.chain(kind, factors)

    def normal(self, e: Cre) -> Cre:
        """The interned normal form of any expression.

        Shuffle is flattened, sorted and stripped of empty-word units (it
        is associative and commutative with unit eps); concatenation is
        right-nested with units dropped; closure of eps or of a closure
        collapses. A part whose normal form is of its parent's kind is
        spliced into the parent, so the result is its own normal form.
        """
        done: dict[int, Cre] = {}
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            if isinstance(node, Eps):
                out = EPS
            elif isinstance(node, Sym):
                out = self.sym(node.symbol)
            elif isinstance(node, ShuffleClosure):
                if id(node.body) not in done:
                    stack.append(node.body)
                    continue
                out = self.closure(done[id(node.body)])
            elif isinstance(node, (Seq, Shuffle)):
                parts = _parts(node, type(node))
                pending = [p for p in parts if id(p) not in done]
                if pending:
                    stack.extend(pending)
                    continue
                out = self.flat(type(node), [done[id(p)] for p in parts])
            else:
                raise TypeError(f"not a CRE: {node!r}")
            stack.pop()
            done[id(node)] = out
        return done[id(e)]

    def derive(self, e: Cre, symbol: str) -> frozenset[Cre]:
        """The residuals of an interned normal expression after reading
        one symbol, memoized. Several residuals can arise because a
        shuffle may take the symbol from any factor; the set plays the
        role of an alternation."""
        memo = self.derivs
        top = (id(e), symbol)
        out = memo.get(top)
        if out is not None:
            return out
        stack = [e]
        while stack:
            node = stack[-1]
            if (id(node), symbol) in memo:
                stack.pop()
                continue
            if type(node) is Seq:
                needs = (node.first, node.second) if node.first._nullable else (node.first,)
            elif type(node) is Shuffle:
                needs = _factors(node, Shuffle)
            elif type(node) is ShuffleClosure:
                needs = (node.body,)
            else:
                needs = ()
            pending = [x for x in needs if (id(x), symbol) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            memo[(id(node), symbol)] = self._residuals(node, symbol, needs)
        return memo[top]

    def _residuals(self, e: Cre, symbol: str, parts) -> frozenset[Cre]:
        """derive, one node, from the memoized residuals of its parts (a
        shuffle's parts are its factors)."""
        memo = self.derivs
        kind = type(e)
        if kind is Sym:
            return _EPS_ONLY if e.symbol == symbol else _NO_RESIDUALS
        if kind is Seq:
            out = {self.seq(d, e.second) for d in memo[(id(e.first), symbol)]}
            if e.first._nullable:
                out |= memo[(id(e.second), symbol)]
            return frozenset(out)
        if kind is ShuffleClosure:
            return frozenset(self.shuffle(d, e) for d in memo[(id(e.body), symbol)])
        if kind is Shuffle:
            out = set()
            for i, f in enumerate(parts):
                if i and f is parts[i - 1]:
                    continue  # an equal factor yields the same residuals
                residuals = memo[(id(f), symbol)]
                if residuals:
                    rest = parts[:i] + parts[i + 1:]
                    for d in residuals:
                        out.add(self.chain(Shuffle, sorted(rest + _factors(d, Shuffle), key=_CRE_ORDER)))
            return frozenset(out)
        return _NO_RESIDUALS


def cre_normal(e: Cre) -> Cre:
    """Language-preserving canonical form (see `_Engine.normal`); normalizing
    derivative states is what keeps the search space finite for
    replication-free agents. Idempotent."""
    return _Engine().normal(e)


def derive(e: Cre, symbol: str) -> frozenset[Cre]:
    """All normalized residuals of e's normal form after reading one symbol."""
    engine = _Engine()
    return engine.derive(engine.normal(e), symbol)


def derive_state(state: frozenset[Cre], symbol: str, engine: _Engine | None = None) -> frozenset[Cre]:
    """The residuals of every expression in the state after reading one
    symbol. A search passes the engine whose nodes its states hold. The
    two-argument call stays public: it normalizes the state into a fresh
    engine first, so it takes any expressions."""
    if engine is None:
        engine = _Engine()
        state = [engine.normal(e) for e in state]
    return frozenset().union(*[engine.derive(e, symbol) for e in state])


def lang_member(e: Cre, word: Iterable[str]) -> bool:
    """Word membership in the expression's language, by symbol-wise derivation."""
    engine = _Engine()
    state: frozenset[Cre] = frozenset({engine.normal(e)})
    for symbol in word:
        state = derive_state(state, symbol, engine)
        if not state:
            return False
    return any(x._nullable for x in state)


def lang_words(e: Cre, max_len: int) -> set[tuple[str, ...]]:
    """All words of the language up to the given length."""
    engine = _Engine()
    out: set[tuple[str, ...]] = set()
    start = engine.normal(e)
    frontier: dict[tuple[str, ...], frozenset[Cre]] = {(): frozenset({start})}
    if start._nullable:
        out.add(())
    for _ in range(max_len):
        nxt: dict[tuple[str, ...], frozenset[Cre]] = {}
        for word, state in frontier.items():
            for symbol in sorted(frozenset().union(*[x._symbols for x in state])):
                state2 = derive_state(state, symbol, engine)
                if not state2:
                    continue
                word2 = word + (symbol,)
                nxt[word2] = state2
                if any(x._nullable for x in state2):
                    out.add(word2)
        frontier = nxt
        if not frontier:
            break
    return out


def cre_of(p: Agent) -> Cre:
    """The trace expression of an agent, normalized.

    Migration contributes only the target's name: whatever the moved code
    does, it does elsewhere, outside this site's policy. Built bottom-up
    with an explicit stack, each parallel composition in one pass over
    its threads.
    """
    engine = _Engine()
    done: dict[int, Cre] = {}
    stack = [p]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        if isinstance(node, Nil):
            out = EPS
        elif isinstance(node, Go):
            out = engine.sym(node.target)
        elif isinstance(node, Par):
            leaves = _leaves(node)
            pending = [t for t in leaves if id(t) not in done]
            if pending:
                stack.extend(pending)
                continue
            out = engine.flat(Shuffle, [done[id(t)] for t in leaves])
        elif isinstance(node, (Act, Repl)):
            child = node.cont if isinstance(node, Act) else node.body
            if id(child) not in done:
                stack.append(child)
                continue
            if isinstance(node, Act):
                out = engine.seq(engine.sym(node.action), done[id(child)])
            else:
                out = engine.closure(done[id(child)])
        else:
            raise TypeError(f"not an agent: {node!r}")
        stack.pop()
        done[id(node)] = out
    return done[id(p)]


# ---------------------------------------------------------------------------
# Agent conformance to a DFA policy


@dataclass(frozen=True)
class DfaCheck:
    """Outcome of a conformance check: yes, no (with a witness word), or unknown."""

    verdict: str  # "yes" | "no" | "unknown"
    counterexample: tuple[str, ...] | None = None


def _has_replication(p: Agent) -> bool:
    return any(isinstance(node, Repl) for node in subagents(p))


# Shuffle closures can grow a derivative without limit (one extra parallel
# residue per unfolding), while closure searches that do terminate keep
# their states small; past this many nodes in one derivative state the
# bounded search gives up rather than degrade.
_STATE_SIZE_CAP = 64


def _language_included(e: Cre, a: Dfa, start: str, bound: int, bounded: bool):
    """Search (expression derivative, automaton state) pairs breadth-first.

    Returns ("no", word) on the shortest word the expression can produce
    that the automaton does not accept from `start`; ("yes", None) when
    the reachable pair set closes; ("unknown", None) when the search
    exceeds `bound` pairs and `bounded` is set (shuffle closure makes the
    space infinite in general, so only then is the bound live). One
    engine serves the search, so each derivative is built once.
    """
    engine = _Engine()
    root = (frozenset({engine.normal(e)}), start)
    seen = {root}
    queue = deque([(root, ())])  # each pair with its word, as nested (symbol, rest) pairs
    while queue:
        (state, dstate), trail = queue.popleft()
        if any(x._nullable for x in state):
            if dstate is None or dstate not in a.finals:
                word = []
                while trail:
                    symbol, trail = trail
                    word.append(symbol)
                return "no", tuple(reversed(word))
        for symbol in sorted(frozenset().union(*[x._symbols for x in state])):
            state2 = derive_state(state, symbol, engine)
            if not state2:
                continue
            dstate2 = a.step(dstate, symbol) if dstate is not None else None
            nxt = (state2, dstate2)
            if nxt not in seen:
                if bounded and (len(seen) >= bound
                                or sum(x._size for x in state2) > _STATE_SIZE_CAP):
                    return "unknown", None
                seen.add(nxt)
                queue.append((nxt, (symbol, trail)))
    return "yes", None


def _digest_checks(p: Agent, bound: int):
    """Check every migration inside p against the digest it professes, from
    that digest's start state; yields (go node, verdict, counterexample)
    in pre-order. A digest that is not a DFA policy fails with no word.
    """
    for node in subagents(p):
        if isinstance(node, Go):
            if not isinstance(node.digest, DfaPolicy):
                yield node, "no", None
                continue
            dfa = node.digest.dfa
            yield (node, *_language_included(cre_of(node.cont), dfa, dfa.start, bound,
                                             _has_replication(node.cont)))


def satisfies_dfa(p: Agent, a: Dfa, bound: int = DEFAULT_BOUND) -> DfaCheck:
    """Whether every trace the agent can produce is accepted by the automaton.

    Every migration subagent is checked recursively against the digest it
    professes (from that digest's own start state): admitting p also
    vouches for every promise inside it. Exact for replication-free
    agents; with replication the search is cut off at `bound` explored
    pairs and reports unknown.
    """
    own = _language_included(cre_of(p), a, a.start, bound, _has_replication(p))
    unknown = False
    for _, verdict, word in chain([(p, *own)], _digest_checks(p, bound)):
        if verdict == "no":
            return DfaCheck("no", word)
        unknown = unknown or verdict == "unknown"
    return DfaCheck("unknown" if unknown else "yes")


_VERDICT = {"yes": True, "no": False, "unknown": None}


def judge_dfa(n: System, bound: int = DEFAULT_BOUND) -> Judgment:
    """Thread-wise well-formedness: each thread at a trustworthy site must fit
    the site automaton from *some* state: its traces are suffixes of
    accepted words, witnessing code that is mid-protocol but on-protocol.
    Every digest a thread professes must also hold of the code behind it.

    The verdict is None when a replication bound was exceeded before a
    verdict was reached. Precondition: n is coherent.
    """
    def judge_site(site, policy):
        dfa = policy.dfa
        verdicts: list[bool | None] = []
        notes: list[str] = []
        for i, thread in enumerate(threads(site.agent)):
            for node, v, word in _digest_checks(thread, bound):
                verdicts.append(_VERDICT[v])
                if v == "no" and not isinstance(node.digest, DfaPolicy):
                    notes.append(f"thread {i} carries a non-DFA digest")
                elif v == "no":
                    notes.append(f"thread {i} professes digest {node.digest} "
                                 f"its code violates (counterexample: '{' '.join(word)}')")
            bounded = _has_replication(thread)
            e = cre_of(thread)
            per_state = {}
            for s in sorted(dfa.states):
                per_state[s] = _language_included(e, dfa, s, bound, bounded)
                if per_state[s][0] == "yes":
                    verdicts.append(True)
                    witness = next((w for q, w in _reachable(dfa) if q == s), None)
                    if witness is not None:
                        notes.append(
                            f"thread {i} fits {policy} from state {s}"
                            + (f" (reached by '{' '.join(witness)}')" if witness else " (the start state)"))
                    break
            else:
                if any(v == "unknown" for v, _ in per_state.values()):
                    verdicts.append(None)
                    notes.append(f"thread {i} verdict inconclusive (bound {bound} exceeded)")
                else:
                    verdicts.append(False)
                    # every state was searched, the start state included
                    word = per_state[dfa.start][1]
                    notes.append(f"thread {i} fits {policy} from no state "
                                 f"(counterexample from start: '{' '.join(word)}')")
        return Judgment(combine(verdicts), tuple(notes))

    return judge_trustworthy(n, DfaPolicy, "DFA", judge_site)


def wellformed_dfa(n: System, bound: int = DEFAULT_BOUND) -> bool | None:
    return judge_dfa(n, bound).verdict


def explain_wellformed_dfa(n: System, bound: int = DEFAULT_BOUND) -> list[str]:
    return list(judge_dfa(n, bound).notes)
