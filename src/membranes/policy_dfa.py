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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import ClassVar, Iterable, Mapping

from .core import (
    Act, Agent, Go, Judgment, Nil, Par, PolicyRegime, Repl, System, combine,
    judge_trustworthy, subagents, threads,
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
    """Language inclusion, via emptiness of L(a1) minus L(a2)."""
    sigma = a1.alphabet | a2.alphabet
    return is_empty(_product(with_alphabet(a1, sigma), complement(with_alphabet(a2, sigma))))


def minimize(a: Dfa) -> Dfa:
    """The minimal automaton for the same language, canonically named.

    Unreachable states are dropped, equivalent states merged by partition
    refinement, and the result renamed q0,q1,... in breadth-first order
    over the sorted alphabet, so language-equal minimal automata compare
    equal as values.
    """
    syms = sorted(a.alphabet)
    reach = [s for s, _ in _reachable(a)]
    final_block = sorted(s for s in reach if s in a.finals)
    other_block = sorted(s for s in reach if s not in a.finals)
    blocks = [b for b in (final_block, other_block) if b]
    block_of = {s: i for i, b in enumerate(blocks) for s in b}
    while True:
        refined: list[list[str]] = []
        for block in blocks:
            groups: dict[tuple, list[str]] = {}
            for s in block:
                sig = tuple(block_of[a.delta[(s, sym)]] for sym in syms)
                groups.setdefault(sig, []).append(s)
            refined.extend(groups.values())
        if len(refined) == len(blocks):
            break
        blocks = refined
        block_of = {s: i for i, b in enumerate(blocks) for s in b}

    quotient = _bfs(block_of[a.start],
                    lambda i: [(sym, block_of[a.delta[(blocks[i][0], sym)]]) for sym in syms])
    names = {i: f"q{k}" for k, (i, _) in enumerate(quotient)}

    delta = {}
    finals = set()
    for i, label in names.items():
        rep = blocks[i][0]
        if rep in a.finals:
            finals.add(label)
        for sym in syms:
            delta[(label, sym)] = names[block_of[a.delta[(rep, sym)]]]
    return Dfa.of(names.values(), a.alphabet, "q0", finals, delta)


# ---------------------------------------------------------------------------
# Concurrent regular expressions

# Grammar: empty word, a single symbol, concatenation, shuffle (arbitrary
# interleaving of one word from each side), and shuffle closure (any number
# of words from the body, interleaved).


class Cre:
    __slots__ = ()


@dataclass(frozen=True)
class Eps(Cre):
    def __str__(self) -> str:
        return "eps"


EPS = Eps()


@dataclass(frozen=True)
class Sym(Cre):
    symbol: str

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class Seq(Cre):
    first: Cre
    second: Cre

    def __str__(self) -> str:
        return f"({self.first}.{self.second})"


@dataclass(frozen=True)
class Shuffle(Cre):
    left: Cre
    right: Cre

    def __str__(self) -> str:
        return f"({self.left} (x) {self.right})"


@dataclass(frozen=True)
class ShuffleClosure(Cre):
    body: Cre

    def __str__(self) -> str:
        return f"({self.body})*x"


def cre_key(e: Cre) -> tuple:
    if isinstance(e, Eps):
        return ("eps",)
    if isinstance(e, Sym):
        return ("sym", e.symbol)
    if isinstance(e, Seq):
        return ("seq", cre_key(e.first), cre_key(e.second))
    if isinstance(e, Shuffle):
        return ("shuf", cre_key(e.left), cre_key(e.right))
    if isinstance(e, ShuffleClosure):
        return ("clo", cre_key(e.body))
    raise TypeError(f"not a CRE: {e!r}")


def cre_normal(e: Cre) -> Cre:
    """Language-preserving canonical form.

    Shuffle is flattened, sorted and stripped of empty-word units (it is
    associative and commutative with unit eps); concatenation is
    right-nested with units dropped; closure of eps or of a closure
    collapses. Normalizing derivative states is what keeps the search
    space finite for replication-free agents.
    """
    if isinstance(e, (Eps, Sym)):
        return e
    if isinstance(e, (Seq, Shuffle)):
        kind = type(e)
        factors = []
        stack = [e]
        while stack:
            node = stack.pop()
            if type(node) is kind:
                stack.extend((node.second, node.first) if kind is Seq else (node.right, node.left))
            else:
                norm = cre_normal(node)
                if not isinstance(norm, Eps):
                    factors.append(norm)
        if not factors:
            return EPS
        if kind is Shuffle:
            factors.sort(key=cre_key)
        out = factors[-1]
        for f in reversed(factors[:-1]):
            out = kind(f, out)
        return out
    if isinstance(e, ShuffleClosure):
        body = cre_normal(e.body)
        if isinstance(body, Eps):
            return EPS
        if isinstance(body, ShuffleClosure):
            return body
        return ShuffleClosure(body)
    raise TypeError(f"not a CRE: {e!r}")


def nullable(e: Cre) -> bool:
    """Whether the empty word belongs to the expression's language."""
    if isinstance(e, Eps):
        return True
    if isinstance(e, Sym):
        return False
    if isinstance(e, Seq):
        return nullable(e.first) and nullable(e.second)
    if isinstance(e, Shuffle):
        return nullable(e.left) and nullable(e.right)
    if isinstance(e, ShuffleClosure):
        return True
    raise TypeError(f"not a CRE: {e!r}")


def _cre_nodes(e: Cre) -> list[Cre]:
    """All nodes of an expression, e itself included."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Seq):
            stack.extend((node.first, node.second))
        elif isinstance(node, Shuffle):
            stack.extend((node.left, node.right))
        elif isinstance(node, ShuffleClosure):
            stack.append(node.body)
    return out


def cre_symbols(e: Cre) -> frozenset[str]:
    return frozenset(node.symbol for node in _cre_nodes(e) if isinstance(node, Sym))


def derive(e: Cre, symbol: str) -> frozenset[Cre]:
    """All normalized residuals after reading one symbol.

    Several residuals can arise because a shuffle may take the symbol from
    either side; the set plays the role of an alternation.
    """
    if isinstance(e, Eps):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset({EPS}) if e.symbol == symbol else frozenset()
    if isinstance(e, Seq):
        out = {cre_normal(Seq(d, e.second)) for d in derive(e.first, symbol)}
        if nullable(e.first):
            out |= derive(e.second, symbol)
        return frozenset(out)
    if isinstance(e, Shuffle):
        out = {cre_normal(Shuffle(d, e.right)) for d in derive(e.left, symbol)}
        out |= {cre_normal(Shuffle(e.left, d)) for d in derive(e.right, symbol)}
        return frozenset(out)
    if isinstance(e, ShuffleClosure):
        return frozenset(cre_normal(Shuffle(d, e)) for d in derive(e.body, symbol))
    raise TypeError(f"not a CRE: {e!r}")


def derive_state(state: frozenset[Cre], symbol: str) -> frozenset[Cre]:
    out: set[Cre] = set()
    for e in state:
        out |= derive(e, symbol)
    return frozenset(out)


def lang_member(e: Cre, word: Iterable[str]) -> bool:
    """Word membership in the expression's language, by symbol-wise derivation."""
    state: frozenset[Cre] = frozenset({cre_normal(e)})
    for symbol in word:
        state = derive_state(state, symbol)
        if not state:
            return False
    return any(nullable(x) for x in state)


def lang_words(e: Cre, max_len: int) -> set[tuple[str, ...]]:
    """All words of the language up to the given length."""
    out: set[tuple[str, ...]] = set()
    start = cre_normal(e)
    frontier: dict[tuple[str, ...], frozenset[Cre]] = {(): frozenset({start})}
    if nullable(start):
        out.add(())
    for _ in range(max_len):
        nxt: dict[tuple[str, ...], frozenset[Cre]] = {}
        for word, state in frontier.items():
            syms = sorted(frozenset().union(*(cre_symbols(x) for x in state)) if state else ())
            for symbol in syms:
                state2 = derive_state(state, symbol)
                if not state2:
                    continue
                word2 = word + (symbol,)
                nxt[word2] = state2
                if any(nullable(x) for x in state2):
                    out.add(word2)
        frontier = nxt
        if not frontier:
            break
    return out


def cre_of(p: Agent) -> Cre:
    """The trace expression of an agent, normalized.

    Migration contributes only the target's name: whatever the moved code
    does, it does elsewhere, outside this site's policy.
    """
    if isinstance(p, Nil):
        return EPS
    if isinstance(p, Act):
        return cre_normal(Seq(Sym(p.action), cre_of(p.cont)))
    if isinstance(p, Go):
        return Sym(p.target)
    if isinstance(p, Par):
        return cre_normal(Shuffle(cre_of(p.left), cre_of(p.right)))
    if isinstance(p, Repl):
        return cre_normal(ShuffleClosure(cre_of(p.body)))
    raise TypeError(f"not an agent: {p!r}")


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
# bounded search gives up rather than degrade or overflow the stack.
_STATE_SIZE_CAP = 64


def _language_included(e: Cre, a: Dfa, start: str, bound: int, bounded: bool):
    """Search (expression derivative, automaton state) pairs breadth-first.

    Returns ("no", word) on the shortest word the expression can produce
    that the automaton does not accept from `start`; ("yes", None) when
    the reachable pair set closes; ("unknown", None) when the search
    exceeds `bound` pairs and `bounded` is set (shuffle closure makes the
    space infinite in general, so only then is the bound live).
    """
    root = (frozenset({cre_normal(e)}), start)
    seen = {root}
    queue = deque([(root, ())])
    while queue:
        (state, dstate), word = queue.popleft()
        if any(nullable(x) for x in state):
            if dstate is None or dstate not in a.finals:
                return "no", word
        syms = sorted(frozenset().union(*(cre_symbols(x) for x in state)))
        for symbol in syms:
            state2 = derive_state(state, symbol)
            if not state2:
                continue
            dstate2 = a.step(dstate, symbol) if dstate is not None else None
            nxt = (state2, dstate2)
            if nxt not in seen:
                if bounded and (len(seen) >= bound
                                or sum(len(_cre_nodes(x)) for x in state2) > _STATE_SIZE_CAP):
                    return "unknown", None
                seen.add(nxt)
                queue.append((nxt, word + (symbol,)))
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
