"""Independent reference implementations used to cross-check the library.

Each oracle recomputes a judgment along a different route than the code
under test: conformance by exhaustive derivation search over the typing
rules, shuffle-language membership by direct recursive interleaving, DFA
inclusion by joint simulation over strings, reduction by the
straightforward engine that rebuilds and re-keys every site of every
successor, and the DFA algebra and derivative search as they were
before the interned engine.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import replace
from functools import lru_cache

from membranes import (
    Act, Agent, Dfa, Go, MultisetPolicy, NIL, Nil, OMEGA, Par, Repl, Site,
    System, par, validate_system,
)
from membranes.core import Policy
from membranes.policy_dfa import (
    EPS, Cre, Eps, Seq, Shuffle, ShuffleClosure, Sym, _bfs, _product, _reachable,
    complement, is_empty, with_alphabet,
)
from membranes.runtime import (
    Event, LocalAction, Migration, Mode, _deny, _event_key, allows,
)


# ---------------------------------------------------------------------------
# Multiset conformance: exhaustive search over the counting typing rules.


def _dec(t: MultisetPolicy, label: str) -> MultisetPolicy:
    counts = dict(t.items)
    c = counts[label]
    if c is OMEGA:
        return t
    counts[label] = c - 1
    return MultisetPolicy.of(counts)


def _omega_part(t: MultisetPolicy) -> MultisetPolicy:
    return MultisetPolicy.of({n: OMEGA for n, c in t.items if c is OMEGA})


def _splits(t: MultisetPolicy):
    """All (t1, t2) with t1 union t2 == t. Omega entries go to both sides:
    that split dominates every other, and conformance is monotone."""
    finite = [(n, c) for n, c in t.items if c is not OMEGA]
    omegas = {n: OMEGA for n, c in t.items if c is OMEGA}
    ranges = [range(c + 1) for _, c in finite]
    for choice in itertools.product(*ranges):
        left = dict(omegas)
        right = dict(omegas)
        for (name, c), k in zip(finite, choice):
            left[name] = k
            right[name] = c - k
        yield MultisetPolicy.of(left), MultisetPolicy.of(right)


def derivable_multiset(p: Agent, t: MultisetPolicy) -> bool:
    """Derivability in the counting rules, decided by brute-force search."""
    if isinstance(p, Nil):
        return True
    if isinstance(p, Act):
        return t.count(p.action) != 0 and derivable_multiset(p.cont, _dec(t, p.action))
    if isinstance(p, Go):
        return (t.count(p.target) != 0
                and isinstance(p.digest, MultisetPolicy)
                and derivable_multiset(p.cont, p.digest))
    if isinstance(p, Repl):
        return derivable_multiset(p.body, _omega_part(t))
    if isinstance(p, Par):
        return any(derivable_multiset(p.left, t1) and derivable_multiset(p.right, t2)
                   for t1, t2 in _splits(t))
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Shuffle-language membership: the recursive language equations, verbatim.


@lru_cache(maxsize=None)
def lang_member_oracle(e: Cre, word: tuple[str, ...]) -> bool:
    if isinstance(e, Eps):
        return word == ()
    if isinstance(e, Sym):
        return word == (e.symbol,)
    if isinstance(e, Seq):
        return any(lang_member_oracle(e.first, word[:i]) and lang_member_oracle(e.second, word[i:])
                   for i in range(len(word) + 1))
    if isinstance(e, Shuffle):
        return any(lang_member_oracle(e.left, left) and lang_member_oracle(e.right, right)
                   for left, right in _two_colorings(word))
    if isinstance(e, ShuffleClosure):
        if word == ():
            return True
        for left, right in _two_colorings(word):
            # Some component of the closure holds the word's first symbol;
            # pulling a nonempty anchored component out first loses no
            # words and makes the recursion terminate.
            if left and left[0] == word[0]:
                if lang_member_oracle(e.body, left) and lang_member_oracle(e, right):
                    return True
        return False
    raise TypeError(e)


def _two_colorings(word: tuple[str, ...]):
    """All ways to split a word into two position-subsequences."""
    n = len(word)
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        yield left, right


def interleavings(a: tuple[str, ...], b: tuple[str, ...]) -> set[tuple[str, ...]]:
    """All merges of two words, preserving the order within each."""
    if not a:
        return {b}
    if not b:
        return {a}
    return {(a[0],) + rest for rest in interleavings(a[1:], b)} | \
           {(b[0],) + rest for rest in interleavings(a, b[1:])}


# ---------------------------------------------------------------------------
# DFA language inclusion.


def _run_step(a: Dfa, state, symbol):
    if state is None:
        return None
    return a.delta.get((state, symbol))


def included_oracle(a1: Dfa, a2: Dfa) -> bool:
    """Joint simulation of both automata over strings, breadth-first,
    visiting each distinct pair of residues once (sound by pumping: a
    counterexample shorter than |S1|*|S2| exists when any does). Symbols
    outside an automaton's alphabet drive it into an implicit sink (None).
    """
    sigma = sorted(a1.alphabet | a2.alphabet)
    start = (a1.start, a2.start)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s1, s2 in frontier:
            if s1 in a1.finals and (s2 is None or s2 not in a2.finals):
                return False
            for sym in sigma:
                m1 = _run_step(a1, s1, sym)
                if m1 is None:
                    continue  # a1 rejects everything from its sink
                pair = (m1, _run_step(a2, s2, sym))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return True


def _accepts(a: Dfa, word) -> bool:
    s = a.start
    for sym in word:
        s = a.delta.get((s, sym))
        if s is None:
            return False
    return s in a.finals


def included_enum(a1: Dfa, a2: Dfa, max_len: int) -> bool:
    """Literal string enumeration up to max_len."""
    sigma = sorted(a1.alphabet | a2.alphabet)
    for length in range(max_len + 1):
        for word in itertools.product(sigma, repeat=length):
            if _accepts(a1, word) and not _accepts(a2, word):
                return False
    return True


def words_up_to(a: Dfa, max_len: int) -> set[tuple[str, ...]]:
    """All accepted words up to the given length."""
    out = set()
    for length in range(max_len + 1):
        for word in itertools.product(sorted(a.alphabet), repeat=length):
            if _accepts(a, word):
                out.add(word)
    return out


# ---------------------------------------------------------------------------
# The reduction engine before node caches and touched-site successors:
# normalize, agent_key, system_key, step and run as they were, recursive
# and uncached, re-normalizing and re-keying every site of every
# successor. Admission (`allows`) and the event records are the library's.


def agent_key(a: Agent) -> tuple:
    """Stable structural sort key; injective on agents (given injective policy keys)."""
    if isinstance(a, Nil):
        return ("nil",)
    if isinstance(a, Act):
        return ("act", a.action, agent_key(a.cont))
    if isinstance(a, Go):
        return ("go", a.target, a.digest.sort_key(), agent_key(a.cont))
    if isinstance(a, Repl):
        return ("repl", agent_key(a.body))
    if isinstance(a, Par):
        return ("par", agent_key(a.left), agent_key(a.right))
    raise TypeError(f"not an agent: {a!r}")


def normalize(a: Agent) -> Agent:
    """Canonical form under the parallel monoid laws and nil absorption.

    Parallel compositions are flattened, nil threads dropped, and threads
    ordered by their structural key, recursively under prefixes and
    replication. Replication is never unfolded here: the unfolding law
    would not terminate, so the runtime applies it lazily, one copy at a
    time, where a reduction rule needs it.
    """
    if isinstance(a, Nil):
        return NIL
    if isinstance(a, Act):
        return Act(a.action, normalize(a.cont))
    if isinstance(a, Go):
        return Go(a.target, a.digest, normalize(a.cont))
    if isinstance(a, Repl):
        return Repl(normalize(a.body))
    if isinstance(a, Par):
        parts: list[Agent] = []
        stack = [a.right, a.left]
        while stack:
            node = stack.pop()
            if isinstance(node, Par):
                stack.append(node.right)
                stack.append(node.left)
            else:
                norm = normalize(node)
                if not isinstance(norm, Nil):
                    parts.append(norm)
        parts.sort(key=agent_key)
        return par(*parts)
    raise TypeError(f"not an agent: {a!r}")


def normalize_system(n: System) -> System:
    return System(tuple(Site(s.name, s.membrane, normalize(s.agent)) for s in n.sites))


def system_key(n: System) -> tuple:
    return tuple((s.name, s.membrane.sort_key(), agent_key(normalize(s.agent))) for s in n.sites)


def _redexes(a: Agent) -> list[tuple[str, Policy | None, Agent | None, Agent]]:
    """All immediate redexes of an agent, as (label, digest, moving,
    residual): an action has its name as label and no digest or moving
    code; a migration has its target as label, its digest, and the code
    that moves. The residual is what stays at the site when the redex
    fires. Replication is unfolded lazily: redexes of the body appear
    once, with the replica preserved in the residual.
    """
    if isinstance(a, Nil):
        return []
    if isinstance(a, Act):
        return [(a.action, None, None, a.cont)]
    if isinstance(a, Go):
        return [(a.target, a.digest, a.cont, NIL)]
    if isinstance(a, Par):
        return ([(l, d, m, Par(r, a.right)) for l, d, m, r in _redexes(a.left)]
                + [(l, d, m, Par(a.left, r)) for l, d, m, r in _redexes(a.right)])
    if isinstance(a, Repl):
        return [(l, d, m, Par(r, a)) for l, d, m, r in _redexes(a.body)]
    raise TypeError(f"not an agent: {a!r}")


def _moves(n: System, mode: Mode):
    """Every redex at every site, with the membrane's verdict on migrations
    (None for local actions): (site, redex, verdict). A migration to its
    own site or to a missing one is denied without asking any membrane.
    """
    for site in n.sites:
        for redex in _redexes(site.agent):
            label, digest, moving, _ = redex
            if digest is None:
                yield site, redex, None
            elif label == site.name:
                yield site, redex, _deny("cannot migrate to the current site")
            else:
                target = n.get(label)
                if target is None:
                    yield site, redex, _deny(f"no site named '{label}'")
                else:
                    yield site, redex, allows(target.membrane, site.name, digest, moving,
                                              mode, resident=target.agent)


def step(n: System, mode: Mode) -> list[tuple[System, Event]]:
    """All distinct one-step successors of the system, with their events.

    Distinctness is up to structural equivalence (normalized forms).
    Denied migrations contribute no successor; the rule's side condition
    is simply false; `run` reports them once the system is stuck.
    """
    out: dict[tuple, tuple[System, Event]] = {}
    for site, (label, digest, moving, residual), verdict in _moves(n, mode):
        if verdict is not None and not verdict.admitted:
            continue
        moved = n.replace(site.name, agent=residual)
        if verdict is None:
            event: Event = LocalAction(site.name, label)
        else:
            moved = moved.replace(label, membrane=verdict.membrane,
                                  agent=Par(moving, n.get(label).agent))
            event = Migration(site.name, label, digest, True, verdict.reason)
        succ = normalize_system(moved)
        out.setdefault((_event_key(event), system_key(succ)), (succ, event))
    return [out[k] for k in sorted(out)]


def blocked_migrations(n: System, mode: Mode) -> list[Migration]:
    """Every migration redex that cannot fire right now, as non-admitted events."""
    out: dict[tuple, Migration] = {}
    for site, (label, digest, _, _), verdict in _moves(n, mode):
        if verdict is not None and not verdict.admitted:
            event = Migration(site.name, label, digest, False, verdict.reason)
            out.setdefault(_event_key(event), event)
    return [out[k] for k in sorted(out)]


def run(n: System, mode: Mode, max_steps: int, seed: int) -> tuple[list[Event], System]:
    """Reduce the system with a seeded scheduler until quiescent or out of steps.

    Successors are picked uniformly at random; identical inputs give
    identical traces. When the system quiesces, any migrations still
    pending are appended as denial events, so permanently stuck agents
    show up in the trace.
    """
    problems = validate_system(n, mode.regime)
    if problems:
        raise ValueError("invalid system: " + "; ".join(d.message for d in problems))
    rng = random.Random(seed)
    events: list[Event] = []
    current = normalize_system(n)
    for i in range(max_steps):
        successors = step(current, mode)
        if not successors:
            break
        current, event = successors[rng.randrange(len(successors))]
        events.append(replace(event, step=i))
    else:
        successors = step(current, mode)
    if not successors:
        for blocked in blocked_migrations(current, mode):
            events.append(replace(blocked, step=len(events)))
    return events, current


# ---------------------------------------------------------------------------
# DFA algebra and the CRE derivative search before the interned engine:
# the eager product for inclusion, round-by-round partition refinement for
# minimization, and derivatives that re-normalize, re-key and re-hash the
# whole expression at every step, as they were. `cre_normal` here is not
# idempotent on every input (see `normal_fixpoint`). The automaton helpers
# and the expression classes are the library's.


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


def normal_fixpoint(e: Cre) -> Cre:
    """`cre_normal` applied until it stops changing the expression."""
    while True:
        again = cre_normal(e)
        if again == e:
            return e
        e = again
