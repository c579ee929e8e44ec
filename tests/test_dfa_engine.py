"""The interned CRE engine against the derivative search it replaced.

`tests/oracles.py` keeps the previous `cre_normal`, `derive`,
`derive_state` and `_language_included`, which rebuild, re-key and
re-hash the whole expression at every derivative. The engine must give
the same normal forms, the same residuals, and the same search: equal
(verdict, word) at every pair bound, which pins the explored-pair count
and the node-count cap.
"""
from __future__ import annotations

import gc
import random

import pytest

from membranes import (
    Act, Cre, Dfa, DfaPolicy, EPS, Go, Membrane, NIL, Par, Repl, Seq, Shuffle,
    ShuffleClosure, Site, Sym, System, TrustLevel, cre_of, satisfies_dfa,
)
from membranes import policy_dfa
from membranes.policy_dfa import (
    DEFAULT_BOUND, _Engine, _has_replication, _language_included, cre_key,
    cre_normal, cre_symbols, derive, derive_state, judge_dfa, lang_words, nullable,
)

import oracles
from conftest import random_policy_dfa
from test_policy_dfa import random_cre

SESSION = ("usr", "pwd", "send", "quit")


def counter_dfa(cap: int) -> Dfa:
    """At most `cap` sends; usr, pwd and quit are free (the benchmark's automaton)."""
    states = [f"n{i}" for i in range(cap + 1)]
    delta = {(s, sym): s for s in states for sym in ("usr", "pwd", "quit")}
    delta.update({(f"n{i}", "send"): f"n{i + 1}" for i in range(cap)})
    delta.update({(states[-1], "send"): "dead"})
    delta.update({("dead", sym): "dead" for sym in SESSION})
    return Dfa.of(states + ["dead"], SESSION, "n0", states, delta)


def chain(word, tail=NIL):
    for sym in reversed(word):
        tail = Act(sym, tail)
    return tail


def random_agent(rng: random.Random, size: int, replicate: bool):
    """Session-shaped agents: prefix chains over the session alphabet in
    parallel, with migrations and (optionally) replication."""
    if size <= 1:
        return chain(rng.sample(SESSION, rng.randint(0, 2)))
    roll = rng.random()
    if roll < 0.35:
        return Act(rng.choice(SESSION), random_agent(rng, size - 1, replicate))
    if roll < 0.45:
        digest = DfaPolicy("d", counter_dfa(rng.randint(0, 2)))
        return Go(rng.choice(("srv", "send")), digest, random_agent(rng, size - 2, replicate))
    if roll < 0.55 and replicate:
        return Repl(random_agent(rng, size - 1, False))
    split = rng.randint(1, size - 1)
    return Par(random_agent(rng, split, replicate), random_agent(rng, size - split, replicate))


def cases():
    """(agent, automaton) pairs: random agents, and the benchmark's k
    sessions against a counter, some replicated."""
    rng = random.Random(2024)
    out = []
    for i in range(60):
        replicate = i % 2 == 1
        dfa = counter_dfa(rng.randint(0, 4)) if rng.random() < 0.6 else random_policy_dfa(rng, [])
        out.append((random_agent(rng, rng.randint(1, 7), replicate), dfa))
    for k in (2, 3):
        for m in (1, 2):
            session = chain(("usr", "pwd") + ("send",) * m + ("quit",))
            for cap in (k * m - 1, k * m):
                out.append((Par(session, Par(session, session) if k == 3 else session),
                            counter_dfa(cap)))
                out.append((Par(session, Repl(session)), counter_dfa(cap)))
    out.append((Repl(chain(SESSION)), counter_dfa(2)))
    return out


CASES = cases()


@pytest.mark.parametrize("index", range(len(CASES)))
def test_search_equals_previous_search_at_every_bound(index):
    agent, dfa = CASES[index]
    e = cre_of(agent)
    for bound in [*range(1, 41), DEFAULT_BOUND]:
        got = _language_included(e, dfa, dfa.start, bound, True)
        assert got == oracles._language_included(e, dfa, dfa.start, bound, True), (agent, bound)
    # unbounded where the agent has no replication, as `satisfies_dfa` runs it
    replicated = _has_replication(agent)
    for start in sorted(dfa.states)[:2]:
        got = _language_included(e, dfa, start, DEFAULT_BOUND, replicated)
        assert got == oracles._language_included(e, dfa, start, DEFAULT_BOUND, replicated), \
            (agent, start)


def test_cases_reach_every_verdict_and_the_size_cap(monkeypatch):
    # the differential test above is only as strong as its cases: some
    # searches must end in each verdict, and in some the node cap must
    # decide: without it, the search runs on and finds a counterexample
    verdicts = {}
    for index, (agent, dfa) in enumerate(CASES):
        e = cre_of(agent)
        verdicts[index] = _language_included(e, dfa, dfa.start, DEFAULT_BOUND,
                                             _has_replication(agent))[0]
    assert set(verdicts.values()) == {"yes", "no", "unknown"}
    monkeypatch.setattr(policy_dfa, "_STATE_SIZE_CAP", 10 ** 9)
    decided_by_cap = [
        index for index, (agent, dfa) in enumerate(CASES) if verdicts[index] == "unknown"
        and _language_included(cre_of(agent), dfa, dfa.start, DEFAULT_BOUND, True)[0] == "no"]
    assert len(decided_by_cap) >= 2


def test_normal_forms_carry_the_previous_attributes():
    rng = random.Random(5)
    for _ in range(1000):
        e = random_cre(rng, 5, 2)
        norm = cre_normal(e)
        for node in oracles._cre_nodes(norm):
            assert cre_key(node) == oracles.cre_key(node)
            assert nullable(node) == oracles.nullable(node)
            assert cre_symbols(node) == oracles.cre_symbols(node)
            assert node._size == len(oracles._cre_nodes(node))
        assert cre_key(e) == oracles.cre_key(e)
        assert nullable(e) == oracles.nullable(e)


def test_equal_nodes_are_one_object_within_an_engine():
    rng = random.Random(6)
    for _ in range(300):
        e = random_cre(rng, 5, 2)
        engine = _Engine()
        norm = engine.normal(e)
        assert engine.normal(e) is norm
        assert engine.normal(cre_normal(e)) is norm  # a normal form from elsewhere
        # across engines, equal as values, with equal hashes
        other = cre_normal(e)
        assert other == norm and hash(other) == hash(norm)


def test_residuals_equal_previous_derivatives():
    rng = random.Random(7)
    for _ in range(500):
        norm = cre_normal(random_cre(rng, 4, 1))
        for symbol in "ab":
            expected = {oracles.normal_fixpoint(r) for r in oracles.derive(norm, symbol)}
            assert derive(norm, symbol) == expected, (norm, symbol)


def test_derive_state_without_an_engine_equals_previous_derive_state():
    rng = random.Random(11)
    for _ in range(300):
        state = frozenset(random_cre(rng, 4, 1) for _ in range(rng.randint(0, 3)))
        for symbol in "ab":
            expected = {oracles.normal_fixpoint(r) for r in oracles.derive_state(state, symbol)}
            assert derive_state(state, symbol) == expected, (state, symbol)


def test_node_order_is_key_order():
    rng = random.Random(12)
    nodes = [random_cre(rng, 4, 2) for _ in range(400)]
    by_cmp = sorted(nodes, key=policy_dfa._CRE_ORDER)
    assert [cre_key(e) for e in by_cmp] == sorted(oracles.cre_key(e) for e in nodes)


def test_lang_words_equals_previous_derivation():
    rng = random.Random(8)
    for _ in range(150):
        e = random_cre(rng, 4, 1)
        expected = {w for length in range(5)
                    for w in _words("ab", length) if oracles.lang_member_oracle(e, w)}
        assert lang_words(e, 4) == expected, e


def _words(alphabet, length):
    import itertools
    return itertools.product(alphabet, repeat=length)


def test_no_engine_outlives_its_call():
    agent = Par(chain(("usr", "pwd", "send", "quit")), Repl(chain(("usr", "send"))))
    system = System.of(Site("srv", Membrane.of({"srv": TrustLevel.LGOOD},
                                               DfaPolicy("cap", counter_dfa(3))), agent))
    satisfies_dfa(agent, counter_dfa(3))
    judge_dfa(system)
    lang_words(cre_of(agent), 4)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, _Engine)]
    # and no module-level table holds expression nodes
    assert not [name for name, value in vars(policy_dfa).items()
                if isinstance(value, (dict, set, list))
                and any(isinstance(x, Cre) for x in (value.values() if isinstance(value, dict)
                                                     else value))]


# ---------------------------------------------------------------------------
# deep agents end in a verdict


DEPTH = 10_000


def _site(agent, dfa):
    return System.of(Site("s", Membrane.of({"s": TrustLevel.LGOOD}, DfaPolicy("p", dfa)), agent))


def _star(symbols):
    return Dfa.of({"s"}, symbols, "s", {"s"}, {("s", sym): "s" for sym in symbols})


def test_deep_prefix_chain_ends_in_verdict():
    agent = chain(("a",) * DEPTH)
    assert satisfies_dfa(agent, _star({"a"})).verdict == "yes"
    no_a = Dfa.of({"s", "d"}, {"a"}, "s", {"s"}, {("s", "a"): "d", ("d", "a"): "d"})
    check = satisfies_dfa(agent, no_a)
    assert check.verdict == "no" and check.counterexample == ("a",) * DEPTH
    assert judge_dfa(_site(agent, _star({"a"}))).verdict is True


def test_deep_act_par_mix_ends_in_verdict():
    # prefixes alternate with parallel compositions all the way down;
    # every 2500th level runs a `b` beside the rest
    agent = NIL
    for i in range(DEPTH):
        if i % 2:
            agent = Act("a", agent)
        elif i % 2500 == 0:
            agent = Par(agent, Act("b", NIL))
        else:
            agent = Par(NIL, agent)
    assert satisfies_dfa(agent, _star({"a", "b"})).verdict == "yes"
    check = satisfies_dfa(agent, _star({"a"}))
    assert check.verdict == "no" and check.counterexample[-1] == "b"
    assert judge_dfa(_site(agent, _star({"a", "b"}))).verdict is True
    assert judge_dfa(_site(agent, _star({"a"}))).verdict is False
    assert cre_of(agent) == cre_normal(cre_of(agent))


def test_deep_expressions_key_hash_and_compare_without_recursion():
    deep = EPS
    for i in range(DEPTH):
        deep = Seq(Sym("a"), deep) if i % 3 else Shuffle(deep, Sym("b"))
    again = EPS
    for i in range(DEPTH):
        again = Seq(Sym("a"), again) if i % 3 else Shuffle(again, Sym("b"))
    assert deep == again and hash(deep) == hash(again)
    assert len(cre_key(deep)) == 3 and not nullable(deep)
    assert cre_normal(deep) == cre_normal(again)
    assert cre_of(Repl(chain(("a",) * DEPTH))) == ShuffleClosure(cre_of(chain(("a",) * DEPTH)))
