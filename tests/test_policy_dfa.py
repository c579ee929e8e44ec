"""Automata algebra, shuffle-language derivatives, and DFA conformance."""
from __future__ import annotations

import random

import pytest

from membranes import (
    Act, Dfa, DfaPolicy, EPS, Go, Membrane, NIL, Par, Repl, Seq, Shuffle,
    ShuffleClosure, Site, Sym, System, TrustLevel, accepts_from, complement,
    cre_of, enforces_dfa, intersect, is_empty, lang_member, minimize,
    satisfies_dfa, wellformed_dfa,
)
from membranes.policy_dfa import accepts, cre_normal, lang_words, with_alphabet

import oracles
from conftest import random_policy_dfa
from oracles import (
    included_enum, included_oracle, interleavings, lang_member_oracle,
    words_up_to,
)


def linear_dfa(word, alphabet=None, extra_states=0):
    """An automaton accepting exactly `word`, with a total delta."""
    sigma = set(alphabet or ()) | set(word)
    states = [f"n{i}" for i in range(len(word) + 1)] + ["dead"]
    states += [f"junk{i}" for i in range(extra_states)]
    delta = {(s, a): "dead" for s in states for a in sigma}
    for i, a in enumerate(word):
        delta[(f"n{i}", a)] = f"n{i+1}"
    return Dfa.of(states, sigma, "n0", {f"n{len(word)}"}, delta)


def mail_dfa():
    sigma = ["usr", "pwd", "list", "send", "retr", "del", "reset", "quit"]
    states = ["m0", "m1", "m2", "m3", "dead"]
    delta = {(s, a): "dead" for s in states for a in sigma}
    delta[("m0", "usr")] = "m1"
    delta[("m1", "pwd")] = "m2"
    for a in ("list", "send", "retr", "del", "reset"):
        delta[("m2", a)] = "m2"
    delta[("m2", "quit")] = "m3"
    return minimize(Dfa.of(states, sigma, "m0", {"m3"}, delta))


def locking_dfa():
    sigma = ["lock", "unlock", "work"]
    states = ["out", "in", "dead"]
    delta = {(s, a): "dead" for s in states for a in sigma}
    delta.update({("out", "work"): "out", ("out", "unlock"): "out", ("out", "lock"): "in",
                  ("in", "work"): "in", ("in", "unlock"): "out", ("in", "lock"): "dead"})
    return minimize(Dfa.of(states, sigma, "out", {"out"}, delta))


def secrecy_dfa():
    # "elsewhere" is the only locality in the alphabet
    sigma = ["secret", "work", "elsewhere"]
    states = ["clean", "dirty", "dead"]
    delta = {(s, a): "dead" for s in states for a in sigma}
    delta.update({("clean", "work"): "clean", ("clean", "elsewhere"): "clean",
                  ("clean", "secret"): "dirty",
                  ("dirty", "work"): "dirty", ("dirty", "secret"): "dirty"})
    return minimize(Dfa.of(states, sigma, "clean", {"clean", "dirty"}, delta))


# ---------------------------------------------------------------------------
# minimize


def test_minimize_idempotent_on_minimal():
    two = minimize(linear_dfa(("lock",)))
    assert minimize(two) == two


def test_minimize_drops_unreachable():
    a = linear_dfa(("usr",), extra_states=2)
    assert len(minimize(a).states) < len(a.states)
    assert words_up_to(minimize(a), 4) == words_up_to(a, 4)


def test_minimize_merges_equivalent_finals():
    # two final states with identical futures collapse into one
    sigma = {"ping"}
    delta = {("s0", "ping"): "f1", ("f1", "ping"): "f2", ("f2", "ping"): "f2"}
    a = Dfa.of({"s0", "f1", "f2"}, sigma, "s0", {"f1", "f2"}, delta)
    small = minimize(a)
    assert len(small.states) == len(a.states) - 1
    assert words_up_to(small, 2 * len(a.states)) == words_up_to(a, 2 * len(a.states))


def test_minimize_preserves_language_on_random_dfas():
    rng = random.Random(7)
    for _ in range(60):
        a = random_policy_dfa(rng, [])
        b = minimize(a)
        assert words_up_to(a, 6) == words_up_to(b, 6)
        assert minimize(b) == b


def test_minimize_output_is_actually_minimal():
    # all states reachable, and no two states accept the same suffix language
    rng = random.Random(8)
    for _ in range(40):
        a = minimize(random_policy_dfa(rng, []))
        horizon = 2 * len(a.states)
        suffix_langs = {}
        for s in sorted(a.states):
            lang = frozenset(
                w for length in range(horizon + 1)
                for w in _words(sorted(a.alphabet), length) if accepts_from(a, s, w))
            assert lang not in suffix_langs.values(), (s, a)
            suffix_langs[s] = lang
        reached = {a.start}
        frontier = [a.start]
        while frontier:
            nxt = [a.delta[(s, sym)] for s in frontier for sym in a.alphabet]
            frontier = [s for s in nxt if s not in reached]
            reached.update(frontier)
        assert reached == set(a.states)


def _words(alphabet, length):
    import itertools
    return itertools.product(alphabet, repeat=length)


# ---------------------------------------------------------------------------
# boolean algebra


def test_complement_involution():
    a = mail_dfa()
    again = complement(complement(a))
    assert words_up_to(a, 6) == words_up_to(again, 6)


def test_intersect_with_complement_is_empty():
    a = mail_dfa()
    assert is_empty(intersect(a, complement(a)))


def test_intersect_keeps_common_word():
    session = linear_dfa(("usr", "pwd", "quit"))
    both = intersect(session, mail_dfa())
    assert accepts(both, ("usr", "pwd", "quit"))
    assert not accepts(both, ("usr", "pwd", "send", "quit"))  # session lacks it


def test_enforces_reflexive():
    a = mail_dfa()
    assert enforces_dfa(a, a)


def test_enforces_session_within_mail():
    session = linear_dfa(("usr", "pwd", "quit"))
    assert included_enum(session, mail_dfa(), 5)
    assert enforces_dfa(session, mail_dfa())


def test_enforces_rejects_unauthenticated_send():
    send = linear_dfa(("send",))
    assert not included_enum(send, mail_dfa(), 3)
    assert not enforces_dfa(send, mail_dfa())


def test_enforces_handles_disjoint_alphabets():
    a = linear_dfa(("ping",))
    b = linear_dfa(("send",))
    assert not enforces_dfa(a, b)
    assert enforces_dfa(a, with_alphabet(b, {"ping"}))is False


def test_dfa_inclusion_random_against_both_oracles():
    rng = random.Random(99)
    for _ in range(120):
        a1 = random_policy_dfa(rng, [])
        a2 = random_policy_dfa(rng, [])
        got = enforces_dfa(a1, a2)
        assert got == included_oracle(a1, a2)
        assert got == included_enum(a1, a2, min(len(a1.states) * len(a2.states), 8))


def test_minimize_preserves_enforces_verdicts():
    rng = random.Random(5)
    for _ in range(40):
        a1 = random_policy_dfa(rng, [])
        a2 = random_policy_dfa(rng, [])
        got = enforces_dfa(a1, a2)
        assert enforces_dfa(minimize(a1), a2) == got
        assert enforces_dfa(a1, minimize(a2)) == got


# ---------------------------------------------------------------------------
# acceptance from a state


def test_accepts_full_session():
    assert accepts(mail_dfa(), ("usr", "pwd", "quit"))


def test_accepts_from_mid_protocol():
    a = mail_dfa()
    mid = a.step(a.step(a.start, "usr"), "pwd")
    assert accepts_from(a, mid, ("quit",))
    assert accepts_from(a, mid, ("send", "send", "quit"))
    assert not accepts_from(a, mid, ("usr",))


def test_accepts_empty_iff_start_final():
    a = mail_dfa()
    assert not accepts(a, ())
    assert accepts(secrecy_dfa(), ())


def test_symbols_outside_alphabet_sink():
    assert not accepts(mail_dfa(), ("usr", "pwd", "take", "quit"))


def test_accepts_from_unknown_state_raises():
    with pytest.raises(ValueError):
        accepts_from(mail_dfa(), "no_such_state", ())


# ---------------------------------------------------------------------------
# trace expressions


def test_cre_of_nil_is_empty_word():
    assert cre_of(NIL) == EPS


def test_cre_of_migration_is_target_only():
    digest = DfaPolicy("d", linear_dfa(()))
    agent = Par(Act("ping", Go("alpha", digest, Act("send", NIL))), Act("send", NIL))
    expected = cre_normal(Shuffle(Seq(Sym("ping"), Sym("alpha")), Sym("send")))
    assert cre_of(agent) == expected


def test_cre_of_replication_is_closure():
    assert cre_of(Repl(Act("ping", NIL))) == ShuffleClosure(Sym("ping"))


def test_shuffle_of_singletons():
    e = Shuffle(Sym("a"), Sym("b"))
    assert lang_member(e, ("b", "a"))
    assert lang_member(e, ("a", "b"))
    assert not lang_member(e, ("a", "a"))


def test_closure_interleaves_two_copies():
    e = ShuffleClosure(Seq(Sym("a"), Sym("b")))
    expected = interleavings(("a", "b"), ("a", "b"))
    assert ("a", "a", "b", "b") in expected
    assert lang_member(e, ("a", "a", "b", "b"))
    for word in expected:
        assert lang_member(e, word)
    assert not lang_member(e, ("b", "a"))


def test_seq_is_ordered():
    assert not lang_member(Seq(Sym("a"), Sym("b")), ("b", "a"))


def random_cre(rng: random.Random, depth: int, closures: int) -> object:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return EPS if rng.random() < 0.2 else Sym(rng.choice("ab"))
    if roll < 0.5:
        return Seq(random_cre(rng, depth - 1, closures), random_cre(rng, depth - 1, closures))
    if roll < 0.8:
        return Shuffle(random_cre(rng, depth - 1, closures), random_cre(rng, depth - 1, closures))
    if closures > 0:
        return ShuffleClosure(random_cre(rng, depth - 1, closures - 1))
    return Seq(random_cre(rng, depth - 1, closures), random_cre(rng, depth - 1, closures))


def test_lang_member_against_recursive_oracle():
    rng = random.Random(0)
    for _ in range(300):
        e = random_cre(rng, 4, 1)
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        assert lang_member(e, word) == lang_member_oracle(e, word), (e, word)


def test_prefix_law():
    rng = random.Random(1)
    for _ in range(100):
        cont = Act("send", NIL) if rng.random() < 0.5 else Par(Act("send", NIL), Act("log", NIL))
        agent = Act("ping", cont)
        word = tuple(rng.choice(["ping", "send", "log"]) for _ in range(rng.randint(0, 3)))
        assert lang_member(cre_of(agent), ("ping",) + word) == lang_member(cre_of(cont), word)
        assert not lang_member(cre_of(agent), ("send",))


def test_lang_words_enumerates_closure():
    words = lang_words(ShuffleClosure(Sym("a")), 3)
    assert words == {(), ("a",), ("a", "a"), ("a", "a", "a")}


# ---------------------------------------------------------------------------
# conformance of agents


def test_session_agent_satisfies_mail_policy():
    agent = Act("usr", Act("pwd", Act("quit", NIL)))
    assert satisfies_dfa(agent, mail_dfa()).verdict == "yes"


def test_secrecy_forbids_migration_after_secret():
    digest = DfaPolicy("d", secrecy_dfa())
    agent = Act("secret", Go("elsewhere", digest, NIL))
    check = satisfies_dfa(agent, secrecy_dfa())
    assert check.verdict == "no"
    assert check.counterexample == ("secret", "elsewhere")


def test_lock_without_unlock_rejected():
    check = satisfies_dfa(Act("lock", NIL), locking_dfa())
    assert check.verdict == "no"
    assert check.counterexample == ("lock",)


def test_digest_of_subagent_checked_from_its_own_start():
    # code fits the policy, but its digest promises a session it won't keep
    lying = DfaPolicy("lie", linear_dfa(("quit",)))
    agent = Go("elsewhere", lying, Act("usr", NIL))
    assert satisfies_dfa(agent, secrecy_dfa()).verdict == "no"


def test_replication_free_checks_are_exact():
    rng = random.Random(3)
    for _ in range(60):
        a = random_policy_dfa(rng, [])
        word = tuple(rng.choice(sorted(a.alphabet)) for _ in range(rng.randint(0, 3)))
        agent = NIL
        for sym in reversed(word):
            agent = Act(sym, agent)
        check = satisfies_dfa(agent, a, bound=1)  # bound must be ignored
        assert check.verdict == ("yes" if accepts(a, word) else "no")


def _random_repl_free_agent(rng, size):
    if size <= 1:
        return NIL if rng.random() < 0.3 else Act(rng.choice("ab"), NIL)
    roll = rng.random()
    if roll < 0.45:
        return Act(rng.choice("ab"), _random_repl_free_agent(rng, size - 1))
    if roll < 0.65:
        cont = _random_repl_free_agent(rng, size - 2)
        digest = DfaPolicy("d", random_policy_dfa(rng, []))
        return Go("away", digest, cont)
    split = rng.randint(1, size - 1)
    return Par(_random_repl_free_agent(rng, split),
               _random_repl_free_agent(rng, size - split))


def test_replication_free_agents_never_inconclusive():
    # a replication-free agent's trace language is finite (words no longer
    # than the agent), so the verdict is decided by direct enumeration:
    # words come from the recursive language oracle, acceptance from runs
    rng = random.Random(21)
    for _ in range(80):
        agent = _random_repl_free_agent(rng, rng.randint(1, 6))
        policy = random_policy_dfa(rng, [])
        check = satisfies_dfa(agent, policy, bound=1)
        assert check.verdict in ("yes", "no")
        expected = _oracle_lang_included(cre_of(agent), policy) and all(
            _oracle_lang_included(cre_of(g.cont), g.digest.dfa) for g in _gos(agent))
        assert check.verdict == ("yes" if expected else "no")


def _oracle_lang_included(e, dfa):
    import itertools
    from membranes.policy_dfa import cre_symbols
    symbols = sorted(cre_symbols(e))
    for length in range(7):
        for word in itertools.product(symbols, repeat=length):
            if lang_member_oracle(e, word) and not accepts(dfa, word):
                return False
    return True


def _gos(agent):
    from membranes.core import subagents
    return [a for a in subagents(agent) if isinstance(a, Go)]


def test_replicated_agent_can_be_inconclusive():
    # inclusion holds here, but each unfolding adds a parallel residue, so
    # the derivative space never closes: the honest verdict is unknown,
    # at a tiny pair bound and at the (size-capped) default bound alike
    agent = Repl(Act("usr", Act("pwd", NIL)))
    everything = Dfa.of({"s"}, {"usr", "pwd"}, "s", {"s"},
                        {("s", "usr"): "s", ("s", "pwd"): "s"})
    assert satisfies_dfa(agent, everything, bound=2).verdict == "unknown"
    assert satisfies_dfa(agent, everything).verdict == "unknown"


def test_replicated_agent_conclusive_with_budget():
    agent = Repl(Act("send", NIL))
    any_sends = Dfa.of({"s"}, {"send"}, "s", {"s"}, {("s", "send"): "s"})
    assert satisfies_dfa(agent, any_sends, bound=10_000).verdict == "yes"
    check = satisfies_dfa(agent, mail_dfa(), bound=10_000)
    assert check.verdict == "no"


# ---------------------------------------------------------------------------
# thread-wise well-formedness


def _dfa_site(policy_dfa, agent):
    return System.of(Site("mail", Membrane.of({"mail": TrustLevel.LGOOD},
                                              DfaPolicy("mail", policy_dfa)), agent))


def test_wellformed_accepts_suffix_threads():
    n = _dfa_site(mail_dfa(), Act("quit", NIL))
    assert wellformed_dfa(n) is True


def test_wellformed_rejects_unknown_action():
    n = _dfa_site(mail_dfa(), Act("take", NIL))
    assert wellformed_dfa(n) is False


def test_wellformed_empty_code():
    n = _dfa_site(mail_dfa(), NIL)
    assert wellformed_dfa(n) is True


def test_wellformed_can_be_unknown():
    n = _dfa_site(mail_dfa(), Repl(Act("send", Act("send", NIL))))
    assert wellformed_dfa(n, bound=2) is None


# ---------------------------------------------------------------------------
# normal forms, minimization and inclusion against the previous algorithms


def test_cre_normal_is_idempotent():
    rng = random.Random(41)
    for _ in range(3000):
        e = random_cre(rng, 5, 2)
        norm = cre_normal(e)
        assert cre_normal(norm) == norm, e
        # the previous normalizer reaches the same form, if not in one pass
        assert norm == oracles.normal_fixpoint(e), e


def test_cre_normal_splices_factors_of_the_outer_kind():
    a, b, c = Sym("a"), Sym("b"), Sym("c")
    assert cre_normal(Shuffle(Seq(EPS, Shuffle(a, b)), c)) == Shuffle(a, Shuffle(b, c))
    assert cre_normal(Seq(Shuffle(EPS, Seq(a, b)), c)) == Seq(a, Seq(b, c))


def _counter_chain(n):
    """At most n sends; other symbols free (as the benchmark's automata)."""
    states = [f"n{i}" for i in range(n + 1)]
    delta = {}
    for i, s in enumerate(states):
        for sym in ("usr", "quit"):
            delta[(s, sym)] = s
        delta[(s, "send")] = states[min(i + 1, n)] if i < n else "dead"
    delta.update({("dead", sym): "dead" for sym in ("usr", "quit", "send")})
    return Dfa.of(states + ["dead"], {"usr", "quit", "send"}, "n0", states, delta)


def test_minimize_equals_previous_algorithm():
    rng = random.Random(17)
    for _ in range(200):
        a = random_policy_dfa(rng, [])
        big = Dfa.of(a.states | {"x", "y"}, a.alphabet, a.start, a.finals | {"y"},
                     {**a.delta, **{(s, sym): rng.choice(sorted(a.states | {"x", "y"}))
                                    for s in ("x", "y") for sym in a.alphabet}})
        for dfa in (a, big):
            assert minimize(dfa) == oracles.minimize(dfa)
    for n in (0, 1, 2, 5, 34, 100, 200):
        chain = _counter_chain(n)
        assert minimize(chain) == oracles.minimize(chain)
        assert len(minimize(chain).states) == n + 2


def test_enforces_dfa_equals_eager_product():
    rng = random.Random(23)
    for _ in range(300):
        a1 = random_policy_dfa(rng, ["far"] if rng.random() < 0.3 else [])
        a2 = random_policy_dfa(rng, ["near"] if rng.random() < 0.3 else [])
        assert enforces_dfa(a1, a2) == oracles.enforces_dfa(a1, a2)
    for n in (0, 3, 50):
        for m in (0, 3, 50):
            assert enforces_dfa(_counter_chain(n), _counter_chain(m)) == (n <= m)
            assert oracles.enforces_dfa(_counter_chain(n), _counter_chain(m)) == (n <= m)
