"""The reduction engine against the straightforward one kept in oracles.py.

The engine caches structural keys and normal forms on agent nodes and
builds only the sites a step changes; the oracle re-normalizes and
re-keys every site of every successor. They must agree on successors
(systems, events and order) and on seeded runs, and a successor must
share every site the step left alone with its parent.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

import oracles
from conftest import (
    gen_dfa_system, gen_dynamic_system, gen_multiset_system, gen_set_system,
    gen_static_system, random_multiset_agent, random_set_agent,
)
from membranes import (
    NIL, Act, LocalAction, MembraneKind, Migration, Mode, Par, Repl, normalize,
    parse_system, runtime,
)
from membranes.core import agent_key, normalize_system, system_key

SEEDS = range(20)
CASES = {
    "set": (gen_set_system, Mode.of("set")),
    "multiset": (gen_multiset_system, Mode.of("multiset")),
    "static": (gen_static_system, Mode.of("multiset", "static")),
    "dynamic": (lambda rng: gen_dynamic_system(rng)[0], Mode.of("multiset", "dynamic")),
    "dfa": (gen_dfa_system, Mode.of("dfa")),
}
# Systems compared per seed, breadth-first from the generated one.
EXPLORED = 25


def _system(case: str, seed: int):
    gen, mode = CASES[case]
    return gen(random.Random(seed)), mode


def _explored(n, mode):
    """The first EXPLORED systems reachable from n, by the oracle's steps."""
    out, queue, seen = [], [n], set()
    while queue and len(out) < EXPLORED:
        current = queue.pop(0)
        key = oracles.system_key(current)
        if key in seen:
            continue
        seen.add(key)
        out.append(current)
        queue.extend(succ for succ, _ in oracles.step(current, mode))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_matches_oracle(case):
    compared = 0
    for seed in SEEDS:
        n, mode = _system(case, seed)
        for current in _explored(n, mode):
            assert runtime.step(current, mode) == oracles.step(current, mode)
            compared += 1
    assert compared > len(SEEDS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_oracle(case):
    for seed in SEEDS:
        n, mode = _system(case, seed)
        assert runtime.run(n, mode, 40, seed) == oracles.run(n, mode, 40, seed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_successors_share_untouched_sites(case):
    shared = 0
    for seed in SEEDS:
        n, mode = _system(case, seed)
        parent = normalize_system(n)
        for succ, event in runtime.step(parent, mode):
            touched = ({event.site} if isinstance(event, LocalAction)
                       else {event.source, event.target})
            for old, new in zip(parent.sites, succ.sites):
                if old.name not in touched:
                    assert new is old
                    shared += 1
    assert shared > 0


def _agents():
    rng = random.Random(7)
    for _ in range(200):
        a = random_set_agent(rng, rng.randint(1, 8))
        b = random_multiset_agent(rng, rng.randint(1, 8))
        yield a
        yield Par(Par(b, NIL), Par(a, Repl(Par(NIL, b))))


def test_normal_forms_and_keys_match_oracle():
    for a in _agents():
        norm = normalize(a)
        assert norm == oracles.normalize(a)
        assert agent_key(a) == oracles.agent_key(a)
        assert agent_key(norm) == oracles.agent_key(oracles.normalize(a))
        assert normalize(norm) is norm


@pytest.mark.parametrize("case", sorted(CASES))
def test_system_keys_match_oracle(case):
    for seed in SEEDS:
        n, _ = _system(case, seed)
        assert system_key(n) == oracles.system_key(n)
        assert system_key(normalize_system(n)) == system_key(n)


PENDING = """
srv[ trust { srv: good }; policy {read^w}; nil ]
|| c[ trust { c: good }; policy {}; go(srv, {admin}).admin.nil | prep.prep.prep.nil
                                    | go(srv, {read}).read.nil ]
|| d[ trust { d: good }; policy {}; go(srv, {read, admin}).read.nil | pack.pack.nil ]
"""


@pytest.mark.parametrize("kind", ["entry", "static", "dynamic"])
def test_run_judges_each_pending_migration_once(monkeypatch, kind):
    mode = Mode.of("multiset", kind)
    n = parse_system(PENDING, "multiset")
    calls: Counter = Counter()
    allows = runtime.allows

    def counting(membrane, source, digest, code, mode, resident=NIL):
        resident_part = (resident,) if mode.kind is MembraneKind.RESIDENT_STATIC else ()
        calls[(membrane, source, digest, code) + resident_part] += 1
        return allows(membrane, source, digest, code, mode, resident)

    monkeypatch.setattr(runtime, "allows", counting)
    for seed in range(5):
        calls.clear()
        events, final = runtime.run(n, mode, 100, seed)
        assert calls and max(calls.values()) == 1, calls
        assert [e for e in events if isinstance(e, Migration) and not e.admitted]
        assert runtime.step(final, mode) == []  # the run ended quiescent


def test_deep_agents_need_no_recursion():
    depth = 20_000
    for wrap in (lambda c: Act("a", c), Repl, lambda c: Act("a", Par(c, NIL))):
        a, b = NIL, NIL
        for _ in range(depth):
            a, b = wrap(a), wrap(b)
        assert a == b and a is not b and hash(a) == hash(b)
        assert str(a) == str(b)
        assert normalize(a) == normalize(b)
        assert agent_key(normalize(a))[0] == agent_key(a)[0]
    assert str(Act("a", Act("b", NIL))) == "a.b.nil"
    assert str(Repl(Par(Act("a", NIL), Repl(Act("b", NIL))))) == "!(a.nil | !b.nil)"
