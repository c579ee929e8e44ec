"""Admission, reduction, the agent LTS, and the bounded verifiers."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranes import (
    Act, Go, Membrane, MultisetPolicy, NIL, Par, Repl, SetPolicy,
    Site, System, TrustLevel, allows, agent_traces, infer_policy, lts_step, normalize,
    parse_system, run, step, verify_safety, verify_subject_reduction,
)
from membranes.runtime import (
    LocalAction, Migration, Mode, blocked_migrations, wellformed,
)

from conftest import DEMOS, random_multiset_agent, random_multiset_policy

M = MultisetPolicy.of
SET_MODE = Mode.of("set")
MS_MODE = Mode.of("multiset")
DYN_MODE = Mode.of("multiset", "dynamic")
STATIC_MODE = Mode.of("multiset", "static")

HOME_POLICY = SetPolicy.of(["info", "req", "secure"])


def membrane(policy, **trust):
    levels = {"good": TrustLevel.LGOOD, "bad": TrustLevel.LBAD, "unknown": TrustLevel.LOC}
    return Membrane.of({k: levels[v] for k, v in trust.items()}, policy)


def example1():
    text = (DEMOS / "example1_attack.mem").read_text()
    n = parse_system(text, "set")
    assert not isinstance(n, list)
    return n


# ---------------------------------------------------------------------------
# allows


def test_trusted_digest_bypasses_code_inspection():
    home = membrane(HOME_POLICY, bob="good")
    digest = SetPolicy.of(["info", "req"])
    bad_code = Act("take", NIL)
    verdict = allows(home, "bob", digest, bad_code, SET_MODE)
    assert verdict.admitted
    # the body is irrelevant when the source is trusted: vary it freely
    for body in (NIL, Act("give", NIL), Repl(Act("take", NIL))):
        assert allows(home, "bob", digest, body, SET_MODE).admitted


def test_untrusted_source_gets_code_checked():
    home = membrane(HOME_POLICY)  # bob unmapped -> unknown -> untrusted
    digest = SetPolicy.of(["info", "req"])
    verdict = allows(home, "bob", digest, Act("take", NIL), SET_MODE)
    assert not verdict.admitted
    assert "take" not in HOME_POLICY.labels
    assert allows(home, "bob", digest, Act("info", NIL), SET_MODE).admitted


def test_bad_source_also_gets_code_checked():
    home = membrane(HOME_POLICY, bob="bad")
    assert not allows(home, "bob", SetPolicy.of([]), Act("take", NIL), SET_MODE).admitted


def test_dynamic_membrane_decrements_budget():
    g = "get_licence"
    serv = membrane(M({g: 2}), client="good")
    digest = M({g: 1})
    code = Act(g, NIL)

    first = allows(serv, "client", digest, code, DYN_MODE)
    assert first.admitted and first.membrane.policy == M({g: 1})
    second = allows(first.membrane, "client", digest, code, DYN_MODE)
    assert second.admitted and second.membrane.policy == M({})
    third = allows(second.membrane, "client", digest, code, DYN_MODE)
    assert third.decision == "deny"


def test_dynamic_membrane_keeps_trust_map():
    serv = membrane(M({"ping": 1}), client="good")
    verdict = allows(serv, "client", M({"ping": 1}), NIL, DYN_MODE)
    assert verdict.admitted
    assert verdict.membrane.trust == serv.trust


def test_static_membrane_counts_residents():
    policy = M({"send": 2})
    serv = membrane(policy, client="good")
    digest = M({"send": 1})
    one_send = Act("send", NIL)
    assert allows(serv, "client", digest, one_send, STATIC_MODE, resident=NIL).admitted
    assert allows(serv, "client", digest, one_send, STATIC_MODE, resident=one_send).admitted
    assert not allows(serv, "client", digest, one_send, STATIC_MODE,
                      resident=Par(one_send, one_send)).admitted


def test_regime_mismatch_is_refused():
    home = membrane(HOME_POLICY, bob="good")
    with pytest.raises(ValueError):
        allows(home, "bob", M({"send": 1}), NIL, SET_MODE)


def test_resident_membranes_require_multisets():
    for regime in ("set", "dfa"):
        for kind in ("static", "dynamic"):
            with pytest.raises(ValueError):
                Mode.of(regime, kind)


# ---------------------------------------------------------------------------
# step


def test_step_local_action():
    n = System.of(Site("l", membrane(SetPolicy.of(["ping"])), Act("ping", NIL)))
    successors = step(n, SET_MODE)
    assert len(successors) == 1
    succ, event = successors[0]
    assert succ.get("l").agent == NIL
    assert event == LocalAction("l", "ping")


def test_step_migration_moves_code_and_composes():
    n = example1()
    (succ, event), = [se for se in step(n, SET_MODE)
                      if isinstance(se[1], Migration) and se[1].source == "bob"]
    assert event.admitted and event.target == "home"
    assert succ.get("bob").agent == NIL
    assert normalize(succ.get("home").agent) == Act("take", NIL)


def test_step_denied_migration_has_no_successor():
    shut = System.of(
        Site("l", membrane(SetPolicy.of([])), NIL),
        Site("k", membrane(SetPolicy.of(["l"])), Go("l", SetPolicy.of([]), Act("take", NIL))))
    assert step(shut, SET_MODE) == []
    blocked = blocked_migrations(shut, SET_MODE)
    assert len(blocked) == 1 and not blocked[0].admitted


def test_example1_two_hop_reaches_secure():
    n = example1()
    # breadth-first closure to depth 6 must contain the foiled state
    seen = {n}
    frontier = [n]
    foiled = []
    for _ in range(6):
        nxt = []
        for system in frontier:
            for succ, _ in step(system, SET_MODE):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    for system in seen:
        agent = system.get("secure").agent
        if normalize(agent) == Act("take", NIL):
            foiled.append(system)
    assert foiled


def test_replication_unfolds_one_copy_per_step():
    n = System.of(Site("l", membrane(SetPolicy.of(["ping"])), Repl(Act("ping", NIL))))
    successors = step(n, SET_MODE)
    assert len(successors) == 1
    succ, event = successors[0]
    assert event == LocalAction("l", "ping")
    assert succ.get("l").agent == Repl(Act("ping", NIL))


# ---------------------------------------------------------------------------
# run


def test_run_empty_system_is_quiet():
    events, final = run(System.of(), SET_MODE, 5, seed=1)
    assert events == [] and final == System.of()


def test_run_zero_steps():
    events, _ = run(example1(), SET_MODE, 0, seed=1)
    assert events == []


def test_run_is_deterministic():
    for seed in (0, 7, 123):
        a = run(example1(), SET_MODE, 20, seed=seed)
        b = run(example1(), SET_MODE, 20, seed=seed)
        assert a == b


def test_run_example1_records_the_attack():
    events, final = run(example1(), SET_MODE, 20, seed=3)
    migrations = [e for e in events if isinstance(e, Migration)]
    assert any(e.source == "bob" and e.target == "home" and e.admitted for e in migrations)
    takes = [e for e in events if isinstance(e, LocalAction) and e.action == "take"]
    assert {e.site for e in takes} == {"home", "secure"}
    assert [e.step for e in events] == list(range(len(events)))


def test_run_reports_stuck_migrations_at_quiescence():
    shut = System.of(
        Site("l", membrane(SetPolicy.of([])), NIL),
        Site("k", membrane(SetPolicy.of(["l"])), Go("l", SetPolicy.of([]), Act("take", NIL))))
    events, _ = run(shut, SET_MODE, 10, seed=0)
    assert len(events) == 1
    assert isinstance(events[0], Migration) and not events[0].admitted


def test_run_licence_demo_admits_exactly_two():
    n = parse_system((DEMOS / "licence_server.mem").read_text(), "multiset")
    assert not isinstance(n, list)
    for seed in (0, 1, 2):
        events, final = run(n, DYN_MODE, 50, seed=seed)
        admitted = [e for e in events if isinstance(e, Migration) and e.admitted]
        denied = [e for e in events if isinstance(e, Migration) and not e.admitted]
        assert len(admitted) == 2
        assert len(denied) == 1
        assert final.get("licence_serv").membrane.policy.count("get_licence") == 0


# ---------------------------------------------------------------------------
# LTS and traces


def test_lts_action():
    assert lts_step(Act("ping", NIL)) == [("ping", NIL)]


def test_lts_migration_emits_target_and_vanishes():
    agent = Go("home", SetPolicy.of([]), Act("take", NIL))
    assert lts_step(agent) == [("home", NIL)]


def test_lts_replication_keeps_replica():
    (label, residual), = lts_step(Repl(Act("ping", NIL)))
    assert label == "ping"
    assert residual == Repl(Act("ping", NIL))


def test_traces_sequential():
    agent = Act("ping", Act("send", NIL))
    assert agent_traces(agent, 2) == {(), ("ping",), ("ping", "send")}


def test_traces_interleave():
    agent = Par(Act("ping", NIL), Act("send", NIL))
    assert agent_traces(agent, 2) == {(), ("ping",), ("send",),
                                      ("ping", "send"), ("send", "ping")}


def test_traces_replication_unbounded_prefixes():
    agent = Repl(Act("ping", NIL))
    assert agent_traces(agent, 3) == {(), ("ping",), ("ping",) * 2, ("ping",) * 3}


# ---------------------------------------------------------------------------
# verifiers


def test_safety_clean_on_wellformed_site():
    n = System.of(Site("l", membrane(SetPolicy.of(["ping"]), l="good"), Act("ping", NIL)))
    assert wellformed(n, SET_MODE) is True
    assert verify_safety(n, SET_MODE, 5).ok


def test_safety_reports_example1_foiled_state():
    n = example1()
    foiled = None
    seen = {n}
    frontier = [n]
    for _ in range(6):
        nxt = []
        for system in frontier:
            for succ, _ in step(system, SET_MODE):
                if succ in seen:
                    continue
                seen.add(succ)
                nxt.append(succ)
                if (normalize(succ.get("home").agent) == Act("take", NIL)
                        and normalize(succ.get("secure").agent) == Act("take", NIL)):
                    foiled = succ
        frontier = nxt
    assert foiled is not None
    report = verify_safety(foiled, SET_MODE, 6)
    assert {(f.site, f.trace) for f in report.findings} == \
        {("home", ("take",)), ("secure", ("take",))}


def test_safety_multiset_counts_per_thread():
    overdrawn = System.of(Site(
        "l", membrane(M({"send": 1}), l="good"), Act("send", Act("send", NIL))))
    report = verify_safety(overdrawn, MS_MODE, 5)
    assert any(f.trace == ("send", "send") for f in report.findings)


def test_subject_reduction_clean_on_wellformed():
    n = System.of(Site("l", membrane(SetPolicy.of(["ping"]), l="good"),
                       Par(Act("ping", NIL), Repl(Act("ping", NIL)))))
    assert verify_subject_reduction(n, SET_MODE, 4).ok


def test_subject_reduction_flags_corrupt_membrane_at_depth_zero():
    bad = System.of(Site("l", membrane(SetPolicy.of([]), l="good"), Act("ping", NIL)))
    report = verify_subject_reduction(bad, SET_MODE, 3)
    assert report.findings and report.findings[0].trace == ()


def test_licence_demo_preserves_wellformedness():
    n = parse_system((DEMOS / "licence_server.mem").read_text(), "multiset")
    theta = {"licence_serv": M({"get_licence": 2}), "client": M({"licence_serv": 3})}
    assert wellformed(n, DYN_MODE, theta) is True
    assert verify_subject_reduction(n, DYN_MODE, 4, theta).ok
    assert verify_safety(n, DYN_MODE, 4, theta).ok


def test_dynamic_budget_never_grows_along_runs():
    from membranes.policy_multiset import count_le
    n = parse_system((DEMOS / "licence_server.mem").read_text(), "multiset")
    frontier = [n]
    seen = {n}
    for _ in range(6):
        nxt = []
        for system in frontier:
            before = {s.name: s.membrane.policy for s in system}
            for succ, _ in step(system, DYN_MODE):
                for site in succ:
                    after = site.membrane.policy
                    for label in after.labels() | before[site.name].labels():
                        assert count_le(after.count(label), before[site.name].count(label))
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt


def test_step_soundness_against_lts():
    # every successor matches one transition of the agent LTS at the event's
    # site(s); all other sites are untouched
    import random as _random
    from collections import Counter
    from conftest import gen_multiset_system, gen_set_system
    from membranes import threads
    from membranes.core import agent_key, normalize_system

    rng = _random.Random(515)
    systems = [gen_set_system(rng) for _ in range(25)]
    modes = [SET_MODE] * 25
    systems += [gen_multiset_system(rng) for _ in range(25)]
    modes += [MS_MODE] * 25
    for n, mode in zip(systems, modes):
        n = n if wellformed(n, mode) else n  # soundness holds regardless
        norm = normalize_system(n)
        for succ, event in step(norm, mode):
            touched = {event.site} if isinstance(event, LocalAction) \
                else {event.source, event.target}
            for site in norm:
                if site.name not in touched:
                    assert succ.get(site.name) == site
            if isinstance(event, LocalAction):
                moves = lts_step(norm.get(event.site).agent)
                assert (event.action, succ.get(event.site).agent) in moves
            else:
                moves = lts_step(norm.get(event.source).agent)
                assert (event.target, succ.get(event.source).agent) in moves
                before = Counter(map(agent_key, threads(norm.get(event.target).agent)))
                after = Counter(map(agent_key, threads(succ.get(event.target).agent)))
                assert all(after[k] >= c for k, c in before.items())


def test_unknown_admission_fails_closed_and_is_reported():
    from membranes import Dfa, DfaPolicy
    everything = Dfa.of({"s"}, {"usr", "pwd"}, "s", {"s"},
                        {("s", "usr"): "s", ("s", "pwd"): "s"})
    policy = DfaPolicy("all", everything)
    target = membrane(policy)  # source unmapped: code must be checked
    growing = Repl(Act("usr", Act("pwd", NIL)))
    mode = Mode.of("dfa", dfa_bound=2)
    verdict = allows(target, "src", policy, growing, mode)
    assert verdict.decision == "unknown"
    assert "inconclusive" in verdict.reason

    n = System.of(
        Site("src", membrane(policy), Go("dst", policy, growing)),
        Site("dst", target, NIL))
    assert step(n, mode) == []
    events, _ = run(n, mode, 10, seed=0)
    assert len(events) == 1 and not events[0].admitted
    assert "inconclusive" in events[0].reason


def test_theorems_hold_under_static_membranes():
    # the resident-static variant preserves its invariant and bounds joint
    # traces, on generated well-formed systems
    import random as _random
    from conftest import gen_static_system
    rng = _random.Random(2024)
    checked = 0
    while checked < 40:
        n = gen_static_system(rng)
        if wellformed(n, STATIC_MODE) is not True:
            continue
        checked += 1
        assert verify_subject_reduction(n, STATIC_MODE, 4).ok
        assert verify_safety(n, STATIC_MODE, 4).ok


def test_static_denial_can_unblock_after_residents_act():
    # a static membrane re-infers the residents at each attempt, so budget
    # frees up as resident code runs; dynamic membranes never give back
    policy = M({"send": 1})
    source_site = Site("src", membrane(M({"src": 1}), src="good"),
                       Go("dst", M({"send": 1}), Act("send", NIL)))
    busy = Site("dst", membrane(policy, src="good"), Act("send", NIL))
    n = System.of(source_site, busy)
    attempts = blocked_migrations(n, STATIC_MODE)
    assert len(attempts) == 1  # denied while the resident still owes a send
    after_resident, = [s for s, e in step(n, STATIC_MODE)
                       if isinstance(e, LocalAction)]
    assert any(isinstance(e, Migration) for _, e in step(after_resident, STATIC_MODE))


def test_report_render_format():
    overdrawn = System.of(Site(
        "l", membrane(M({"send": 1}), l="good"), Act("send", Act("send", NIL))))
    text = verify_safety(overdrawn, MS_MODE, 5).render()
    lines = text.splitlines()
    assert lines[-1].startswith("SUMMARY violations=")
    row = lines[0].split("\t")
    assert row[0] == "l" and row[2] == "send send"
    assert verify_safety(overdrawn, MS_MODE, 0).render() == "SUMMARY ok"


def test_resident_record_must_cover_trustworthy_sites():
    n = parse_system((DEMOS / "licence_server.mem").read_text(), "multiset")
    partial = {"client": M({"licence_serv": 3})}
    message = "resident record does not cover trustworthy site 'licence_serv'"
    with pytest.raises(ValueError, match=message):
        verify_safety(n, DYN_MODE, 3, partial)
    with pytest.raises(ValueError, match=message):
        verify_subject_reduction(n, DYN_MODE, 3, partial)
    with pytest.raises(ValueError, match=message):
        wellformed(n, DYN_MODE, partial)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.sampled_from(["good", "bad", "unknown"]))
def test_membrane_kinds_agree_on_first_arrival_at_empty_site(seed, size, trust):
    # With nothing resident, a static membrane adds no usage and a dynamic
    # one has spent no budget, so both rule like an entry membrane.
    rng = random.Random(seed)
    code = random_multiset_agent(rng, size)
    digest = infer_policy(code) if rng.random() < 0.5 else random_multiset_policy(rng)
    target = membrane(random_multiset_policy(rng), src=trust)
    decisions = {kind: allows(target, "src", digest, code, Mode.of("multiset", kind)).decision
                 for kind in ("entry", "static", "dynamic")}
    assert len(set(decisions.values())) == 1, decisions
