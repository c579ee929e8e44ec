"""The reduction engine and the mechanical verifiers.

A step is either a local action at a site or a migration between sites;
migrations fire only when the target's membrane admits the agent. The
admission predicate comes in three flavours: entry membranes check the
incoming agent alone, static resident membranes re-infer the resident
code's usage on every admission, and dynamic resident membranes keep a
decreasing budget in the policy itself.

The verifiers turn the calculus' soundness statements into bounded
executable checks: subject reduction (well-formedness is preserved by
every reachable step) and safety (traces at trustworthy sites stay within
the governing policy).
"""
from __future__ import annotations

import enum
import random
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .core import (
    Act, Agent, Go, Judgment, Membrane, NIL, Par, Policy, PolicyRegime, Repl,
    Site, System, TrustLevel, _spine, agent_key, is_trustworthy,
    normalize, normalize_system, splice, system_key, threads, validate_system,
)
from .policy_dfa import (
    DEFAULT_BOUND, DfaCheck, accepts_from, cre_of, enforces_dfa, judge_dfa,
    lang_words, satisfies_dfa,
)
from .policy_multiset import (
    MultisetPolicy, check_record, enforces_multiset, infer_policy, join,
    judge_multiset, judge_resident, judge_static, subtract, typecheck_multiset,
)
from .policy_set import SetPolicy, enforces_set, judge_set, typecheck_set


class MembraneKind(enum.Enum):
    ENTRY = "entry"
    RESIDENT_STATIC = "static"
    RESIDENT_DYNAMIC = "dynamic"


@dataclass(frozen=True)
class Mode:
    """A run configuration: which policy regime, and how membranes behave.

    Resident membranes are defined for multiset policies only.
    """

    regime: PolicyRegime
    kind: MembraneKind = MembraneKind.ENTRY
    dfa_bound: int = DEFAULT_BOUND

    def __post_init__(self):
        if self.kind != MembraneKind.ENTRY and self.regime != PolicyRegime.MULTISET:
            raise ValueError("resident membranes require the multiset regime")

    @classmethod
    def of(cls, regime: str | PolicyRegime, kind: str | MembraneKind = MembraneKind.ENTRY,
           dfa_bound: int = DEFAULT_BOUND) -> "Mode":
        if isinstance(regime, str):
            regime = PolicyRegime(regime)
        if isinstance(kind, str):
            kind = MembraneKind(kind)
        return cls(regime, kind, dfa_bound)


# ---------------------------------------------------------------------------
# Policy regimes


@dataclass(frozen=True)
class Regime:
    """What a policy regime supplies to entry membranes and the verifiers.

    Safety checks `traces` per thread when `thread_wise`, else per site;
    `violation` says why a trace breaks the policy, or is None. Entries
    call through module globals, so that a wrapped function sees every call.
    """

    name: str
    enforces: Callable[[Policy, Policy], bool]
    conforms: Callable[[Agent, Policy, int], DfaCheck]
    judge: Callable[[System, int], Judgment]
    thread_wise: bool
    traces: Callable[[Agent, int], set[tuple[str, ...]]]
    violation: Callable[[tuple[str, ...], Policy], str | None]


def _escapes_set(trace: tuple[str, ...], policy: SetPolicy) -> str | None:
    used = SetPolicy.of(trace)
    return None if enforces_set(used, policy) else f"trace labels {used} escape {policy}"


def _exceeds_multiset(trace: tuple[str, ...], policy: MultisetPolicy) -> str | None:
    used = MultisetPolicy.of(Counter(trace))
    return None if enforces_multiset(used, policy) else f"trace uses {used}, exceeding {policy}"


def _outside_dfa(word: tuple[str, ...], policy) -> str | None:
    dfa = policy.dfa
    if any(accepts_from(dfa, s, word) for s in sorted(dfa.states)):
        return None
    return f"word is a suffix of no word accepted by {policy}"


REGIMES: dict[PolicyRegime, Regime] = {
    PolicyRegime.SET: Regime(
        "set", enforces_set,
        lambda code, policy, bound: DfaCheck("yes" if typecheck_set(code, policy) else "no"),
        lambda n, bound: judge_set(n),
        False, lambda p, depth: agent_traces(p, depth), _escapes_set),
    PolicyRegime.MULTISET: Regime(
        "multiset", enforces_multiset,
        lambda code, policy, bound: DfaCheck("yes" if typecheck_multiset(code, policy) else "no"),
        lambda n, bound: judge_multiset(n),
        True, lambda p, depth: agent_traces(p, depth), _exceeds_multiset),
    PolicyRegime.DFA: Regime(
        "DFA", lambda digest, policy: enforces_dfa(digest.dfa, policy.dfa),
        lambda code, policy, bound: satisfies_dfa(code, policy.dfa, bound),
        lambda n, bound: judge_dfa(n, bound),
        True, lambda p, depth: lang_words(cre_of(p), depth), _outside_dfa),
}


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class LocalAction:
    site: str
    action: str
    step: int = 0

    def render(self) -> str:
        return f"[{self.step}] {self.site}: act {self.action}"


@dataclass(frozen=True)
class Migration:
    source: str
    target: str
    digest: Policy
    admitted: bool
    reason: str
    step: int = 0

    def render(self) -> str:
        status = "admitted" if self.admitted else "DENIED"
        note = f" ({self.reason})" if self.reason else ""
        return f"[{self.step}] {self.source} -> {self.target}: go {self.digest} {status}{note}"


Event = LocalAction | Migration


def _event_key(e: Event) -> tuple:
    if isinstance(e, LocalAction):
        return ("act", e.site, e.action)
    return ("go", e.source, e.target, str(e.digest), e.admitted, e.reason)


# ---------------------------------------------------------------------------
# Admission


@dataclass(frozen=True)
class Admission:
    """Verdict of the membrane on one migration attempt.

    `decision` is admit, deny, or unknown (a DFA search that hit its
    bound; the engine fails closed and treats it as a denial, but reports
    it distinctly). On admit, `membrane` is the target's membrane after
    the admission: unchanged except under dynamic membranes, which pay
    the agent's budget out of the policy.
    """

    decision: str  # "admit" | "deny" | "unknown"
    membrane: Membrane | None = None
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.decision == "admit"


def _admit(membrane: Membrane, reason: str = "") -> Admission:
    return Admission("admit", membrane, reason)


def _deny(reason: str) -> Admission:
    return Admission("deny", None, reason)


def allows(membrane: Membrane, source: str, digest: Policy, code: Agent,
           mode: Mode, resident: Agent = NIL) -> Admission:
    """The membrane's admission predicate for an agent arriving from `source`.

    If the source is trusted (good), only the professed digest is checked
    against the policy; work shifts to the certifier, and the code body
    is never inspected. Otherwise the code itself is checked. Unknown
    sources count as untrusted. `resident` is the target's current code,
    consulted only by resident membranes.
    """
    if digest.regime != mode.regime or membrane.policy.regime != mode.regime:
        raise ValueError(
            f"regime mismatch: mode is {mode.regime.value}, digest is "
            f"{digest.regime.value}, policy is {membrane.policy.regime.value}")
    trusted = membrane.trust_of(source) == TrustLevel.LGOOD
    policy = membrane.policy

    if mode.kind == MembraneKind.ENTRY:
        regime = REGIMES[mode.regime]
        if trusted:
            if regime.enforces(digest, policy):
                return _admit(membrane, f"digest {digest} enforces {policy}")
            return _deny(f"digest {digest} does not enforce {policy}")
        check = regime.conforms(code, policy, mode.dfa_bound)
        if check.verdict == "yes":
            return _admit(membrane, f"code conforms to {policy}")
        if check.verdict == "unknown":
            return Admission("unknown", None,
                             f"inconclusive: bound {mode.dfa_bound} exceeded checking {policy}")
        cex = f" (counterexample: '{' '.join(check.counterexample)}')" if check.counterexample else ""
        return _deny(f"code does not conform to {policy}{cex}")

    if mode.kind == MembraneKind.RESIDENT_STATIC:
        if trusted:
            resident_usage = infer_policy(resident)
            if resident_usage is None:
                return _deny("resident code has an invalid digest")
            combined = join(digest, resident_usage)
            if enforces_multiset(combined, policy):
                return _admit(membrane, f"digest plus resident usage {combined} fits {policy}")
            return _deny(f"digest plus resident usage {combined} exceeds {policy}")
        if typecheck_multiset(Par(code, resident), policy):
            return _admit(membrane, f"incoming and resident code jointly fit {policy}")
        return _deny(f"incoming and resident code jointly exceed {policy}")

    # Dynamic membranes: charge the admitted agent's budget to the policy.
    budget = digest if trusted else infer_policy(code)
    if budget is None:
        return _deny("code has an invalid digest")
    source_kind = "digest" if trusted else "inferred usage"
    if enforces_multiset(budget, policy):
        return _admit(membrane.with_policy(subtract(policy, budget)),
                      f"{source_kind} {budget} paid out of {policy}")
    return _deny(f"{source_kind} {budget} exceeds remaining budget {policy}")


# ---------------------------------------------------------------------------
# Reduction


def _redexes(a: Agent) -> list[tuple[str, Policy | None, Agent | None, Agent]]:
    """All immediate redexes of a normal agent, as (label, digest, moving,
    residual): an action has its name as label and no digest or moving
    code; a migration has its target as label, its digest, and the code
    that moves. The residual is what stays at the site when the redex
    fires, in normal form: the other threads plus what is left of the one
    that fired. Redexes come thread by thread, in order; a thread equal to
    the one before it adds none, since its redexes would only repeat that
    thread's.
    """
    spine = _spine(a)
    out = []
    for i, thread in enumerate(spine[0]):
        if i and thread == spine[0][i - 1]:
            continue
        out.extend((label, digest, moving, splice(a, i, beside, spine))
                   for label, digest, moving, beside in _thread_redexes(thread))
    return out


def _thread_redexes(thread: Agent) -> list[tuple[str, Policy | None, Agent | None, list[Agent]]]:
    """The redexes of one normal thread, as (label, digest, moving,
    beside), where `beside` lists the threads that take its place when the
    redex fires (every part of a normal thread is normal). Replication is
    unfolded lazily: redexes of the body appear once, with the replica
    kept beside them.
    """
    out = []
    stack: list[tuple[Agent, list[Agent]]] = [(thread, [])]
    while stack:
        node, beside = stack.pop()
        if isinstance(node, Act):
            out.append((node.action, None, None, beside + _spine(node.cont)[0]))
        elif isinstance(node, Go):
            out.append((node.target, node.digest, node.cont, beside))
        elif isinstance(node, Repl):
            inner = _spine(node.body)[0]
            for j in range(len(inner) - 1, -1, -1):
                if not (j and inner[j] == inner[j - 1]):
                    stack.append((inner[j], beside + inner[:j] + inner[j + 1:] + [node]))
        else:
            raise TypeError(f"not an agent: {node!r}")
    return out


def _verdict(target: Site, source: str, digest: Policy, moving: Agent, mode: Mode,
             verdicts: dict) -> Admission:
    """The target membrane's verdict on a migration, reused from `verdicts`
    when everything `allows` reads is unchanged (mode is fixed per call)."""
    key = (target.membrane, source, digest, moving)
    if mode.kind == MembraneKind.RESIDENT_STATIC:
        key += (target.agent,)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = allows(target.membrane, source, digest, moving, mode,
                                         resident=target.agent)
    return verdict


def _moves(n: System, mode: Mode, verdicts: dict):
    """Every redex at every site, with the membrane's verdict on migrations
    (None for local actions): (site, redex, verdict). A migration to its
    own site or to a missing one is denied without asking any membrane.
    Verdicts are reused through the memo `verdicts`.
    """
    for site in n.sites:
        for redex in _redexes(normalize(site.agent)):
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
                    yield site, redex, _verdict(target, site.name, digest, moving, mode, verdicts)


def step(n: System, mode: Mode, verdicts: dict | None = None) -> list[tuple[System, Event]]:
    """All distinct one-step successors of the system, with their events.

    Distinctness is up to structural equivalence (normalized forms).
    Denied migrations contribute no successor; the rule's side condition
    is simply false; `run` reports them once the system is stuck.

    Successors come in the order of (event, system key). Only the one or
    two sites a redex changes are built; every other Site object is
    shared with the (normalized) input. Two successors with the same
    event changed the same sites, so they are told apart, and ordered, by
    the entries of those sites alone, and only when their events tie.
    `verdicts`, when given, is a memo of admission verdicts that the
    caller keeps across calls; without it the memo lives for this call.
    """
    n = normalize_system(n)
    by_event: dict[tuple, list[tuple[dict[int, Site], Event]]] = {}
    moves = _moves(n, mode, {} if verdicts is None else verdicts)
    for site, (label, digest, moving, residual), verdict in moves:
        if verdict is not None and not verdict.admitted:
            continue
        i = n.index(site.name)
        changes = {i: Site(site.name, n.sites[i].membrane, residual)}
        if verdict is None:
            event: Event = LocalAction(site.name, label)
        else:
            j = n.index(label)
            arrived = splice(n.sites[j].agent, None, _spine(moving)[0])
            changes[j] = Site(label, verdict.membrane, arrived)
            event = Migration(site.name, label, digest, True, verdict.reason)
        by_event.setdefault(_event_key(event), []).append((changes, event))
    out = []
    for event_key in sorted(by_event):
        tied = by_event[event_key]
        if len(tied) > 1:
            distinct: dict[tuple, tuple[dict[int, Site], Event]] = {}
            for changes, event in tied:
                key = tuple(changes[k].key() for k in sorted(changes))
                distinct.setdefault(key, (changes, event))
            tied = [distinct[k] for k in sorted(distinct)]
        out.extend((n.with_sites(changes), event) for changes, event in tied)
    return out


def blocked_migrations(n: System, mode: Mode, verdicts: dict | None = None) -> list[Migration]:
    """Every migration redex that cannot fire right now, as non-admitted events."""
    out: dict[tuple, Migration] = {}
    for site, (label, digest, _, _), verdict in _moves(n, mode, {} if verdicts is None else verdicts):
        if verdict is not None and not verdict.admitted:
            event = Migration(site.name, label, digest, False, verdict.reason)
            out.setdefault(_event_key(event), event)
    return [out[k] for k in sorted(out)]


def run(n: System, mode: Mode, max_steps: int, seed: int) -> tuple[list[Event], System]:
    """Reduce the system with a seeded scheduler until quiescent or out of steps.

    Successors are picked uniformly at random; identical inputs give
    identical traces. When the system quiesces, any migrations still
    pending are appended as denial events, so permanently stuck agents
    show up in the trace. Each distinct pending migration is judged once
    per call: a verdict is reused while its inputs are unchanged.
    """
    problems = validate_system(n, mode.regime)
    if problems:
        raise ValueError("invalid system: " + "; ".join(d.message for d in problems))
    rng = random.Random(seed)
    events: list[Event] = []
    verdicts: dict = {}
    current = normalize_system(n)
    for i in range(max_steps):
        successors = step(current, mode, verdicts)
        if not successors:
            break
        current, event = successors[rng.randrange(len(successors))]
        events.append(replace(event, step=i))
    else:
        successors = step(current, mode, verdicts)
    if not successors:
        for blocked in blocked_migrations(current, mode, verdicts):
            events.append(replace(blocked, step=len(events)))
    return events, current


# ---------------------------------------------------------------------------
# The agent transition system


def lts_step(p: Agent) -> list[tuple[str, Agent]]:
    """The labelled transitions of an agent: actions emit their name and
    continue; migrations emit the target name and leave nothing behind
    (the continuation runs elsewhere); replication unfolds one copy.
    Residuals are normalized and the list deduplicated.
    """
    out: dict[tuple, tuple[str, Agent]] = {}
    for label, _, _, residual in _redexes(normalize(p)):
        norm = normalize(residual)
        out.setdefault((label, agent_key(norm)), (label, norm))
    return [out[k] for k in sorted(out)]


def agent_traces(p: Agent, depth: int) -> set[tuple[str, ...]]:
    """All label sequences of length at most `depth` the agent can perform."""
    out: set[tuple[str, ...]] = {()}
    traces: dict[Agent, set[tuple[str, ...]]] = {normalize(p): {()}}
    for _ in range(depth):
        nxt: dict[Agent, set[tuple[str, ...]]] = {}
        for agent, prefixes in traces.items():
            for label, residual in lts_step(agent):
                extended = {prefix + (label,) for prefix in prefixes}
                out.update(extended)
                nxt.setdefault(residual, set()).update(extended)
        traces = nxt
        if not traces:
            break
    return out


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Finding:
    site: str
    thread: int | None  # None for whole-site checks
    trace: tuple[str, ...]
    reason: str
    inconclusive: bool = False

    def render(self) -> str:
        thread = "-" if self.thread is None else str(self.thread)
        trace = " ".join(self.trace)
        return f"{self.site}\t{thread}\t{trace}\t{self.reason}"


@dataclass(frozen=True)
class Report:
    findings: tuple[Finding, ...] = ()

    @property
    def violations(self) -> list[Finding]:
        return [f for f in self.findings if not f.inconclusive]

    @property
    def unknowns(self) -> list[Finding]:
        return [f for f in self.findings if f.inconclusive]

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        count = len(self.violations)
        lines.append("SUMMARY ok" if count == 0 else f"SUMMARY violations={count}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Well-formedness


def _record(mode: Mode,
            theta: Mapping[str, MultisetPolicy] | None) -> Mapping[str, MultisetPolicy] | None:
    """The resident record dynamic membranes are judged against; None for other kinds."""
    if mode.kind != MembraneKind.RESIDENT_DYNAMIC:
        return None
    if theta is None:
        raise ValueError("dynamic membranes need a resident record (theta)")
    return theta


def judge(n: System, mode: Mode,
          theta: Mapping[str, MultisetPolicy] | None = None) -> Judgment:
    """The regime's well-formedness judgment, with its explanation; the
    verdict is None when inconclusive (DFA bound). Under dynamic membranes
    theta must cover every trustworthy site (ValueError otherwise)."""
    if mode.kind == MembraneKind.RESIDENT_STATIC:
        return judge_static(n)
    if mode.kind == MembraneKind.RESIDENT_DYNAMIC:
        return judge_resident(n, _record(mode, theta))
    return REGIMES[mode.regime].judge(n, mode.dfa_bound)


def wellformed(n: System, mode: Mode,
               theta: Mapping[str, MultisetPolicy] | None = None) -> bool | None:
    return judge(n, mode, theta).verdict


def explain_wellformed(n: System, mode: Mode,
                       theta: Mapping[str, MultisetPolicy] | None = None) -> list[str]:
    return list(judge(n, mode, theta).notes)


# ---------------------------------------------------------------------------
# Safety verification


def verify_safety(n: System, mode: Mode, depth: int,
                  theta: Mapping[str, MultisetPolicy] | None = None) -> Report:
    """Check the regime's safety statement on every trustworthy site, by
    exhaustive trace enumeration up to `depth`.

    set: the labels of any trace of the site's code stay within the policy.
    multiset entry: per thread, trace label counts stay within the policy.
    multiset static: joint trace label counts stay within the policy.
    multiset dynamic: joint trace label counts stay within theta[site].
    dfa: per thread, every complete word the thread's trace expression can
         produce (up to `depth`) is a suffix of an accepted word, i.e. is
         accepted from some automaton state.

    Violations are data, not errors; meaningful when the applicable
    well-formedness held, since the theorems assume it.
    """
    regime = REGIMES[mode.regime]
    record = _record(mode, theta)
    if record is not None:
        check_record(n, record)
    findings: list[Finding] = []
    for site in n.sites:
        if not is_trustworthy(site):
            continue
        policy = site.membrane.policy
        if policy.regime != mode.regime:
            findings.append(Finding(site.name, None, (),
                                    f"membrane policy is not a {regime.name} policy"))
            continue
        if record is not None:
            policy = record[site.name]
        if mode.kind == MembraneKind.ENTRY and regime.thread_wise:
            units = list(enumerate(threads(site.agent)))
        else:
            units = [(None, site.agent)]
        for i, agent in units:
            for trace in sorted(regime.traces(agent, depth)):
                reason = regime.violation(trace, policy)
                if reason is not None:
                    findings.append(Finding(site.name, i, trace, reason))
    return Report(tuple(findings))


def verify_subject_reduction(n: System, mode: Mode, depth: int,
                             theta: Mapping[str, MultisetPolicy] | None = None) -> Report:
    """Breadth-first search over reductions to `depth`, re-checking
    well-formedness at every reachable system (the initial one included).

    Any failure would falsify the preservation theorem for the regime, or
    reveal an implementation bug, which is the point of running this.
    The initial system is judged first, so a bad resident record fails
    before any exploration.
    """
    findings: list[Finding] = []
    verdicts: dict = {}
    root = normalize_system(n)
    seen = {system_key(root)}
    queue = deque([(root, ())])
    while queue:
        current, path = queue.popleft()
        judgment = judge(current, mode, theta)
        if judgment.verdict is False:
            detail = "; ".join(judgment.notes) or "ill-formed"
            findings.append(Finding("<system>", None, path,
                                    f"well-formedness lost after {len(path)} step(s): {detail}"))
        elif judgment.verdict is None:
            findings.append(Finding("<system>", None, path,
                                    "well-formedness inconclusive (bound exceeded)",
                                    inconclusive=True))
        if len(path) >= depth:
            continue
        for succ, event in step(current, mode, verdicts):
            key = system_key(succ)
            if key not in seen:
                seen.add(key)
                queue.append((succ, path + (_event_shorthand(event),)))
    return Report(tuple(findings))


def _event_shorthand(e: Event) -> str:
    if isinstance(e, LocalAction):
        return f"{e.site}:{e.action}"
    return f"{e.source}>{e.target}"
