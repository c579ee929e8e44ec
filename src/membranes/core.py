"""Agents, membranes, and systems: the calculus shared by every policy regime.

An agent is a finite tree built from nil, action prefixing, migration
(`go` with a policy digest), parallel composition, and replication. A
system is an ordered map from unique site names to (membrane, agent)
pairs, where a membrane couples a trust map over sites with the policy
the site enforces on incoming agents.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol, runtime_checkable

from .diagnostics import Diagnostic, error


class PolicyRegime(enum.Enum):
    SET = "set"
    MULTISET = "multiset"
    DFA = "dfa"


@runtime_checkable
class Policy(Protocol):
    """What core needs from a policy: its regime, rendering, and a sort key.

    Concrete policies live in the policy_set / policy_multiset / policy_dfa
    modules; core stays agnostic so digests can be attached to agents
    without import cycles.
    """

    regime: PolicyRegime

    def sort_key(self) -> tuple: ...


# ---------------------------------------------------------------------------
# Trust


class TrustLevel(enum.Enum):
    LGOOD = "good"
    LBAD = "bad"
    LOC = "unknown"


def trust_below(a: TrustLevel, b: TrustLevel) -> bool:
    """The <: order on trust levels: reflexive, plus unknown <: good and unknown <: bad."""
    return a == b or a == TrustLevel.LOC


# ---------------------------------------------------------------------------
# Agents


class Agent:
    """Base class for agent syntax nodes. All nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Nil(Agent):
    def __str__(self) -> str:
        return "nil"


NIL = Nil()


@dataclass(frozen=True)
class Act(Agent):
    action: str
    cont: Agent

    def __str__(self) -> str:
        return f"{self.action}.{_prefixed(self.cont)}"


@dataclass(frozen=True)
class Go(Agent):
    target: str
    digest: Policy
    cont: Agent

    def __str__(self) -> str:
        return f"go({self.target}, {self.digest}).{_prefixed(self.cont)}"


@dataclass(frozen=True)
class Par(Agent):
    left: Agent
    right: Agent

    def __str__(self) -> str:
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Par):
                stack.append(node.right)
                stack.append(node.left)
            else:
                parts.append(str(node))
        return " | ".join(parts)


@dataclass(frozen=True)
class Repl(Agent):
    body: Agent

    def __str__(self) -> str:
        return f"!{_prefixed(self.body)}"


def _prefixed(a: Agent) -> str:
    # Par binds looser than prefixing and replication, so it needs parens there.
    return f"({a})" if isinstance(a, Par) else str(a)


def par(*agents: Agent) -> Agent:
    """Right-nested parallel composition of the given agents (nil if none)."""
    if not agents:
        return NIL
    out = agents[-1]
    for a in reversed(agents[:-1]):
        out = Par(a, out)
    return out


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


def threads(a: Agent) -> list[Agent]:
    """Split an agent into its parallel threads (none of which is a Par).

    nil has zero threads, so an empty site vacuously passes any
    thread-wise well-formedness check.
    """
    norm = normalize(a)
    if isinstance(norm, Nil):
        return []
    out = []
    while isinstance(norm, Par):
        out.append(norm.left)
        norm = norm.right
    out.append(norm)
    return out


def subagents(a: Agent) -> Iterator[Agent]:
    """All syntax nodes of a, including a itself (pre-order)."""
    stack = [a]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Act):
            stack.append(node.cont)
        elif isinstance(node, Go):
            stack.append(node.cont)
        elif isinstance(node, Par):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Repl):
            stack.append(node.body)


# ---------------------------------------------------------------------------
# Membranes and systems


@dataclass(frozen=True)
class Membrane:
    """A site's guard layer: trust knowledge about other sites plus one policy.

    The trust map is partial; looking up an unmapped site yields LOC (the
    stored knowledge stays faithful; the security downgrade of unknown
    sites to untrusted happens in the admission predicate, not here).
    """

    trust: tuple[tuple[str, TrustLevel], ...]
    policy: Policy

    @classmethod
    def of(cls, trust: Mapping[str, TrustLevel], policy: Policy) -> "Membrane":
        return cls(tuple(sorted(trust.items(), key=lambda kv: kv[0])), policy)

    def trust_of(self, site: str) -> TrustLevel:
        for name, level in self.trust:
            if name == site:
                return level
        return TrustLevel.LOC

    def with_policy(self, policy: Policy) -> "Membrane":
        return Membrane(self.trust, policy)

    def sort_key(self) -> tuple:
        return (tuple((n, l.value) for n, l in self.trust), self.policy.sort_key())


@dataclass(frozen=True)
class Site:
    name: str
    membrane: Membrane
    agent: Agent


@dataclass(frozen=True)
class System:
    """An ordered map from site names to (membrane, agent) pairs.

    Construction tolerates duplicate names so that validate_system can
    report them as diagnostics instead of refusing to build the value.
    """

    sites: tuple[Site, ...] = ()

    @classmethod
    def of(cls, *sites: Site) -> "System":
        return cls(tuple(sites))

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def get(self, name: str) -> Site | None:
        for s in self.sites:
            if s.name == name:
                return s
        return None

    def replace(self, name: str, membrane: Membrane | None = None, agent: Agent | None = None) -> "System":
        """A copy with the first site called `name` updated."""
        out = []
        done = False
        for s in self.sites:
            if not done and s.name == name:
                out.append(Site(name, membrane or s.membrane, agent if agent is not None else s.agent))
                done = True
            else:
                out.append(s)
        if not done:
            raise KeyError(name)
        return System(tuple(out))


def normalize_system(n: System) -> System:
    return System(tuple(Site(s.name, s.membrane, normalize(s.agent)) for s in n.sites))


def system_key(n: System) -> tuple:
    return tuple((s.name, s.membrane.sort_key(), agent_key(normalize(s.agent))) for s in n.sites)


def is_trustworthy(site: Site) -> bool:
    """A site is trustworthy when its own trust map assigns itself good."""
    return site.membrane.trust_of(site.name) == TrustLevel.LGOOD


def validate_system(n: System, regime: PolicyRegime | None = None) -> list[Diagnostic]:
    """Structural validation: unique site names, disjoint action/locality
    namespaces (resolved by syntactic role), and one policy regime
    throughout. Returns one diagnostic per violation; never raises.

    When `regime` is omitted it is inferred from the first membrane policy.
    """
    diags: list[Diagnostic] = []

    seen: set[str] = set()
    for site in n.sites:
        if site.name in seen:
            diags.append(error(f"duplicate site name '{site.name}'", site=site.name))
        seen.add(site.name)

    # Namespace roles: site names, go targets and trust keys are localities;
    # prefix positions are actions. The same identifier in both roles would
    # make Act and Loc overlap.
    localities: set[str] = set(seen)
    actions: set[str] = set()
    carried: list[list[Policy]] = []  # the digests at each site
    for site in n.sites:
        localities.update(name for name, _ in site.membrane.trust)
        carried.append([])
        for node in subagents(site.agent):
            if isinstance(node, Act):
                actions.add(node.action)
            elif isinstance(node, Go):
                localities.add(node.target)
                carried[-1].append(node.digest)
    for name in sorted(actions & localities):
        diags.append(error(f"'{name}' is used both as an action and as a locality"))

    if regime is None:
        regime = n.sites[0].membrane.policy.regime if n.sites else None
    if regime is not None:
        for site, digests in zip(n.sites, carried):
            if site.membrane.policy.regime != regime:
                diags.append(error(
                    f"site '{site.name}' has a {site.membrane.policy.regime.value} membrane policy "
                    f"under the {regime.value} regime", site=site.name))
            for digest in digests:
                if digest.regime != regime:
                    diags.append(error(
                        f"site '{site.name}' carries a {digest.regime.value} digest "
                        f"under the {regime.value} regime", site=site.name))
    return diags


def coherent(n: System) -> bool:
    """Every trustworthy site's opinion of a site l sits below l's self-assessment.

    Precondition: validate_system(n) is empty.
    """
    for k in n.sites:
        if not is_trustworthy(k):
            continue
        for l in n.sites:
            if not trust_below(k.membrane.trust_of(l.name), l.membrane.trust_of(l.name)):
                return False
    return True


# ---------------------------------------------------------------------------
# Well-formedness judgments


@dataclass(frozen=True)
class Judgment:
    """A well-formedness verdict together with its explanation.

    `verdict` is True or False, or None when a bounded search gave up
    before deciding; `notes` explain it, one line each.
    """

    verdict: bool | None
    notes: tuple[str, ...] = ()

    @classmethod
    def of_failures(cls, failures: Iterable[str]) -> "Judgment":
        """Well-formed exactly when there is nothing to report."""
        notes = tuple(failures)
        return cls(not notes, notes)


def combine(verdicts: Iterable[bool | None]) -> bool | None:
    """Conjunction of verdicts: any False decides, then any None."""
    out: bool | None = True
    for v in verdicts:
        if v is False:
            return False
        if v is None:
            out = None
    return out


def judge_trustworthy(n: System, policy_type: type, what: str,
                      judge_site: Callable[[Site, Policy], Judgment]) -> Judgment:
    """Judge every trustworthy site with `judge_site`; the system verdict is
    their conjunction and each note is prefixed with its site's name.

    Untrusted sites pass unconditionally: agents emigrating from them are
    never taken at their word, so there is nothing to certify locally. A
    site whose policy is not of `policy_type` fails.
    """
    verdicts: list[bool | None] = []
    notes: list[str] = []
    for site in n.sites:
        if not is_trustworthy(site):
            continue
        policy = site.membrane.policy
        if isinstance(policy, policy_type):
            judgment = judge_site(site, policy)
        else:
            judgment = Judgment(False, (f"membrane policy is not a {what} policy",))
        verdicts.append(judgment.verdict)
        notes.extend(f"{site.name}: {note}" for note in judgment.notes)
    return Judgment(combine(verdicts), tuple(notes))
