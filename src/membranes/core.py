"""Agents, membranes, and systems: the calculus shared by every policy regime.

An agent is a finite tree built from nil, action prefixing, migration
(`go` with a policy digest), parallel composition, and replication. A
system is an ordered map from unique site names to (membrane, agent)
pairs, where a membrane couples a trust map over sites with the policy
the site enforces on incoming agents.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
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

_set = object.__setattr__


@dataclass(frozen=True, slots=True, eq=False)
class Agent:
    """Base class for agent syntax nodes. All nodes are immutable and hashable.

    Besides its fields, every node has three caches, filled lazily and
    never changed once set: its structural key (`agent_key`), its hash,
    and its normal form (`normalize`; a node in normal form points at
    itself). Each is a function of the node's structure alone, so nodes
    stay values and are safe to share. The walks that fill the caches,
    equality and rendering all use explicit stacks, so a deep agent costs
    no Python recursion.
    """

    _key: tuple | None = field(default=None, init=False, repr=False)
    _hash: int | None = field(default=None, init=False, repr=False)
    _norm: Agent | None = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _same(self, other)

    def __hash__(self) -> int:
        if self._hash is None:
            _fill_keys(self)
        return self._hash

    def __str__(self) -> str:
        return _render(self)


class Nil(Agent):
    """The inert agent; there is one instance, NIL."""

    __slots__ = ()

    def __new__(cls):
        return NIL

    def __init__(self):
        pass


NIL = object.__new__(Nil)
_set(NIL, "_key", ("nil",))
_set(NIL, "_hash", hash(("nil",)))
_set(NIL, "_norm", NIL)


@dataclass(frozen=True, slots=True, eq=False)
class Act(Agent):
    action: str
    cont: Agent


@dataclass(frozen=True, slots=True, eq=False)
class Go(Agent):
    target: str
    digest: Policy
    cont: Agent


@dataclass(frozen=True, slots=True, eq=False)
class Par(Agent):
    left: Agent
    right: Agent


@dataclass(frozen=True, slots=True, eq=False)
class Repl(Agent):
    body: Agent


def _render(a: Agent) -> str:
    """Concrete syntax. Par binds looser than prefixing and replication, so
    it is parenthesised under them; parallel threads print flat."""
    out: list[str] = []
    stack: list[Agent | str] = [a]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        if isinstance(node, Par):
            leaves = _leaves(node)
            for i in range(len(leaves) - 1, 0, -1):
                stack.append(leaves[i])
                stack.append(" | ")
            stack.append(leaves[0])
            continue
        if isinstance(node, Act):
            out.append(f"{node.action}.")
            inner = node.cont
        elif isinstance(node, Go):
            out.append(f"go({node.target}, {node.digest}).")
            inner = node.cont
        elif isinstance(node, Repl):
            out.append("!")
            inner = node.body
        else:
            out.append("nil")
            continue
        if isinstance(inner, Par):
            stack.extend((")", inner, "("))
        else:
            stack.append(inner)
    return "".join(out)


def _leaves(a: Agent) -> list[Agent]:
    """The non-Par nodes of a's Par tree, left to right."""
    out = []
    stack = [a]
    while stack:
        node = stack.pop()
        if isinstance(node, Par):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def par(*agents: Agent) -> Agent:
    """Right-nested parallel composition of the given agents (nil if none)."""
    if not agents:
        return NIL
    out = agents[-1]
    for a in reversed(agents[:-1]):
        out = Par(a, out)
    return out


def _fill_keys(a: Agent) -> None:
    """Cache the structural key and the hash of a and of every node below
    it that lacks them, children first. The hash combines the children's
    cached hashes, so no deep tuple is ever hashed."""
    stack = [a]
    while stack:
        node = stack[-1]
        if node._key is not None:
            stack.pop()
            continue
        if isinstance(node, Par):
            left, right = node.left, node.right
            if left._key is None or right._key is None:
                stack.append(left)
                stack.append(right)
                continue
            key = ("par", left._key, right._key)
            h = hash(("par", left._hash, right._hash))
        elif isinstance(node, (Act, Go, Repl)):
            child = node.body if isinstance(node, Repl) else node.cont
            if child._key is None:
                stack.append(child)
                continue
            if isinstance(node, Act):
                key = ("act", node.action, child._key)
                h = hash(("act", node.action, child._hash))
            elif isinstance(node, Go):
                key = ("go", node.target, node.digest.sort_key(), child._key)
                h = hash(("go", node.target, node.digest, child._hash))
            else:
                key = ("repl", child._key)
                h = hash(("repl", child._hash))
        else:
            raise TypeError(f"not an agent: {node!r}")
        stack.pop()
        _set(node, "_key", key)
        _set(node, "_hash", h)


def _same(a: Agent, b: Agent) -> bool:
    """Structural equality, pairwise down both trees; unequal hashes
    settle most pairs at once."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y) or hash(x) != hash(y):
            return False
        if isinstance(x, Par):
            stack.append((x.right, y.right))
            stack.append((x.left, y.left))
        elif isinstance(x, Act):
            if x.action != y.action:
                return False
            stack.append((x.cont, y.cont))
        elif isinstance(x, Go):
            if x.target != y.target or x.digest != y.digest:
                return False
            stack.append((x.cont, y.cont))
        elif isinstance(x, Repl):
            stack.append((x.body, y.body))
    return True


def agent_key(a: Agent) -> tuple:
    """Stable structural sort key; injective on agents (given injective policy keys).

    Computed once per node and cached on it; a node's key shares its
    children's keys.
    """
    if not isinstance(a, Agent):
        raise TypeError(f"not an agent: {a!r}")
    if a._key is None:
        _fill_keys(a)
    return a._key


def normalize(a: Agent) -> Agent:
    """Canonical form under the parallel monoid laws and nil absorption.

    Parallel compositions are flattened, nil threads dropped, and threads
    ordered by their structural key, recursively under prefixes and
    replication. Replication is never unfolded here: the unfolding law
    would not terminate, so the runtime applies it lazily, one copy at a
    time, where a reduction rule needs it.

    The result is cached on every node the walk visits, and a node
    already in normal form is its own result, so normalizing a normal
    form, or an agent built around normal parts, costs only the new
    nodes.
    """
    if not isinstance(a, Agent):
        raise TypeError(f"not an agent: {a!r}")
    if a._norm is not None:
        return a._norm
    stack = [a]
    while stack:
        node = stack[-1]
        if node._norm is not None:
            stack.pop()
            continue
        if isinstance(node, Par):
            leaves = _leaves(node)
            pending = [t for t in leaves if t._norm is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            _set(node, "_norm", _normal_par(node, leaves))
            continue
        if isinstance(node, (Act, Go)):
            child = node.cont
        elif isinstance(node, Repl):
            child = node.body
        else:
            raise TypeError(f"not an agent: {node!r}")
        if child._norm is None:
            stack.append(child)
            continue
        stack.pop()
        norm = child._norm
        if norm is child:
            out = node
        elif isinstance(node, Act):
            out = Act(node.action, norm)
        elif isinstance(node, Go):
            out = Go(node.target, node.digest, norm)
        else:
            out = Repl(norm)
        _set(out, "_norm", out)
        if out is not node:
            _set(node, "_norm", out)
    return a._norm


def _normal_par(node: Par, leaves: list[Agent]) -> Agent:
    """The normal form of a Par tree whose leaves are all normalized. It
    keeps the longest tail of the node's own right spine that is already
    in place, so a node already in normal form is its own result."""
    parts = [t._norm for t in leaves if t._norm is not NIL]
    parts.sort(key=agent_key)
    threads, nodes = _spine(node)
    if isinstance(nodes[-1], Par):  # the spine ends in nil: no tail is in place
        threads = nodes = []
    return _respine(parts, threads, nodes)


def _spine(a: Agent) -> tuple[list[Agent], list[Agent]]:
    """The threads of a normal agent, and for each j the node that holds
    threads j and after: a Par of the spine, or the last thread itself."""
    threads, nodes = [], []
    while isinstance(a, Par):
        nodes.append(a)
        threads.append(a.left)
        a = a.right
    if a is not NIL:
        nodes.append(a)
        threads.append(a)
    return threads, nodes


def splice(a: Agent, remove: int | None, extra: list[Agent],
           spine: tuple[list[Agent], list[Agent]] | None = None) -> Agent:
    """The normal form of the normal agent `a` with its thread number
    `remove` taken out (none when None) and the normal threads `extra`
    put in. The result shares the Par nodes of a's unchanged tail;
    `spine` may pass `_spine(a)` when the caller already has it.
    """
    threads, nodes = spine or _spine(a)
    parts = list(threads) if remove is None else threads[:remove] + threads[remove + 1:]
    parts.extend(extra)
    parts.sort(key=agent_key)
    return _respine(parts, threads, nodes)


def _respine(parts: list[Agent], threads: list[Agent], nodes: list[Agent]) -> Agent:
    """The normal form whose threads are `parts` (normal, sorted), built
    on the longest tail it has in common with the spine `threads`/`nodes`
    (as from `_spine`). Every Par of the result is marked normal."""
    m, k = len(parts), len(threads)
    while m and k and parts[m - 1] is threads[k - 1]:
        m -= 1
        k -= 1
    if k < len(threads):
        out = nodes[k]
        tail = out
        while isinstance(tail, Par) and tail._norm is not tail:
            _set(tail, "_norm", tail)
            tail = tail.right
    elif m:
        m -= 1
        out = parts[m]
    else:
        return NIL
    for thread in reversed(parts[:m]):
        out = Par(thread, out)
        _set(out, "_norm", out)
    return out


def threads(a: Agent) -> list[Agent]:
    """Split an agent into its parallel threads (none of which is a Par).

    nil has zero threads, so an empty site vacuously passes any
    thread-wise well-formedness check.
    """
    return _spine(normalize(a))[0]


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


@dataclass(frozen=True, slots=True)
class Membrane:
    """A site's guard layer: trust knowledge about other sites plus one policy.

    The trust map is partial; looking up an unmapped site yields LOC (the
    stored knowledge stays faithful; the security downgrade of unknown
    sites to untrusted happens in the admission predicate, not here).
    The sort key and the hash are cached on first use.
    """

    trust: tuple[tuple[str, TrustLevel], ...]
    policy: Policy
    _key: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

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
        if self._key is None:
            _set(self, "_key", (tuple((n, l.value) for n, l in self.trust), self.policy.sort_key()))
        return self._key

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash((self.trust, self.policy)))
        return self._hash


@dataclass(frozen=True, slots=True)
class Site:
    name: str
    membrane: Membrane
    agent: Agent
    _key: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def key(self) -> tuple:
        """This site's entry in `system_key`, cached."""
        if self._key is None:
            key = (self.name, self.membrane.sort_key(), agent_key(normalize(self.agent)))
            _set(self, "_key", key)
        return self._key


@dataclass(frozen=True, slots=True)
class System:
    """An ordered map from site names to (membrane, agent) pairs.

    Construction tolerates duplicate names so that validate_system can
    report them as diagnostics instead of refusing to build the value;
    lookups by name find the first site of that name.
    """

    sites: tuple[Site, ...] = ()
    _key: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _index: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, *sites: Site) -> "System":
        return cls(tuple(sites))

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def index(self, name: str) -> int | None:
        """Position of the first site called `name`, or None."""
        if self._index is None:
            index: dict[str, int] = {}
            for i, s in enumerate(self.sites):
                index.setdefault(s.name, i)
            _set(self, "_index", index)
        return self._index.get(name)

    def get(self, name: str) -> Site | None:
        i = self.index(name)
        return None if i is None else self.sites[i]

    def replace(self, name: str, membrane: Membrane | None = None, agent: Agent | None = None) -> "System":
        """A copy with the first site called `name` updated."""
        i = self.index(name)
        if i is None:
            raise KeyError(name)
        s = self.sites[i]
        agent = agent if agent is not None else s.agent
        return self.with_sites({i: Site(name, membrane or s.membrane, agent)})

    def with_sites(self, changes: Mapping[int, Site]) -> "System":
        """A copy with the sites at the given positions replaced; every
        other Site object, with its cached key entry, is shared. The copy
        shares the name index too when no name changes."""
        sites = list(self.sites)
        for i, s in changes.items():
            sites[i] = s
        out = System(tuple(sites))
        if all(s.name == self.sites[i].name for i, s in changes.items()):
            _set(out, "_index", self._index)
        return out


def normalize_system(n: System) -> System:
    """Every site's agent normalized; the system itself when all already are."""
    changes = {i: Site(s.name, s.membrane, normalize(s.agent))
               for i, s in enumerate(n.sites) if normalize(s.agent) is not s.agent}
    return n.with_sites(changes) if changes else n


def system_key(n: System) -> tuple:
    """Structural key of the system up to normalization: one entry per
    site, each cached on its Site; the tuple is cached on the System."""
    if n._key is None:
        _set(n, "_key", tuple([s.key() for s in n.sites]))
    return n._key


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
