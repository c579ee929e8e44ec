"""Multiset policies: labels carry occurrence counts, with `w` (omega)
marking a permanently available label. Enforcement is multiset inclusion;
conformance consumes budget, so two one-shot threads jointly need a count
of two. Includes the minimal-policy inference used by resident membranes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

from .core import (
    Act, Agent, Go, Judgment, Nil, Par, PolicyRegime, Repl, System,
    is_trustworthy, judge_trustworthy, threads,
)


class _Omega:
    """The count of a permanent resource; absorbs addition and subtraction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "w"


OMEGA = _Omega()
Count = int | _Omega


def count_le(a, b) -> bool:
    if b is OMEGA:
        return True
    if a is OMEGA:
        return False
    return a <= b


def count_add(a, b):
    if a is OMEGA or b is OMEGA:
        return OMEGA
    return a + b


@dataclass(frozen=True)
class MultisetPolicy:
    """A finite map from labels to positive counts or omega; zero counts are never stored."""

    items: tuple[tuple[str, "int | _Omega"], ...]
    regime: ClassVar[PolicyRegime] = PolicyRegime.MULTISET

    @classmethod
    def of(cls, counts: Mapping[str, "int | _Omega"] | Iterable[tuple[str, "int | _Omega"]] = ()) -> "MultisetPolicy":
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        kept = {}
        for label, count in pairs:
            if count is OMEGA:
                kept[label] = OMEGA
            elif isinstance(count, int) and count > 0:
                kept[label] = count
            elif count == 0:
                continue
            else:
                raise ValueError(f"count for '{label}' must be a positive int or omega, got {count!r}")
        return cls(tuple(sorted(kept.items())))

    def count(self, label: str):
        for name, c in self.items:
            if name == label:
                return c
        return 0

    def labels(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.items)

    def omega_closure(self) -> "MultisetPolicy":
        """Every present label raised to omega (the E-to-the-omega operation)."""
        return MultisetPolicy(tuple((name, OMEGA) for name, _ in self.items))

    def __str__(self) -> str:
        def fmt(name, c):
            if c == 1:
                return name
            return f"{name}^{'w' if c is OMEGA else c}"
        return "{" + ", ".join(fmt(n, c) for n, c in self.items) + "}"

    def sort_key(self) -> tuple:
        return ("multiset", tuple((n, -1 if c is OMEGA else c) for n, c in self.items))


EMPTY_MULTISET = MultisetPolicy(())


def enforces_multiset(t1: MultisetPolicy, t2: MultisetPolicy) -> bool:
    """Multiset inclusion: every count in t1 fits within t2's count (omega is top)."""
    return all(count_le(c, t2.count(name)) for name, c in t1.items)


def join(t1: MultisetPolicy, t2: MultisetPolicy) -> MultisetPolicy:
    """Pointwise sum of counts, omega absorbing.

    This is the policy-combination operator: additivity is what makes two
    threads that each send once jointly demand a count of two, and what
    lets dynamic membranes do budget arithmetic.
    """
    out = dict(t1.items)
    for name, c in t2.items:
        out[name] = count_add(out.get(name, 0), c)
    return MultisetPolicy.of(out)


def subtract(t: MultisetPolicy, used: MultisetPolicy) -> MultisetPolicy:
    """The largest remainder r with join(r, used) == t; omega entries stay omega.

    Raises ValueError unless used is within t (callers check enforces first).
    """
    if not enforces_multiset(used, t):
        raise ValueError(f"{used} does not fit within {t}")
    out = {}
    for name, c in t.items:
        if c is OMEGA:
            out[name] = OMEGA
        else:
            out[name] = c - used.count(name)
    return MultisetPolicy.of(out)


def infer_policy(p: Agent) -> MultisetPolicy | None:
    """The unique minimal policy an agent satisfies, or None when no policy exists.

    No policy exists exactly when some migration's professed digest is
    smaller than what its continuation actually uses. A replicated body's
    usage is iterated arbitrarily, so its labels are raised to omega.
    """
    if isinstance(p, Nil):
        return EMPTY_MULTISET
    if isinstance(p, Act):
        t = infer_policy(p.cont)
        return None if t is None else join(t, MultisetPolicy.of({p.action: 1}))
    if isinstance(p, Go):
        if not isinstance(p.digest, MultisetPolicy):
            return None
        inner = infer_policy(p.cont)
        if inner is None or not enforces_multiset(inner, p.digest):
            return None
        return MultisetPolicy.of({p.target: 1})
    if isinstance(p, Par):
        t1 = infer_policy(p.left)
        t2 = infer_policy(p.right)
        return None if t1 is None or t2 is None else join(t1, t2)
    if isinstance(p, Repl):
        t = infer_policy(p.body)
        return None if t is None else t.omega_closure()
    raise TypeError(f"not an agent: {p!r}")


def typecheck_multiset(p: Agent, t: MultisetPolicy) -> bool:
    """Whether agent p conforms to budget t.

    Decided via inference: the inferred policy is the minimal derivable
    one and conformance is upward closed, so p conforms to t exactly when
    inference succeeds and its result fits within t. This sidesteps
    searching budget splits across parallel threads.
    """
    inferred = infer_policy(p)
    return inferred is not None and enforces_multiset(inferred, t)


def _usage_note(who: str, inferred: MultisetPolicy | None, budget: MultisetPolicy) -> list[str]:
    """Why code with the given inferred usage does not fit `budget`, if it does not."""
    if inferred is None:
        return [f"{who} has an invalid digest"]
    if not enforces_multiset(inferred, budget):
        return [f"{who} uses {inferred}, exceeding {budget}"]
    return []


def judge_multiset(n: System) -> Judgment:
    """Each thread at each trustworthy site conforms to the site's entry policy.

    Thread-wise on purpose: an entry policy constrains single agents, and
    k admitted agents may jointly use k times the budget.
    Precondition: n is coherent.
    """
    return judge_trustworthy(n, MultisetPolicy, "multiset", lambda site, policy: Judgment.of_failures(
        note for i, thread in enumerate(threads(site.agent))
        for note in _usage_note(f"thread {i}", infer_policy(thread), policy)))


def judge_static(n: System) -> Judgment:
    """Joint resident usage at each trustworthy site fits the membrane policy.

    This is the invariant maintained by static resident membranes, which
    re-infer the resident code's minimal policy at every admission.
    Precondition: n is coherent.
    """
    return judge_trustworthy(n, MultisetPolicy, "multiset", lambda site, policy: Judgment.of_failures(
        _usage_note("resident code", infer_policy(site.agent), policy)))


# Resident record: the external map from trustworthy sites to their original
# resident policies, against which dynamic membranes are judged.
ResidentRecord = dict[str, MultisetPolicy]


def check_record(n: System, theta: Mapping[str, MultisetPolicy]) -> None:
    """Raise ValueError unless the record covers every trustworthy site."""
    for site in n.sites:
        if is_trustworthy(site) and site.name not in theta:
            raise ValueError(f"resident record does not cover trustworthy site '{site.name}'")


def judge_resident(n: System, theta: Mapping[str, MultisetPolicy]) -> Judgment:
    """Resident well-formedness under a record of original policies.

    Per trustworthy site: the resident code's inferred usage plus what the
    membrane still offers must fit the site's original budget theta[site].
    Raises ValueError unless theta covers every trustworthy site.
    Precondition: n is coherent.
    """
    check_record(n, theta)

    def judge_site(site, policy):
        inferred = infer_policy(site.agent)
        if inferred is None:
            return Judgment(False, ("resident code has an invalid digest",))
        combined = join(inferred, policy)
        if enforces_multiset(combined, theta[site.name]):
            return Judgment(True)
        return Judgment(False, (f"resident usage plus remaining budget is {combined}, "
                                f"exceeding the original {theta[site.name]}",))

    return judge_trustworthy(n, MultisetPolicy, "multiset", judge_site)


def wellformed_multiset(n: System) -> bool:
    return judge_multiset(n).verdict


def wellformed_static(n: System) -> bool:
    return judge_static(n).verdict


def wellformed_resident(n: System, theta: Mapping[str, MultisetPolicy]) -> bool:
    return judge_resident(n, theta).verdict
