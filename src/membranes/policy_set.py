"""Finite-set entry policies: a policy lists the actions an incoming agent
may perform and the sites it may migrate to. Enforcement is subset
inclusion; conformance is the syntax-directed check below.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

from .core import (
    Act, Agent, Go, Judgment, Nil, Par, PolicyRegime, Repl, System,
    judge_trustworthy,
)


@dataclass(frozen=True)
class SetPolicy:
    labels: frozenset[str]
    regime: ClassVar[PolicyRegime] = PolicyRegime.SET

    @classmethod
    def of(cls, labels: Iterable[str]) -> "SetPolicy":
        return cls(frozenset(labels))

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(self.labels)) + "}"

    def sort_key(self) -> tuple:
        return ("set", tuple(sorted(self.labels)))


def enforces_set(t1: SetPolicy, t2: SetPolicy) -> bool:
    """t1 enforces t2 when every label t1 allows is also allowed by t2."""
    return t1.labels <= t2.labels


def typecheck_set(p: Agent, t: SetPolicy) -> bool:
    """Whether agent p conforms to policy t.

    nil conforms to everything; an action prefix needs its action in t;
    a migration needs its target in t and, crucially, its continuation
    to conform to the *digest* it professes, so admitting the agent also
    underwrites every promise it will make elsewhere.
    """
    return _typecheck(p, t, None)


def explain_typecheck_set(p: Agent, t: SetPolicy) -> list[str]:
    """Failure trace for the check, one line per violated rule; empty if it passes."""
    failures: list[str] = []
    _typecheck(p, t, failures)
    return failures


def _typecheck(p: Agent, t: SetPolicy, failures: list[str] | None) -> bool:
    if isinstance(p, Nil):
        return True
    if isinstance(p, Act):
        ok = p.action in t
        if not ok and failures is not None:
            failures.append(f"action '{p.action}' not allowed by {t} (in {p})")
        return _typecheck(p.cont, t, failures) and ok
    if isinstance(p, Go):
        ok = p.target in t
        if not ok and failures is not None:
            failures.append(f"migration target '{p.target}' not allowed by {t}")
        if not isinstance(p.digest, SetPolicy):
            if failures is not None:
                failures.append(f"digest {p.digest} is not a set policy")
            return False
        inner = _typecheck(p.cont, p.digest, failures)
        if not inner and failures is not None:
            failures.append(f"spawned code does not conform to its digest {p.digest}")
        return ok and inner
    if isinstance(p, Par):
        left = _typecheck(p.left, t, failures)
        return _typecheck(p.right, t, failures) and left
    if isinstance(p, Repl):
        return _typecheck(p.body, t, failures)
    raise TypeError(f"not an agent: {p!r}")


def judge_set(n: System) -> Judgment:
    """Every trustworthy site's resident code conforms to its own policy;
    the notes list each violated rule.

    Precondition: n is coherent.
    """
    return judge_trustworthy(n, SetPolicy, "set", lambda site, policy: Judgment.of_failures(
        explain_typecheck_set(site.agent, policy)))


def wellformed_set(n: System) -> bool:
    return judge_set(n).verdict


def explain_wellformed_set(n: System) -> list[str]:
    return list(judge_set(n).notes)
