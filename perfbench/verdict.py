"""The verdict gate: compare one CLI call's exit code and output with the
answer its generator knows.

`judge` returns an `Outcome`: whether the call matched its answer,
whether it ended in a definite verdict (not inconclusive), and how many
reduction steps a `run` printed. Parsing is done here, from the text the
user sees, so a wrong verdict, a wrong event or a missing line counts as
a failure.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

_EVENT = re.compile(r"^\[(\d+)\] (\S+) -> (\S+): go (.*) (admitted|DENIED)(?: \((.*)\))?$")
_ACT = re.compile(r"^\[(\d+)\] (\S+): act (\S+)$")
FINAL = "--- final system ---"


@dataclass
class Outcome:
    ok: bool
    decided: bool = True
    steps: int = 0
    why: str = ""


@dataclass
class Trace:
    """A `run` output split into its parts."""

    acts: list[tuple[str, str]]               # (site, action)
    goes: list[tuple[str, str, str, bool, str]]  # (source, target, digest, admitted, reason)
    steps: int                                # events that were reduction steps
    well_numbered: bool


def canonical_digest(text: str) -> tuple:
    """`{read^2, write}` as (("read", "2"), ("write", "1")); `@name` unchanged."""
    text = text.strip()
    if not text.startswith("{"):
        return (text,)
    out = []
    for item in filter(None, (part.strip() for part in text[1:-1].split(","))):
        label, _, count = item.partition("^")
        out.append((label, count or "1"))
    return tuple(sorted(out))


def parse_run(out: str) -> Trace | None:
    lines = out.splitlines()
    if FINAL not in lines:
        return None
    acts, goes, numbers = [], [], []
    steps = 0
    for line in lines[: lines.index(FINAL)]:
        if m := _ACT.match(line):
            acts.append((m[2], m[3]))
            steps += 1
        elif m := _EVENT.match(line):
            admitted = m[5] == "admitted"
            goes.append((m[2], m[3], m[4], admitted, m[6] or ""))
            steps += admitted
        else:
            return None
        numbers.append(int(line[1: line.index("]")]))
    return Trace(acts, goes, steps, numbers == list(range(len(numbers))))


def judge(answer: dict, code: int, out: str) -> Outcome:
    """Judge one call by the rule its answer names (`answer["judge"]`)."""
    return _JUDGES[answer["judge"]](answer, code, out)


def _run_server(answer: dict, code: int, out: str) -> Outcome:
    trace = parse_run(out)
    if code != answer["exit"] or trace is None or not trace.well_numbered:
        return Outcome(False, why=f"exit {code} or malformed run output")
    migrations = Counter((src, canonical_digest(digest), admitted)
                         for src, _, digest, admitted, _ in trace.goes)
    expected = Counter({(src, canonical_digest(d), ok): n
                        for src, d, ok, n in answer["migrations"]})
    if migrations != expected:
        return Outcome(False, steps=trace.steps, why="migration events differ")
    if len(trace.acts) != answer["local"] or trace.steps != answer["steps"]:
        return Outcome(False, steps=trace.steps, why="wrong number of actions or steps")
    return Outcome(True, steps=trace.steps)


def _run_bounded(answer: dict, code: int, out: str) -> Outcome:
    """A `run` to a step cap on a verify-depth system: the events must be
    well formed, name only the system's sites, and stop at the cap."""
    trace = parse_run(out)
    if code != answer["exit"] or trace is None or not trace.well_numbered:
        return Outcome(False, why=f"exit {code} or malformed run output")
    sites = set(answer["sites"])
    named = {s for s, _ in trace.acts} | {x for g in trace.goes for x in g[:2]}
    if trace.steps > answer["max_steps"] or not named <= sites:
        return Outcome(False, steps=trace.steps, why="too many steps or unknown site")
    return Outcome(True, steps=trace.steps)


def _run_sessions(answer: dict, code: int, out: str) -> Outcome:
    trace = parse_run(out)
    if code != answer["exit"] or trace is None or not trace.well_numbered or len(trace.goes) != 1:
        return Outcome(False, why=f"exit {code} or malformed run output")
    source, target, digest, admitted, reason = trace.goes[0]
    if (source, target, digest, admitted) != ("cli", "srv", "@dig", answer["admitted"]):
        return Outcome(False, why=f"admission {admitted}, expected {answer['admitted']}")
    if not out.startswith("[0] cli -> srv: go"):
        return Outcome(False, why="the migration is not the first event")
    acts = Counter(action for site, action in trace.acts if site == "srv")
    if acts != Counter(answer["actions"]) or len(trace.acts) != sum(acts.values()):
        return Outcome(False, steps=trace.steps, why="session actions differ")
    inconclusive = reason.startswith("inconclusive")
    if inconclusive and not answer["replicated"]:
        return Outcome(False, why="inconclusive admission on a replication-free agent")
    return Outcome(True, decided=not inconclusive, steps=trace.steps)


def _report(rows: list[str]) -> bool:
    """Finding rows followed by a summary that counts them."""
    summary = "  SUMMARY ok" if len(rows) == 1 else f"  SUMMARY violations={len(rows) - 1}"
    return bool(rows) and rows[-1] == summary


def _verify(answer: dict, code: int, out: str) -> Outcome:
    lines = out.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith(("subject reduction (depth ",
                                                                   "safety (depth "))]
    if code != answer["exit"] or len(heads) != 2 or heads[0] != 0:
        return Outcome(False, decided=code != 3, why=f"exit {code}, expected {answer['exit']}")
    preservation, safety = lines[1:heads[1]], lines[heads[1] + 1:]
    if not (_report(preservation) and _report(safety)):
        return Outcome(False, why="malformed verifier report")
    if code == 0:
        ok = len(preservation) == len(safety) == 1
        return Outcome(ok, why="" if ok else "findings on a well-formed system")
    first = preservation[0].split("\t")
    ok = (len(first) == 4 and first[0] == "  <system>" and first[2] == ""
          and first[3].startswith("well-formedness lost after 0 step(s):")
          and f"{answer['site']}:" in first[3])
    return Outcome(ok, why="" if ok else "first finding is not at the planted site")


def _check(answer: dict, code: int, out: str) -> Outcome:
    lines = out.splitlines()
    said = {0: "well-formed: yes", 1: "well-formed: no", 3: "well-formed: unknown"}.get(code)
    ok = code in answer["exit"] and lines[:2] == ["coherent: yes", said]
    return Outcome(ok, decided=code != 3, why="" if ok else f"exit {code}, expected {answer['exit']}")


_JUDGES = {"verify": _verify, "check": _check, "run-server": _run_server,
           "run-bounded": _run_bounded, "run-sessions": _run_sessions}
