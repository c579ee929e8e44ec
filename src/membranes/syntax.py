"""Concrete text syntax for systems, agents, policies, and automata.

System files (`.mem`):

    home[ trust { bob: good }; policy {info, req, secure}; info.nil ]
    ||
    bob[ trust { bob: good }; policy {}; go(home, {info}).info.nil ]

`|` binds looser than prefixing, `!` binds tighter than `|`, and `#`
starts a line comment. Policy literals follow the active regime: a set
`{a, b}`, a multiset `{a^3, b^w, c}` (`w` spells omega), or a reference
`@name` into a DFA bundle file.

DFA bundle files (`.dfa`) are line oriented; each automaton is completed
with a non-final sink where transitions are missing, then minimized:

    dfa: mail
    states: s0 s1 s2
    alphabet: usr pwd quit
    start: s0
    final: s2
    trans: s0 usr -> s1
    trans: s1 pwd -> s2
    trans: s2 quit -> s2

Resident-record files (`.theta`) hold one `site: {multiset literal}` per
line.
"""
from __future__ import annotations

import dataclasses
import re
from typing import Mapping

from . import core
from .core import (
    Act, Agent, Go, Membrane, NIL, Par, PolicyRegime, Repl, Site, System,
    TrustLevel,
)
from .diagnostics import Diagnostic, SourceSpan, error
from .policy_dfa import Dfa, DfaPolicy, minimize
from .policy_multiset import MultisetPolicy, OMEGA
from .policy_set import SetPolicy

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\|\||[][{}();:,.|!^@]")

_LEVELS = {"good": TrustLevel.LGOOD, "bad": TrustLevel.LBAD, "unknown": TrustLevel.LOC}


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclasses.dataclass
class _Token:
    text: str
    span: SourceSpan


def _lex(text: str, filename: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(error(f"unexpected character {ch!r}",
                                   SourceSpan(filename, line, col, 1)))
        tokens.append(_Token(m.group(0), SourceSpan(filename, line, col, len(m.group(0)))))
        col += len(m.group(0))
        i = m.end()
    tokens.append(_Token("", SourceSpan(filename, line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, text: str, regime: PolicyRegime,
                 dfas: Mapping[str, Dfa] | None, filename: str):
        self.tokens = _lex(text, filename)
        self.pos = 0
        self.regime = regime
        self.dfas = dfas or {}
        self.filename = filename
        self.site_spans: dict[str, SourceSpan] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(error(message, tok.span))

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            found = "end of input" if tok.text == "" else f"'{tok.text}'"
            self.fail(f"expected '{text}', found {found}")
        return self.next()

    def ident(self, what: str) -> _Token:
        tok = self.peek()
        if not tok.text or not (tok.text[0].isalpha() or tok.text[0] == "_"):
            self.fail(f"expected {what}, found unexpected "
                      + ("end of input" if tok.text == "" else f"'{tok.text}'"))
        return self.next()

    def at_end(self) -> bool:
        return self.peek().text == ""

    # system := site ("||" site)* | nothing
    def system(self) -> System:
        if self.at_end():
            return System()
        sites = [self.site()]
        while self.peek().text == "||":
            self.next()
            sites.append(self.site())
        if not self.at_end():
            self.fail(f"expected '||' or end of input, found '{self.peek().text}'")
        return System(tuple(sites))

    def site(self) -> Site:
        name = self.ident("a site name")
        self.site_spans.setdefault(name.text, name.span)
        self.expect("[")
        membrane = self.membrane()
        self.expect(";")
        agent = self.agent()
        self.expect("]")
        return Site(name.text, membrane, agent)

    def membrane(self) -> Membrane:
        self.expect("trust")
        self.expect("{")
        trust: dict[str, TrustLevel] = {}
        if self.peek().text != "}":
            while True:
                name = self.ident("a site name")
                self.expect(":")
                level = self.ident("a trust level (good, bad or unknown)")
                if level.text not in _LEVELS:
                    self.fail(f"unknown trust level '{level.text}'", level)
                if name.text in trust:
                    self.fail(f"duplicate trust entry for '{name.text}'", name)
                trust[name.text] = _LEVELS[level.text]
                if self.peek().text != ",":
                    break
                self.next()
        self.expect("}")
        if self.peek().text == ";":  # tolerated between the trust and policy parts
            self.next()
        self.expect("policy")
        policy = self.policy()
        return Membrane.of(trust, policy)

    # agent := seq ("|" seq)*
    def agent(self) -> Agent:
        parts = [self.seq_agent()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.seq_agent())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Par(p, out)
        return out

    def seq_agent(self) -> Agent:
        tok = self.peek()
        if tok.text == "nil":
            self.next()
            return NIL
        if tok.text == "!":
            self.next()
            return Repl(self.seq_agent())
        if tok.text == "(":
            self.next()
            inner = self.agent()
            self.expect(")")
            return inner
        if tok.text == "go":
            self.next()
            self.expect("(")
            target = self.ident("a target site name")
            self.expect(",")
            digest = self.policy()
            self.expect(")")
            self.expect(".")
            return Go(target.text, digest, self.seq_agent())
        action = self.ident("an agent")
        self.expect(".")
        return Act(action.text, self.seq_agent())

    def policy(self):
        tok = self.peek()
        if self.regime == PolicyRegime.DFA:
            if tok.text != "@":
                self.fail("expected a DFA policy reference '@name' under the dfa regime")
            self.next()
            name = self.ident("a DFA name")
            if name.text not in self.dfas:
                self.fail(f"no DFA named '{name.text}' in the bundle", name)
            return DfaPolicy(name.text, self.dfas[name.text])
        if tok.text == "@":
            self.fail(f"DFA policy reference under the {self.regime.value} regime")
        self.expect("{")
        is_set = self.regime == PolicyRegime.SET
        counts: dict[str, object] = {}
        if self.peek().text != "}":
            while True:
                label = self.ident("a label")
                count: object = 1
                if self.peek().text == "^":
                    if is_set:
                        self.fail("occurrence counts are not allowed under the set regime")
                    self.next()
                    ctok = self.next()
                    if ctok.text == "w":
                        count = OMEGA
                    elif ctok.text.isdigit() and int(ctok.text) > 0:
                        count = int(ctok.text)
                    else:
                        self.fail("expected a positive count or 'w' after '^'", ctok)
                if label.text in counts and not is_set:
                    self.fail(f"duplicate label '{label.text}' in multiset literal", label)
                counts[label.text] = count
                if self.peek().text != ",":
                    break
                self.next()
        self.expect("}")
        return SetPolicy.of(counts) if is_set else MultisetPolicy.of(counts)


def _as_regime(regime: PolicyRegime | str) -> PolicyRegime:
    return regime if isinstance(regime, PolicyRegime) else PolicyRegime(regime)


def parse_system(text: str, regime: PolicyRegime | str,
                 dfas: Mapping[str, Dfa] | None = None,
                 filename: str = "<input>") -> System | list[Diagnostic]:
    """Parse and validate a system; returns it, or the list of problems found."""
    regime = _as_regime(regime)
    try:
        parser = _Parser(text, regime, dfas, filename)
        system = parser.system()
    except ParseError as exc:
        return [exc.diagnostic]
    except RecursionError:
        return [error("input too deeply nested", SourceSpan(filename, 1, 1))]
    problems = core.validate_system(system, regime)
    if problems:
        whole = SourceSpan(filename, 1, 1, len(text))
        return [dataclasses.replace(d, span=parser.site_spans.get(d.site or "", whole) or whole)
                for d in problems]
    return system


def parse_agent(text: str, regime: PolicyRegime | str,
                dfas: Mapping[str, Dfa] | None = None,
                filename: str = "<input>") -> Agent | list[Diagnostic]:
    """Parse a bare agent term under the given regime."""
    try:
        parser = _Parser(text, _as_regime(regime), dfas, filename)
        agent = parser.agent()
        if not parser.at_end():
            parser.fail(f"expected end of input, found '{parser.peek().text}'")
        return agent
    except ParseError as exc:
        return [exc.diagnostic]
    except RecursionError:
        return [error("input too deeply nested", SourceSpan(filename, 1, 1))]


# ---------------------------------------------------------------------------
# DFA bundle files

_ARROW = re.compile(r"^(\S+)\s+(\S+)\s*->\s*(\S+)$")


def parse_dfa_bundle(text: str, filename: str = "<input>") -> dict[str, Dfa] | list[Diagnostic]:
    """Parse a bundle of named automata (`dfa: name` headers)."""
    sections, diags = _split_sections(text, filename)
    if diags:
        return diags
    out: dict[str, Dfa] = {}
    for name, lines in sections:
        if name is None:
            return [error("bundle entries must start with 'dfa: name'", lines[0][1])]
        if name in out:
            return [error(f"duplicate DFA name '{name}'", lines[0][1])]
        result = _parse_one_dfa(lines[1:], lines[0][1])
        if isinstance(result, list):
            return result
        out[name] = result
    return out


def parse_dfa(text: str, filename: str = "<input>") -> Dfa | list[Diagnostic]:
    """Parse a single automaton; an optional `dfa: name` header line is allowed."""
    sections, diags = _split_sections(text, filename)
    if diags:
        return diags
    if not sections:
        return [error("empty DFA description", SourceSpan(filename, 1, 1))]
    if len(sections) > 1:
        return [error("expected a single DFA, found several; use parse_dfa_bundle",
                      sections[1][1][0][1])]
    name, lines = sections[0]
    return _parse_one_dfa(lines if name is None else lines[1:],
                          SourceSpan(filename, 1, 1))


def _split_sections(text: str, filename: str):
    """Group nonempty lines into sections separated by `dfa: name` headers."""
    sections: list[tuple[str | None, list[tuple[str, SourceSpan]]]] = []
    current: list[tuple[str, SourceSpan]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(filename, lineno, 1, len(raw))
        if line.startswith("dfa:"):
            name = line[len("dfa:"):].strip()
            if not name:
                return [], [error("missing DFA name after 'dfa:'", span)]
            current = [(line, span)]
            sections.append((name, current))
        else:
            if current is None:
                current = [(line, span)]
                sections.append((None, current))
            else:
                current.append((line, span))
    return sections, []


def _parse_one_dfa(lines: list[tuple[str, SourceSpan]], header_span: SourceSpan) -> Dfa | list[Diagnostic]:
    states: list[str] | None = None
    alphabet: list[str] | None = None
    start: str | None = None
    finals: list[str] | None = None
    transitions: dict[tuple[str, str], str] = {}
    diags: list[Diagnostic] = []

    for line, span in lines:
        if ":" not in line:
            return [error(f"cannot parse DFA line '{line}'", span)]
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "states":
            states = rest.split()
        elif key == "alphabet":
            alphabet = rest.split()
        elif key == "start":
            start = rest
        elif key == "final":
            finals = rest.split()
        elif key == "trans":
            m = _ARROW.match(rest)
            if m is None:
                return [error(f"cannot parse transition '{rest}' (want: state symbol -> state)", span)]
            src, sym, dst = m.groups()
            if (src, sym) in transitions and transitions[(src, sym)] != dst:
                diags.append(error(
                    f"nondeterministic: two transitions from {src} on '{sym}'", span))
            transitions[(src, sym)] = dst
        else:
            return [error(f"unknown DFA line kind '{key}'", span)]

    for missing, value in (("states", states), ("alphabet", alphabet),
                           ("start", start), ("final", finals)):
        if value is None:
            diags.append(error(f"missing '{missing}:' line", header_span))
    if diags:
        return diags

    state_set = set(states)
    symbol_set = set(alphabet)
    if len(state_set) != len(states):
        diags.append(error("duplicate state names", header_span))
    if len(symbol_set) != len(alphabet):
        diags.append(error("duplicate alphabet symbols", header_span))
    if start not in state_set:
        diags.append(error(f"start state '{start}' is not a declared state", header_span))
    if not finals:
        diags.append(error("final states must be nonempty", header_span))
    for f in finals:
        if f not in state_set:
            diags.append(error(f"final state '{f}' is not a declared state", header_span))
    for (src, sym), dst in sorted(transitions.items()):
        if src not in state_set:
            diags.append(error(f"transition from unknown state '{src}'", header_span))
        if dst not in state_set:
            diags.append(error(f"transition to unknown state '{dst}'", header_span))
        if sym not in symbol_set:
            diags.append(error(f"transition on unknown symbol '{sym}'", header_span))
    if diags:
        return diags

    # Complete the transition function with a non-final sink, if needed.
    missing_pairs = [(s, a) for s in states for a in alphabet if (s, a) not in transitions]
    if missing_pairs:
        sink = "sink"
        while sink in state_set:
            sink += "_"
        state_set.add(sink)
        for pair in missing_pairs:
            transitions[pair] = sink
        for a in alphabet:
            transitions[(sink, a)] = sink
    return minimize(Dfa.of(state_set, symbol_set, start, finals, transitions))


# ---------------------------------------------------------------------------
# Resident-record files


def parse_theta(text: str, filename: str = "<input>") -> dict[str, MultisetPolicy] | list[Diagnostic]:
    """Parse a resident record: one `site: {multiset literal}` per entry."""
    try:
        parser = _Parser(text, PolicyRegime.MULTISET, None, filename)
        out: dict[str, MultisetPolicy] = {}
        while not parser.at_end():
            name = parser.ident("a site name")
            parser.expect(":")
            policy = parser.policy()
            if name.text in out:
                parser.fail(f"duplicate entry for site '{name.text}'", name)
            out[name.text] = policy
        return out
    except ParseError as exc:
        return [exc.diagnostic]
    except RecursionError:
        return [error("input too deeply nested", SourceSpan(filename, 1, 1))]


# ---------------------------------------------------------------------------
# Rendering


def render(n: System) -> str:
    """Concrete syntax for a system; re-parses to a structurally equal one."""
    return "\n||\n".join(_render_site(s) for s in n.sites)


def _render_site(s: Site) -> str:
    trust = ", ".join(f"{name}: {level.value}" for name, level in s.membrane.trust)
    trust_part = f"trust {{ {trust} }}" if trust else "trust {}"
    return f"{s.name}[ {trust_part}; policy {s.membrane.policy}; {s.agent} ]"


def render_dfa(a: Dfa, name: str | None = None) -> str:
    """The bundle-file text for one automaton."""
    lines = []
    if name is not None:
        lines.append(f"dfa: {name}")
    lines.append("states: " + " ".join(sorted(a.states)))
    lines.append("alphabet: " + " ".join(sorted(a.alphabet)))
    lines.append(f"start: {a.start}")
    lines.append("final: " + " ".join(sorted(a.finals)))
    for src, sym, dst in a.transitions:
        lines.append(f"trans: {src} {sym} -> {dst}")
    return "\n".join(lines) + "\n"


def render_theta(theta: Mapping[str, MultisetPolicy]) -> str:
    return "\n".join(f"{site}: {policy}" for site, policy in sorted(theta.items())) + "\n"
