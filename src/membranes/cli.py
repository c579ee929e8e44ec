"""Command-line front end.

    membranes check  SYSTEM.mem --regime set
    membranes run    SYSTEM.mem --regime multiset --steps 20 --seed 7
    membranes verify SYSTEM.mem --regime multiset --membrane dynamic \
                     --theta RECORD.theta --depth 5
    membranes infer  '!send.nil'

Exit codes: 0 success/well-formed, 1 ill-formed or violations found,
2 input error, 3 inconclusive (DFA search bound exceeded).
"""
from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .core import PolicyRegime, coherent
from .policy_dfa import DEFAULT_BOUND
from .policy_multiset import infer_policy
from .runtime import (
    MembraneKind, Mode, judge, run as run_system, verify_safety,
    verify_subject_reduction,
)
from .syntax import parse_agent, parse_dfa_bundle, parse_system, parse_theta, render

OK, ILL_FORMED, INPUT_ERROR, INCONCLUSIVE = 0, 1, 2, 3
# How `check` prints a well-formedness verdict, and its exit code.
_VERDICTS = {True: ("yes", OK), False: ("no", ILL_FORMED), None: ("unknown", INCONCLUSIVE)}


class InputError(Exception):
    pass


def _fail(messages) -> "InputError":
    return InputError("\n".join(str(m) for m in messages))


def _load(path: str | None, parse):
    """Parse the file at `path` (None when no path was given); a parser's
    diagnostics become an InputError."""
    if path is None:
        return None
    parsed = parse(Path(path).read_text(encoding="utf-8"), filename=path)
    if isinstance(parsed, list):
        raise _fail(parsed)
    return parsed


def _load_system(args) -> tuple:
    regime = PolicyRegime(args.regime)
    if regime == PolicyRegime.DFA and args.dfa is None:
        raise InputError("the dfa regime needs --dfa BUNDLE")
    bundle = _load(args.dfa, parse_dfa_bundle)
    system = _load(args.system, partial(parse_system, regime=regime, dfas=bundle))
    mode = Mode.of(args.regime, args.membrane, args.bound)
    theta = _load(args.theta, parse_theta)
    if mode.kind == MembraneKind.RESIDENT_DYNAMIC and theta is None:
        raise InputError("dynamic membranes need --theta RECORD")
    return system, mode, theta


def cmd_check(args) -> int:
    system, mode, theta = _load_system(args)
    is_coherent = coherent(system)
    print(f"coherent: {'yes' if is_coherent else 'no'}")
    if not is_coherent:
        print("well-formed: not checked (well-formedness assumes coherence)")
        return ILL_FORMED
    judgment = judge(system, mode, theta)
    print(f"well-formed: {_VERDICTS[judgment.verdict][0]}")
    for note in judgment.notes:
        print(f"  {note}")
    return _VERDICTS[judgment.verdict][1]


def cmd_run(args) -> int:
    system, mode, theta = _load_system(args)
    events, final = run_system(system, mode, args.steps, args.seed)
    for event in events:
        print(event.render())
    print("--- final system ---")
    print(render(final))
    return OK


def cmd_verify(args) -> int:
    system, mode, theta = _load_system(args)
    preservation = verify_subject_reduction(system, mode, args.depth, theta)
    safety = verify_safety(system, mode, args.depth, theta)
    if args.format == "report":
        print(preservation.render())
        print(safety.render())
    else:
        print(f"subject reduction (depth {args.depth}):")
        print(_indent(preservation.render()))
        print(f"safety (depth {args.depth}):")
        print(_indent(safety.render()))
    if preservation.unknowns or safety.unknowns:
        return INCONCLUSIVE
    return OK if preservation.ok and safety.ok else ILL_FORMED


def cmd_infer(args) -> int:
    if args.regime != "multiset":
        raise InputError("inference is defined for the multiset regime only")
    agent = parse_agent(args.agent, PolicyRegime.MULTISET)
    if isinstance(agent, list):
        raise _fail(agent)
    inferred = infer_policy(agent)
    print("undefined" if inferred is None else str(inferred))
    return OK


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def _count(text: str) -> int:
    """argparse type for bounds, steps and depths: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got '{text}'")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="membranes",
        description="Check, run, and verify systems of sites guarded by policy membranes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_system=True):
        if with_system:
            p.add_argument("system", help="system file (.mem)")
        p.add_argument("--regime", choices=["set", "multiset", "dfa"], default="set")
        p.add_argument("--membrane", choices=["entry", "static", "dynamic"], default="entry")
        p.add_argument("--dfa", help="DFA bundle file (.dfa), required under the dfa regime")
        p.add_argument("--theta", help="resident record file (.theta) for dynamic membranes")
        p.add_argument("--bound", type=_count, default=DEFAULT_BOUND,
                       help="DFA search bound in explored pairs")
        p.add_argument("--format", choices=["text", "report"], default="text")

    check = sub.add_parser("check", help="coherence and well-formedness")
    common(check)
    check.set_defaults(func=cmd_check)

    runp = sub.add_parser("run", help="reduce the system with a seeded scheduler")
    common(runp)
    runp.add_argument("--steps", type=_count, default=100, help="maximum reduction steps")
    runp.add_argument("--seed", type=int, default=0, help="scheduler seed")
    runp.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="subject reduction and safety, bounded")
    common(verify)
    verify.add_argument("--depth", type=_count, default=5, help="exploration depth")
    verify.set_defaults(func=cmd_verify)

    infer = sub.add_parser("infer", help="minimal multiset policy of an agent")
    infer.add_argument("agent", help="agent term, e.g. '!send.nil'")
    infer.add_argument("--regime", choices=["set", "multiset", "dfa"], default="multiset")
    infer.set_defaults(func=cmd_infer)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return INPUT_ERROR
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return INPUT_ERROR
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        # The parser bounds nesting, but a few judgments still recurse once
        # per nesting level and may run out of stack just below that bound.
        print("agent too deeply nested to process", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
