"""Exact command-line output on the demos, pinned byte for byte.

Each case is one `membranes` call; its exit code and stdout are stored in
`tests/golden/<case>.out` (first line `exit N`, then stdout verbatim).
The cases cover `check`, `run --seed` and `verify` on every demo system
under each regime and membrane kind it parses under, plus the inputs in
`tests/golden/inputs/`: trusted-digest and code-inspection denials, and
DFA searches cut off by `--bound 1`.

To rewrite the files after an intended output change:

    PYTHONPATH=src python3 tests/test_golden.py
"""
from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from membranes.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

_DFA = ("--regime", "dfa", "--dfa", "demos/protocols.dfa")
_THETA = ("--membrane", "dynamic", "--theta", "demos/licence_server.theta")

# (system, mode arguments) for every supported combination.
_SYSTEMS = {
    "example1-set": ("demos/example1_attack.mem", ("--regime", "set")),
    "example1-multiset": ("demos/example1_attack.mem", ("--regime", "multiset")),
    "example1-static": ("demos/example1_attack.mem", ("--regime", "multiset", "--membrane", "static")),
    "mailserver-multiset": ("demos/mail_server.mem", ("--regime", "multiset")),
    "mailserver-static": ("demos/mail_server.mem", ("--regime", "multiset", "--membrane", "static")),
    "licence-multiset": ("demos/licence_server.mem", ("--regime", "multiset")),
    "licence-static": ("demos/licence_server.mem", ("--regime", "multiset", "--membrane", "static")),
    "licence-dynamic": ("demos/licence_server.mem", ("--regime", "multiset") + _THETA),
    "mailprotocol-dfa": ("demos/mail_protocol.mem", _DFA),
    "admission-multiset": ("tests/golden/inputs/admission.mem", ("--regime", "multiset")),
    "admission-static": ("tests/golden/inputs/admission.mem", ("--regime", "multiset", "--membrane", "static")),
    "dfaadmission-dfa": ("tests/golden/inputs/dfa_admission.mem", _DFA),
    "dfaadmission-bound1": ("tests/golden/inputs/dfa_admission.mem", _DFA + ("--bound", "1")),
    "dfanostate-dfa": ("tests/golden/inputs/dfa_nostate.mem", _DFA),
}

_COMMANDS = {
    "check": ("check",),
    "run1": ("run", "--seed", "1"),
    "run7": ("run", "--seed", "7", "--steps", "4"),
    "verify": ("verify", "--depth", "4"),
}

CASES = {
    f"{system}.{command}": (argv[0], path) + argv[1:] + mode
    for system, (path, mode) in _SYSTEMS.items()
    for command, argv in _COMMANDS.items()
}
CASES["licence-dynamic.verify-report"] = (
    "verify", "demos/licence_server.mem", "--regime", "multiset", *_THETA,
    "--depth", "3", "--format", "report")


def _invoke(argv: tuple[str, ...]) -> str:
    # Paths in CASES are relative to the repository root.
    argv = [str(ROOT / a) if a.startswith(("demos/", "tests/")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _invoke(CASES[case]) == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.out").write_text(_invoke(argv), encoding="utf-8")
    sys.exit(0)
