"""Exit codes, explanations, and output determinism of the command line."""
from __future__ import annotations

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from membranes import policy_dfa
from membranes.cli import main

from conftest import DEMOS


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_check_example1_ill_formed():
    code, out, _ = invoke("check", str(DEMOS / "example1_attack.mem"), "--regime", "set")
    assert code == 1
    assert "coherent: yes" in out
    assert "well-formed: no" in out
    assert "take" in out


def test_check_empty_system(tmp_path):
    f = tmp_path / "empty.mem"
    f.write_text("")
    code, out, _ = invoke("check", str(f), "--regime", "set")
    assert code == 0
    assert "well-formed: yes" in out


def test_check_mail_protocol_wellformed():
    code, out, _ = invoke("check", str(DEMOS / "mail_protocol.mem"),
                          "--regime", "dfa", "--dfa", str(DEMOS / "protocols.dfa"))
    assert code == 0


def test_check_dfa_tiny_bound_inconclusive(tmp_path):
    f = tmp_path / "replicated.mem"
    f.write_text("s[ trust { s: good }; policy @mail; !usr.pwd.nil ]")
    code, out, _ = invoke("check", str(f), "--regime", "dfa",
            "--dfa", str(DEMOS / "protocols.dfa"), "--bound", "2")
    assert code == 3
    assert "well-formed: unknown" in out


def test_check_incoherent_reported_distinctly(tmp_path):
    f = tmp_path / "incoherent.mem"
    f.write_text(
        "a[ trust { a: good, b: good }; policy {}; nil ]"
        "|| b[ trust { b: bad }; policy {}; nil ]")
    code, out, _ = invoke("check", str(f), "--regime", "set")
    assert code == 1
    assert "coherent: no" in out


def test_check_input_error():
    code, _, err = invoke("check", str(DEMOS / "no_such_file.mem"), "--regime", "set")
    assert code == 2
    assert err


def test_check_parse_error(tmp_path):
    f = tmp_path / "broken.mem"
    f.write_text("x[")
    code, _, err = invoke("check", str(f), "--regime", "set")
    assert code == 2
    assert "end of input" in err


def test_run_example1_shows_lying_digest_admitted():
    code, out, _ = invoke("run", str(DEMOS / "example1_attack.mem"),
                          "--regime", "set", "--steps", "20", "--seed", "3")
    assert code == 0
    assert "bob -> home: go {info, req} admitted" in out
    assert "take" in out


def test_run_licence_demo_denies_third():
    code, out, _ = invoke("run", str(DEMOS / "licence_server.mem"),
                          "--regime", "multiset", "--membrane", "dynamic",
                          "--theta", str(DEMOS / "licence_server.theta"),
                          "--steps", "50", "--seed", "1")
    assert code == 0
    assert out.count("go {get_licence} admitted") == 2
    assert out.count("DENIED") == 1


def test_run_zero_steps_empty_trace():
    code, out, _ = invoke("run", str(DEMOS / "example1_attack.mem"),
                          "--regime", "set", "--steps", "0", "--seed", "1")
    assert code == 0
    assert out.startswith("--- final system ---")


def test_run_deterministic_output():
    args = ("run", str(DEMOS / "licence_server.mem"), "--regime", "multiset",
            "--membrane", "dynamic", "--theta", str(DEMOS / "licence_server.theta"),
            "--steps", "50", "--seed", "9")
    assert invoke(*args) == invoke(*args)


def test_verify_mail_server_clean():
    code, out, _ = invoke("verify", str(DEMOS / "mail_server.mem"),
                          "--regime", "multiset", "--depth", "4")
    assert code == 0
    assert out.count("SUMMARY ok") == 2


def test_verify_example1_reports_violation():
    code, out, _ = invoke("verify", str(DEMOS / "example1_attack.mem"),
                          "--regime", "set", "--depth", "4", "--format", "report")
    assert code == 1
    assert "SUMMARY violations=" in out


def test_verify_unknown_exit_code(tmp_path):
    f = tmp_path / "replicated.mem"
    f.write_text("s[ trust { s: good }; policy @mail; !usr.pwd.nil ]")
    code, out, _ = invoke("verify", str(f), "--regime", "dfa",
                          "--dfa", str(DEMOS / "protocols.dfa"),
                          "--bound", "2", "--depth", "2")
    assert code == 3


def test_infer_examples():
    assert invoke("infer", "!send.nil") == (0, "{send^w}\n", "")
    assert invoke("infer", "nil") == (0, "{}\n", "")
    assert invoke("infer", "go(l, {ping}).ping.ping.nil") == (0, "undefined\n", "")


def test_infer_rejects_other_regimes():
    code, _, err = invoke("infer", "nil", "--regime", "set")
    assert code == 2 and "multiset" in err


def test_console_script_byte_identical(tmp_path):
    cmd = [sys.executable, "-m", "membranes.cli", "run",
           str(DEMOS / "licence_server.mem"), "--regime", "multiset",
           "--membrane", "dynamic", "--theta", str(DEMOS / "licence_server.theta"),
           "--steps", "50", "--seed", "4"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--depth", "-1"),
    ("run", "--steps", "-5"),
    ("check", "--bound", "-2"),
    ("verify", "--bound", "-1"),
    ("run", "--steps", "many"),
])
def test_negative_counts_rejected(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(DEMOS / "example1_attack.mem"), "--regime", "set", flag, value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"membranes {command}: error: argument {flag}: "
                      f"expected a non-negative integer, got '{value}'"]


def test_zero_depth_and_bound_stay_valid():
    code, out, _ = invoke("verify", str(DEMOS / "mail_server.mem"),
                          "--regime", "multiset", "--depth", "0")
    assert code == 0 and out.count("SUMMARY ok") == 2
    code, _, _ = invoke("check", str(DEMOS / "mail_protocol.mem"), "--regime", "dfa",
                        "--dfa", str(DEMOS / "protocols.dfa"), "--bound", "0")
    assert code == 0


def test_theta_missing_a_trustworthy_site_is_an_input_error(tmp_path):
    theta = tmp_path / "partial.theta"
    theta.write_text("client: {licence_serv^3}\n")
    for command in ("check", "verify"):
        code, out, err = invoke(command, str(DEMOS / "licence_server.mem"),
                                "--regime", "multiset", "--membrane", "dynamic",
                                "--theta", str(theta))
        assert code == 2
        assert err == "resident record does not cover trustworthy site 'licence_serv'\n"


def test_check_runs_each_dfa_search_once(monkeypatch):
    searches = []
    original = policy_dfa._language_included

    def counting(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(policy_dfa, "_language_included", counting)
    code, _, _ = invoke("check", str(DEMOS / "mail_protocol.mem"),
                        "--regime", "dfa", "--dfa", str(DEMOS / "protocols.dfa"))
    assert code == 0
    # one search for the digest laptop's agent professes, one for the thread
    # against @any from its start state
    assert len(searches) == 2


CHAINS = {
    "act": lambda n: "a." * n + "nil",
    "go": lambda n: "go(t, {a})." * n + "nil",
    "repl": lambda n: "!" * n + "a.nil",
}


def _deepest_chain(tmp_path, kind):
    """The file holding the deepest chain of this kind that `check` parses."""
    path = tmp_path / f"{kind}.mem"

    def write(n):
        path.write_text(f"s[ trust {{ s: good }}; policy {{a, t}}; {CHAINS[kind](n)} ]\n"
                        f"|| t[ trust {{ t: good }}; policy {{a, t}}; nil ]\n")

    lo, hi = 1, 4000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        write(mid)
        _, _, err = invoke("check", str(path))
        if "input too deeply nested" in err:
            hi = mid - 1
        else:
            lo = mid
    write(lo)
    assert lo > 500
    return str(path)


@pytest.mark.parametrize("kind", ["act", "go"])
def test_deepest_prefix_chain_ends_in_verdict(tmp_path, kind):
    path = _deepest_chain(tmp_path, kind)
    for argv in (["check", path], ["run", path], ["verify", path, "--depth", "2"]):
        code, out, err = invoke(*argv)
        assert code in (0, 1) and out, (argv, err)


def test_deepest_replication_chain_ends_in_verdict(tmp_path):
    # Unfolding a replication chain n deep spawns n nested replicas, and
    # ordering them compares keys n deep, so only the checks that unfold
    # nothing run here.
    path = _deepest_chain(tmp_path, "repl")
    for argv in (["check", path], ["verify", path, "--depth", "0"]):
        code, out, err = invoke(*argv)
        assert code in (0, 1) and out, (argv, err)
