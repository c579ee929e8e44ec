"""Tests of the benchmark itself: known answers, the verdict gate, tracing.

    python3 -m pytest perfbench -q

Known answers are cross-checked along routes that do not use the
library's judgments: the brute-force oracles in `tests/oracles.py`,
word simulation, and label arithmetic.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
for path in (ROOT / "src", ROOT / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conftest import required_set  # noqa: E402
from membranes import OMEGA, Act, Go, Par, Repl, TrustLevel, threads  # noqa: E402
from membranes.core import is_trustworthy  # noqa: E402
from membranes.syntax import parse_dfa_bundle, parse_system, parse_theta  # noqa: E402
from oracles import _accepts, derivable_multiset, included_oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from verdict import canonical_digest, judge  # noqa: E402

SEEDS = (3, 4)
# Known answers are cross-checked on the first SAMPLE inputs of the pool
# the benchmark runs for the seed; pools are shuffled, so this is a
# seeded sample of every size and kind.
SAMPLE = 20


def _fits(digest, policy) -> bool:
    """Count arithmetic: every label count of the digest fits the policy's."""
    limits = dict(policy.items)
    return all(limits.get(label, 0) is OMEGA or c is not OMEGA and c <= limits.get(label, 0)
               for label, c in digest.items)


# ---------------------------------------------------------------------------
# Known answers, by independent routes


@pytest.mark.parametrize("seed", SEEDS)
def test_run_server_answers_match_oracle(seed):
    for inp in workloads.gen_run_server(seed)[:SAMPLE]:
        system = parse_system(inp.files["system.mem"], "multiset")
        server = system.get("srv")
        policy = server.membrane.policy
        events, local, steps = Counter(), 0, 0
        for site in system:
            if site.name == "srv":
                continue
            trusted = server.membrane.trust_of(site.name) == TrustLevel.LGOOD
            for thread in threads(site.agent):
                go = thread.cont
                assert isinstance(go, Go) and go.target == "srv"
                admitted = (_fits(go.digest, policy) if trusted
                            else derivable_multiset(go.cont, policy))
                events[(site.name, canonical_digest(str(go.digest)), admitted)] += 1
                chain = _chain_length(go.cont)
                local += 1 + (chain if admitted else 0)
                steps += 1 + (chain + 1 if admitted else 0)
        expected = Counter({k: (n if k[2] else 1) for k, n in events.items()})
        answer = inp.ops[0].answer
        got = Counter({(s, canonical_digest(d), ok): n for s, d, ok, n in answer["migrations"]})
        assert got == expected
        assert (answer["local"], answer["steps"]) == (local, steps)
        assert any(not ok for _, _, ok in got), "every input plants a denial"


def _chain_length(agent) -> int:
    n = 0
    while isinstance(agent, Act):
        n, agent = n + 1, agent.cont
    return n


@pytest.mark.parametrize("seed", SEEDS)
def test_dfa_sessions_answers_match_word_simulation(seed):
    for inp in workloads.gen_dfa_sessions(seed):
        bundle = parse_dfa_bundle(inp.files["policies.dfa"])
        system = parse_system(inp.files["system.mem"], "dfa", bundle)
        server, client = system.get("srv"), system.get("cli")
        go = client.agent
        sessions = list(threads(go.cont))
        replicated = any(isinstance(s, Repl) for s in sessions)
        # every interleaving has the same label counts, and the automata
        # count only sends, so one concatenation decides every interleaving
        word = tuple(label for s in sessions for label in _labels(s))
        if replicated:
            body = next(s.body for s in sessions if isinstance(s, Repl))
            word += tuple(_labels(body)) * len(bundle["cap"].states)
        trusted = server.membrane.trust_of("cli") == TrustLevel.LGOOD
        if trusted:
            admitted = included_oracle(bundle["dig"], bundle["cap"])
        else:
            admitted = _accepts(bundle["cap"], word)
        check, run_op, _ = inp.ops
        assert run_op.answer["admitted"] == admitted
        assert run_op.answer["replicated"] == replicated
        honest = _accepts(bundle["dig"], word)
        assert check.answer["exit"] == ([1, 3] if replicated else [0] if honest else [1])


def _labels(agent):
    while isinstance(agent, Act):
        yield agent.action
        agent = agent.cont


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_depth_answers_match_typing_oracles(seed):
    untrustworthy = 0
    for inp in workloads.gen_verify_depth(seed)[:SAMPLE]:
        verify = inp.ops[0]
        regime = inp.regime
        system = parse_system(inp.files["system.mem"], regime)
        kind = verify.argv[verify.argv.index("--membrane") + 1]
        theta = parse_theta(inp.files["record.theta"]) if "record.theta" in inp.files else None
        ill = {site.name for site in system
               if is_trustworthy(site) and not _conforms(site, regime, kind, theta)}
        untrustworthy += not all(is_trustworthy(site) for site in system)
        if verify.answer["exit"] == 0:
            assert not ill
        else:
            assert verify.answer["site"] in ill
    assert untrustworthy, "the sample holds inputs with an untrustworthy site"


def _conforms(site, regime, kind, theta) -> bool:
    policy = site.membrane.policy
    if regime == "set":
        return _set_conforms(site.agent, policy.labels)
    if kind == "entry":
        return all(derivable_multiset(t, policy) for t in threads(site.agent))
    return derivable_multiset(site.agent, theta[site.name] if kind == "dynamic" else policy)


def _set_conforms(agent, allowed) -> bool:
    """Labels needed here are allowed, and every digest covers its continuation."""
    if not required_set(agent) <= allowed:
        return False
    stack = [agent]
    while stack:
        node = stack.pop()
        if isinstance(node, Go):
            if not _set_conforms(node.cont, node.digest.labels):
                return False
        elif isinstance(node, Act):
            stack.append(node.cont)
        elif isinstance(node, Par):
            stack += [node.left, node.right]
        elif isinstance(node, Repl):
            stack.append(node.body)
    return True


# ---------------------------------------------------------------------------
# The verdict gate


def _first_ops(workload, seed, n, tmp_path):
    pool = workloads.GENERATORS[workload](seed)
    ops, _ = generate.write_inputs(pool[:n], tmp_path, tmp_path)
    return ops


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _flip_first_admission(out: str) -> str:
    at = min((i for i in (out.find(" admitted"), out.find(" DENIED")) if i >= 0), default=-1)
    if out.startswith(" admitted", at):
        return out[:at] + " DENIED" + out[at + len(" admitted"):]
    return out[:at] + " admitted" + out[at + len(" DENIED"):]


# output changes that each judge must reject
MUTATIONS = {
    "run-server": _flip_first_admission,
    "run-sessions": _flip_first_admission,
    "run-bounded": lambda out: out.replace("--- final system ---", ""),
    "verify": lambda out: "\n".join(out.splitlines()[:-1]) + "\n",
    "check": lambda out: out.replace("coherent: yes", "coherent: no"),
}


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_gate_accepts_the_program_and_rejects_wrong_answers(workload, in_tmp):
    for op in _first_ops(workload, 5, 4, in_tmp):
        code, out, _ = run._call(op["argv"])
        answer, label = op["answer"], op["label"]
        assert judge(answer, code, out).ok, label
        assert not judge(answer, code ^ 1, out).ok, label
        mutated = MUTATIONS[answer["judge"]](out)
        assert mutated != out and not judge(answer, code, mutated).ok, label


# ---------------------------------------------------------------------------
# Tracing


def _membranes_names():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "membranes" or name.startswith("membranes.")
            for attr, value in vars(module).items() if callable(value)}


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_traced_output_is_byte_identical_and_names_are_restored(workload, in_tmp):
    before = _membranes_names()
    tracer = Tracer()
    ops = _first_ops(workload, 6, 4, in_tmp)
    for op in ops:
        plain = run._call(op["argv"])[:2]
        with tracer:
            traced = run._call(op["argv"])[:2]
        assert traced == plain, op["label"]
    assert _membranes_names() == before
    assert tracer.stats["cli.main.calls"] == len(ops)


COUNT_SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = {paths!r}
import generate, run, workloads
ops, _ = generate.write_inputs(workloads.GENERATORS[{workload!r}]({seed})[:4], Path("."), Path("."))
result = run._traced(ops, 0, json.load(open({spec!r}))["per_layer"])
print(json.dumps({{k: v for k, v in result["metrics"].items()
                  if not k.endswith("self_ms") and k != "trace.overhead_frac"}}))
"""


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_layer_counts_repeat_across_runs_and_hash_seeds(workload, tmp_path):
    script = COUNT_SCRIPT.format(paths=[str(ROOT / "src"), str(ROOT / "tests"), str(HERE)],
                                 workload=workload, seed=7, spec=str(ROOT / "BENCHMARK.json"))
    outputs = []
    for hash_seed in ("1", "1", "2"):
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONHASHSEED=hash_seed), timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["cli.main.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero, print no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-server",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
