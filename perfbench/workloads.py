"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into a pool of `Input`s: the files the
program reads (`.mem`, `.dfa`, `.theta` text) and the CLI operations to
run on them, each with the answer the generator knows by construction,
as plain JSON data (`generate.py` writes both out).
The answers come from the shapes the generator chose (arithmetic on
counts, the paper's theorems for well-formed systems), never from the
library's own judgment, so the verdict gate in `verdict.py` can catch a
program that decides wrongly.

Sizes are stratified over the pool: every size class appears equally
often, in a seeded order, and inputs of one class share a skeleton, so
the seed varies names, trust, planted agents and schedules more than it
varies cost, and per-seed medians stay close.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from conftest import ACTIONS, SITES, _coherent_trust, required_set
from membranes import (
    Act, Agent, Go, Membrane, MultisetPolicy, NIL, Repl, SetPolicy, Site, System,
    TrustLevel, infer_policy, join, par,
)
from membranes.core import is_trustworthy
from membranes.syntax import render, render_theta


@dataclass
class Op:
    """One `membranes` CLI call. `argv` names input files by their key in
    `Input.files`; the runner substitutes their paths."""

    kind: str  # "run" | "verify" | "check"
    argv: list[str]
    answer: dict


@dataclass
class Input:
    name: str
    regime: str
    files: dict[str, str]
    ops: list[Op] = field(default_factory=list)


def _counts_text(counts: Counter) -> str:
    items = sorted((label, c) for label, c in counts.items() if c)
    return "{" + ", ".join(label if c == 1 else f"{label}^{c}" for label, c in items) + "}"


# ---------------------------------------------------------------------------
# run-server: one server, N clients, entry membranes under the multiset regime.

SERVER_ACTIONS = ["read", "write", "stat"]
FORBIDDEN = "admin"  # never in the server policy
# Threads per input, stratified over the pool. Op time grows steeply with
# size, so consecutive sizes keep the op-time distribution free of gaps
# and its median moves smoothly.
RUN_SERVER_THREADS = range(6, 19)
RUN_SERVER_POOL = 6 * len(RUN_SERVER_THREADS)


def gen_run_server(seed: int) -> list[Input]:
    rng = random.Random(seed)
    sizes = [RUN_SERVER_THREADS[i % len(RUN_SERVER_THREADS)] for i in range(RUN_SERVER_POOL)]
    rng.shuffle(sizes)
    return [_server_input(rng, f"srv{i:02d}", n) for i, n in enumerate(sizes)]


def _server_input(rng: random.Random, name: str, n_threads: int) -> Input:
    limits = {"read": rng.randint(2, 3), "write": rng.randint(1, 2)}
    n_clients = -(-2 * n_threads // 5)  # 2 or 3 threads per client
    clients = [f"c{j:02d}" for j in range(n_clients)]
    trusted = set(rng.sample(clients, n_clients // 2))
    busy = set(rng.sample(clients, n_threads - 2 * n_clients))
    shapes = [c for c in clients for _ in range(3 if c in busy else 2)]
    # planted agents: some denied, some trusted liars that get admitted
    planted = rng.sample(range(len(shapes)), max(2, len(shapes) // 6))
    liars = {i for i in planted[: len(planted) // 2] if shapes[i] in trusted}
    denied = set(planted) - liars

    events: Counter = Counter()
    local = 0
    threads: dict[str, list[str]] = {c: [] for c in clients}
    for i, client in enumerate(shapes):
        usage: Counter = Counter()
        for _ in range(1 + i % 3):  # fixed lengths keep inputs of one size equally costly
            usage[rng.choice([a for a in SERVER_ACTIONS if usage[a] < limits.get(a, 3)])] += 1
        code = Counter(usage)
        if i in denied:  # a forbidden label, or one label over its count
            over = rng.choice([FORBIDDEN, *limits])
            usage[over] = limits.get(over, 0) + 1
            code = Counter(usage)
        elif i in liars:
            code[FORBIDDEN] += 1  # the digest hides what the code does
        digest = _counts_text(usage)
        chain = [label for label, c in sorted(code.items()) for _ in range(c)]
        rng.shuffle(chain)
        threads[client].append(
            f"{rng.choice(['prep', 'pack'])}.go(srv, {digest})." + ".".join(chain + ["nil"]))
        admitted = i not in denied
        events[(client, digest, admitted)] += 1
        local += 1 + (len(chain) if admitted else 0)

    # blocked_migrations reports each distinct (source, digest) denial once
    expected = sorted([*k, v if k[2] else 1] for k, v in events.items())
    trust = ", ".join(["srv: good"] + [f"{c}: good" for c in sorted(trusted)])
    policy = _counts_text(Counter(limits)).replace("}", ", stat^w}")
    sites = [f"srv[ trust {{ {trust} }}; policy {policy}; nil ]"]
    for c in clients:
        sites.append(f"{c}[ trust {{ {c}: good }}; policy {{}}; {' | '.join(threads[c])} ]")
    steps = local + sum(v for (_, _, ok), v in events.items() if ok)
    inp = Input(name, "multiset", {"system.mem": "\n|| ".join(sites) + "\n"})
    inp.ops.append(Op("run", ["run", "system.mem", "--regime", "multiset",
                              "--steps", str(steps + 1), "--seed", str(rng.randrange(1 << 16))],
                      {"judge": "run-server", "exit": 0, "migrations": expected, "local": local,
                       "steps": steps}))
    return inp


# ---------------------------------------------------------------------------
# verify-depth: small systems with replication, parallel threads and migrations.

VERIFY_MODES = [("set", "entry"), ("multiset", "entry"), ("multiset", "static"),
                ("multiset", "dynamic")]
VERIFY_DEPTHS = (5, 6, 7)
PLANT_EVERY = 5
# Every input also gets a capped `run` op, so the workload reports
# steps_per_s. A run's cost per step depends on how far its schedule
# unfolds the replications, so many short runs give a steadier figure than
# fewer long ones.
RUN_STEPS_PER_DEPTH = 6
# Modes x depths x (2 or 3 sites) x (third site trustworthy or not),
# twice over: per-seed draws (trust, liars, schedules) move op times, and
# a larger pool averages more of them into each run's figures.
VERIFY_POOL = 96


def gen_verify_depth(seed: int) -> list[Input]:
    rng = random.Random(seed)
    plan = [(*VERIFY_MODES[i % 4], VERIFY_DEPTHS[i % 3], 2 + i // 12 % 2, i < VERIFY_POOL // 2,
             i % PLANT_EVERY == 0) for i in range(VERIFY_POOL)]
    rng.shuffle(plan)
    return [_verify_input(rng, f"v{i:02d}", *inputs) for i, inputs in enumerate(plan)]


def _site_threads(i: int, names: list[str], regime: str) -> list[Agent]:
    """Every site runs the same skeleton, with the actions rotated per site:
    one replicated thread (a local action at even sites, a migration at
    odd ones) and one migration carrying a one-action payload. Digests are
    honest: exactly what the payload needs."""
    a, b, c = ACTIONS[i % 3:] + ACTIONS[:i % 3]
    hop, back = names[(i + 1) % len(names)], names[i - 1]
    if i % 2 == 0:
        replicated: Agent = Repl(Act(a, NIL))
    else:
        replicated = Repl(Go(hop, _honest_digest(Act(c, NIL), regime), Act(c, NIL)))
    return [replicated, Act(c, Go(back, _honest_digest(Act(b, NIL), regime), Act(b, NIL)))]


def _honest_digest(cont: Agent, regime: str):
    return SetPolicy.of(required_set(cont)) if regime == "set" else infer_policy(cont)


def _verify_input(rng: random.Random, name: str, regime: str, kind: str, depth: int,
                  n_sites: int, third_good: bool, planted: bool) -> Input:
    names = SITES[:n_sites]
    good = {n: third_good or n != SITES[2] for n in names}
    threads = {n: _site_threads(i, names, regime) for i, n in enumerate(names)}
    trust = {n: _coherent_trust(rng, names, good, n) for n in names}
    plant_site = None
    if planted:
        # a trustworthy site, trusted by its target, professes a digest
        # that hides one action of the migrating code
        plant_site, target = rng.sample(names[:2], 2)
        trust[target][plant_site] = TrustLevel.LGOOD
        hidden, shown = rng.sample(ACTIONS, 2)
        threads[plant_site].append(Act(rng.choice(ACTIONS), Go(
            target, _honest_digest(Act(shown, NIL), regime), Act(shown, Act(hidden, NIL)))))

    # every policy covers the site's own code and admits each arriving digest
    # twice, so the same skeleton explores the same space whatever the seed
    arriving = {n: [] for n in names}
    for thread in (t for ts in threads.values() for t in ts):
        go = thread.body if isinstance(thread, Repl) else thread
        while isinstance(go, Act):
            go = go.cont
        if isinstance(go, Go):
            arriving[go.target].append(go.digest)
    sites = []
    for n in names:
        agent = par(*threads[n])
        if regime == "set":
            policy = SetPolicy.of(required_set(agent).union(*(d.labels for d in arriving[n])))
        else:
            policy = MultisetPolicy.of({})
            for thread in threads[n]:  # a lying thread still uses its action and hop here
                own = infer_policy(thread) or MultisetPolicy.of({thread.action: 1, thread.cont.target: 1})
                policy = join(policy, own)
            for digest in arriving[n] * 2:
                policy = join(policy, digest)
        sites.append(Site(n, Membrane.of(trust[n], policy), agent))
    system = System.of(*sites)

    files = {"system.mem": render(system) + "\n"}
    flags = ["--regime", regime, "--membrane", kind]
    if kind == "dynamic":
        theta = {site.name: join(infer_policy(site.agent) or MultisetPolicy.of({}),
                                 site.membrane.policy)
                 for site in system if is_trustworthy(site)}
        files["record.theta"] = render_theta(theta)
        flags += ["--theta", "record.theta"]
    inp = Input(name, regime, files)
    answer = {"judge": "verify", "exit": 1 if planted else 0, "site": plant_site}
    inp.ops.append(Op("verify", ["verify", "system.mem", *flags, "--depth", str(depth)], answer))
    steps = RUN_STEPS_PER_DEPTH * depth
    inp.ops.append(Op("run", ["run", "system.mem", *flags, "--steps", str(steps),
                              "--seed", str(rng.randrange(1 << 16))],
                      {"judge": "run-bounded", "exit": 0, "max_steps": steps, "sites": names}))
    return inp


# ---------------------------------------------------------------------------
# dfa-sessions: one agent carrying k parallel sessions migrates to a server
# whose policy automaton allows at most C sends.

SESSION_ROLES = ["trusted-fit", "trusted-over", "trusted-liar",
                 "inspected-fit", "inspected-over", "replicated"]
# Sends per session, by session count. The derivative search over a k-way
# shuffle grows faster than m^k (about 0.1 s at k = 2, m = 16 and at
# k = 5, m = 2), so more sessions get shorter ones.
SESSION_SENDS = {2: 16, 3: 6, 4: 3, 5: 2}


# every role at every session count twice, so each run averages two seeded
# draws of the bounds per shape
DFA_POOL = 2 * len(SESSION_ROLES) * len(SESSION_SENDS)


def gen_dfa_sessions(seed: int) -> list[Input]:
    rng = random.Random(seed)
    plan = [(SESSION_ROLES[i % 6], 2 + i // 6 % 4) for i in range(DFA_POOL)]
    rng.shuffle(plan)
    return [_sessions_input(rng, f"d{i:02d}", role, k) for i, (role, k) in enumerate(plan)]


def counter_dfa(name: str, bound: int) -> str:
    """Bundle text for "at most `bound` sends; usr, pwd and quit are free"."""
    states = [f"n{i}" for i in range(bound + 1)]
    lines = [f"dfa: {name}", "states: " + " ".join(states),
             "alphabet: usr pwd send quit", "start: n0", "final: " + " ".join(states)]
    for i, s in enumerate(states):
        lines += [f"trans: {s} {sym} -> {s}" for sym in ("usr", "pwd", "quit")]
        if i < bound:
            lines.append(f"trans: {s} send -> n{i + 1}")
    return "\n".join(lines) + "\n"


def _sessions_input(rng: random.Random, name: str, role: str, k: int) -> Input:
    m = SESSION_SENDS[k]
    need = k * m
    digest = need - rng.randint(1, k) if role == "trusted-liar" else need
    if role.endswith("over"):
        cap = need - rng.randint(1, k)
    else:
        cap = digest + rng.randint(0, k)
    trusted = role.startswith("trusted")
    session = ".".join(["usr", "pwd"] + ["send"] * m + ["quit", "nil"])
    sessions = [session] * k
    if role == "replicated":
        sessions[-1] = f"!{session}"
    trust = "srv: good, cli: good" if trusted else "srv: good"
    mem = (f"srv[ trust {{ {trust} }}; policy @cap; nil ]\n"
           f"|| cli[ trust {{ cli: good }}; policy @anyc; "
           f"go(srv, @dig).({' | '.join(sessions)}) ]\n")
    bundle = (counter_dfa("cap", cap) + "\n" + counter_dfa("dig", digest) + "\n"
              "dfa: anyc\nstates: a0\nalphabet: srv\nstart: a0\nfinal: a0\ntrans: a0 srv -> a0\n")
    if role == "replicated":
        admitted, honest = False, None  # no, or unknown when the search gives up
    elif trusted:
        admitted, honest = digest <= cap, need <= digest
    else:
        admitted, honest = need <= cap, True
    actions = {"usr": k, "pwd": k, "send": need, "quit": k} if admitted else {}
    local = sum(actions.values())
    inp = Input(name, "dfa", {"system.mem": mem, "policies.dfa": bundle})
    flags = ["--regime", "dfa", "--dfa", "policies.dfa"]
    check = Op("check", ["check", "system.mem", *flags],
               {"judge": "check", "exit": {True: [0], False: [1], None: [1, 3]}[honest]})
    inp.ops.append(check)
    inp.ops.append(Op("run", ["run", "system.mem", *flags, "--steps", str(local + 2),
                              "--seed", str(rng.randrange(1 << 16))],
                      {"judge": "run-sessions", "exit": 0, "admitted": admitted,
                       "actions": actions, "replicated": role == "replicated"}))
    # A second check with a smaller search bound: only searches over
    # replicated sessions are bounded, so the answer is unchanged. Two
    # checks per run keep the median op inside the dense band of check
    # times instead of in the gap between cheap runs and checks.
    inp.ops.append(Op("check", check.argv + ["--bound", "2000"], check.answer))
    return inp


GENERATORS = {"run-server": gen_run_server, "verify-depth": gen_verify_depth,
              "dfa-sessions": gen_dfa_sessions}
