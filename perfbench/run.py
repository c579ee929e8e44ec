"""The membranes benchmark: `membranes run | verify | check` end to end.

    python3 perfbench/run.py --workload run-server --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark generates the workload's
inputs from the seed (see `workloads.py`) in a child process
(`generate.py`), which writes them under `.perfbench/`, and drives the
real CLI in this process, which imports nothing of the benchmark but
its runner, verdict gate and tracer: each op is one
`membranes.cli.main(argv)` call, timed, with its exit code and output
checked against the answer the generator knows (`verdict.py`). Load is
a closed loop with one client. Ops cycle through the input pool until
`--seconds` have been spent in ops, and at least `MIN_OPS` ops ran.

Times are reported at a reference machine speed: each op's wall time is
scaled by how fast a fixed reference kernel ran around it (`REF_MS`).

With `--trace 0` it reports the end-to-end metrics named in
BENCHMARK.json, set-up time included: the median of `SETUP_SAMPLES`
fresh interpreters that each import `membranes.cli` and parse every
input file once (`setup_once.py`), each scaled by its own timing of the
reference kernel.

With `--trace 1` it reports the per-layer metrics instead. It runs whole
passes over the pool (at least one, and no more than fit in `--seconds`);
each op runs once untraced and once under the tracer (`tracing.py`), the
two outputs must be byte-identical, and layer counts and self times are
reported per op, so counts repeat exactly for a seed.
`trace.overhead_frac` compares the two timings.

Every metric is printed with its unit; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 1
when any op failed its check (`failed_frac` above 0), 2 when the
repository is not there to measure.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
MIN_OPS = 100
SETUP_SAMPLES = 9
TIME_LIMIT_S = 120  # stop measuring here whatever --seconds says
# Wall time of `_reference` at the reference machine speed, in ms. On the
# shared VMs this benchmark runs on, CPU speed drifts by up to 1.9x from
# one second to the next, so raw wall times of identical work spread more
# across runs than any bound allows. Each run therefore times the
# reference kernel after every op, and scales each op's wall time by
# REF_MS / (the median kernel time of the `REF_WINDOW` ops on each side of
# it): wall time at the reference speed. A change to the program moves
# these times as it moves wall time; the kernel does not depend on the
# program.
REF_MS = 5.0
REF_WINDOW = 2


def _reference() -> int:
    """Fixed pure-Python work of the kind the program does: building
    tuples, sorting them, hashing them into dicts and frozensets, and
    plain interpreter dispatch."""
    pairs = sorted(((i * 7919) % 1009, str(i)) for i in range(3000))
    groups: dict[int, list[str]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFF
    return len(frozenset(tuple(v) for v in groups.values())) + x


def _speed_scale(reference_seconds: list[float]) -> float:
    """The factor that turns wall times taken alongside these kernel
    timings into reference-speed times."""
    return REF_MS / (statistics.median(reference_seconds) * 1000)


def _local_scales(reference_seconds: list[float]) -> list[float]:
    """One speed scale per op, from the kernel timings around it."""
    w, ref = REF_WINDOW, reference_seconds
    return [_speed_scale(ref[max(0, i - w): i + w + 1]) for i in range(len(ref))]


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("run-server", "verify-depth", "dfa-sessions"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/membranes/cli.py", "tests/conftest.py", "BENCHMARK.json")
               if not (root / p).is_file()]
    if missing:
        print(f"run from the repository root; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops, manifest = _generate(args.workload, args.seed, work, root)
        if args.trace:
            result = _traced(ops, args.seconds, spec["per_layer"])
            # one file per workload, overwritten by its next traced run
            spans = root / ".perfbench" / f"spans-{args.workload}.tsv"
            print(f"spans: {result.pop('tracer').write_spans(spans)} written to {spans.relative_to(root)}")
        else:
            result = _untraced(ops, args.seconds)
            result["metrics"]["setup_s"] = _setup_seconds(manifest, work, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"speed: reference kernel median {REF_MS / result['scale']:.4g} ms; times below are "
          f"wall times scaled to the reference speed (x {result['scale']:.4g} at that median)")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"ops = {attempted}; failed_frac = {failed / attempted:.6g} ratio ({failed} failed)")
    for why in result["failures"][:5]:
        print(f"FAILED {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _generate(workload: str, seed: int, work: Path, root: Path):
    """Write the workload's inputs from a child process; return the op
    list and the set-up manifest."""
    work.mkdir(parents=True, exist_ok=True)
    done = subprocess.run([sys.executable, str(HERE / "generate.py"), workload, str(seed), str(work)],
                          cwd=root, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"generating inputs failed: {done.stderr.strip()}")
    data = json.loads((work / "ops.json").read_text(encoding="utf-8"))
    return data["ops"], data["manifest"]


def _call(argv: list[str]) -> tuple[int, str, float]:
    """One CLI call in this process: (exit code, stdout then stderr, seconds)."""
    from membranes import cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue() + err.getvalue(), perf_counter() - start


class _Tally:
    def __init__(self):
        self.times: list[float] = []
        self.seconds = 0.0
        self.runs: list[int] = []  # indices of `run` ops in `times`
        self.run_steps = 0
        self.decided = 0
        self.failures: list[str] = []
        self.reference: list[float] = []

    def time_reference(self) -> None:
        start = perf_counter()
        _reference()
        self.reference.append(perf_counter() - start)

    def add(self, op, code, out, seconds) -> bool:
        """Judge and record one call; returns whether it matched its answer."""
        from verdict import judge

        outcome = judge(op["answer"], code, out)
        self.times.append(seconds)
        self.seconds += seconds
        self.decided += outcome.decided
        if not outcome.ok:
            self.failures.append(f"{op['label']}: {outcome.why}")
        if op["kind"] == "run":
            self.runs.append(len(self.times) - 1)
            self.run_steps += outcome.steps
        return outcome.ok


def _untraced(ops, seconds: float) -> dict:
    tally = _Tally()
    begin = perf_counter()
    i = 0
    while (tally.seconds < seconds or i < MIN_OPS) and perf_counter() - begin < TIME_LIMIT_S:
        op = ops[i % len(ops)]
        tally.add(op, *_call(op["argv"]))
        tally.time_reference()
        i += 1
    scales = _local_scales(tally.reference)
    times_ms = [t * 1000 * k for t, k in zip(tally.times, scales)]
    run_ms = sum(times_ms[j] for j in tally.runs)
    metrics = {
        "op_ms.p50": statistics.median(times_ms),
        "op_ms.p90": statistics.quantiles(times_ms, n=10)[-1],
        "ops_per_s": i / (sum(times_ms) / 1000),
        "steps_per_s": tally.run_steps / (run_ms / 1000) if run_ms else 0.0,
        "ok_frac": 1 - len(tally.failures) / i,
        "decided_frac": tally.decided / i,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"attempted": i, "failed": len(tally.failures), "failures": tally.failures,
            "scale": statistics.median(scales), "metrics": metrics}


def _traced(ops, seconds: float, per_layer: list[dict]) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = _Tally(), _Tally()
    failed = 0
    begin = perf_counter()
    passes = 0
    # whole passes only, and none that would end after `seconds`
    while passes == 0 or (perf_counter() - begin) * (passes + 1) / passes <= seconds:
        for i, op in enumerate(ops):
            code, out, t = _call(op["argv"])
            ok = plain.add(op, code, out, t)
            plain.time_reference()
            tracer.op_id = passes * len(ops) + i
            with tracer:
                code2, out2, t2 = _call(op["argv"])
            ok &= traced.add(op, code2, out2, t2)
            if (code2, out2) != (code, out):
                ok = False
                traced.failures.append(f"{op['label']}: traced output differs from untraced")
            failed += not ok
        passes += 1
    n = passes * len(ops)
    stats = tracer.stats
    values = {name: stats[name] / n for name in stats if not name.endswith(".self_s")}
    scale = _speed_scale(plain.reference)
    values.update({name[:-len(".self_s")] + ".self_ms": stats[name] * 1000 * scale / n
                   for name in stats if name.endswith(".self_s")})
    # run keeps one successor per step; the subject-reduction search keeps all
    used = plain.run_steps + stats["runtime.verify_subject_reduction.successors"]
    built = stats["runtime.step.successors"]
    values["runtime.step.use_ratio"] = used / built if built else 0.0
    values["trace.overhead_frac"] = statistics.median(traced.times) / statistics.median(plain.times) - 1
    return {"attempted": n, "failed": failed, "failures": plain.failures + traced.failures,
            "tracer": tracer, "scale": scale,
            "metrics": {m["name"]: values.get(m["name"], 0.0) for m in per_layer}}


def _setup_seconds(manifest, work: Path, root: Path) -> float:
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_once.py"), str(path)],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        setup, reference = map(float, done.stdout.split())
        samples.append(setup * _speed_scale([reference]))
    return statistics.median(samples)


if __name__ == "__main__":
    sys.exit(main())
