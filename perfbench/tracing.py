"""Per-layer tracing from outside the program.

`Tracer.install()` wraps each layer's public functions listed in `LAYERS`.
A wrapper replaces every module-global name in the `membranes` package
that is bound to the original function, so calls between modules and
recursive calls through a module global are seen; calls that do not look
the name up in a module (methods, local aliases) are not. `uninstall()`
puts every original back.

Each wrapper records a span (name, start, end, parent span, op id) and
adds the span's self time (its duration minus that of its child spans)
to its layer. A function already running in this thread is not wrapped
again, so a recursive function counts as one span. Some wrappers also
count properties of the result, such as admission decisions.

Every span stays in memory, in flat arrays (30 bytes a span), and
`write_spans` writes them out at the end.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = {
    "cli": ["main"],
    "syntax": ["parse_system", "parse_dfa_bundle"],
    "core": ["normalize_system", "system_key", "normalize", "threads"],
    "runtime": ["step", "blocked_migrations", "allows", "wellformed", "explain_wellformed",
                "verify_subject_reduction", "verify_safety", "agent_traces", "lts_step"],
    "policy_set": ["typecheck_set"],
    "policy_multiset": ["infer_policy", "typecheck_multiset"],
    "policy_dfa": ["minimize", "enforces_dfa", "satisfies_dfa", "derive_state", "cre_of",
                   "lang_words", "wellformed_dfa", "explain_wellformed_dfa"],
}


# Counts taken from a call's result. Each hook gets the layer stats, the
# result, the call's arguments, and the set of layers running right now.

def _allows(stats, result, args, active) -> None:
    membrane, source = args[0], args[1]
    stats["runtime.allows." + result.decision] += 1
    stats["runtime.allows.trusted"] += membrane.trust_of(source).value == "good"


def _step(stats, result, args, active) -> None:
    stats["runtime.step.successors"] += len(result)
    if active.get("runtime.verify_subject_reduction"):
        stats["runtime.verify_subject_reduction.successors"] += len(result)


def _wellformed(stats, result, args, active) -> None:
    if active.get("runtime.verify_subject_reduction"):
        stats["runtime.verify_subject_reduction.systems"] += 1


def _traces(stats, result, args, active) -> None:
    if active.get("runtime.verify_safety"):
        stats["runtime.verify_safety.traces"] += len(result)


def _satisfies(stats, result, args, active) -> None:
    stats["policy_dfa.satisfies_dfa." + result.verdict] += 1


def _safety(stats, result, args, active) -> None:
    stats["runtime.verify_safety.findings"] += len(result.findings)


COUNTS = {
    "runtime.allows": _allows,
    "runtime.step": _step,
    "runtime.wellformed": _wellformed,
    "runtime.agent_traces": _traces,
    "policy_dfa.lang_words": _traces,
    "policy_dfa.satisfies_dfa": _satisfies,
    "runtime.verify_safety": _safety,
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
        self.stats: Counter = Counter()  # "<layer>.calls", "<layer>.self_s", named counts
        self.active: dict[str, bool] = {}
        self.stack: list[list] = []      # [span id, child seconds]
        self.op_id = -1
        self.span_id = array("i")  # ids count span starts; rows are written as spans end
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "membranes" or name.startswith("membranes.")) and m is not None]
        for index, name in enumerate(self.names):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"membranes.{mod}"), fn)
            wrapper = self._wrap(index, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, index: int, name: str, fn):
        active, stack, stats = self.active, self.stack, self.stats
        hook = COUNTS.get(name)
        calls, self_s = name + ".calls", name + ".self_s"

        def wrapper(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = True
            span = self.spans
            self.spans += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] = False
                if stack:
                    stack[-1][1] += end - start
                stats[calls] += 1
                stats[self_s] += end - start - frame[1]
                self.span_id.append(span)
                self.span_name.append(index)
                self.span_parent.append(parent)
                self.span_op.append(self.op_id)
                self.span_start.append(start)
                self.span_end.append(end)
            if hook is not None:
                hook(stats, result, args, active)
            return result

        return wrapper

    def write_spans(self, path) -> int:
        """Write recorded spans as tab-separated rows; returns how many."""
        n = len(self.span_name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(n):
                f.write(f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                        f"{self.span_op[i]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
        return n
