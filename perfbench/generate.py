"""Write one workload's inputs, in a process of its own, so that the
process that runs the ops (`run.py`) holds only the program and the runner.

    python3 perfbench/generate.py WORKLOAD SEED DIR

Run from the repository root. Writes every input file under DIR, and
`DIR/ops.json`: the ops in the order they cycle, each with the paths of
its files (relative to the root) and its known answer, plus the set-up
manifest that `setup_once.py` reads.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def write_inputs(pool, work: Path, root: Path) -> tuple[list[dict], list[dict]]:
    """Write every input file; return the op list and the set-up manifest."""
    ops, manifest = [], []
    for inp in pool:
        paths = {}
        for key, text in inp.files.items():
            path = work / inp.name / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            paths[key] = str(path.relative_to(root))
        bundle = next((p for k, p in paths.items() if k.endswith(".dfa")), None)
        for key in sorted(paths, key=lambda k: not k.endswith(".dfa")):  # bundles parse first
            manifest.append({"path": paths[key], "kind": key.rsplit(".", 1)[1],
                             "regime": inp.regime, "dfa": bundle})
        for op in inp.ops:
            ops.append({"label": f"{inp.name}:{op.kind}", "kind": op.kind,
                        "argv": [paths.get(a, a) for a in op.argv], "answer": op.answer})
    return ops, manifest


def main(workload: str, seed: str, work: str) -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(HERE)]
    import workloads

    ops, manifest = write_inputs(workloads.GENERATORS[workload](int(seed)), Path(work).resolve(), root)
    (Path(work) / "ops.json").write_text(json.dumps({"ops": ops, "manifest": manifest}),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
