"""One set-up sample, run in a fresh interpreter by `run.py`.

Times `import membranes.cli` plus parsing every input file of a workload
once, then times run.py's reference kernel, and prints both in seconds,
so that the caller can scale the sample to the reference machine speed.
The manifest lists each file with what it holds and, for systems, the
regime and DFA bundle to parse it with. Exits 1 if a file does not parse.

    python3 perfbench/setup_once.py MANIFEST.json
"""
import json
import statistics
import sys
from time import perf_counter

from run import _reference


def main(manifest_path: str) -> int:
    start = perf_counter()
    import membranes.cli  # noqa: F401  (the import is part of what is timed)
    from membranes.syntax import parse_dfa_bundle, parse_system, parse_theta

    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    bundles = {}
    for entry in manifest:
        with open(entry["path"], encoding="utf-8") as f:
            text = f.read()
        if entry["kind"] == "dfa":
            result = bundles[entry["path"]] = parse_dfa_bundle(text, entry["path"])
        elif entry["kind"] == "theta":
            result = parse_theta(text, entry["path"])
        else:
            result = parse_system(text, entry["regime"], bundles.get(entry["dfa"]), entry["path"])
        if isinstance(result, list):
            print(f"{entry['path']}: {result[0]}", file=sys.stderr)
            return 1
    setup = perf_counter() - start
    reference = []
    for _ in range(5):
        start = perf_counter()
        _reference()
        reference.append(perf_counter() - start)
    print(setup, statistics.median(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
