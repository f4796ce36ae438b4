"""Compare two results written by run.py, metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

The inputs are the result-*.json files under .perfbench_out/. A warning
is printed when the two ran on different kernel backends, workloads or
environments, because their numbers are then not comparable.
"""

import json
import sys


def compare(base: dict, new: dict) -> list[str]:
    lines = []
    for key in ("backend", "workload", "nproc", "python", "numpy", "threads"):
        if base["env"].get(key) != new["env"].get(key):
            lines.append(f"WARNING: different {key}: {base['env'].get(key)} vs "
                         f"{new['env'].get(key)}")
    lines.append(f"{'metric':<46} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            lines.append(f"{name:<46} {b['value']!s:>14} {'missing':>14}")
            continue
        bv, nv = b["value"], n["value"]
        ratio = f"{nv / bv:.3f}" if bv and nv is not None else "-"
        lines.append(f"{name:<46} {bv!s:>14.12} {nv!s:>14.12} {ratio:>9} {b['unit']}")
    for label, r in (("base", base), ("new", new)):
        lines.append(f"{label}: attempted={r['attempted']} failed={r['failed']} "
                     f"seed={r['env']['seed']} sha={r['env']['git_sha']}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
