"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory is a ``.perfbench_out/`` of one checkout.  Runs are
paired by workload, seed and trace flag; a pair whose workload
fingerprints differ — the generated sources, configurations or inputs
changed — is refused, because its difference would be a changed
workload, not a change in speed.  For every metric the medians of both
sides are printed with the change of the head against the base.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple


def _load(directory: str) -> Dict[str, dict]:
    runs = {}
    for path in glob.glob(os.path.join(directory, "report-*.json")):
        with open(path) as f:
            runs[os.path.basename(path)] = json.load(f)
    return runs


def compare(base_dir: str, head_dir: str) -> Tuple[List[str], List[str]]:
    """``(table lines, refusals)``."""
    base, head = _load(base_dir), _load(head_dir)
    refusals: List[str] = []
    groups: Dict[tuple, Dict[str, Tuple[list, list]]] = {}
    for name in sorted(set(base) & set(head)):
        b, h = base[name], head[name]
        if b["report"]["fingerprint"] != h["report"]["fingerprint"]:
            refusals.append(f"{name}: workload fingerprints differ "
                            f"({b['report']['fingerprint'][:12]} vs "
                            f"{h['report']['fingerprint'][:12]})")
            continue
        key = (b["report"]["workload"], name.rsplit("-", 1)[-1][:-5])
        metrics = groups.setdefault(key, {})
        for metric, entry in b["result"]["metrics"].items():
            other = h["result"]["metrics"].get(metric)
            if other is not None:
                pair = metrics.setdefault(metric, ([], []))
                pair[0].append(entry["value"])
                pair[1].append(other["value"])
    lines = []
    for (workload, trace), metrics in sorted(groups.items()):
        lines.append(f"{workload} ({trace})")
        for metric, (b_vals, h_vals) in sorted(metrics.items()):
            b_med, h_med = statistics.median(b_vals), statistics.median(h_vals)
            change = (f"{100.0 * (h_med - b_med) / abs(b_med):+8.2f}%"
                      if b_med else "       -")
            lines.append(f"  {metric:42s} {b_med:14.6g} {h_med:14.6g} "
                         f"{change}  (n={len(b_vals)})")
    return lines, refusals


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, refusals = compare(*argv)
    for refusal in refusals:
        print(f"refused: {refusal}", file=sys.stderr)
    print("\n".join(lines))
    return 1 if refusals else 0


if __name__ == "__main__":
    sys.exit(main())
