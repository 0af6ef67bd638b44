"""Regression gate: compare two sets of end-to-end runs.

    python3 benchmarks/e2e/compare.py A/runs.json B/runs.json

Each file is what ``run.py --out DIR`` appends to (``--trace 0`` runs;
repeat the command to add repeats).  ``A`` is the base, ``B`` the
candidate.  Per workload and end-to-end metric this prints both medians,
the ratio ``B / A``, the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``unresolved`` — the spread across repeats (distance between the first
  and third quartile, as a share of the median) exceeds the bound on
  either side, so the runs cannot tell;
* ``worse`` / ``better`` — ``B``'s median is worse / better than ``A``'s
  by more than the bound;
* ``same`` — anything in between.

Exits non-zero when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load_spec() -> dict:
    return json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [one value per repeat]}}`` of the file's
    untraced runs."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(Path(path).read_text()):
        if run.get("trace"):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def verdict(base: list[float], candidate: list[float], better: str,
            bound: float) -> tuple[str, float]:
    a, b = statistics.median(base), statistics.median(candidate)
    ratio = b / a
    if max(spread(base), spread(candidate)) > bound:
        return "unresolved", ratio
    # how much worse the candidate is, as a share of the base
    loss = ratio - 1 if better == "lower" else 1 - ratio
    if loss > bound:
        return "worse", ratio
    if loss < -bound:
        return "better", ratio
    return "same", ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, candidate = load(argv[0]), load(argv[1])
    spec = load_spec()
    worse = 0
    print(f"{'workload':<16} {'metric':<18} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in candidate:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base[workload].get(name)
            b = candidate[workload].get(name)
            if not a or not b:
                continue
            outcome, ratio = verdict(a, b, metric["better"],
                                     metric["bound"])
            worse += outcome == "worse"
            print(f"{workload:<16} {name:<18} "
                  f"{statistics.median(a):>12.4f} "
                  f"{statistics.median(b):>12.4f} {ratio:>7.3f} "
                  f"{metric['bound']:>6.2f} {spread(a):>9.3f} "
                  f"{spread(b):>9.3f}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
