"""Compare two sets of recorded runs against the bounds in BENCHMARK.json.

    python -m benchmarks.e2e.compare SET_A SET_B

A set is a file of JSON lines written by ``run.py --record FILE`` (any
mix of workloads and seeds; traced and smoke records are ignored).  For
every workload x end-to-end metric the table shows each set's median and
quartiles (``statistics.quantiles(values, n=4)``), each set's own spread
(quartile distance over median) and the verdict for B against A:

``pass``        B's median is no worse than A's by more than the bound
``FAIL``        it is worse by more than the bound
``unresolved``  a set's own spread exceeds the bound, so the comparison
                decides nothing

Exit status is 1 if any cell fails, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced full-size runs."""
    cells: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if record.get("trace") or record.get("smoke"):
                continue
            for name, metric in record["result"]["metrics"].items():
                cells.setdefault((record["workload"], name), []).append(
                    metric["value"])
    return cells


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def compare(set_a: str, set_b: str, contract: dict) -> tuple[list[str], bool]:
    a, b = load(set_a), load(set_b)
    lines = [f"{'workload':<16}{'metric':<27}{'A median [q1, q3]':>34}"
             f"{'B median [q1, q3]':>34}{'spread A/B':>14}{'B vs A':>9}"
             f"{'bound':>7}  verdict"]
    failed = False
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                lines.append(f"{workload:<16}{metric['name']:<27}  missing")
                failed = True
                continue
            (ma, a1, a3, sa), (mb, b1, b3, sb) = summary(a[key]), summary(b[key])
            worse = (mb - ma) / abs(ma) if ma else 0.0
            if metric["better"] == "higher":
                worse = -worse
            if max(sa, sb) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "FAIL"
                failed = True
            else:
                verdict = "pass"
            lines.append(
                f"{workload:<16}{metric['name']:<27}"
                f"{f'{ma:.4f} [{a1:.4f}, {a3:.4f}]':>34}"
                f"{f'{mb:.4f} [{b1:.4f}, {b3:.4f}]':>34}"
                f"{f'{sa:.1%}/{sb:.1%}':>14}{worse:>+9.1%}"
                f"{metric['bound']:>7.2f}  {verdict}")
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    lines, failed = compare(argv[0], argv[1], contract)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
