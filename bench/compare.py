"""Compare two ledgers written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json

A is the baseline (the parent commit), B the candidate.  One row per
(workload, end-to-end metric) with both medians and quartiles and a verdict:

``ok``          B's median is no worse than A's by more than the metric's bound
``regressed``   it is worse by more than the bound
``unresolved``  the inter-quartile spread of either side exceeds the bound, so
                the runs cannot tell — unless every B sample beats every A
                sample, which no spread can explain away

Exact counts (updates, commits, ``weights_sha256``, SMC calls…) are listed
when they differ; whether a difference is intended is for the reader to say.
Exits non-zero on any ``regressed`` row or on a rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from stats import spread


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Judge one metric: ``a``/``b`` are its ledger rows (bound, better, samples)."""
    bound = a["bound"]
    higher = a["better"] == "higher"
    worse = a["median"] - b["median"] if higher else b["median"] - a["median"]
    noisy = max(spread(a["samples"]), spread(b["samples"])) > bound
    if worse > bound * abs(a["median"]):
        return "unresolved" if noisy else "regressed"
    if not noisy:
        return "ok"
    clear_win = (
        min(b["samples"]) > max(a["samples"])
        if higher
        else max(b["samples"]) < min(a["samples"])
    )
    return "ok" if clear_win else "unresolved"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for every (workload, metric) the two ledgers share."""
    rows: List[Dict[str, Any]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            rows.append({"workload": workload, "metric": "-", "verdict": "missing"})
            continue
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"][metric]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": row_a["unit"],
                    "a": row_a,
                    "b": row_b,
                    "verdict": verdict(row_a, row_b),
                }
            )
        share_a, share_b = entry_a["ops"]["failed_share"], entry_b["ops"]["failed_share"]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "a_value": share_a,
                "b_value": share_b,
                "verdict": "regressed" if share_b > share_a else "ok",
            }
        )
        for key, value in entry_a["exact"].items():
            if entry_b["exact"].get(key) != value:
                rows.append(
                    {
                        "workload": workload,
                        "metric": f"exact:{key}",
                        "a_value": value,
                        "b_value": entry_b["exact"].get(key),
                        "verdict": "changed",
                    }
                )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':14s} {'metric':16s} {'A median [q1, q3]':40s} "
        f"{'B median [q1, q3]':40s} {'B/A':>7s}  verdict"
    ]
    for row in rows:
        if "a" in row:
            cells = [
                f"{r['median']:.6g} [{r['q1']:.6g}, {r['q3']:.6g}] {row['unit']}"
                for r in (row["a"], row["b"])
            ]
            ratio = f"{row['b']['median'] / row['a']['median']:7.3f}"
        else:
            cells = [str(row.get("a_value", ""))[:38], str(row.get("b_value", ""))[:38]]
            ratio = " " * 7
        lines.append(
            f"{row['workload']:14s} {row['metric']:16s} {cells[0]:40s} {cells[1]:40s} "
            f"{ratio}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    rows = compare(*ledgers)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
