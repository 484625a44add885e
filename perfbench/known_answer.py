"""The paper's known answer, as a check on one verification report.

A case is decided when `verify` exits 0 and its report says what the paper
claims: no FAIL, exactly one WARN and it is `rigidity.census_lines`, an
automorphism group of order n^r, a vector-field kernel of dimension r, and
a passing `vectorfields.kernel_extra` when a second field was requested.
The answer comes from the claim, not from a byte hash of today's output, so
claim texts and check order may change without breaking the benchmark.

Run as a script on a report that carries the answer, it confirms that each
sabotage in `sabotaged()` is caught:

    python3 perfbench/known_answer.py REPORT.json N R [--extra-q]
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

EXPECTED_WARN = "rigidity.census_lines"
EXTRA = "vectorfields.kernel_extra"


def problems(report: dict, n: int, r: int, extra_q: bool) -> list[str]:
    """Reasons the report differs from the known answer; empty when it agrees."""
    out = []
    cfg = report.get("config", {})
    if (cfg.get("n"), cfg.get("r")) != (n, r):
        out.append(f"report is for n={cfg.get('n')} r={cfg.get('r')}, not n={n} r={r}")
    checks = {rec["check_id"]: rec for rec in report.get("checks", [])}
    statuses = [rec["status"] for rec in checks.values()]
    counts = {s: statuses.count(s) for s in ("PASS", "FAIL", "WARN")}
    if counts["PASS"] + counts["FAIL"] + counts["WARN"] != len(statuses):
        out.append("unknown status in records")
    if report.get("summary") != counts:
        out.append(f"summary {report.get('summary')} disagrees with records {counts}")
    failed = sorted(cid for cid, rec in checks.items() if rec["status"] == "FAIL")
    if failed:
        out.append(f"FAIL: {failed}")
    warned = sorted(cid for cid, rec in checks.items() if rec["status"] == "WARN")
    if warned != [EXPECTED_WARN]:
        out.append(f"WARN set {warned}, expected [{EXPECTED_WARN!r}]")
    allowed_skips = [] if extra_q else [EXTRA]
    if sorted(report.get("skipped", [])) != allowed_skips:
        out.append(f"skipped {report.get('skipped')}, expected {allowed_skips}")

    aut = checks.get("rigidity.automorphisms")
    order = (aut or {}).get("computed")
    order = order.get("order") if isinstance(order, dict) else None
    if aut is None or aut["status"] != "PASS" or order != n ** r:
        out.append(f"automorphism group order {order}, expected {n ** r}")
    kernel = checks.get("vectorfields.kernel")
    dim = (kernel or {}).get("computed")
    dim = dim.get("dimension") if isinstance(dim, dict) else None
    if kernel is None or kernel["status"] != "PASS" or dim != r:
        out.append(f"vector-field kernel dimension {dim}, expected {r}")
    if extra_q and (EXTRA not in checks or checks[EXTRA]["status"] != "PASS"):
        out.append(f"{EXTRA} requested but did not PASS")
    return out


def sabotaged(report: dict, n: int, r: int) -> dict[str, dict]:
    """Copies of a report that carries the answer, each broken in one way."""
    out = {}
    first_pass = next(i for i, rec in enumerate(report["checks"]) if rec["status"] == "PASS")

    flipped = copy.deepcopy(report)
    flipped["checks"][first_pass]["status"] = "FAIL"
    flipped["summary"]["PASS"] -= 1
    flipped["summary"]["FAIL"] += 1
    out["flipped_status"] = flipped

    extra_warn = copy.deepcopy(report)
    extra_warn["checks"][first_pass]["status"] = "WARN"
    extra_warn["summary"]["PASS"] -= 1
    extra_warn["summary"]["WARN"] += 1
    out["extra_warn"] = extra_warn

    wrong_order = copy.deepcopy(report)
    for rec in wrong_order["checks"]:
        if rec["check_id"] == "rigidity.automorphisms":
            rec["computed"]["order"] = n ** r + 1
    out["wrong_group_order"] = wrong_order
    return out


def self_test(report: dict, n: int, r: int, extra_q: bool) -> list[str]:
    """Empty when the report is decided and every sabotaged copy is not."""
    found = [f"genuine report undecided: {p}" for p in problems(report, n, r, extra_q)]
    for name, bad in sabotaged(report, n, r).items():
        if not problems(bad, n, r, extra_q):
            found.append(f"sabotage {name!r} was counted as decided")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="known-answer checker self-test")
    parser.add_argument("report")
    parser.add_argument("n", type=int)
    parser.add_argument("r", type=int)
    parser.add_argument("--extra-q", action="store_true")
    args = parser.parse_args(argv)
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    found = self_test(report, args.n, args.r, args.extra_q)
    for line in found:
        print(line, file=sys.stderr)
    print("self-test", "FAILED" if found else "passed: every sabotage is undecided")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
