"""Deterministic verification reports and the sweep driver.

A report is the canonical-JSON record of one full verification run: the
exact configuration, one record per check in a fixed order, and the ids of
any checks skipped because validation failed.  Identical inputs produce
byte-identical JSON; per-stage timings are available but excluded from the
canonical form.
"""

from __future__ import annotations

import json
import time

from .checks import CLAIMS, FAIL, PASS, WARN, CheckRecord
from .cone import EffectiveCone, cone_checks
from .errors import InvalidSetting
from .fieldgeom import (
    Config,
    generate_config,
    generate_config_smallest_q,
    next_valid_q,
    validate_config,
)
from .lattice import BlowupLattice, lattice_checks
from .rigidity import verify_rigidity
from .vectorfields import extra_q_vanishing, verify_vanishing

CHECK_ORDER = list(CLAIMS)


class VerificationReport:
    def __init__(
        self,
        config: dict,
        records: list[CheckRecord] | None = None,
        skipped: list[str] | None = None,
    ):
        self.config = config
        self.records = records if records is not None else []
        self.skipped = skipped if skipped is not None else []
        ids = [rec.check_id for rec in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate check ids in report: {ids}")

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, WARN: 0}
        for rec in self.records:
            out[rec.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.counts[FAIL] else 0

    def to_dict(self, timings: bool = False) -> dict:
        return {
            "config": self.config,
            "checks": [rec.to_dict(timings=timings) for rec in self.records],
            "skipped": list(self.skipped),
            "summary": self.counts,
        }

    def to_json(self, timings: bool = False) -> str:
        return json.dumps(
            self.to_dict(timings=timings),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )

    def to_markdown(self, timings: bool = False) -> str:
        lines = ["# Verification report", "", "## Configuration", "",
                 "```json", json.dumps(self.config, sort_keys=True, indent=2), "```",
                 "", "## Checks", ""]
        header = "| check | status | computed | expected |"
        sep = "|---|---|---|---|"
        if timings:
            header += " ms |"
            sep += "---|"
        lines += [header, sep]
        for rec in self.records:
            row = (
                f"| {rec.check_id} | {rec.status} "
                f"| {json.dumps(rec.computed, sort_keys=True, default=str)} "
                f"| {json.dumps(rec.expected, sort_keys=True, default=str)} |"
            )
            if timings:
                ms = f"{rec.elapsed_ms:.1f}" if rec.elapsed_ms is not None else ""
                row += f" {ms} |"
            lines.append(row)
        for rec in self.records:
            if rec.detail:
                lines += ["", f"- `{rec.check_id}`: {rec.detail}"]
        if self.skipped:
            lines += ["", f"Skipped (validation failed): {', '.join(self.skipped)}"]
        c = self.counts
        lines += ["", f"**{c[PASS]} PASS, {c[FAIL]} FAIL, {c[WARN]} WARN**", ""]
        return "\n".join(lines)


def run_all(
    config: Config,
    draws: int = 1000,
    extra_q: int | None = None,
) -> VerificationReport:
    """The full check suite in deterministic order.

    Every stage reads the marked set and its per-axis stabilizers from the
    config, which builds each once.  Validation failures stop the run; the
    remaining check ids are listed as skipped and the report carries exit
    code 1.  draws must be at least 1, so that the sampled checks can fail.
    """
    if draws < 1:
        raise InvalidSetting(f"draws must be a positive integer, got {draws}")
    records: list[CheckRecord] = []

    def staged(fn):
        t0 = time.perf_counter()
        recs = fn()
        dt = (time.perf_counter() - t0) * 1000.0
        recs = recs if isinstance(recs, list) else [recs]
        for rec in recs:
            rec.elapsed_ms = dt / len(recs)
        records.extend(recs)
        return recs

    validation = staged(lambda: validate_config(config))
    if any(rec.status == FAIL for rec in validation):
        emitted = {rec.check_id for rec in records}
        skipped = [cid for cid in CHECK_ORDER if cid not in emitted]
        return VerificationReport(config.to_dict(), records, skipped)

    lattice = BlowupLattice(config)
    staged(lambda: lattice_checks(lattice, draws=draws))
    cone = EffectiveCone(lattice)
    staged(lambda: cone_checks(cone, draws=draws))
    staged(lambda: verify_rigidity(config))
    staged(lambda: verify_vanishing(config))
    if extra_q is not None:
        staged(lambda: extra_q_vanishing(config, extra_q))
        skipped = []
    else:
        skipped = ["vectorfields.kernel_extra"]
    return VerificationReport(config.to_dict(), records, skipped)


# ----------------------------------------------------------------------
# sweeps

def default_s(n: int, r: int) -> tuple[int, ...]:
    """Canonical distinct orbit counts: 1..r, bumped to (2,3) when n = r = 2
    so that n*s_i >= 3 holds."""
    if n == 2 and r == 2:
        return (2, 3)
    return tuple(range(1, r + 1))


class SweepCase:
    """One sweep case: n, r, s, the field size q and the generation seed."""

    __slots__ = ("n", "r", "s", "q", "seed")

    def __init__(self, n: int, r: int, s: tuple[int, ...], q: int | None = None,
                 seed: int = 0):
        self.n = n
        self.r = r
        self.s = s
        self.q = q  # None: smallest workable prime
        self.seed = seed

    def __repr__(self):
        return (f"SweepCase(n={self.n!r}, r={self.r!r}, s={self.s!r}, q={self.q!r}, "
                f"seed={self.seed!r})")

    @property
    def key(self) -> str:
        qtxt = str(self.q) if self.q is not None else "auto"
        stxt = ",".join(str(x) for x in self.s)
        return f"n={self.n} r={self.r} s=({stxt}) q={qtxt} seed={self.seed}"


def resolve_case(case: SweepCase) -> Config:
    if case.q is None:
        return generate_config_smallest_q(case.n, case.r, case.s, seed=case.seed)
    return generate_config(case.n, case.r, case.s, case.q, seed=case.seed)


def _sweep_worker(args) -> tuple[str, dict]:
    case, draws, extra = args
    try:
        config = resolve_case(case)
        extra_q = next_valid_q(config.n, config.s, config.q) if extra else None
        report = run_all(config, draws=draws, extra_q=extra_q)
        return case.key, report.to_dict()
    except Exception as exc:  # one bad case must not abort the sweep
        return case.key, {"error": f"{type(exc).__name__}: {exc}"}


class SweepResult:
    def __init__(self, rows: list[tuple[str, dict]]):
        self.rows = rows

    @property
    def aggregate(self) -> dict:
        per_check: dict[str, dict[str, int]] = {}
        errors = 0
        for _, payload in self.rows:
            if "error" in payload:
                errors += 1
                continue
            for rec in payload["checks"]:
                bucket = per_check.setdefault(
                    rec["check_id"], {PASS: 0, FAIL: 0, WARN: 0}
                )
                bucket[rec["status"]] += 1
        return {"cases": len(self.rows), "errors": errors, "per_check": per_check}

    @property
    def exit_code(self) -> int:
        for _, payload in self.rows:
            if "error" in payload:
                return 1
            if payload["summary"][FAIL]:
                return 1
        return 0

    def to_dict(self) -> dict:
        return {"rows": dict(self.rows), "aggregate": self.aggregate}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def sweep(
    cases: list[SweepCase],
    jobs: int = 1,
    draws: int = 200,
    extra_q: bool = False,
) -> SweepResult:
    """One report per case; failures in one case do not stop the others.
    Results are keyed and sorted, so the output is order-stable regardless
    of worker completion order.  More than one job runs the cases in forked
    workers, or serially where the process cannot fork safely.  A repeated
    case key raises InvalidSetting, since a row is keyed by its case."""
    first: dict[str, int] = {}
    for idx, case in enumerate(cases):
        seen = first.setdefault(case.key, idx)
        if seen != idx:
            raise InvalidSetting(f"sweep case {idx} repeats case {seen}")
    work = [(case, draws, extra_q) for case in cases]
    if jobs <= 1 or len(work) <= 1:
        rows = [_sweep_worker(w) for w in work]
    else:
        from .forkpool import fork_sweep  # `verify` never loads the pool

        rows = fork_sweep(work, min(jobs, len(work)), _sweep_worker)
    rows.sort(key=lambda kv: kv[0])
    return SweepResult(rows)


def product_cases(
    ns: list[int], rs: list[int], seed: int = 0, variants: int = 1
) -> list[SweepCase]:
    """The (n, r) grid with canonical s, plus optional shifted-s variants."""
    cases = []
    for n in ns:
        for r in rs:
            s0 = default_s(n, r)
            for v in range(variants):
                s = tuple(x + v for x in s0)
                cases.append(SweepCase(n=n, r=r, s=s, q=None, seed=seed))
    return cases
