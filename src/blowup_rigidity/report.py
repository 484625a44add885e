"""Deterministic verification reports and the sweep driver.

A report is the canonical-JSON record of one full verification run: the
exact configuration, one record per check in a fixed order, and the ids of
any checks skipped because validation failed.  Identical inputs produce
byte-identical JSON; per-stage timings are available but excluded from the
canonical form.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

from .checks import CLAIMS, FAIL, PASS, WARN, CheckRecord, make_record
from .cone import EffectiveCone
from .errors import InvalidSetting, NDoesNotDivide, NotPrime, TooSmallField
from .fieldgeom import (
    Config,
    Lcg,
    generate_config,
    generate_config_smallest_q,
    is_prime,
    primitive_nth_root,
    sample_base,
    validate_config,
)
from .lattice import BlowupLattice
from .rigidity import verify_rigidity
from .vectorfields import derivation_kernel, verify_vanishing

CHECK_ORDER = list(CLAIMS)


def config_seed(config: Config, salt: str) -> int:
    """Deterministic draw seed derived from the exact configuration."""
    digest = hashlib.sha256((config.canonical_json() + salt).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def lattice_checks(lattice: BlowupLattice, draws: int = 1000) -> list[CheckRecord]:
    cfg = lattice.config
    r = cfg.r
    records = []

    # each basis curve's pushforward and pairing row; each E_p also goes
    # through intersect, against its own exceptional line and every strict
    # line, so a wrong exc_divisor class fails here as well
    names = [f"piH{j}" for j in range(1, r + 1)] + [f"E[{p.key}]" for p in lattice.points]

    def row_mismatches(label, c, want):
        got = lattice.pushforward(c) + lattice.exc_pairings(c)
        return [f"{label}.{name}" for name, x, y in zip(names, got, want) if x != y]

    # the expected rows with one nonzero E-pairing are slices of one zero row
    zeros = (0,) * lattice.size
    bad = []
    for i in range(1, r + 1):
        want = [1 if j == i else 0 for j in range(1, r + 1)]
        want += [1 if p.axis == i else 0 for p in lattice.points]
        bad += row_mismatches(f"lt{i}", lattice.line(i), want)
    for k, p in enumerate(lattice.points):
        want = (0,) * r + zeros[:k] + (-1,) + zeros[k + 1:]
        bad += row_mismatches(f"e[{p.key}]", lattice.exc_curve(p), want)
    for p in lattice.points:
        ed = lattice.exc_divisor(p)
        if lattice.intersect(lattice.exc_curve(p), ed) != -1:
            bad.append(f"e[{p.key}].E[{p.key}]")
        for i in range(1, r + 1):
            if lattice.intersect(lattice.line(i), ed) != (1 if p.axis == i else 0):
                bad.append(f"lt{i}.E[{p.key}]")
    ok = not bad
    records.append(
        make_record(
            "lattice.pairing_blocks",
            PASS if ok else FAIL,
            "all basis pairings as stated" if ok else bad,
            "identity / minus-identity diagonal blocks, membership rectangle",
        )
    )

    self_vals = {
        f"axis_{i}": lattice.intersect(lattice.line(i), lattice.strict_h(i))
        for i in range(1, r + 1)
    }
    records.append(
        make_record(
            "lattice.strict_h_self",
            PASS if all(v == 1 for v in self_vals.values()) else FAIL,
            self_vals,
            {f"axis_{i}": 1 for i in range(1, r + 1)},
        )
    )

    cross_vals = {}
    cross_want = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i != j:
                key = f"H{i}.l{j}"
                cross_vals[key] = lattice.intersect(lattice.line(j), lattice.strict_h(i))
                cross_want[key] = -cfg.n * cfg.s[j - 1]
    records.append(
        make_record(
            "lattice.strict_h_cross",
            PASS if cross_vals == cross_want else FAIL,
            cross_vals,
            cross_want,
        )
    )

    exc_ok = all(
        lattice.intersect(lattice.exc_curve(p), lattice.strict_h(i))
        == (0 if p.axis == i else 1)
        for p in lattice.points
        for i in range(1, r + 1)
    )
    records.append(
        make_record(
            "lattice.strict_h_exc",
            PASS if exc_ok else FAIL,
            "membership pattern holds at every (p, i)" if exc_ok else "mismatch",
            "1 off the axis, 0 on the axis",
        )
    )

    gamma_ok = True
    pairs = 0
    for i in range(1, r + 1):
        unit = tuple(1 if j == i else 0 for j in range(1, r + 1))
        for k, p in enumerate(lattice.points):
            if p.axis == i:
                continue
            pairs += 1
            g = lattice.gamma(p, i)
            want = zeros[:k] + (1,) + zeros[k + 1:]
            if lattice.exc_pairings(g) != want or lattice.pushforward(g) != unit:
                gamma_ok = False
    records.append(
        make_record(
            "lattice.gamma_pairings",
            PASS if gamma_ok else FAIL,
            {"admissible_pairs": pairs, "all_identities_hold": gamma_ok},
            {"admissible_pairs": pairs, "all_identities_hold": True},
        )
    )

    rng = Lcg(config_seed(cfg, "expansion"))
    expansion_ok = True
    bounds = (15,) * (r + lattice.size)
    for _ in range(draws):
        vec = tuple([x - 5 for x in rng.take(bounds)])
        a, eps = vec[:r], vec[r:]
        c = lattice.expand_in_basis(a, eps)
        if lattice.pushforward(c) != a or lattice.exc_pairings(c) != eps:
            expansion_ok = False
            break
    records.append(
        make_record(
            "lattice.multidegree_expansion",
            PASS if expansion_ok else FAIL,
            {"draws": draws, "all_exact": expansion_ok},
            {"draws": draws, "all_exact": True},
        )
    )

    canon = {f"axis_{i}": lattice.canonical_pullback_check(i) for i in range(1, r + 1)}
    records.append(
        make_record(
            "lattice.canonical_degree",
            PASS if all(v == -2 for v in canon.values()) else FAIL,
            canon,
            {f"axis_{i}": -2 for i in range(1, r + 1)},
        )
    )
    return records


def generators_extremal(cone: EffectiveCone) -> CheckRecord:
    """The cone.generators_extremal record, from one is_extremal test per
    orbit of `GeneratorSet.orbits`.

    Extremality is constant on those orbits (see `EffectiveCone`), and each
    swap behind an orbit is checked on the generator set before it is used,
    so a broken symmetry splits orbits and never leaves a generator
    untested.  A representative that is not extremal puts its whole orbit
    on the list, which is then in canonical order, the same list as a test
    of every generator gives.
    """
    gens = cone.genset.generators
    non_extremal_at: list[int] = []
    for orbit in cone.genset.orbits():
        if not cone.is_extremal(gens[orbit[0]].cls):
            non_extremal_at += orbit
    non_extremal = [gens[g].label for g in sorted(non_extremal_at)]
    return make_record(
        "cone.generators_extremal",
        PASS if not non_extremal else FAIL,
        {"generators": len(gens), "non_extremal": non_extremal},
        {"generators": len(gens), "non_extremal": []},
    )


def cone_checks(cone: EffectiveCone, draws: int = 1000) -> list[CheckRecord]:
    lattice = cone.lattice
    cfg = lattice.config
    records = []

    distinct = len({(g.cls.l, g.cls.e) for g in cone.genset})
    records.append(
        make_record(
            "cone.generator_count",
            PASS if distinct == cone.genset.expected_count else FAIL,
            distinct,
            cone.genset.expected_count,
        )
    )

    phis = [g.phi for g in cone.genset]
    records.append(
        make_record(
            "cone.phi_positive",
            PASS if all(x >= 1 for x in phis) else FAIL,
            {"min_phi": min(phis), "max_phi": max(phis)},
            {"min_phi": ">= 1"},
        )
    )

    records.append(generators_extremal(cone))

    p0 = lattice.points[0]
    samples = {
        "lt1+e": lattice.line(1) + lattice.exc_curve(p0),
        "2e": lattice.exc_curve(p0).scale(2),
        "lt1+lt2": lattice.line(1) + lattice.line(2),
    }
    split_counts = {
        name: len(cone.two_part_decompositions(c)) for name, c in samples.items()
    }
    records.append(
        make_record(
            "cone.sample_splits",
            PASS if all(v >= 1 for v in split_counts.values()) else FAIL,
            split_counts,
            "each >= 1 (so none of these classes is extremal)",
        )
    )

    rng = Lcg(config_seed(cfg, "case2"))
    case2_ok = True
    case2_draws = min(draws, 200)
    bounds = (3,) * cfg.r
    for _ in range(case2_draws):
        a = tuple(rng.take(bounds))
        eps = tuple(rng.take([a[axis - 1] + 1 for axis in lattice.axis_of]))
        target = lattice.expand_in_basis(a, eps)
        dec = cone.member(target)
        if dec is None:
            case2_ok = False
            break
        resum = dec.resum(cone.genset)
        if (resum.l, resum.e) != (target.l, target.e):
            case2_ok = False
            break
    records.append(
        make_record(
            "cone.case2_membership",
            PASS if case2_ok else FAIL,
            {"draws": case2_draws, "all_members_resum": case2_ok},
            {"draws": case2_draws, "all_members_resum": True},
        )
    )

    rng = Lcg(config_seed(cfg, "case3"))
    case3_ok = True
    # a point, then a_i for each axis i but the point's own (a_j = 0), then
    # the excess at the point
    bounds = (lattice.size,) + (4,) * cfg.r
    for _ in range(draws):
        k, *rest, eps_q = rng.take(bounds)
        q0 = lattice.points[k]
        rest.insert(q0.axis - 1, 0)
        if not cone.case3_identity(q0, tuple(rest), eps_q):
            case3_ok = False
            break
    records.append(
        make_record(
            "cone.case3_identity",
            PASS if case3_ok else FAIL,
            {"draws": draws, "all_exact": case3_ok},
            {"draws": draws, "all_exact": True},
        )
    )
    return records


def next_valid_q(n: int, s: tuple[int, ...], after: int) -> int:
    """Smallest prime q > after with q = 1 (mod n) and enough scaling orbits."""
    q = after + 1
    while True:
        if is_prime(q) and (q - 1) % n == 0 and (q - 1) // n >= max(s):
            return q
        q += 1


def check_extra_q(n: int, s: tuple[int, ...], q2: int) -> None:
    """Refuse a second field that is not prime, not 1 (mod n), or short of
    scaling orbits for the counts s."""
    if not is_prime(q2):
        raise NotPrime(f"q2 = {q2} is not prime")
    if n < 1 or (q2 - 1) % n:
        raise NDoesNotDivide(f"q2 = {q2} is not 1 (mod {n})")
    if (q2 - 1) // n < max(s, default=0):
        raise TooSmallField(f"q2 = {q2} has too few scaling orbits")


def extra_q_vanishing(config: Config, q2: int) -> CheckRecord:
    """Re-run the kernel computation over a second field with the same
    (n, r, s).  Genericity is not needed for this check, so the base table
    is resampled with orbit-disjointness only."""
    check_extra_q(config.n, config.s, q2)
    zeta2 = primitive_nth_root(q2, config.n)
    rng = Lcg(config_seed(config, f"extra_q={q2}"))
    base = None
    while base is None:
        base = sample_base(config.n, config.s, q2, zeta2, rng)
    cfg2 = Config(n=config.n, r=config.r, s=config.s, q=q2, zeta=zeta2, base=base)
    result = derivation_kernel(cfg2)
    ok = result.dimension == cfg2.r and result.basis_is_scalar()
    return make_record(
        "vectorfields.kernel_extra",
        PASS if ok else FAIL,
        {"q": q2, "rank": result.rank, "dimension": result.dimension,
         "scalar_basis": result.basis_is_scalar()},
        {"q": q2, "rank": 3 * cfg2.r, "dimension": cfg2.r, "scalar_basis": True},
    )


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

ENV_JOBS = "BLOWUP_RIGIDITY_JOBS"


def default_s(n: int, r: int) -> tuple[int, ...]:
    """Canonical distinct orbit counts: 1..r, bumped to (2,3) when n = r = 2
    so that n*s_i >= 3 holds."""
    if n == 2 and r == 2:
        return (2, 3)
    return tuple(range(1, r + 1))


class SweepCase:
    """One sweep case; compares and hashes by all five fields."""

    __slots__ = ("n", "r", "s", "q", "seed")

    def __init__(self, n: int, r: int, s: tuple[int, ...], q: int | None = None,
                 seed: int = 0):
        self.n = n
        self.r = r
        self.s = s
        self.q = q  # None: smallest workable prime
        self.seed = seed

    def _key(self) -> tuple:
        return (self.n, self.r, self.s, self.q, self.seed)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


def default_jobs() -> int:
    """The worker count from BLOWUP_RIGIDITY_JOBS, or 1 when it is unset."""
    env = os.environ.get(ENV_JOBS)
    if not env:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise InvalidSetting(f"{ENV_JOBS} must be a positive integer, got {env!r}")
    return jobs


def _can_fork() -> bool:
    """fork copies only the calling thread, so a child of a process with
    other live threads can start holding a lock that nothing releases."""
    if not hasattr(os, "fork"):
        return False
    threading = sys.modules.get("threading")
    return threading is None or threading.active_count() == 1


class _Worker:
    """The parent's side of one forked sweep worker: its pid, the pipe the
    parent deals case indices on (None once closed), the pipe rows come
    back on, the bytes of a row not yet complete, and the index of the case
    the worker holds (None when it holds none)."""

    __slots__ = ("pid", "tasks", "results", "buf", "case")

    def __init__(self, pid: int, tasks: int, results: int):
        self.pid = pid
        self.tasks = tasks
        self.results = results
        self.buf = b""
        self.case = None

    def close(self) -> None:
        os.close(self.results)
        if self.tasks is not None:
            os.close(self.tasks)


def _fork_worker(work: list, workers: dict[int, _Worker]) -> _Worker:
    """Fork a child that runs each case whose 4-byte index arrives on its
    task pipe and writes the row back as one JSON line, until the task pipe
    closes."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            # keep only its own two pipe ends, so that every other worker
            # sees end-of-file when the parent closes that worker's task pipe
            os.close(task_w)
            os.close(result_r)
            for w in workers.values():
                w.close()
            with open(result_w, "w", encoding="ascii") as out:
                while len(index := os.read(task_r, 4)) == 4:
                    row = _sweep_worker(work[int.from_bytes(index, "little")])
                    out.write(json.dumps(row, separators=(",", ":")) + "\n")
                    out.flush()
            status = 0
        finally:
            # no atexit handler runs, and no inherited buffer is flushed twice
            os._exit(status)
    os.close(task_r)
    os.close(result_w)
    return _Worker(pid, task_w, result_r)


def _fork_sweep(work: list, jobs: int) -> list[tuple[str, dict]]:
    """Run the cases in `jobs` forked workers, largest n * sum(s) * r first.

    The parent deals each worker one case index at a time and deals the
    next when its row comes back, so a row always belongs to the case its
    worker holds.  A worker that dies leaves an error row for that case,
    and a new worker is forked while cases remain; every worker is reaped
    before this returns.
    """
    import select  # only here: `verify` processes never need it

    # popped from the end: the largest case first, ties in grid order
    cost = [case.n * sum(case.s) * case.r for case, _, _ in work]
    pending = sorted(range(len(work)), key=lambda i: (cost[i], -i))
    rows: list = [None] * len(work)
    workers: dict[int, _Worker] = {}
    poller = select.poll()

    def deal(w: _Worker) -> None:
        if not pending:
            os.close(w.tasks)
            w.tasks = w.case = None
            return
        w.case = pending.pop()
        try:
            os.write(w.tasks, w.case.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # the worker is gone; its end-of-file makes the error row

    try:
        while pending or workers:
            while pending and len(workers) < jobs:
                w = _fork_worker(work, workers)
                workers[w.results] = w
                poller.register(w.results, select.POLLIN)
                deal(w)
            for fd, _ in poller.poll():
                w = workers[fd]
                data = os.read(fd, 1 << 16)
                if data:
                    *lines, w.buf = (w.buf + data).split(b"\n")
                    for line in lines:
                        rows[w.case] = tuple(json.loads(line))
                        deal(w)
                    continue
                poller.unregister(fd)
                del workers[fd]
                w.close()
                code = os.waitstatus_to_exitcode(os.waitpid(w.pid, 0)[1])
                if w.case is not None:
                    how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    rows[w.case] = (work[w.case][0].key, {"error": f"worker {how}"})
    finally:
        if workers:  # left by an exception: stop and reap the rest
            import signal

            for w in workers.values():
                os.kill(w.pid, signal.SIGKILL)
                os.waitpid(w.pid, 0)
                w.close()
    return rows


def sweep(
    cases: list[SweepCase],
    jobs: int | None = None,
    draws: int = 200,
    extra_q: bool = False,
) -> SweepResult:
    """One report per case; failures in one case do not stop the others.
    Results are keyed and sorted, so the output is order-stable regardless
    of worker completion order.  More than one job runs the cases in forked
    workers, or serially where the process cannot fork safely."""
    jobs = jobs if jobs is not None else default_jobs()
    work = [(case, draws, extra_q) for case in cases]
    if jobs <= 1 or len(work) <= 1 or not _can_fork():
        rows = [_sweep_worker(w) for w in work]
    else:
        rows = _fork_sweep(work, min(jobs, len(work)))
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
