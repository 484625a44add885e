"""Benchmark workloads: the cases each one verifies, generated from a seed.

Run as a script, this writes one workload's input files into a directory:

    python3 perfbench/cases.py --workload ladder --seed 1 --out DIR

and a manifest `DIR/cases.json` that `run.py` reads.  The script imports
the package and generates the configurations, so its wall time is the
benchmark's set-up time: interpreter start, package import and config
generation, before the first check runs.

Seed 1 reproduces the ROADMAP Baseline configurations.  Seed 7 is held
out: no change is developed on it, so later claims can be checked on it.
"""

from __future__ import annotations

import argparse
import json
import os

from blowup_rigidity.fieldgeom import Config
from blowup_rigidity.report import SweepCase, default_s, resolve_case

DEV_SEED = 1

# The tests' pinned fixtures (tests/conftest.py); used as-is on seed 1.
C0 = Config(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 2), (3, 4, 5)))
C1 = Config(n=3, r=3, s=(1, 2, 3), q=13, zeta=3, base=((1,), (1, 2), (1, 2, 4)))

# ladder: `verify` at default settings on the ROADMAP Baseline ladder, cut
# to cases that finish in about 10 s.  The two largest cases spend about
# two thirds of their time in `rigidity`, which enumerates the n^r group
# twice, so group-enumeration changes show here.  (n, r, q); s = default_s.
LADDER_GENERATED = [(3, 4, 19), (5, 4, 31), (4, 5, 29)]

# wide: small n with large r keeps n^r <= 243, so the cone search and the
# lattice draws dominate and `rigidity` is at most 38 %; a rigidity-only
# change should leave this workload unchanged.  Smallest workable q.
WIDE_GENERATED = [(2, 5), (3, 5)]
# n2 r6 q17 at its seed-1 base dies with CapExceeded in
# cone.case2_membership: the default cap is 10 * N = 430, but a case-2
# draw reaches phi 435.  It is a known defect, kept at default settings and
# counted as failed.  The base stays pinned at seed 1 whatever --seed says,
# because at some other bases every draw stays under the cap (seeds 2-4),
# and the workload's figures would then follow the seed, not the program.
WIDE_PINNED = [(2, 6, 1)]

# sweep: `blowup-rigidity sweep --jobs 2 --draws 200 --extra-q` over this
# product grid.  Configs are generated inside the timed run (smallest-q
# scan and genericity retries), draws drop five-fold, the second-field
# kernel runs, and both cores are busy in the process pool.
SWEEP_N = [2, 3, 4, 5, 6, 7]
SWEEP_R = [2, 3]
SWEEP_VARIANTS = 2
SWEEP_ARGS = ["--jobs", "2", "--draws", "200", "--extra-q"]


def _config_entry(case_id: str, config: Config) -> tuple[dict, str]:
    entry = {"id": case_id, "n": config.n, "r": config.r, "config": f"{case_id}.json"}
    return entry, config.canonical_json()


def ladder(seed: int) -> list[tuple[dict, str]]:
    if seed == DEV_SEED:
        fixtures = [C0, C1]
    else:
        fixtures = [
            resolve_case(SweepCase(c.n, c.r, c.s, q=c.q, seed=seed)) for c in (C0, C1)
        ]
    out = [_config_entry(name, cfg) for name, cfg in zip(("C0", "C1"), fixtures)]
    for n, r, q in LADDER_GENERATED:
        cfg = resolve_case(SweepCase(n, r, default_s(n, r), q=q, seed=seed))
        out.append(_config_entry(f"n{n}r{r}q{q}", cfg))
    return out


def wide(seed: int) -> list[tuple[dict, str]]:
    out = []
    cases = [(n, r, seed) for n, r in WIDE_GENERATED] + WIDE_PINNED
    for n, r, case_seed in cases:
        cfg = resolve_case(SweepCase(n, r, default_s(n, r), seed=case_seed))
        out.append(_config_entry(f"n{n}r{r}q{cfg.q}", cfg))
    return out


def write_workload(workload: str, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if workload == "sweep":
        spec = {"n": SWEEP_N, "r": SWEEP_R, "variants": SWEEP_VARIANTS, "seed": seed}
        with open(os.path.join(out_dir, "sweep_spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        manifest = {"spec": "sweep_spec.json", "args": SWEEP_ARGS,
                    "cases": len(SWEEP_N) * len(SWEEP_R) * SWEEP_VARIANTS}
    else:
        entries = ladder(seed) if workload == "ladder" else wide(seed)
        for entry, text in entries:
            with open(os.path.join(out_dir, entry["config"]), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        manifest = {"cases": [entry for entry, _ in entries]}
    with open(os.path.join(out_dir, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ladder", "wide", "sweep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
