"""Command-line surface.

Exit codes: 0 for pass (warnings allowed), 1 when any check fails, 2 for
usage or I/O problems.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .cone import EffectiveCone, generator_labels
from .errors import BlowupError
from .fieldgeom import Config, generate_config, point_keys, structural_problems
from .lattice import BlowupLattice
from .report import SweepCase, product_cases, run_all, sweep
from .rigidity import build_graph, geometric_automorphisms, verify_rigidity
from .vectorfields import check_extra_q, derivation_kernel, vanishing_records


class UsageError(Exception):
    pass


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def load_config(path: str) -> Config:
    """Read a config file: keys n, r, s, q, and optionally seed and base.

    zeta is always the canonical (smallest) primitive root and base is
    generated from the seed when absent.  Only the types are checked here;
    the values are not validated, because `verify` reports validation
    results instead of crashing.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} is not a JSON object")
    for key in ("n", "r", "s", "q"):
        if key not in raw:
            raise UsageError(f"config {path} is missing key {key!r}")
    for key in ("n", "r", "q", "seed", "zeta"):
        if key in raw and not _is_int(raw[key]):
            raise UsageError(f"config {path}: {key!r} must be an integer")
    if not _is_int_list(raw["s"]):
        raise UsageError(f"config {path}: 's' must be a list of integers")
    if "base" in raw and not (
        isinstance(raw["base"], list) and all(_is_int_list(b) for b in raw["base"])
    ):
        raise UsageError(f"config {path}: 'base' must be a list of integer lists")
    if "base" not in raw:
        try:
            return generate_config(
                raw["n"], raw["r"], tuple(raw["s"]), raw["q"], seed=raw.get("seed", 0)
            )
        except BlowupError as exc:
            raise UsageError(f"cannot generate base coordinates: {exc}") from exc
    try:
        return Config.from_dict(raw, skip_checks=True)
    except BlowupError as exc:
        raise UsageError(str(exc)) from exc


def load_valid_config(path: str) -> Config:
    """load_config, then refuse a config that fails the structural checks
    (which `verify` reports as a FAIL record instead)."""
    config = load_config(path)
    problems = structural_problems(
        config.n, config.r, config.s, config.q, config.zeta, config.base
    )
    if problems:
        raise UsageError(f"invalid configuration: {'; '.join(problems)}")
    return config


def _write(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_tuple(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def cmd_gen_config(args) -> int:
    config = generate_config(args.n, args.r, args.s, args.q, seed=args.seed)
    _write(config.canonical_json() + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.q_extra is not None:
        check_extra_q(config.n, config.s, args.q_extra)
    report = run_all(config, draws=args.draws, extra_q=args.q_extra)
    if args.format == "md":
        _write(report.to_markdown(timings=args.timings), args.out)
    else:
        _write(report.to_json(timings=args.timings) + "\n", args.out)
    return report.exit_code


def cmd_pairing_table(args) -> int:
    config = load_valid_config(args.config)
    lattice = BlowupLattice(config)
    buf = io.StringIO()
    lattice.write_pairing_table(buf)
    _write(buf.getvalue(), args.out)
    return 0


def cmd_extremal(args) -> int:
    config = load_valid_config(args.config)
    lattice = BlowupLattice(config)
    cone = EffectiveCone(lattice)
    if args.json:
        _write(cone.genset.to_json() + "\n", args.out)
        return 0
    lines = [f"{'label':<16} {'phi':>4} {'extremal':>9} {'splits':>7}  class"]
    genset = cone.genset
    for label, phi, cls in zip(generator_labels(lattice), genset.phis, genset.classes):
        splits = cone.two_part_decompositions(cls)
        lines.append(
            f"{label:<16} {phi:>4} "
            f"{'yes' if not splits else 'no':>9} {len(splits):>7}  "
            f"{cls.to_array()}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_graph(args) -> int:
    config = load_valid_config(args.config)
    graph = build_graph(config)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
    _write(graph.to_json() + "\n", args.out)
    return 0


def cmd_rigidity(args) -> int:
    config = load_valid_config(args.config)
    records = verify_rigidity(config)
    payload = {
        "config": config.to_dict(),
        "checks": [rec.to_dict() for rec in records],
    }
    try:
        group = geometric_automorphisms(config)
        # per axis, the canonical matrix entries [a, b, c, d] of z -> mu*z
        payload["group"] = [[[1, 0, 0, mu] for mu in g] for g in group]
    except BlowupError:
        payload["group"] = None
    _write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    return 1 if any(rec.status == "FAIL" for rec in records) else 0


def cmd_vector_fields(args) -> int:
    config = load_valid_config(args.config)
    kernel = derivation_kernel(config)
    records = vanishing_records(config, kernel)
    payload = {
        "config": config.to_dict(),
        "checks": [rec.to_dict() for rec in records],
        "system": {
            "rows": kernel.n_rows,
            "rank": kernel.rank,
            "dimension": kernel.dimension,
            "kernel_basis": [kernel.blocks(vec) for vec in kernel.basis],
        },
    }
    if args.matrix:
        # the rows come in assemble_system's order: points outer, axes inner
        r = config.r
        tags = [f"p[{key}]@axis{axis}" for key in point_keys(config) for axis in range(1, r + 1)]
        rows = [
            {"tag": tag, "coeffs": [0] * (4 * block - 4) + list(entries) + [0] * (4 * (r - block))}
            for tag, (block, entries) in zip(tags, kernel.rows)
        ]
        with open(args.matrix, "w", encoding="utf-8") as fh:
            json.dump({"q": config.q, "columns": 4 * r, "rows": rows},
                      fh, sort_keys=True, separators=(",", ":"))
    _write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    return 1 if any(rec.status == "FAIL" for rec in records) else 0


_REQUIRED = object()


def _spec_value(where: str, item: dict, key: str, check, default=_REQUIRED):
    """item[key] when it passes check, or default when the key is absent;
    a UsageError naming the key otherwise."""
    if key not in item:
        if default is _REQUIRED:
            raise UsageError(f"sweep spec: {where} is missing key {key!r}")
        return default
    if not check(item[key]):
        raise UsageError(f"sweep spec: {where} has a mistyped {key!r}")
    return item[key]


def _cases_from_spec(raw) -> list[SweepCase]:
    if not isinstance(raw, dict):
        raise UsageError("sweep spec is not a JSON object")
    seed = _spec_value("the spec", raw, "seed", _is_int, 0)
    if "cases" in raw:
        if not isinstance(raw["cases"], list):
            raise UsageError("sweep spec: 'cases' must be a list")
        if not raw["cases"]:
            raise UsageError("sweep spec: 'cases' is empty, so no case would run")
        out = []
        for idx, case in enumerate(raw["cases"]):
            where = f"case {idx}"
            if not isinstance(case, dict):
                raise UsageError(f"sweep spec: {where} is not a JSON object")
            out.append(
                SweepCase(
                    n=_spec_value(where, case, "n", _is_int),
                    r=_spec_value(where, case, "r", _is_int),
                    s=tuple(_spec_value(where, case, "s", _is_int_list)),
                    q=_spec_value(where, case, "q",
                                  lambda x: x is None or _is_int(x), None),
                    seed=_spec_value(where, case, "seed", _is_int, seed),
                )
            )
        return out
    if "n" in raw and "r" in raw:
        ns = _spec_value("the spec", raw, "n", _is_int_list)
        rs = _spec_value("the spec", raw, "r", _is_int_list)
        variants = _spec_value("the spec", raw, "variants", _is_int, 1)
        for key, values in (("n", ns), ("r", rs)):
            if not values:
                raise UsageError(f"sweep spec: {key!r} is empty, so no case would run")
        if variants < 1:
            raise UsageError(
                f"sweep spec: 'variants' is {variants}, so no case would run"
            )
        return product_cases(ns, rs, seed=seed, variants=variants)
    raise UsageError("sweep spec needs either 'cases' or 'n' and 'r' lists")


def cmd_sweep(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read sweep spec {args.spec}: {exc}") from exc
    cases = _cases_from_spec(raw)
    result = sweep(cases, jobs=args.jobs, draws=args.draws, extra_q=args.extra_q)
    _write(result.to_json() + "\n", args.out)
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowup-rigidity",
        description=(
            "Exact verification of automorphism rigidity for blow-ups of a "
            "product of projective lines at a torsion-stable configuration"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-config", help="generate a generic configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=_int_tuple, required=True,
                   help="comma-separated, e.g. 2,3")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen_config)

    p = sub.add_parser("verify", help="run the full check suite")
    p.add_argument("--config", required=True)
    p.add_argument("--q-extra", type=int, default=None,
                   help="second field size for the vector-field check")
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--draws", type=_positive_int, default=1000)
    p.add_argument("--timings", action="store_true",
                   help="include stage timings (non-canonical output)")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pairing-table", help="CSV of all basis pairings")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_pairing_table)

    p = sub.add_parser("extremal", help="generator table with extremality")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true", help="emit the generator set as JSON")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_extremal)

    p = sub.add_parser("graph", help="incidence graph as adjacency JSON / DOT")
    p.add_argument("--config", required=True)
    p.add_argument("--dot", default=None, help="also write DOT format here")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("rigidity", help="census, pinning, automorphism group")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_rigidity)

    p = sub.add_parser("vector-fields", help="eigenvector-constraint kernel")
    p.add_argument("--config", required=True)
    p.add_argument("--matrix", default=None,
                   help="write the full constraint matrix as JSON here")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_vector_fields)

    p = sub.add_parser("sweep", help="run many configurations")
    p.add_argument("--spec", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (default: 1)")
    p.add_argument("--draws", type=_positive_int, default=200)
    p.add_argument("--extra-q", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
