"""Outside-in trace of one program process.

    python3 perfbench/trace.py SPANS_OUT CASE_ID cli ARGS...
    python3 perfbench/trace.py SPANS_OUT CASE_ID setup ARGS...

`cli` runs `blowup_rigidity.cli.main(ARGS)` and `setup` runs
`cases.main(ARGS)`, after wrapping each public function named in TARGETS
in a span.  No program file changes: `from .x import y` copies a binding
into every importing module, so each module-level binding of a wrapped
function is replaced, and methods are replaced on their class.

Spans are kept in memory as [name, start_ns, end_ns, parent_index] and
written to SPANS_OUT as JSON when the process ends, with the case id and
the counters taken at the same boundaries.  Self time is derived later,
by `run.py`, from the child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.  The span name is "<layer>.<operation>"; report.lattice_checks
# and report.cone_checks are named after the stage they check.
TARGETS = [
    ("fieldgeom", "generate_config", "fieldgeom.generate_config"),
    ("fieldgeom", "generate_config_smallest_q", "fieldgeom.generate_config_smallest_q"),
    ("fieldgeom", "config_is_generic", "fieldgeom.config_is_generic"),
    ("fieldgeom", "validate_config", "fieldgeom.validate_config"),
    ("fieldgeom", "build_delta", "fieldgeom.build_delta"),
    ("fieldgeom", "stabilizer_of_axis", "fieldgeom.stabilizer_of_axis"),
    ("lattice", "BlowupLattice.__init__", "lattice.build"),
    ("lattice", "BlowupLattice.expand_in_basis", "lattice.expand_in_basis"),
    ("report", "lattice_checks", "lattice.checks"),
    ("cone", "EffectiveCone.__init__", "cone.build"),
    ("cone", "EffectiveCone.member", "cone.member"),
    ("cone", "EffectiveCone.two_part_decompositions", "cone.two_part_decompositions"),
    ("cone", "EffectiveCone.case3_identity", "cone.case3_identity"),
    ("report", "cone_checks", "cone.checks"),
    ("rigidity", "build_graph", "rigidity.build_graph"),
    ("rigidity", "verify_rigidity", "rigidity.verify_rigidity"),
    ("rigidity", "geometric_automorphisms", "rigidity.geometric_automorphisms"),
    ("vectorfields", "verify_vanishing", "vectorfields.verify_vanishing"),
    ("vectorfields", "derivation_kernel", "vectorfields.derivation_kernel"),
    ("report", "extra_q_vanishing", "report.extra_q_vanishing"),
    ("report", "run_all", "report.run_all"),
    ("report", "resolve_case", "report.resolve_case"),
    ("report", "VerificationReport.to_json", "report.to_json"),
    ("report", "SweepResult.to_json", "report.to_json"),
    ("report", "sweep", "report.sweep"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_sweep", "cli.sweep"),
]

# Work counts taken from a call's arguments and result, by span name.
COUNTERS = {
    "rigidity.geometric_automorphisms": lambda args, res: {
        "rigidity.group_elements": len(res)},
    "vectorfields.derivation_kernel": lambda args, res: {
        "vectorfields.kernel_rows": res.n_rows, "vectorfields.kernel_rank": res.rank},
    "cone.build": lambda args, res: {"cone.generators": len(args[0].genset)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "blowup_rigidity" or key.startswith("blowup_rigidity.")
        ]
        for modname, attr, name in TARGETS:
            owner = sys.modules[f"blowup_rigidity.{modname}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = method
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(name, fn)
            if cls_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def dump(self, path: str, case: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"case": case, "spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    spans_out, case, entry, *args = argv
    import blowup_rigidity  # noqa: F401  (imports every stage module)
    import blowup_rigidity.cli

    tracer = Tracer()
    tracer.install()
    for target in tracer.missing:
        print(f"trace: target {target} not found; its spans read 0", file=sys.stderr)
    if entry == "cli":
        target = blowup_rigidity.cli.main
    else:
        import cases

        target = cases.main
    try:
        return target(args)
    finally:
        tracer.dump(spans_out, case)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
