#!/usr/bin/env python3
"""Benchmark: time to a verdict from `blowup-rigidity`.

    python3 perfbench/run.py --workload {ladder,wide,sweep,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Each workload's inputs are generated from the seed (see `cases.py`), every
verdict is checked against the paper's known answer (`known_answer.py`),
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines are diagnostics.

--trace 0 measures the end-to-end metrics with tracing off: whole passes
over the workload run until the next would end after --seconds, and each
time is the median over the passes.  --trace 1 runs one untraced pass and
two traced passes (`trace.py`) of fixed size, reports the per-layer
metrics, and checks that every call count and work count repeats exactly.
The traced `sweep` runs its cases serially (--jobs 1) so that all spans
stay in one process; its untraced reference pass is serial too.

Working files (reports, spans, failure records) go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import known_answer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

WORKLOADS = ("ladder", "wide", "sweep")
# A verify case that fails, or runs past this limit, is charged the limit.
# The slowest case at seed 1 (n4 r5 q29) takes about 10 s.
CASE_LIMIT_S = 30.0
# Limit on one whole `sweep` command; one pass takes 8-10 s with two jobs.
SWEEP_LIMIT_S = 90.0
SETUP_REPEATS = 7

OVERHEAD = "trace.overhead_frac"


def log(line: str = "") -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    wall: float
    code: int
    rss_mb: float
    timed_out: bool
    stderr: str


def run_child(argv: list[str], stderr_path: Path, limit: float) -> Proc:
    """Run one program process; wall time and peak RSS (its waited-for
    children, such as pool workers, included) come from wait4.  Past the
    limit the whole process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    killed = threading.Event()
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)

        def kill() -> None:
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set(),
                stderr_path.read_text(encoding="utf-8", errors="replace"))


def exception_of(stderr: str) -> tuple[str | None, str]:
    """Exception class and the first line of its message, from a traceback;
    without one, (None, first line of stderr)."""
    lines = stderr.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("Traceback (most recent")]
    if starts:
        for line in lines[starts[-1] + 1:]:
            if line and not line[0].isspace():
                head, _, message = line.partition(": ")
                return head.rsplit(".", 1)[-1], message
    first = next((line for line in lines if line.strip()), "")
    return None, first


def setup(workload: str, seed: int, inputs: Path, trace_to: Path | None = None) -> float:
    """Generate the workload's inputs in a fresh process; its wall time."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.parent.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--out", str(inputs)]
    if trace_to is None:
        argv = [PY, str(HERE / "cases.py"), *args]
    else:
        argv = [PY, str(HERE / "trace.py"), str(trace_to), "setup", "setup", *args]
    proc = run_child(argv, inputs.with_suffix(".setup.err"), CASE_LIMIT_S)
    if proc.code != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up of {workload} failed with exit code {proc.code}")
    return proc.wall


# ----------------------------------------------------------------------
# one pass over a workload


def failure(case: str, exit_code: int, exception: str | None, message: str,
            report_written: bool, timed_out: bool, wrong: list[str]) -> dict:
    """What `failures.json` records about one failed case."""
    return {"case": case, "exit_code": exit_code, "exception": exception,
            "message": message, "report_written": report_written,
            "timed_out": timed_out, "wrong_answer": wrong}


def read_report(path: Path) -> dict | None:
    if not path.exists() or path.stat().st_size == 0:
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return {}


@dataclass
class CaseResult:
    case: str
    seconds: float  # charged CASE_LIMIT_S when not decided
    decided: bool
    wrong: list[str] = field(default_factory=list)  # report contradicts the answer
    failure: dict | None = None


@dataclass
class Pass:
    verdict_s: float
    wall: float  # process wall time, nothing charged
    rss_mb: float
    cases: list[CaseResult]

    @property
    def geomean(self) -> float:
        return math.exp(statistics.fmean(math.log(c.seconds) for c in self.cases))


def verify_pass(manifest: dict, inputs: Path, work: Path, trace_dir: Path | None) -> Pass:
    results, rss, wall = [], 0.0, 0.0
    for entry in manifest["cases"]:
        report = work / f"{entry['id']}.report.json"
        report.unlink(missing_ok=True)
        args = ["verify", "--config", str(inputs / entry["config"]), "--out", str(report)]
        if trace_dir is None:
            argv = [PY, "-m", "blowup_rigidity.cli", *args]
        else:
            spans = trace_dir / f"{entry['id']}.spans.json"
            argv = [PY, str(HERE / "trace.py"), str(spans), entry["id"], "cli", *args]
        proc = run_child(argv, work / f"{entry['id']}.err", CASE_LIMIT_S)
        rss = max(rss, proc.rss_mb)
        wall += proc.wall
        payload = read_report(report)
        wrong = [] if payload is None else known_answer.problems(
            payload, entry["n"], entry["r"], extra_q=False)
        decided = proc.code == 0 and payload is not None and not wrong and not proc.timed_out
        result = CaseResult(entry["id"], proc.wall if decided else CASE_LIMIT_S, decided, wrong)
        if not decided:
            result.failure = failure(entry["id"], proc.code, *exception_of(proc.stderr),
                                     payload is not None, proc.timed_out, wrong)
        results.append(result)
    return Pass(sum(c.seconds for c in results), wall, rss, results)


SWEEP_KEY = re.compile(r"n=(\d+) r=(\d+) ")


def sweep_pass(manifest: dict, inputs: Path, work: Path, serial: bool,
               trace_dir: Path | None) -> Pass:
    out = work / "sweep.report.json"
    out.unlink(missing_ok=True)
    sweep_args = list(manifest["args"])
    if serial:
        sweep_args[sweep_args.index("--jobs") + 1] = "1"
    args = ["sweep", "--spec", str(inputs / manifest["spec"]), *sweep_args, "--out", str(out)]
    if trace_dir is None:
        argv = [PY, "-m", "blowup_rigidity.cli", *args]
    else:
        argv = [PY, str(HERE / "trace.py"), str(trace_dir / "sweep.spans.json"),
                "sweep", "cli", *args]
    proc = run_child(argv, work / "sweep.err", SWEEP_LIMIT_S)
    rows = (read_report(out) or {}).get("rows", {})
    extra_q = "--extra-q" in sweep_args
    per_case = proc.wall / manifest["cases"]
    results = []
    for key, payload in sorted(rows.items()):
        n, r = map(int, SWEEP_KEY.match(key).groups())
        if "error" in payload:
            head, _, message = payload["error"].partition(": ")
            results.append(CaseResult(key, per_case, False, [], failure(
                key, proc.code, head, message.split("\n")[0], False, False, [])))
            continue
        wrong = known_answer.problems(payload, n, r, extra_q)
        result = CaseResult(key, per_case, not wrong, wrong)
        if wrong:
            result.failure = failure(key, proc.code, None, "", True, False, wrong)
        results.append(result)
    if len(results) < manifest["cases"] or (proc.code != 0 and all(c.decided for c in results)):
        # the command died, timed out, or failed with every row agreeing
        for c in results:
            c.decided = False
        results += [CaseResult(f"missing row {i}", per_case, False)
                    for i in range(manifest["cases"] - len(results))]
        results[0].failure = failure("sweep command", proc.code, *exception_of(proc.stderr),
                                     bool(rows), proc.timed_out, [])
    return Pass(proc.wall, proc.wall, proc.rss_mb, results)


def run_pass(workload: str, manifest: dict, inputs: Path, work: Path,
             serial: bool = False, trace_dir: Path | None = None) -> Pass:
    work.mkdir(parents=True, exist_ok=True)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        return sweep_pass(manifest, inputs, work, serial, trace_dir)
    return verify_pass(manifest, inputs, work, trace_dir)


def self_test_on(passes: list[Pass], manifest: dict, work: Path, workload: str) -> list[str]:
    """Sabotage one genuine report from this run and check that the
    known-answer checker rejects every sabotaged copy."""
    if workload == "sweep":
        payload = json.loads((work / "sweep.report.json").read_text(encoding="utf-8"))
        key, report = next(
            (k, v) for k, v in sorted(payload["rows"].items()) if "error" not in v)
        n, r = map(int, SWEEP_KEY.match(key).groups())
        return known_answer.self_test(report, n, r, "--extra-q" in manifest["args"])
    for entry in manifest["cases"]:
        path = work / f"{entry['id']}.report.json"
        if any(c.case == entry["id"] and c.decided for c in passes[-1].cases):
            report = json.loads(path.read_text(encoding="utf-8"))
            return known_answer.self_test(report, entry["n"], entry["r"], extra_q=False)
    return ["no decided report to sabotage"]


# ----------------------------------------------------------------------
# trace aggregation


def layer_totals(span_files: list[Path]) -> dict[str, float]:
    """Per span name: .s (outermost calls only), .self_s (minus direct
    children) and .calls, summed over processes; plus the counters."""
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for path in span_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", (t1 - t0 - child_ns[i]) / 1e9)
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                add(f"{name}.s", (t1 - t0) / 1e9)
        for key, value in data["counts"].items():
            add(key, value)
    return totals


def is_count(key: str) -> bool:
    return not (key.endswith(".s") or key.endswith(".self_s"))


# ----------------------------------------------------------------------
# a run


def med(values: list[float]) -> float:
    return statistics.median(values)


def measure(workload: str, seed: int, seconds: float,
            units: dict[str, str]) -> tuple[dict, list[Pass], list[str]]:
    base = OUT / workload
    inputs = base / "inputs"
    setups = [setup(workload, seed, inputs) for _ in range(SETUP_REPEATS)]
    manifest = json.loads((inputs / "cases.json").read_text(encoding="utf-8"))
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, manifest, inputs, base / "work"))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    problems = self_test_on(passes, manifest, base / "work", workload) \
        if any(c.decided for c in passes[-1].cases) else []
    cases = [c for p in passes for c in p.cases]
    metrics = {
        "verdict_s": med([p.verdict_s for p in passes]),
        "verdict_s.geomean": med([p.geomean for p in passes]),
        "decided_frac": sum(c.decided for c in cases) / len(cases),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "setup_s": med(setups),
    }
    samples = {"verdict_s": len(passes), "verdict_s.geomean": len(passes),
               "decided_frac": len(cases), "peak_rss_mb": len(passes),
               "setup_s": len(setups)}
    log(f"# {workload}: seed {seed}, {len(passes)} passes in {time.perf_counter() - t0:.1f} s")
    log("pass verdict_s: " + " ".join(f"{p.verdict_s:.4f}" for p in passes))
    if workload != "sweep":
        for case in passes[0].cases:
            times = [c.seconds for p in passes for c in p.cases if c.case == case.case]
            log(f"case {case.case}: median {med(times):.4f} s over {len(times)} samples"
                f"{'' if case.decided else f' (charged the {CASE_LIMIT_S:.0f} s limit)'}")
    else:
        log("case times: not visible from outside the process pool; "
            "verdict_s.geomean is sweep wall time / cases")
    for name, value in metrics.items():
        log(f"metric {name} = {value:.6g} {units[name]} "
            f"(n={samples[name]})")
    report_failures(workload, cases, base)
    return metrics, passes, problems


def report_failures(workload: str, cases: list[CaseResult], base: Path) -> None:
    failures = [c.failure for c in cases if c.failure is not None]
    with open(base / "failures.json", "w", encoding="utf-8") as fh:
        json.dump(failures, fh, indent=1)
    seen = set()
    for f in failures:
        parts = [f"exit {f['exit_code']}"]
        if f["exception"]:
            parts.append(f"{f['exception']}: {f['message']}")
        elif f["message"]:
            parts.append(f["message"])
        parts.append(f"report written: {'yes' if f['report_written'] else 'no'}")
        if f["timed_out"]:
            parts.append("timed out")
        if f["wrong_answer"]:
            parts.append(f"wrong answer: {f['wrong_answer']}")
        line = f"FAILED {workload} case {f['case']}: " + "; ".join(parts)
        if line not in seen:
            seen.add(line)
            log(line)


def trace(workload: str, seed: int, per_layer: list[str]) -> tuple[dict, list[Pass], list[str]]:
    base = OUT / workload
    inputs = base / "inputs"
    setup(workload, seed, inputs)
    manifest = json.loads((inputs / "cases.json").read_text(encoding="utf-8"))
    serial = workload == "sweep"
    if serial:
        log("# traced sweep runs its cases serially (--jobs 1); the untraced "
            "reference pass is serial too")
    untraced = run_pass(workload, manifest, inputs, base / "work", serial=serial)
    passes, layers = [], []
    for k in (1, 2):
        spans = base / f"trace{k}"
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
        setup(workload, seed, base / f"inputs{k}", trace_to=spans / "setup.spans.json")
        passes.append(run_pass(workload, manifest, base / f"inputs{k}", base / f"work{k}",
                               serial=serial, trace_dir=spans))
        layers.append(layer_totals(sorted(spans.glob("*.spans.json"))))
    problems = []
    for key in sorted(set(layers[0]) | set(layers[1])):
        if is_count(key) and layers[0].get(key) != layers[1].get(key):
            problems.append(f"COUNT MISMATCH {key}: {layers[0].get(key)} != {layers[1].get(key)}")
    traced_s = med([p.wall for p in passes])
    metrics = {name: med([lay.get(name, 0) for lay in layers])
               for name in per_layer if name != OVERHEAD}
    metrics = {k: int(v) if is_count(k) else v for k, v in metrics.items()}
    metrics[OVERHEAD] = (traced_s - untraced.wall) / untraced.wall
    log(f"# {workload}: seed {seed}, process wall time untraced {untraced.wall:.3f} s, "
        f"traced {traced_s:.3f} s (median of 2)")
    log(f"{'span':<44} {'s':>10} {'self_s':>10} {'calls':>8}")
    names = sorted({k.rsplit('.', 1)[0] for k in layers[0] if k.endswith(".calls")})
    for name in names:
        log(f"{name:<44} {med([lay.get(name + '.s', 0) for lay in layers]):>10.4f} "
            f"{med([lay.get(name + '.self_s', 0) for lay in layers]):>10.4f} "
            f"{int(layers[0][name + '.calls']):>8}")
    for key in sorted(k for k in layers[0] if is_count(k) and not k.endswith(".calls")):
        log(f"count {key} = {layers[0][key]}")
    with open(base / "layers.json", "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    report_failures(workload, [c for p in [untraced, *passes] for c in p.cases], base)
    return metrics, [untraced, *passes], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="time to verdict of blowup-rigidity")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blowup_rigidity" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    build = subprocess.run([PY, "-m", "compileall", "-q", str(SRC), str(HERE)],
                           stdout=subprocess.DEVNULL)
    if build.returncode != 0:
        print("error: the program does not compile", file=sys.stderr)
        return 2

    # metric names and units, as BENCHMARK.json declares them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, problems = {}, 0, 0, []
    for workload in workloads:
        if args.trace:
            found, passes, issues = trace(workload, args.seed,
                                          [m["name"] for m in spec["per_layer"]])
        else:
            found, passes, issues = measure(workload, args.seed, args.seconds, units)
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, value in found.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        cases = [c for p in passes for c in p.cases]
        attempted += len(cases)
        failed += sum(not c.decided for c in cases)
        problems += issues + [f"{c.case}: {w}" for c in cases for w in c.wrong]
    for line in problems:
        print(f"benchmark: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
