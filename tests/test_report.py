import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from blowup_rigidity import fieldgeom, rigidity, vectorfields
from blowup_rigidity.checks import CLAIMS, CheckRecord, make_record
from blowup_rigidity.cli import main
from blowup_rigidity.cone import EffectiveCone, GeneratorSet
from blowup_rigidity.errors import InvalidSetting, UnknownCheckId
from blowup_rigidity.fieldgeom import Config, next_valid_q
from blowup_rigidity.lattice import BlowupLattice, DivisorClass
from blowup_rigidity.rigidity import IncidenceGraph
from blowup_rigidity.report import (
    CHECK_ORDER,
    SweepCase,
    VerificationReport,
    default_s,
    product_cases,
    run_all,
    sweep,
)


def test_registry_rejects_unknown_id():
    with pytest.raises(UnknownCheckId):
        make_record("no.such.check", "PASS", 1, 1)
    with pytest.raises(ValueError):
        make_record("config.structure", "MAYBE", 1, 1)


def test_registry_covers_order():
    assert set(CHECK_ORDER) == set(CLAIMS)
    rec = make_record("lattice.strict_h_self", "PASS", {"axis_1": 1}, {"axis_1": 1})
    assert rec.claim


def test_run_all_c0(c0):
    report = run_all(c0, draws=200)
    assert report.exit_code == 0
    assert report.counts == {"PASS": 25, "FAIL": 0, "WARN": 1}
    ids = [rec.check_id for rec in report.records]
    assert ids == [cid for cid in CLAIMS if cid != "vectorfields.kernel_extra"]
    warn = next(rec for rec in report.records if rec.status == "WARN")
    assert warn.check_id == "rigidity.census_lines"
    assert report.skipped == ["vectorfields.kernel_extra"]


def test_run_all_extra_q(c0):
    q2 = next_valid_q(c0.n, c0.s, c0.q)
    report = run_all(c0, draws=100, extra_q=q2)
    extra = next(
        rec for rec in report.records if rec.check_id == "vectorfields.kernel_extra"
    )
    assert extra.status == "PASS"
    assert extra.computed["q"] == q2
    assert report.skipped == []


def test_run_all_deterministic_bytes(c0):
    a = run_all(c0, draws=150).to_json()
    b = run_all(c0, draws=150).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["config"]["base"] == [[1, 2], [3, 4, 5]]
    assert "elapsed_ms" not in json.dumps(payload)


def test_run_all_timings_not_canonical(c0):
    report = run_all(c0, draws=50)
    with_t = report.to_json(timings=True)
    without_t = report.to_json(timings=False)
    assert "elapsed_ms" in with_t
    assert "elapsed_ms" not in without_t


def test_run_all_invalid_config_skips():
    bad = Config(n=2, r=2, s=(2, 2), q=13, zeta=12, base=((1, 2), (3, 4)),
                 skip_checks=True)
    report = run_all(bad)
    assert report.exit_code == 1
    assert [rec.check_id for rec in report.records] == ["config.structure"]
    assert "config.genericity" in report.skipped
    assert "vectorfields.kernel" in report.skipped


def test_report_duplicate_ids_rejected(c0):
    rec = make_record("config.structure", "PASS", 1, 1)
    with pytest.raises(ValueError):
        VerificationReport(c0.to_dict(), [rec, rec])


def test_run_all_builds_marked_set_and_stabilizers_once(c1, count_calls):
    calls = count_calls("build_delta", "stabilizer_of_axis")
    config = Config.from_dict(c1.to_dict())
    assert run_all(config, draws=20).exit_code == 0
    assert calls == {"build_delta": 1, "stabilizer_of_axis": config.r}


def test_run_all_builds_no_point_key(c1, count_calls):
    # point keys are only for labels, which verify builds only for FAIL text
    calls = count_calls("point_keys")
    assert run_all(c1, draws=20).exit_code == 0
    assert calls == {"point_keys": 0}


def test_run_all_tests_one_generator_per_orbit(c1, count_calls):
    name = "cone.EffectiveCone.two_part_decompositions"
    calls = count_calls(name)
    assert run_all(c1, draws=20).exit_code == 0
    # r(r + 1) = 12 orbit representatives and the 3 sample splits; a test
    # of every generator makes it 57 + 3
    assert calls == {name: 15}


# Each sabotage breaks one input of one check and never its expected value.
REAL_PHI = GeneratorSet.phi
REAL_RESUM = GeneratorSet.resum
REAL_GAMMAS = BlowupLattice.gammas
REAL_EXC_PAIRINGS = BlowupLattice.exc_pairings
REAL_STRICT_H = BlowupLattice.strict_h
REAL_BUILD_GRAPH = rigidity.build_graph
REAL_CENSUS = rigidity.census
REAL_G_ACTION = fieldgeom.g_action
REAL_SCALING_GROUP = fieldgeom.scaling_group
REAL_DIRECTION_COUNTS = vectorfields.direction_counts
REAL_ASSEMBLE_SYSTEM = vectorfields.assemble_system


REAL_GENSET_INIT = GeneratorSet.__init__


def g_action_fixing_the_last_axis(config, g, k):
    # the points of axis r stay put under every torsion shift
    return k if config.axis_of[k] == config.r else REAL_G_ACTION(config, g, k)


def scaling_group_without_its_last(config):
    return REAL_SCALING_GROUP(config)[:-1]


def halved_canonical_pullback(lattice):
    # pi*(-H_1 - ... - H_r) in place of pi*(-2 H_1 - ... - 2 H_r)
    return DivisorClass((-1,) * lattice.config.r, (0,) * lattice.size, lattice)


def iter_repeating_a_gamma(genset):
    # the first gamma a second time, in place of the gamma after it
    classes = list(genset.classes)
    first = genset.blocks[0]
    classes[first + 1] = classes[first]
    return iter(classes)


def gamma_of_the_next_point(lattice, i):
    # the first point off axis i gets the gamma of the second one, so the
    # generator set holds that gamma twice and the first point's not at all
    block = REAL_GAMMAS(lattice, i)
    return block[1:2] + block[1:]


def genset_with_a_gamma_support_one_off(genset, lattice):
    # the first gamma's first sparse entry is one too large, its class as
    # before, so every search that uses it emits a decomposition that does
    # not re-sum to its target
    REAL_GENSET_INIT(genset, lattice)
    supports = list(genset.supports)
    (k, x), *rest = supports[genset.blocks[0]]
    supports[genset.blocks[0]] = ((k, x + 1), *rest)
    genset.supports = tuple(supports)


def exc_pairings_without_the_last(lattice, c):
    return REAL_EXC_PAIRINGS(lattice, c)[:-1]


def strict_h_r_moved_on_axis_1(lattice, i):
    # strict_h(r) gains E_p at the first point and loses it at the second,
    # both on axis 1, so every strict line pairs with it as before
    d = REAL_STRICT_H(lattice, i)
    if i != lattice.config.r:
        return d
    return DivisorClass(d.h, (d.m[0] + 1, d.m[1] - 1) + d.m[2:], lattice)


def phi_minus_one(genset, c):
    return REAL_PHI(genset, c) - 1


def resum_of_positive_parts(genset, parts):
    # drops the parts of non-positive multiplicity, which no search emits
    return REAL_RESUM(genset, tuple((g, m) for g, m in parts if m > 0))


def build_graph_with_an_isolated_vertex(config):
    # one vertex too many, after the gammas and with no neighbours
    graph = REAL_BUILD_GRAPH(config)
    return IncidenceGraph(config, graph.adjacency + ((),), graph.blocks)


def census_one_more_curve_on_a_divisor(graph):
    rows = REAL_CENSUS(graph)
    div, curve = rows[0]
    rows[0] = (div, curve + 1)
    return rows


def census_one_more_divisor_on_a_gamma(graph):
    rows, v = REAL_CENSUS(graph), graph.blocks[0]
    div, curve = rows[v]
    rows[v] = (div + 1, curve)
    return rows


def census_one_more_curve_on_a_line(graph):
    rows, v = REAL_CENSUS(graph), graph.divisors
    div, curve = rows[v]
    rows[v] = (div, curve + 1)
    return rows


def census_first_line_like_the_last(graph):
    # the axis-1 line gets the axis-r line's divisor-degree
    rows, v = REAL_CENSUS(graph), graph.divisors
    rows[v] = (rows[v + graph.config.r - 1][0], rows[v][1])
    return rows


def direction_counts_without_the_last_axis_coords(config):
    # the last axis keeps only the shared [0:1]
    return REAL_DIRECTION_COUNTS(config)[:-1] + [1]


def assemble_system_without_the_last_axis_own_rows(config):
    # block r keeps only the [0:1] rows (b = 0) of the other axes' points
    return [(block, entries) for block, entries in REAL_ASSEMBLE_SYSTEM(config)
            if block != config.r or entries == (0, 1, 0, 0)]


@pytest.mark.parametrize("check_id, owner, attr, sabotage", [
    ("config.action", fieldgeom, "g_action", g_action_fixing_the_last_axis),
    ("config.genericity", fieldgeom, "scaling_group", scaling_group_without_its_last),
    ("lattice.pairing_blocks", BlowupLattice, "exc_pairings", exc_pairings_without_the_last),
    ("lattice.strict_h_exc", BlowupLattice, "strict_h", strict_h_r_moved_on_axis_1),
    ("lattice.canonical_degree", BlowupLattice, "ambient_canonical_pullback",
     halved_canonical_pullback),
    ("cone.generator_count", GeneratorSet, "__iter__", iter_repeating_a_gamma),
    ("cone.phi_positive", GeneratorSet, "phi", phi_minus_one),
    ("cone.generators_extremal", EffectiveCone, "is_extremal", lambda cone, c: False),
    ("cone.generators_extremal", GeneratorSet, "__init__", genset_with_a_gamma_support_one_off),
    ("cone.sample_splits", EffectiveCone, "two_part_decompositions", lambda cone, c: []),
    ("cone.case2_membership", EffectiveCone, "member", lambda cone, c: None),
    ("cone.case3_identity", GeneratorSet, "resum", resum_of_positive_parts),
    ("cone.case3_identity", GeneratorSet, "__init__", genset_with_a_gamma_support_one_off),
    ("lattice.gamma_pairings", BlowupLattice, "gammas", gamma_of_the_next_point),
    ("cone.generator_count", BlowupLattice, "gammas", gamma_of_the_next_point),
    ("cone.case3_identity", BlowupLattice, "gammas", gamma_of_the_next_point),
    ("rigidity.components", rigidity, "build_graph", build_graph_with_an_isolated_vertex),
    ("rigidity.census_divisors", rigidity, "census", census_one_more_curve_on_a_divisor),
    ("rigidity.census_gammas", rigidity, "census", census_one_more_divisor_on_a_gamma),
    ("rigidity.census_lines", rigidity, "census", census_one_more_curve_on_a_line),
    ("rigidity.handshake", rigidity, "census", census_one_more_divisor_on_a_gamma),
    ("rigidity.pinning", rigidity, "census", census_first_line_like_the_last),
    ("vectorfields.directions", vectorfields, "direction_counts",
     direction_counts_without_the_last_axis_coords),
    ("vectorfields.kernel_extra", vectorfields, "assemble_system",
     assemble_system_without_the_last_axis_own_rows),
])
@pytest.mark.parametrize("config", ["c0", "c1"])
def test_sabotaged_input_fails_its_check(config, check_id, owner, attr, sabotage,
                                         request, monkeypatch):
    monkeypatch.setattr(owner, attr, sabotage)
    cfg = request.getfixturevalue(config)
    report = run_all(cfg, draws=200, extra_q=next_valid_q(cfg.n, cfg.s, cfg.q))
    assert next(rec.status for rec in report.records if rec.check_id == check_id) == "FAIL"
    assert report.exit_code == 1
    assert json.loads(report.to_json())["summary"]["FAIL"] >= 1


def test_unsound_search_is_a_fail_record_of_each_searching_check(c0, monkeypatch):
    # no decomposition re-sums to its nonzero target, so every search raises
    monkeypatch.setattr(GeneratorSet, "resum",
                        lambda genset, parts: REAL_RESUM(genset, ()))
    report = run_all(c0, draws=200)
    by_id = {rec.check_id: rec for rec in report.records}
    for check_id in ("cone.generators_extremal", "cone.sample_splits",
                     "cone.case2_membership"):
        assert by_id[check_id].status == "FAIL"
        assert by_id[check_id].computed.startswith("UnsoundDecomposition: ")
    assert report.exit_code == 1


def test_extremal_reports_an_unsound_search_on_one_line(c0, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(GeneratorSet, "__init__", genset_with_a_gamma_support_one_off)
    path = tmp_path / "c0.json"
    path.write_text(c0.canonical_json())
    assert main(["extremal", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: UnsoundDecomposition: gt[2.1.0;1] does not re-sum")
    assert captured.err.count("\n") == 1


def test_markdown_rendering(c0):
    report = run_all(c0, draws=50)
    md = report.to_markdown()
    assert "| check | status |" in md
    assert "rigidity.census_lines" in md
    assert "25 PASS, 0 FAIL, 1 WARN" in md


def test_default_s():
    assert default_s(2, 2) == (2, 3)
    assert default_s(3, 2) == (1, 2)
    assert default_s(2, 4) == (1, 2, 3, 4)


def test_product_cases_variants():
    cases = product_cases([2], [2, 3], seed=5, variants=2)
    assert len(cases) == 4
    assert cases[0].s == (2, 3) and cases[1].s == (3, 4)
    assert all(case.seed == 5 for case in cases)


def test_next_valid_q():
    assert next_valid_q(2, (2, 3), 13) == 17
    assert next_valid_q(3, (1, 2, 3), 13) == 19
    assert next_valid_q(5, (1, 2), 11) == 31


def test_sweep_continues_past_errors(c0):
    cases = [
        SweepCase(n=2, r=2, s=(2, 3), q=13, seed=1),
        SweepCase(n=3, r=3, s=(1, 2, 3), q=7, seed=0),  # impossible field
    ]
    result = sweep(cases, jobs=1, draws=50)
    assert result.exit_code == 1
    rows = dict(result.rows)
    good = rows["n=2 r=2 s=(2,3) q=13 seed=1"]
    bad = rows["n=3 r=3 s=(1,2,3) q=7 seed=0"]
    assert good["summary"]["FAIL"] == 0
    assert "TooSmallField" in bad["error"]
    agg = result.aggregate
    assert agg["cases"] == 2 and agg["errors"] == 1
    assert agg["per_check"]["rigidity.automorphisms"]["PASS"] == 1


def test_sweep_records_any_case_exception(monkeypatch):
    import blowup_rigidity.report as report

    def broken_run_all(*args, **kwargs):
        raise RuntimeError("stage crashed")

    monkeypatch.setattr(report, "run_all", broken_run_all)
    result = sweep([SweepCase(n=2, r=2, s=(2, 3), q=13, seed=1)], jobs=1, draws=10)
    assert result.rows == [("n=2 r=2 s=(2,3) q=13 seed=1",
                            {"error": "RuntimeError: stage crashed"})]
    assert result.exit_code == 1


# The expansion returns a wrong e-part; the verdict must read FAIL even when
# `python -O` strips assert statements.
SABOTAGED_EXPANSION = """
from blowup_rigidity.fieldgeom import Config
from blowup_rigidity.lattice import BlowupLattice, CurveClass, lattice_checks

def wrong_e_part(self, a, eps):
    e = tuple(a[axis - 1] - ep + 1 for ep, axis in zip(eps, self.axis_of))
    return CurveClass(tuple(a), e, self)

BlowupLattice.expand_in_basis = wrong_e_part
cfg = Config(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 2), (3, 4, 5)))
records = lattice_checks(BlowupLattice(cfg))
print(next(r.status for r in records if r.check_id == "lattice.multidegree_expansion"))
"""


def test_sabotaged_expansion_fails_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", SABOTAGED_EXPANSION],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "FAIL"


def test_sweep_parallel_matches_serial():
    cases = [
        SweepCase(n=2, r=2, s=(2, 3), q=13, seed=1),
        SweepCase(n=3, r=2, s=(1, 2), q=13, seed=1),
        SweepCase(n=3, r=3, s=(1, 2, 3), q=7, seed=0),  # impossible field
        SweepCase(n=2, r=3, s=(1, 2, 3), seed=1),
        SweepCase(n=4, r=2, s=(1, 2), seed=1),
    ]
    serial = sweep(cases, jobs=1, draws=50)
    assert serial.exit_code == 1
    for jobs in (2, 4):
        parallel = sweep(cases, jobs=jobs, draws=50)
        # rows come back through JSON, so tuples in a payload arrive as lists
        assert (json.dumps(parallel.rows, sort_keys=True)
                == json.dumps(serial.rows, sort_keys=True))
        assert parallel.to_json() == serial.to_json()
        assert parallel.exit_code == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rejects_a_repeated_case(jobs, monkeypatch):
    # rows are keyed by case, so a repeat would be one row in to_dict() but
    # two in the aggregate; no case runs
    import blowup_rigidity.report as report

    monkeypatch.setattr(report, "_sweep_worker", lambda args: pytest.fail("a case ran"))
    case = SweepCase(n=2, r=2, s=(2, 3), q=13, seed=1)
    with pytest.raises(InvalidSetting, match="sweep case 1 repeats case 0"):
        sweep([case, case], jobs=jobs, draws=5)


def test_sweep_dead_worker_leaves_an_error_row(monkeypatch):
    import blowup_rigidity.report as report

    real_worker = report._sweep_worker

    def dies_on_n3(args):
        if args[0].n == 3:
            os._exit(3)
        return real_worker(args)

    monkeypatch.setattr(report, "_sweep_worker", dies_on_n3)
    cases = [
        SweepCase(n=2, r=2, s=(2, 3), q=13, seed=1),
        SweepCase(n=3, r=2, s=(1, 2), q=13, seed=1),
        SweepCase(n=4, r=2, s=(1, 2), seed=1),
    ]
    result = sweep(cases, jobs=2, draws=20)
    rows = dict(result.rows)
    assert len(result.rows) == 3
    assert rows["n=3 r=2 s=(1,2) q=13 seed=1"] == {"error": "worker exited with status 3"}
    for key in ("n=2 r=2 s=(2,3) q=13 seed=1", "n=4 r=2 s=(1,2) q=auto seed=1"):
        assert rows[key]["summary"]["FAIL"] == 0
    assert result.aggregate["errors"] == 1
    assert result.exit_code == 1


def test_sweep_dead_workers_are_replaced(monkeypatch):
    # every worker dies on its first case; each case still gets its own row
    import blowup_rigidity.report as report

    def killed(args):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(report, "_sweep_worker", killed)
    cases = [SweepCase(n=2, r=2, s=(2, 3), q=13, seed=seed) for seed in range(5)]
    result = sweep(cases, jobs=2, draws=10)
    assert [key for key, _ in result.rows] == [case.key for case in cases]
    assert all(payload == {"error": f"worker killed by signal {int(signal.SIGKILL)}"}
               for _, payload in result.rows)


def test_sweep_deals_more_cases_than_a_pipe_holds(monkeypatch):
    # 20 000 4-byte indices are more than a default 64 KiB pipe buffer
    import blowup_rigidity.report as report

    monkeypatch.setattr(report, "_sweep_worker", lambda args: (args[0].key, {"seed": args[0].seed}))
    cases = [SweepCase(n=2, r=2, s=(2, 3), q=13, seed=seed) for seed in range(20_000)]
    result = sweep(cases, jobs=2, draws=1)
    assert sorted(payload["seed"] for _, payload in result.rows) == list(range(20_000))
    assert [key for key, _ in result.rows] == sorted(case.key for case in cases)


def test_sweep_runs_serially_beside_a_live_thread(monkeypatch):
    # a child forked beside another thread could inherit a lock it holds
    def no_fork():
        raise AssertionError("forked beside a live thread")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        cases = [SweepCase(n=2, r=2, s=(2, 3), q=13, seed=1),
                 SweepCase(n=3, r=2, s=(1, 2), q=13, seed=1)]
        result = sweep(cases, jobs=2, draws=10)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(result.rows) == 2 and result.exit_code == 0


@pytest.mark.parametrize("draws", [0, -5])
def test_run_all_rejects_nonpositive_draws(c0, draws):
    with pytest.raises(ValueError, match="draws must be a positive integer"):
        run_all(c0, draws=draws)


def test_check_record_to_dict():
    rec = CheckRecord("config.structure", "PASS", 1, 1, claim="c", detail="d")
    assert "elapsed_ms" not in rec.to_dict(timings=True)
    rec.elapsed_ms = 1.234  # as run_all sets it after the stage ran
    assert repr(rec).endswith("elapsed_ms=1.234)")
    d = rec.to_dict(timings=True)
    assert d["elapsed_ms"] == 1.234
    assert "elapsed_ms" not in rec.to_dict(timings=False)
