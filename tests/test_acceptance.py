"""Acceptance criteria, one test per criterion.

Every tolerance here is exact integer equality; runtime budgets are asserted
where stated.  Each test prints a single PASS/FAIL line (visible with -s or
in the captured output block).
"""

import itertools
import json
import time
from contextlib import contextmanager

from blowup_rigidity.cli import main
from blowup_rigidity.cone import EffectiveCone
from blowup_rigidity.fieldgeom import (
    Lcg,
    delta_permutation,
    next_valid_q,
    stabilizer_of_axis,
)
from blowup_rigidity.lattice import BlowupLattice
from blowup_rigidity.rigidity import (
    build_graph,
    census,
    geometric_automorphisms,
    geometric_permutation,
)
from blowup_rigidity.vectorfields import derivation_kernel, extra_q_vanishing

from oracles import (
    incident_oracle,
    marked_coordinates,
    oracle_case3_sum,
    oracle_vertices,
    point_axes,
    stabilizer_oracle,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_strict_transform_identities(sweep_configs):
    with criterion("strict-transform pairing identities (>= 20 configs, < 1 s)"):
        assert len(sweep_configs) >= 20
        lattices = [BlowupLattice(cfg) for cfg in sweep_configs]
        t0 = time.perf_counter()
        for lat in lattices:
            cfg = lat.config
            for i in range(1, cfg.r + 1):
                for j in range(1, cfg.r + 1):
                    got = lat.intersect(lat.line(j), lat.strict_h(i))
                    want = 1 if i == j else -cfg.n * cfg.s[j - 1]
                    assert got == want
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_through_point_pairings(sweep_configs):
    with criterion("through-point curve pairings on every sweep config"):
        for cfg in sweep_configs:
            lat = BlowupLattice(cfg)
            for i in range(1, cfg.r + 1):
                unit = tuple(1 if k == i else 0 for k in range(1, cfg.r + 1))
                off_axis = [k for k, axis in enumerate(lat.axis_of) if axis != i]
                assert len(lat.gammas(i)) == len(off_axis)
                for k, g in zip(off_axis, lat.gammas(i)):
                    assert lat.intersect(g, lat.exc_divisor(k)) == 1
                    for k2 in range(lat.size):
                        if k2 != k:
                            assert lat.intersect(g, lat.exc_divisor(k2)) == 0
                    assert lat.pushforward(g) == unit


def test_criterion_expansion_identities(sweep_configs):
    with criterion("multidegree/excess expansion identities (1000 draws each)"):
        for cfg in sweep_configs:
            lat = BlowupLattice(cfg)
            cone = EffectiveCone(lat)
            rng = Lcg(2024)
            for _ in range(1000):
                a = tuple(rng.below(15) - 5 for _ in range(cfg.r))
                eps = tuple(rng.below(15) - 5 for _ in range(lat.size))
                c = lat.expand_in_basis(a, eps)
                assert lat.pushforward(c) == a
                assert all(
                    lat.intersect(c, lat.exc_divisor(k)) == ep
                    for k, ep in enumerate(eps)
                )
            assert all(cone.case3_identity(k) for k in range(lat.size))
            axes = point_axes(cfg)
            for _ in range(1000):
                k0 = rng.below(lat.size)
                a = tuple(
                    0 if axis == axes[k0] else rng.below(4)
                    for axis in range(1, cfg.r + 1)
                )
                eps = rng.below(4)
                excess = tuple(eps if k == k0 else 0 for k in range(lat.size))
                assert (lat.expand_in_basis(a, excess).to_array()
                        == oracle_case3_sum(lat, k0, a, eps))


def test_criterion_extremality_c0(c0, lat0, cone0):
    with criterion("extremality on C0 (22 generators, < 60 s)"):
        t0 = time.perf_counter()
        assert len(cone0.genset) == 22
        for c in cone0.genset:
            assert cone0.is_extremal(c)
        assert not cone0.is_extremal(lat0.line(1) + lat0.exc_curve(0))
        assert not cone0.is_extremal(lat0.exc_curve(0).scale(2))
        assert not cone0.is_extremal(lat0.line(1) + lat0.line(2))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_census(sweep_configs):
    with criterion("incidence census on every sweep config"):
        for cfg in sweep_configs:
            rows = census(build_graph(cfg))
            for (kind, axis, _), profile in zip(oracle_vertices(cfg), rows, strict=True):
                if kind == "exc":
                    assert profile == (0, cfg.r)
                elif kind == "gamma":
                    assert profile == (1, cfg.n * cfg.s[axis - 1])
                else:
                    assert profile == (cfg.n * cfg.s[axis - 1], cfg.r - 1)
                    # the divergence from the nominal divisor-only count n*s_i
                    # is exactly the r-1 line-line meetings; recorded as WARN
                    nominal = cfg.n * cfg.s[axis - 1]
                    assert sum(profile) == nominal + cfg.r - 1


def test_criterion_rigidity(c0, c1):
    with criterion("automorphism rigidity on C0 and C1 (< 10 s each)"):
        for cfg, order in ((c0, 4), (c1, 27)):
            t0 = time.perf_counter()
            positions = range(len(cfg.delta))
            group = geometric_automorphisms(cfg)
            assert len(group) == order == cfg.n ** cfg.r
            for g in group:
                assert all(pow(mu, cfg.n, cfg.q) == 1 for mu in g)
            group_perms = {geometric_permutation(cfg, g, positions) for g in group}
            torsion_perms = {
                delta_permutation(cfg, shifts, positions)
                for shifts in itertools.product(range(cfg.n), repeat=cfg.r)
            }
            assert group_perms == torsion_perms
            assert len(group_perms) == order
            elapsed = time.perf_counter() - t0
            assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_vector_fields(sweep_configs):
    with criterion("vector-field kernel on every sweep config, two fields"):
        for cfg in sweep_configs:
            t0 = time.perf_counter()
            res = derivation_kernel(cfg)
            assert res.dimension == cfg.r
            assert res.nonscalar_witness() is None
            q2 = next_valid_q(cfg.n, cfg.s, cfg.q)
            rec = extra_q_vanishing(cfg, q2)
            assert rec.status == "PASS"
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"{cfg.q}: took {elapsed:.3f}s"


def test_criterion_oracle_equivalences(sweep_configs, c0, c1):
    with criterion("stabilizer and incidence oracles"):
        small = [cfg for cfg in sweep_configs if cfg.q <= 31]
        assert len(small) >= 20
        for cfg in (c0, c1, *small):
            for axis in range(1, cfg.r + 1):
                coords = marked_coordinates(cfg, axis)
                got = stabilizer_of_axis(cfg, axis)
                assert [(1, 0, 0, mu) for mu in got] == stabilizer_oracle(coords, cfg.q)
        for cfg in (c0, c1):
            adj = build_graph(cfg).adjacency
            for (a, ca), (b, cb) in itertools.combinations(enumerate(oracle_vertices(cfg)), 2):
                assert (b in adj[a]) == incident_oracle(ca, cb, cfg)


def test_criterion_determinism(tmp_path):
    with criterion("byte-identical verification reports"):
        cfg_path = tmp_path / "c0.json"
        cfg_path.write_text(json.dumps(
            {"n": 2, "r": 2, "s": [2, 3], "q": 13, "base": [[1, 2], [3, 4, 5]]}
        ))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
