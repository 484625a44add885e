import itertools

import pytest

from blowup_rigidity.errors import AmbiguousProfile, NonGeneric
from blowup_rigidity.fieldgeom import Config, delta_permutation
from blowup_rigidity.rigidity import (
    build_graph,
    census,
    geometric_automorphisms,
    geometric_permutation,
    pin_components,
    verify_rigidity,
    vertex_labels,
)

from blowup_rigidity.report import SweepCase, default_s, resolve_case, run_all

from oracles import (
    abstract_automorphism_count,
    full_group_fields,
    incident_oracle,
    marked_points,
    oracle_adjacency,
    oracle_label,
    oracle_vertices,
)


def test_component_counts(c0, c1):
    assert len(oracle_vertices(c0)) == len(build_graph(c0).adjacency) == 22
    assert len(oracle_vertices(c1)) == len(build_graph(c1).adjacency) == 57


def test_vertex_labels_match_the_oracle(c0, c1):
    for cfg in (c0, c1):
        assert vertex_labels(cfg) == [oracle_label(v) for v in oracle_vertices(cfg)]
    labels = vertex_labels(c0)
    assert labels[0] == "E[1.1.0]"
    assert labels[len(c0.delta)] == "lt1"
    assert labels[len(c0.delta) + c0.r].startswith("gt[")


def index_of(cfg, kind, axis=None, point=None):
    """The index of the one oracle vertex (kind, axis, point)."""
    return oracle_vertices(cfg).index((kind, axis, point))


def test_incident_spot_rules(c0):
    adj = build_graph(c0).adjacency
    line1 = index_of(c0, "line", 1)
    line2 = index_of(c0, "line", 2)
    p1 = next(p for p in marked_points(c0) if p[0] == 1)
    p2 = next(p for p in marked_points(c0) if p[0] == 2)
    p_on_1, p_on_2 = index_of(c0, "exc", point=p1), index_of(c0, "exc", point=p2)
    gamma_p1 = index_of(c0, "gamma", 1, p2)
    assert p_on_1 in adj[line1]
    assert p_on_2 not in adj[line1]
    assert p_on_2 in adj[gamma_p1]          # its own point
    assert p_on_1 not in adj[gamma_p1]
    assert line2 in adj[line1]              # both contain the all-[0:1] point
    assert line1 not in adj[gamma_p1]
    assert line2 not in adj[gamma_p1]
    assert all(v not in adj[v] for v in range(len(adj)))  # irreflexive


def test_incident_gamma_gamma_same_point_r3(c1):
    points = marked_points(c1)
    adj = build_graph(c1).adjacency
    p = next(pt for pt in points if pt[0] == 3)
    g1 = index_of(c1, "gamma", 1, p)
    g2 = index_of(c1, "gamma", 2, p)
    # same marked point, different directions: separated on the blow-up
    assert g2 not in adj[g1]
    # gamma(p, 1) meets gamma(q, 3) for every q on axis 1
    for q in points:
        if q[0] == 1:
            gq = index_of(c1, "gamma", 3, q)
            assert gq in adj[g1] and g1 in adj[gq]


def test_incident_matches_point_oracle_c0(c0):
    adj = build_graph(c0).adjacency
    for (a, ca), (b, cb) in itertools.combinations(enumerate(oracle_vertices(c0)), 2):
        assert (b in adj[a]) == incident_oracle(ca, cb, c0), (ca, cb)


def test_incident_symmetric(c0, c1):
    for cfg in (c0, c1):
        adj = build_graph(cfg).adjacency
        for a, b in itertools.combinations(range(len(adj)), 2):
            assert (b in adj[a]) == (a in adj[b])


@pytest.mark.parametrize("name", ["C0", "C1", "n3r4q19"])
def test_graph_equals_all_pairs_oracle(name, c0, c1):
    cfg = {"C0": c0, "C1": c1}.get(name) or resolve_case(
        SweepCase(3, 4, default_s(3, 4), q=19, seed=1)
    )
    graph = build_graph(cfg)
    want = oracle_adjacency(cfg)
    # the oracle's own vertex order and labels, and the same neighbours in
    # the same order
    index = {v: k for k, v in enumerate(want)}
    assert vertex_labels(cfg) == [oracle_label(v) for v in want]
    assert graph.adjacency == tuple(tuple(index[w] for w in want[v]) for v in want)


def test_graph_counts(c0, c1):
    g0 = build_graph(c0)
    assert len(g0.adjacency) == 22
    assert len(g0.edges) == 45
    g1 = build_graph(c1)
    assert len(g1.adjacency) == 57


def test_graph_empty_delta_harness():
    cfg = Config(n=2, r=3, s=(0, 0, 0), q=13, zeta=12, base=((), (), ()),
                 skip_checks=True)
    g = build_graph(cfg)
    assert vertex_labels(cfg) == ["lt1", "lt2", "lt3"]
    assert len(g.edges) == 3  # complete graph on the lines


def nominal_total(cfg, v) -> int:
    """The nominal neighbor total of `census`'s docstring: r for a divisor,
    n*s_i + 1 for a through-point curve in direction i, n*s_i for the
    axis-i line."""
    kind, axis, _ = v
    if kind == "exc":
        return cfg.r
    return cfg.n * cfg.s[axis - 1] + (1 if kind == "gamma" else 0)


def test_census_profiles(c0):
    rows = census(build_graph(c0))
    for v, profile in zip(oracle_vertices(c0), rows, strict=True):
        kind, axis, _ = v
        nominal = nominal_total(c0, v)
        if kind == "exc":
            assert profile == (0, 2)
            assert sum(profile) == nominal  # nominal r == computed
        elif kind == "gamma":
            assert profile == (1, c0.n * c0.s[axis - 1])
            assert sum(profile) == nominal  # nominal n*s_i + 1 == computed
        else:
            assert profile == (c0.n * c0.s[axis - 1], 1)
            # nominal n*s_i, computed n*s_i + r - 1
            assert sum(profile) != nominal
            assert sum(profile) == nominal + c0.r - 1


def test_census_handshake(c0, c1):
    for cfg in (c0, c1):
        rows = census(build_graph(cfg))
        kinds = [kind for kind, _, _ in oracle_vertices(cfg)]
        curve_side = sum(div for kind, (div, _) in zip(kinds, rows) if kind != "exc")
        divisor_side = sum(cur for kind, (_, cur) in zip(kinds, rows) if kind == "exc")
        assert curve_side == divisor_side


def test_pinning_certificates(c0, c1):
    graph0 = build_graph(c0)
    cert0 = pin_components(graph0, census(graph0))
    assert cert0["line_divisor_degrees"] == {"1": 4, "2": 6}
    assert "total degree" in cert0["exc_criterion"]
    graph1 = build_graph(c1)
    cert1 = pin_components(graph1, census(graph1))
    assert cert1["line_divisor_degrees"] == {"1": 3, "2": 6, "3": 9}
    assert "dimension" in cert1["exc_criterion"]


def test_pinning_ambiguous_on_equal_s():
    cfg = Config(n=2, r=2, s=(2, 2), q=13, zeta=12, base=((1, 2), (3, 4)),
                 skip_checks=True)
    graph = build_graph(cfg)
    with pytest.raises(AmbiguousProfile, match=r"^axes 1 and 2 have equal divisor-degree 4$"):
        pin_components(graph, census(graph))


@pytest.mark.parametrize("n, s, base, text", [
    # with n = 1 the axis-1 line and the axis-1 gammas share the divisors'
    # total degree r, and through-point curves have divisor-degree 1
    (1, (1, 2), ((1,), (3, 4)),
     "components [lt1, gt[2.1.0;1], gt[2.2.0;1]] share the divisor total degree"),
    (1, (1, 2, 3), ((1,), (3, 4), (5, 6, 7)),
     "lt1 has divisor-degree 1, same as a through-point curve"),
])
def test_pinning_ambiguous_texts(n, s, base, text):
    cfg = Config(n=n, r=len(s), s=s, q=13, zeta=1, base=base, skip_checks=True)
    graph = build_graph(cfg)
    with pytest.raises(AmbiguousProfile) as err:
        pin_components(graph, census(graph))
    assert str(err.value) == text


def test_run_all_builds_no_vertex_label(c1, count_calls):
    # labels are only for graph output and pinning messages
    calls = count_calls("rigidity.vertex_labels")
    assert run_all(c1, draws=20).exit_code == 0
    assert calls == {"rigidity.vertex_labels": 0}


def test_geometric_automorphisms_orders(c0, c1):
    auts0 = geometric_automorphisms(c0)
    assert len(auts0) == 4
    auts1 = geometric_automorphisms(c1)
    assert len(auts1) == 27
    assert auts0 == [(1, 1), (1, 12), (12, 1), (12, 12)]  # torsion-shift order
    for cfg, auts in ((c0, auts0), (c1, auts1)):
        assert all(pow(mu, cfg.n, cfg.q) == 1 for g in auts for mu in g)


def test_geometric_automorphisms_closed(c0):
    auts = set(geometric_automorphisms(c0))
    for g, h in itertools.product(auts, repeat=2):
        assert tuple(a * b % c0.q for a, b in zip(g, h)) in auts


def test_group_action_embedding_is_bijective(c1):
    positions = range(len(c1.delta))
    auts = geometric_automorphisms(c1)
    perm_of = {g: geometric_permutation(c1, g, positions) for g in auts}
    assert len(set(perm_of.values())) == len(auts)  # faithful
    torsion_perms = {
        delta_permutation(c1, shifts, positions)
        for shifts in itertools.product(range(c1.n), repeat=c1.r)
    }
    assert torsion_perms == set(perm_of.values())


def test_geometric_automorphisms_non_generic():
    cfg = Config(n=3, r=2, s=(2, 3), q=13, zeta=3, base=((1, 4), (1, 2, 4)))
    with pytest.raises(NonGeneric) as err:
        geometric_automorphisms(cfg)
    assert "axis 1" in str(err.value)


def test_verify_rigidity_pass(c0, c1):
    for cfg in (c0, c1):
        records = verify_rigidity(cfg)
        by_id = {r.check_id: r for r in records}
        assert by_id["rigidity.automorphisms"].status == "PASS"
        assert by_id["rigidity.census_lines"].status == "WARN"
        statuses = {r.status for r in records}
        assert "FAIL" not in statuses


def test_verify_rigidity_fails_when_actions_differ(c0, monkeypatch):
    # a geometric side that fixes every point matches only the identity shift
    import blowup_rigidity.rigidity as rigidity

    monkeypatch.setattr(rigidity, "geometric_permutation",
                        lambda config, g, positions: tuple(positions))
    by_id = {r.check_id: r for r in verify_rigidity(c0)}
    assert by_id["rigidity.automorphisms"].status == "FAIL"
    assert by_id["rigidity.automorphisms"].computed["matches_torsion_action"] is False


@pytest.mark.parametrize("name", ["C0", "C1", "n3r4q19"])
def test_verify_rigidity_matches_full_group_oracle(name, c0, c1):
    # n^r <= 81: the oracle lists the whole group and maps it over Delta
    cfg = {"C0": c0, "C1": c1}.get(name) or resolve_case(
        SweepCase(3, 4, default_s(3, 4), q=19, seed=1)
    )
    by_id = {r.check_id: r for r in verify_rigidity(cfg)}
    assert by_id["rigidity.automorphisms"].computed == full_group_fields(cfg)


def _fix_points(real, hit):
    """real, with every position k for which hit(config, k) holds left
    fixed."""
    def sabotaged(config, g, positions):
        return tuple(k if hit(config, k) else img
                     for k, img in zip(positions, real(config, g, positions)))
    return sabotaged


def _past_first_orbit_of_last_axis(cfg, k):
    """The point at position k is on axis r, outside its first orbit."""
    return cfg.axis_of[k] == cfg.r and k >= cfg.axis_of.index(cfg.r) + cfg.n


SABOTAGE = {
    # faithful on the last axis, but moves only its first orbit
    "geometric_last_axis": ("geometric_permutation", _past_first_orbit_of_last_axis),
    # every scaling acts trivially on axis 1
    "geometric_not_faithful": ("geometric_permutation", lambda cfg, k: cfg.axis_of[k] == 1),
    # the shifts of the last axis leave all but its first orbit in place
    "torsion_last_axis": ("delta_permutation", _past_first_orbit_of_last_axis),
}


@pytest.mark.parametrize("sabotage", sorted(SABOTAGE))
def test_verify_rigidity_fails_on_one_wrong_axis(sabotage, c0, c1, monkeypatch):
    import blowup_rigidity.rigidity as rigidity

    attr, hit = SABOTAGE[sabotage]
    monkeypatch.setattr(rigidity, attr, _fix_points(getattr(rigidity, attr), hit))
    for cfg in (c0, c1):
        aut = {r.check_id: r for r in verify_rigidity(cfg)}["rigidity.automorphisms"]
        assert aut.status == "FAIL"
        assert aut.computed["matches_torsion_action"] is False
        assert aut.computed["order"] == cfg.n ** cfg.r


def test_verify_n7_r7_end_to_end():
    # 7^7 = 823543 group elements: checked per axis, never listed
    cfg = resolve_case(SweepCase(7, 7, default_s(7, 7), q=71, seed=1))
    report = run_all(cfg)
    by_id = {r.check_id: r for r in report.records}
    assert by_id["rigidity.automorphisms"].status == "PASS"
    assert by_id["rigidity.automorphisms"].computed["order"] == 823543
    assert [r.check_id for r in report.records if r.status != "PASS"] == [
        "rigidity.census_lines"
    ]
    assert by_id["rigidity.census_lines"].status == "WARN"
    assert report.exit_code == 0


def test_verify_rigidity_fail_non_generic():
    cfg = Config(n=3, r=2, s=(2, 3), q=13, zeta=3, base=((1, 4), (1, 2, 4)))
    records = verify_rigidity(cfg)
    by_id = {r.check_id: r for r in records}
    assert by_id["rigidity.automorphisms"].status == "FAIL"
    assert "NonGeneric" in str(by_id["rigidity.automorphisms"].computed)


def test_graph_serialization(c0):
    graph = build_graph(c0)
    adj = graph.to_adjacency_dict()
    assert set(adj["lt1"]) >= {"lt2"}
    assert len(adj) == 22
    dot = graph.to_dot()
    assert dot.startswith("graph incidence {")
    assert '"lt1" -- "lt2"' in dot or '"lt2" -- "lt1"' in dot
    assert "shape=box" in dot


def test_abstract_graph_has_extra_automorphisms(c0):
    # the unlabeled incidence graph cannot pin the geometry: its automorphism
    # group is much larger than the geometric one (order 4 here)
    graph = build_graph(c0)
    count = abstract_automorphism_count(graph, cap=64)
    assert count > 4
