import pytest

from blowup_rigidity.cone import EffectiveCone, GeneratorSet
from blowup_rigidity.errors import NotEffective
from blowup_rigidity.fieldgeom import Lcg
from blowup_rigidity.lattice import BlowupLattice, CurveClass
from blowup_rigidity.report import (
    SweepCase,
    cone_checks,
    default_s,
    generators_extremal,
    resolve_case,
)

from oracles import full_extremal_scan, naive_decompositions, pointwise_phi


def test_generator_counts(lat0, lat1):
    assert len(GeneratorSet(lat0)) == 22
    assert GeneratorSet(lat0).expected_count == 22
    assert len(GeneratorSet(lat1)) == 57
    assert GeneratorSet(lat1).expected_count == 57


def test_generator_order_and_labels(cone0):
    labels = [g.label for g in cone0.genset]
    assert labels[0] == "lt1"
    assert labels[1] == "lt2"
    assert labels[2].startswith("gt[2.")  # axis-1 gammas sit at axis-2 points
    assert labels[-1] == "e[2.3.1]"
    kinds = [g.kind for g in cone0.genset]
    assert kinds == ["line"] * 2 + ["gamma"] * 10 + ["exc"] * 10


def test_phi_values_c0(cone0, lat0):
    # N = 1 + 10 = 11
    assert cone0.genset.N == 11
    assert cone0.phi(lat0.line(1)) == 7
    assert cone0.phi(lat0.line(2)) == 5
    assert cone0.phi(lat0.exc_curve(lat0.points[0])) == 1
    for g in cone0.genset:
        if g.kind == "gamma":
            assert g.phi == 10
        assert g.phi >= 1


def test_phi_additive(cone0, lat0):
    rng = Lcg(3)
    basis = lat0.curve_basis()
    for _ in range(50):
        c1 = basis[rng.below(len(basis))].scale(rng.below(7) - 3)
        c2 = basis[rng.below(len(basis))].scale(rng.below(7) - 3)
        assert cone0.phi(c1 + c2) == cone0.phi(c1) + cone0.phi(c2)


def test_member_generator_is_singleton(cone0):
    for g in cone0.genset:
        dec = cone0.member(g.cls)
        assert dec is not None
        assert dec.parts == ((g.label, 1),)


def test_member_gamma_combination(cone0, lat0):
    # the explicit combination lt_i + sum of axis-i e_q minus e_p is the
    # through-p class itself
    p = next(pt for pt in lat0.points if pt.axis == 2)
    target = lat0.line(1) - lat0.exc_curve(p)
    for q in lat0.points:
        if q.axis == 1:
            target = target + lat0.exc_curve(q)
    dec = cone0.member(target)
    assert dec is not None
    assert dec.parts == ((f"gt[{p.key};1]", 1),)


def test_member_absent(cone0, lat0):
    neg = lat0.exc_curve(lat0.points[0]).scale(-1)
    assert cone0.phi(neg) == -1
    assert cone0.member(neg) is None
    # positive phi but impossible coordinates
    off = lat0.line(1) - lat0.exc_curve(lat0.points[5]).scale(3)
    assert cone0.member(off) is None


def test_member_zero_class(cone0, lat0):
    dec = cone0.member(lat0.zero_curve())
    assert dec is not None and dec.parts == ()


def test_two_part_examples(cone0, lat0):
    p = lat0.points[0]
    e = lat0.exc_curve(p)
    assert cone0.two_part_decompositions(e) == []
    double = cone0.two_part_decompositions(e.scale(2))
    assert len(double) == 1
    d1, d2 = double[0]
    assert d1.parts == d2.parts == ((f"e[{p.key}]", 1),)
    mixed = cone0.two_part_decompositions(lat0.line(1) + e)
    assert any(
        {d1.parts, d2.parts} == {(("lt1", 1),), ((f"e[{p.key}]", 1),)}
        for d1, d2 in mixed
    )
    with pytest.raises(NotEffective):
        cone0.two_part_decompositions(e.scale(-1))


def test_extremality_c0(cone0, lat0):
    for g in cone0.genset:
        assert cone0.is_extremal(g.cls)
    p = lat0.points[0]
    assert not cone0.is_extremal(lat0.line(1) + lat0.exc_curve(p))
    assert not cone0.is_extremal(lat0.exc_curve(p).scale(2))
    assert not cone0.is_extremal(lat0.line(1) + lat0.line(2))


def test_decompositions_match_naive_oracle(cone0, lat0):
    # unstructured bounded search over the same generator list must find
    # exactly the same decompositions
    p = lat0.points[0]
    targets = [
        lat0.exc_curve(p),
        lat0.exc_curve(p).scale(2),
        lat0.line(2),
        lat0.line(2) + lat0.exc_curve(p),
        lat0.gamma(lat0.points[4], 1),
        lat0.line(1) + lat0.line(2),
        # zero multidegree, so every gamma block total is 0, and e_p = -1
        CurveClass((0, 0), (-1, 2) + (0,) * (lat0.size - 2), lat0),
    ]
    for target in targets:
        fast = {
            frozenset(dec.parts) for dec in cone0.all_decompositions(target)
        }
        slow = naive_decompositions(cone0.genset, target, cone0.phi(target))
        assert fast == slow
    assert cone0.phi(targets[-1]) == 1
    assert cone0.member(targets[-1]) is None


def test_case2_random_membership(cone0, lat0):
    rng = Lcg(99)
    for _ in range(60):
        a = tuple(rng.below(3) for _ in range(2))
        eps = tuple(rng.below(a[p.axis - 1] + 1) for p in lat0.points)
        target = lat0.expand_in_basis(a, eps)
        dec = cone0.member(target)
        assert dec is not None
        resum = dec.resum(cone0.genset)
        assert (resum.l, resum.e) == (target.l, target.e)


def test_case3_identity(cone0, lat0, lat1, c1):
    q0 = next(p for p in lat0.points if p.axis == 2)
    assert cone0.case3_identity(q0, (0, 0), 0)
    assert cone0.case3_identity(q0, (1, 0), 0)
    assert cone0.case3_identity(q0, (3, 0), 2)
    cone1 = EffectiveCone(lat1)
    q3 = next(p for p in lat1.points if p.axis == 3)
    assert cone1.case3_identity(q3, (2, 1, 0), 1)
    with pytest.raises(ValueError):
        cone0.case3_identity(q0, (0, 1), 0)  # nonzero at the point's own axis
    with pytest.raises(ValueError):
        cone0.case3_identity(q0, (-1, 0), 0)


def test_case3_identity_random(lat1):
    cone1 = EffectiveCone(lat1)
    rng = Lcg(123)
    for _ in range(200):
        q0 = lat1.points[rng.below(lat1.size)]
        a = tuple(
            0 if axis == q0.axis else rng.below(4)
            for axis in range(1, lat1.config.r + 1)
        )
        assert cone1.case3_identity(q0, a, rng.below(4))


def test_case3_identity_fails_on_wrong_generator_support(lat0):
    # the right-hand side is summed from the cone's own generator table, so
    # one wrong entry in gt[q0;1] must break the identity wherever it is used
    cone = EffectiveCone(lat0)
    q0 = next(p for p in lat0.points if p.axis == 2)
    label = f"gt[{q0.key};1]"
    (k, x), *rest = cone.genset.support[label]
    cone.genset.support[label] = ((k, x + 1), *rest)
    assert not cone.case3_identity(q0, (1, 0), 0)
    assert not cone.case3_identity(q0, (3, 0), 2)
    assert cone.case3_identity(q0, (0, 0), 1)  # gt[q0;1] takes no part
    with pytest.raises(RuntimeError):  # the search's re-sum guard agrees
        cone.member(lat0.gamma(q0, 1))


def test_member_has_no_degree_cap(cone0, lat0):
    # phi 121 is above the 10 * N = 110 that once capped the search; the
    # search ends anyway because phi >= 1 on every generator
    target = lat0.expand_in_basis((6, 5), (0,) * lat0.size)
    assert cone0.phi(target) == 121
    dec = cone0.member(target)
    assert dec is not None
    back = dec.resum(cone0.genset)
    assert (back.l, back.e) == (target.l, target.e)


def test_unsound_decomposition_raises(cone0, lat0, monkeypatch):
    from blowup_rigidity.cone import Decomposition

    monkeypatch.setattr(Decomposition, "resum", lambda self, genset: lat0.zero_curve())
    with pytest.raises(RuntimeError, match="unsound decomposition"):
        cone0.member(lat0.line(1))


def test_decomposition_repr_and_resum(cone0, lat0):
    dec = cone0.member(lat0.line(1) + lat0.exc_curve(lat0.points[0]))
    assert dec.size == 2
    text = repr(dec)
    assert "lt1" in text and "e[1.1.0]" in text
    back = dec.resum(cone0.genset)
    want = lat0.line(1) + lat0.exc_curve(lat0.points[0])
    assert (back.l, back.e) == (want.l, want.e)


def test_generator_set_json(cone0):
    import json

    data = json.loads(cone0.genset.to_json())
    assert len(data) == 22
    assert {d["kind"] for d in data} == {"line", "gamma", "exc"}
    assert all(len(d["class"]) == 12 for d in data)


def _mult_vector(cone, dec):
    mults = dict(dec.parts)
    return [mults.get(g.label, 0) for g in cone.genset]


def _rich_targets(lat):
    """Sums with many decompositions: lt_i plus every e_q on axis i equals
    gt[p;i] + e_p for each p off axis i, so these mix lines, repeated and
    distinct gammas of one block, and exceptional lines."""
    p, p2 = [pt for pt in lat.points if pt.axis != 1][:2]
    q = next(pt for pt in lat.points if pt.axis == 1)

    def closed(i):
        c = lat.line(i)
        for pt in lat.points:
            if pt.axis == i:
                c = c + lat.exc_curve(pt)
        return c

    every = lat.zero_curve()
    for i in range(1, lat.config.r + 1):
        every = every + closed(i)
    return [
        lat.gamma(p, 1).scale(2) + lat.gamma(p2, 1) + lat.exc_curve(p) + lat.exc_curve(q),
        closed(1).scale(2) + lat.exc_curve(p) + lat.exc_curve(p2),
        every,
        every + lat.exc_curve(q) + lat.exc_curve(p2).scale(2),
    ]


def test_decompositions_in_canonical_order(cone0, lat1):
    # every list is strictly decreasing in the lexicographic order of the
    # multiplicity vector over the canonical generator order, and member
    # returns its head
    for cone in (cone0, EffectiveCone(lat1)):
        for target in _rich_targets(cone.lattice):
            decs = cone.all_decompositions(target)
            assert len(decs) >= 2
            vectors = [_mult_vector(cone, dec) for dec in decs]
            assert all(a > b for a, b in zip(vectors, vectors[1:]))
            assert cone.member(target) == decs[0]


def test_decompositions_match_naive_oracle_c1(lat1):
    cone1 = EffectiveCone(lat1)
    p, p2 = [pt for pt in lat1.points if pt.axis != 1][:2]
    single = lat1.gamma(p, 1).scale(2) + lat1.gamma(p2, 1)
    for target in [single] + _rich_targets(lat1):
        decs = cone1.all_decompositions(target)
        fast = {frozenset(dec.parts) for dec in decs}
        assert len(fast) == len(decs)
        assert fast == naive_decompositions(cone1.genset, target, cone1.phi(target))


def test_cone_search_depth_n7_r7():
    # 1379 generators, 1176 of them gammas: a search that recursed once per
    # gamma hit Python's recursion limit here
    cfg = resolve_case(SweepCase(7, 7, default_s(7, 7), q=71, seed=1))
    cone = EffectiveCone(BlowupLattice(cfg))
    assert len(cone.genset) == 1379
    first_gamma = next(g for g in cone.genset if g.kind == "gamma")
    assert cone.is_extremal(first_gamma.cls)
    assert cone.genset.generators[-1].kind == "exc"
    assert cone.is_extremal(cone.genset.generators[-1].cls)


def _orbit_key(g):
    """(kind, free axis, point axis) read off a generator's class."""
    lat = g.cls.lattice
    free = g.cls.l.index(1) + 1 if any(g.cls.l) else None
    point = None
    if g.kind != "line":
        point = lat.axis_of[g.cls.e.index(1 if g.kind == "exc" else -1)]
    return g.kind, free, point


def _named_config(which, request):
    if which == "n3r4q19":
        return resolve_case(SweepCase(3, 4, default_s(3, 4), q=19, seed=1))
    return request.getfixturevalue(which)


@pytest.mark.parametrize("which", ["c0", "c1", "n3r4q19"])
def test_extremal_record_matches_full_scan(which, request):
    cfg = _named_config(which, request)
    cone = EffectiveCone(BlowupLattice(cfg))
    rec = next(rec for rec in cone_checks(cone, draws=5)
               if rec.check_id == "cone.generators_extremal")
    assert rec.status == "PASS"
    assert rec.computed["non_extremal"] == full_extremal_scan(cone) == []
    # one orbit per lt_i, per axis's e_p and per (free axis, point axis)
    orbits = cone.genset.orbits()
    r = cfg.r
    assert len(orbits) == r * (r + 1)
    gens = cone.genset.generators
    keys = [{_orbit_key(gens[g]) for g in orbit} for orbit in orbits]
    assert all(len(k) == 1 for k in keys)
    assert sorted(g for orbit in orbits for g in orbit) == list(range(len(gens)))


@pytest.mark.parametrize("which", ["c0", "c1", "n3r4q19"])
def test_phi_and_support_match_pointwise_oracles(which, request):
    # phi in closed form against the per-point definition, on every
    # generator and on 100 seeded expansions
    cfg = _named_config(which, request)
    cone = EffectiveCone(BlowupLattice(cfg))
    lat = cone.lattice
    for g in cone.genset:
        assert g.phi == pointwise_phi(lat, g.cls)
        assert cone.genset.support[g.label] == tuple(
            (k, x) for k, x in enumerate(g.cls.to_array()) if x)
    rng = Lcg(17)
    bounds = (15,) * (cfg.r + lat.size)
    for _ in range(100):
        vec = [x - 5 for x in rng.take(bounds)]
        c = lat.expand_in_basis(tuple(vec[:cfg.r]), tuple(vec[cfg.r:]))
        assert cone.phi(c) == pointwise_phi(lat, c)


def _lopsided_cone(config, monkeypatch):
    """A cone whose gamma gt[p;3], p the second point on axis 2, also carries
    e_x for the third point x on axis 2: no swap on axis 2 that moves p or
    x maps it onto a generator.  Returns the cone and that generator."""
    honest = BlowupLattice.gamma
    lat = BlowupLattice(config)
    p, _, x = [q for q in lat.points if q.axis == 2][1:4]

    def lopsided(self, q, i):
        c = honest(self, q, i)
        return c + self.exc_curve(x) if (q, i) == (p, 3) else c

    monkeypatch.setattr(BlowupLattice, "gamma", lopsided)
    cone = EffectiveCone(lat)
    bad = next(g for g in cone.genset if g.label == f"gt[{p.key};3]")
    return cone, bad


def _spy_extremal(monkeypatch, answers):
    """Replace is_extremal by a spy: classes in `answers` get the answer
    given there, the rest go to the search.  Returns the list of the
    classes asked about, as (l, e) pairs."""
    honest = EffectiveCone.is_extremal
    asked = []

    def spy(self, c):
        key = (c.l, c.e)
        asked.append(key)
        return answers[key] if key in answers else honest(self, c)

    monkeypatch.setattr(EffectiveCone, "is_extremal", spy)
    return asked


def test_asymmetric_gamma_is_tested_itself(c1, monkeypatch):
    # the search assumes the true gamma shape, so the spy answers for the
    # lopsided class, which is gt[p;3] + e_x and so splits
    cone, bad = _lopsided_cone(c1, monkeypatch)
    key = (bad.cls.l, bad.cls.e)
    asked = _spy_extremal(monkeypatch, {key: False})
    want = full_extremal_scan(cone)
    assert want == [bad.label]
    asked.clear()
    rec = generators_extremal(cone)
    assert key in asked
    assert rec.status == "FAIL"
    assert rec.computed["non_extremal"] == want


@pytest.mark.parametrize("lopsided", [False, True])
def test_non_extremal_representative_lists_its_orbit(c1, lopsided, monkeypatch):
    # the spy makes every true gt[p;3] with p on axis 2 split, so one
    # representative's answer must list its whole orbit; the lopsided gamma
    # is in no orbit with them, stays extremal and must not be listed
    plain = EffectiveCone(BlowupLattice(c1))
    orbit = [g for g in plain.genset if _orbit_key(g) == ("gamma", 3, 2)]
    answers = {(g.cls.l, g.cls.e): False for g in orbit}
    cone, bad = _lopsided_cone(c1, monkeypatch) if lopsided else (plain, None)
    if bad is not None:
        answers[(bad.cls.l, bad.cls.e)] = True
    asked = _spy_extremal(monkeypatch, answers)
    want = full_extremal_scan(cone)
    assert want == [g.label for g in orbit if bad is None or g.label != bad.label]
    asked.clear()
    rec = generators_extremal(cone)
    assert rec.status == "FAIL"
    assert rec.computed["non_extremal"] == want
    assert len(asked) == len(cone.genset.orbits()) < len(cone.genset)
