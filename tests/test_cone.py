import re

import pytest

from blowup_rigidity.cone import (
    EffectiveCone,
    GeneratorSet,
    cone_checks,
    generator_labels,
    generators_extremal,
)
from blowup_rigidity.errors import NotEffective, UnsoundDecomposition
from blowup_rigidity.fieldgeom import Lcg
from blowup_rigidity.lattice import BlowupLattice, CurveClass
from blowup_rigidity.report import SweepCase, default_s, resolve_case, run_all

from oracles import (
    full_extremal_scan,
    marked_points,
    naive_decompositions,
    oracle_case3_sum,
    oracle_gamma,
    oracle_generator_labels,
    oracle_generators,
    point_axes,
    point_key,
    pointwise_phi,
)


def zero_curve(lat):
    return CurveClass((0,) * lat.config.r, (0,) * lat.size, lat)


def _key(lat, k):
    """The oracle's key of the point at position k."""
    return point_key(marked_points(lat.config)[k])


def _labelled(lat, dec):
    """A decomposition's parts with each generator named by the oracle."""
    labels = oracle_generator_labels(lat)
    return tuple((labels[g], m) for g, m in dec)


def test_generator_counts(lat0, lat1):
    assert len(GeneratorSet(lat0)) == 22
    assert GeneratorSet(lat0).expected_count == 22
    assert len(GeneratorSet(lat1)) == 57
    assert GeneratorSet(lat1).expected_count == 57


def test_generator_order_and_labels(lat0, request):
    labels = generator_labels(lat0)
    assert labels[0] == "lt1"
    assert labels[1] == "lt2"
    assert labels[2].startswith("gt[2.")  # axis-1 gammas sit at axis-2 points
    assert labels[-1] == "e[2.3.1]"
    assert GeneratorSet(lat0).blocks == [2, 8, 12]  # 6 points off axis 1, 4 off axis 2
    for which in ("c0", "c1", "n3r4q19"):
        lat = BlowupLattice(_named_config(which, request))
        genset = GeneratorSet(lat)
        assert generator_labels(lat) == oracle_generator_labels(lat)
        # each position holds the class of the oracle's generator there, and
        # the gammas of free axis i sit from blocks[i - 1] to blocks[i] - 1
        gens = oracle_generators(lat)
        position = {p: k for k, p in enumerate(marked_points(lat.config))}
        want = [lat.line(i) if kind == "line" else
                oracle_gamma(lat, position[p], i) if kind == "gamma" else
                lat.exc_curve(position[p])
                for kind, i, p in gens]
        assert [(c.l, c.e) for c in genset] == [(c.l, c.e) for c in want]
        blocks, r = genset.blocks, lat.config.r
        assert blocks[0] == r and len(genset) - blocks[r] == lat.size
        for i in range(1, r + 1):
            assert {gen[:2] for gen in gens[blocks[i - 1]:blocks[i]]} == {("gamma", i)}


def test_phi_values_c0(cone0, lat0):
    # N = 1 + 10 = 11
    assert cone0.genset.N == 11
    phi = cone0.genset.phi
    assert phi(lat0.line(1)) == 7
    assert phi(lat0.line(2)) == 5
    assert phi(lat0.exc_curve(0)) == 1
    phis, blocks = cone0.genset.phis, cone0.genset.blocks
    assert phis[blocks[0]:blocks[-1]] == (10,) * 10  # the gammas
    assert min(phis) >= 1


def test_phi_additive(cone0, lat0):
    rng = Lcg(3)
    basis = lat0.curve_basis()
    phi = cone0.genset.phi
    for _ in range(50):
        c1 = basis[rng.below(len(basis))].scale(rng.below(7) - 3)
        c2 = basis[rng.below(len(basis))].scale(rng.below(7) - 3)
        assert phi(c1 + c2) == phi(c1) + phi(c2)


def test_member_generator_is_singleton(cone0):
    for g, c in enumerate(cone0.genset):
        dec = cone0.member(c)
        assert dec is not None
        assert dec == ((g, 1),)


def test_member_gamma_combination(cone0, lat0):
    # the explicit combination lt_i + sum of axis-i e_q minus e_p is the
    # through-p class itself
    k = lat0.axis_of.index(2)
    target = lat0.line(1) + lat0.exc_curve(k).scale(-1)
    for q, axis in enumerate(lat0.axis_of):
        if axis == 1:
            target = target + lat0.exc_curve(q)
    dec = cone0.member(target)
    assert dec is not None
    assert _labelled(lat0, dec) == ((f"gt[{_key(lat0, k)};1]", 1),)


def test_member_absent(cone0, lat0):
    neg = lat0.exc_curve(0).scale(-1)
    assert cone0.genset.phi(neg) == -1
    assert cone0.member(neg) is None
    # positive phi but impossible coordinates
    off = lat0.line(1) + lat0.exc_curve(5).scale(-3)
    assert cone0.member(off) is None


def test_member_zero_class(cone0, lat0):
    dec = cone0.member(zero_curve(lat0))
    assert dec == ()


def test_two_part_examples(cone0, lat0):
    key = _key(lat0, 0)
    e = lat0.exc_curve(0)
    assert cone0.two_part_decompositions(e) == []
    double = cone0.two_part_decompositions(e.scale(2))
    assert len(double) == 1
    d1, d2 = double[0]
    assert _labelled(lat0, d1) == _labelled(lat0, d2) == ((f"e[{key}]", 1),)
    mixed = cone0.two_part_decompositions(lat0.line(1) + e)
    assert any(
        {_labelled(lat0, d1), _labelled(lat0, d2)} == {(("lt1", 1),), ((f"e[{key}]", 1),)}
        for d1, d2 in mixed
    )
    with pytest.raises(NotEffective):
        cone0.two_part_decompositions(e.scale(-1))


def test_extremality_c0(cone0, lat0):
    for c in cone0.genset:
        assert cone0.is_extremal(c)
    assert not cone0.is_extremal(lat0.line(1) + lat0.exc_curve(0))
    assert not cone0.is_extremal(lat0.exc_curve(0).scale(2))
    assert not cone0.is_extremal(lat0.line(1) + lat0.line(2))


def test_decompositions_match_naive_oracle(cone0, lat0):
    # unstructured bounded search over the same generator list must find
    # exactly the same decompositions
    e = lat0.exc_curve(0)
    targets = [
        e,
        e.scale(2),
        lat0.line(2),
        lat0.line(2) + e,
        oracle_gamma(lat0, 4, 1),
        lat0.line(1) + lat0.line(2),
        # zero multidegree, so every gamma block total is 0, and e_p = -1
        CurveClass((0, 0), (-1, 2) + (0,) * (lat0.size - 2), lat0),
    ]
    for target in targets:
        fast = {
            frozenset(_labelled(lat0, dec)) for dec in cone0.all_decompositions(target)
        }
        slow = naive_decompositions(cone0.genset, target, cone0.genset.phi(target))
        assert fast == slow
    assert cone0.genset.phi(targets[-1]) == 1
    assert cone0.member(targets[-1]) is None


def test_case2_random_membership(cone0, lat0):
    rng = Lcg(99)
    for _ in range(60):
        a = tuple(rng.below(3) for _ in range(2))
        eps = tuple(rng.below(a[axis - 1] + 1) for axis in lat0.axis_of)
        target = lat0.expand_in_basis(a, eps)
        dec = cone0.member(target)
        assert dec is not None
        resum = cone0.genset.resum(dec)
        assert (resum.l, resum.e) == (target.l, target.e)


def _case3_class(lat, k0, a, eps):
    """The expanded class of multidegree a and excess eps at position k0
    alone, as a coefficient array."""
    excess = [0] * lat.size
    excess[k0] = eps
    return lat.expand_in_basis(a, tuple(excess)).to_array()


def test_case3_identity(cone0, lat0, lat1):
    cone1 = EffectiveCone(lat1)
    for cone, lat in ((cone0, lat0), (cone1, lat1)):
        assert all(cone.case3_identity(k) for k in range(lat.size))
    k0 = point_axes(lat0.config).index(2)  # the first point on axis 2
    for a, eps in (((0, 0), 0), ((1, 0), 0), ((3, 0), 2), ((0, 0), 5)):
        assert _case3_class(lat0, k0, a, eps) == oracle_case3_sum(lat0, k0, a, eps)
    k1 = point_axes(lat1.config).index(3)
    assert _case3_class(lat1, k1, (2, 1, 0), 1) == oracle_case3_sum(lat1, k1, (2, 1, 0), 1)


def test_case3_identity_random(lat1):
    # the identity that case3_identity decides on a basis, on random
    # (q0, a, eps), against the oracle's own dense generator classes
    axes = point_axes(lat1.config)
    rng = Lcg(123)
    for _ in range(200):
        k0 = rng.below(lat1.size)
        a = tuple(0 if axis == axes[k0] else rng.below(4)
                  for axis in range(1, lat1.config.r + 1))
        eps = rng.below(4)
        assert _case3_class(lat1, k0, a, eps) == oracle_case3_sum(lat1, k0, a, eps)


def test_case3_identity_fails_on_wrong_generator_support(lat0):
    # the identities read the cone's own generator table, so one wrong
    # entry in gt[q0;1] must fail at q0 and nowhere else
    cone = EffectiveCone(lat0)
    k0 = point_axes(lat0.config).index(2)
    g = oracle_generator_labels(lat0).index(f"gt[{_key(lat0, k0)};1]")
    supports = list(cone.genset.supports)
    (k, x), *rest = supports[g]
    supports[g] = ((k, x + 1), *rest)
    cone.genset.supports = tuple(supports)
    assert [k for k in range(lat0.size) if not cone.case3_identity(k)] == [k0]
    with pytest.raises(UnsoundDecomposition):  # the search's re-sum guard agrees
        cone.member(oracle_gamma(lat0, k0, 1))


def test_case3_identity_sees_every_gamma_on_n2_r12(monkeypatch):
    # n2 r12 q29 has 1716 gammas.  The stored support of gt[155;10] (the
    # last point, free axis 10) gets its -1 entry one point along, at 154,
    # and its class stays as it was.  No other check's search re-sums that
    # gamma at seed 1, so only a check of every gamma can see it
    cfg = resolve_case(SweepCase(2, 12, default_s(2, 12), seed=1))
    assert (cfg.q, len(cfg.delta)) == (29, 156)
    honest = GeneratorSet.__init__

    def init(self, lattice):
        honest(self, lattice)
        r = lattice.config.r
        g = oracle_generator_labels(lattice).index(f"gt[{_key(lattice, 155)};10]")
        supports = list(self.supports)
        supports[g] = tuple((r + 154 if k == r + 155 else k, x) for k, x in supports[g])
        self.supports = tuple(supports)

    monkeypatch.setattr(GeneratorSet, "__init__", init)
    report = run_all(cfg)
    assert [rec.check_id for rec in report.records if rec.status == "FAIL"] == [
        "cone.case3_identity"]
    assert report.exit_code == 1


def test_member_has_no_degree_cap(cone0, lat0):
    # phi 121 is above the 10 * N = 110 that once capped the search; the
    # search ends anyway because phi >= 1 on every generator
    target = lat0.expand_in_basis((6, 5), (0,) * lat0.size)
    assert cone0.genset.phi(target) == 121
    dec = cone0.member(target)
    assert dec is not None
    back = cone0.genset.resum(dec)
    assert (back.l, back.e) == (target.l, target.e)


def test_unsound_decomposition_raises(cone0, lat0, monkeypatch):
    monkeypatch.setattr(GeneratorSet, "resum", lambda self, parts: zero_curve(lat0))
    # the message names the generators by label
    with pytest.raises(UnsoundDecomposition,
                       match=re.escape("lt1 does not re-sum to C(l=[1, 0]")):
        cone0.member(lat0.line(1))


def test_decomposition_size_and_resum(cone0, lat0):
    want = lat0.line(1) + lat0.exc_curve(0)
    dec = cone0.member(want)
    assert sum(m for _, m in dec) == 2
    assert _labelled(lat0, dec) == (("lt1", 1), ("e[1.1.0]", 1))
    back = cone0.genset.resum(dec)
    assert (back.l, back.e) == (want.l, want.e)


def test_generator_set_json(cone0):
    import json

    data = json.loads(cone0.genset.to_json())
    assert len(data) == 22
    assert {d["kind"] for d in data} == {"line", "gamma", "exc"}
    assert all(len(d["class"]) == 12 for d in data)


def _mult_vector(cone, dec):
    mults = dict(dec)
    return [mults.get(g, 0) for g in range(len(cone.genset))]


def _rich_targets(lat):
    """Sums with many decompositions: lt_i plus every e_q on axis i equals
    gt[p;i] + e_p for each p off axis i, so these mix lines, repeated and
    distinct gammas of one block, and exceptional lines."""
    p, p2 = [k for k, axis in enumerate(lat.axis_of) if axis != 1][:2]
    q = lat.axis_of.index(1)
    e = lat.exc_curve

    def closed(i):
        c = lat.line(i)
        for k, axis in enumerate(lat.axis_of):
            if axis == i:
                c = c + e(k)
        return c

    every = zero_curve(lat)
    for i in range(1, lat.config.r + 1):
        every = every + closed(i)
    return [
        oracle_gamma(lat, p, 1).scale(2) + oracle_gamma(lat, p2, 1) + e(p) + e(q),
        closed(1).scale(2) + e(p) + e(p2),
        every,
        every + e(q) + e(p2).scale(2),
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
    p, p2 = [k for k, axis in enumerate(lat1.axis_of) if axis != 1][:2]
    single = oracle_gamma(lat1, p, 1).scale(2) + oracle_gamma(lat1, p2, 1)
    for target in [single] + _rich_targets(lat1):
        decs = cone1.all_decompositions(target)
        fast = {frozenset(_labelled(lat1, dec)) for dec in decs}
        assert len(fast) == len(decs)
        assert fast == naive_decompositions(cone1.genset, target, cone1.genset.phi(target))


def test_cone_search_depth_n7_r7():
    # 1379 generators, 1176 of them gammas: a search that recursed once per
    # gamma hit Python's recursion limit here
    cfg = resolve_case(SweepCase(7, 7, default_s(7, 7), q=71, seed=1))
    cone = EffectiveCone(BlowupLattice(cfg))
    genset = cone.genset
    assert len(genset) == 1379
    assert cone.is_extremal(genset.classes[genset.blocks[0]])  # the first gamma
    assert cone.is_extremal(genset.classes[-1])  # the last exceptional line


def _orbit_keys(genset):
    """(kind, free axis, point axis) of each generator: the kind from the
    oracle's enumeration, the axes read off the generator's class."""
    lat = genset.lattice
    keys = []
    for (kind, _, _), c in zip(oracle_generators(lat), genset.classes):
        free = c.l.index(1) + 1 if any(c.l) else None
        point = None
        if kind != "line":
            point = lat.axis_of[c.e.index(1 if kind == "exc" else -1)]
        keys.append((kind, free, point))
    return keys


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
    keys_at = _orbit_keys(cone.genset)
    keys = [{keys_at[g] for g in orbit} for orbit in orbits]
    assert all(len(k) == 1 for k in keys)
    assert sorted(g for orbit in orbits for g in orbit) == list(range(len(cone.genset)))


@pytest.mark.parametrize("which", ["c0", "c1", "n3r4q19"])
def test_phi_and_support_match_pointwise_oracles(which, request):
    # phi in closed form against the per-point definition, on every
    # generator and on 100 seeded expansions
    cfg = _named_config(which, request)
    cone = EffectiveCone(BlowupLattice(cfg))
    lat = cone.lattice
    for g, c in enumerate(cone.genset):
        assert cone.genset.phis[g] == pointwise_phi(lat, c)
        assert cone.genset.supports[g] == tuple(
            (k, x) for k, x in enumerate(c.to_array()) if x)
    rng = Lcg(17)
    bounds = (15,) * (cfg.r + lat.size)
    for _ in range(100):
        vec = [x - 5 for x in rng.take(bounds)]
        c = lat.expand_in_basis(tuple(vec[:cfg.r]), tuple(vec[cfg.r:]))
        assert cone.genset.phi(c) == pointwise_phi(lat, c)


def _lopsided_cone(config, monkeypatch):
    """A cone whose gamma gt[p;3], p the second point on axis 2, also carries
    e_x for the fourth point x on axis 2: no swap on axis 2 that moves p or
    x maps it onto a generator.  Returns the cone and that generator's
    index."""
    honest = BlowupLattice.gammas
    lat = BlowupLattice(config)
    p, _, x = [k for k, axis in enumerate(lat.axis_of) if axis == 2][1:4]
    row = [k for k, axis in enumerate(lat.axis_of) if axis != 3].index(p)

    def lopsided(self, i):
        block = honest(self, i)
        if i != 3:
            return block
        return block[:row] + (block[row] + self.exc_curve(x),) + block[row + 1:]

    monkeypatch.setattr(BlowupLattice, "gammas", lopsided)
    cone = EffectiveCone(lat)
    return cone, oracle_generator_labels(lat).index(f"gt[{_key(lat, p)};3]")


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
    cls = cone.genset.classes[bad]
    key = (cls.l, cls.e)
    asked = _spy_extremal(monkeypatch, {key: False})
    want = full_extremal_scan(cone)
    assert want == [oracle_generator_labels(cone.lattice)[bad]]
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
    orbit = [g for g, key in enumerate(_orbit_keys(plain.genset)) if key == ("gamma", 3, 2)]
    classes = plain.genset.classes
    answers = {(classes[g].l, classes[g].e): False for g in orbit}
    cone, bad = _lopsided_cone(c1, monkeypatch) if lopsided else (plain, None)
    if bad is not None:
        cls = cone.genset.classes[bad]
        answers[(cls.l, cls.e)] = True
    asked = _spy_extremal(monkeypatch, answers)
    want = full_extremal_scan(cone)
    labels = oracle_generator_labels(plain.lattice)
    assert want == [labels[g] for g in orbit if g != bad]
    asked.clear()
    rec = generators_extremal(cone)
    assert rec.status == "FAIL"
    assert rec.computed["non_extremal"] == want
    assert len(asked) == len(cone.genset.orbits()) < len(cone.genset)


def test_run_all_builds_no_generator_label(c1, count_calls):
    # labels are only for extremal output and for FAIL and error text
    calls = count_calls("cone.generator_labels")
    assert run_all(c1, draws=20).exit_code == 0
    assert calls == {"cone.generator_labels": 0}


def test_run_all_builds_each_gamma_block_once(c1, monkeypatch):
    # lattice_checks and GeneratorSet each ask for every axis's block, and
    # both get the one cached object, whose classes the generator set holds
    honest_gammas, honest_init = BlowupLattice.gammas, GeneratorSet.__init__
    blocks: dict[int, list] = {}
    gensets = []

    def gammas(self, i):
        block = honest_gammas(self, i)
        blocks.setdefault(i, []).append(block)
        return block

    def init(self, lattice):
        honest_init(self, lattice)
        gensets.append(self)

    monkeypatch.setattr(BlowupLattice, "gammas", gammas)
    monkeypatch.setattr(GeneratorSet, "__init__", init)
    assert run_all(c1, draws=20).exit_code == 0
    (genset,) = gensets
    assert sorted(blocks) == [1, 2, 3]
    for i, (first, second) in blocks.items():
        assert first is second
        held = genset.classes[genset.blocks[i - 1]:genset.blocks[i]]
        assert len(held) == len(first)
        assert all(c is g for c, g in zip(held, first))


def test_misplaced_gamma_is_missing_not_misread(c0, monkeypatch):
    # the first point off axis 1 gets the second one's gamma class; the
    # search reads each gamma's point off its class, so the first point has
    # no gamma and its true gamma is no member, where a point read off the
    # offsets would emit a decomposition that re-sums to the wrong class
    honest = BlowupLattice.gammas
    lat = BlowupLattice(c0)
    p1, p2 = [k for k, axis in enumerate(lat.axis_of) if axis != 1][:2]

    def misplaced(self, i):
        block = honest(self, i)
        return block[1:2] + block[1:] if i == 1 else block

    monkeypatch.setattr(BlowupLattice, "gammas", misplaced)
    cone = EffectiveCone(lat)
    assert cone.member(oracle_gamma(lat, p1, 1)) is None
    assert len(cone.all_decompositions(oracle_gamma(lat, p2, 1))) == 2  # held twice
    by_id = {rec.check_id: rec.status for rec in cone_checks(cone, draws=50)}
    assert by_id["cone.generator_count"] == by_id["cone.case3_identity"] == "FAIL"
