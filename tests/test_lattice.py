import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_rigidity.checks import FAIL
from blowup_rigidity.errors import AxisOutOfRange, ConfigMismatch, SameAxis
from blowup_rigidity.fieldgeom import Config, Lcg
from blowup_rigidity.lattice import BlowupLattice, CurveClass, DivisorClass, lattice_checks

from oracles import dense_pairing


def divisor_from_array(lat, arr):
    r = lat.config.r
    if len(arr) != r + lat.size:
        raise ValueError(f"expected length {r + lat.size}, got {len(arr)}")
    return DivisorClass(tuple(arr[:r]), tuple(arr[r:]), lat)


def divisor_sum(lat, *terms):
    """The sum of k * d over the (k, d) terms, from the (h, m) tuples."""
    arr = [0] * (lat.config.r + lat.size)
    for k, d in terms:
        for idx, x in enumerate(d.h + d.m):
            arr[idx] += k * x
    return divisor_from_array(lat, arr)


def zero_curve(lat):
    return CurveClass((0,) * lat.config.r, (0,) * lat.size, lat)


def divisor_basis(lat):
    return [lat.pullback_h(i) for i in range(1, lat.config.r + 1)] + [
        lat.exc_divisor(p) for p in lat.points
    ]


def blowup_canonical(lat):
    """Canonical class of the blow-up by the standard blow-up formula: the
    pullback of the ambient canonical class plus (r-1) * sum E_p."""
    return DivisorClass((-2,) * lat.config.r, (lat.config.r - 1,) * lat.size, lat)


def test_basis_pairing_examples(lat0):
    p = lat0.points[0]
    assert lat0.intersect(lat0.exc_curve(p), lat0.exc_divisor(p)) == -1
    assert lat0.intersect(lat0.line(1), lat0.strict_h(1)) == 1
    # C0: n=2, s_2=3, so the cross pairing is -6
    assert lat0.intersect(lat0.line(2), lat0.strict_h(1)) == -6
    assert lat0.intersect(zero_curve(lat0), lat0.strict_h(1)) == 0


def test_gram_blocks(lat0):
    r = lat0.config.r
    for i in range(1, r + 1):
        li = lat0.line(i)
        for j in range(1, r + 1):
            assert lat0.intersect(li, lat0.pullback_h(j)) == (1 if i == j else 0)
        for p in lat0.points:
            assert lat0.intersect(li, lat0.exc_divisor(p)) == (1 if p.axis == i else 0)
    for p in lat0.points:
        ep = lat0.exc_curve(p)
        for j in range(1, r + 1):
            assert lat0.intersect(ep, lat0.pullback_h(j)) == 0
        for p2 in lat0.points:
            assert lat0.intersect(ep, lat0.exc_divisor(p2)) == (-1 if p2 == p else 0)


def test_strict_h_expansion(lat0):
    h1 = lat0.strict_h(1)
    assert h1.h == (1, 0)
    assert h1.m == tuple(0 if p.axis == 1 else -1 for p in lat0.points)
    with pytest.raises(AxisOutOfRange):
        lat0.strict_h(3)


def test_strict_h_empty_other_axis():
    # harness: axis 2 carries no marked points, so nothing is subtracted
    # from the axis-1 pullback
    cfg = Config(n=2, r=2, s=(1, 0), q=13, zeta=12, base=((1,), ()),
                 skip_checks=True)
    lat = BlowupLattice(cfg)
    h1 = lat.strict_h(1)
    assert h1.h == (1, 0)
    assert all(x == 0 for x in h1.m)


def test_strict_h_exc_membership(lat0, lat1):
    for lat in (lat0, lat1):
        for p in lat.points:
            for i in range(1, lat.config.r + 1):
                want = 0 if p.axis == i else 1
                assert lat.intersect(lat.exc_curve(p), lat.strict_h(i)) == want


def test_all_strict_h_identities(lat0, lat1):
    for lat in (lat0, lat1):
        cfg = lat.config
        for i in range(1, cfg.r + 1):
            for j in range(1, cfg.r + 1):
                v = lat.intersect(lat.line(j), lat.strict_h(i))
                assert v == (1 if i == j else -cfg.n * cfg.s[j - 1])


def test_gamma_class_identities(lat0, lat1):
    for lat in (lat0, lat1):
        cfg = lat.config
        for i in range(1, cfg.r + 1):
            unit = tuple(1 if k == i else 0 for k in range(1, cfg.r + 1))
            for p in lat.points:
                if p.axis == i:
                    with pytest.raises(SameAxis):
                        lat.gamma(p, i)
                    continue
                g = lat.gamma(p, i)
                assert lat.intersect(g, lat.exc_divisor(p)) == 1
                for p2 in lat.points:
                    if p2 != p:
                        assert lat.intersect(g, lat.exc_divisor(p2)) == 0
                assert lat.pushforward(g) == unit


def test_pushforward(lat0):
    p = lat0.points[3]
    assert lat0.pushforward(lat0.line(1)) == (1, 0)
    assert lat0.pushforward(lat0.exc_curve(p)) == (0, 0)
    combo = lat0.line(1) + lat0.line(2).scale(2) + lat0.exc_curve(p).scale(-5)
    assert lat0.pushforward(combo) == (1, 2)


def test_expand_in_basis(lat0):
    zero = lat0.expand_in_basis((0, 0), (0,) * lat0.size)
    assert (zero.l, zero.e) == ((0, 0), (0,) * lat0.size)
    # excess 1 at one axis-1 point: the expansion drops that point's term
    p = lat0.points[1]
    eps = tuple(1 if pt == p else 0 for pt in lat0.points)
    got = lat0.expand_in_basis((1, 0), eps)
    want = lat0.line(1)
    for q in lat0.points:
        if q.axis == 1 and q != p:
            want = want + lat0.exc_curve(q)
    assert (got.l, got.e) == (want.l, want.e)


def test_expand_in_basis_random_recovery(lat1):
    rng = Lcg(11)
    for _ in range(300):
        a = tuple(rng.below(15) - 5 for _ in range(lat1.config.r))
        eps = tuple(rng.below(15) - 5 for _ in range(lat1.size))
        c = lat1.expand_in_basis(a, eps)
        assert lat1.pushforward(c) == a
        assert all(
            lat1.intersect(c, lat1.exc_divisor(p)) == ep
            for p, ep in zip(lat1.points, eps)
        )


def test_canonical_pullback(lat0, lat1):
    for lat in (lat0, lat1):
        for i in range(1, lat.config.r + 1):
            assert lat.canonical_pullback_check(i) == -2


def test_canonical_pullback_r4():
    cfg = Config(n=2, r=4, s=(1, 2, 3, 4), q=11, zeta=10,
                 base=((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)))
    lat = BlowupLattice(cfg)
    for i in range(1, 5):
        assert lat.canonical_pullback_check(i) == -2


def test_blowup_canonical_value(lat0, lat1):
    # standard blow-up formula: pairing with any exceptional line is -(r-1)
    for lat in (lat0, lat1):
        ky = blowup_canonical(lat)
        for p in lat.points:
            assert lat.intersect(lat.exc_curve(p), ky) == -(lat.config.r - 1)


def test_bilinearity_random(lat0):
    rng = Lcg(5)
    curves = lat0.curve_basis()
    divisors = divisor_basis(lat0)
    for _ in range(100):
        c1 = curves[rng.below(len(curves))]
        c2 = curves[rng.below(len(curves))]
        d1 = divisors[rng.below(len(divisors))]
        d2 = divisors[rng.below(len(divisors))]
        a, b = rng.below(9) - 4, rng.below(9) - 4
        lhs = lat0.intersect(c1.scale(a) + c2.scale(b), d1)
        assert lhs == a * lat0.intersect(c1, d1) + b * lat0.intersect(c2, d1)
        rhs = lat0.intersect(c1, divisor_sum(lat0, (a, d1), (b, d2)))
        assert rhs == a * lat0.intersect(c1, d1) + b * lat0.intersect(c1, d2)


def test_array_round_trip(lat0):
    c = lat0.gamma(lat0.points[5], 1)
    back = lat0.curve_from_array(c.to_array())
    assert (back.l, back.e) == (c.l, c.e)
    d = lat0.strict_h(2)
    back = divisor_from_array(lat0, list(d.h + d.m))
    assert (back.h, back.m) == (d.h, d.m)
    with pytest.raises(ValueError):
        lat0.curve_from_array([0, 1])
    assert lat0.curve_labels()[:3] == ["lt1", "lt2", "e[1.1.0]"]
    assert lat0.divisor_labels()[:3] == ["piH1", "piH2", "E[1.1.0]"]


def test_pairing_table_csv(lat0):
    buf = io.StringIO()
    lat0.write_pairing_table(buf)
    rows = buf.getvalue().strip().splitlines()
    assert len(rows) == 1 + 2 + 10  # header + curve basis
    header = rows[0].split(",")
    assert header[1:3] == ["piH1", "piH2"]
    first = rows[1].split(",")
    assert first[0] == "lt1" and first[1] == "1" and first[2] == "0"


def test_config_mismatch(lat0, lat1):
    with pytest.raises(ConfigMismatch):
        lat0.intersect(lat1.line(1), lat0.pullback_h(1))
    with pytest.raises(ConfigMismatch):
        lat0.line(1) + lat1.line(1)


def test_exc_pairings_row(lat0, lat1):
    p = lat0.points[3]
    assert lat0.exc_pairings(lat0.exc_curve(p)) == tuple(
        -1 if q == p else 0 for q in lat0.points
    )
    assert lat0.exc_pairings(lat0.line(2)) == tuple(
        1 if q.axis == 2 else 0 for q in lat0.points
    )
    assert lat0.exc_pairings(zero_curve(lat0)) == (0,) * lat0.size
    with pytest.raises(ConfigMismatch):
        lat0.exc_pairings(lat1.line(1))


def test_divisor_support(lat0):
    assert lat0.pullback_h(1).support == ()
    assert lat0.exc_divisor(lat0.points[4]).support == (4,)
    h1 = lat0.strict_h(1)
    assert h1.support == tuple(k for k, p in enumerate(lat0.points) if p.axis != 1)
    assert divisor_sum(lat0, (1, h1), (-1, h1)).support == ()


coefficients = st.integers(min_value=-50, max_value=50)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_intersect_matches_dense_reference(lat0, lat1, data):
    for lat in (lat0, lat1):
        width = lat.config.r + lat.size
        c = lat.curve_from_array(data.draw(st.lists(coefficients, min_size=width, max_size=width)))
        d = divisor_from_array(lat, data.draw(st.lists(coefficients, min_size=width, max_size=width)))
        assert lat.intersect(c, d) == dense_pairing(lat, c, d)
        row = lat.exc_pairings(c)
        for k, p in enumerate(lat.points):
            assert row[k] == lat.intersect(c, lat.exc_divisor(p))
            assert row[k] == dense_pairing(lat, c, lat.exc_divisor(p))


def statuses(lat, draws=20):
    return {rec.check_id: rec.status for rec in lattice_checks(lat, draws=draws)}


def test_off_by_one_pairing_row_fails_checks(c0, monkeypatch):
    honest = BlowupLattice.exc_pairings

    def off_by_one(self, c):
        row = list(honest(self, c))
        row[-1] += 1
        return tuple(row)

    monkeypatch.setattr(BlowupLattice, "exc_pairings", off_by_one)
    got = statuses(BlowupLattice(c0))
    for check_id in ("lattice.pairing_blocks", "lattice.gamma_pairings",
                     "lattice.multidegree_expansion"):
        assert got[check_id] == FAIL, check_id


@pytest.mark.parametrize("which", ["exc_divisor", "pullback_h"])
def test_wrong_basis_divisor_fails_pairing_blocks(c0, which, monkeypatch):
    honest = getattr(BlowupLattice, which)

    def wrong(self, arg):
        d = honest(self, arg)
        bump = tuple(1 if k == 0 else 0 for k in range(self.size))
        return DivisorClass(d.h, tuple(a + b for a, b in zip(d.m, bump)), self)

    monkeypatch.setattr(BlowupLattice, which, wrong)
    assert statuses(BlowupLattice(c0))["lattice.pairing_blocks"] == FAIL


def test_basis_classes_built_once(lat0):
    p = lat0.points[3]
    for build, arg in ((lat0.line, 1), (lat0.exc_curve, p), (lat0.strict_h, 2),
                       (lat0.pullback_h, 1), (lat0.exc_divisor, p)):
        assert build(arg) is build(arg)


@pytest.mark.parametrize("which, check_ids", [
    ("line", {"lattice.pairing_blocks"}),
    ("exc_curve", {"lattice.pairing_blocks"}),
    ("strict_h", {"lattice.strict_h_self", "lattice.strict_h_cross"}),
])
def test_wrong_cached_class_fails_checks(c0, which, check_ids, monkeypatch):
    # the checks pair the cached classes through intersect, so one wrong
    # coefficient at the first point must show
    honest = getattr(BlowupLattice, which)

    def wrong(self, arg):
        c = honest(self, arg)
        if isinstance(c, DivisorClass):
            return DivisorClass(c.h, (c.m[0] + 1,) + c.m[1:], self)
        return CurveClass(c.l, (c.e[0] + 1,) + c.e[1:], self)

    monkeypatch.setattr(BlowupLattice, which, wrong)
    got = statuses(BlowupLattice(c0))
    assert FAIL in {got[check_id] for check_id in check_ids}
