import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_rigidity.checks import FAIL
from blowup_rigidity.errors import AxisOutOfRange, ConfigMismatch
from blowup_rigidity.fieldgeom import Config, Lcg
from blowup_rigidity.lattice import BlowupLattice, CurveClass, DivisorClass, lattice_checks
from blowup_rigidity.report import run_all

from oracles import dense_pairing, oracle_gamma, point_axes


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
        lat.exc_divisor(k) for k in range(lat.size)
    ]


def blowup_canonical(lat):
    """Canonical class of the blow-up by the standard blow-up formula: the
    pullback of the ambient canonical class plus (r-1) * sum E_p."""
    return DivisorClass((-2,) * lat.config.r, (lat.config.r - 1,) * lat.size, lat)


def test_basis_pairing_examples(lat0):
    assert lat0.intersect(lat0.exc_curve(0), lat0.exc_divisor(0)) == -1
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
        for k, axis in enumerate(point_axes(lat0.config)):
            assert lat0.intersect(li, lat0.exc_divisor(k)) == (1 if axis == i else 0)
    for k in range(lat0.size):
        ep = lat0.exc_curve(k)
        for j in range(1, r + 1):
            assert lat0.intersect(ep, lat0.pullback_h(j)) == 0
        for k2 in range(lat0.size):
            assert lat0.intersect(ep, lat0.exc_divisor(k2)) == (-1 if k2 == k else 0)


def test_strict_h_expansion(lat0):
    h1 = lat0.strict_h(1)
    assert h1.h == (1, 0)
    assert h1.m == tuple(0 if axis == 1 else -1 for axis in point_axes(lat0.config))
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
        for k, axis in enumerate(point_axes(lat.config)):
            for i in range(1, lat.config.r + 1):
                want = 0 if axis == i else 1
                assert lat.intersect(lat.exc_curve(k), lat.strict_h(i)) == want


def test_all_strict_h_identities(lat0, lat1):
    for lat in (lat0, lat1):
        cfg = lat.config
        for i in range(1, cfg.r + 1):
            for j in range(1, cfg.r + 1):
                v = lat.intersect(lat.line(j), lat.strict_h(i))
                assert v == (1 if i == j else -cfg.n * cfg.s[j - 1])


def test_gamma_class_identities(lat0, lat1):
    # block i holds gt[p;i] for each p off axis i, in point order
    for lat in (lat0, lat1):
        cfg = lat.config
        for i in range(1, cfg.r + 1):
            unit = tuple(1 if k == i else 0 for k in range(1, cfg.r + 1))
            off_axis = [k for k, axis in enumerate(point_axes(lat.config)) if axis != i]
            block = lat.gammas(i)
            assert len(block) == len(off_axis)
            for k, g in zip(off_axis, block):
                want = oracle_gamma(lat, k, i)
                assert (g.l, g.e) == (want.l, want.e)
                for k2 in range(lat.size):
                    assert lat.intersect(g, lat.exc_divisor(k2)) == (k2 == k)
                assert lat.pushforward(g) == unit
    with pytest.raises(AxisOutOfRange):
        lat0.gammas(3)


def test_pushforward(lat0):
    assert lat0.pushforward(lat0.line(1)) == (1, 0)
    assert lat0.pushforward(lat0.exc_curve(3)) == (0, 0)
    combo = lat0.line(1) + lat0.line(2).scale(2) + lat0.exc_curve(3).scale(-5)
    assert lat0.pushforward(combo) == (1, 2)


def test_expand_in_basis(lat0):
    zero = lat0.expand_in_basis((0, 0), (0,) * lat0.size)
    assert (zero.l, zero.e) == ((0, 0), (0,) * lat0.size)
    # excess 1 at one axis-1 point: the expansion drops that point's term
    eps = tuple(1 if k == 1 else 0 for k in range(lat0.size))
    got = lat0.expand_in_basis((1, 0), eps)
    want = lat0.line(1)
    for k, axis in enumerate(point_axes(lat0.config)):
        if axis == 1 and k != 1:
            want = want + lat0.exc_curve(k)
    assert (got.l, got.e) == (want.l, want.e)


def test_expand_in_basis_random_recovery(lat1):
    rng = Lcg(11)
    for _ in range(300):
        a = tuple(rng.below(15) - 5 for _ in range(lat1.config.r))
        eps = tuple(rng.below(15) - 5 for _ in range(lat1.size))
        c = lat1.expand_in_basis(a, eps)
        assert lat1.pushforward(c) == a
        assert all(
            lat1.intersect(c, lat1.exc_divisor(k)) == ep
            for k, ep in enumerate(eps)
        )


def test_expand_in_basis_matches_dense_formula(lat0, lat1):
    # sum_i a_i lt_i + sum_p (a_{axis(p)} - eps_p) e_p, added from unit
    # arrays over the oracle's point axes, and its pairings from the dense
    # Gram matrix
    rng = Lcg(29)
    for lat in (lat0, lat1):
        r, axes = lat.config.r, point_axes(lat.config)
        for _ in range(50):
            a = tuple(rng.below(19) - 9 for _ in range(r))
            eps = tuple(rng.below(19) - 9 for _ in axes)
            want = [0] * (r + len(axes))
            for i, ai in enumerate(a):
                want[i] += ai
            for k, (axis, ep) in enumerate(zip(axes, eps)):
                want[r + k] += a[axis - 1] - ep
            c = lat.expand_in_basis(a, eps)
            assert c.to_array() == want
            assert tuple(dense_pairing(lat, c, lat.pullback_h(i))
                         for i in range(1, r + 1)) == a
            assert tuple(dense_pairing(lat, c, lat.exc_divisor(k))
                         for k in range(len(axes))) == eps


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
        for k in range(lat.size):
            assert lat.intersect(lat.exc_curve(k), ky) == -(lat.config.r - 1)


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
    c = lat0.gammas(1)[1]  # the second point off axis 1, at position 5
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
    assert lat0.exc_pairings(lat0.exc_curve(3)) == tuple(
        -1 if k == 3 else 0 for k in range(lat0.size)
    )
    assert lat0.exc_pairings(lat0.line(2)) == tuple(
        1 if axis == 2 else 0 for axis in point_axes(lat0.config)
    )
    assert lat0.exc_pairings(zero_curve(lat0)) == (0,) * lat0.size
    with pytest.raises(ConfigMismatch):
        lat0.exc_pairings(lat1.line(1))


def test_divisor_support(lat0):
    assert lat0.pullback_h(1).support == ()
    assert lat0.exc_divisor(4).support == (4,)
    h1 = lat0.strict_h(1)
    assert h1.support == tuple(k for k, axis in enumerate(point_axes(lat0.config)) if axis != 1)
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
        for k in range(lat.size):
            assert row[k] == lat.intersect(c, lat.exc_divisor(k))
            assert row[k] == dense_pairing(lat, c, lat.exc_divisor(k))


def statuses(lat):
    return {rec.check_id: rec.status for rec in lattice_checks(lat)}


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


# the lattice.pairing_blocks FAIL text on C0 when every class that the
# named method builds gains E at the first point
PAIRING_BLOCKS_MISMATCHES = {
    "exc_divisor": ["e[1.1.0].E[1.1.0]"] + [f"lt1.E[{key}]" for key in (
        "1.1.0", "1.1.1", "1.2.0", "1.2.1", "2.1.0", "2.1.1", "2.2.0", "2.2.1",
        "2.3.0", "2.3.1")],
    "pullback_h": ["lt1.piH1", "lt1.piH2", "e[1.1.0].piH1", "e[1.1.0].piH2"],
}


@pytest.mark.parametrize("which", sorted(PAIRING_BLOCKS_MISMATCHES))
def test_wrong_basis_divisor_fails_pairing_blocks(c0, which, monkeypatch):
    # the FAIL text names each mismatching (curve, divisor) pair, in the
    # order the check meets it
    honest = getattr(BlowupLattice, which)

    def wrong(self, arg):
        d = honest(self, arg)
        bump = tuple(1 if k == 0 else 0 for k in range(self.size))
        return DivisorClass(d.h, tuple(a + b for a, b in zip(d.m, bump)), self)

    monkeypatch.setattr(BlowupLattice, which, wrong)
    rec = next(rec for rec in lattice_checks(BlowupLattice(c0))
               if rec.check_id == "lattice.pairing_blocks")
    assert rec.status == FAIL
    assert rec.computed == PAIRING_BLOCKS_MISMATCHES[which]


@pytest.mark.parametrize("change", ["short", "long"])
def test_pairing_row_of_wrong_length_fails_pairing_blocks(c0, change, monkeypatch):
    # every entry that is there is right, so only the row length can tell
    honest = BlowupLattice.exc_pairings

    def wrong_length(self, c):
        row = honest(self, c)
        return row[:-1] if change == "short" else row + (0,)

    monkeypatch.setattr(BlowupLattice, "exc_pairings", wrong_length)
    rec = next(rec for rec in lattice_checks(BlowupLattice(c0))
               if rec.check_id == "lattice.pairing_blocks")
    assert rec.status == FAIL
    last = "E[2.3.1]" if change == "short" else "12"
    assert rec.computed == [f"{label}.{last}" for label in BlowupLattice(c0).curve_labels()]


def test_point_position_out_of_range(lat0):
    for build in (lat0.exc_curve, lat0.exc_divisor):
        for k in (-1, lat0.size):
            with pytest.raises(IndexError):
                build(k)


def test_short_gamma_block_fails_gamma_pairings(c0, monkeypatch):
    # every class left is right, so only the block's length can tell
    honest = BlowupLattice.gammas
    monkeypatch.setattr(BlowupLattice, "gammas", lambda self, i: honest(self, i)[:-1])
    assert statuses(BlowupLattice(c0))["lattice.gamma_pairings"] == FAIL


def test_basis_classes_built_once(lat0):
    for build, arg in ((lat0.line, 1), (lat0.exc_curve, 3), (lat0.strict_h, 2),
                       (lat0.pullback_h, 1), (lat0.exc_divisor, 3), (lat0.gammas, 2)):
        assert build(arg) is build(arg)


def test_run_all_builds_no_basis_label(c1, count_calls):
    # pairing labels are only for pairing-table output and for FAIL text
    calls = count_calls("lattice.BlowupLattice.divisor_labels",
                        "lattice.BlowupLattice.curve_labels")
    assert run_all(c1, draws=20).exit_code == 0
    assert calls == {"lattice.BlowupLattice.divisor_labels": 0,
                     "lattice.BlowupLattice.curve_labels": 0}


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
