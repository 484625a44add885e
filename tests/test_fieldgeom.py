import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_rigidity.errors import (
    ExhaustedRetries,
    InvalidConfig,
    NDoesNotDivide,
    NonGeneric,
    NotPrime,
    OrbitCollision,
    TooSmallField,
    ZeroBase,
)
from blowup_rigidity import fieldgeom
from blowup_rigidity.fieldgeom import (
    BARREN_PRIMES_LIMIT,
    Config,
    Lcg,
    build_delta,
    config_is_generic,
    format_map,
    g_action,
    generate_config,
    generate_config_smallest_q,
    has_exact_order,
    is_prime,
    orbit_labels,
    parameter_problems,
    point_keys,
    prime_divisors,
    primitive_nth_root,
    scaling_group,
    sha256,
    stabilizer_of_axis,
    structural_problems,
    validate_config,
)

from blowup_rigidity.report import SweepCase, default_s, resolve_case, sweep

from oracles import (
    marked_coordinates,
    marked_points,
    multiplicative_order,
    pair_scan_stabilizer,
    point_key,
    scaling_orbit,
    smallest_of_order,
    stabilizer_is_generic,
    stabilizer_oracle,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS, GENERATED as GOLDEN_GENERATED


# --- residues mod q ----------------------------------------------------


def test_primitive_nth_root_examples():
    assert primitive_nth_root(13, 2) == 12
    assert primitive_nth_root(7, 3) == 2
    assert primitive_nth_root(10007, 2) == 10006


def test_primitive_nth_root_matches_the_scan_oracle():
    # oracle: exhaustive smallest-of-exact-order scan, every n dividing q - 1
    for q in (q for q in range(3, 500) if is_prime(q)):
        for n in (n for n in range(2, q) if (q - 1) % n == 0):
            assert primitive_nth_root(q, n) == smallest_of_order(q, n), (q, n)


def test_primitive_nth_root_does_not_scan_the_field(count_calls):
    # for n = 2 the smallest root is q - 1, which a scan of 2, 3, ... reaches
    # after q - 2 exact-order tests; a candidate z^((q-1)/n) is -1 half the time
    calls = count_calls("has_exact_order")
    assert primitive_nth_root(1000003, 2) == 1000002
    assert 0 < calls["has_exact_order"] < 100


def test_primitive_nth_root_errors():
    with pytest.raises(ValueError):
        primitive_nth_root(5, 1)
    with pytest.raises(NotPrime):
        primitive_nth_root(15, 2)
    with pytest.raises(NDoesNotDivide):
        primitive_nth_root(7, 4)


def test_exact_order_matches_the_order_oracle():
    # every z of every small field, against every n dividing q - 1 and a
    # few that do not
    for q in (q for q in range(2, 80) if is_prime(q)):
        orders = [None] + [multiplicative_order(z, q) for z in range(1, q)]
        for n in range(1, q + 2):
            primes = prime_divisors(n)
            for z in range(q):
                assert has_exact_order(z, n, q, primes) == (orders[z] == n), (z, n, q)


def test_prime_divisors():
    assert [prime_divisors(n) for n in (1, 2, 12, 13, 60, 97 * 97)] == [
        (), (2,), (2, 3), (13,), (2, 3, 5), (97,)]


def test_multiplicative_order():
    assert multiplicative_order(12, 13) == 2
    assert multiplicative_order(2, 13) == 12
    assert multiplicative_order(-1, 13) == 2
    with pytest.raises(ValueError):
        multiplicative_order(13, 13)


# --- scalings ---------------------------------------------------------


def test_format_map_is_the_canonical_matrix():
    assert format_map(4) == "[[1,0],[0,4]]"
    assert format_map(12) == "[[1,0],[0,12]]"


# --- the marked configuration ----------------------------------------


def test_build_delta_c0_coordinates(c0):
    delta = build_delta(c0)
    assert delta == (1, 12, 2, 11, 3, 10, 4, 9, 5, 8)
    assert c0.axis_of == (1,) * 4 + (2,) * 6
    assert point_keys(c0)[:3] == ["1.1.0", "1.1.1", "1.2.0"]
    assert point_keys(c0)[-1] == "2.3.1"


def test_build_delta_orbit_closure(c0):
    coords = set(zip(c0.axis_of, build_delta(c0)))
    for axis, z in coords:
        assert (axis, z * c0.zeta % c0.q) in coords


def marked_set_configs(c0, c1) -> list[Config]:
    """C0, C1, non_generic and the generated configurations of the golden
    pins."""
    return ([c0, c1, Config.from_dict(GOLDEN_CONFIGS["non_generic"])]
            + [resolve_case(case) for case in GOLDEN_GENERATED.values()])


def test_marked_set_matches_the_oracle(c0, c1):
    # coordinates, axes and keys by position, against the oracle's own walk
    # of each orbit
    for cfg in marked_set_configs(c0, c1):
        points = marked_points(cfg)
        assert cfg.delta == tuple(z for *_, z in points)
        assert cfg.axis_of == tuple(axis for axis, *_ in points)
        assert point_keys(cfg) == [point_key(p) for p in points]


def test_g_action_scales_each_coordinate_by_its_shift(c0, c1):
    # the image of a point under g is the point of its axis whose coordinate
    # is zeta^shift times its own, shift being g's entry at that axis
    for cfg in marked_set_configs(c0, c1):
        points = marked_points(cfg)
        for t in range(cfg.n):
            g = tuple((t + i) % cfg.n for i in range(cfg.r))
            for k, (axis, orbit, _, z) in enumerate(points):
                image = points[g_action(cfg, g, k)]
                want = pow(cfg.zeta, g[axis - 1], cfg.q) * z % cfg.q
                assert (image[0], image[1], image[3]) == (axis, orbit, want)


def test_build_delta_orbit_collision():
    cfg = Config(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 12), (3, 4, 5)))
    with pytest.raises(OrbitCollision):
        build_delta(cfg)


def test_build_delta_zero_base():
    cfg = Config(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 0), (3, 4, 5)),
                 skip_checks=True)
    with pytest.raises(ZeroBase):
        build_delta(cfg)


def test_config_constructor_enforces_structure():
    with pytest.raises(InvalidConfig):
        Config(n=2, r=2, s=(2, 2), q=13, zeta=12, base=((1, 2), (3, 4)))
    with pytest.raises(InvalidConfig):
        Config(n=2, r=1, s=(2,), q=13, zeta=12, base=((1, 2),))
    with pytest.raises(InvalidConfig):
        Config(n=2, r=2, s=(1, 3), q=13, zeta=12, base=((1,), (3, 4, 5)))
    # r >= 3 has no lower bound on n*s_i
    Config(n=2, r=3, s=(1, 2, 3), q=11, zeta=10,
           base=((1,), (1, 2), (1, 2, 3)))


def test_g_action(c0):
    assert g_action(c0, (0, 0), 0) == 0
    assert g_action(c0, (1, 0), 0) == 1  # 1.1.0 -> 1.1.1
    assert g_action(c0, (0, 1), 9) == 8  # 2.3.1 -> 2.3.0
    # orbit under the cyclic subgroup at the point's own axis has size n
    for k, axis in enumerate(c0.axis_of):
        g = tuple(1 if i == axis - 1 else 0 for i in range(c0.r))
        orbit = {k}
        cur = k
        for _ in range(c0.n - 1):
            cur = g_action(c0, g, cur)
            orbit.add(cur)
        assert len(orbit) == c0.n
        assert g_action(c0, g, cur) == k


def test_g_action_is_group_action(c1):
    rng = Lcg(7)
    for _ in range(25):
        g = tuple(rng.below(c1.n) for _ in range(c1.r))
        h = tuple(rng.below(c1.n) for _ in range(c1.r))
        gh = tuple((a + b) % c1.n for a, b in zip(g, h))
        for k in range(len(c1.delta)):
            assert g_action(c1, gh, k) == g_action(c1, g, g_action(c1, h, k))


# --- stabilizers -------------------------------------------------------


def test_stabilizer_c0_axis1_is_order_two(c0):
    stab = stabilizer_of_axis(c0, 1)
    assert len(stab) == 2
    assert stab == sorted(scaling_group(c0)) == [1, 12]


def test_stabilizer_matches_pgl2_oracle(c0, c1):
    for cfg in (c0, c1):
        for axis in range(1, cfg.r + 1):
            stab = stabilizer_of_axis(cfg, axis)
            assert [(1, 0, 0, mu) for mu in stab] == stabilizer_oracle(
                marked_coordinates(cfg, axis), cfg.q)


def scaling_orbits(n, q, zeta):
    """The scaling orbits of F_q^*, each a sorted tuple, in the order of
    their smallest elements."""
    return sorted({tuple(sorted(scaling_orbit(z, zeta, n, q))) for z in range(1, q)})


def fields_of(primes):
    return [(n, q) for q in primes for n in range(2, q) if (q - 1) % n == 0]


@st.composite
def axis_configs(draw, fields):
    """A config whose first axis holds a random orbit-disjoint base over one
    of the (n, q) fields, generic or not, with a random point of each
    chosen orbit as its base entry."""
    n, q = draw(st.sampled_from(fields), label="n, q")
    zeta = primitive_nth_root(q, n)
    chosen = draw(st.lists(st.sampled_from(scaling_orbits(n, q, zeta)), min_size=1,
                           unique=True), label="orbits")
    base = tuple(draw(st.sampled_from(orbit)) for orbit in chosen)
    return Config(n=n, r=2, s=(len(base), 1), q=q, zeta=zeta, base=(base, (1,)),
                  skip_checks=True)


@settings(max_examples=150, deadline=None)
@given(cfg=axis_configs(fields_of([5, 7, 11, 13])))
def test_stabilizer_of_axis_matches_pgl2_oracle_random(cfg):
    # the per-axis automorphism check rests on these stabilizers
    stab = stabilizer_of_axis(cfg, 1)
    assert [(1, 0, 0, mu) for mu in stab] == stabilizer_oracle(
        marked_coordinates(cfg, 1), cfg.q)


PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


@settings(max_examples=300, deadline=None)
@given(cfg=axis_configs(fields_of(PRIMES_TO_61)))
def test_stabilizer_of_axis_matches_pair_scan_random(cfg):
    # primes where the PGL2 oracle is too slow; axes up to all of F_q^*
    stab = stabilizer_of_axis(cfg, 1)
    assert [(0, mu) for mu in stab] == pair_scan_stabilizer(marked_coordinates(cfg, 1), cfg.q)


def test_stabilizer_matches_pair_scan_on_sweep_configs(sweep_configs):
    for cfg in sweep_configs:
        for axis in range(1, cfg.r + 1):
            stab = stabilizer_of_axis(cfg, axis)
            assert [(0, mu) for mu in stab] == pair_scan_stabilizer(
                marked_coordinates(cfg, axis), cfg.q)


def test_stabilizer_of_full_multiplicative_group():
    # axis 1 holds all three scaling orbits of F_7^*, so every scaling
    # z -> cz stabilizes it; the structure check accepts this config
    cfg = Config(n=2, r=2, s=(3, 2), q=7, zeta=6, base=((1, 2, 3), (1, 2)))
    stab = stabilizer_of_axis(cfg, 1)
    assert stab == list(range(1, 7))
    assert [(0, mu) for mu in stab] == pair_scan_stabilizer(range(1, 7), 7)


def test_scalings_contained_even_when_non_generic():
    # containment of the scaling group is construction-forced; equality is
    # the genericity condition, which this configuration violates on axis 1
    cfg = Config(n=3, r=2, s=(2, 3), q=13, zeta=3, base=((1, 4), (1, 2, 4)))
    stab = stabilizer_of_axis(cfg, 1)
    assert len(stab) == 6
    for m in scaling_group(cfg):
        assert m in stab


# --- validation --------------------------------------------------------


def test_validate_config_valid(c0):
    records = validate_config(c0)
    assert [r.status for r in records] == ["PASS"] * 4
    genericity = records[-1]
    assert genericity.check_id == "config.genericity"
    assert genericity.computed == {"axis_1": 2, "axis_2": 2}


def test_validate_config_repeated_s():
    cfg = Config(n=2, r=2, s=(2, 2), q=13, zeta=12, base=((1, 2), (3, 4)),
                 skip_checks=True)
    records = validate_config(cfg)
    assert records[0].status == "FAIL"
    assert any("s_i not distinct" in str(x) for x in records[0].computed)
    assert len(records) == 1  # downstream checks skipped


def test_validate_config_small_ns():
    cfg = Config(n=2, r=2, s=(1, 3), q=13, zeta=12, base=((1,), (3, 4, 5)),
                 skip_checks=True)
    records = validate_config(cfg)
    assert records[0].status == "FAIL"
    assert any("n*s_1 = 2 < 3" in str(x) for x in records[0].computed)


def test_validate_config_non_generic():
    # orbits {1,3,9} and {4,10,12} of the order-3 scaling mod 13 are swapped
    # by z -> 4z (order 6 > 3), so this axis fails genericity
    cfg = Config(n=3, r=2, s=(2, 3), q=13, zeta=3, base=((1, 4), (1, 2, 4)))
    records = validate_config(cfg)
    by_id = {r.check_id: r for r in records}
    assert by_id["config.structure"].status == "PASS"
    assert by_id["config.genericity"].status == "FAIL"
    assert by_id["config.genericity"].computed["axis_1"] == 6
    assert not config_is_generic(cfg)


# --- generation --------------------------------------------------------


# (n, q) -> a generic axis that sits beside every varied axis; at (3, 13)
# it is the golden non-generic configuration's second axis
FIXED_AXIS = {(2, 7): (1,), (2, 13): (1,), (3, 13): (1, 2, 4), (3, 19): (1,), (4, 13): (1,)}


def one_axis_bases(n, q, zeta):
    """Every orbit-disjoint base of one axis: each nonempty set of scaling
    orbits, taken in the order of their smallest elements, with each choice
    of representative in each orbit."""
    orbits = scaling_orbits(n, q, zeta)
    for k in range(1, len(orbits) + 1):
        for chosen in itertools.combinations(orbits, k):
            yield from itertools.product(*chosen)


@pytest.mark.parametrize("n, q", sorted(FIXED_AXIS))
def test_orbit_labels_partition_the_scaling_orbits(n, q):
    zeta = primitive_nth_root(q, n)
    labels = orbit_labels(n, q, zeta)
    assert len(labels) == q and labels[0] == -1
    assert sorted(set(labels[1:])) == list(range((q - 1) // n))
    for z in range(1, q):
        assert {w for w in range(q) if labels[w] == labels[z]} == scaling_orbit(z, zeta, n, q)


def test_genericity_from_base_matches_stabilizers_exhaustively():
    # every orbit-disjoint base of the first axis, beside a fixed generic
    # second axis: stabilizer_of_axis and the base-only test agree with
    # pair scans of the marked coordinates
    outcomes = {}
    for (n, q), fixed in FIXED_AXIS.items():
        zeta = primitive_nth_root(q, n)
        for varied in one_axis_bases(n, q, zeta):
            cfg = Config(n=n, r=2, s=(len(varied), len(fixed)), q=q, zeta=zeta,
                         base=(varied, fixed), skip_checks=True)
            for axis in (1, 2):
                coords = marked_coordinates(cfg, axis)
                stab = stabilizer_of_axis(cfg, axis)
                assert [(0, mu) for mu in stab] == pair_scan_stabilizer(coords, q)
            generic = stabilizer_is_generic(cfg)
            assert config_is_generic(cfg) == generic, cfg
            outcomes[(n, q, varied)] = generic
    assert outcomes[(3, 13, (1, 4))] is False  # the golden non_generic config
    assert set(outcomes.values()) == {True, False}


def test_generate_config_deterministic():
    a = generate_config(2, 2, (2, 3), 13, seed=1)
    b = generate_config(2, 2, (2, 3), 13, seed=1)
    assert a == b
    assert config_is_generic(a)
    c = generate_config(2, 2, (2, 3), 13, seed=2)
    assert isinstance(c, Config)


def test_generate_config_too_small_field():
    with pytest.raises(TooSmallField):
        generate_config(2, 2, (2, 3), 5, seed=0)
    # nine distinct coordinates would be needed on axis 3, F_7^* has six
    with pytest.raises(TooSmallField):
        generate_config(3, 3, (1, 2, 3), 7, seed=0)


def test_generate_config_smallest_q_for_c1_shape():
    cfg = generate_config(3, 3, (1, 2, 3), 13, seed=0)
    assert cfg.zeta == 3
    assert config_is_generic(cfg)


def test_generate_config_exhausted_retries():
    # q = 7, n = 2, s = (2, 3): axis 2 must take all three scaling orbits,
    # i.e. all of F_7^*, which every scaling stabilizes; never generic
    with pytest.raises(ExhaustedRetries):
        generate_config(2, 2, (2, 3), 7, seed=0, max_retries=40)


def test_structural_problems_listing():
    problems = structural_problems(1, 1, (2, 2), 12, 5, ())
    text = " ".join(problems)
    assert "n = 1" in text and "r = 1" in text and "not prime" in text


# --- serialization and RNG --------------------------------------------


def test_config_json_round_trip(c0):
    d = json.loads(c0.canonical_json())
    assert Config.from_dict(d) == c0
    # zeta is recomputed canonically when omitted
    d.pop("zeta")
    assert Config.from_dict(d) == c0


def test_built_marked_set_leaves_config_identity(c1):
    built, fresh = Config.from_dict(c1.to_dict()), Config.from_dict(c1.to_dict())
    assert built.delta == build_delta(c1) and len(built.stabilizers) == c1.r
    assert {"delta", "stabilizers"} <= set(vars(built))
    assert built == fresh and hash(built) == hash(fresh)
    assert built.canonical_json() == fresh.canonical_json()


def test_lcg_reproducible_and_bounded():
    a = Lcg(42)
    b = Lcg(42)
    seq_a = [a.below(97) for _ in range(50)]
    seq_b = [b.below(97) for _ in range(50)]
    assert seq_a == seq_b
    assert all(0 <= x < 97 for x in seq_a)
    assert [Lcg(1).next_u64()] != [Lcg(2).next_u64()]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    bounds=st.lists(st.integers(min_value=-2, max_value=2**40), max_size=40),
)
def test_lcg_take_equals_repeated_below(seed, bounds):
    one, many = Lcg(seed), Lcg(seed)
    try:
        want = [many.below(k) for k in bounds]
    except ValueError:
        with pytest.raises(ValueError, match="bound must be positive"):
            one.take(bounds)
    else:
        assert one.take(bounds) == want
    assert one.state == many.state


@pytest.mark.parametrize("message,digest", [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
], ids=["empty", "abc", "448-bit"])
def test_sha256_fips_180_4_examples(message, digest):
    assert sha256(message).hex() == digest


# hashlib is the oracle; the examples sit at the padding edges, where the
# length field just fits in the last block (55, 119) or spills into a new one
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300))
@example(data=bytes(range(55)))
@example(data=bytes(range(56)))
@example(data=bytes(range(63)))
@example(data=bytes(range(64)))
@example(data=bytes(range(119)))
@example(data=bytes(range(120)))
def test_sha256_matches_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()


def test_smallest_q_scan_gives_up_without_generic_base(monkeypatch, count_calls):
    # a genericity test that never accepts must end the scan after
    # BARREN_PRIMES_LIMIT workable primes, not run on to q = 10000
    monkeypatch.setattr(fieldgeom, "config_is_generic", lambda config: False)
    calls = count_calls("generate_config")
    with pytest.raises(ExhaustedRetries, match=r"n=2, s=\(2, 3\).* q in 3\.\.\d+$"):
        generate_config_smallest_q(2, 2, (2, 3), seed=1)
    assert calls == {"generate_config": BARREN_PRIMES_LIMIT}


@pytest.mark.parametrize("n, r", [(2, 5), (3, 5), (2, 6)])
def test_generation_builds_no_marked_set(n, r, count_calls):
    # the base-only genericity test leaves the marked set and its
    # stabilizers to the checks that report on them
    calls = count_calls("build_delta", "stabilizer_of_axis")
    config = generate_config_smallest_q(n, r, default_s(n, r), seed=1)
    assert config_is_generic(config)
    assert calls == {"build_delta": 0, "stabilizer_of_axis": 0}


@pytest.mark.parametrize("n, s, reason", [
    (0, (2, 3), "n = 0 < 2"),
    (2, (), "len(s) = 0 != r = 2"),
    (-3, (2, 3), "n = -3 < 2"),
])
def test_smallest_q_scan_refuses_invalid_shape(n, s, reason):
    # the reasons an explicit q gives, before any q is scanned; a sweep
    # case without q reports them as its error row
    assert parameter_problems(n, 2, s, 13) == [reason]
    with pytest.raises(InvalidConfig) as info:
        generate_config_smallest_q(n, 2, s, seed=1)
    assert str(info.value) == reason
    row = sweep([SweepCase(n, 2, s, seed=1)], jobs=1, draws=10).rows[0][1]
    assert row == {"error": f"InvalidConfig: {reason}"}
