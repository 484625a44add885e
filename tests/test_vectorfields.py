import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_rigidity.fieldgeom import Config, Lcg
from blowup_rigidity.vectorfields import (
    assemble_system,
    derivation_kernel,
    direction_counts,
    eigen_constraint_row,
    kernel_mod_q,
    kernel_of_rows,
    scalar_tuples_satisfy,
    vanishing_records,
    verify_vanishing,
)

# axis 1 is stabilized by z -> 4z, of order 6 > n
NON_GENERIC = Config(n=3, r=2, s=(2, 3), q=13, zeta=3, base=((1, 4), (1, 2, 4)))


def coeffs(row, r):
    """The row (block, entries) written out as 4r coefficients."""
    block, entries = row
    return (0,) * (4 * block - 4) + entries + (0,) * (4 * (r - block))


def test_constraint_row_examples():
    q = 13
    row = eigen_constraint_row((0, 1), 1, q=q)
    assert coeffs(row, 2) == (0, 1, 0, 0, 0, 0, 0, 0)  # b = 0
    row = eigen_constraint_row((1, 1), 1, q=q)
    assert coeffs(row, 2)[:4] == (1, 1, q - 1, q - 1)  # a + b - c - d = 0
    z = 5
    row = eigen_constraint_row((1, z), 2, q=q)
    assert row == (2, (z, z * z % q, q - 1, (q - z) % q))
    assert coeffs(row, 2)[:4] == (0, 0, 0, 0)


def test_system_sizes(c0, c1):
    assert len(assemble_system(c0)) == 20
    assert len(assemble_system(c1)) == 54


def test_kernel_c0(c0):
    res = derivation_kernel(c0)
    assert res.dimension == 2
    assert res.rank == 6
    assert res.nonscalar_witness() is None
    # the basis is exactly {(I, 0), (0, I)}
    assert sorted(res.basis) == sorted(
        [(1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 1)]
    )


def test_kernel_c1(c1):
    res = derivation_kernel(c1)
    assert res.dimension == 3
    assert res.rank == 9
    assert res.nonscalar_witness() is None


def test_kernel_degenerate_single_direction():
    # only the [0:1] row on each of two blocks: b_i = 0 leaves dimension 6
    q = 13
    rows = [
        eigen_constraint_row((0, 1), 1, q=q),
        eigen_constraint_row((0, 1), 2, q=q),
    ]
    res = kernel_of_rows(rows, r=2, q=q)
    assert res.dimension == 6
    assert res.nonscalar_witness() is not None


def test_scalars_always_in_kernel(c0, c1, sweep_configs):
    for cfg in (c0, c1, *sweep_configs[:4]):
        rows = assemble_system(cfg)
        assert scalar_tuples_satisfy(rows, cfg.q)


def test_three_directions_force_scalars():
    # a 2x2 matrix with three pairwise non-proportional eigendirections is
    # scalar; checked by elimination for every triple over small fields
    for q in (5, 7):
        points = [(1, z) for z in range(q)] + [(0, 1)]
        for triple in itertools.combinations(points, 3):
            rows = [eigen_constraint_row(v, 1, q=q)[1] for v in triple]
            dim, basis, _ = kernel_mod_q(list(rows), 4, q)
            assert dim == 1
            assert basis == [(1, 0, 0, 1)]


def test_kernel_row_order_invariance(c0):
    rows = [coeffs(row, c0.r) for row in assemble_system(c0)]
    dim0, basis0, _ = kernel_mod_q(rows, 4 * c0.r, c0.q)
    rng = Lcg(17)
    shuffled = list(rows)
    for i in range(len(shuffled) - 1, 0, -1):
        j = rng.below(i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    dim1, basis1, _ = kernel_mod_q(shuffled, 4 * c0.r, c0.q)
    assert (dim0, basis0) == (dim1, basis1)


def test_direction_counts(c0, c1):
    assert direction_counts(c0) == [5, 7]    # n*s_i distinct coords + [0:1]
    assert direction_counts(c1) == [4, 7, 10]


def test_kernel_invariant_under_orbit_representatives(c0):
    # replacing each base coordinate by another element of its orbit leaves
    # the marked set, hence the kernel, unchanged
    from blowup_rigidity.fieldgeom import Config

    shifted = Config(
        n=c0.n, r=c0.r, s=c0.s, q=c0.q, zeta=c0.zeta,
        base=tuple(
            tuple(b * c0.zeta % c0.q for b in row) for row in c0.base
        ),
    )
    a = derivation_kernel(c0)
    b = derivation_kernel(shifted)
    assert (a.dimension, a.basis) == (b.dimension, b.basis)


def test_verify_vanishing_records(c0):
    records = verify_vanishing(c0)
    by_id = {r.check_id: r for r in records}
    assert by_id["vectorfields.directions"].status == "PASS"
    kern = by_id["vectorfields.kernel"]
    assert kern.status == "PASS"
    assert kern.computed["dimension"] == 2
    assert "pivot sequence" in kern.detail


def test_rank_is_three_per_block(sweep_configs):
    for cfg in sweep_configs[:6]:
        res = derivation_kernel(cfg)
        assert res.rank == 3 * cfg.r
        assert res.dimension == cfg.r
        assert res.nonscalar_witness() is None


# --- the block reduction against the dense oracle ----------------------


def dense_kernel(rows, r, q):
    """kernel_mod_q over the rows written out as 4r coefficients."""
    return kernel_mod_q([coeffs(row, r) for row in rows], 4 * r, q)


def test_block_kernel_matches_dense(c0, c1):
    for cfg in (c0, c1, NON_GENERIC):
        rows = assemble_system(cfg)
        res = kernel_of_rows(rows, cfg.r, cfg.q)
        assert (res.dimension, res.basis, res.pivots) == dense_kernel(rows, cfg.r, cfg.q)


blocks_and_entries = st.tuples(
    st.integers(1, 4), st.tuples(*[st.integers(0, 40)] * 4)
)


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 4),
    q=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    picks=st.lists(blocks_and_entries, max_size=12),
    repeats=st.lists(st.integers(0, 11), max_size=4),
)
def test_block_kernel_matches_dense_on_random_systems(r, q, picks, repeats):
    # random blocks and entries: zero rows, repeated rows and blocks that
    # get no row at all all occur
    rows = [((b - 1) % r + 1, entries) for b, entries in picks]
    rows += [rows[i] for i in repeats if i < len(rows)]
    res = kernel_of_rows(rows, r, q)
    assert (res.dimension, res.basis, res.pivots) == dense_kernel(rows, r, q)
    assert res.rank == 4 * r - res.dimension


def test_rows_moved_off_the_last_block_fail_the_kernel(c1):
    # block r is left without rows, so its whole 4-space joins the kernel
    rows = [
        (1 if block == c1.r else block, entries) for block, entries in assemble_system(c1)
    ]
    records = vanishing_records(c1, kernel_of_rows(rows, c1.r, c1.q))
    kern = records[1]
    assert kern.check_id == "vectorfields.kernel"
    assert kern.status == "FAIL"
    assert kern.computed["dimension"] > c1.r


def test_row_not_killed_by_scalars_fails_containment(c0):
    rows = assemble_system(c0)
    assert scalar_tuples_satisfy(rows, c0.q)
    bad = (2, (1, 0, 0, 0))  # a + d = 1 on block 2
    assert not scalar_tuples_satisfy(rows + [bad], c0.q)
    records = vanishing_records(c0, kernel_of_rows(rows + [bad], c0.r, c0.q))
    assert records[1].computed["scalars_contained"] is False
    assert records[1].status == "FAIL"
