"""Vanishing of global vector fields via an exact linear system over F_q.

A candidate field is a tuple of r blocks, each a 2x2 matrix (a, b, c, d);
it vanishes at a point whose axis-i coordinate is v = (x, y) exactly when v
is an eigenvector of block i, i.e. det[A v | v] = a*xy + b*y^2 - c*x^2
- d*xy = 0.  Every marked point contributes one such row per axis: the row
of [1:z] on the point's own block and the row of [0:1] (forcing b = 0) on
every other block.  For a valid configuration the kernel is exactly the
r-dimensional space of scalar blocks.

Each row touches one block, so the system is block-diagonal and is stored and
reduced that way: a row is the pair (block, its 4 entries), each block
reduces its distinct rows on its own 4 columns, and the reduced form of the
whole system is the blocks' forms side by side.  Only `vector-fields
--matrix` writes a row out as 4r coefficients, from its block offset, and
names it by the (point, axis) it comes from.
"""

from __future__ import annotations

from .checks import FAIL, PASS, CheckRecord, make_record
from .errors import NDoesNotDivide, NotPrime, TooSmallField
from .fieldgeom import Config, Lcg, config_seed, is_prime, primitive_nth_root, sample_base

# a row of the system: its block (1-based) and its 4 entries on that block
Row = tuple[int, tuple[int, int, int, int]]


def eigen_constraint_row(v: tuple[int, int], block: int, q: int) -> Row:
    """The linear condition over F_q that v = (x, y) is an eigenvector of
    block `block` (1-based): a*xy + b*y^2 - c*x^2 - d*xy = 0, as the row
    (block, its 4 entries)."""
    x, y = v
    return block, (x * y % q, y * y % q, -x * x % q, -x * y % q)


def assemble_system(config: Config) -> list[Row]:
    """One row per (marked point, axis), points outer and axes inner:
    |Delta| * r rows, duplicates allowed."""
    return [
        eigen_constraint_row((1, z) if axis == own else (0, 1), axis, config.q)
        for z, own in zip(config.delta, config.axis_of)
        for axis in range(1, config.r + 1)
    ]


def kernel_mod_q(
    rows: list[tuple[int, ...]], ncols: int, q: int
) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """Exact kernel of the row system over F_q.

    Returns (dimension, basis, pivot column sequence).  The basis is the
    canonical one read off the reduced row echelon form: one vector per free
    column, ascending, so it is independent of row order.
    """
    mat = [list(x % q for x in row) for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if mat[i][col] % q:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        mat[rank] = [x * inv % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [
                    (x - factor * y) % q for x, y in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for row_idx, pc in enumerate(pivots):
            vec[pc] = (-mat[row_idx][fc]) % q
        basis.append(tuple(vec))
    return len(free_cols), basis, pivots


class KernelResult:
    """The kernel of the rows, which are kept for the checks that reuse them."""

    def __init__(
        self, r: int, rows: list[Row], basis: list[tuple[int, ...]], pivots: list[int]
    ):
        self.r = r
        self.rows = rows
        self.basis = basis
        self.pivots = pivots

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def blocks(self, vec: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
        return [tuple(vec[4 * i: 4 * i + 4]) for i in range(self.r)]

    def nonscalar_witness(self) -> tuple[int, ...] | None:
        """A basis vector with b != 0, c != 0 or a != d in some block, or
        None when the basis is scalar."""
        for vec in self.basis:
            for a, b, c, d in self.blocks(vec):
                if b or c or a != d:
                    return vec
        return None


def kernel_of_rows(rows: list[Row], r: int, q: int) -> KernelResult:
    """The kernel of the 4r-column system, one block at a time: block b's
    distinct rows reduce on their own 4 columns, its pivots shift by 4(b - 1)
    and its canonical basis vectors are embedded at block b."""
    by_block = [{} for _ in range(r)]
    for block, entries in rows:
        by_block[block - 1][entries] = None
    basis, pivots = [], []
    for b, entries in enumerate(by_block):
        _, block_basis, block_pivots = kernel_mod_q(list(entries), 4, q)
        pivots += [4 * b + col for col in block_pivots]
        basis += [(0,) * (4 * b) + vec + (0,) * (4 * (r - 1 - b)) for vec in block_basis]
    return KernelResult(r, rows, basis, pivots)


def derivation_kernel(config: Config) -> KernelResult:
    return kernel_of_rows(assemble_system(config), config.r, config.q)


def scalar_tuples_satisfy(rows: list[Row], q: int) -> bool:
    """Scalar blocks annihilate every row: the scalar vector of block i pairs
    with a row of block i as a + d and with every other row as 0."""
    return all((entries[0] + entries[3]) % q == 0 for _, entries in rows)


def direction_counts(config: Config) -> list[int]:
    """Pairwise non-proportional eigenvector directions per block: the
    distinct own-axis coordinates plus the shared [0:1]."""
    counts = []
    for axis in range(1, config.r + 1):
        coords = {z for z, a in zip(config.delta, config.axis_of) if a == axis}
        counts.append(len(coords) + 1)
    return counts


def verify_vanishing(config: Config) -> list:
    """Direction-count diagnostic plus the kernel check, as records."""
    return vanishing_records(config, derivation_kernel(config))


def vanishing_records(config: Config, result: KernelResult) -> list:
    """verify_vanishing's records, read from the config's derivation kernel."""
    counts = direction_counts(config)
    containment = scalar_tuples_satisfy(result.rows, config.q)
    witness = result.nonscalar_witness()
    ok = result.dimension == config.r and witness is None and containment
    return [
        make_record(
            "vectorfields.directions",
            PASS if all(c >= 3 for c in counts) else FAIL,
            counts,
            ">= 3 per block",
        ),
        make_record(
            "vectorfields.kernel",
            PASS if ok else FAIL,
            {
                "q": config.q,
                "rows": result.n_rows,
                "rank": result.rank,
                "dimension": result.dimension,
                "scalar_basis": witness is None,
                "scalars_contained": containment,
            },
            {"q": config.q, "rows": len(config.delta) * config.r, "rank": 3 * config.r,
             "dimension": config.r, "scalar_basis": True,
             "scalars_contained": True},
            detail=(
                f"pivot sequence {result.pivots}"
                + (f"; nonscalar kernel vector {witness}" if witness else "")
            ),
        ),
    ]


def check_extra_q(n: int, s: tuple[int, ...], q2: int) -> None:
    """Refuse a second field that is not prime, not 1 (mod n), or short of
    scaling orbits for the counts s."""
    if not is_prime(q2):
        raise NotPrime(f"q2 = {q2} is not prime")
    if n < 1 or (q2 - 1) % n:
        raise NDoesNotDivide(f"q2 = {q2} is not 1 (mod {n})")
    if (q2 - 1) // n < max(s, default=0):
        raise TooSmallField(f"q2 = {q2} has too few scaling orbits")


def extra_q_vanishing(config: Config, q2: int) -> CheckRecord:
    """Re-run the kernel computation over a second field with the same
    (n, r, s).  Genericity is not needed for this check, so the base table
    is resampled with orbit-disjointness only."""
    check_extra_q(config.n, config.s, q2)
    zeta2 = primitive_nth_root(q2, config.n)
    rng = Lcg(config_seed(config, f"extra_q={q2}"))
    base = None
    while base is None:
        base = sample_base(config.n, config.s, q2, zeta2, rng)
    cfg2 = Config(n=config.n, r=config.r, s=config.s, q=q2, zeta=zeta2, base=base)
    result = derivation_kernel(cfg2)
    scalar = result.nonscalar_witness() is None
    ok = result.dimension == cfg2.r and scalar
    return make_record(
        "vectorfields.kernel_extra",
        PASS if ok else FAIL,
        {"q": q2, "rank": result.rank, "dimension": result.dimension,
         "scalar_basis": scalar},
        {"q": q2, "rank": 3 * cfg2.r, "dimension": cfg2.r, "scalar_basis": True},
    )
