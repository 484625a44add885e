"""Vanishing of global vector fields via an exact linear system over F_q.

A candidate field is a tuple of r blocks, each a 2x2 matrix (a, b, c, d);
it vanishes at a point whose axis-i coordinate is v = (x, y) exactly when v
is an eigenvector of block i, i.e. det[A v | v] = a*xy + b*y^2 - c*x^2
- d*xy = 0.  Every marked point contributes one such row per axis: the row
of [1:z] on the point's own block and the row of [0:1] (forcing b = 0) on
every other block.  For a valid configuration the kernel is exactly the
r-dimensional space of scalar blocks.
"""

from __future__ import annotations

from .checks import FAIL, PASS, make_record
from .fieldgeom import Config


class ConstraintRow:
    """4r coefficients over F_q; at most one 4-entry block is nonzero."""

    __slots__ = ("coeffs", "tag")

    def __init__(self, coeffs: tuple[int, ...], tag: str):
        self.coeffs = coeffs
        self.tag = tag


def eigen_constraint_row(
    v: tuple[int, int], block: int, r: int, q: int, tag: str = ""
) -> ConstraintRow:
    """The linear condition over F_q that v = (x, y) is an eigenvector of
    block `block` (1-based): a*xy + b*y^2 - c*x^2 - d*xy = 0."""
    x, y = v
    entries = (x * y % q, y * y % q, -x * x % q, -x * y % q)
    coeffs = [0] * (4 * r)
    coeffs[4 * (block - 1): 4 * block] = entries
    return ConstraintRow(tuple(coeffs), tag or f"block{block}@[{x}:{y}]")


def assemble_system(config: Config) -> list[ConstraintRow]:
    """One row per (marked point, axis): |Delta| * r rows, duplicates allowed."""
    rows = []
    for p in config.delta:
        for axis in range(1, config.r + 1):
            v = (1, p.coord) if axis == p.axis else (0, 1)
            rows.append(eigen_constraint_row(
                v, axis, config.r, config.q, tag=f"p[{p.key}]@axis{axis}"
            ))
    return rows


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
        self,
        q: int,
        r: int,
        rows: list[ConstraintRow],
        rank: int,
        dimension: int,
        basis: list[tuple[int, ...]],
        pivots: list[int],
    ):
        self.q = q
        self.r = r
        self.rows = rows
        self.rank = rank
        self.dimension = dimension
        self.basis = basis
        self.pivots = pivots

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def blocks(self, vec: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
        return [tuple(vec[4 * i: 4 * i + 4]) for i in range(self.r)]

    def basis_is_scalar(self) -> bool:
        """True when every basis vector has b = c = 0 and a = d per block."""
        return self.nonscalar_witness() is None

    def nonscalar_witness(self) -> tuple[int, ...] | None:
        for vec in self.basis:
            for a, b, c, d in self.blocks(vec):
                if b or c or a != d:
                    return vec
        return None


def kernel_of_rows(rows: list[ConstraintRow], r: int, q: int) -> KernelResult:
    dim, basis, pivots = kernel_mod_q([row.coeffs for row in rows], 4 * r, q)
    return KernelResult(
        q=q,
        r=r,
        rows=rows,
        rank=len(pivots),
        dimension=dim,
        basis=basis,
        pivots=pivots,
    )


def derivation_kernel(config: Config) -> KernelResult:
    return kernel_of_rows(assemble_system(config), config.r, config.q)


def scalar_tuples_satisfy(rows: list[ConstraintRow], r: int, q: int) -> bool:
    """Scalar blocks annihilate every row (a = d makes each row vanish)."""
    for i in range(r):
        vec = [0] * (4 * r)
        vec[4 * i] = 1
        vec[4 * i + 3] = 1
        for row in rows:
            if sum(x * y for x, y in zip(row.coeffs, vec)) % q:
                return False
    return True


def direction_counts(config: Config) -> list[int]:
    """Pairwise non-proportional eigenvector directions per block: the
    distinct own-axis coordinates plus the shared [0:1]."""
    counts = []
    for axis in range(1, config.r + 1):
        coords = {p.coord for p in config.delta if p.axis == axis}
        counts.append(len(coords) + 1)
    return counts


def verify_vanishing(config: Config) -> list:
    """Direction-count diagnostic plus the kernel check, as records."""
    return vanishing_records(config, derivation_kernel(config))


def vanishing_records(config: Config, result: KernelResult) -> list:
    """verify_vanishing's records, read from the config's derivation kernel."""
    records = []
    counts = direction_counts(config)
    records.append(
        make_record(
            "vectorfields.directions",
            PASS if all(c >= 3 for c in counts) else FAIL,
            counts,
            ">= 3 per block",
        )
    )
    containment = scalar_tuples_satisfy(result.rows, config.r, config.q)
    ok = result.dimension == config.r and result.basis_is_scalar() and containment
    witness = result.nonscalar_witness()
    records.append(
        make_record(
            "vectorfields.kernel",
            PASS if ok else FAIL,
            {
                "q": config.q,
                "rows": result.n_rows,
                "rank": result.rank,
                "dimension": result.dimension,
                "scalar_basis": result.basis_is_scalar(),
                "scalars_contained": containment,
            },
            {"q": config.q, "rows": len(config.delta) * config.r, "rank": 3 * config.r,
             "dimension": config.r, "scalar_basis": True,
             "scalars_contained": True},
            detail=(
                f"pivot sequence {result.pivots}"
                + (f"; nonscalar kernel vector {witness}" if witness else "")
            ),
        )
    )
    return records
