"""The special curve/divisor configuration, its incidence graph, and the
geometric automorphism group.

Components: the exceptional divisors E_p (dimension r-1), the strict line
transforms (dimension 1), and the strict through-point lines (dimension 1).
A component is only its index in the vertex order: the divisors by point
position, then the lines by axis, then the gammas by (axis, point
position).  The adjacency is tuples of those indices, found by offset from
closed-form coordinate rules (stated at `build_graph`) instead of by testing
every pair, and the census reads each kind as an index range.  Labels are
built by `vertex_labels` only for graph output and error messages; the
point-level oracle that re-derives each rule from all pairs lives in the
test suite.

The automorphism group is checked per axis through its product structure:
once pinning fixes the axis permutation, it is the direct product of the r
per-axis scaling groups, so verify_rigidity compares each factor's action
with the torsion shifts on that axis's marked points instead of listing
the n^r elements (see its docstring for the argument).  Both actions map
point positions to point positions: the scalings by looking up the image
coordinate in config.delta, the torsion shifts by position arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math

from .checks import FAIL, PASS, WARN, make_record
from .errors import AmbiguousProfile, NonGeneric
from .fieldgeom import (
    Config,
    delta_permutation,
    format_map,
    point_keys,
    scaling_group,
    stabilizer_excess,
)


def vertex_labels(config: Config) -> list[str]:
    """Each vertex's label, in vertex order: E[p] for the divisor over p,
    lt<i> for the axis-i line, gt[p;i] for the line through p with free
    axis i."""
    keys, axes = point_keys(config), range(1, config.r + 1)
    return ([f"E[{key}]" for key in keys] + [f"lt{i}" for i in axes]
            + [f"gt[{key};{i}]" for i in axes
               for key, axis in zip(keys, config.axis_of) if axis != i])


class IncidenceGraph:
    """adjacency[v] is the ascending tuple of vertex v's neighbours.  The
    vertices below `divisors` are the divisors and the r lines come next;
    the gammas of axis i are the vertices blocks[i - 1] to blocks[i] - 1."""

    def __init__(self, config: Config, adjacency: tuple[tuple[int, ...], ...],
                 blocks: list[int]):
        self.config = config
        self.adjacency = adjacency
        self.blocks = blocks
        self.divisors = len(config.delta)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as (v, w) with v < w, in vertex order."""
        return [(v, w) for v, nbrs in enumerate(self.adjacency) for w in nbrs if v < w]

    def profile(self, v: int) -> tuple[int, int]:
        """(divisor neighbors, curve neighbors)."""
        nbrs = self.adjacency[v]
        div = bisect.bisect_left(nbrs, self.divisors)
        return div, len(nbrs) - div

    def to_adjacency_dict(self) -> dict[str, list[str]]:
        labels = vertex_labels(self.config)
        return {labels[v]: [labels[w] for w in nbrs] for v, nbrs in enumerate(self.adjacency)}

    def to_json(self) -> str:
        return json.dumps(self.to_adjacency_dict(), sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        labels = vertex_labels(self.config)
        lines = ["graph incidence {"]
        for v, label in enumerate(labels):
            shape = "box" if v < self.divisors else "ellipse"
            lines.append(f'  "{label}" [shape={shape}];')
        for v, w in self.edges:
            lines.append(f'  "{labels[v]}" -- "{labels[w]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(config: Config) -> IncidenceGraph:
    """The incidence graph, built by index from closed-form rules, each
    provable by coordinate computation:

    - two exceptional divisors never meet;
    - a strict line meets E_p exactly when p lies on its axis;
    - two strict lines always meet (at the all-[0:1] point, which is not
      blown up);
    - a through-point curve meets exactly the divisor over its own point;
    - a through-point curve never meets a strict line (they share at most
      the marked point, where their directions differ);
    - gamma(p,i) meets gamma(q,m) exactly when axis(p) = m and axis(q) = i
      (they then meet at a point with two non-[0:1] coordinates, which is
      not blown up); all other gamma pairs are disjoint or separated.

    So E_p meets lt_{axis(p)} and gt[p;i] for i != axis(p); lt_i meets E_p
    for p on axis i and the other lines; gt[p;i] meets E_p and gt[q;axis(p)]
    for q on axis i.  Each neighbour tuple is ascending vertex indices,
    found by offset: E_p is p's position in config.delta, where each axis's
    points are one range, and the gammas of axis i are one block in point
    order that skips axis i's range.
    """
    axis_of = config.axis_of
    d, r = len(config.delta), config.r
    axes = range(1, r + 1)
    size = [config.n * len(b) for b in config.base]
    # the points on axis i are the positions first[i - 1] to first[i] - 1
    first = list(itertools.accumulate(size, initial=0))
    # the gammas of axis i are the vertices block[i - 1] to block[i] - 1
    block = list(itertools.accumulate((d - m for m in size), initial=d + r))

    def gamma(k: int, i: int) -> int:
        """The index of gt[p; i] for the point p at position k."""
        return block[i - 1] + k - (size[i - 1] if k >= first[i] else 0)

    adjacency = [
        (d + axis - 1, *(gamma(k, i) for i in axes if i != axis))
        for k, axis in enumerate(axis_of)
    ]
    adjacency += [
        (*range(first[i - 1], first[i]), *(d + j - 1 for j in axes if j != i))
        for i in axes
    ]
    for i in axes:
        for k, axis in enumerate(axis_of):
            if axis != i:
                start = gamma(first[i - 1], axis)
                adjacency.append((k, *range(start, start + size[i - 1])))
    return IncidenceGraph(config, tuple(adjacency), block)


def census(graph: IncidenceGraph) -> list[tuple[int, int]]:
    """Per-vertex (divisor neighbors, curve neighbors), in vertex order.

    The nominal neighbor totals are r for a divisor, n*s_i + 1 for a
    through-point curve in direction i and n*s_i for the axis-i line; the
    last is the one computed geometry exceeds, by the r-1 line-line meetings
    at the unblown common point (check rigidity.census_lines).
    """
    return [graph.profile(v) for v in range(len(graph.adjacency))]


def pin_components(graph: IncidenceGraph, rows: list[tuple[int, int]]) -> dict:
    """Certify from the computed profiles rows (census(graph)) that (i) the
    exceptional divisors are determined among all components and (ii) each
    strict line is determined among the curve components by its
    divisor-neighbor count.  The certificate says how the divisors are
    singled out, and gives each line's identifying divisor-degree by axis."""
    d, r = graph.divisors, graph.config.r

    if r >= 3:
        exc_criterion = "maximal dimension r-1 >= 2"
    else:
        exc_totals = {sum(row) for row in rows[:d]}
        clash = [v for v in range(d, len(rows)) if sum(rows[v]) in exc_totals]
        if clash:
            labels = vertex_labels(graph.config)
            raise AmbiguousProfile(
                f"components [{', '.join(labels[v] for v in clash)}] share the "
                "divisor total degree"
            )
        exc_criterion = (
            f"unique total degree {sorted(exc_totals)} among all components"
        )

    gamma_div_degrees = {div for div, _ in rows[d + r:]}
    degrees: dict[str, int] = {}
    for axis, (div, _) in enumerate(rows[d:d + r], start=1):
        if div in gamma_div_degrees:
            raise AmbiguousProfile(
                f"{vertex_labels(graph.config)[d + axis - 1]} has divisor-degree "
                f"{div}, same as a through-point curve"
            )
        if div in degrees.values():
            other = next(k for k, v in degrees.items() if v == div)
            raise AmbiguousProfile(
                f"axes {other} and {axis} have equal divisor-degree {div}"
            )
        degrees[str(axis)] = div
    return {"exc_criterion": exc_criterion, "line_divisor_degrees": degrees}


def axis_scalings(config: Config) -> list[list[int]]:
    """Per axis, the scalings mu of z -> mu*z that make up its stabilizer of
    the marked coordinates (config.stabilizers), which must be exactly the
    order-n scaling group; each list is in torsion-shift order mu = zeta^k,
    k ascending.

    Raises NonGeneric when some axis stabilizer is larger, exhibiting the
    extra maps.
    """
    for axis, stab in enumerate(config.stabilizers, start=1):
        excess = stabilizer_excess(config, stab)
        if excess is not None:
            extra = ", ".join(format_map(mu) for mu in excess)
            raise NonGeneric(
                f"axis {axis} stabilizer has order {len(stab)} > {config.n}; "
                f"extra elements: [{extra}]"
            )
    return [scaling_group(config) for _ in config.stabilizers]


def geometric_automorphisms(config: Config) -> list[tuple[int, ...]]:
    """All n^r product automorphisms, listed in torsion-shift order.  The
    axis permutation is the identity (certified by the pinning step), so an
    element is the tuple (mu_1, ..., mu_r) of its per-axis scalings from
    axis_scalings, which raises NonGeneric for a larger axis stabilizer."""
    return list(itertools.product(*axis_scalings(config)))


def geometric_permutation(
    config: Config, g: tuple[int, ...], positions
) -> tuple[int, ...]:
    """The images under the scalings g of the points at positions, found by
    looking up each image coordinate among them; independent of the torsion
    arithmetic in fieldgeom.delta_permutation, which it is compared
    against."""
    delta, axis_of, q = config.delta, config.axis_of, config.q
    at = {(axis_of[k], delta[k]): k for k in positions}
    images = []
    for k in positions:
        axis = axis_of[k]
        image = at.get((axis, g[axis - 1] * delta[k] % q))
        if image is None:
            raise NonGeneric(f"scalings {list(g)} do not stabilize the marked set")
        images.append(image)
    return tuple(images)


def _at_axis(config: Config, axis: int, value: int, rest: int) -> tuple[int, ...]:
    """The r-tuple with value at axis and rest everywhere else."""
    return tuple(value if i == axis else rest for i in range(1, config.r + 1))


def verify_rigidity(config: Config) -> list:
    """Graph, census, pinning, and the automorphism group, as check records.

    PASS requires the group to have order exactly n^r and exponent n, and its
    action on the marked set to coincide with the torsion action.

    The group is checked axis by axis, never listed.  The pinning
    certificate fixes the axis permutation as the identity, and each axis
    stabilizer must be the order-n scaling group, so the group is the direct
    product of the r per-axis groups.  Both the scalings and the torsion
    shifts move a point only through its own axis's factor.  Hence the order
    is the product of the factor orders; the exponent is n iff each factor's
    scalings have mu^n = 1; the identity is present iff every factor
    contains mu = 1; the action is faithful iff every factor's is; and its
    permutation set equals the torsion one iff that holds on each axis's
    points.  That is 2*n*|Delta| point maps in place of 2*n^r*|Delta|.
    """
    records = []
    graph = build_graph(config)
    cfg = config
    size = len(cfg.delta)

    expected_count = size + cfg.r + sum(size - cfg.n * si for si in cfg.s)
    records.append(
        make_record(
            "rigidity.components",
            PASS if len(graph.adjacency) == expected_count else FAIL,
            len(graph.adjacency),
            expected_count,
        )
    )

    rows = census(graph)
    d, blocks = graph.divisors, graph.blocks
    exc_rows, line_rows = rows[:d], rows[d:d + cfg.r]
    records.append(
        make_record(
            "rigidity.census_divisors",
            PASS if all(row == (0, cfg.r) for row in exc_rows) else FAIL,
            sorted(set(exc_rows)),
            [(0, cfg.r)],
        )
    )

    gamma_ok = all(
        row == (1, cfg.n * si)
        for i, si in enumerate(cfg.s, start=1)
        for row in rows[blocks[i - 1]:blocks[i]]
    )
    records.append(
        make_record(
            "rigidity.census_gammas",
            PASS if gamma_ok else FAIL,
            sorted(set(rows[blocks[0]:blocks[-1]])),
            sorted({(1, cfg.n * si) for si in cfg.s}),
        )
    )

    nominal_lines = [(cfg.n * si, cfg.r - 1) for si in cfg.s]
    records.append(
        make_record(
            "rigidity.census_lines",
            WARN if line_rows == nominal_lines else FAIL,
            {f"axis_{i}": list(row) for i, row in enumerate(line_rows, start=1)},
            {f"axis_{i}": list(row) for i, row in enumerate(nominal_lines, start=1)},
            detail=(
                "computed total exceeds the nominal divisor-only count by r-1: "
                "the strict lines still meet pairwise at the all-[0:1] point, "
                "which is not blown up; the pinning step uses computed values"
            ),
        )
    )

    handshake_lhs = sum(div for div, _ in rows[d:])
    handshake_rhs = sum(curve for _, curve in exc_rows)
    records.append(
        make_record(
            "rigidity.handshake",
            PASS if handshake_lhs == handshake_rhs else FAIL,
            {"curve_side": handshake_lhs, "divisor_side": handshake_rhs},
            "equal sums",
        )
    )

    try:
        records.append(make_record(
            "rigidity.pinning", PASS, pin_components(graph, rows), "certificate"
        ))
    except AmbiguousProfile as exc:
        records.append(
            make_record("rigidity.pinning", FAIL, str(exc), "certificate")
        )
        return records

    try:
        factors = axis_scalings(config)
        action_match = True
        for axis, mus in enumerate(factors, start=1):
            points = [k for k, a in enumerate(cfg.axis_of) if a == axis]
            # one nonzero entry, at this axis; images listed in point order
            geometric = [
                geometric_permutation(cfg, _at_axis(cfg, axis, mu, 1), points) for mu in mus
            ]
            torsion = {
                delta_permutation(cfg, _at_axis(cfg, axis, t, 0), points)
                for t in range(cfg.n)
            }
            # faithful (no two scalings act alike) and every shift is hit
            action_match &= len(set(geometric)) == len(geometric) and set(geometric) == torsion
    except NonGeneric as exc:
        records.append(
            make_record(
                "rigidity.automorphisms",
                FAIL,
                f"NonGeneric: {exc}",
                {"order": cfg.n ** cfg.r},
            )
        )
        return records

    order = math.prod(len(mus) for mus in factors)
    exponent_ok = all(pow(mu, cfg.n, cfg.q) == 1 for mus in factors for mu in mus)
    identity_present = all(1 in mus for mus in factors)

    aut_ok = order == cfg.n ** cfg.r and exponent_ok and identity_present and action_match
    records.append(
        make_record(
            "rigidity.automorphisms",
            PASS if aut_ok else FAIL,
            {"order": order, "exponent_n": exponent_ok,
             "identity": identity_present,
             "matches_torsion_action": action_match},
            {"order": cfg.n ** cfg.r, "exponent_n": True, "identity": True,
             "matches_torsion_action": True},
        )
    )
    return records
