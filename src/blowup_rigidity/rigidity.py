"""The special curve/divisor configuration, its incidence graph, and the
geometric automorphism group.

Components: the exceptional divisors E_p (dimension r-1), the strict line
transforms (dimension 1), and the strict through-point lines (dimension 1).
A component is its index in components() order, and the adjacency is
tuples of those indices, found by offset from closed-form coordinate rules
(stated at `build_graph`) instead of by testing every pair; the point-level
oracle that re-derives each rule from all pairs lives in the test suite.

The automorphism group is checked per axis through its product structure:
once pinning fixes the axis permutation, it is the direct product of the r
per-axis scaling groups, so verify_rigidity compares each factor's action
with the torsion shifts on that axis's marked points instead of listing
the n^r elements (see its docstring for the argument).
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
    DeltaPoint,
    delta_permutation,
    format_map,
    scaling_group,
    stabilizer_excess,
)

EXC = "exc"
LINE = "line"
GAMMA = "gamma"


class Component:
    """What a vertex stands for, behind its label and messages.
    kind "exc": the divisor over `point` (axis unused).
    kind "line": the strict axis line (point unused).
    kind "gamma": the strict through-`point` line with free axis `axis`."""

    __slots__ = ("kind", "axis", "point", "dim")

    def __init__(self, kind: str, axis: int | None, point: DeltaPoint | None, dim: int):
        self.kind = kind
        self.axis = axis
        self.point = point
        self.dim = dim

    @property
    def label(self) -> str:
        if self.kind == EXC:
            return f"E[{self.point.key}]"
        if self.kind == LINE:
            return f"lt{self.axis}"
        return f"gt[{self.point.key};{self.axis}]"

    @property
    def is_divisor(self) -> bool:
        return self.kind == EXC

    def __repr__(self):
        return self.label


def components(config: Config, delta: tuple[DeltaPoint, ...]) -> tuple[Component, ...]:
    """All components in vertex order: the divisors by point, then the
    lines by axis, then the gammas by (axis, point)."""
    out = [Component(EXC, None, p, config.r - 1) for p in delta]
    out += [Component(LINE, i, None, 1) for i in range(1, config.r + 1)]
    for i in range(1, config.r + 1):
        out += [Component(GAMMA, i, p, 1) for p in delta if p.axis != i]
    return tuple(out)


class IncidenceGraph:
    """Vertex v is vertices[v], in components() order; adjacency[v] is the
    ascending tuple of its neighbours' indices."""

    def __init__(self, config: Config, vertices: tuple[Component, ...],
                 adjacency: tuple[tuple[int, ...], ...]):
        self.config = config
        self.vertices = vertices
        self.adjacency = adjacency
        # the indices below this are the divisors; the r lines come next
        self.divisors = len(config.delta)

    def by_kind(self, rows: list) -> tuple[list, list, list]:
        """Per-vertex rows split into the divisors', lines' and gammas' parts."""
        d, r = self.divisors, self.config.r
        return rows[:d], rows[d:d + r], rows[d + r:]

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
        labels = [v.label for v in self.vertices]
        return {labels[v]: [labels[w] for w in nbrs] for v, nbrs in enumerate(self.adjacency)}

    def to_json(self) -> str:
        return json.dumps(self.to_adjacency_dict(), sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        labels = [v.label for v in self.vertices]
        lines = ["graph incidence {"]
        for v, label in zip(self.vertices, labels):
            shape = "box" if v.is_divisor else "ellipse"
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
    found by offset: E_p is p's index in config.delta, where each axis's
    points are one range, and the gammas of axis i are one block in delta
    order that skips axis i's range.
    """
    delta = config.delta
    d, r = len(delta), config.r
    axes = range(1, r + 1)
    size = [config.n * len(b) for b in config.base]
    # the points on axis i are delta[first[i - 1]:first[i]]
    first = list(itertools.accumulate(size, initial=0))
    # the gammas of axis i start at index block[i - 1]
    block = list(itertools.accumulate((d - m for m in size), initial=d + r))

    def gamma(k: int, i: int) -> int:
        """The index of gt[delta[k]; i]."""
        return block[i - 1] + k - (size[i - 1] if k >= first[i] else 0)

    adjacency = [
        (d + p.axis - 1, *(gamma(k, i) for i in axes if i != p.axis))
        for k, p in enumerate(delta)
    ]
    adjacency += [
        (*range(first[i - 1], first[i]), *(d + j - 1 for j in axes if j != i))
        for i in axes
    ]
    for i in axes:
        for k, p in enumerate(delta):
            if p.axis != i:
                start = gamma(first[i - 1], p.axis)
                adjacency.append((k, *range(start, start + size[i - 1])))
    return IncidenceGraph(config, components(config, delta), tuple(adjacency))


class CensusRow:
    def __init__(self, component: Component, divisor_neighbors: int, curve_neighbors: int):
        self.component = component
        self.divisor_neighbors = divisor_neighbors
        self.curve_neighbors = curve_neighbors

    @property
    def computed_total(self) -> int:
        return self.divisor_neighbors + self.curve_neighbors


def census(graph: IncidenceGraph) -> list[CensusRow]:
    """Per-vertex neighbor profile, one row per vertex of the adjacency.

    The nominal neighbor totals are r for a divisor, n*s_i + 1 for a
    through-point curve in direction i and n*s_i for the axis-i line; the
    last is the one computed geometry exceeds, by the r-1 line-line meetings
    at the unblown common point (check rigidity.census_lines).
    """
    return [CensusRow(graph.vertices[v], *graph.profile(v)) for v in range(len(graph.adjacency))]


class PinningCertificate:
    """Why the profiles pin the components: how the divisors are singled out,
    and each line's identifying divisor-degree."""

    def __init__(self, exc_criterion: str, line_divisor_degrees: dict[int, int]):
        self.exc_criterion = exc_criterion
        self.line_divisor_degrees = line_divisor_degrees

    def to_dict(self) -> dict:
        return {
            "exc_criterion": self.exc_criterion,
            "line_divisor_degrees": {
                str(k): v for k, v in sorted(self.line_divisor_degrees.items())
            },
        }


def pin_components(graph: IncidenceGraph, rows: list[CensusRow]) -> PinningCertificate:
    """Certify from the computed profiles rows (census(graph)) that (i) the
    exceptional divisors are determined among all components and (ii) each
    strict line is determined among the curve components by its
    divisor-neighbor count."""
    exc_rows, line_rows, gamma_rows = graph.by_kind(rows)

    if graph.config.r >= 3:
        exc_criterion = "maximal dimension r-1 >= 2"
    else:
        exc_totals = {row.computed_total for row in exc_rows}
        clash = [
            row.component
            for row in line_rows + gamma_rows
            if row.computed_total in exc_totals
        ]
        if clash:
            raise AmbiguousProfile(
                f"components {clash} share the divisor total degree"
            )
        exc_criterion = (
            f"unique total degree {sorted(exc_totals)} among all components"
        )

    gamma_div_degrees = {row.divisor_neighbors for row in gamma_rows}
    degrees: dict[int, int] = {}
    for row in line_rows:
        d = row.divisor_neighbors
        if d in gamma_div_degrees:
            raise AmbiguousProfile(
                f"{row.component} has divisor-degree {d}, same as a "
                "through-point curve"
            )
        if d in degrees.values():
            other = next(k for k, v in degrees.items() if v == d)
            raise AmbiguousProfile(
                f"axes {other} and {row.component.axis} have equal "
                f"divisor-degree {d}"
            )
        degrees[row.component.axis] = d
    return PinningCertificate(exc_criterion, degrees)


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
    config: Config, g: tuple[int, ...], delta: tuple[DeltaPoint, ...]
) -> dict[DeltaPoint, DeltaPoint]:
    """Where the scalings g send each marked point, found by looking up the
    image coordinate; independent of the torsion bookkeeping in
    fieldgeom.delta_permutation, which it is compared against."""
    by_coord = {(p.axis, p.coord): p for p in delta}
    out = {}
    for p in delta:
        image = by_coord.get((p.axis, g[p.axis - 1] * p.coord % config.q))
        if image is None:
            raise NonGeneric(f"scalings {list(g)} do not stabilize the marked set")
        out[p] = image
    return out


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
    delta = config.delta
    graph = build_graph(config)
    cfg = config

    expected_count = len(delta) + cfg.r + sum(
        len(delta) - cfg.n * si for si in cfg.s
    )
    records.append(
        make_record(
            "rigidity.components",
            PASS if len(graph.vertices) == expected_count else FAIL,
            len(graph.vertices),
            expected_count,
        )
    )

    rows = census(graph)
    exc_rows, line_rows, gamma_rows = graph.by_kind(rows)
    exc_ok = all(
        (r.divisor_neighbors, r.curve_neighbors) == (0, cfg.r) for r in exc_rows
    )
    records.append(
        make_record(
            "rigidity.census_divisors",
            PASS if exc_ok else FAIL,
            sorted({(r.divisor_neighbors, r.curve_neighbors) for r in exc_rows}),
            [(0, cfg.r)],
        )
    )

    gamma_ok = all(
        (r.divisor_neighbors, r.curve_neighbors)
        == (1, cfg.n * cfg.s[r.component.axis - 1])
        for r in gamma_rows
    )
    records.append(
        make_record(
            "rigidity.census_gammas",
            PASS if gamma_ok else FAIL,
            sorted({(r.divisor_neighbors, r.curve_neighbors) for r in gamma_rows}),
            sorted({(1, cfg.n * si) for si in cfg.s}),
        )
    )

    line_profile_ok = all(
        (r.divisor_neighbors, r.curve_neighbors)
        == (cfg.n * cfg.s[r.component.axis - 1], cfg.r - 1)
        for r in line_rows
    )
    line_status = WARN if line_profile_ok else FAIL
    records.append(
        make_record(
            "rigidity.census_lines",
            line_status,
            {f"axis_{r.component.axis}": [r.divisor_neighbors, r.curve_neighbors]
             for r in line_rows},
            {f"axis_{i}": [cfg.n * si, cfg.r - 1]
             for i, si in enumerate(cfg.s, start=1)},
            detail=(
                "computed total exceeds the nominal divisor-only count by r-1: "
                "the strict lines still meet pairwise at the all-[0:1] point, "
                "which is not blown up; the pinning step uses computed values"
            ),
        )
    )

    handshake_lhs = sum(r.divisor_neighbors for r in line_rows + gamma_rows)
    handshake_rhs = sum(r.curve_neighbors for r in exc_rows)
    records.append(
        make_record(
            "rigidity.handshake",
            PASS if handshake_lhs == handshake_rhs else FAIL,
            {"curve_side": handshake_lhs, "divisor_side": handshake_rhs},
            "equal sums",
        )
    )

    try:
        cert = pin_components(graph, rows)
        records.append(
            make_record("rigidity.pinning", PASS, cert.to_dict(), "certificate")
        )
    except AmbiguousProfile as exc:
        records.append(
            make_record("rigidity.pinning", FAIL, str(exc), "certificate")
        )
        return records

    try:
        factors = axis_scalings(config)
        action_match = True
        for axis, mus in enumerate(factors, start=1):
            points = tuple(p for p in delta if p.axis == axis)
            # one nonzero entry, at this axis; images listed in delta order
            geometric = [
                tuple(geometric_permutation(cfg, _at_axis(cfg, axis, mu, 1), points).values())
                for mu in mus
            ]
            torsion = {
                tuple(delta_permutation(cfg, _at_axis(cfg, axis, k, 0), points).values())
                for k in range(cfg.n)
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
