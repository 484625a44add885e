"""Independent brute-force oracles.

Everything here recomputes the quantity under test by a different route than
the package (exhaustion over whole groups, point-set geometry, unstructured
search) so the main implementation is checked against code that shares none
of its shortcuts.  The projective line and PGL2 arithmetic is its own: a
point is a normalized pair (u, v) and a map a normalized matrix (a, b, c, d)
acting by [u:v] -> [a*u + b*v : c*u + d*v], both scaled so that the first
nonzero entry is 1.  So is the marked set: `marked_points` rebuilds it from
the base table and zeta, never from the package's config.delta, axis_of or
point_keys.
"""

from __future__ import annotations

import functools
import itertools

from blowup_rigidity.fieldgeom import Config
from blowup_rigidity.rigidity import IncidenceGraph, geometric_automorphisms


def multiplicative_order(z: int, q: int) -> int:
    """The order of z in F_q^*, by repeated multiplication."""
    z %= q
    if z == 0:
        raise ValueError("zero has no multiplicative order")
    k, acc = 1, z
    while acc != 1:
        acc = acc * z % q
        k += 1
    return k


def smallest_of_order(q: int, n: int) -> int:
    """Exhaustive scan for the smallest element of exact order n in F_q^*."""
    for value in range(1, q):
        if multiplicative_order(value, q) == n:
            return value
    raise AssertionError(f"no element of order {n} mod {q}")


def normalized(entries: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Scale a nonzero vector over F_q so that its first nonzero entry is 1."""
    lead = next(x for x in entries if x % q)
    inv = pow(lead, q - 2, q)
    return tuple(x * inv % q for x in entries)


def apply_map(m: tuple[int, ...], point: tuple[int, int], q: int) -> tuple[int, int]:
    a, b, c, d = m
    u, v = point
    return normalized((a * u + b * v, c * u + d * v), q)


@functools.lru_cache(maxsize=None)
def pgl2_elements(q: int) -> tuple[tuple[int, ...], ...]:
    """All of PGL2(F_q) via canonical matrix representatives: q^3 - q maps."""
    out = []
    for b, c, d in itertools.product(range(q), repeat=3):
        if (d - b * c) % q:
            out.append((1, b, c, d))
    for c, d in itertools.product(range(1, q), range(q)):
        out.append((0, 1, c, d))
    assert len(out) == q**3 - q
    return tuple(out)


@functools.lru_cache(maxsize=None)
def pgl2_fixing_zero_one(q: int) -> tuple[tuple[int, ...], ...]:
    """The maps in PGL2(F_q) that fix [0:1], found by applying each element."""
    return tuple(m for m in pgl2_elements(q) if apply_map(m, (0, 1), q) == (0, 1))


def stabilizer_oracle(coords: set[int], q: int) -> list[tuple[int, ...]]:
    """Filter the whole of PGL2(F_q): maps fixing [0:1] and permuting the
    point set {[1:z] : z in coords}, as sorted canonical matrices."""
    points = frozenset((1, z % q) for z in coords)
    keep = [
        m for m in pgl2_fixing_zero_one(q)
        if frozenset(apply_map(m, p, q) for p in points) == points
    ]
    return sorted(keep)


def scaling_orbit(z: int, zeta: int, n: int, q: int) -> frozenset[int]:
    """The orbit {z, zeta*z, ..., zeta^(n-1)*z} of z mod q."""
    return frozenset(z * pow(zeta, t, q) % q for t in range(n))


def marked_coordinates(config: Config, axis: int) -> set[int]:
    """The axis's marked coordinates b*zeta^t straight from the base table,
    without the package's marked set."""
    return set().union(*(scaling_orbit(b, config.zeta, config.n, config.q)
                         for b in config.base[axis - 1]))


def stabilizer_is_generic(config: Config) -> bool:
    """Genericity from the marked coordinates: every axis stabilizer, by
    pair_scan_stabilizer, is exactly the scalings z -> zeta^k z."""
    scalings = sorted((0, pow(config.zeta, k, config.q)) for k in range(config.n))
    return all(
        pair_scan_stabilizer(marked_coordinates(config, axis), config.q) == scalings
        for axis in range(1, config.r + 1)
    )


def pair_scan_stabilizer(coords, q: int) -> list[tuple[int, int]]:
    """Affine maps z -> kappa + mu*z permuting the coordinate set, as sorted
    pairs (kappa, mu), by scanning every ordered pair of images (w1, w2) of
    the two smallest coordinates and filtering each map against the whole
    set: O(|coords|^3), but fast enough for primes where PGL2 is not."""
    values = sorted({z % q for z in coords})
    vset = frozenset(values)
    z1, z2 = values[0], values[1]
    dz_inv = pow(z1 - z2, -1, q)
    found = []
    for w1 in values:
        for w2 in values:
            if w1 == w2:
                continue
            mu = (w1 - w2) * dz_inv % q
            kappa = (w1 - mu * z1) % q
            if all((kappa + mu * z) % q in vset for z in vset):
                found.append((kappa, mu))
    return sorted(found)


def projective_line(q: int) -> list[tuple[int, int]]:
    return [(1, z) for z in range(q)] + [(0, 1)]


# A marked point as (axis, orbit, torsion, coord): axis and orbit 1-based,
# coord its own-axis coordinate z, standing for [1:z]
Point = tuple[int, int, int, int]


@functools.lru_cache(maxsize=None)
def marked_points(config: Config) -> tuple[Point, ...]:
    """The marked points in (axis, orbit, torsion) order, each orbit walked
    from its base entry by repeated multiplication with zeta."""
    points = []
    for axis, axis_base in enumerate(config.base, start=1):
        for orbit, b in enumerate(axis_base, start=1):
            z = b % config.q
            for torsion in range(config.n):
                points.append((axis, orbit, torsion, z))
                z = z * config.zeta % config.q
    return tuple(points)


def point_key(p: Point) -> str:
    axis, orbit, torsion, _ = p
    return f"{axis}.{orbit}.{torsion}"


def point_axes(config: Config) -> tuple[int, ...]:
    """The axis of each marked point, in marked_points order."""
    return tuple(axis for axis, *_ in marked_points(config))


def full_coords(p: Point, r: int) -> tuple[tuple[int, int], ...]:
    """The marked point in the ambient product: [1:z] at its own axis and
    [0:1] at every other."""
    axis, _, _, z = p
    return tuple((1, z) if i == axis else (0, 1) for i in range(1, r + 1))


# A vertex of the incidence graph as (kind, axis, point): ("exc", None, p)
# for the divisor over p, ("line", i, None) for the axis-i line and
# ("gamma", i, p) for the line through p with free axis i.
Vertex = tuple[str, int | None, Point | None]


def oracle_vertices(config: Config) -> list[Vertex]:
    """The vertices in the documented vertex order: the divisors by point,
    then the lines by axis, then the gammas by (axis, point)."""
    points, axes = marked_points(config), range(1, config.r + 1)
    return ([("exc", None, p) for p in points] + [("line", i, None) for i in axes]
            + [("gamma", i, p) for i in axes for p in points if p[0] != i])


def oracle_label(vertex: Vertex) -> str:
    kind, axis, point = vertex
    if kind == "exc":
        return f"E[{point_key(point)}]"
    if kind == "line":
        return f"lt{axis}"
    return f"gt[{point_key(point)};{axis}]"


def curve_point_set(comp: Vertex, config: Config) -> frozenset[tuple]:
    """All F_q-rational points of a 1-dimensional component, as coordinate
    tuples of the ambient product."""
    kind, free, point = comp
    assert kind in ("line", "gamma")
    fixed: dict[int, tuple[int, int]] = {}
    if kind == "gamma":
        axis, _, _, z = point
        fixed[axis] = (1, z)
    points = set()
    for t in projective_line(config.q):
        coords = tuple(
            t if i == free else fixed.get(i, (0, 1))
            for i in range(1, config.r + 1)
        )
        points.add(coords)
    return frozenset(points)


def incident_oracle(comp1: Vertex, comp2: Vertex, config: Config) -> bool:
    """Point-level incidence on the blow-up:

    - divisor vs divisor: the blown-up points are distinct, so never;
    - divisor over p vs curve: the curve passes through p (the strict
      transform then meets the divisor at the curve's direction point);
    - curve vs curve: they share an ambient F_q-point that either is not
      blown up, or is blown up but both curves leave it along the same axis
      (the strict transforms then meet on that exceptional divisor).
    """
    delta_coords = {full_coords(p, config.r) for p in marked_points(config)}
    if comp1[0] == "exc" and comp2[0] == "exc":
        return False
    if "exc" in (comp1[0], comp2[0]):
        div, cur = (comp1, comp2) if comp1[0] == "exc" else (comp2, comp1)
        return full_coords(div[2], config.r) in curve_point_set(cur, config)
    shared = curve_point_set(comp1, config) & curve_point_set(comp2, config)
    for x in shared:
        if x not in delta_coords:
            return True
        if comp1[1] == comp2[1]:
            return True
    return False


def oracle_adjacency(config: Config) -> dict[Vertex, tuple]:
    """The incidence graph by testing every ordered pair of oracle_vertices
    with incident_oracle; each neighbour tuple is in vertex order."""
    vertices = oracle_vertices(config)
    return {
        v: tuple(w for w in vertices if w != v and incident_oracle(v, w, config))
        for v in vertices
    }


def full_group_fields(config: Config) -> dict:
    """The computed fields of rigidity.automorphisms from the whole group:
    list all n^r product automorphisms, map each over the whole marked set
    by coordinate lookup, and compare with every torsion shift tuple mapped
    over the whole marked set by its (axis, orbit, torsion) name; both maps
    give the image's index in marked_points.  Exponential in r; for n^r up
    to about 100."""
    points, q, n = marked_points(config), config.q, config.n
    by_coord = {(axis, z): k for k, (axis, _, _, z) in enumerate(points)}
    by_name = {p[:3]: k for k, p in enumerate(points)}
    group = geometric_automorphisms(config)
    geometric = [
        tuple(by_coord[(axis, g[axis - 1] * z % q)] for axis, _, _, z in points)
        for g in group
    ]
    torsion = {
        tuple(by_name[(axis, orbit, (t + shifts[axis - 1]) % n)]
              for axis, orbit, t, _ in points)
        for shifts in itertools.product(range(n), repeat=config.r)
    }
    return {
        "order": len(group),
        "exponent_n": all(pow(mu, config.n, config.q) == 1 for g in group for mu in g),
        "identity": any(all(mu == 1 for mu in g) for g in group),
        "matches_torsion_action": len(set(geometric)) == len(geometric)
        and set(geometric) == torsion,
    }


def dense_pairing(lattice, curve, divisor) -> int:
    """curve . divisor from the bilinear basis rules alone: build the whole
    Gram matrix of the curve basis (lt_i, e_p) against the divisor basis
    (pi*H_j, E_q) and contract it with both full coefficient arrays.

        lt_i . pi*(H_j) = delta_ij          lt_i . E_q = 1 iff q on axis i
        e_p  . pi*(H_j) = 0                 e_p  . E_q = -delta_pq
    """
    r, axes = lattice.config.r, point_axes(lattice.config)
    size = r + len(axes)
    gram = [[0] * size for _ in range(size)]
    for i in range(r):
        gram[i][i] = 1
        for k, axis in enumerate(axes):
            if axis == i + 1:
                gram[i][r + k] = 1
    for k in range(len(axes)):
        gram[r + k][r + k] = -1
    c, d = curve.l + curve.e, divisor.h + divisor.m
    return sum(c[a] * gram[a][b] * d[b] for a in range(size) for b in range(size))


def pointwise_phi(lattice, curve) -> int:
    """The degree functional as defined, one marked point at a time:
    N * sum(l) minus curve . E_p = l_{axis(p)} - e_p for every p, with
    N = 1 + |Delta|."""
    axes = point_axes(lattice.config)
    total = (1 + len(axes)) * sum(curve.l)
    for ep, axis in zip(curve.e, axes, strict=True):
        total -= curve.l[axis - 1] - ep
    return total


def oracle_generators(lattice) -> list[Vertex]:
    """The generators in the documented canonical order, as (kind, axis,
    point): the lines by axis, then the gammas by (free axis, point), then
    the exceptional lines by point."""
    points, axes = marked_points(lattice.config), range(1, lattice.config.r + 1)
    return ([("line", i, None) for i in axes]
            + [("gamma", i, p) for i in axes for p in points if p[0] != i]
            + [("exc", None, p) for p in points])


def oracle_gamma(lattice, k: int, i: int):
    """gt[p;i] for the point p at position k, from its definition as a
    coefficient array: lt_i, plus e_q for every q on axis i, minus e_p."""
    arr = [1 if j == i else 0 for j in range(1, lattice.config.r + 1)]
    arr += [(axis == i) - (j == k) for j, axis in enumerate(point_axes(lattice.config))]
    return lattice.curve_from_array(arr)


def oracle_generator_labels(lattice) -> list[str]:
    labels = []
    for kind, axis, point in oracle_generators(lattice):
        if kind == "line":
            labels.append(f"lt{axis}")
        elif kind == "gamma":
            labels.append(f"gt[{point_key(point)};{axis}]")
        else:
            labels.append(f"e[{point_key(point)}]")
    return labels


def naive_decompositions(genset, target, bound: int) -> set[frozenset]:
    """Unstructured bounded search for all generator multisets summing to the
    target: plain depth-first over the generator list with the additive
    degree bound, cutting a branch only when a coordinate that no later
    generator touches is left nonzero.  Returns each decomposition as a
    frozenset of (label, multiplicity) pairs, each label paired with the
    generator set's class at its position."""
    gens = list(zip(oracle_generator_labels(genset.lattice), genset.phis))
    vecs = [tuple(c.l) + tuple(c.e) for c in genset.classes]
    last_touch = {c: idx for idx, v in enumerate(vecs) for c, x in enumerate(v) if x}
    dies_at = [[] for _ in gens]
    for c, idx in last_touch.items():
        dies_at[idx].append(c)
    found: set[frozenset] = set()

    def dfs(idx, rem, budget, parts):
        if idx == len(gens):
            if not any(rem):
                found.add(frozenset(parts))
            return
        label, phi = gens[idx]
        for mult in range(budget // phi, -1, -1):
            new = tuple(x - mult * y for x, y in zip(rem, vecs[idx]))
            if any(new[c] for c in dies_at[idx]):
                continue
            dfs(
                idx + 1,
                new,
                budget - mult * phi,
                parts + [(label, mult)] if mult else parts,
            )

    start = tuple(target.l) + tuple(target.e)
    if not any(x for c, x in enumerate(start) if c not in last_touch):
        dfs(0, start, bound, [])
    return found


def full_extremal_scan(cone) -> list[str]:
    """The labels of the generators that split, from one is_extremal test
    per generator in canonical order, with no use of symmetry."""
    labels = oracle_generator_labels(cone.lattice)
    return [label for label, c in zip(labels, cone.genset.classes)
            if not cone.is_extremal(c)]


def abstract_automorphism_count(graph: IncidenceGraph, cap: int = 100_000) -> int:
    """Automorphism count of the unlabeled incidence graph (diagnostic).

    The abstract graph has far more automorphisms than the geometric group
    (the gamma blocks are complete bipartite), which is why the certification
    works with coordinate stabilizers instead.  Enumeration stops at `cap`.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(len(graph.adjacency)))
    g.add_edges_from(graph.edges)
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    count = 0
    for _ in matcher.isomorphisms_iter():
        count += 1
        if count >= cap:
            break
    return count
