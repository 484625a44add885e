"""The effective-curve semigroup: generators, decomposition, extremality.

Generators are the strict line transforms, the through-point line transforms,
and the exceptional lines.  The degree functional phi (pairing with
N * sum pi*(H_i) - sum E_p, N = 1 + |Delta|) is additive and >= 1 on every
generator, so decompositions of a fixed class form a finite set and the
bounded depth-first search below is exhaustive.

Canonical generator order: strict lines by axis, then through-point curves
grouped by free axis and then by point, then exceptional lines by point.
The search branches in this order, taking larger multiplicities first, so
`member` returns the first decomposition in that order; every emitted
decomposition is re-summed against its target before it is returned.

The search uses the shape of the generators.  The gammas with free axis i
form block i: each is lt_i + (the e_q of every q on axis i) - e_p for one p
off axis i.  Once the strict lines are chosen, block i's total multiplicity
Y_i is forced to what is left of l_i, and the block lowers the remaining e_q
of every q on axis i by exactly Y_i whatever gammas it uses.  Each block is
therefore enumerated as a composition of Y_i, and the exceptional lines are
forced at the end.  A point q on axis j must be covered Y_j - e_q times by
gammas through q, which prunes the blocks.  The recursion depth is at most
2r plus the number of nonzero parts, however many generators there are.
"""

from __future__ import annotations

import itertools
import json
import operator

from .errors import NotEffective
from .fieldgeom import DeltaPoint
from .lattice import BlowupLattice, CurveClass


class Generator:
    """One generator; compares and hashes by all four fields."""

    __slots__ = ("label", "kind", "cls", "phi")

    def __init__(self, label: str, kind: str, cls: CurveClass, phi: int):
        self.label = label
        self.kind = kind  # "line" | "gamma" | "exc"
        self.cls = cls
        self.phi = phi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.kind, self.cls, self.phi) == (
            other.label, other.kind, other.cls, other.phi)

    def __hash__(self):
        return hash((self.label, self.kind, self.cls, self.phi))


class GeneratorSet:
    """The generators in canonical order, with their classes by label."""

    def __init__(self, lattice: BlowupLattice):
        self.lattice = lattice
        cfg = lattice.config
        self.N = 1 + lattice.size
        self._axis_sizes = tuple(lattice.axis_of.count(i) for i in range(1, cfg.r + 1))
        gens: list[Generator] = []
        for i in range(1, cfg.r + 1):
            c = lattice.line(i)
            gens.append(Generator(f"lt{i}", "line", c, self.phi(c)))
        for i in range(1, cfg.r + 1):
            for p in lattice.points:
                if p.axis != i:
                    c = lattice.gamma(p, i)
                    gens.append(Generator(f"gt[{p.key};{i}]", "gamma", c, self.phi(c)))
        for p in lattice.points:
            c = lattice.exc_curve(p)
            gens.append(Generator(f"e[{p.key}]", "exc", c, self.phi(c)))
        self.generators = tuple(gens)
        # by label, the nonzero (coordinate, coefficient) pairs of each class
        # over (lt, e)
        self.support = {}
        for g in gens:
            arr = g.cls.l + g.cls.e
            self.support[g.label] = tuple(itertools.compress(enumerate(arr), arr))

    def orbits(self) -> list[list[int]]:
        """The generator indices, in canonical order, grouped into orbits
        under the swaps of two adjacent marked points on one axis that map
        the generator set onto itself.

        A swap exchanges the e-coordinates of the two points.  It fixes
        every generator whose coefficients there are equal, and each other
        generator must map onto a generator, looked up by its sparse support
        as `support` holds it now.  A swap that passes joins each moved
        generator to its image; a swap that fails is not used.  The orbits
        come ordered by their first member.
        """
        r = self.lattice.config.r
        supports = [self.support[g.label] for g in self.generators]
        index = {supp: g for g, supp in enumerate(supports)}
        # by point index, the coefficient there of every generator that has one
        at: list[dict[int, int]] = [{} for _ in range(self.lattice.size)]
        for g, supp in enumerate(supports):
            for k, x in supp:
                if k >= r:
                    at[k - r][g] = x
        parent = list(range(len(supports)))

        def root(g: int) -> int:
            while parent[g] != g:
                parent[g] = parent[parent[g]]
                g = parent[g]
            return g

        axis_of = self.lattice.axis_of
        for a in range(self.lattice.size - 1):
            if axis_of[a] != axis_of[a + 1]:
                continue
            swap = {r + a: r + a + 1, r + a + 1: r + a}
            moved = {g for g, _ in at[a].items() ^ at[a + 1].items()}
            images = []
            for g in moved:
                image = tuple(sorted((swap.get(k, k), x) for k, x in supports[g]))
                if image not in index:
                    break
                images.append((g, index[image]))
            else:
                for g, h in images:
                    parent[root(g)] = root(h)
        orbits: dict[int, list[int]] = {}
        for g in range(len(supports)):
            orbits.setdefault(root(g), []).append(g)
        return list(orbits.values())

    def phi(self, c: CurveClass) -> int:
        """Degree against N * sum pi*(H_i) - sum E_p with N = 1 + |Delta|.

        c . E_p = l_{axis(p)} - e_p, so the sum over p of c . E_p is
        sum_i l_i |Delta_i| - sum_p e_p, |Delta_i| being the number of
        points on axis i.
        """
        l = c.l
        return (self.N * sum(l) - sum(map(operator.mul, l, self._axis_sizes))
                + sum(c.e))

    @property
    def expected_count(self) -> int:
        cfg = self.lattice.config
        d = self.lattice.size
        return cfg.r + d + sum(d - cfg.n * si for si in cfg.s)

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def to_json(self) -> str:
        return json.dumps(
            [
                {"label": g.label, "kind": g.kind, "phi": g.phi,
                 "class": g.cls.to_array()}
                for g in self.generators
            ],
            sort_keys=True,
            separators=(",", ":"),
        )


class Decomposition:
    """A multiset of generator labels with positive multiplicities; compares
    and hashes by its parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[str, int], ...]):
        self.parts = parts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))

    @property
    def size(self) -> int:
        return sum(m for _, m in self.parts)

    def resum(self, genset: GeneratorSet) -> CurveClass:
        lat = genset.lattice
        total = [0] * (lat.config.r + lat.size)
        for label, mult in self.parts:
            for k, x in genset.support[label]:
                total[k] += mult * x
        return lat.curve_from_array(total)

    def __repr__(self):
        return " + ".join(
            label if m == 1 else f"{m}*{label}" for label, m in self.parts
        ) or "0"


class EffectiveCone:
    """Membership, decomposition, and extremality over the generator semigroup.

    Extremality is constant on the orbits of `GeneratorSet.orbits`.  A swap
    of two marked points acts on curve classes as a linear bijection; when it
    maps the generator set onto itself, it maps the generated semigroup onto
    itself, so a generator splits into two nonzero effective classes exactly
    when its image does.  The generator classes and phi see a marked point
    only through its axis, so on a correct generator set every swap passes,
    and the r(r + 1) orbits are the single lt_i, the e_p of each axis, and
    the gt[p;i] of each free axis i and point axis j != i.
    """

    def __init__(self, lattice: BlowupLattice):
        self.lattice = lattice
        self.genset = GeneratorSet(lattice)
        r = lattice.config.r
        gens = self.genset.generators
        self._lines = [g for g in gens if g.kind == "line"]
        # block i: one (label, point index) row per gamma with strict-line
        # part lt_{i+1}, in canonical order; gt[p;i] has e = -1 only at p
        self._gamma_blocks: list[list[tuple[str, int]]] = [[] for _ in range(r)]
        for g in gens:
            if g.kind == "gamma":
                self._gamma_blocks[g.cls.l.index(1)].append(
                    (g.label, g.cls.e.index(-1))
                )
        self._exc = [g for g in gens if g.kind == "exc"]
        # by point index, its gamma labels by free axis (None on its own axis)
        self._gamma_labels: list[list[str | None]] = [[None] * r for _ in lattice.points]
        for bi, block in enumerate(self._gamma_blocks):
            for label, k in block:
                self._gamma_labels[k][bi] = label

    def phi(self, c: CurveClass) -> int:
        return self.genset.phi(c)

    def _search(self, target: CurveClass, first_only: bool) -> list[Decomposition]:
        """Every decomposition of target, in canonical order.

        The strict lines branch by axis, larger multiplicity first, bounded
        by phi; x_i copies of lt_i leave gamma block i the forced total
        Y_i = l_i - x_i.  A point q on axis j then needs cover_q >= Y_j - e_q,
        cover_q being the multiplicity of the chosen gammas through q, and
        its exceptional line takes the rest, z_q = e_q - Y_j + cover_q.
        Block i is enumerated as a composition of Y_i in reverse-lex order,
        jumping straight to the next nonzero part.  Each gamma unit covers
        exactly one point, so a branch is cut when its positive shortfalls
        add up to more than the block totals still to place.
        """
        phi_t = self.phi(target)
        solutions: list[Decomposition] = []
        if phi_t < 0:
            return solutions
        r = self.lattice.config.r
        axis_of = self.lattice.axis_of

        def emit(parts: list[tuple[str, int]], rem_e: list[int]) -> bool:
            full = list(parts)
            for gen, needed in zip(self._exc, rem_e):
                if needed:
                    full.append((gen.label, needed))
            dec = Decomposition(tuple(full))
            check = dec.resum(self.genset)
            if (check.l, check.e) != (target.l, target.e):
                raise RuntimeError(f"unsound decomposition {dec!r} of {target!r}")
            solutions.append(dec)
            return first_only

        def blocks_step(totals: list[int], parts: list[tuple[str, int]]) -> bool:
            if not any(totals):
                # no gamma to place: each e_q is its exceptional line's part
                return min(target.e) >= 0 and emit(parts, target.e)
            # short[q] = Y_j - e_q - cover_q, later[i] = Y_{i+1} + ... + Y_r;
            # short and parts are updated in place and restored on backtrack
            short = [totals[axis - 1] - e for e, axis in zip(target.e, axis_of)]
            later = [sum(totals[i + 1:]) for i in range(r)]

            def gamma_step(bi, gi, rem, pos) -> bool:
                # pos: the sum of the positive shortfalls
                if pos > rem + later[bi]:
                    return False
                while rem == 0:
                    bi += 1
                    if bi == r:
                        return emit(parts, [-x for x in short])
                    gi, rem = 0, totals[bi]
                block = self._gamma_blocks[bi]
                for g in range(gi, len(block)):
                    label, k = block[g]
                    s = short[k]
                    for m in range(rem, 0, -1):
                        short[k] = s - m
                        parts.append((label, m))
                        found = gamma_step(bi, g + 1, rem - m,
                                           pos - min(m, s) if s > 0 else pos)
                        parts.pop()
                        if found:
                            return True
                    short[k] = s
                return False

            return gamma_step(0, 0, totals[0], sum(x for x in short if x > 0))

        def line_step(i, rem_l, rem_phi, parts) -> bool:
            if i == r:
                return blocks_step(rem_l, parts)
            gen = self._lines[i]
            maxm = min(rem_l[i], rem_phi // gen.phi)
            for m in range(maxm, -1, -1):
                new_l = rem_l.copy()
                new_l[i] -= m
                new_parts = parts + [(gen.label, m)] if m else parts
                if line_step(i + 1, new_l, rem_phi - m * gen.phi, new_parts):
                    return True
            return False

        line_step(0, list(target.l), phi_t, [])
        return solutions

    def member(self, c: CurveClass) -> Decomposition | None:
        """First decomposition in canonical order, or None."""
        found = self._search(c, first_only=True)
        return found[0] if found else None

    def all_decompositions(self, c: CurveClass) -> list[Decomposition]:
        return self._search(c, first_only=False)

    def two_part_decompositions(
        self, c: CurveClass
    ) -> list[tuple[Decomposition, Decomposition]]:
        """All unordered pairs of nonzero effective classes summing to c,
        each witnessed by one decomposition per side; deduplicated at the
        class level."""
        decs = self.all_decompositions(c)
        if not decs:
            raise NotEffective(f"{c!r} is not in the effective semigroup")
        found: dict[tuple, tuple[Decomposition, Decomposition]] = {}
        for dec in decs:
            labels = [label for label, _ in dec.parts]
            mults = [m for _, m in dec.parts]
            for choice in itertools.product(*(range(m + 1) for m in mults)):
                total = sum(choice)
                if total == 0 or total == dec.size:
                    continue
                left = tuple(
                    (lab, m) for lab, m in zip(labels, choice) if m
                )
                right = tuple(
                    (lab, m - c_) for lab, m, c_ in zip(labels, mults, choice) if m - c_
                )
                d1, d2 = Decomposition(left), Decomposition(right)
                c1, c2 = d1.resum(self.genset), d2.resum(self.genset)
                v1 = (c1.l, c1.e)
                v2 = (c2.l, c2.e)
                key = (min(v1, v2), max(v1, v2))
                if key not in found:
                    found[key] = (d1, d2) if v1 <= v2 else (d2, d1)
        return [found[k] for k in sorted(found)]

    def is_extremal(self, c: CurveClass) -> bool:
        """True when c admits no splitting into two nonzero effective classes."""
        return not self.two_part_decompositions(c)

    def case3_identity(self, q0: DeltaPoint, a: tuple[int, ...], eps_q: int) -> bool:
        """Exact vector identity for a class with zero multidegree at q0's axis
        and prescribed excess at q0: the expansion equals
        (-eps_q + sum_{i != j} a_i) * e_{q0} + sum_{i != j} a_i * gamma(q0, i).
        """
        lat = self.lattice
        cfg = lat.config
        j = q0.axis
        if len(a) != cfg.r:
            raise ValueError("multidegree length mismatch")
        if a[j - 1] != 0:
            raise ValueError(f"a_{j} must be 0 for a point on axis {j}")
        if any(x < 0 for x in a):
            raise ValueError("multidegree must be nonnegative")
        k0 = lat.point_index[q0]
        eps = [0] * lat.size
        eps[k0] = eps_q
        lhs = lat.expand_in_basis(tuple(a), tuple(eps))
        # the right-hand side adds the generators' own sparse classes; a_j = 0
        terms = [(self._exc[k0].label, sum(a) - eps_q)] + [
            (label, x) for label, x in zip(self._gamma_labels[k0], a) if x
        ]
        rhs = [0] * (cfg.r + lat.size)
        for label, mult in terms:
            for k, x in self.genset.support[label]:
                rhs[k] += mult * x
        return list(lhs.l + lhs.e) == rhs
