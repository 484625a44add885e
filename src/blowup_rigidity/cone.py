"""The effective-curve semigroup: generators, decomposition, extremality.

Generators are the strict line transforms, the through-point line transforms,
and the exceptional lines.  The degree functional phi (pairing with
N * sum pi*(H_i) - sum E_p, N = 1 + |Delta|) is additive and >= 1 on every
generator, so decompositions of a fixed class form a finite set and the
bounded depth-first search below is exhaustive.

Canonical generator order: strict lines by axis, then through-point curves
grouped by free axis and then by point, then exceptional lines by point.  A
marked point is its position in the lattice, and a generator its index in
canonical order: lt_i is i - 1, the gammas of free axis i (the lattice's
gamma block i) are `blocks[i - 1]` to `blocks[i] - 1`, and e_p is
`blocks[r]` plus p's position.  Labels (lt<i>, gt[p;i], e[p]) are built by
`generator_labels` only for `extremal` output and for FAIL and error text.
A decomposition is its tuple of (generator, multiplicity) pairs, and the
search branches in canonical order, taking larger multiplicities first, so
`member` returns the first decomposition in that order; every emitted
decomposition is re-summed against its target before it is returned, and
one that does not re-sum raises UnsoundDecomposition, which each check that
searches reports as its own FAIL record.

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

from .checks import FAIL, PASS, CheckRecord, make_record
from .errors import NotEffective, UnsoundDecomposition
from .fieldgeom import Lcg, config_seed, point_keys
from .lattice import BlowupLattice, CurveClass

# a decomposition: its (generator index, multiplicity) pairs
Parts = tuple[tuple[int, int], ...]


def generator_labels(lattice: BlowupLattice) -> list[str]:
    """Each generator's label, in canonical order: lt<i> for the axis-i
    line, gt[p;i] for the line through p with free axis i, e[p] for the
    exceptional line over p."""
    keys, axes = point_keys(lattice.config), range(1, lattice.config.r + 1)
    return ([f"lt{i}" for i in axes]
            + [f"gt[{key};{i}]" for i in axes
               for key, axis in zip(keys, lattice.axis_of) if axis != i]
            + [f"e[{key}]" for key in keys])


class GeneratorSet:
    """The generators in canonical order.  Generator g is position g of
    `classes`, `phis` and `supports`, the last holding the nonzero
    (coordinate, coefficient) pairs of its class over (lt, e).  `blocks`
    holds the r + 1 offsets of the module docstring: the gamma blocks start
    at blocks[0] = r, and the exceptional lines at blocks[r]."""

    def __init__(self, lattice: BlowupLattice):
        self.lattice = lattice
        cfg = lattice.config
        self.N = 1 + lattice.size
        self._axis_sizes = tuple(lattice.axis_of.count(i) for i in range(1, cfg.r + 1))
        classes = [lattice.line(i) for i in range(1, cfg.r + 1)]
        self.blocks = [cfg.r]
        for i in range(1, cfg.r + 1):
            classes += lattice.gammas(i)
            self.blocks.append(len(classes))
        classes += map(lattice.exc_curve, range(lattice.size))
        self.classes = tuple(classes)
        self.phis = tuple(map(self.phi, classes))
        self.supports = tuple(
            tuple(itertools.compress(enumerate(arr), arr))
            for arr in (c.l + c.e for c in classes)
        )

    def orbits(self) -> list[list[int]]:
        """The generator indices, in canonical order, grouped into orbits
        under the swaps of two adjacent marked points on one axis that map
        the generator set onto itself.

        A swap exchanges the e-coordinates of the two points.  It fixes
        every generator whose coefficients there are equal, and each other
        generator must map onto a generator, looked up by its sparse support
        as `supports` holds it now.  A swap that passes joins each moved
        generator to its image; a swap that fails is not used.  The orbits
        come ordered by their first member.
        """
        r = self.lattice.config.r
        supports = self.supports
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

    def resum(self, parts: Parts) -> CurveClass:
        """The class of a decomposition: the sum of m times generator g over
        its (g, m) parts, added from the sparse supports."""
        lat = self.lattice
        total = [0] * (lat.config.r + lat.size)
        for g, mult in parts:
            for k, x in self.supports[g]:
                total[k] += mult * x
        return lat.curve_from_array(total)

    @property
    def expected_count(self) -> int:
        cfg = self.lattice.config
        d = self.lattice.size
        return cfg.r + d + sum(d - cfg.n * si for si in cfg.s)

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def to_json(self) -> str:
        labels = generator_labels(self.lattice)
        first_gamma, first_exc = self.blocks[0], self.blocks[-1]
        return json.dumps(
            [
                {"label": labels[g],
                 "kind": "line" if g < first_gamma else "gamma" if g < first_exc else "exc",
                 "phi": self.phis[g], "class": c.to_array()}
                for g, c in enumerate(self.classes)
            ],
            sort_keys=True,
            separators=(",", ":"),
        )


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
        self.genset = genset = GeneratorSet(lattice)
        r = lattice.config.r
        # block i: one (generator index, point index) row per gamma with
        # strict-line part lt_{i+1}, in canonical order, both read off the
        # held class; gt[p;i] has e = -1 only at p
        self._gamma_blocks: list[list[tuple[int, int]]] = [[] for _ in range(r)]
        for g in range(genset.blocks[0], genset.blocks[-1]):
            cls = genset.classes[g]
            self._gamma_blocks[cls.l.index(1)].append((g, cls.e.index(-1)))
        # by point index, its gamma indices by free axis (None on its own axis)
        self._gamma_at: list[list[int | None]] = [[None] * r for _ in range(lattice.size)]
        for bi, block in enumerate(self._gamma_blocks):
            for g, k in block:
                self._gamma_at[k][bi] = g

    def _search(self, target: CurveClass, first_only: bool) -> list[Parts]:
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
        phi_t = self.genset.phi(target)
        solutions: list[Parts] = []
        if phi_t < 0:
            return solutions
        r = self.lattice.config.r
        axis_of = self.lattice.axis_of
        phis = self.genset.phis
        first_exc = self.genset.blocks[-1]

        def emit(parts: list[tuple[int, int]], rem_e: list[int]) -> bool:
            dec = tuple(parts + [(first_exc + k, needed)
                                 for k, needed in enumerate(rem_e) if needed])
            check = self.genset.resum(dec)
            if (check.l, check.e) != (target.l, target.e):
                labels = generator_labels(self.lattice)
                text = " + ".join(labels[g] if m == 1 else f"{m}*{labels[g]}"
                                  for g, m in dec) or "0"
                raise UnsoundDecomposition(f"{text} does not re-sum to {target!r}")
            solutions.append(dec)
            return first_only

        def blocks_step(totals: list[int], parts: list[tuple[int, int]]) -> bool:
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
                for row in range(gi, len(block)):
                    g, k = block[row]
                    s = short[k]
                    for m in range(rem, 0, -1):
                        short[k] = s - m
                        parts.append((g, m))
                        found = gamma_step(bi, row + 1, rem - m,
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
            maxm = min(rem_l[i], rem_phi // phis[i])
            for m in range(maxm, -1, -1):
                new_l = rem_l.copy()
                new_l[i] -= m
                new_parts = parts + [(i, m)] if m else parts
                if line_step(i + 1, new_l, rem_phi - m * phis[i], new_parts):
                    return True
            return False

        line_step(0, list(target.l), phi_t, [])
        return solutions

    def member(self, c: CurveClass) -> Parts | None:
        """First decomposition in canonical order, or None."""
        found = self._search(c, first_only=True)
        return found[0] if found else None

    def all_decompositions(self, c: CurveClass) -> list[Parts]:
        return self._search(c, first_only=False)

    def two_part_decompositions(
        self, c: CurveClass
    ) -> list[tuple[Parts, Parts]]:
        """All unordered pairs of nonzero effective classes summing to c,
        each witnessed by one decomposition per side; deduplicated at the
        class level."""
        decs = self.all_decompositions(c)
        if not decs:
            raise NotEffective(f"{c!r} is not in the effective semigroup")
        found: dict[tuple, tuple[Parts, Parts]] = {}
        for dec in decs:
            gens = [g for g, _ in dec]
            mults = [m for _, m in dec]
            size = sum(mults)
            for choice in itertools.product(*(range(m + 1) for m in mults)):
                total = sum(choice)
                if total == 0 or total == size:
                    continue
                d1 = tuple((g, m) for g, m in zip(gens, choice) if m)
                d2 = tuple(
                    (g, m - c_) for g, m, c_ in zip(gens, mults, choice) if m - c_
                )
                c1, c2 = self.genset.resum(d1), self.genset.resum(d2)
                v1 = (c1.l, c1.e)
                v2 = (c2.l, c2.e)
                key = (min(v1, v2), max(v1, v2))
                if key not in found:
                    found[key] = (d1, d2) if v1 <= v2 else (d2, d1)
        return [found[k] for k in sorted(found)]

    def is_extremal(self, c: CurveClass) -> bool:
        """True when c admits no splitting into two nonzero effective classes."""
        return not self.two_part_decompositions(c)

    def case3_identity(self, k0: int, a: tuple[int, ...], eps_q: int) -> bool:
        """Exact vector identity for a class with zero multidegree at the axis
        j of the point q0 at position k0 and prescribed excess at q0: the
        expansion equals
        (-eps_q + sum_{i != j} a_i) * e_{q0} + sum_{i != j} a_i * gt[q0;i].
        """
        lat = self.lattice
        cfg = lat.config
        j = lat.axis_of[k0]
        if len(a) != cfg.r:
            raise ValueError("multidegree length mismatch")
        if a[j - 1] != 0:
            raise ValueError(f"a_{j} must be 0 for a point on axis {j}")
        if any(x < 0 for x in a):
            raise ValueError("multidegree must be nonnegative")
        gamma_terms = [(g, x) for g, x in zip(self._gamma_at[k0], a) if x]
        # a generator set without some gt[q0;i] cannot give the identity
        if any(g is None for g, _ in gamma_terms):
            return False
        eps = [0] * lat.size
        eps[k0] = eps_q
        lhs = lat.expand_in_basis(tuple(a), tuple(eps))
        # the right-hand side adds the generators' own sparse classes; a_j = 0
        terms = [(self.genset.blocks[-1] + k0, sum(a) - eps_q)] + gamma_terms
        rhs = self.genset.resum(terms)
        return (lhs.l, lhs.e) == (rhs.l, rhs.e)


def generators_extremal(cone: EffectiveCone) -> CheckRecord:
    """The cone.generators_extremal record, from one is_extremal test per
    orbit of `GeneratorSet.orbits`.

    Extremality is constant on those orbits (see `EffectiveCone`), and each
    swap behind an orbit is checked on the generator set before it is used,
    so a broken symmetry splits orbits and never leaves a generator
    untested.  A representative that is not extremal puts its whole orbit
    on the list, which is then in canonical order, the same list as a test
    of every generator gives.
    """
    classes = cone.genset.classes
    non_extremal_at: list[int] = []
    try:
        for orbit in cone.genset.orbits():
            if not cone.is_extremal(classes[orbit[0]]):
                non_extremal_at += orbit
        labels = generator_labels(cone.lattice) if non_extremal_at else []
        computed = {"generators": len(classes),
                    "non_extremal": [labels[g] for g in sorted(non_extremal_at)]}
        ok = not non_extremal_at
    except UnsoundDecomposition as exc:
        computed, ok = f"UnsoundDecomposition: {exc}", False
    return make_record(
        "cone.generators_extremal",
        PASS if ok else FAIL,
        computed,
        {"generators": len(classes), "non_extremal": []},
    )


def cone_checks(cone: EffectiveCone, draws: int = 1000) -> list[CheckRecord]:
    lattice = cone.lattice
    cfg = lattice.config
    records = []

    distinct = len({(c.l, c.e) for c in cone.genset})
    records.append(
        make_record(
            "cone.generator_count",
            PASS if distinct == cone.genset.expected_count else FAIL,
            distinct,
            cone.genset.expected_count,
        )
    )

    phis = cone.genset.phis
    records.append(
        make_record(
            "cone.phi_positive",
            PASS if all(x >= 1 for x in phis) else FAIL,
            {"min_phi": min(phis), "max_phi": max(phis)},
            {"min_phi": ">= 1"},
        )
    )

    records.append(generators_extremal(cone))

    e0 = lattice.exc_curve(0)
    samples = {
        "lt1+e": lattice.line(1) + e0,
        "2e": e0.scale(2),
        "lt1+lt2": lattice.line(1) + lattice.line(2),
    }
    try:
        split_counts = {
            name: len(cone.two_part_decompositions(c)) for name, c in samples.items()
        }
        splits_ok = all(v >= 1 for v in split_counts.values())
    except UnsoundDecomposition as exc:
        split_counts, splits_ok = f"UnsoundDecomposition: {exc}", False
    records.append(
        make_record(
            "cone.sample_splits",
            PASS if splits_ok else FAIL,
            split_counts,
            "each >= 1 (so none of these classes is extremal)",
        )
    )

    rng = Lcg(config_seed(cfg, "case2"))
    case2_ok = True
    case2_draws = min(draws, 200)
    bounds = (3,) * cfg.r
    try:
        for _ in range(case2_draws):
            a = tuple(rng.take(bounds))
            eps = tuple(rng.take([a[axis - 1] + 1 for axis in lattice.axis_of]))
            if cone.member(lattice.expand_in_basis(a, eps)) is None:
                case2_ok = False
                break
        case2 = {"draws": case2_draws, "all_members_resum": case2_ok}
    except UnsoundDecomposition as exc:
        case2_ok, case2 = False, f"UnsoundDecomposition: {exc}"
    records.append(
        make_record(
            "cone.case2_membership",
            PASS if case2_ok else FAIL,
            case2,
            {"draws": case2_draws, "all_members_resum": True},
        )
    )

    rng = Lcg(config_seed(cfg, "case3"))
    case3_ok = True
    # a point, then a_i for each axis i but the point's own (a_j = 0), then
    # the excess at the point
    bounds = (lattice.size,) + (4,) * cfg.r
    for _ in range(draws):
        k, *rest, eps_q = rng.take(bounds)
        rest.insert(lattice.axis_of[k] - 1, 0)
        if not cone.case3_identity(k, tuple(rest), eps_q):
            case3_ok = False
            break
    records.append(
        make_record(
            "cone.case3_identity",
            PASS if case3_ok else FAIL,
            {"draws": draws, "all_exact": case3_ok},
            {"draws": draws, "all_exact": True},
        )
    )
    return records
