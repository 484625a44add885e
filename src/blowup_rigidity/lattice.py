"""Numerical-equivalence lattices of the blow-up and their pairing.

Divisor classes are integer vectors over (pullback hyperplanes pi*(H_1..H_r),
exceptional divisors E_p); curve classes over (strict line transforms
lt_1..lt_r, exceptional lines e_p).  The marked points are ordered by
(axis, orbit, torsion), a point is its position k in that order, and the
lattice reads only each position's axis (config.axis_of), never a
coordinate.  All coefficients are exact Python integers.

Pairing rules, extended bilinearly:

    lt_i . pi*(H_j) = delta_ij          lt_i . E_p = 1 iff p on axis i
    e_p  . pi*(H_j) = 0                 e_p  . E_q = -delta_pq

so a curve c = (l, e) pairs with E_p as l_{axis(p)} - e_p.  The pairing row
of c, its pairings with every E_p in point order, is one pass over the
points (`BlowupLattice.exc_pairings`).  A divisor class records the indices
of its nonzero E-coefficients when it is built, and `intersect` walks only
those, so pairing with a basis divisor or a pullback costs O(r).
The gt[p;i] of the points p off axis i form axis i's gamma block.  Basis
classes and blocks are built once per lattice and shared with the cone;
labels (from fieldgeom.point_keys) are built only for output and FAIL
text.
"""

from __future__ import annotations

import itertools

from .checks import FAIL, PASS, CheckRecord, make_record
from .errors import AxisOutOfRange, ConfigMismatch
from .fieldgeom import Config, Lcg, config_seed, point_keys


class DivisorClass:
    """h: coefficients over pi*(H_i); m: coefficients over E_p;
    support: the indices k with m[k] != 0, derived from m."""

    __slots__ = ("h", "m", "lattice", "support")

    def __init__(self, h: tuple[int, ...], m: tuple[int, ...], lattice: "BlowupLattice"):
        self.h = h
        self.m = m
        self.lattice = lattice
        self.support = tuple(itertools.compress(range(len(m)), m))

    def __repr__(self):
        return f"D(h={list(self.h)}, m={list(self.m)})"


class CurveClass:
    """l: coefficients over strict lines; e: coefficients over exceptional
    lines."""

    __slots__ = ("l", "e", "lattice")

    def __init__(self, l: tuple[int, ...], e: tuple[int, ...], lattice: "BlowupLattice"):
        self.l = l
        self.e = e
        self.lattice = lattice

    def __add__(self, other: "CurveClass") -> "CurveClass":
        self.lattice.check_same(other.lattice)
        return CurveClass(
            tuple(a + b for a, b in zip(self.l, other.l)),
            tuple(a + b for a, b in zip(self.e, other.e)),
            self.lattice,
        )

    def scale(self, k: int) -> "CurveClass":
        return CurveClass(
            tuple(k * a for a in self.l), tuple(k * a for a in self.e), self.lattice
        )

    def to_array(self) -> list[int]:
        return list(self.l) + list(self.e)

    def __repr__(self):
        return f"C(l={list(self.l)}, e={list(self.e)})"


class BlowupLattice:
    """Both lattices of one configuration, with the intersection pairing."""

    def __init__(self, config: Config):
        self.config = config
        # config.delta raises for a base table with no marked set
        self.size = len(config.delta)
        self.axis_of = config.axis_of
        self._axis_index = tuple(axis - 1 for axis in self.axis_of)
        # the basis classes, strict transforms and gamma blocks, each built
        # on first use
        self._basis: dict[tuple[str, int], DivisorClass | CurveClass | tuple] = {}

    def check_same(self, other: "BlowupLattice") -> None:
        if other is self:
            return
        if other.config != self.config:
            raise ConfigMismatch("classes over different configurations")

    def _check_axis(self, i: int) -> None:
        if not 1 <= i <= self.config.r:
            raise AxisOutOfRange(f"axis {i} outside 1..{self.config.r}")

    def _unit(self, length: int, idx: int) -> tuple[int, ...]:
        # a position outside the basis would give a zero class, and cache it
        if not 0 <= idx < length:
            raise IndexError(f"position {idx} outside 0..{length - 1}")
        return tuple(1 if j == idx else 0 for j in range(length))

    # divisor side -----------------------------------------------------

    def pullback_h(self, i: int) -> DivisorClass:
        """pi*(H_i)."""
        key = ("piH", i)
        if key not in self._basis:
            self._check_axis(i)
            self._basis[key] = DivisorClass(
                self._unit(self.config.r, i - 1), (0,) * self.size, self
            )
        return self._basis[key]

    def exc_divisor(self, k: int) -> DivisorClass:
        """E_p for the point p at position k."""
        key = ("E", k)
        if key not in self._basis:
            self._basis[key] = DivisorClass(
                (0,) * self.config.r, self._unit(self.size, k), self
            )
        return self._basis[key]

    def strict_h(self, i: int) -> DivisorClass:
        """Strict transform of the axis-i hyperplane:
        pi*(H_i) - sum of E_p over every p marked off axis i."""
        key = ("H", i)
        if key not in self._basis:
            self._check_axis(i)
            m = tuple(-1 if axis != i else 0 for axis in self.axis_of)
            self._basis[key] = DivisorClass(self._unit(self.config.r, i - 1), m, self)
        return self._basis[key]

    def ambient_canonical_pullback(self) -> DivisorClass:
        """pi*(-2 H_1 - ... - 2 H_r)."""
        return DivisorClass((-2,) * self.config.r, (0,) * self.size, self)

    # curve side -------------------------------------------------------

    def line(self, i: int) -> CurveClass:
        """Strict transform of the axis-i coordinate line."""
        key = ("lt", i)
        if key not in self._basis:
            self._check_axis(i)
            self._basis[key] = CurveClass(
                self._unit(self.config.r, i - 1), (0,) * self.size, self
            )
        return self._basis[key]

    def exc_curve(self, k: int) -> CurveClass:
        """A line e_p inside the exceptional divisor over the point p at
        position k."""
        key = ("e", k)
        if key not in self._basis:
            self._basis[key] = CurveClass(
                (0,) * self.config.r, self._unit(self.size, k), self
            )
        return self._basis[key]

    def gammas(self, i: int) -> tuple[CurveClass, ...]:
        """Axis i's gamma block: the strict transform gt[p;i] of the line
        through p in direction i, lt_i + (the e_q of every q on axis i) - e_p,
        for each p off axis i in point order, from one membership row."""
        key = ("gt", i)
        if key not in self._basis:
            l = self.line(i).l
            e = [1 if axis == i else 0 for axis in self.axis_of]
            block = []
            for k, axis in enumerate(self.axis_of):
                if axis != i:
                    e[k] = -1
                    block.append(CurveClass(l, tuple(e), self))
                    e[k] = 0
            self._basis[key] = tuple(block)
        return self._basis[key]

    # pairing ----------------------------------------------------------

    def _exc_pairings_at(self, c: CurveClass, indices) -> list[int]:
        """c . E_p = l_{axis(p)} - e_p for the points with the given indices."""
        l, e, axis_index = c.l, c.e, self._axis_index
        return [l[axis_index[k]] - e[k] for k in indices]

    def exc_pairings(self, c: CurveClass) -> tuple[int, ...]:
        """The pairing row of c: c . E_p for every marked p, in point order."""
        if c.lattice is not self:
            self.check_same(c.lattice)
        return tuple(self._exc_pairings_at(c, range(self.size)))

    def intersect(self, c: CurveClass, d: DivisorClass) -> int:
        if c.lattice is not self:
            self.check_same(c.lattice)
        if d.lattice is not self:
            self.check_same(d.lattice)
        total = sum(li * hi for li, hi in zip(c.l, d.h))
        if d.support:
            m = d.m
            row = self._exc_pairings_at(c, d.support)
            total += sum(m[k] * x for k, x in zip(d.support, row))
        return total

    def pushforward(self, c: CurveClass) -> tuple[int, ...]:
        """Multidegree: pairings with every pullback hyperplane."""
        return tuple(self.intersect(c, self.pullback_h(i)) for i in range(1, self.config.r + 1))

    def expand_in_basis(
        self, a: tuple[int, ...], eps: tuple[int, ...]
    ) -> CurveClass:
        """The class sum_i a_i lt_i + sum_p (a_{axis(p)} - eps_p) e_p.

        Its pairing with E_p should be eps_p and its multidegree a; the
        check lattice.multidegree_expansion compares both.
        """
        if len(a) != self.config.r or len(eps) != self.size:
            raise ValueError("vector lengths do not match the bases")
        e = tuple([a[k] - ep for ep, k in zip(eps, self._axis_index)])
        return CurveClass(tuple(a), e, self)

    def canonical_pullback_check(self, i: int) -> int:
        """Pairing of the strict line on axis i with the pulled-back ambient
        canonical class; contract: -2."""
        return self.intersect(self.line(i), self.ambient_canonical_pullback())

    # serialization ------------------------------------------------------

    def curve_labels(self) -> list[str]:
        return [f"lt{i}" for i in range(1, self.config.r + 1)] + [
            f"e[{key}]" for key in point_keys(self.config)
        ]

    def divisor_labels(self) -> list[str]:
        return [f"piH{i}" for i in range(1, self.config.r + 1)] + [
            f"E[{key}]" for key in point_keys(self.config)
        ]

    def curve_from_array(self, arr: list[int]) -> CurveClass:
        r = self.config.r
        if len(arr) != r + self.size:
            raise ValueError(f"expected length {r + self.size}, got {len(arr)}")
        return CurveClass(tuple(arr[:r]), tuple(arr[r:]), self)

    def curve_basis(self) -> list[CurveClass]:
        return [self.line(i) for i in range(1, self.config.r + 1)] + [
            self.exc_curve(k) for k in range(self.size)
        ]

    def write_pairing_table(self, fileobj) -> None:
        """CSV: rows are curve basis elements, columns divisor basis elements."""
        import csv  # only this table is CSV; `verify` never imports it

        writer = csv.writer(fileobj)
        writer.writerow(["curve/divisor"] + self.divisor_labels())
        for label, c in zip(self.curve_labels(), self.curve_basis()):
            writer.writerow([label, *self.pushforward(c), *self.exc_pairings(c)])


def lattice_checks(lattice: BlowupLattice, draws: int = 1000) -> list[CheckRecord]:
    cfg = lattice.config
    r = cfg.r
    axis_of = lattice.axis_of
    records = []

    # each basis curve's pushforward and pairing row; each E_p also goes
    # through intersect, against its own exceptional line and every strict
    # line, so a wrong exc_divisor class fails here as well.  A mismatch is
    # a (curve, divisor) pair of basis positions, labelled only for FAIL text
    bad = []

    def row_mismatches(row, c, want):
        got = lattice.pushforward(c) + lattice.exc_pairings(c)
        bad.extend((row, col) for col, (x, y) in enumerate(zip(got, want)) if x != y)

    # the expected rows with one nonzero E-pairing are slices of one zero row
    zeros = (0,) * lattice.size
    for i in range(1, r + 1):
        want = [1 if j == i else 0 for j in range(1, r + 1)]
        want += [1 if axis == i else 0 for axis in axis_of]
        row_mismatches(i - 1, lattice.line(i), want)
    for k in range(lattice.size):
        want = (0,) * r + zeros[:k] + (-1,) + zeros[k + 1:]
        row_mismatches(r + k, lattice.exc_curve(k), want)
    for k, axis in enumerate(axis_of):
        ed = lattice.exc_divisor(k)
        if lattice.intersect(lattice.exc_curve(k), ed) != -1:
            bad.append((r + k, r + k))
        for i in range(1, r + 1):
            if lattice.intersect(lattice.line(i), ed) != (1 if axis == i else 0):
                bad.append((i - 1, r + k))
    if bad:
        curves, divisors = lattice.curve_labels(), lattice.divisor_labels()
        bad = [f"{curves[row]}.{divisors[col]}" for row, col in bad]
    records.append(
        make_record(
            "lattice.pairing_blocks",
            FAIL if bad else PASS,
            bad or "all basis pairings as stated",
            "identity / minus-identity diagonal blocks, membership rectangle",
        )
    )

    self_vals = {
        f"axis_{i}": lattice.intersect(lattice.line(i), lattice.strict_h(i))
        for i in range(1, r + 1)
    }
    records.append(
        make_record(
            "lattice.strict_h_self",
            PASS if all(v == 1 for v in self_vals.values()) else FAIL,
            self_vals,
            {f"axis_{i}": 1 for i in range(1, r + 1)},
        )
    )

    cross_vals = {}
    cross_want = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i != j:
                key = f"H{i}.l{j}"
                cross_vals[key] = lattice.intersect(lattice.line(j), lattice.strict_h(i))
                cross_want[key] = -cfg.n * cfg.s[j - 1]
    records.append(
        make_record(
            "lattice.strict_h_cross",
            PASS if cross_vals == cross_want else FAIL,
            cross_vals,
            cross_want,
        )
    )

    exc_ok = all(
        lattice.intersect(lattice.exc_curve(k), lattice.strict_h(i))
        == (0 if axis == i else 1)
        for k, axis in enumerate(axis_of)
        for i in range(1, r + 1)
    )
    records.append(
        make_record(
            "lattice.strict_h_exc",
            PASS if exc_ok else FAIL,
            "membership pattern holds at every (p, i)" if exc_ok else "mismatch",
            "1 off the axis, 0 on the axis",
        )
    )

    gamma_ok = True
    pairs = 0
    for i in range(1, r + 1):
        unit = tuple(1 if j == i else 0 for j in range(1, r + 1))
        off_axis = [k for k, axis in enumerate(axis_of) if axis != i]
        block = lattice.gammas(i)
        pairs += len(off_axis)
        gamma_ok &= len(block) == len(off_axis)
        for k, g in zip(off_axis, block):
            want = zeros[:k] + (1,) + zeros[k + 1:]
            if lattice.exc_pairings(g) != want or lattice.pushforward(g) != unit:
                gamma_ok = False
    records.append(
        make_record(
            "lattice.gamma_pairings",
            PASS if gamma_ok else FAIL,
            {"admissible_pairs": pairs, "all_identities_hold": gamma_ok},
            {"admissible_pairs": pairs, "all_identities_hold": True},
        )
    )

    rng = Lcg(config_seed(cfg, "expansion"))
    expansion_ok = True
    bounds = (15,) * (r + lattice.size)
    for _ in range(draws):
        vec = tuple([x - 5 for x in rng.take(bounds)])
        a, eps = vec[:r], vec[r:]
        c = lattice.expand_in_basis(a, eps)
        if lattice.pushforward(c) != a or lattice.exc_pairings(c) != eps:
            expansion_ok = False
            break
    records.append(
        make_record(
            "lattice.multidegree_expansion",
            PASS if expansion_ok else FAIL,
            {"draws": draws, "all_exact": expansion_ok},
            {"draws": draws, "all_exact": True},
        )
    )

    canon = {f"axis_{i}": lattice.canonical_pullback_check(i) for i in range(1, r + 1)}
    records.append(
        make_record(
            "lattice.canonical_degree",
            PASS if all(v == -2 for v in canon.values()) else FAIL,
            canon,
            {f"axis_{i}": -2 for i in range(1, r + 1)},
        )
    )
    return records
