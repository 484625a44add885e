"""Check records and the registry of verifiable claims.

Every check a verification run can emit is registered here with a
self-contained statement of the claim it tests.  Creating a record under an
unregistered id raises immediately, so the emitted reports can only ever
contain known checks.
"""

from __future__ import annotations

from .errors import UnknownCheckId

PASS = "PASS"
FAIL = "FAIL"
WARN = "WARN"

CLAIMS: dict[str, str] = {
    "config.structure": (
        "n >= 2, r >= 2, the s_i are positive and pairwise distinct with "
        "n*s_i >= 3 when r = 2, q is prime with q = 1 (mod n), zeta has exact "
        "order n, and the base table has s_i nonzero entries per axis"
    ),
    "config.delta": (
        "the marked set has exactly n*sum(s) points, n*s_i per axis, each "
        "orbit closed under coordinate scaling by zeta, orbits pairwise "
        "disjoint, and no point at [0:1] or [1:0]"
    ),
    "config.action": (
        "the torsion tuples act on the marked set: identity acts trivially, "
        "shifts compose additively, and every one-axis cyclic orbit has size n"
    ),
    "config.genericity": (
        "for each axis, the maps fixing [0:1] and permuting the axis's marked "
        "coordinates are exactly the n scalings v -> zeta^k v"
    ),
    "lattice.pairing_blocks": (
        "basis pairings: strict line i vs pullback hyperplane j = delta_ij, "
        "exceptional line p vs exceptional divisor q = -delta_pq, exceptional "
        "line vs pullback = 0, strict line i vs exceptional divisor at p = "
        "1 exactly when p is marked on axis i"
    ),
    "lattice.strict_h_self": (
        "the strict hyperplane transform on axis i pairs to 1 with the strict "
        "line on axis i"
    ),
    "lattice.strict_h_cross": (
        "the strict hyperplane transform on axis i pairs to -n*s_j with the "
        "strict line on axis j, for every j != i"
    ),
    "lattice.strict_h_exc": (
        "an exceptional line at p pairs with the strict hyperplane transform "
        "on axis i to 1 when p is off axis i and to 0 when p is on axis i"
    ),
    "lattice.gamma_pairings": (
        "for every marked p and axis i off p's axis, the through-p line class "
        "in direction i pairs to 1 with the exceptional divisor at p, to 0 "
        "with every other exceptional divisor, and pushes forward to the unit "
        "multidegree at i"
    ),
    "lattice.multidegree_expansion": (
        "for random integer multidegrees a and excesses eps, the class "
        "sum_i a_i * (strict line i) + sum_p (a_{axis(p)} - eps_p) * e_p has "
        "exceptional multiplicity eps_p at every p and multidegree a"
    ),
    "lattice.canonical_degree": (
        "the pullback of the ambient canonical class (-2 on every hyperplane "
        "factor) pairs to -2 with every strict line"
    ),
    "cone.generator_count": (
        "the effective-curve generator list has r + |Delta| + sum_i "
        "(|Delta| - n*s_i) pairwise distinct entries"
    ),
    "cone.phi_positive": (
        "the additive degree functional (1 + |Delta|) * sum_i (pullback "
        "hyperplane i) - sum_p E_p is strictly positive on every generator"
    ),
    "cone.generators_extremal": (
        "no generator class splits as a sum of two nonzero effective classes "
        "of the generated semigroup"
    ),
    "cone.sample_splits": (
        "the classes (strict line 1) + e_p, 2*e_p, and (strict line 1) + "
        "(strict line 2) each split into two nonzero effective classes"
    ),
    "cone.case2_membership": (
        "random classes with nonnegative multidegree a and exceptional "
        "excesses eps_p <= a_{axis(p)} decompose as nonnegative generator "
        "combinations that re-sum exactly to the class"
    ),
    "cone.case3_identity": (
        "for marked q0 on axis j, multidegree a with a_j = 0 and excess "
        "eps at q0: the expanded class equals (-eps + sum_{i != j} a_i) * "
        "e_{q0} + sum_{i != j} a_i * (through-q0 line in direction i) exactly"
    ),
    "rigidity.components": (
        "the special configuration has |Delta| divisor components plus r + "
        "sum_i (|Delta| - n*s_i) curve components"
    ),
    "rigidity.census_divisors": (
        "every exceptional divisor touches 0 divisor components and exactly "
        "r curve components"
    ),
    "rigidity.census_gammas": (
        "every through-point curve in direction i touches exactly 1 divisor "
        "component and n*s_i curve components"
    ),
    "rigidity.census_lines": (
        "every strict line on axis i touches n*s_i divisor components and "
        "r - 1 curve components (nominal divisor-only count: n*s_i)"
    ),
    "rigidity.handshake": (
        "the divisor-neighbor counts summed over curve components equal the "
        "curve-neighbor counts summed over divisor components"
    ),
    "rigidity.pinning": (
        "the computed incidence profiles single out the exceptional divisors "
        "and identify each strict line individually (distinct divisor-degrees "
        "n*s_i, all >= 2)"
    ),
    "rigidity.automorphisms": (
        "the geometric automorphism group assembled from the per-axis "
        "stabilizers has order exactly n^r, exponent n, and induces on the "
        "marked set exactly the permutations of the torsion action"
    ),
    "vectorfields.directions": (
        "every axis block is constrained by at least 3 pairwise "
        "non-proportional eigenvector directions"
    ),
    "vectorfields.kernel": (
        "the eigenvector-constraint system on r blocks of 2x2 matrices has "
        "kernel of dimension exactly r, spanned by the scalar blocks"
    ),
    "vectorfields.kernel_extra": (
        "the same kernel statement holds over a second field size with the "
        "same (n, r, s)"
    ),
}


class CheckRecord:
    """One verified claim: id, status, computed vs expected, free-form detail,
    and the time run_all measured for it (elapsed_ms, set after the stage
    ran; None until then)."""

    __slots__ = ("check_id", "status", "computed", "expected", "claim", "detail",
                 "elapsed_ms")

    def __init__(
        self,
        check_id: str,
        status: str,
        computed: object,
        expected: object,
        claim: str = "",
        detail: str = "",
    ):
        self.check_id = check_id
        self.status = status
        self.computed = computed
        self.expected = expected
        self.claim = claim
        self.detail = detail
        self.elapsed_ms: float | None = None

    def __repr__(self):
        return (f"CheckRecord(check_id={self.check_id!r}, status={self.status!r}, "
                f"computed={self.computed!r}, expected={self.expected!r}, "
                f"claim={self.claim!r}, detail={self.detail!r}, "
                f"elapsed_ms={self.elapsed_ms!r})")

    def to_dict(self, timings: bool = False) -> dict:
        d = {
            "check_id": self.check_id,
            "status": self.status,
            "claim": self.claim,
            "computed": self.computed,
            "expected": self.expected,
            "detail": self.detail,
        }
        if timings and self.elapsed_ms is not None:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d


def make_record(
    check_id: str,
    status: str,
    computed: object,
    expected: object,
    detail: str = "",
) -> CheckRecord:
    if check_id not in CLAIMS:
        raise UnknownCheckId(check_id)
    if status not in (PASS, FAIL, WARN):
        raise ValueError(f"bad status {status!r}")
    return CheckRecord(
        check_id=check_id,
        status=status,
        computed=computed,
        expected=expected,
        claim=CLAIMS[check_id],
        detail=detail,
    )
