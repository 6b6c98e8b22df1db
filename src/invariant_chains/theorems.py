"""Named verification suites: each reproduces a closed-form calculation or a
structural law at desk scale and reports claim-by-claim results.

Suites are deterministic; expected values are hard-coded next to the claim
they verify.  Degrees beyond a suite's budget are never extrapolated:
anything not computed is simply absent from the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import chains
from .chains import (_is_prime, bar_boundary, bar_complex, coinvariant_complex, encode_tuple,
                     find_equivariant_coset_reps, fixed_inclusion_chain_map,
                     invariant_complex, invariant_inclusion_chain_map, invariant_ses,
                     quotient_complex_D, subgroup_invariant_inclusion, transfer_chain_map,
                     tuple_orbits, orbit_members)
from .errors import InternalCheckError, SpecParseError
from .groups import (FiniteGroup, GroupAction, Subgroup, fixed_subgroup,
                     generated_subgroup, negation_action)
from .homology import exactness_check, fixed_homology, homology, induced_map, invariant_les
from .linalg import (AbelianHom, FgAbelianGroup, SparseIntMatrix, image_of_hom,
                     kernel_of_hom, present_fg_abelian)


@dataclass
class Claim:
    name: str
    expected: str
    computed: str
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def expect(self, name: str, expected, computed) -> bool:
        ok = expected == computed
        self.claims.append(Claim(name, str(expected), str(computed), ok))
        return ok

    def check(self, name: str, condition: bool, detail: str = "") -> bool:
        self.claims.append(Claim(name, "true", detail or str(bool(condition)),
                                 bool(condition)))
        return bool(condition)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "duration_s": round(self.duration, 3),
            "notes": list(self.notes),
            "claims": [{"name": c.name, "expected": c.expected,
                        "computed": c.computed, "passed": c.passed}
                       for c in self.claims],
        }


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.duration = time.perf_counter() - t0
        return report
    return wrapper


def _is_iso(h: AbelianHom) -> bool:
    if kernel_of_hom(h).order() != 1:
        return False
    return image_of_hom(h).order() == h.target.order()


def _group(free: int, orders: list[int]) -> FgAbelianGroup:
    return FgAbelianGroup.from_orders(free, orders)


# ---------------------------------------------------------------------------
# expected values for the negation action on Z/n


def expected_invariant_homology_odd(n: int, degree: int) -> FgAbelianGroup:
    if degree == 0:
        return FgAbelianGroup(1, ())
    return _group(0, [n] if degree % 4 == 3 else [])


def expected_invariant_homology_2k(k: int, degree: int) -> FgAbelianGroup:
    if degree == 0:
        return FgAbelianGroup(1, ())
    if degree % 4 == 1:
        return _group(0, [2])
    if degree % 4 == 3:
        return _group(0, [2 * k])
    return FgAbelianGroup.trivial()


def expected_invariant_homology_2s(s: int, degree: int) -> FgAbelianGroup:
    if degree == 0:
        return FgAbelianGroup(1, ())
    if degree % 2 == 0:
        return _group(0, [2] * (degree // 2))
    if degree % 4 == 1:
        k = (degree + 3) // 4
        return _group(0, [2] * (2 * k))
    k = (degree + 1) // 4
    return _group(0, [2 ** s] + [2] * (2 * k))


def expected_orbit_space_mod2(degree: int) -> FgAbelianGroup:
    if degree == 0:
        return _group(0, [2])
    if degree == 1:
        return _group(0, [2])
    return _group(0, [2] * (degree - 1))


def expected_orbit_space_integral(s: int, degree: int) -> FgAbelianGroup:
    if degree == 0:
        return FgAbelianGroup(1, ())
    if degree % 2 == 0:
        return _group(0, [2] * (degree // 2 - 1))
    if degree % 4 == 1:
        k = (degree + 3) // 4
        return _group(0, [2] * (2 * k - 1))
    k = (degree + 1) // 4
    return _group(0, [2 ** s] + [2] * (2 * k - 1))


# ---------------------------------------------------------------------------
# i_* and its target


def _istar_claims(report: VerificationReport, action: GroupAction, max_degree: int,
                  expect_iso_onto_fixed: bool) -> None:
    n_build = max_degree + 1
    inv_prof = homology(invariant_complex(action, n_build))
    bar_prof = homology(bar_complex(action.g, n_build))
    incl = invariant_inclusion_chain_map(action, n_build)
    for deg in range(1, max_degree + 1):
        i_star = induced_map(incl, inv_prof, bar_prof, deg)
        fixed_sub = fixed_homology(action, bar_prof, deg)
        image = image_of_hom(i_star)
        contained = all(fixed_sub.contains(col) for col in image.inclusion.images())
        report.check(f"image(i_*) inside fixed classes, degree {deg}", contained)
        ker = kernel_of_hom(i_star)
        q_order = action.q.order
        exp = ker.group.exponent()
        report.check(f"ker(i_*) killed by |Q|, degree {deg}",
                     exp is not None and q_order % exp == 0,
                     f"exponent {exp}")
        if expect_iso_onto_fixed:
            report.check(f"i_* iso onto fixed classes, degree {deg}",
                         ker.order() == 1 and image.same_subgroup(fixed_sub),
                         f"ker order {ker.order()}, image {image.group}, "
                         f"fixed {fixed_sub.group}")


# ---------------------------------------------------------------------------
# suites


@_timed
def suite_n_odd(n: int, max_degree: int = 5) -> VerificationReport:
    """Invariant homology of negation on an odd cyclic group."""
    if n % 2 == 0:
        raise SpecParseError("suite_n_odd needs odd n")
    report = VerificationReport(f"n_odd(n={n}, max_degree={max_degree})")
    action = negation_action(n)
    prof = homology(invariant_complex(action, max_degree + 1))
    report.expect("degree 0 equals Z", FgAbelianGroup(1, ()), prof.group(0))
    for deg in range(1, max_degree + 1):
        report.expect(f"degree {deg}", expected_invariant_homology_odd(n, deg),
                      prof.group(deg))
    _istar_claims(report, action, max_degree, expect_iso_onto_fixed=True)
    return report


@_timed
def suite_n_2k(k: int, max_degree: int = 4) -> VerificationReport:
    """Invariant homology of negation on Z/2k, k odd, plus the j_* reduction."""
    if k % 2 == 0:
        raise SpecParseError("suite_n_2k needs odd k")
    report = VerificationReport(f"n_2k(k={k}, max_degree={max_degree})")
    n = 2 * k
    action = negation_action(n)
    n_build = max_degree + 1
    prof = homology(invariant_complex(action, n_build))
    for deg in range(1, max_degree + 1):
        report.expect(f"degree {deg}", expected_invariant_homology_2k(k, deg),
                      prof.group(deg))

    # j_* from the subgroup of invariant elements is an isomorphism mod 2
    sub = generated_subgroup(action.g, [k])
    report.expect("invariant subgroup order", 2, sub.order)
    j = subgroup_invariant_inclusion(action, sub, n_build)
    prof_k2 = homology(j.source, 2)
    prof_g2 = homology(j.target, 2)
    for deg in range(1, max_degree + 1):
        j2 = induced_map(j, prof_k2, prof_g2, deg)
        report.check(f"j_* iso on mod-2 homology, degree {deg}", _is_iso(j2),
                     f"{j2.source} -> {j2.target}")
    _istar_claims(report, action, max_degree, expect_iso_onto_fixed=True)
    return report


@_timed
def suite_n_0_mod_4(s: int, max_degree: int = 5) -> VerificationReport:
    """Invariant homology of negation on Z/2^s (s >= 2) and its orbit space."""
    if s < 2:
        raise SpecParseError("suite_n_0_mod_4 needs s >= 2")
    report = VerificationReport(f"n_0_mod_4(s={s}, max_degree={max_degree})")
    action = negation_action(2 ** s)
    n_build = max_degree + 1
    prof = homology(invariant_complex(action, n_build))
    for deg in range(1, max_degree + 1):
        report.expect(f"invariant homology, degree {deg}",
                      expected_invariant_homology_2s(s, deg), prof.group(deg))

    coinv = coinvariant_complex(action, n_build)
    prof_c2 = homology(coinv, 2)
    prof_cz = homology(coinv)
    for deg in range(1, max_degree + 1):
        report.expect(f"orbit space mod 2, degree {deg}",
                      expected_orbit_space_mod2(deg), prof_c2.group(deg))
        report.expect(f"orbit space integral, degree {deg}",
                      expected_orbit_space_integral(s, deg), prof_cz.group(deg))

    # the projection onto the norm cokernel is split surjective in each degree
    ses = invariant_ses(action, n_build)
    d_prof = homology(ses.quotient)
    for deg in range(1, max_degree + 1):
        p_star = induced_map(ses.project, prof, d_prof, deg)
        surj = image_of_hom(p_star).order() == d_prof.group(deg).order()
        report.check(f"projection onto coker(N) homology surjective, degree {deg}", surj)
        hq = prof.group(deg)
        quot = d_prof.group(deg)
        orb = prof_cz.group(deg)
        split = FgAbelianGroup.from_orders(
            orb.free_rank + quot.free_rank, list(orb.torsion) + list(quot.torsion))
        report.expect(f"split extension structure, degree {deg}", split, hq)
    return report


@_timed
def suite_structure(action: GroupAction, max_degree: int = 4,
                    invertible_coeff: int | None = None) -> VerificationReport:
    """Structural laws of the invariant complex for one action.

    The Z/a claims hold only where |Q| is invertible in Z/a, and generator
    data exists only for a prime a, so any other invertible_coeff is
    rejected before anything is built.
    """
    a = invertible_coeff
    if a is not None and (not _is_prime(a) or action.q.order % a == 0):
        raise SpecParseError(f"invertible_coeff must be a prime not dividing "
                             f"|Q| = {action.q.order}, got {a}")
    report = VerificationReport(
        f"structure({action.q.name} on {action.g.name}, max_degree={max_degree})")
    n_build = max_degree + 1
    g = action.g
    inv = invariant_complex(action, n_build)
    prof = homology(inv)
    report.expect("degree-0 homology is the coefficients", FgAbelianGroup(1, ()),
                  prof.group(0))

    for deg in range(1, max_degree + 1):
        exp = prof.group(deg).exponent()
        report.check(f"exponent divides |G|, degree {deg}",
                     exp is not None and g.order % exp == 0, f"exponent {exp}")
    _istar_claims(report, action, max_degree, expect_iso_onto_fixed=False)

    # invariant homology with |Q| invertible equals the fixed classes
    if a is not None:
        bar_prof_a = homology(bar_complex(g, n_build), a)
        inv_prof_a = homology(inv, a)
        for deg in range(1, max_degree + 1):
            fixed_sub = fixed_homology(action, bar_prof_a, deg)
            report.expect(f"invariant homology equals fixed classes (A=Z/{a}), "
                          f"degree {deg}", fixed_sub.group, inv_prof_a.group(deg))
        # with |Q| invertible the norm map is an isomorphism on homology
        coinv_prof_a = homology(coinvariant_complex(action, n_build), a)
        norm = chains.norm_chain_map(action, n_build)
        for deg in range(1, max_degree + 1):
            n_star = induced_map(norm, coinv_prof_a, inv_prof_a, deg)
            report.check(f"norm iso with A=Z/{a}, degree {deg}", _is_iso(n_star))

    if _is_prime(action.q.order):
        p = action.q.order
        sub = fixed_subgroup(action)
        dq = quotient_complex_D(action, n_build)
        d_prof = homology(dq)
        # reduced and unreduced homology agree in the degrees >= 1 compared
        sub_prof = homology(bar_complex(sub.as_group(), n_build), p)
        for deg in range(1, max_degree + 1):
            report.expect(f"coker(N) homology is reduced mod-{p} homology of the "
                          f"fixed subgroup, degree {deg}",
                          sub_prof.group(deg), d_prof.group(deg))
        ses = invariant_ses(action, n_build)
        les = invariant_les(ses, max_degree)
        ex = exactness_check(les)
        for rec in ex.records:
            report.check(f"exact at {rec.label}", rec.exact,
                         f"composite zero: {rec.composite_zero}, "
                         f"|image| {rec.image_order}, |kernel| {rec.kernel_order}")
        if sub.order == 1:
            coinv_prof = homology(ses.coinvariants)
            for deg in range(1, max_degree + 1):
                report.expect(f"orbit space homology equals invariant homology, "
                              f"degree {deg}", coinv_prof.group(deg), prof.group(deg))
    return report


@_timed
def suite_transfer(g: FiniteGroup, k: Subgroup, action: GroupAction,
                   max_degree: int = 3) -> VerificationReport:
    """Both transfer composition laws on invariant homology."""
    report = VerificationReport(
        f"transfer({g.name}, K of order {k.order}, max_degree={max_degree})")
    n_build = max_degree + 1
    e = find_equivariant_coset_reps(g, k, action, check_degree=n_build)
    if e is None:
        report.check("compatible transversal exists", False)
        return report
    index = g.order // k.order
    report.check("compatible transversal exists", True, f"E = {e}")
    tr = transfer_chain_map(g, k, e, n_build, action=action)
    j = subgroup_invariant_inclusion(action, k, n_build)
    prof_g = homology(tr.source)
    prof_k = homology(tr.target)
    for deg in range(1, max_degree + 1):
        tr_star = induced_map(tr, prof_g, prof_k, deg)
        j_star = induced_map(j, prof_k, prof_g, deg)
        lhs = j_star.compose(tr_star)
        report.check(f"inclusion after transfer is {index}*id, degree {deg}",
                     lhs == AbelianHom.scalar(prof_g.group(deg), index))
        rhs = tr_star.compose(j_star)
        report.check(f"transfer after inclusion is {index}*id, degree {deg}",
                     rhs == AbelianHom.scalar(prof_k.group(deg), index))
        if k.order == 1:
            exp = prof_g.group(deg).exponent()
            report.check(f"homology killed by |G| via trivial-subgroup transfer, "
                         f"degree {deg}", exp is not None and g.order % exp == 0)
    return report


@_timed
def suite_divisible_relation(g: FiniteGroup, action: GroupAction,
                             orbit_reps: list[int] | None = None) -> VerificationReport:
    """Chain-level power relation in degree-1 invariant homology, plus the
    splitting of the fixed-subgroup inclusion."""
    if not g.is_abelian():
        raise ValueError("the power relation needs an abelian group")
    report = VerificationReport(f"divisible({g.name})")
    n_build = 2
    inv = invariant_complex(action, n_build)
    inv_prof = homology(inv)
    data1 = tuple_orbits(action, 1)
    data2 = tuple_orbits(action, 2)
    order = g.order

    if orbit_reps is None:
        singles = [r for r, sz in zip(data1.reps, data1.sizes) if sz == 1]
        multis = [r for r, sz in zip(data1.reps, data1.sizes) if sz > 1]
        orbit_reps = singles[:1] + multis[:3]

    def power(z: int, j: int) -> int:
        out = 0
        for _ in range(j):
            out = g.mul(out, z)
        return out

    def chain_boundary(two_chain: dict[tuple[int, int], int]) -> dict[int, int]:
        acc: dict[int, int] = {}
        for t, coeff in two_chain.items():
            chains._accumulate(acc, ((face[0], coeff * sign)
                                     for face, sign in bar_boundary(g, t).items()))
        return acc

    for rep in orbit_reps:
        pos = data1.orbit_of[rep]
        members = orbit_members(action, 1, rep)
        m = len(members)
        if m == 1:
            report.check(f"singleton orbit {{{rep}}}: relation degenerates to an identity",
                         True, f"{m}[{rep}] = {m}[{rep}]")
            continue
        # order the orbit by walking Q, remembering a witness for each element
        zs: list[int] = []
        witnesses: list[int] = []
        for qi in range(action.q.order):
            img = action.perm[qi][rep]
            if img not in zs:
                zs.append(img)
                witnesses.append(qi)
        if len(zs) != m:
            raise InternalCheckError("walking Q does not reach the whole orbit")
        prod = 0
        for z in zs:
            prod = g.mul(prod, z)

        fam1 = chains._accumulate({}, (((power(z, j), z), 1) for z in zs for j in range(1, m)))
        expected1 = chains._accumulate({}, (pair for z in zs
                                            for pair in ((z, m), (power(z, m), -1))))
        report.expect(f"orbit {zs}: boundary of the power family",
                      sorted(expected1.items()),
                      sorted(chain_boundary(fam1).items()))

        fam2: dict[tuple[int, int], int] = {}
        w = 0
        for j in range(1, m):
            w = g.mul(w, zs[j - 1])
            chains._accumulate(fam2, (((action.perm[qi][w], action.perm[qi][zs[j]]), 1)
                                      for qi in witnesses))
        expected2 = chains._accumulate({}, [*((z, m) for z in zs), (prod, -m)])
        report.expect(f"orbit {zs}: boundary of the product family",
                      sorted(expected2.items()),
                      sorted(chain_boundary(fam2).items()))

        # both families are invariant 2-chains (coefficients constant on orbits)
        for label, fam in (("power", fam1), ("product", fam2)):
            enc = {encode_tuple(order, t): c for t, c in fam.items()}
            try:
                chains._orbit_coords(enc, data2, "divisible-suite")
                report.check(f"orbit {zs}: {label} family is invariant", True)
            except InternalCheckError:
                report.check(f"orbit {zs}: {label} family is invariant", False)

        # the induced degree-1 relation holds in invariant homology
        diff = chains._accumulate({}, [*((power(z, m), 1) for z in zs), (prod, -m)])
        orbit_vec = [0] * inv.sizes[1]
        for p1, coeff in chains._orbit_coords(diff, data1, "power relation").items():
            orbit_vec[p1] = coeff
        coords = inv_prof.reduce(1, orbit_vec)
        report.check(f"orbit {zs}: power relation holds in degree-1 homology",
                     all(c == 0 for c in coords), f"coordinates {coords}")

    # splitting: collapsing an orbit sum to the product of its members
    # retracts the fixed-subgroup inclusion on degree-1 homology
    sub = fixed_subgroup(action)
    f = fixed_inclusion_chain_map(action, n_build)
    sub_prof = homology(f.source)
    f_star = induced_map(f, sub_prof, inv_prof, 1)
    report.check("fixed-subgroup map injective on degree-1 homology",
                 kernel_of_hom(f_star).order() == 1)
    tau_cols = []
    for rep in data1.reps:
        prod = 0
        for mem in orbit_members(action, 1, rep):
            prod = g.mul(prod, mem)
        if not all(p[prod] == prod for p in action.perm):
            raise InternalCheckError("orbit product must be fixed")
        tau_cols.append({sub.local_index(prod): 1})
    tau = SparseIntMatrix(sub.order, inv.sizes[1], tau_cols)
    ok = True
    for gen in sub_prof.generators(1):
        pushed = tau.mul_vec(f.mat(1).mul_vec(gen))
        if sub_prof.reduce(1, pushed) != sub_prof.reduce(1, gen):
            ok = False
    report.check("collapse after inclusion is the identity on degree-1 homology", ok)
    return report


@_timed
def truncated_integer_h1(bound: int) -> VerificationReport:
    """Finite window onto the degree-1 invariant homology of the integer line.

    Generators: [0] and s(n) = [n]+[-n] for 0 < n <= 2*bound.  Relations:
    boundaries of all invariant 2-chains with entries bounded by `bound`.
    Checks the parity map is well-defined and onto, even classes die, and
    odd classes coincide with order exactly 2.
    """
    if bound < 5:
        raise SpecParseError("bound must be at least 5")
    report = VerificationReport(f"integer_line(bound={bound})")
    m = bound
    ngens = 2 * m + 1  # index 0 = [0]; index i = s(i)

    def e_vec(x: int) -> dict[int, int]:
        if x == 0:
            return {0: 2}
        return {abs(x): 1}

    rel_cols: list[dict[int, int]] = [{0: 1}]  # boundary of [0|0]
    seen = set()
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            if (a, b) == (0, 0) or (a, b) in seen:
                continue
            seen.add((a, b))
            seen.add((-a, -b))
            col = chains._accumulate({}, (
                (i, sgn * v) for vec, sgn in ((e_vec(a), 1), (e_vec(b), 1), (e_vec(a + b), -1))
                for i, v in vec.items()))
            if col:
                rel_cols.append(col)

    relations = SparseIntMatrix(ngens, len(rel_cols), rel_cols)
    group = present_fg_abelian(ngens, relations)

    # (a) parity is zero on every relation, hence induces a surjection onto Z/2
    def parity(col: dict[int, int]) -> int:
        return sum(v * (i % 2) for i, v in col.items()) % 2

    report.check("parity map kills every instantiated relation",
                 all(parity(col) == 0 for col in relations.columns))
    report.check("parity map hits 1", parity({1: 1}) == 1)

    def unit(i: int) -> list[int]:
        vec = [0] * ngens
        vec[i] = 1
        return vec

    def is_trivial(vec: list[int]) -> bool:
        return all(c == 0 for c in group.reduce(vec))

    # (b) even classes vanish within the window
    report.check(f"even classes trivial up to {m}",
                 all(is_trivial(unit(i)) for i in range(2, m + 1, 2)))
    # (c) odd classes coincide and have order exactly 2
    odd_equal = True
    for i in range(3, m + 1, 2):
        vec = unit(i)
        vec[1] -= 1
        if not is_trivial(vec):
            odd_equal = False
    report.check(f"odd classes agree up to {m}", odd_equal)
    two_v1 = [0] * ngens
    two_v1[1] = 2
    report.check("odd class has order exactly 2",
                 is_trivial(two_v1) and not is_trivial(unit(1)))
    report.check("window group is rationally trivial", group.free_rank == 0,
                 f"free rank {group.free_rank}")
    report.notes.append(
        "classes " + ", ".join(
            f"s({i})={'0' if is_trivial(unit(i)) else 'nontrivial'}"
            for i in range(1, min(m, 10) + 1)))
    return report


@_timed
def suite_hiz(bound: int = 10) -> VerificationReport:
    """Degree-1 contrast between the bar-model window and the circle model."""
    report = VerificationReport(f"hiz(bound={bound})")
    window = truncated_integer_h1(bound)
    report.claims.extend(window.claims)
    report.notes.extend(window.notes)
    s1 = chains.s1_counterexample_complex()
    prof = homology(s1)
    report.expect("circle model degree 0", FgAbelianGroup(1, ()), prof.group(0))
    report.expect("circle model degree 1", FgAbelianGroup.trivial(), prof.group(1))
    report.check("circle model misses the order-2 class the window sees",
                 prof.group(1).is_trivial() and window.passed)
    return report


# ---------------------------------------------------------------------------
# registry (stable external names)


REGISTRY = {
    "n_odd": suite_n_odd,
    "n_2k": suite_n_2k,
    "n_0_mod_4": suite_n_0_mod_4,
    "structure": suite_structure,
    "transfer": suite_transfer,
    "divisible": suite_divisible_relation,
    "integer_line": truncated_integer_h1,
}
