"""Homology of complex slices, induced maps, and exactness machinery.

Integral homology at degree n is read off exactly: the free rank is
dim C_n - rank d_n - rank d_{n+1}, and the torsion coefficients are the
nonunit invariant factors of d_{n+1} (the torsion of C_n/B_n, which equals
that of Z_n/B_n because C_n/Z_n is free).  Mod-p homology comes from ranks
of the boundaries mod p; for composite m the universal-coefficient formula
on the integral profile is used.  For prime coefficients both routes run
and must agree.

A profile eliminates each boundary once: its invariant factors over Z, or
its rank over Z/p.  It takes d_1, d_2, ... in order, and d_{n+1} skips the
rows that d_n cleared in the same ring (see `linalg`), so the field pass
stays independent of the integral one.  The memo of `chains` keeps each
profile, keyed by the slice object and the coefficients, until
`chains.clear_caches()`; no two slices share a boundary, so each boundary
is eliminated once per ring.

Generator data comes from one Smith form U*d_n*V = D of rank r per degree,
in the profile's ring (Z, or Z/p for a prime p): the cycles are V[:, r:],
the boundaries in cycle coordinates are rows r: of V^-1*d_{n+1}, and their
presentation gives the homology generators and a reducer that carries the
cycle coordinates (V^-1*v)[r:] of a cycle v to homology coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .chains import ChainMap, ComplexSlice, InvariantSES, _is_prime, _memo, \
    _tuple_maps, clear_caches, dd_zero
from .errors import InternalCheckError
from .groups import GroupAction
from .linalg import (AbelianHom, FgAbelianGroup, FgSubgroup, SparseIntMatrix, _SnfEngine,
                     fixed_points_of_hom_family, image_of_hom, invariant_factors,
                     kernel_of_hom, present_fg_abelian, rank_mod_p)

COEFF_Z = 0


@dataclass
class _Bundle:
    """Generator data at one degree, from U*d_n*V = D of rank r."""

    rank: int
    cycles: SparseIntMatrix  # V[:, r:]
    v_inv: SparseIntMatrix  # V^-1; rows r: give cycle coordinates
    presented: FgAbelianGroup  # cycles modulo boundaries, in cycle coordinates


class HomologyProfile:
    """Per-degree homology groups of a slice, with lazy generator data."""

    def __init__(self, slice_: ComplexSlice, coefficients: int = COEFF_Z):
        self.slice = slice_
        if slice_.modulus:
            if coefficients not in (COEFF_Z, slice_.modulus):
                raise ValueError(
                    f"complex is defined over Z/{slice_.modulus}; cannot change ring")
            self.coeff = slice_.modulus
            self.mode = "field"
        elif coefficients == COEFF_Z:
            self.coeff = 0
            self.mode = "int"
        elif _is_prime(coefficients):
            self.coeff = coefficients
            self.mode = "field"
        else:
            if coefficients < 2:
                raise ValueError(f"bad coefficient modulus {coefficients}")
            self.coeff = coefficients
            self.mode = "uct"
        self.top_degree = slice_.max_degree - 1

        self._bundles: dict[int, _Bundle] = {}
        self.uct_groups: dict[int, FgAbelianGroup] = {}
        # the integral profile backing UCT computations (shared via homology())
        self._integral: HomologyProfile | None = None
        if self.mode in ("uct", "field") and not slice_.modulus:
            self._integral = homology(slice_, COEFF_Z)

        # per boundary, d_0 = 0 first, then d_1..d_max: the invariant
        # factors over Z, the rank over Z/p; d_n skips the rows d_{n-1} cleared
        if self.mode in ("int", "field"):
            data, cleared = [() if self.mode == "int" else 0], ()
            for d in slice_.boundaries:
                skip, cleared = cleared, []
                if self.coeff:
                    data.append(rank_mod_p(d, self.coeff, skip_rows=skip, cleared=cleared))
                else:
                    data.append(invariant_factors(d, skip_rows=skip, cleared=cleared))
            self._boundary_data = tuple(data)
        self._groups = {n: self._compute_group(n) for n in range(self.top_degree + 1)}
        if self.mode == "field" and self._integral is not None:
            for n in range(self.top_degree + 1):
                expected = self._integral.group_with_coefficients(n, self.coeff)
                self.uct_groups[n] = expected
                if expected != self._groups[n]:
                    raise InternalCheckError(
                        f"mod-{self.coeff} homology at degree {n}: field result "
                        f"{self._groups[n]} != universal-coefficient result {expected}")

    # -- group computation -------------------------------------------------

    def _compute_group(self, n: int) -> FgAbelianGroup:
        if self.mode == "uct":
            return self._integral.group_with_coefficients(n, self.coeff)
        below, above = self._boundary_data[n], self._boundary_data[n + 1]
        if self.mode == "int":
            free = self.slice.sizes[n] - len(below) - len(above)
            return FgAbelianGroup(free, tuple(d for d in above if d >= 2))
        return FgAbelianGroup(0, (self.coeff,) * (self.slice.sizes[n] - below - above))

    def group(self, n: int) -> FgAbelianGroup:
        if not 0 <= n <= self.top_degree:
            raise ValueError(f"degree {n} not computed (top degree {self.top_degree})")
        return self._groups[n]

    def groups(self) -> list[FgAbelianGroup]:
        return [self._groups[n] for n in range(self.top_degree + 1)]

    def group_with_coefficients(self, n: int, m: int) -> FgAbelianGroup:
        """Universal coefficients: H_n (x) Z/m extended by Tor(H_{n-1}, Z/m)."""
        if self.mode != "int":
            raise ValueError("universal coefficients need the integral profile")
        g_n = self.group(n)
        orders = [m] * g_n.free_rank + [math.gcd(t, m) for t in g_n.torsion]
        if n >= 1:
            orders += [math.gcd(t, m) for t in self.group(n - 1).torsion]
        return FgAbelianGroup.from_orders(0, orders)

    # -- generator data -----------------------------------------------------

    def _bundle(self, n: int) -> _Bundle:
        if self.mode == "uct":
            raise ValueError("no generator data for composite coefficients")
        if n not in self._bundles:
            mod = self.coeff
            d_n = self.slice.d(n)
            eng = _SnfEngine(d_n, mod, want_v=True, want_v_inv=True)
            r = len(eng.diag)
            k = d_n.cols - r
            v_inv = eng.v_inv.to_matrix(d_n.cols, d_n.cols, by_rows=True)
            bounds = v_inv.mul(self.slice.d(n + 1))
            if mod:
                bounds = bounds.to_mod(mod)
            if any(col and min(col) < r for col in bounds.columns):
                raise InternalCheckError("boundary column is not a cycle")
            relations = [{i - r: v for i, v in col.items()} for col in bounds.columns]
            presented = present_fg_abelian(k, SparseIntMatrix(k, bounds.cols, relations), mod)
            if FgAbelianGroup(presented.free_rank, presented.torsion) != self._groups[n]:
                raise InternalCheckError(
                    f"generator presentation at degree {n} disagrees with the "
                    f"rank/torsion computation")
            cycles = SparseIntMatrix._trusted(d_n.cols, k, eng.v.lines[r:])
            self._bundles[n] = _Bundle(r, cycles, v_inv, presented)
        return self._bundles[n]

    def generators(self, n: int) -> list[list[int]]:
        """Explicit generating cycle vectors in the chain basis at degree n."""
        self.group(n)
        bundle = self._bundle(n)
        mod = self.coeff
        out = []
        for g in bundle.presented.gens:
            vec = bundle.cycles.mul_vec(list(g))
            out.append([x % mod for x in vec] if mod else vec)
        return out

    def reduce(self, n: int, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a cycle vector in the homology basis at degree n."""
        self.group(n)
        bundle = self._bundle(n)
        w = bundle.v_inv.mul_vec(list(vec))
        if self.coeff:
            w = [x % self.coeff for x in w]
        if any(w[:bundle.rank]):
            raise InternalCheckError(f"vector to reduce is not a cycle over {self.coeff_str}")
        return bundle.presented.reduce(w[bundle.rank:])

    # -- reporting ----------------------------------------------------------

    @property
    def coeff_str(self) -> str:
        return "Z" if self.coeff == 0 else f"Z/{self.coeff}"

    def rows(self) -> list[dict]:
        out = []
        for n in range(self.top_degree + 1):
            g = self.group(n)
            out.append({"degree": n, "free_rank": g.free_rank, "torsion": list(g.torsion)})
        return out

    def __repr__(self):
        parts = ", ".join(f"H_{n}={self.group(n)}" for n in range(self.top_degree + 1))
        return f"HomologyProfile({self.slice.name}; {self.coeff_str}; {parts})"


def homology(slice_: ComplexSlice, coefficients: int = COEFF_Z) -> HomologyProfile:
    """Homology of a slice over Z (coefficients=0) or Z/m, kept in the chains memo."""
    key = ("homology", slice_, coefficients)
    if key not in _memo:
        _memo[key] = HomologyProfile(slice_, coefficients)
    return _memo[key]


# the old name of chains.clear_caches, still called by perfbench/workloads.py,
# which also calls chains.dd_zero, imported above, as homology.dd_zero
clear_profile_cache = clear_caches


# ---------------------------------------------------------------------------
# induced maps


def induced_map(f: ChainMap, source_h: HomologyProfile, target_h: HomologyProfile,
                n: int) -> AbelianHom:
    """Push source homology generators through a chain map and reduce."""
    if source_h.slice is not f.source or target_h.slice is not f.target:
        raise ValueError("profiles do not match the chain map's slices")
    if source_h.mode == "field" and target_h.mode != "field":
        raise ValueError("cannot induce from a mod-p profile into an integral one")
    if source_h.mode == "field" and source_h.coeff != target_h.coeff:
        raise ValueError("coefficient mismatch between profiles")
    src_group = source_h.group(n)
    dst_group = target_h.group(n)
    cols = [target_h.reduce(n, f.mat(n).mul_vec(gen)) for gen in source_h.generators(n)]
    return AbelianHom.from_columns(src_group, dst_group, cols)


def action_on_homology(action: GroupAction, profile: HomologyProfile,
                       n: int) -> list[AbelianHom]:
    """The automorphisms of H_n induced by each element of Q."""
    slice_ = profile.slice
    if slice_.kind != "bar":
        raise ValueError("the Q-action on homology is computed on the full bar complex")
    if slice_.sizes[1] != action.g.order:
        raise ValueError("profile does not belong to the acted-on group")
    size = action.g.order ** n
    group = profile.group(n)
    gens = profile.generators(n)
    homs = []
    for move in _tuple_maps(action.perm, action.g.order, n):
        mat = SparseIntMatrix(size, size, [{r: 1} for r in move])
        cols = [profile.reduce(n, mat.mul_vec(g)) for g in gens]
        homs.append(AbelianHom.from_columns(group, group, cols))
    return homs


def fixed_homology(action: GroupAction, profile: HomologyProfile, n: int) -> FgSubgroup:
    """Subgroup of H_n fixed by the induced Q-action."""
    return fixed_points_of_hom_family(profile.group(n), action_on_homology(action, profile, n))


# ---------------------------------------------------------------------------
# connecting homomorphism and long exact sequence


def connecting_homomorphism(ses: InvariantSES, n: int) -> AbelianHom:
    """Zig-zag map h_n(coker N) -> H_{n-1}(orbit space) of the norm sequence.

    Lift a cokernel cycle into the invariant complex, take its boundary,
    divide back through the (diagonal) norm, and reduce in the orbit-space
    profile.  Independence of the lift is spot-checked on perturbed lifts.
    """
    d_prof = homology(ses.quotient)
    coinv_prof = homology(ses.coinvariants)
    p = ses.p
    src = d_prof.group(n)
    dst = coinv_prof.group(n - 1)

    proj = ses.project.mat(n)
    d_to_inv = [-1] * ses.quotient.sizes[n]
    for j, col in enumerate(proj.columns):
        for i, v in col.items():
            if v == 1:
                d_to_inv[i] = j
    norm_diag = ses.norm.mat(n - 1)
    inv_d = ses.invariants.d(n)

    lifted = set(d_to_inv)
    free_positions = [j for j in range(ses.invariants.sizes[n]) if j not in lifted]

    def push(lift: list[int]) -> tuple[int, ...]:
        w = inv_d.mul_vec(lift)
        y = [0] * ses.coinvariants.sizes[n - 1]
        for j, val in enumerate(w):
            if not val:
                continue
            s = norm_diag.get(j, j)
            if s == 0 or val % s:
                raise InternalCheckError("boundary of lift is not in the norm image")
            y[j] = val // s
        if any(ses.coinvariants.d(n - 1).mul_vec(y)):
            raise InternalCheckError("pulled-back chain is not a cycle")
        return coinv_prof.reduce(n - 1, y)

    cols = []
    for gen in d_prof.generators(n):
        lift = [0] * ses.invariants.sizes[n]
        for i, c in enumerate(gen):
            if c:
                lift[d_to_inv[i]] = c % p
        coords = push(lift)
        if d_to_inv:
            alt = list(lift)
            alt[d_to_inv[0]] += p
            if push(alt) != coords:
                raise InternalCheckError("connecting map depends on the lift")
        if free_positions:
            alt = list(lift)
            alt[free_positions[0]] += 1
            if push(alt) != coords:
                raise InternalCheckError("connecting map depends on the lift")
        cols.append(coords)
    return AbelianHom.from_columns(src, dst, cols)


@dataclass
class LesNode:
    """A candidate exact sequence: groups[i] --maps[i]--> groups[i+1]."""

    labels: list[str]
    groups: list[FgAbelianGroup]
    maps: list[AbelianHom]

    def __post_init__(self):
        if len(self.groups) != len(self.labels) or len(self.maps) != len(self.groups) - 1:
            raise ValueError("sequence shape mismatch")
        for i, m in enumerate(self.maps):
            if m.source != self.groups[i] or m.target != self.groups[i + 1]:
                raise ValueError(f"map {i} does not connect its neighbouring groups")


@dataclass
class ExactnessRecord:
    label: str
    composite_zero: bool
    image_order: int
    kernel_order: int

    @property
    def exact(self) -> bool:
        return self.composite_zero and self.image_order == self.kernel_order


@dataclass
class ExactnessReport:
    records: list[ExactnessRecord]

    @property
    def ok(self) -> bool:
        return all(r.exact for r in self.records)


def exactness_check(node: LesNode) -> ExactnessReport:
    """At each interior node: composite is zero and |im in| = |ker out|."""
    image_orders = [image_of_hom(m).order() for m in node.maps]
    records = []
    for i in range(1, len(node.groups) - 1):
        f, g = node.maps[i - 1], node.maps[i]
        composite = g.compose(f)
        im_f, im_g = image_orders[i - 1], image_orders[i]
        ker_g = kernel_of_hom(g).order()
        here = node.groups[i].order()
        if None in (im_f, ker_g, im_g, here):
            raise ValueError("exactness check needs finite groups")
        if ker_g * im_g != here:
            raise InternalCheckError("kernel/image orders do not multiply to the group order")
        records.append(ExactnessRecord(node.labels[i], composite.is_zero_map(),
                                       im_f, ker_g))
    return ExactnessReport(records)


def invariant_les(ses: InvariantSES, top_degree: int) -> LesNode:
    """The long exact sequence of the norm cokernel, degrees top..1, ending at H_0.

    The last node is H_0(orbit space) = Z and the connecting map into it is
    zero, because N_0 is an isomorphism.  In degrees >= 1 the sequence is the
    reduced one, hence the H~ labels there.
    """
    if top_degree + 1 > ses.max_degree:
        raise ValueError("sequence needs boundaries one degree above its top")
    coinv_prof = homology(ses.coinvariants)
    inv_prof = homology(ses.invariants)
    d_prof = homology(ses.quotient)
    labels: list[str] = []
    groups: list[FgAbelianGroup] = []
    maps: list[AbelianHom] = []

    def push(label, group):
        labels.append(label)
        groups.append(group)

    for n in range(top_degree, 0, -1):
        if n == top_degree:
            push(f"H~_{n}(orbit space)", coinv_prof.group(n))
        maps.append(induced_map(ses.norm, coinv_prof, inv_prof, n))
        push(f"H~_{n}(invariants)", inv_prof.group(n))
        maps.append(induced_map(ses.project, inv_prof, d_prof, n))
        push(f"h_{n}(coker N)", d_prof.group(n))
        maps.append(connecting_homomorphism(ses, n))
        push(f"H~_{n - 1}(orbit space)" if n > 1 else "H_0(orbit space)",
             coinv_prof.group(n - 1))
    return LesNode(labels, groups, maps)


# ---------------------------------------------------------------------------
# engine cross-checks


@dataclass
class UctRecord:
    degree: int
    prime: int
    field_betti: int
    uct_betti: int

    @property
    def ok(self) -> bool:
        return self.field_betti == self.uct_betti


def uct_crosscheck(slice_: ComplexSlice, primes: Sequence[int] = (2, 3, 5)) -> list[UctRecord]:
    """Field Betti numbers vs. universal coefficients on the integral profile.

    Each mod-p profile eliminates every boundary mod p itself and compares
    its groups with the universal-coefficient groups of the integral
    profile; a disagreement raises `InternalCheckError` there.
    """
    if slice_.modulus:
        raise ValueError("UCT cross-check applies to integral complexes")
    if not all(_is_prime(p) for p in primes):
        raise ValueError(f"UCT cross-check needs prime moduli, got {tuple(primes)}")
    records = []
    for p in primes:
        field = homology(slice_, p)
        for n in range(field.top_degree + 1):
            records.append(UctRecord(n, p, len(field.group(n).torsion),
                                     len(field.uct_groups[n].torsion)))
    return records
