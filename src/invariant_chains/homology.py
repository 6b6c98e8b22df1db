"""Homology of complex slices, induced maps, and exactness machinery.

Integral homology at degree n is read off exactly: the free rank is
dim C_n - rank d_n - rank d_{n+1}, and the torsion coefficients are the
nonunit invariant factors of d_{n+1} (the torsion of C_n/B_n, which equals
that of Z_n/B_n because C_n/Z_n is free).  Mod-p homology comes from ranks
of the boundaries mod p.

A profile decides its ring once, as coeff = slice.modulus or coefficients.
Over Z and over a prime Z/p (a slice's own modulus included) it eliminates
each boundary itself; a Z/p profile of an integral slice then checks its
groups against universal coefficients on the integral profile, so for prime
coefficients both routes run and must agree.  A composite Z/m takes one
branch: its groups are read off the integral profile by universal
coefficients, and it has no generator data.

A profile eliminates each boundary once: its invariant factors over Z, or
its rank over Z/p.  It takes d_1, d_2, ... in order, and d_{n+1} skips the
rows that d_n cleared in the same ring (see `linalg`), so the field pass
stays independent of the integral one.  The memo of `chains` keeps each
profile, keyed by the slice object and the ring coeff, until
`chains.clear_caches()`; no two slices share a boundary, so each boundary
is eliminated once per ring.

Generator data runs on the Morse complex of the unit pivots.  A unit pivot
u = d_n[a, b] is an elementary reduction pair (Kaczynski, Mrozek and
Slusarek, Comput. Math. Appl. 35, 1998): without the (n-1)-cell a and the
n-cell b the complex stays chain-homotopy equivalent, with d_n replaced by
the Schur complement of u and d_{n+1} without row b.  One pass per slice
takes the leading unit pivots of d_1, ..., d_max in order (the `pairs` mode
of `linalg._SnfEngine`), d_n without the rows that d_{n-1}'s pairs named,
and keeps each pair's column p and row q as they stood when it was chosen.
The cells no pair names are the critical cells of the Morse complex M, and
the working matrices left on them are its boundaries d_M: on bar(Z/6) one
critical cell in each degree below the top.  H_n(M) is presented by one
Smith form U*d_M^T*V = D of rank r per degree, which keeps U and U^-1: the
rows r: of U are a basis of the cycles (row i of U*d_M^T is 0 for i >= r),
the columns r: of U^-1, transposed, give a cycle's coordinates in that
basis, the coordinates of the columns of d_M at n+1 are the relations, and
their presentation gives generators and a reducer.  The maps of the
equivalence (Harker, Mischaikow, Mrozek and Nanda, Found. Comput. Math. 14,
2014) carry these to the slice.  phi: M -> C puts a chain on the critical n-cells, then
for d_n's pairs in reverse sets y[b] = -u^-1 * (q . y), so that each pair's
row vanishes on it; `generators(n)` is phi of M's generators.  psi: C -> M
drops the n-cells d_n paired, subtracts (z[a]/u) * p for d_{n+1}'s pairs in
order, and reads z on the critical cells; `reduce(n, z)` checks d_n*z = 0
and d_M*psi(z) = 0, and reduces psi(z) in M.  phi is never needed at the
top degree, so the pass keeps no rows of d_max.

Reduction, like clearing, needs d.d = 0 in the ring.  The builders check it
(`ComplexSlice.dd_checked`); any other slice is checked on its first
generator request.  The pass never reads the profile's eliminations, so "the
presented H_n(M) is the profile's group" stays an independent check; beside
it each bundle checks d_M.d_M = 0, and for every generator g it lifts that
d_n*phi(g) = 0 and psi(phi(g)) = g.
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
class _Morse:
    """The Morse complex M of a slice's unit reduction pairs, with the maps
    psi: C -> M and phi: M -> C of its generator data.

    `complex` has the critical cells and d_M; `critical[n]` lists the
    critical n-cells.  For each degree n below the top, `lifts[n]` holds
    (b, u^-1, q) for the pairs of d_n, and `pushes[n]` holds (a, u^-1, p)
    for the pairs of d_{n+1} whose column p held more than the unit.
    """

    complex: ComplexSlice
    critical: list[list[int]]
    lifts: list[list[tuple[int, int, dict[int, int]]]]
    pushes: list[list[tuple[int, int, dict[int, int]]]]


@dataclass
class _Bundle:
    """Generator data at one degree, from U*d_M^T*V = D of rank r on M: the
    cycles of M are the rows r: of U, and the columns r: of U^-1 give the
    coordinates of a cycle of M in that basis."""

    coords: SparseIntMatrix  # the columns r: of U^-1, transposed
    presented: FgAbelianGroup  # cycles of M modulo boundaries, in cycle coordinates
    gens: list[list[int]]  # phi of the presented generators, in the chain basis


class HomologyProfile:
    """Per-degree homology groups of a slice, with lazy generator data.

    The ring is decided once: coeff = slice.modulus or coefficients.  Over Z
    and over a prime Z/p (a slice's own modulus is prime) the profile
    eliminates each boundary itself, and a Z/p profile of an integral slice
    then checks its groups against universal coefficients on the integral
    profile.  A composite Z/m takes one early branch: its groups are read
    off `homology(slice_)` by universal coefficients, and it has no boundary
    data and no generator data.
    """

    def __init__(self, slice_: ComplexSlice, coefficients: int = COEFF_Z):
        coeff = slice_.modulus or coefficients
        if coefficients not in (COEFF_Z, coeff):
            raise ValueError(
                f"complex is defined over Z/{slice_.modulus}; cannot change ring")
        if coeff < 0 or coeff == 1:
            raise ValueError(f"bad coefficient modulus {coefficients}")
        self.slice = slice_
        self.coeff = coeff
        self.top_degree = slice_.max_degree - 1
        self._bundles: dict[int, _Bundle] = {}
        self._morse: _Morse | None = None
        degrees = range(self.top_degree + 1)
        if coeff and not _is_prime(coeff):
            integral = homology(slice_)
            self._groups = [integral.group_with_coefficients(n, coeff) for n in degrees]
            return

        # per boundary, d_0 = 0 first, then d_1..d_max: the invariant
        # factors over Z, the rank over Z/p; d_n skips the rows d_{n-1} cleared
        data, cleared = [0 if coeff else ()], ()
        for d in slice_.boundaries:
            skip, cleared = cleared, []
            if coeff:
                data.append(rank_mod_p(d, coeff, skip_rows=skip, cleared=cleared))
            else:
                data.append(invariant_factors(d, skip_rows=skip, cleared=cleared))
        self._boundary_data = tuple(data)
        sizes = slice_.sizes
        if coeff:
            self._groups = [FgAbelianGroup(0, (coeff,) * (sizes[n] - data[n] - data[n + 1]))
                            for n in degrees]
        else:
            self._groups = [FgAbelianGroup(sizes[n] - len(data[n]) - len(data[n + 1]),
                                           tuple(d for d in data[n + 1] if d >= 2))
                            for n in degrees]
        if coeff and not slice_.modulus:
            integral = homology(slice_)
            for n in degrees:
                expected = integral.group_with_coefficients(n, coeff)
                if expected != self._groups[n]:
                    raise InternalCheckError(
                        f"mod-{coeff} homology at degree {n}: field result "
                        f"{self._groups[n]} != universal-coefficient result {expected}")

    def group(self, n: int) -> FgAbelianGroup:
        if not 0 <= n <= self.top_degree:
            raise ValueError(f"degree {n} not computed (top degree {self.top_degree})")
        return self._groups[n]

    def groups(self) -> list[FgAbelianGroup]:
        return list(self._groups)

    def group_with_coefficients(self, n: int, m: int) -> FgAbelianGroup:
        """Universal coefficients: H_n (x) Z/m extended by Tor(H_{n-1}, Z/m)."""
        if self.coeff:
            raise ValueError("universal coefficients need the integral profile")
        g_n = self.group(n)
        orders = [m] * g_n.free_rank + [math.gcd(t, m) for t in g_n.torsion]
        if n >= 1:
            orders += [math.gcd(t, m) for t in self.group(n - 1).torsion]
        return FgAbelianGroup.from_orders(0, orders)

    # -- generator data -----------------------------------------------------

    def _morse_complex(self) -> _Morse:
        """One reduction pass per boundary, d_1..d_max in order, each
        without the rows that the pairs of the pass before named."""
        if self._morse is None:
            slice_, mod = self.slice, self.coeff
            if mod and not _is_prime(mod):
                raise ValueError("no generator data for composite coefficients")
            # reduction, like clearing, needs d.d = 0; builders checked it
            if not slice_.dd_checked and not dd_zero(slice_):
                raise InternalCheckError(
                    f"boundary column is not a cycle: d . d != 0 in {slice_.name}")
            top = slice_.max_degree
            sizes = slice_.sizes

            def inverse(u):
                return pow(u, -1, mod) if mod else u  # u = +-1 over Z

            # per degree n: the rows of d_n no pair names, d_n's pairs for
            # phi and d_{n+1}'s for psi; phi is never needed at the top degree,
            # so that pass keeps no rows
            left, lifts, pushes, paired = [{}], [[]], [], set()
            for n in range(1, top + 1):
                eng = _SnfEngine(slice_.d(n), mod, skip_rows=paired, pairs=True,
                                 pair_rows=n < top)
                named = {a for a, *_ in eng.pairs} | paired
                left.append({r: eng.ws.lines[r] for r in range(sizes[n - 1]) if r not in named})
                if n < top:
                    lifts.append([(b, inverse(u), q) for _, b, u, _, q in eng.pairs])
                pushes.append([(a, inverse(u), p) for a, _, u, p, _ in eng.pairs if p is not None])
                paired = {b for _, b, *_ in eng.pairs}
                del eng
            critical = [list(left[n + 1]) for n in range(top)]
            critical.append([c for c in range(sizes[top]) if c not in paired])
            boundaries = []
            for n in range(1, top + 1):
                # d_M's rows, as the columns of its transpose
                column = {c: j for j, c in enumerate(critical[n])}
                rows = [{column[c]: v for c, v in row.items() if c in column}
                        for row in left[n].values()]
                boundaries.append(
                    SparseIntMatrix._trusted(len(column), len(rows), rows).transpose())
            morse = ComplexSlice(f"Morse({slice_.name})", "morse", top,
                                 tuple(map(len, critical)), tuple(boundaries), mod)
            if not dd_zero(morse):
                raise InternalCheckError(f"d_M . d_M != 0 in {morse.name}")
            self._morse = _Morse(morse, critical, lifts, pushes)
        return self._morse

    def _phi(self, n: int, x: Sequence[int]) -> list[int]:
        """The chain of C_n that phi gives the chain x of M_n: x on the critical
        cells, then for d_n's pairs in reverse, y[b] = -u^-1 * (q . y)."""
        morse, mod = self._morse, self.coeff
        y = [0] * self.slice.sizes[n]
        for c, v in zip(morse.critical[n], x):
            y[c] = v
        for b, u_inv, q in reversed(morse.lifts[n]):
            s = sum(v * y[c] for c, v in q.items())
            if s:
                y[b] = -s * u_inv % mod if mod else -s * u_inv
        return y

    def _psi(self, n: int, z: Sequence[int]) -> list[int]:
        """The chain of M_n that psi gives the chain z of C_n: for d_{n+1}'s
        pairs in order z -= (z[a]/u) * p, then z on the critical cells.  The
        cells d_n paired drop out, as no column p has their rows.  A unit
        alone in its column changes no other cell, so only the pairs with a
        longer column are stored."""
        morse, mod = self._morse, self.coeff
        z = list(z)
        for a, u_inv, p in morse.pushes[n]:
            if z[a]:
                # over Z/p, f < p keeps the entries small without reducing them
                f = z[a] * u_inv % mod if mod else z[a] * u_inv
                for r, v in p.items():
                    z[r] -= f * v
        x = [z[c] for c in morse.critical[n]]
        return [v % mod for v in x] if mod else x

    def _bundle(self, n: int) -> _Bundle:
        if n not in self._bundles:
            mod = self.coeff
            morse = self._morse_complex()
            m = morse.complex
            eng = _SnfEngine(m.d(n).transpose(), mod, want_u=True, want_u_inv=True)
            r = len(eng.diag)
            k = m.sizes[n]
            cycles = SparseIntMatrix._trusted(k, k - r, eng.u.lines[r:])
            coords = SparseIntMatrix._trusted(k, k - r, eng.u_inv.lines[r:]).transpose()
            # the boundaries of M in cycle coordinates
            relations = coords.mul(m.d(n + 1))
            if mod:
                relations = relations.to_mod(mod)
            presented = present_fg_abelian(k - r, relations, mod)
            if presented != self._groups[n]:
                raise InternalCheckError(
                    f"generator presentation at degree {n} disagrees with the "
                    f"rank/torsion computation")
            d_n = self.slice.d(n)
            gens = []
            for g in presented.gens:
                x = cycles.mul_vec(list(g))
                if mod:
                    x = [v % mod for v in x]
                y = self._phi(n, x)
                if self._nonzero(d_n.mul_vec(y)):
                    raise InternalCheckError(f"lifted generator at degree {n} is not a cycle")
                if self._psi(n, y) != x:
                    raise InternalCheckError(f"psi(phi(g)) != g at degree {n}")
                gens.append(y)
            self._bundles[n] = _Bundle(coords, presented, gens)
        return self._bundles[n]

    def generators(self, n: int) -> list[list[int]]:
        """Explicit generating cycle vectors in the chain basis at degree n."""
        self.group(n)
        return [list(g) for g in self._bundle(n).gens]

    def reduce(self, n: int, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a cycle vector in the homology basis at degree n."""
        self.group(n)
        bundle = self._bundle(n)
        if self._nonzero(self.slice.d(n).mul_vec(list(vec))):
            raise InternalCheckError(f"vector to reduce is not a cycle over {self.coeff_str}")
        x = self._psi(n, vec)
        if self._nonzero(self._morse.complex.d(n).mul_vec(x)):
            raise InternalCheckError(f"psi of the cycle at degree {n} is not a cycle of M")
        return bundle.presented.reduce(bundle.coords.mul_vec(x))

    def _nonzero(self, vec: Sequence[int]) -> bool:
        """Whether vec is nonzero in the profile's ring."""
        mod = self.coeff
        return any(v % mod for v in vec) if mod else any(vec)

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
    """Homology of a slice over Z (coefficients=0) or Z/m, kept in the chains
    memo under its ring, so that a Z/p slice has one profile."""
    key = ("homology", slice_, coefficients or slice_.modulus)
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
    if source_h.coeff and target_h.coeff != source_h.coeff:
        raise ValueError(f"cannot induce from a {source_h.coeff_str} profile into a "
                         f"{target_h.coeff_str} one")
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
    reduced one, hence the H~ labels there.  With top_degree 0 the sequence
    is that one node, with no maps.
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

    push(f"H~_{top_degree}(orbit space)" if top_degree else "H_0(orbit space)",
         coinv_prof.group(top_degree))
    for n in range(top_degree, 0, -1):
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
    integral = homology(slice_)
    records = []
    for p in primes:
        field = homology(slice_, p)
        for n in range(field.top_degree + 1):
            records.append(UctRecord(n, p, len(field.group(n).torsion),
                                     len(integral.group_with_coefficients(n, p).torsion)))
    return records
