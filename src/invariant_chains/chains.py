"""Bar complexes of finite groups and their equivariant companions.

Builds, over Z, the unnormalized bar complex of a finite group G, the
subcomplex of chains invariant under an automorphism action of a finite
group Q, the complex of Q-orbit classes (chains of the orbit space), the
norm map between them, the quotient of the norm, and the chain-level
inclusion and transfer maps.  Tuples are indexed in mixed radix with the
leftmost entry most significant, so every basis is lexicographically
ordered and every matrix is reproducible.

One module-level memo holds what a process has computed: the five complex
builders' results keyed by (builder, group or action, degree), orbit data,
and the homology profiles of `homology.homology`, keyed by the slice
object.  The memory budget is checked on every builder call, memo hit or
not, and is not part of the key.  `clear_caches()` empties the memo.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import BudgetExceededError, EquivarianceError, GroupConstructionError, \
    InternalCheckError
from .groups import FiniteGroup, GroupAction, Subgroup, fixed_subgroup, \
    is_q_stable, restrict_action
from .linalg import SparseIntMatrix

DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3

BarTuple = tuple[int, ...]


def encode_tuple(order: int, t: BarTuple) -> int:
    idx = 0
    for x in t:
        idx = idx * order + x
    return idx


def decode_tuple(order: int, degree: int, idx: int) -> BarTuple:
    out = [0] * degree
    for i in range(degree - 1, -1, -1):
        idx, out[i] = divmod(idx, order)
    return tuple(out)


def bar_boundary(g: FiniteGroup, t: BarTuple) -> dict[BarTuple, int]:
    """Alternating face sum of a bar tuple; degree-1 boundaries cancel to 0."""
    n = len(t)
    if n < 1:
        raise ValueError("bar_boundary needs degree >= 1")
    acc: dict[BarTuple, int] = {}

    def add(face: BarTuple, sign: int) -> None:
        v = acc.get(face, 0) + sign
        if v:
            acc[face] = v
        else:
            acc.pop(face, None)

    add(t[1:], 1)
    for k in range(1, n):
        face = t[:k - 1] + (g.mul(t[k - 1], t[k]),) + t[k + 1:]
        add(face, -1 if k % 2 else 1)
    add(t[:-1], -1 if n % 2 else 1)
    return acc


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class BasisInfo:
    """Descriptor of one degree's basis, enough to print labels and serialize."""

    kind: str  # "tuples" | "orbits" | "fixed-orbits" | "point" | "empty"
    degree: int
    size: int
    group_order: int = 0
    reps: tuple[int, ...] = ()
    stab_orders: tuple[int, ...] = ()

    def label(self, i: int) -> str:
        if self.kind == "tuples":
            t = decode_tuple(self.group_order, self.degree, i)
            return "[" + "|".join(map(str, t)) + "]"
        if self.kind in ("orbits", "fixed-orbits"):
            t = decode_tuple(self.group_order, self.degree, self.reps[i])
            body = "[" + "|".join(map(str, t)) + "]"
            return f"orbit{body}"
        if self.kind == "point":
            return "*"
        return f"e{i}"


@dataclass(frozen=True, eq=False)
class ComplexSlice:
    """A chain complex truncated at max_degree, with d_1..d_max available.

    modulus == 0 means a complex of free Z-modules; modulus == p means the
    boundaries are understood over Z/p (free Z/p-modules).  Slices compare
    and hash by identity, so a slice keys its own homology profiles.
    """

    name: str
    kind: str
    max_degree: int
    sizes: tuple[int, ...]
    boundaries: tuple[SparseIntMatrix, ...]
    basis: tuple[BasisInfo, ...]
    modulus: int = 0
    reduced: bool = False

    def d(self, n: int) -> SparseIntMatrix:
        if n == 0:
            return SparseIntMatrix.zero(0, self.sizes[0])
        if not 1 <= n <= self.max_degree:
            raise ValueError(f"boundary d_{n} not available (max degree {self.max_degree})")
        return self.boundaries[n - 1]

    def size(self, n: int) -> int:
        return self.sizes[n]

    def reduced_copy(self) -> "ComplexSlice":
        """Replace degree 0 by 0; valid because d_1 is always the zero map here."""
        if self.reduced or self.sizes[0] == 0:
            return replace(self, reduced=True)
        if self.max_degree >= 1 and not self.boundaries[0].is_zero():
            raise ValueError("cannot reduce: d_1 is not zero")
        sizes = (0,) + self.sizes[1:]
        bnds = list(self.boundaries)
        if bnds:
            bnds[0] = SparseIntMatrix.zero(0, self.sizes[1])
        basis = (BasisInfo("empty", 0, 0),) + self.basis[1:]
        return replace(self, sizes=sizes, boundaries=tuple(bnds), basis=basis, reduced=True)

    def __repr__(self):
        return f"ComplexSlice({self.name}, sizes={list(self.sizes)}, modulus={self.modulus})"


def _finish_slice(name, kind, max_degree, sizes, boundaries, basis,
                  modulus=0, reduced=False) -> ComplexSlice:
    sizes = tuple(sizes)
    boundaries = tuple(boundaries)
    if len(sizes) != max_degree + 1 or len(boundaries) != max_degree:
        raise ValueError("slice shape mismatch")
    for n in range(1, max_degree + 1):
        d = boundaries[n - 1]
        if (d.rows, d.cols) != (sizes[n - 1], sizes[n]):
            raise ValueError(f"d_{n} has shape {d.rows}x{d.cols}, expected "
                             f"{sizes[n - 1]}x{sizes[n]}")
    for n in range(2, max_degree + 1):
        prod = boundaries[n - 2].mul(boundaries[n - 1])
        if modulus:
            prod = prod.to_mod(modulus)
        if not prod.is_zero():
            raise InternalCheckError(f"d_{n - 1} . d_{n} != 0 in {name}")
    return ComplexSlice(name, kind, max_degree, sizes, boundaries, tuple(basis),
                        modulus, reduced)


@dataclass(frozen=True)
class ChainMap:
    """Degreewise matrices commuting exactly with the boundary maps."""

    name: str
    source: ComplexSlice
    target: ComplexSlice
    mats: tuple[SparseIntMatrix, ...]  # index n = degree n, degrees 0..max

    @property
    def max_degree(self) -> int:
        return len(self.mats) - 1

    def mat(self, n: int) -> SparseIntMatrix:
        return self.mats[n]

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        top = min(self.max_degree, other.max_degree)
        mats = tuple(self.mats[n].mul(other.mats[n]) for n in range(top + 1))
        return make_chain_map(f"{self.name}.{other.name}", other.source, self.target, mats)


def make_chain_map(name: str, source: ComplexSlice, target: ComplexSlice,
                   mats: Sequence[SparseIntMatrix]) -> ChainMap:
    top = len(mats) - 1
    if top > min(source.max_degree, target.max_degree):
        raise ValueError("chain map exceeds slice degrees")
    if source.modulus and source.modulus != target.modulus:
        raise ValueError("chain map cannot leave a mod-p complex")
    modulus = target.modulus
    for n, m in enumerate(mats):
        if (m.rows, m.cols) != (target.sizes[n], source.sizes[n]):
            raise ValueError(f"degree-{n} matrix has wrong shape")
    for n in range(1, top + 1):
        lhs = target.d(n).mul(mats[n])
        rhs = mats[n - 1].mul(source.d(n))
        if modulus:
            lhs, rhs = lhs.to_mod(modulus), rhs.to_mod(modulus)
        if lhs != rhs:
            raise InternalCheckError(f"{name} does not commute with d at degree {n}")
    return ChainMap(name, source, target, tuple(mats))


# ---------------------------------------------------------------------------
# orbit bookkeeping


@dataclass(frozen=True)
class OrbitData:
    degree: int
    reps: tuple[int, ...]           # lexicographically smallest tuple index per orbit
    sizes: tuple[int, ...]
    stab_orders: tuple[int, ...]
    orbit_of: tuple[int, ...]       # tuple index -> orbit position

    @property
    def count(self) -> int:
        return len(self.reps)


def estimate_build_bytes(order: int, max_degree: int) -> int:
    # dict-of-entries dominated estimate: each boundary entry ~150 bytes
    total = 0
    for n in range(max_degree + 1):
        total += (order ** n) * (n + 1) * 150
    return total


def _check_budget(order: int, max_degree: int, memory_budget: int | None) -> None:
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    est = estimate_build_bytes(order, max_degree)
    if est > budget:
        raise BudgetExceededError(
            f"building degree {max_degree} over a group of order {order} needs "
            f"~{est} bytes, budget is {budget}")


# every in-process memo: builder results, orbit data and homology profiles
_memo: dict[tuple, object] = {}


def clear_caches() -> None:
    """Empty the memo, so that later calls build and compute afresh."""
    _memo.clear()


def _memoized(build):
    """A builder over a group or an action, memoized per (build, source, degree).

    The budget is checked first on every call, so a memo hit over budget
    still raises; it is handed on to the build, not made part of the key.
    """
    @functools.wraps(build)
    def builder(source, max_degree: int, memory_budget: int | None = None):
        g = source if isinstance(source, FiniteGroup) else source.g
        _check_budget(g.order, max_degree, memory_budget)
        key = (build, source, max_degree)
        if key not in _memo:
            _memo[key] = build(source, max_degree, memory_budget)
        return _memo[key]
    return builder


def tuple_orbits(action: GroupAction, n: int) -> OrbitData:
    """Q-orbits of degree-n tuples; representative = smallest tuple index."""
    key = ("orbits", action, n)
    if key in _memo:
        return _memo[key]
    order = action.g.order
    total = order ** n
    orbit_of = [-1] * total
    reps: list[int] = []
    sizes: list[int] = []
    perms = action.perm
    for idx in range(total):
        if orbit_of[idx] >= 0:
            continue
        t = decode_tuple(order, n, idx)
        members = {encode_tuple(order, tuple(p[x] for x in t)) for p in perms}
        pos = len(reps)
        for mem in members:
            orbit_of[mem] = pos
        assert min(members) == idx, "representative must be the smallest member"
        reps.append(idx)
        sizes.append(len(members))
    qn = action.q.order
    stab = tuple(qn // s for s in sizes)
    _memo[key] = OrbitData(n, tuple(reps), tuple(sizes), stab, tuple(orbit_of))
    return _memo[key]


def orbit_members(action: GroupAction, n: int, rep: int) -> list[int]:
    order = action.g.order
    t = decode_tuple(order, n, rep)
    return sorted({encode_tuple(order, tuple(p[x] for x in t)) for p in action.perm})


def burnside_orbit_count(action: GroupAction, n: int) -> int:
    """Independent orbit count: average number of q-fixed tuples over Q."""
    fixed_counts = [sum(1 for x in action.g.elements() if p[x] == x) for p in action.perm]
    total = sum(f ** n for f in fixed_counts)
    q = action.q.order
    assert total % q == 0
    return total // q


# ---------------------------------------------------------------------------
# builders


@_memoized
def bar_complex(g: FiniteGroup, max_degree: int,
                memory_budget: int | None = None) -> ComplexSlice:
    """The unnormalized bar complex of g through degree max_degree."""
    order = g.order
    sizes = [order ** n for n in range(max_degree + 1)]
    boundaries = []
    basis = [BasisInfo("tuples", n, sizes[n], order) for n in range(max_degree + 1)]
    for n in range(1, max_degree + 1):
        entries = {}
        for col in range(sizes[n]):
            t = decode_tuple(order, n, col)
            for face, coeff in bar_boundary(g, t).items():
                entries[(encode_tuple(order, face), col)] = coeff
        boundaries.append(SparseIntMatrix(sizes[n - 1], sizes[n], entries))
    return _finish_slice(f"bar({g.name})", "bar", max_degree, sizes, boundaries, basis)


def _expand_orbit_boundary(action: GroupAction, n: int, rep: int) -> dict[int, int]:
    """Tuple-basis boundary of the full orbit sum of `rep`."""
    g = action.g
    order = g.order
    acc: dict[int, int] = {}
    for mem in orbit_members(action, n, rep):
        t = decode_tuple(order, n, mem)
        for face, coeff in bar_boundary(g, t).items():
            key = encode_tuple(order, face)
            v = acc.get(key, 0) + coeff
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return acc


def _orbit_coords(acc: dict[int, int], lower: OrbitData, what: str) -> dict[int, int]:
    """Convert a Q-invariant tuple chain to orbit-sum coordinates."""
    out: dict[int, int] = {}
    for key, coeff in acc.items():
        pos = lower.orbit_of[key]
        rep_coeff = acc.get(lower.reps[pos], 0)
        if coeff != rep_coeff:
            raise InternalCheckError(
                f"{what}: boundary coefficients not constant on an orbit")
        out[pos] = rep_coeff
    return {k: v for k, v in out.items() if v}


@_memoized
def invariant_complex(action: GroupAction, max_degree: int,
                      memory_budget: int | None = None) -> ComplexSlice:
    """Subcomplex of Q-invariant chains, basis = orbit sums."""
    data = [tuple_orbits(action, n) for n in range(max_degree + 1)]
    sizes = [d.count for d in data]
    basis = [BasisInfo("orbits", n, sizes[n], action.g.order,
                       data[n].reps, data[n].stab_orders)
             for n in range(max_degree + 1)]
    boundaries = []
    for n in range(1, max_degree + 1):
        entries = {}
        for col, rep in enumerate(data[n].reps):
            acc = _expand_orbit_boundary(action, n, rep)
            for pos, coeff in _orbit_coords(acc, data[n - 1], "invariant complex").items():
                entries[(pos, col)] = coeff
        boundaries.append(SparseIntMatrix(sizes[n - 1], sizes[n], entries))
    return _finish_slice(f"invariant({action.q.name} on {action.g.name})", "invariant",
                         max_degree, sizes, boundaries, basis)


@_memoized
def coinvariant_complex(action: GroupAction, max_degree: int,
                        memory_budget: int | None = None) -> ComplexSlice:
    """Chains of the orbit space: basis = orbits, boundary via representatives."""
    g = action.g
    order = g.order
    data = [tuple_orbits(action, n) for n in range(max_degree + 1)]
    sizes = [d.count for d in data]
    basis = [BasisInfo("orbits", n, sizes[n], order, data[n].reps, data[n].stab_orders)
             for n in range(max_degree + 1)]
    boundaries = []
    for n in range(1, max_degree + 1):
        entries = {}
        lower = data[n - 1]
        for col, rep in enumerate(data[n].reps):
            t = decode_tuple(order, n, rep)
            acc: dict[int, int] = {}
            for face, coeff in bar_boundary(g, t).items():
                pos = lower.orbit_of[encode_tuple(order, face)]
                v = acc.get(pos, 0) + coeff
                if v:
                    acc[pos] = v
                else:
                    acc.pop(pos, None)
            for pos, coeff in acc.items():
                entries[(pos, col)] = coeff
        boundaries.append(SparseIntMatrix(sizes[n - 1], sizes[n], entries))
    return _finish_slice(f"coinvariant({action.q.name} on {action.g.name})", "coinvariant",
                         max_degree, sizes, boundaries, basis)


def norm_chain_map(action: GroupAction, max_degree: int,
                   memory_budget: int | None = None) -> ChainMap:
    """Norm from the orbit-class complex into the invariant complex.

    On an orbit class with stabilizer of order s the norm is s times the
    orbit-sum generator; in degree 0 it is the identity (the summands of the
    norm coincide there and are counted once, keeping the cokernel zero).
    """
    src = coinvariant_complex(action, max_degree, memory_budget)
    dst = invariant_complex(action, max_degree, memory_budget)
    mats = [SparseIntMatrix.identity(1)]
    for n in range(1, max_degree + 1):
        data = tuple_orbits(action, n)
        diag = SparseIntMatrix.diagonal(data.stab_orders)
        assert all(s > 0 for s in data.stab_orders), "norm must be injective"
        mats.append(diag)
    return make_chain_map("norm", src, dst, mats)


def _uniform_stabilizer(action: GroupAction, max_degree: int) -> int:
    """The single nontrivial stabilizer order, or 0 if every orbit is free."""
    found = set()
    for n in range(1, max_degree + 1):
        for s in tuple_orbits(action, n).stab_orders:
            if s > 1:
                found.add(s)
    if not found:
        return 0
    if len(found) > 1:
        raise GroupConstructionError(
            f"norm cokernel has mixed torsion {sorted(found)}; only actions whose "
            "nontrivial tuple stabilizers share one prime order are supported")
    s = found.pop()
    for p in range(2, s + 1):
        if s % p == 0:
            if s != p:
                raise GroupConstructionError(
                    f"norm cokernel torsion {s} is not prime")
            break
    return s


@_memoized
def quotient_complex_D(action: GroupAction, max_degree: int,
                       memory_budget: int | None = None) -> ComplexSlice:
    """Cokernel of the norm map, a complex of free Z/p-modules (D_0 = 0)."""
    inv = invariant_complex(action, max_degree, memory_budget)
    p = _uniform_stabilizer(action, max_degree)
    if p == 0:
        sizes = [0] * (max_degree + 1)
        basis = [BasisInfo("empty", n, 0) for n in range(max_degree + 1)]
        bnds = [SparseIntMatrix.zero(0, 0) for _ in range(max_degree)]
        return _finish_slice(f"norm-cokernel({action.g.name})", "quotient", max_degree,
                             sizes, bnds, basis, modulus=0, reduced=True)
    keep: list[list[int]] = [[]]  # degree 0 is zero
    for n in range(1, max_degree + 1):
        data = tuple_orbits(action, n)
        keep.append([j for j, s in enumerate(data.stab_orders) if s == p])
    sizes = [len(k) for k in keep]
    basis = []
    for n in range(max_degree + 1):
        data = tuple_orbits(action, n)
        reps = tuple(data.reps[j] for j in keep[n])
        basis.append(BasisInfo("fixed-orbits", n, sizes[n], action.g.order, reps))
    boundaries = []
    for n in range(1, max_degree + 1):
        pos_of = {j: i for i, j in enumerate(keep[n - 1])}
        d = inv.d(n)
        entries = {}
        for ci, j in enumerate(keep[n]):
            for r, v in d.column(j):
                if r in pos_of and v % p:
                    entries[(pos_of[r], ci)] = v % p
        boundaries.append(SparseIntMatrix(sizes[n - 1], sizes[n], entries))
    return _finish_slice(f"norm-cokernel({action.q.name} on {action.g.name})", "quotient",
                         max_degree, sizes, boundaries, basis, modulus=p, reduced=True)


def quotient_chain_map(action: GroupAction, max_degree: int,
                       memory_budget: int | None = None) -> ChainMap:
    """Projection from the invariant complex onto the norm cokernel."""
    inv = invariant_complex(action, max_degree, memory_budget)
    dq = quotient_complex_D(action, max_degree, memory_budget)
    p = dq.modulus
    mats = []
    for n in range(max_degree + 1):
        if dq.sizes[n] == 0:
            mats.append(SparseIntMatrix.zero(0, inv.sizes[n]))
            continue
        data = tuple_orbits(action, n)
        keep = [j for j, s in enumerate(data.stab_orders) if s == p]
        entries = {(i, j): 1 for i, j in enumerate(keep)}
        mats.append(SparseIntMatrix(dq.sizes[n], inv.sizes[n], entries))
    return make_chain_map("norm-quotient", inv, dq, mats)


# ---------------------------------------------------------------------------
# inclusion chain maps


def fixed_inclusion_chain_map(action: GroupAction, max_degree: int,
                              memory_budget: int | None = None) -> ChainMap:
    """bar(G^Q) -> invariant complex; fixed tuples are singleton orbits."""
    sub = fixed_subgroup(action)
    src = bar_complex(sub.as_group(), max_degree, memory_budget)
    dst = invariant_complex(action, max_degree, memory_budget)
    order = action.g.order
    sub_order = sub.order
    mats = []
    for n in range(max_degree + 1):
        data = tuple_orbits(action, n)
        entries = {}
        for col in range(sub_order ** n):
            t = decode_tuple(sub_order, n, col)
            embedded = tuple(sub.embedding(x) for x in t)
            idx = encode_tuple(order, embedded)
            pos = data.orbit_of[idx]
            assert data.sizes[pos] == 1, "fixed tuple must be a singleton orbit"
            entries[(pos, col)] = 1
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], entries))
    return make_chain_map("fixed-inclusion", src, dst, mats)


def invariant_inclusion_chain_map(action: GroupAction, max_degree: int,
                                  memory_budget: int | None = None) -> ChainMap:
    """Invariant complex -> bar(G); an orbit sum expands to its tuples."""
    src = invariant_complex(action, max_degree, memory_budget)
    dst = bar_complex(action.g, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        data = tuple_orbits(action, n)
        entries = {}
        for col, rep in enumerate(data.reps):
            for mem in orbit_members(action, n, rep):
                entries[(mem, col)] = 1
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], entries))
    return make_chain_map("invariant-inclusion", src, dst, mats)


def subgroup_invariant_inclusion(action: GroupAction, k: Subgroup, max_degree: int,
                                 memory_budget: int | None = None) -> ChainMap:
    """invariant(K) -> invariant(G) for a Q-stable subgroup K."""
    sub_action = restrict_action(action, k)
    src = invariant_complex(sub_action, max_degree, memory_budget)
    dst = invariant_complex(action, max_degree, memory_budget)
    order = action.g.order
    k_order = k.order
    mats = []
    for n in range(max_degree + 1):
        sub_data = tuple_orbits(sub_action, n)
        data = tuple_orbits(action, n)
        entries = {}
        for col, rep in enumerate(sub_data.reps):
            t = decode_tuple(k_order, n, rep)
            embedded = tuple(k.embedding(x) for x in t)
            pos = data.orbit_of[encode_tuple(order, embedded)]
            assert data.sizes[pos] == sub_data.sizes[col], \
                "embedded orbit must match the subgroup orbit"
            entries[(pos, col)] = 1
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], entries))
    return make_chain_map("subgroup-inclusion", src, dst, mats)


def subgroup_bar_inclusion(g: FiniteGroup, k: Subgroup, max_degree: int,
                           memory_budget: int | None = None) -> ChainMap:
    """bar(K) -> bar(G), entrywise embedding (classical, non-equivariant)."""
    src = bar_complex(k.as_group(), max_degree, memory_budget)
    dst = bar_complex(g, max_degree, memory_budget)
    order = g.order
    mats = []
    for n in range(max_degree + 1):
        entries = {}
        for col in range(k.order ** n):
            t = decode_tuple(k.order, n, col)
            embedded = tuple(k.embedding(x) for x in t)
            entries[(encode_tuple(order, embedded), col)] = 1
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], entries))
    return make_chain_map("bar-inclusion", src, dst, mats)


# ---------------------------------------------------------------------------
# transfer


def _coset_tables(g: FiniteGroup, k: Subgroup) -> tuple[list[int], list[list[int]]]:
    """(coset id per element, members per coset), cosets K*x in first-seen order."""
    coset_of_elem = [-1] * g.order
    cosets: list[list[int]] = []
    for x in g.elements():
        if coset_of_elem[x] >= 0:
            continue
        cid = len(cosets)
        members = sorted(g.mul(a, x) for a in k.members)
        for m in members:
            coset_of_elem[m] = cid
        cosets.append(members)
    return coset_of_elem, cosets


def _rep_table(g: FiniteGroup, k: Subgroup, e: Sequence[int]) -> list[int]:
    """bar(x) for every x in G, where bar(x) is the E-representative of K*x."""
    coset_of_elem, cosets = _coset_tables(g, k)
    rep_of_coset = [-1] * len(cosets)
    for r in e:
        cid = coset_of_elem[r]
        if rep_of_coset[cid] >= 0:
            raise ValueError("E contains two representatives of one coset")
        rep_of_coset[cid] = r
    if any(r < 0 for r in rep_of_coset):
        raise ValueError("E does not cover every coset")
    return [rep_of_coset[coset_of_elem[x]] for x in g.elements()]


def transfer_tuple(g: FiniteGroup, k: Subgroup, e: Sequence[int],
                   rep_of: Sequence[int], t: BarTuple) -> dict[BarTuple, int]:
    """Image of one bar tuple under the coset-representative transfer.

    Each summand walks the prefixes x, x*g_1, ..., folding every step back
    into K; the result is a K-tuple for each representative x in E.
    """
    local = {p: i for i, p in enumerate(k.members)}
    acc: dict[BarTuple, int] = {}
    for x in e:
        cur_bar = x  # bar(x) = x for x in E
        entries = []
        for gi in t:
            moved = g.mul(cur_bar, gi)
            nxt = rep_of[moved]
            entries.append(local[g.mul(moved, g.inv(nxt))])
            cur_bar = nxt
        key = tuple(entries)
        acc[key] = acc.get(key, 0) + 1
    return acc


def transfer_chain_map(g: FiniteGroup, k: Subgroup, e: Sequence[int], max_degree: int,
                       action: GroupAction | None = None,
                       memory_budget: int | None = None) -> ChainMap:
    """Transfer to a finite-index subgroup along the transversal E.

    Without an action this is the classical wrong-way map bar(G) -> bar(K).
    With an action it is built on the invariant complexes and E must be
    compatible: the image of every orbit sum has to be constant on K-orbits,
    otherwise EquivarianceError is raised.
    """
    rep_of = _rep_table(g, k, e)
    k_group = k.as_group()
    k_order = k.order
    if action is None:
        src = bar_complex(g, max_degree, memory_budget)
        dst = bar_complex(k_group, max_degree, memory_budget)
        mats = []
        for n in range(max_degree + 1):
            entries: dict[tuple[int, int], int] = {}
            for col in range(g.order ** n):
                t = decode_tuple(g.order, n, col)
                for kt, coeff in transfer_tuple(g, k, e, rep_of, t).items():
                    key = (encode_tuple(k_order, kt), col)
                    entries[key] = entries.get(key, 0) + coeff
            mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], entries))
        return make_chain_map("transfer", src, dst, mats)

    if action.g != g:
        raise ValueError("action must act on the transfer's source group")
    sub_action = restrict_action(action, k)
    src = invariant_complex(action, max_degree, memory_budget)
    dst = invariant_complex(sub_action, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        data = tuple_orbits(action, n)
        sub_data = tuple_orbits(sub_action, n)
        entries = {}
        for col, rep in enumerate(data.reps):
            acc: dict[int, int] = {}
            for mem in orbit_members(action, n, rep):
                t = decode_tuple(g.order, n, mem)
                for kt, coeff in transfer_tuple(g, k, e, rep_of, t).items():
                    key = encode_tuple(k_order, kt)
                    v = acc.get(key, 0) + coeff
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)
            try:
                coords = _orbit_coords(acc, sub_data, "transfer")
            except InternalCheckError as exc:
                raise EquivarianceError(
                    f"transversal {list(e)} does not map invariant chains to "
                    f"invariant chains at degree {n}") from exc
            for pos, coeff in coords.items():
                entries[(pos, col)] = coeff
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], entries))
    return make_chain_map("equivariant-transfer", src, dst, mats)


def find_equivariant_coset_reps(g: FiniteGroup, k: Subgroup, action: GroupAction,
                                check_degree: int = 3) -> list[int] | None:
    """A transversal E compatible with the Q-action, or None if none exists.

    First tries the strong pointwise condition q(bar(x)) = bar(q(x)) orbit by
    orbit (base coset representative fixed by the coset stabilizer).  When no
    such E exists the remaining transversals are enumerated and validated by
    building the transfer on invariant complexes through check_degree.
    """
    if not is_q_stable(action, k):
        raise GroupConstructionError("subgroup is not Q-stable")
    coset_of_elem, cosets = _coset_tables(g, k)
    n_cosets = len(cosets)
    # Q permutes cosets
    coset_perm = []
    for p in action.perm:
        coset_perm.append([coset_of_elem[p[members[0]]] for members in cosets])

    assigned: dict[int, int] = {}
    ok = True
    for base in range(n_cosets):
        if base in assigned:
            continue
        orbit = {base}
        frontier = [base]
        while frontier:
            nxt = []
            for c in frontier:
                for cp in coset_perm:
                    if cp[c] not in orbit:
                        orbit.add(cp[c])
                        nxt.append(cp[c])
            frontier = nxt
        stab = [qi for qi in range(action.q.order) if coset_perm[qi][base] == base]
        rep = None
        for cand in cosets[base]:
            if all(action.perm[qi][cand] == cand for qi in stab):
                rep = cand
                break
        if rep is None:
            ok = False
            break
        assigned[base] = rep
        for c in orbit:
            if c == base:
                continue
            qi = next(q for q in range(action.q.order) if coset_perm[q][base] == c)
            assigned[c] = action.perm[qi][rep]
    if ok:
        e = sorted(assigned.values())
        rep_of = _rep_table(g, k, e)
        for qi in range(action.q.order):
            p = action.perm[qi]
            assert all(p[rep_of[x]] == rep_of[p[x]] for x in g.elements()), \
                "pointwise-compatible transversal failed its defining condition"
        return e

    # exhaustive fallback, validated against the invariant complexes
    space = 1
    for members in cosets[1:]:
        space *= len(members)
    if space > 100_000:
        raise EquivarianceError(
            f"transversal search space of size {space} is too large to exhaust")

    def candidates(idx: int, chosen: list[int]):
        if idx == n_cosets:
            yield list(chosen)
            return
        for cand in cosets[idx]:
            chosen.append(cand)
            yield from candidates(idx + 1, chosen)
            chosen.pop()

    for cand in candidates(1, [0]):  # identity coset is represented by 0
        try:
            transfer_chain_map(g, k, cand, check_degree, action=action)
        except EquivarianceError:
            continue
        return sorted(cand)
    return None


# ---------------------------------------------------------------------------
# the invariants short exact sequence and the circle-model complex


@dataclass(frozen=True)
class InvariantSES:
    """0 -> C(orbit space) -> C(G)^Q -> coker(N) -> 0, reduced degreewise."""

    action: GroupAction
    max_degree: int
    coinvariants: ComplexSlice
    invariants: ComplexSlice
    quotient: ComplexSlice
    norm: ChainMap
    project: ChainMap
    p: int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


@_memoized
def invariant_ses(action: GroupAction, max_degree: int,
                  memory_budget: int | None = None) -> InvariantSES:
    if not _is_prime(action.q.order):
        raise GroupConstructionError("the norm-cokernel sequence needs prime |Q|")
    coinv = coinvariant_complex(action, max_degree, memory_budget).reduced_copy()
    inv = invariant_complex(action, max_degree, memory_budget).reduced_copy()
    dq = quotient_complex_D(action, max_degree, memory_budget)
    p = dq.modulus or action.q.order

    norm_full = norm_chain_map(action, max_degree, memory_budget)
    proj_full = quotient_chain_map(action, max_degree, memory_budget)
    norm_mats = [SparseIntMatrix.zero(0, 0)] + list(norm_full.mats[1:])
    proj_mats = [SparseIntMatrix.zero(dq.sizes[0], 0)] + list(proj_full.mats[1:])
    norm = make_chain_map("norm", coinv, inv, norm_mats)
    project = make_chain_map("norm-quotient", inv, dq, proj_mats)
    return InvariantSES(action, max_degree, coinv, inv, dq, norm, project, p)


def s1_counterexample_complex() -> ComplexSlice:
    """Invariants of the circle-model resolution: 0 -> 0 -> Z (h_1 = 0)."""
    sizes = (1, 0, 0)
    boundaries = (SparseIntMatrix.zero(1, 0), SparseIntMatrix.zero(0, 0))
    basis = (BasisInfo("point", 0, 1), BasisInfo("empty", 1, 0), BasisInfo("empty", 2, 0))
    return _finish_slice("circle-model-invariants", "custom", 2, sizes, boundaries, basis)


# ---------------------------------------------------------------------------
# serialization (optional on-disk cache support)


def slice_to_json(s: ComplexSlice) -> dict:
    return {
        "schema": 1,
        "name": s.name,
        "kind": s.kind,
        "max_degree": s.max_degree,
        "sizes": list(s.sizes),
        "modulus": s.modulus,
        "reduced": s.reduced,
        "boundaries": [
            {"rows": m.rows, "cols": m.cols,
             "entries": [[r, c, v] for (r, c), v in sorted(m.entries.items())]}
            for m in s.boundaries
        ],
        "basis": [
            {"kind": b.kind, "degree": b.degree, "size": b.size,
             "group_order": b.group_order, "reps": list(b.reps),
             "stab_orders": list(b.stab_orders)}
            for b in s.basis
        ],
    }


def slice_from_json(data: dict) -> ComplexSlice:
    if data.get("schema") != 1:
        raise ValueError("unknown slice schema")
    boundaries = [
        SparseIntMatrix(m["rows"], m["cols"], [(r, c, v) for r, c, v in m["entries"]])
        for m in data["boundaries"]
    ]
    basis = [
        BasisInfo(b["kind"], b["degree"], b["size"], b["group_order"],
                  tuple(b["reps"]), tuple(b["stab_orders"]))
        for b in data["basis"]
    ]
    return _finish_slice(data["name"], data["kind"], data["max_degree"],
                         data["sizes"], boundaries, basis,
                         modulus=data["modulus"], reduced=data["reduced"])
