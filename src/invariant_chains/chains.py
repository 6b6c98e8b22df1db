"""Bar complexes of finite groups and their equivariant companions.

Builds, over Z, the unnormalized bar complex of a finite group G, the
subcomplex of chains invariant under an automorphism action of a finite
group Q, the complex of Q-orbit classes (chains of the orbit space), the
norm map between them, the quotient of the norm, and the chain-level
inclusion and transfer maps.  Tuples are indexed in mixed radix with the
leftmost entry most significant, so every basis is lexicographically
ordered and every matrix is reproducible.

Every complex and chain map, the transfer included, is assembled from index
tables, built per call and degree and then dropped: face tables give each
tuple index's k-th face, action tables its image under each q, transfer
tables its image in K under each coset representative.  The tuple functions
(`bar_boundary`, `orbit_members`, `_expand_orbit_boundary` and the tuple
codec) are only the reference for the tests and the divisible suite.

Each boundary column is assembled in one loop: `_face_sum` adds every face
of every tuple of the column (one tuple, or the members of one orbit) into
one dict, with the signs of the faces fixed once per degree.

Every `ComplexSlice` checks d.d = 0 by `dd_zero` when it is made, and every
`ChainMap` its commutation with d by `commutes`, whoever makes them: a
builder here, the Morse pass of `homology` or a caller by hand, so no slice
or chain map exists unchecked.  Both checks run on one kernel,
`_vanishes`, which decides exactly, column by column, whether a signed sum
of products A . B is 0 over the slice's ring without forming any product:
a column whose row lists (the rows of A's entries, repeated by size) cancel
as multisets is 0 in every ring, and any other column is summed exactly and
reduced.  Every call decides every column afresh.  The norm
sequence `invariant_ses` is made of the built complexes and maps themselves:
N_0 is the identity of Z and D_0 = 0, so it is exact in degree 0 too, and in
degrees >= 1 it is the reduced sequence.

One module-level memo holds what a process has computed: the five complex
builders' results keyed by (builder, group or action, degree), orbit data,
and the homology profiles of `homology.homology`, keyed by the slice object
and the coefficients.  No two slices share a boundary object, so a profile
eliminates each boundary once per ring.  The memory budget is checked on
every builder call, memo hit or not, and is not part of the key.
`clear_caches()` empties the memo.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceededError, EquivarianceError, GroupConstructionError, \
    InternalCheckError
from .groups import DEFAULT_MEMORY_BUDGET, FiniteGroup, GroupAction, Subgroup, \
    _approx_bytes, _coset_tables, fixed_subgroup, is_q_stable, restrict_action
from .linalg import SparseIntMatrix

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
    faces = [(t[1:], 1)]
    faces += [(t[:k - 1] + (g.mul(t[k - 1], t[k]),) + t[k + 1:], -1 if k % 2 else 1)
              for k in range(1, n)]
    faces.append((t[:-1], -1 if n % 2 else 1))
    return _accumulate({}, faces)


def _face_tables(g: FiniteGroup, n: int) -> list[tuple[array, int]]:
    """(faces[k], sign of face k): faces[k][i] is the k-th face of degree-n tuple i.

    Face 0 is i % |G|^(n-1), face n is i // |G|; face k in between merges
    entries a, b at k-1, k into mul_table[a][b], in that order.  Face k has
    sign (-1)^k in the boundary.  Tables are int arrays: a list would leave
    its int objects' memory behind when freed.
    """
    order = g.order
    below = order ** (n - 1)
    faces = [array("q", range(below)) * order]
    for k in range(1, n):
        w = order ** (n - k - 1)  # the weight of entry k
        faces.append(array("q", [(h + m) * w + lo for h in range(0, order ** k, order)
                                 for row in g.mul_table for m in row for lo in range(w)]))
    faces.append(array("q", [j for j in range(below) for _ in range(order)]))
    return [(f, -1 if k % 2 else 1) for k, f in enumerate(faces)]


def _tuple_maps(maps: Sequence[Sequence[int]], order: int, n: int) -> list[Sequence[int]]:
    """tables[j][i]: maps[j], into a group of this order, applied to each entry of tuple i."""
    tables: list[Sequence[int]] = [[0] for _ in maps]
    for _ in range(n):
        tables = [array("q", [t * order + x for t in prev for x in p])
                  for prev, p in zip(tables, maps)]
    return tables


def _accumulate(acc: dict[int, int], items) -> dict[int, int]:
    """Add (key, coefficient) pairs into acc, dropping keys that cancel."""
    for key, coeff in items:
        v = acc.get(key, 0) + coeff
        if v:
            acc[key] = v
        else:
            del acc[key]
    return acc


def _face_sum(faces: list[tuple[array, int]], tuples: Iterable[int],
              rows: Sequence[int] | None = None) -> dict[int, int]:
    """The boundary of the sum of `tuples`, read off the signed face tables.

    Each face f lands in row f, or in row rows[f] when `rows` is given.
    Every face of every tuple is added into one dict in one loop.
    """
    acc: dict[int, int] = {}
    get = acc.get
    for i in tuples:
        for f, sign in faces:
            r = f[i] if rows is None else rows[f[i]]
            v = get(r, 0) + sign
            if v:
                acc[r] = v
            else:
                del acc[r]
    return acc


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True, eq=False)
class ComplexSlice:
    """A chain complex truncated at max_degree, with d_1..d_max available.

    modulus == 0 means a complex of free Z-modules; modulus == p means the
    boundaries are understood over Z/p (free Z/p-modules).  Slices compare
    and hash by identity, so a slice keys its own homology profiles.  A
    slice checks itself when it is made: the boundaries' shapes against the
    sizes, then d.d = 0 over its ring.
    """

    name: str
    kind: str
    max_degree: int
    sizes: tuple[int, ...]
    boundaries: tuple[SparseIntMatrix, ...]
    modulus: int = 0

    def __post_init__(self):
        sizes, boundaries = tuple(self.sizes), tuple(self.boundaries)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "boundaries", boundaries)
        if len(sizes) != self.max_degree + 1 or len(boundaries) != self.max_degree:
            raise ValueError("slice shape mismatch")
        for n, d in enumerate(boundaries, 1):
            if (d.rows, d.cols) != (sizes[n - 1], sizes[n]):
                raise ValueError(f"d_{n} has shape {d.rows}x{d.cols}, expected "
                                 f"{sizes[n - 1]}x{sizes[n]}")
        if not dd_zero(self):
            raise InternalCheckError(f"d . d != 0 in {self.name}")

    def d(self, n: int) -> SparseIntMatrix:
        if n == 0:
            return SparseIntMatrix.zero(0, self.sizes[0])
        if not 1 <= n <= self.max_degree:
            raise ValueError(f"boundary d_{n} not available (max degree {self.max_degree})")
        return self.boundaries[n - 1]

    def __repr__(self):
        return f"ComplexSlice({self.name}, sizes={list(self.sizes)}, modulus={self.modulus})"


# entries of at most this size take the sorted-row-list path of `_vanishes`
_REPEAT_BOUND = 4


def _row_lists(a: SparseIntMatrix, sign: int) -> list[tuple[list[int], list[int]] | None]:
    """Per column of sign * a: (up, down), the rows of its positive and of its
    negative entries, each row repeated |entry| times; None for a column with
    an entry above the bound."""
    out: list[tuple[list[int], list[int]] | None] = []
    for col in a.columns:
        up: list[int] | None = []
        down: list[int] = []
        for r, w in col.items():
            w *= sign
            if w == 1:
                up.append(r)
            elif w == -1:
                down.append(r)
            elif 0 < w <= _REPEAT_BOUND:
                up += [r] * w
            elif 0 < -w <= _REPEAT_BOUND:
                down += [r] * -w
            else:
                up = None
                break
        out.append(None if up is None else (up, down))
    return out


def _vanishes(terms: Sequence[tuple[int, SparseIntMatrix, SparseIntMatrix]],
              modulus: int) -> bool:
    """Whether the sum of sign * A . B over the terms (sign, A, B) is 0 over Z
    (modulus 0) or Z/modulus, decided column by column; no product is formed.

    Column c of the sum gathers, for each entry v = B[b, c], the row lists of
    column b of sign * A, swapped when v < 0 and repeated |v| times, into one
    `up` and one `down` list.  If they sort equal, every row's signed count is
    0, so the column is 0 in any ring.  A column that meets an entry above the
    bound, or whose lists differ, is summed exactly and reduced mod the ring.
    """
    rows, cols = terms[0][1].rows, terms[0][2].cols
    prepared = []
    for sign, a, b in terms:
        if a.cols != b.rows or a.rows != rows or b.cols != cols:
            raise ValueError("shape mismatch in matrix product")
        prepared.append((sign, _row_lists(a, sign), a.columns, b.columns))
    for c in range(cols):
        up: list[int] = []
        down: list[int] = []
        for _, lists, _, right in prepared:
            for b, v in right[c].items():
                pair = lists[b]
                if pair is None:
                    break
                if v == 1:
                    u, d = pair
                elif v == -1:
                    d, u = pair
                elif 0 < v <= _REPEAT_BOUND:
                    u, d = pair[0] * v, pair[1] * v
                elif 0 < -v <= _REPEAT_BOUND:
                    u, d = pair[1] * -v, pair[0] * -v
                else:
                    break
                up += u
                down += d
            else:
                continue
            break
        else:
            up.sort()
            down.sort()
            if up == down:
                continue
        acc: dict[int, int] = {}
        get = acc.get
        for sign, _, left, right in prepared:
            for b, v in right[c].items():
                v *= sign
                for r, w in left[b].items():
                    acc[r] = get(r, 0) + w * v
        if any(x % modulus if modulus else x for x in acc.values()):
            return False
    return True


def dd_zero(slice_: ComplexSlice) -> bool:
    """d_{n-1} . d_n = 0 for every n, over the slice's ring."""
    return all(_vanishes([(1, slice_.d(n - 1), slice_.d(n))], slice_.modulus)
               for n in range(2, slice_.max_degree + 1))


def commutes(f: ChainMap, n: int) -> bool:
    """d_n . f_n = f_{n-1} . d_n, over the target's ring."""
    return _vanishes([(1, f.target.d(n), f.mats[n]), (-1, f.mats[n - 1], f.source.d(n))],
                     f.target.modulus)


@dataclass(frozen=True)
class ChainMap:
    """Degreewise matrices commuting exactly with the boundary maps.

    A chain map checks itself when it is made: its top degree against the
    slices', its ring, the matrices' shapes, then commutation with d.
    """

    name: str
    source: ComplexSlice
    target: ComplexSlice
    mats: tuple[SparseIntMatrix, ...]  # index n = degree n, degrees 0..max

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(self.mats))
        source, target = self.source, self.target
        if self.max_degree > min(source.max_degree, target.max_degree):
            raise ValueError("chain map exceeds slice degrees")
        if source.modulus and source.modulus != target.modulus:
            raise ValueError("chain map cannot leave a mod-p complex")
        for n, m in enumerate(self.mats):
            if (m.rows, m.cols) != (target.sizes[n], source.sizes[n]):
                raise ValueError(f"degree-{n} matrix has wrong shape")
        for n in range(1, self.max_degree + 1):
            if not commutes(self, n):
                raise InternalCheckError(f"{self.name} does not commute with d at degree {n}")

    @property
    def max_degree(self) -> int:
        return len(self.mats) - 1

    def mat(self, n: int) -> SparseIntMatrix:
        return self.mats[n]


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


def estimate_build_bytes(cells: Iterable[int], budget: int | None = None) -> int:
    """~150 bytes per boundary entry, with cells[n] cells in degree n.

    A degree-n cell has at most n + 1 entries, an orbit sum too (the faces
    of q*t are q times those of t).  The sum stops once it passes `budget`.
    """
    total = 0
    for n, c in enumerate(cells):
        total += c * (n + 1) * 150
        if budget is not None and total > budget:
            break
    return total


def _check_budget(source, max_degree: int, memory_budget: int | None) -> None:
    # the cells of a bar complex are |G|^n tuples, those of an action's
    # complexes its Q-orbits, counted by Burnside
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    g = source if isinstance(source, FiniteGroup) else source.g
    est = estimate_build_bytes((g.order ** n if g is source else burnside_orbit_count(source, n)
                                for n in range(max_degree + 1)), budget)
    if est > budget:
        raise BudgetExceededError(
            f"building degree {max_degree} over a group of order {g.order} needs "
            f"{_approx_bytes(est)} or more, budget is {budget}")


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
        _check_budget(source, max_degree, memory_budget)
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
    moves = _tuple_maps(action.perm, order, n)
    for idx in range(total):
        if orbit_of[idx] >= 0:
            continue
        members = {m[idx] for m in moves}
        pos = len(reps)
        for mem in members:
            orbit_of[mem] = pos
        if min(members) != idx:
            raise InternalCheckError("representative must be the smallest member")
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
    if total % q:
        raise InternalCheckError("Burnside sum is not divisible by |Q|")
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
    for n in range(1, max_degree + 1):
        faces = _face_tables(g, n)
        columns = [_face_sum(faces, (col,)) for col in range(sizes[n])]
        boundaries.append(SparseIntMatrix._trusted(sizes[n - 1], sizes[n], columns))
    return ComplexSlice(f"bar({g.name})", "bar", max_degree, sizes, boundaries)


def _expand_orbit_boundary(action: GroupAction, n: int, rep: int) -> dict[int, int]:
    """Tuple-basis boundary of the full orbit sum of `rep`."""
    g = action.g
    order = g.order
    acc: dict[int, int] = {}
    for mem in orbit_members(action, n, rep):
        faces = bar_boundary(g, decode_tuple(order, n, mem))
        _accumulate(acc, ((encode_tuple(order, face), c) for face, c in faces.items()))
    return acc


def _orbit_coords(acc: dict[int, int], lower: OrbitData, what: str) -> dict[int, int]:
    """Convert a Q-invariant tuple chain, zeros not stored, to orbit-sum coordinates."""
    out: dict[int, int] = {}
    orbit_of, reps = lower.orbit_of, lower.reps
    for key, coeff in acc.items():
        pos = orbit_of[key]
        if coeff != acc.get(reps[pos], 0):
            raise InternalCheckError(
                f"{what}: boundary coefficients not constant on an orbit")
        out[pos] = coeff
    return out


@_memoized
def invariant_complex(action: GroupAction, max_degree: int,
                      memory_budget: int | None = None) -> ComplexSlice:
    """Subcomplex of Q-invariant chains, basis = orbit sums."""
    data = [tuple_orbits(action, n) for n in range(max_degree + 1)]
    sizes = [d.count for d in data]
    boundaries = []
    for n in range(1, max_degree + 1):
        faces = _face_tables(action.g, n)
        moves = _tuple_maps(action.perm, action.g.order, n)
        lower = data[n - 1]
        columns = [_orbit_coords(_face_sum(faces, {m[rep] for m in moves}), lower,
                                 "invariant complex")
                   for rep in data[n].reps]
        boundaries.append(SparseIntMatrix._trusted(sizes[n - 1], sizes[n], columns))
    return ComplexSlice(f"invariant({action.q.name} on {action.g.name})", "invariant",
                         max_degree, sizes, boundaries)


@_memoized
def coinvariant_complex(action: GroupAction, max_degree: int,
                        memory_budget: int | None = None) -> ComplexSlice:
    """Chains of the orbit space: basis = orbits, boundary via representatives."""
    data = [tuple_orbits(action, n) for n in range(max_degree + 1)]
    sizes = [d.count for d in data]
    boundaries = []
    for n in range(1, max_degree + 1):
        faces = _face_tables(action.g, n)
        orbit_of = data[n - 1].orbit_of
        columns = [_face_sum(faces, (rep,), orbit_of) for rep in data[n].reps]
        boundaries.append(SparseIntMatrix._trusted(sizes[n - 1], sizes[n], columns))
    return ComplexSlice(f"coinvariant({action.q.name} on {action.g.name})", "coinvariant",
                         max_degree, sizes, boundaries)


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
        if not all(s > 0 for s in data.stab_orders):
            raise InternalCheckError("norm must be injective")
        mats.append(diag)
    return ChainMap("norm", src, dst, mats)


def _cokernel_orbits(action: GroupAction, max_degree: int) -> tuple[int, list[list[int]]]:
    """(p, keep): the one stabilizer order p > 1 of the tuple orbits, and per
    degree the positions of the orbits with stabilizer order p, which span coker N.

    Degree 0 keeps nothing (N_0 is the identity).  If every orbit in degrees
    1..max_degree is free, which for max_degree >= 1 means that Q is trivial
    (the all-identity tuple is fixed by every automorphism), p is 0 and every
    list is empty.
    """
    stabs = [tuple_orbits(action, n).stab_orders for n in range(1, max_degree + 1)]
    found = {s for orders in stabs for s in orders if s > 1}
    if len(found) > 1:
        raise GroupConstructionError(
            f"norm cokernel has mixed torsion {sorted(found)}; only actions whose "
            "nontrivial tuple stabilizers share one prime order are supported")
    p = found.pop() if found else 0
    if p and not _is_prime(p):
        raise GroupConstructionError(f"norm cokernel torsion {p} is not prime")
    return p, [[]] + [[j for j, s in enumerate(orders) if s == p] for orders in stabs]


@_memoized
def quotient_complex_D(action: GroupAction, max_degree: int,
                       memory_budget: int | None = None) -> ComplexSlice:
    """Cokernel of the norm map, a complex of free Z/p-modules (D_0 = 0).

    For trivial Q every orbit is free, so this is the zero complex, with
    modulus 0.
    """
    inv = invariant_complex(action, max_degree, memory_budget)
    p, keep = _cokernel_orbits(action, max_degree)
    sizes = [len(k) for k in keep]
    boundaries = []
    for n in range(1, max_degree + 1):
        pos_of = {j: i for i, j in enumerate(keep[n - 1])}
        d = inv.d(n)
        columns = [{pos_of[r]: v % p for r, v in d.columns[j].items() if r in pos_of}
                   for j in keep[n]]
        boundaries.append(SparseIntMatrix(sizes[n - 1], sizes[n], columns))
    return ComplexSlice(f"norm-cokernel({action.q.name} on {action.g.name})", "quotient",
                         max_degree, sizes, boundaries, modulus=p)


def quotient_chain_map(action: GroupAction, max_degree: int,
                       memory_budget: int | None = None) -> ChainMap:
    """Projection from the invariant complex onto the norm cokernel."""
    inv = invariant_complex(action, max_degree, memory_budget)
    dq = quotient_complex_D(action, max_degree, memory_budget)
    _, keep = _cokernel_orbits(action, max_degree)
    mats = []
    for n in range(max_degree + 1):
        columns: list[dict[int, int]] = [{} for _ in range(inv.sizes[n])]
        for i, j in enumerate(keep[n]):
            columns[j] = {i: 1}
        mats.append(SparseIntMatrix(dq.sizes[n], inv.sizes[n], columns))
    return ChainMap("norm-quotient", inv, dq, mats)


# ---------------------------------------------------------------------------
# inclusion chain maps


def fixed_inclusion_chain_map(action: GroupAction, max_degree: int,
                              memory_budget: int | None = None) -> ChainMap:
    """bar(G^Q) -> invariant complex; fixed tuples are singleton orbits."""
    sub = fixed_subgroup(action)
    src = bar_complex(sub.as_group(), max_degree, memory_budget)
    dst = invariant_complex(action, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        data = tuple_orbits(action, n)
        columns = []
        for idx in _tuple_maps([sub.members], action.g.order, n)[0]:
            pos = data.orbit_of[idx]
            if data.sizes[pos] != 1:
                raise InternalCheckError("fixed tuple must be a singleton orbit")
            columns.append({pos: 1})
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], columns))
    return ChainMap("fixed-inclusion", src, dst, mats)


def invariant_inclusion_chain_map(action: GroupAction, max_degree: int,
                                  memory_budget: int | None = None) -> ChainMap:
    """Invariant complex -> bar(G); an orbit sum expands to its tuples."""
    src = invariant_complex(action, max_degree, memory_budget)
    dst = bar_complex(action.g, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        moves = _tuple_maps(action.perm, action.g.order, n)
        columns = [dict.fromkeys(sorted({m[rep] for m in moves}), 1)
                   for rep in tuple_orbits(action, n).reps]
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], columns))
    return ChainMap("invariant-inclusion", src, dst, mats)


def subgroup_invariant_inclusion(action: GroupAction, k: Subgroup, max_degree: int,
                                 memory_budget: int | None = None) -> ChainMap:
    """invariant(K) -> invariant(G) for a Q-stable subgroup K."""
    sub_action = restrict_action(action, k)
    src = invariant_complex(sub_action, max_degree, memory_budget)
    dst = invariant_complex(action, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        sub_data = tuple_orbits(sub_action, n)
        data = tuple_orbits(action, n)
        embedded = _tuple_maps([k.members], action.g.order, n)[0]
        columns = []
        for rep, size in zip(sub_data.reps, sub_data.sizes):
            pos = data.orbit_of[embedded[rep]]
            if data.sizes[pos] != size:
                raise InternalCheckError("embedded orbit must match the subgroup orbit")
            columns.append({pos: 1})
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], columns))
    return ChainMap("subgroup-inclusion", src, dst, mats)


def subgroup_bar_inclusion(g: FiniteGroup, k: Subgroup, max_degree: int,
                           memory_budget: int | None = None) -> ChainMap:
    """bar(K) -> bar(G), entrywise embedding (classical, non-equivariant)."""
    src = bar_complex(k.as_group(), max_degree, memory_budget)
    dst = bar_complex(g, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        columns = [{idx: 1} for idx in _tuple_maps([k.members], g.order, n)[0]]
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], columns))
    return ChainMap("bar-inclusion", src, dst, mats)


# ---------------------------------------------------------------------------
# transfer


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


def _transfer_tables(step: list[list[tuple[int, int]]], k_order: int, n: int) -> list[array]:
    """tables[s][i]: the K-tuple index that the summand of e[s] gives degree-n tuple i.

    step[s][h] = (local index in K of x*h*bar(x*h)^-1, position of bar(x*h)
    in E) for x = e[s].  A tuple's K-index grows digit by digit while a
    parallel state array holds the position in E of the representative reached.
    """
    tables = [array("q", [0]) for _ in step]
    states = [array("q", [s]) for s in range(len(step))]
    for _ in range(n):
        tables = [array("q", [t * k_order + ki for t, st in zip(tab, state) for ki, _ in step[st]])
                  for tab, state in zip(tables, states)]
        states = [array("q", [nxt for st in state for _, nxt in step[st]]) for state in states]
    return tables


def transfer_chain_map(g: FiniteGroup, k: Subgroup, e: Sequence[int], max_degree: int,
                       action: GroupAction | None = None,
                       memory_budget: int | None = None) -> ChainMap:
    """Transfer to a finite-index subgroup along the transversal E.

    Without an action this is the classical wrong-way map bar(G) -> bar(K).
    With an action it is built on the invariant complexes and E must be
    compatible: the image of every orbit sum has to be constant on K-orbits,
    otherwise EquivarianceError is raised.  Each summand x in E walks the
    prefixes x, x*g_1, ..., folding every step back into K.
    """
    rep_of = _rep_table(g, k, e)
    pos = {x: s for s, x in enumerate(e)}
    local = {p: i for i, p in enumerate(k.members)}
    step = [[(local[g.mul(m, g.inv(rep_of[m]))], pos[rep_of[m]])
             for m in (g.mul(x, h) for h in g.elements())] for x in e]
    if action is None:
        src = bar_complex(g, max_degree, memory_budget)
        dst = bar_complex(k.as_group(), max_degree, memory_budget)
        mats = []
        for n in range(max_degree + 1):
            tables = _transfer_tables(step, k.order, n)
            columns = [_accumulate({}, ((t[i], 1) for t in tables)) for i in range(src.sizes[n])]
            mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], columns))
        return ChainMap("transfer", src, dst, mats)

    if action.g != g:
        raise ValueError("action must act on the transfer's source group")
    sub_action = restrict_action(action, k)
    src = invariant_complex(action, max_degree, memory_budget)
    dst = invariant_complex(sub_action, max_degree, memory_budget)
    mats = []
    for n in range(max_degree + 1):
        tables = _transfer_tables(step, k.order, n)
        moves = _tuple_maps(action.perm, g.order, n)
        sub_data = tuple_orbits(sub_action, n)
        columns = []
        for rep in tuple_orbits(action, n).reps:
            acc: dict[int, int] = {}
            for mem in sorted({m[rep] for m in moves}):
                _accumulate(acc, ((t[mem], 1) for t in tables))
            try:
                columns.append(_orbit_coords(acc, sub_data, "transfer"))
            except InternalCheckError as exc:
                raise EquivarianceError(
                    f"transversal {list(e)} does not map invariant chains to "
                    f"invariant chains at degree {n}") from exc
        mats.append(SparseIntMatrix(dst.sizes[n], src.sizes[n], columns))
    return ChainMap("equivariant-transfer", src, dst, mats)


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
    # Q permutes cosets; perm lists every element of Q, identity first
    coset_perm = [[coset_of_elem[p[members[0]]] for members in cosets] for p in action.perm]
    assigned: dict[int, int] = {}
    for base, members in enumerate(cosets):
        if base in assigned:
            continue
        stab = [p for p, cp in zip(action.perm, coset_perm) if cp[base] == base]
        rep = next((x for x in members if all(p[x] == x for p in stab)), None)
        if rep is None:
            break
        for p, cp in zip(action.perm, coset_perm):
            assigned.setdefault(cp[base], p[rep])
    else:
        e = sorted(assigned.values())
        rep_of = _rep_table(g, k, e)
        for p in action.perm:
            if not all(p[rep_of[x]] == rep_of[p[x]] for x in g.elements()):
                raise InternalCheckError(
                    "pointwise-compatible transversal failed its defining condition")
        return e

    # exhaustive fallback, validated against the invariant complexes
    space = math.prod(len(members) for members in cosets[1:])
    if space > 100_000:
        raise GroupConstructionError(
            f"transversal search space of size {space} is too large to exhaust")
    for rest in itertools.product(*cosets[1:]):
        cand = [0, *rest]  # identity coset is represented by 0
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
    """0 -> C(orbit space) -> C(G)^Q -> coker(N) -> 0 on the built complexes.

    The sequence is exact in every degree, degree 0 included: N_0 is the
    identity of Z and D_0 = 0.  In degrees >= 1 it is the reduced sequence.
    """

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
    norm = norm_chain_map(action, max_degree, memory_budget)
    project = quotient_chain_map(action, max_degree, memory_budget)
    dq = project.target
    return InvariantSES(action, max_degree, norm.source, norm.target, dq, norm, project,
                        dq.modulus or action.q.order)


def s1_counterexample_complex() -> ComplexSlice:
    """Invariants of the circle-model resolution: 0 -> 0 -> Z (h_1 = 0)."""
    sizes = (1, 0, 0)
    boundaries = (SparseIntMatrix.zero(1, 0), SparseIntMatrix.zero(0, 0))
    return ComplexSlice("circle-model-invariants", "custom", 2, sizes, boundaries)
