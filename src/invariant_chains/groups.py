"""Finite groups, automorphism actions, subgroups and coset transversals.

Elements are dense indices 0..order-1 with index 0 the identity, and the
multiplication table is stored in full: the groups handled here are tiny,
the chain complexes built on them are not.  `make_cyclic` and
`make_product` check the table's estimated size against the memory budget
before they build it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import BudgetExceededError, GroupConstructionError, SpecParseError

_ASSOC_EXHAUSTIVE_LIMIT = 64
_ASSOC_SAMPLES = 100_000

DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3
# peak bytes per multiplication-table entry while a table is built and
# validated (a list slot, a tuple slot and an int object), from tracemalloc
# on make_cyclic(2000) under CPython 3.11
_TABLE_BYTES_PER_ENTRY = 44


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table (identity = 0)."""

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    inv_table: tuple[int, ...]
    name: str

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.mul_table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _tuples(n: int, k: int, exhaustive: bool, samples: int, seed: int) -> Iterator[tuple]:
    """Every k-tuple over range(n) in lexicographic order, or else `samples`
    k-tuples drawn entry by entry from random.Random(seed), lazily."""
    if exhaustive:
        return itertools.product(range(n), repeat=k)
    rng = random.Random(seed)
    draws = (rng.randrange(n) for _ in range(samples * k))
    return zip(*[draws] * k)


def _validate_group(order: int, mul: Sequence[Sequence[int]], name: str) -> FiniteGroup:
    if order < 1:
        raise GroupConstructionError("group order must be >= 1")
    if len(mul) != order or any(len(row) != order for row in mul):
        raise GroupConstructionError("multiplication table has wrong shape")
    for row in mul:
        for v in row:
            if not 0 <= v < order:
                raise GroupConstructionError("table entry out of range")
    for g in range(order):
        if mul[0][g] != g or mul[g][0] != g:
            raise GroupConstructionError("index 0 is not a two-sided identity")
    inv = [-1] * order
    for g in range(order):
        for h in range(order):
            if mul[g][h] == 0:
                inv[g] = h
                break
        if inv[g] < 0 or mul[inv[g]][g] != 0:
            raise GroupConstructionError(f"element {g} has no two-sided inverse")
    for a, b, c in _tuples(order, 3, order <= _ASSOC_EXHAUSTIVE_LIMIT, _ASSOC_SAMPLES, 0xA55):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise GroupConstructionError(f"associativity fails at {(a, b, c)}")
    return FiniteGroup(order, tuple(tuple(row) for row in mul), tuple(inv), name)


def _approx_bytes(n: int) -> str:
    """"~n bytes", or a power of two below n when n has too many digits to print."""
    return f"~{n} bytes" if n.bit_length() <= 64 else f"over 2^{n.bit_length() - 1} bytes"


def _check_table_budget(order: int, memory_budget: int | None) -> None:
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    est = order * order * _TABLE_BYTES_PER_ENTRY
    if est > budget:
        raise BudgetExceededError(
            f"the multiplication table of a group of order {order} needs "
            f"{_approx_bytes(est)}, budget is {budget}")


def make_cyclic(n: int, memory_budget: int | None = None) -> FiniteGroup:
    """Z/n with element i the residue i and multiplication = addition mod n."""
    if n < 1:
        raise GroupConstructionError("cyclic group needs n >= 1")
    _check_table_budget(n, memory_budget)
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _validate_group(n, mul, f"cyclic:{n}")


def make_product(a: FiniteGroup, b: FiniteGroup,
                 memory_budget: int | None = None) -> FiniteGroup:
    """Direct product with componentwise multiplication; index = x*|b| + y."""
    nb = b.order
    order = a.order * nb
    _check_table_budget(order, memory_budget)
    mul = [[0] * order for _ in range(order)]
    for x1 in a.elements():
        for y1 in b.elements():
            i = x1 * nb + y1
            row = mul[i]
            for x2 in a.elements():
                ax = a.mul(x1, x2)
                for y2 in b.elements():
                    row[x2 * nb + y2] = ax * nb + b.mul(y1, y2)
    return _validate_group(order, mul, f"product:{a.name},{b.name}")


@dataclass(frozen=True)
class GroupAction:
    """A finite group q acting on g by automorphisms, one permutation per q-element."""

    q: FiniteGroup
    g: FiniteGroup
    perm: tuple[tuple[int, ...], ...]

    def apply(self, qi: int, gi: int) -> int:
        return self.perm[qi][gi]

    def is_trivial(self) -> bool:
        ident = tuple(self.g.elements())
        return all(p == ident for p in self.perm)

    def __repr__(self):
        return f"GroupAction({self.q.name} on {self.g.name})"


def _check_automorphism(g: FiniteGroup, p: Sequence[int]) -> None:
    if sorted(p) != list(g.elements()):
        raise GroupConstructionError("permutation is not a bijection of the group")
    if p[0] != 0:
        raise GroupConstructionError("automorphism must fix the identity")
    order = g.order
    for a, b in _tuples(order, 2, order <= _ASSOC_EXHAUSTIVE_LIMIT, _ASSOC_SAMPLES, 0x5EED):
        if p[g.mul(a, b)] != g.mul(p[a], p[b]):
            raise GroupConstructionError(
                f"map is not an automorphism: image of {a}*{b} mismatches")


def _validate_action(q: FiniteGroup, g: FiniteGroup,
                     perm: Sequence[Sequence[int]]) -> GroupAction:
    if len(perm) != q.order:
        raise GroupConstructionError("need one permutation per element of Q")
    for p in perm:
        _check_automorphism(g, p)
    ident = tuple(g.elements())
    if tuple(perm[0]) != ident:
        raise GroupConstructionError("identity of Q must act as the identity")
    for a, b in _tuples(q.order, 2, g.order * q.order <= 4096, 2048, 0xACC):
        pab = perm[q.mul(a, b)]
        pa, pb = perm[a], perm[b]
        if any(pab[x] != pa[pb[x]] for x in g.elements()):
            raise GroupConstructionError("permutations do not form a Q-homomorphism")
    return GroupAction(q, g, tuple(tuple(p) for p in perm))


def make_action(q: FiniteGroup, g: FiniteGroup,
                generator_images: Mapping[int, Sequence[int]]) -> GroupAction:
    """Extend images of a generating set of q to all of q by composition."""
    for p in generator_images.values():
        _check_automorphism(g, p)
    known: dict[int, tuple[int, ...]] = {0: tuple(g.elements())}
    for qi, p in generator_images.items():
        p = tuple(p)
        if qi in known and known[qi] != p:
            raise GroupConstructionError(f"conflicting image for generator {qi}")
        known[qi] = p
    frontier = list(known)
    gens = {qi: tuple(p) for qi, p in generator_images.items()}
    while frontier:
        new_frontier = []
        for a in frontier:
            pa = known[a]
            for qi, pg in gens.items():
                target = q.mul(a, qi)
                composed = tuple(pa[pg[x]] for x in g.elements())
                if target in known:
                    if known[target] != composed:
                        raise GroupConstructionError(
                            "generator images do not satisfy the relations of Q")
                else:
                    known[target] = composed
                    new_frontier.append(target)
        frontier = new_frontier
    if len(known) != q.order:
        raise GroupConstructionError("given elements do not generate Q")
    return _validate_action(q, g, [known[i] for i in range(q.order)])


def inversion_action(g: FiniteGroup) -> GroupAction:
    """Z/2 acting on an abelian group by inversion."""
    if not g.is_abelian():
        raise GroupConstructionError("inversion is an automorphism only for abelian groups")
    q = make_cyclic(2)
    neg = tuple(g.inv(x) for x in g.elements())
    return make_action(q, g, {1: neg})


def negation_action(n: int) -> GroupAction:
    """Z/2 acting on Z/n by x -> -x."""
    return inversion_action(make_cyclic(n))


def trivial_action(g: FiniteGroup, q: FiniteGroup | None = None) -> GroupAction:
    if q is None:
        q = make_cyclic(2)
    ident = tuple(g.elements())
    return _validate_action(q, g, [ident] * q.order)


def action_from_permutations(g: FiniteGroup, perms: Sequence[Sequence[int]]) -> GroupAction:
    """Close the given automorphisms into a permutation group acting on g."""
    for p in perms:
        _check_automorphism(g, p)
    ident = tuple(g.elements())
    elems: list[tuple[int, ...]] = [ident]
    seen = {ident: 0}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        nxt = []
        for pa in frontier:
            for pg in gens:
                comp = tuple(pa[pg[x]] for x in g.elements())
                if comp not in seen:
                    seen[comp] = len(elems)
                    elems.append(comp)
                    nxt.append(comp)
        frontier = nxt
        if len(elems) > 4096:
            raise GroupConstructionError("generated automorphism group is too large")
    order = len(elems)
    mul = [[0] * order for _ in range(order)]
    for i, pa in enumerate(elems):
        for j, pb in enumerate(elems):
            comp = tuple(pa[pb[x]] for x in g.elements())
            mul[i][j] = seen[comp]
    q = _validate_group(order, mul, f"aut({g.name})[{len(perms)} gens]")
    return _validate_action(q, g, elems)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted member list; embedding maps local to parent index."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = set(self.members)
        if tuple(sorted(mem)) != self.members:
            raise GroupConstructionError("members must be sorted and distinct")
        if 0 not in mem:
            raise GroupConstructionError("subgroup must contain the identity")
        for a in self.members:
            if self.parent.inv(a) not in mem:
                raise GroupConstructionError("subgroup not closed under inverses")
            for b in self.members:
                if self.parent.mul(a, b) not in mem:
                    raise GroupConstructionError("subgroup not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def embedding(self, local: int) -> int:
        return self.members[local]

    def local_index(self, parent_elem: int) -> int:
        # members is sorted; fine to scan at these sizes
        try:
            return self.members.index(parent_elem)
        except ValueError:
            raise KeyError(f"element {parent_elem} not in subgroup") from None

    def contains(self, parent_elem: int) -> bool:
        return parent_elem in self.members

    def as_group(self) -> FiniteGroup:
        idx = {p: i for i, p in enumerate(self.members)}
        mul = [[idx[self.parent.mul(a, b)] for b in self.members] for a in self.members]
        return _validate_group(self.order, mul, f"{self.parent.name}^sub{list(self.members)}")


def generated_subgroup(g: FiniteGroup, gens: Sequence[int]) -> Subgroup:
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                for b in (g.mul(a, s), g.mul(a, g.inv(s))):
                    if b not in members:
                        members.add(b)
                        nxt.append(b)
        frontier = nxt
    return Subgroup(g, tuple(sorted(members)))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (0,))


def fixed_subgroup(action: GroupAction) -> Subgroup:
    """Elements of g fixed by every automorphism in the action."""
    fixed = [x for x in action.g.elements()
             if all(p[x] == x for p in action.perm)]
    return Subgroup(action.g, tuple(sorted(fixed)))


def _coset_tables(g: FiniteGroup, k: Subgroup) -> tuple[list[int], list[list[int]]]:
    """(coset id per element, sorted members per coset), cosets K*x in first-seen order."""
    coset_of_elem = [-1] * g.order
    cosets: list[list[int]] = []
    for x in g.elements():
        if coset_of_elem[x] >= 0:
            continue
        members = sorted(g.mul(a, x) for a in k.members)
        for m in members:
            coset_of_elem[m] = len(cosets)
        cosets.append(members)
    return coset_of_elem, cosets


def coset_representatives(g: FiniteGroup, k: Subgroup) -> list[int]:
    """The smallest element of each right coset K*x; identity represents K itself."""
    if k.parent is not g and k.parent != g:
        raise GroupConstructionError("subgroup belongs to a different group")
    return [members[0] for members in _coset_tables(g, k)[1]]


def is_q_stable(action: GroupAction, k: Subgroup) -> bool:
    mem = set(k.members)
    return all({p[a] for a in k.members} == mem for p in action.perm)


def restrict_action(action: GroupAction, k: Subgroup) -> GroupAction:
    """The induced action on a Q-stable subgroup, re-indexed as its own group."""
    if not is_q_stable(action, k):
        raise GroupConstructionError("subgroup is not Q-stable")
    sub = k.as_group()
    perms = []
    for p in action.perm:
        perms.append(tuple(k.local_index(p[k.embedding(i)]) for i in range(k.order)))
    return _validate_action(action.q, sub, perms)


# ---------------------------------------------------------------------------
# spec grammars (consumed by the CLI)


def parse_group_spec(spec: str, memory_budget: int | None = None) -> FiniteGroup:
    """Grammar: `cyclic:N` | `product:<spec>,<spec>`."""
    group, rest = _parse_group(spec.strip(), memory_budget)
    if rest:
        raise SpecParseError(f"trailing characters in group spec: {rest!r}")
    return group


def _parse_group(s: str, memory_budget: int | None) -> tuple[FiniteGroup, str]:
    if s.startswith("cyclic:"):
        body = s[len("cyclic:"):]
        i = 0
        while i < len(body) and body[i].isdigit():
            i += 1
        if i == 0:
            raise SpecParseError(f"expected an integer after 'cyclic:' in {s!r}")
        return make_cyclic(int(body[:i]), memory_budget), body[i:]
    if s.startswith("product:"):
        a, rest = _parse_group(s[len("product:"):], memory_budget)
        if not rest.startswith(","):
            raise SpecParseError("product spec needs two comma-separated factors")
        b, rest = _parse_group(rest[1:], memory_budget)
        return make_product(a, b, memory_budget), rest
    raise SpecParseError(f"unknown group spec {s!r}")


def parse_action_spec(spec: str, g: FiniteGroup) -> GroupAction:
    """Grammar: `negation` | `trivial` | `perm:<file>` (JSON list of permutations)."""
    spec = spec.strip()
    if spec == "negation":
        return inversion_action(g)
    if spec == "trivial":
        return trivial_action(g)
    if spec.startswith("perm:"):
        path = Path(spec[len("perm:"):])
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise SpecParseError(f"cannot read permutation file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"bad JSON in permutation file: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(p, list) for p in data):
            raise SpecParseError("permutation file must hold a JSON list of permutations")
        # bool is an int subclass, so compare types exactly
        if any(type(x) is not int for p in data for x in p):
            raise SpecParseError("permutation entries must be integers")
        return action_from_permutations(g, data)
    raise SpecParseError(f"unknown action spec {spec!r}")
