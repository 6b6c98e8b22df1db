"""Finite groups, actions, subgroups, coset transversals, spec grammars."""

import json
import tracemalloc

import pytest

from invariant_chains import groups
from invariant_chains.errors import BudgetExceededError, GroupConstructionError, SpecParseError
from invariant_chains.groups import (Subgroup, action_from_permutations,
                                     coset_representatives, fixed_subgroup,
                                     generated_subgroup, inversion_action, is_q_stable,
                                     make_action, make_cyclic, make_product,
                                     negation_action, parse_action_spec, parse_group_spec,
                                     restrict_action, trivial_action, trivial_subgroup)


def element_order(g, a):
    n, x = 1, a
    while x != 0:
        x = g.mul(x, a)
        n += 1
    return n


def test_make_cyclic_examples():
    assert make_cyclic(1).order == 1
    z4 = make_cyclic(4)
    assert z4.mul(1, 3) == 0 and z4.inv(1) == 3
    assert make_cyclic(6).mul(4, 5) == 3
    with pytest.raises(GroupConstructionError):
        make_cyclic(0)


def test_make_product_examples():
    p = make_product(make_cyclic(2), make_cyclic(3))
    assert p.order == 6
    # isomorphic to Z/6: same multiset of element orders
    z6 = make_cyclic(6)
    assert sorted(element_order(p, x) for x in p.elements()) == \
        sorted(element_order(z6, x) for x in z6.elements())
    assert make_product(make_cyclic(1), make_cyclic(5)).order == 5
    klein = make_product(make_cyclic(2), make_cyclic(2))
    assert all(element_order(klein, x) == 2 for x in range(1, 4))


def test_table_budget_is_checked_before_the_table_is_built():
    need = 30 * 30 * groups._TABLE_BYTES_PER_ENTRY
    assert make_cyclic(30, memory_budget=need).order == 30
    with pytest.raises(BudgetExceededError):
        make_cyclic(30, memory_budget=need - 1)
    with pytest.raises(BudgetExceededError):
        make_product(make_cyclic(5), make_cyclic(6), memory_budget=need - 1)
    with pytest.raises(BudgetExceededError):
        parse_group_spec("product:cyclic:2,cyclic:15", memory_budget=need - 1)


def test_table_estimate_covers_the_measured_peak():
    # at this order the entries are distinct int objects, as in large tables
    n = 700
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        make_cyclic(n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    estimate = n * n * groups._TABLE_BYTES_PER_ENTRY
    assert estimate / 2 <= peak <= estimate


def test_make_action_valid_and_invalid():
    z5 = make_cyclic(5)
    q = make_cyclic(2)
    act = make_action(q, z5, {1: tuple((-x) % 5 for x in range(5))})
    assert act.apply(1, 2) == 3
    with pytest.raises(GroupConstructionError):
        make_action(q, make_cyclic(4), {1: (0, 2, 1, 3)})  # not an automorphism
    # x -> 2x has multiplicative order 4 mod 5 (2, 4, 3, 1), not dividing |Q| = 2
    doubling = tuple((2 * x) % 5 for x in range(5))
    order = 1
    p = doubling
    while p != tuple(range(5)):
        p = tuple(doubling[x] for x in p)
        order += 1
    assert order == 4
    with pytest.raises(GroupConstructionError):
        make_action(q, z5, {1: doubling})


def test_action_homomorphism_property_exhaustive():
    for n in (3, 4, 5, 6, 8):
        act = negation_action(n)
        for qi in range(act.q.order):
            for qj in range(act.q.order):
                composed = tuple(act.perm[qi][act.perm[qj][x]] for x in act.g.elements())
                assert composed == act.perm[act.q.mul(qi, qj)]
        for qi in range(act.q.order):
            p = act.perm[qi]
            for a in act.g.elements():
                for b in act.g.elements():
                    assert p[act.g.mul(a, b)] == act.g.mul(p[a], p[b])


def test_negation_action_examples():
    act = negation_action(4)
    assert act.perm[1] == (0, 3, 2, 1)
    assert negation_action(1).is_trivial() and negation_action(2).is_trivial()
    act5 = negation_action(5)
    orbits = {tuple(sorted({x, act5.perm[1][x]})) for x in range(5)}
    assert orbits == {(0,), (1, 4), (2, 3)}


def test_negation_action_is_inversion_on_cyclic():
    # equal actions are one memo key
    for n in range(1, 30):
        g = make_cyclic(n)
        act = negation_action(n)
        assert act == inversion_action(g)
        assert act == make_action(make_cyclic(2), g, {1: tuple((-x) % n for x in range(n))})
        assert hash(act) == hash(inversion_action(g))


def test_fixed_subgroup_examples():
    assert fixed_subgroup(negation_action(4)).members == (0, 2)
    assert fixed_subgroup(negation_action(5)).members == (0,)
    g = make_cyclic(7)
    assert fixed_subgroup(trivial_action(g)).members == tuple(range(7))
    for n in range(1, 12):
        expected = 1 if n % 2 else 2
        assert fixed_subgroup(negation_action(n)).order == expected


def test_subgroups_and_cosets():
    z6 = make_cyclic(6)
    k = generated_subgroup(z6, [3])
    assert k.members == (0, 3)
    reps = coset_representatives(z6, k)
    assert reps == [0, 1, 2]
    assert coset_representatives(z6, Subgroup(z6, tuple(z6.elements()))) == [0]
    z4 = make_cyclic(4)
    assert coset_representatives(z4, trivial_subgroup(z4)) == [0, 1, 2, 3]


def test_coset_representatives_partition():
    for n, gen in [(6, 3), (6, 2), (8, 2), (12, 4)]:
        g = make_cyclic(n)
        k = generated_subgroup(g, [gen])
        reps = coset_representatives(g, k)
        covered = sorted(g.mul(a, r) for r in reps for a in k.members)
        assert covered == list(range(n))
        assert reps[0] == 0


def test_subgroup_as_group_and_restriction():
    z6 = make_cyclic(6)
    k = generated_subgroup(z6, [3])
    kg = k.as_group()
    assert kg.order == 2 and kg.mul(1, 1) == 0
    act = negation_action(6)
    assert is_q_stable(act, k)
    sub_act = restrict_action(act, k)
    assert sub_act.is_trivial()  # -3 = 3 in Z/6
    with pytest.raises(GroupConstructionError):
        Subgroup(z6, (0, 1))  # not closed


def test_action_from_permutations_builds_closure():
    z5 = make_cyclic(5)
    doubling = tuple((2 * x) % 5 for x in range(5))
    act = action_from_permutations(z5, [doubling])
    assert act.q.order == 4  # 2 has order 4 mod 5


def test_group_spec_grammar():
    assert parse_group_spec("cyclic:12").order == 12
    g = parse_group_spec("product:cyclic:2,cyclic:3")
    assert g.order == 6
    nested = parse_group_spec("product:product:cyclic:2,cyclic:2,cyclic:3")
    assert nested.order == 12
    for bad in ("cyclic:", "cyclic:x", "product:cyclic:2", "ring:3", "cyclic:3,"):
        with pytest.raises(SpecParseError):
            parse_group_spec(bad)


def test_action_spec_grammar(tmp_path):
    g = make_cyclic(5)
    assert parse_action_spec("negation", g).apply(1, 1) == 4
    assert parse_action_spec("trivial", g).is_trivial()
    pfile = tmp_path / "perms.json"
    pfile.write_text(json.dumps([[0, 4, 3, 2, 1]]))
    act = parse_action_spec(f"perm:{pfile}", g)
    assert act.q.order == 2 and act.apply(1, 2) == 3
    with pytest.raises(SpecParseError):
        parse_action_spec("spin", g)
    with pytest.raises(SpecParseError):
        parse_action_spec("perm:/nonexistent/file.json", g)
    # entries that are not ints, floats and bools included
    for bad in ([[0, 4.0, 3, 2, 1]], [[0, "x", 3, 2, 1]], [[0, True, 2, 3, 4]]):
        pfile.write_text(json.dumps(bad))
        with pytest.raises(SpecParseError, match="must be integers"):
            parse_action_spec(f"perm:{pfile}", g)


def test_inversion_action_requires_abelian():
    # build a tiny non-abelian group: S_3 as permutations of Z/3 won't embed
    # here, so use the dihedral table directly
    from invariant_chains.groups import _validate_group

    def idx(r, f):
        return f * 3 + r

    mul = [[0] * 6 for _ in range(6)]
    for r1 in range(3):
        for f1 in range(2):
            for r2 in range(3):
                for f2 in range(2):
                    r = (r1 + (r2 if f1 == 0 else -r2)) % 3
                    mul[idx(r1, f1)][idx(r2, f2)] = idx(r, (f1 + f2) % 2)
    s3 = _validate_group(6, mul, "dihedral6")
    assert not s3.is_abelian()
    with pytest.raises(GroupConstructionError):
        inversion_action(s3)
