"""Coset transversals compatible with the action, and transfer chain maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariant_chains.chains import (_orbit_coords, _rep_table, decode_tuple, encode_tuple,
                                     find_equivariant_coset_reps, orbit_members,
                                     subgroup_invariant_inclusion, transfer_chain_map,
                                     tuple_orbits)
from invariant_chains.errors import (EquivarianceError, GroupConstructionError,
                                     InternalCheckError)
from invariant_chains.groups import (FiniteGroup, _coset_tables, coset_representatives,
                                     generated_subgroup, inversion_action, make_cyclic,
                                     make_product, negation_action, restrict_action,
                                     trivial_action, trivial_subgroup)
from invariant_chains.homology import homology, induced_map
from invariant_chains.linalg import AbelianHom


def transfer_tuple(g, k, e, rep_of, t):
    """Image of one bar tuple under the coset-representative transfer.

    Each summand walks the prefixes x, x*g_1, ..., folding every step back
    into K; the result is a K-tuple for each representative x in E.
    """
    local = {p: i for i, p in enumerate(k.members)}
    acc = {}
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


def oracle_columns(g, k, e, n, action=None):
    """Transfer columns at degree n, tuple by tuple; None if E is not compatible."""
    rep_of = _rep_table(g, k, e)

    def image(idx):
        return {encode_tuple(k.order, kt): c for kt, c
                in transfer_tuple(g, k, e, rep_of, decode_tuple(g.order, n, idx)).items()}

    if action is None:
        return [list(image(idx).items()) for idx in range(g.order ** n)]
    sub_data = tuple_orbits(restrict_action(action, k), n)
    columns = []
    for rep in tuple_orbits(action, n).reps:
        acc = {}
        for mem in orbit_members(action, n, rep):
            for key, c in image(mem).items():
                acc[key] = acc.get(key, 0) + c
        try:
            columns.append(list(_orbit_coords(acc, sub_data, "oracle").items()))
        except InternalCheckError:
            return None
    return columns


def assert_transfer_matches_oracle(g, k, e, action):
    """Both branches through degree 3, entries and column entry order included."""
    for act in (None, action):
        try:
            mats = transfer_chain_map(g, k, e, 3, action=act).mats
        except EquivarianceError:
            mats = None
        expected = [oracle_columns(g, k, e, n, act) for n in range(4)]
        if mats is None:
            assert act is not None and None in expected, (g.name, k.members, e)
            continue
        assert [[list(col.items()) for col in m.columns] for m in mats] == expected, \
            (g.name, k.members, e, act)


def dihedral6():
    mul = [[0] * 6 for _ in range(6)]
    for f1 in range(2):
        for r1 in range(3):
            for f2 in range(2):
                for r2 in range(3):
                    r = (r1 + (r2 if f1 == 0 else -r2)) % 3
                    mul[f1 * 3 + r1][f2 * 3 + r2] = ((f1 + f2) % 2) * 3 + r
    return FiniteGroup(6, mul, "dihedral6")


@pytest.mark.parametrize("g, gens, action", [
    (make_cyclic(6), [3], negation_action(6)),
    (make_cyclic(6), [2], negation_action(6)),
    (make_cyclic(4), [2], negation_action(4)),
    (make_cyclic(5), [], negation_action(5)),
    (make_cyclic(8), [4], negation_action(8)),
    (make_product(make_cyclic(2), make_cyclic(4)), [2],
     inversion_action(make_product(make_cyclic(2), make_cyclic(4)))),
    # a non-normal K: the cosets K*x are right cosets, not left ones
    (dihedral6(), [3], trivial_action(dihedral6())),
], ids=["z6-3", "z6-2", "z4-2", "z5-trivial", "z8-4", "z2xz4-2", "dihedral6-reflection"])
def test_transfer_tables_match_the_tuple_oracle(g, gens, action):
    k = generated_subgroup(g, gens)
    cosets = _coset_tables(g, k)[1]
    transversals = [coset_representatives(g, k), sorted(m[-1] for m in cosets)]
    found = find_equivariant_coset_reps(g, k, action)
    if found is not None:
        transversals.append(found)
    for e in transversals:
        assert_transfer_matches_oracle(g, k, e, action)


@st.composite
def transfer_cases(draw):
    """A cyclic or product group of order <= 12, a subgroup <x> and any transversal."""
    if draw(st.booleans()):
        g = make_cyclic(draw(st.integers(1, 12)))
    else:
        a = draw(st.integers(2, 6))
        g = make_product(make_cyclic(a), make_cyclic(draw(st.integers(2, 12 // a))))
    k = generated_subgroup(g, [draw(st.integers(0, g.order - 1))])
    e = sorted(draw(st.sampled_from(members)) for members in _coset_tables(g, k)[1])
    return g, k, e


@settings(derandomize=True, deadline=None, max_examples=40)
@given(transfer_cases())
def test_transfer_tables_match_the_tuple_oracle_on_random_transversals(case):
    g, k, e = case
    assert_transfer_matches_oracle(g, k, e, inversion_action(g))


def test_transversal_search_too_large_is_a_construction_error():
    # 32 cosets of size 2 and no pointwise-compatible E: 2^31 candidates
    z64 = make_cyclic(64)
    with pytest.raises(GroupConstructionError, match="too large to exhaust"):
        find_equivariant_coset_reps(z64, generated_subgroup(z64, [32]), negation_action(64))


def test_equivariant_reps_z6():
    z6 = make_cyclic(6)
    k = generated_subgroup(z6, [3])
    e = find_equivariant_coset_reps(z6, k, negation_action(6))
    assert e == [0, 1, 5]


def test_equivariant_reps_z10_matches_reflection_pattern():
    # index-5 subgroup of Z/10: representatives pair i with 2k - i
    z10 = make_cyclic(10)
    k = generated_subgroup(z10, [5])
    e = find_equivariant_coset_reps(z10, k, negation_action(10))
    assert e == [0, 1, 2, 8, 9]


def test_equivariant_reps_trivial_subgroup():
    z5 = make_cyclic(5)
    e = find_equivariant_coset_reps(z5, trivial_subgroup(z5), negation_action(5))
    assert e == [0, 1, 2, 3, 4]


def test_equivariant_reps_z4_needs_fallback():
    z4 = make_cyclic(4)
    k = generated_subgroup(z4, [2])
    e = find_equivariant_coset_reps(z4, k, negation_action(4), check_degree=4)
    assert e == [0, 1]
    # the pointwise condition genuinely fails for every transversal here:
    # the nonidentity coset {1, 3} is stable but has no fixed element
    act = negation_action(4)
    for rep in (1, 3):
        assert act.perm[1][rep] != rep


def test_equivariant_reps_rejects_unstable_subgroup():
    # swap action on Z/2 x Z/2 does not stabilize the first factor
    from invariant_chains.groups import is_q_stable, make_action, make_product
    gg = make_product(make_cyclic(2), make_cyclic(2))
    act = make_action(make_cyclic(2), gg, {1: (0, 2, 1, 3)})
    k = generated_subgroup(gg, [1])
    assert not is_q_stable(act, k)
    with pytest.raises(GroupConstructionError):
        find_equivariant_coset_reps(gg, k, act)


def test_transfer_degree_zero_is_index():
    z6 = make_cyclic(6)
    k = generated_subgroup(z6, [3])
    tr = transfer_chain_map(z6, k, [0, 1, 2], 2)
    assert tr.mat(0).to_dense() == [[3]]


def test_transfer_collapses_to_trivial_subgroup():
    z3 = make_cyclic(3)
    k = trivial_subgroup(z3)
    tr = transfer_chain_map(z3, k, [0, 1, 2], 2)
    assert tr.mat(1).columns[1] == {0: 3}  # tau[1] = 3 [e]


def test_transfer_rejects_bad_transversal():
    z6 = make_cyclic(6)
    k = generated_subgroup(z6, [3])
    with pytest.raises(ValueError):
        transfer_chain_map(z6, k, [0, 1, 4], 2)  # 1 and 4 share a coset
    with pytest.raises(ValueError):
        transfer_chain_map(z6, k, [0, 1], 2)  # misses a coset


def test_invariance_guard_fires_on_nonconstant_chains():
    # the rejection path for incompatible transversals is the orbit-constancy
    # check; feed it a chain that is not constant on an orbit
    from invariant_chains.chains import _orbit_coords, tuple_orbits
    from invariant_chains.errors import InternalCheckError
    data = tuple_orbits(negation_action(5), 1)
    with pytest.raises(InternalCheckError):
        _orbit_coords({1: 1, 4: 2}, data, "test")


def test_transfer_without_pointwise_condition_still_lawful():
    # for this pair the pointwise condition fails for every transversal, yet
    # the induced transfer exists and satisfies both composition laws
    z6 = make_cyclic(6)
    k = generated_subgroup(z6, [3])
    action = negation_action(6)
    tr = transfer_chain_map(z6, k, [0, 1, 2], 4, action=action)
    j = subgroup_invariant_inclusion(action, k, 4)
    prof_g, prof_k = homology(tr.source), homology(tr.target)
    for deg in (1, 3):
        t_s = induced_map(tr, prof_g, prof_k, deg)
        j_s = induced_map(j, prof_k, prof_g, deg)
        assert j_s.compose(t_s) == AbelianHom.scalar(prof_g.group(deg), 3)


def test_transfer_laws_on_homology():
    cases = [
        (make_cyclic(6), [3], negation_action(6)),
        (make_cyclic(5), [], negation_action(5)),
        (make_cyclic(4), [2], negation_action(4)),
    ]
    for g, gens, action in cases:
        k = generated_subgroup(g, gens) if gens else trivial_subgroup(g)
        index = g.order // k.order
        e = find_equivariant_coset_reps(g, k, action, check_degree=4)
        assert e is not None
        tr = transfer_chain_map(g, k, e, 4, action=action)
        j = subgroup_invariant_inclusion(action, k, 4)
        prof_g = homology(tr.source)
        prof_k = homology(tr.target)
        for deg in range(1, 4):
            tr_star = induced_map(tr, prof_g, prof_k, deg)
            j_star = induced_map(j, prof_k, prof_g, deg)
            assert j_star.compose(tr_star) == AbelianHom.scalar(prof_g.group(deg), index)
            assert tr_star.compose(j_star) == AbelianHom.scalar(prof_k.group(deg), index)


def test_trivial_subgroup_transfer_kills_by_group_order():
    g = make_cyclic(5)
    action = negation_action(5)
    k = trivial_subgroup(g)
    tr = transfer_chain_map(g, k, list(range(5)), 4, action=action)
    prof = homology(tr.source)
    # H_3 is Z/5 and 5 * id = 0 there
    assert prof.group(3).exponent() == 5
    j = subgroup_invariant_inclusion(action, k, 4)
    comp = induced_map(j, homology(tr.target), prof, 3).compose(
        induced_map(tr, prof, homology(tr.target), 3))
    assert comp.is_zero_map()
