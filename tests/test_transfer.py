"""Coset transversals compatible with the action, and transfer chain maps."""

import pytest

from invariant_chains.chains import (find_equivariant_coset_reps, subgroup_invariant_inclusion,
                                     transfer_chain_map)
from invariant_chains.errors import GroupConstructionError
from invariant_chains.groups import (generated_subgroup, make_cyclic, negation_action,
                                     trivial_subgroup)
from invariant_chains.homology import homology, induced_map
from invariant_chains.linalg import AbelianHom


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
