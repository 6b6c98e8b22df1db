"""Bar complexes, orbit complexes, norm/quotient, serialization, budgets."""

import importlib
import json
import pkgutil
import random

import pytest

import invariant_chains
from invariant_chains.chains import (bar_boundary, bar_complex, burnside_orbit_count,
                                     clear_caches, coinvariant_complex, decode_tuple,
                                     encode_tuple, estimate_build_bytes,
                                     fixed_inclusion_chain_map, invariant_complex,
                                     invariant_inclusion_chain_map,
                                     invariant_ses, norm_chain_map, orbit_members,
                                     quotient_chain_map, quotient_complex_D,
                                     s1_counterexample_complex, slice_from_json,
                                     slice_to_json, subgroup_bar_inclusion,
                                     subgroup_invariant_inclusion, tuple_orbits)
from invariant_chains.errors import BudgetExceededError, GroupConstructionError
from invariant_chains.groups import (generated_subgroup, make_cyclic, make_product,
                                     negation_action, trivial_action)
from invariant_chains.homology import homology
from invariant_chains.linalg import smith_normal_form


def test_bar_boundary_examples():
    z4 = make_cyclic(4)
    assert bar_boundary(z4, (1, 2)) == {(2,): 1, (3,): -1, (1,): 1}
    assert bar_boundary(z4, (1, 3)) == {(3,): 1, (0,): -1, (1,): 1}
    for g in range(4):
        assert bar_boundary(z4, (g,)) == {}
    with pytest.raises(ValueError):
        bar_boundary(z4, ())


def test_tuple_codec_round_trip():
    rng = random.Random(0)
    for order in (2, 3, 6):
        for n in range(4):
            for _ in range(20):
                t = tuple(rng.randrange(order) for _ in range(n))
                assert decode_tuple(order, n, encode_tuple(order, t)) == t


def test_bar_complex_sizes_and_sparsity():
    bc = bar_complex(make_cyclic(2), 2)
    assert bc.sizes == (1, 2, 4)
    bc4 = bar_complex(make_cyclic(4), 3)
    for c in range(bc4.sizes[2]):
        assert len(bc4.d(2).column(c)) <= 3  # at most three distinct faces
    triv = bar_complex(make_cyclic(1), 3)
    assert triv.sizes == (1, 1, 1, 1)
    # boundaries alternate 0 and iso for the trivial group
    assert triv.d(1).is_zero() and not triv.d(2).is_zero()


def test_orbit_counts_against_burnside():
    for n in (3, 4, 5, 6):
        act = negation_action(n)
        for deg in range(4):
            data = tuple_orbits(act, deg)
            assert data.count == burnside_orbit_count(act, deg)
            assert sum(data.sizes) == n ** deg


def test_orbit_examples():
    act = negation_action(4)
    d1 = tuple_orbits(act, 1)
    assert d1.count == 3 and d1.reps == (0, 1, 2)
    assert tuple_orbits(act, 2).count == 10  # Burnside: (16 + 4)/2
    triv = trivial_action(make_cyclic(3))
    assert tuple_orbits(triv, 2).count == 9


def test_invariant_complex_examples():
    act = negation_action(4)
    inv = invariant_complex(act, 3)
    assert inv.sizes[1] == 3
    d2 = tuple_orbits(act, 2)
    pos = d2.orbit_of[encode_tuple(4, (1, 3))]
    col = {r: v for r, v in inv.d(2).column(pos)}
    d1 = tuple_orbits(act, 1)
    orbit1 = d1.orbit_of[1]
    orbit0 = d1.orbit_of[0]
    assert col == {orbit1: 2, orbit0: -2}
    # trivial action: identical to the bar complex
    triv = trivial_action(make_cyclic(3))
    assert invariant_complex(triv, 3).boundaries == bar_complex(make_cyclic(3), 3).boundaries


def test_coinvariant_examples():
    act = negation_action(4)
    co = coinvariant_complex(act, 3)
    assert co.sizes[1] == 3 and co.sizes[0] == 1
    d2 = tuple_orbits(act, 2)
    assert d2.orbit_of[encode_tuple(4, (1, 2))] == d2.orbit_of[encode_tuple(4, (3, 2))]


def test_norm_map_examples():
    act = negation_action(4)
    nm = norm_chain_map(act, 3)
    assert nm.mat(0).to_dense() == [[1]]
    d2 = tuple_orbits(act, 2)
    fixed_pos = d2.orbit_of[encode_tuple(4, (0, 2))]
    free_pos = d2.orbit_of[encode_tuple(4, (1, 2))]
    assert nm.mat(2).get(fixed_pos, fixed_pos) == 2
    assert nm.mat(2).get(free_pos, free_pos) == 1
    # norm factorization: inclusion . norm = literal sum of translates
    incl = invariant_inclusion_chain_map(act, 3)
    for n in range(1, 4):
        composite = incl.mat(n).mul(nm.mat(n))
        data = tuple_orbits(act, n)
        for pos in range(data.count):
            col = {r: v for r, v in composite.column(pos)}
            expected = {}
            rep = decode_tuple(4, n, data.reps[pos])
            for qi in range(act.q.order):
                key = encode_tuple(4, act.apply_tuple(qi, rep))
                expected[key] = expected.get(key, 0) + 1
            assert col == expected


def test_quotient_complex_examples():
    act = negation_action(4)
    dq = quotient_complex_D(act, 3)
    assert dq.sizes == (0, 2, 4, 8) and dq.modulus == 2
    dq5 = quotient_complex_D(negation_action(5), 3)
    assert dq5.sizes == (0, 1, 1, 1)
    triv = trivial_action(make_cyclic(3))
    dqt = quotient_complex_D(triv, 2)
    assert dqt.sizes == (0, 3, 9) and dqt.modulus == 2


def test_quotient_rejects_mixed_stabilizers():
    # Z/4 acting on Z/5 by x -> 2x has orbits with stabilizer orders 1 and 4
    # on degree-1 tuples; make a Z/4 action with a stabilizer of order 2:
    # act on Z/8 by x -> 3x (order 2 automorphism) extended... simpler:
    # Z/2 x Z/2 acting on Z/8: one factor negates, the other acts by x -> 5x.
    from invariant_chains.groups import make_action
    z8 = make_cyclic(8)
    q = make_product(make_cyclic(2), make_cyclic(2))
    neg = tuple((-x) % 8 for x in range(8))
    five = tuple((5 * x) % 8 for x in range(8))
    act = make_action(q, z8, {2: neg, 1: five})
    with pytest.raises(GroupConstructionError):
        quotient_complex_D(act, 2)


def test_norm_cokernel_bookkeeping():
    # Smith form of each norm matrix: coker invariants match the quotient slice
    act = negation_action(6)
    nm = norm_chain_map(act, 3)
    dq = quotient_complex_D(act, 3)
    for n in range(1, 4):
        s = smith_normal_form(nm.mat(n)).s
        assert all(f in (1, 2) for f in s)
        assert sum(1 for f in s if f == 2) == dq.sizes[n]
        assert len(s) == nm.mat(n).cols  # injective


def test_inclusion_chain_maps():
    act = negation_action(4)
    f = fixed_inclusion_chain_map(act, 3)
    assert f.source.sizes == (1, 2, 4, 8)  # bar complex of Z/2
    # [2|2] over the fixed subgroup lands on the singleton orbit [2|2]
    d2 = tuple_orbits(act, 2)
    col = f.mat(2).column(encode_tuple(2, (1, 1)))
    assert col == [(d2.orbit_of[encode_tuple(4, (2, 2))], 1)]
    i = invariant_inclusion_chain_map(act, 3)
    d1 = tuple_orbits(act, 1)
    col1 = {r: v for r, v in i.mat(1).column(d1.orbit_of[1])}
    assert col1 == {1: 1, 3: 1}


def test_subgroup_inclusions():
    z6 = make_cyclic(6)
    act = negation_action(6)
    k = generated_subgroup(z6, [3])
    j = subgroup_invariant_inclusion(act, k, 3)
    assert j.source.sizes[1] == 2  # bar of Z/2 under trivial action
    jb = subgroup_bar_inclusion(z6, k, 3)
    assert jb.mat(1).column(1) == [(3, 1)]


def test_s1_counterexample_complex():
    s1 = s1_counterexample_complex()
    assert s1.sizes == (1, 0, 0)
    assert s1.max_degree == 2


def test_reduced_copy():
    act = negation_action(4)
    inv = invariant_complex(act, 3)
    red = inv.reduced_copy()
    assert red.sizes[0] == 0 and red.sizes[1:] == inv.sizes[1:]
    assert red.d(1).rows == 0
    assert red.reduced


def test_invariant_ses_requires_prime_q():
    z8 = make_cyclic(8)
    from invariant_chains.groups import make_action
    q = make_product(make_cyclic(2), make_cyclic(2))
    neg = tuple((-x) % 8 for x in range(8))
    five = tuple((5 * x) % 8 for x in range(8))
    act = make_action(q, z8, {2: neg, 1: five})
    with pytest.raises(GroupConstructionError):
        invariant_ses(act, 2)


def test_quotient_chain_map_shapes():
    act = negation_action(4)
    proj = quotient_chain_map(act, 3)
    assert proj.mat(1).rows == 2 and proj.mat(1).cols == 3


def test_budget_estimation_and_rejection():
    assert estimate_build_bytes(8, 8) > 2 * 1024 ** 3
    with pytest.raises(BudgetExceededError):
        bar_complex(make_cyclic(4), 3, memory_budget=10)
    with pytest.raises(BudgetExceededError):
        invariant_complex(negation_action(4), 3, memory_budget=10)


def memoized_calls():
    """One call of each memoized builder, and of tuple_orbits, on small inputs."""
    g, act = make_cyclic(3), negation_action(3)
    return [lambda **kw: bar_complex(g, 3, **kw),
            lambda **kw: invariant_complex(act, 3, **kw),
            lambda **kw: coinvariant_complex(act, 3, **kw),
            lambda **kw: quotient_complex_D(act, 3, **kw),
            lambda **kw: invariant_ses(act, 3, **kw),
            lambda: tuple_orbits(act, 2)]


def test_budget_is_checked_on_memo_hits():
    for build in memoized_calls()[:5]:
        build()
        with pytest.raises(BudgetExceededError):
            build(memory_budget=10)


def test_memo_key_leaves_out_the_budget():
    act = negation_action(3)
    assert invariant_complex(act, 3) is invariant_complex(act, 3, memory_budget=2 * 1024 ** 3)
    assert bar_complex(act.g, 3, memory_budget=10 ** 12) is bar_complex(act.g, 3)


def test_clear_caches_empties_the_memo():
    calls = memoized_calls()
    before = [call() for call in calls]
    prof = homology(before[1])
    assert all(call() is old for call, old in zip(calls, before))
    assert homology(before[1]) is prof
    clear_caches()
    assert all(call() is not old for call, old in zip(calls, before))
    assert homology(before[1]) is not prof


def test_no_function_keeps_a_cache_of_its_own():
    # an lru_cache anywhere in the package would escape clear_caches()
    for info in pkgutil.iter_modules(invariant_chains.__path__):
        module = importlib.import_module(f"invariant_chains.{info.name}")
        for name, obj in vars(module).items():
            for member in (vars(obj).values() if isinstance(obj, type) else (obj,)):
                assert not hasattr(member, "cache_info"), f"{info.name}.{name}"


def test_slice_serialization_round_trip():
    act = negation_action(4)
    for slice_ in (invariant_complex(act, 3), quotient_complex_D(act, 3),
                   bar_complex(make_cyclic(3), 2)):
        data = json.loads(json.dumps(slice_to_json(slice_)))
        back = slice_from_json(data)
        assert back.sizes == slice_.sizes
        assert back.boundaries == slice_.boundaries
        assert back.modulus == slice_.modulus
        assert back.basis == slice_.basis


def test_orbit_members_and_labels():
    act = negation_action(5)
    assert orbit_members(act, 1, 1) == [1, 4]
    inv = invariant_complex(act, 2)
    assert inv.basis[1].label(0) == "orbit[0]"
    bc = bar_complex(make_cyclic(3), 2)
    assert bc.basis[2].label(encode_tuple(3, (1, 2))) == "[1|2]"
