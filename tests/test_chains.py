"""Bar complexes, orbit complexes, norm/quotient, budgets."""

import importlib
import itertools
import math
import pkgutil
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invariant_chains
from invariant_chains import chains
from invariant_chains.chains import (ComplexSlice, OrbitData, _expand_orbit_boundary,
                                     _finish_slice, _memo, _orbit_coords, bar_boundary,
                                     bar_complex, burnside_orbit_count,
                                     clear_caches, coinvariant_complex, commutes, dd_zero,
                                     decode_tuple, encode_tuple, estimate_build_bytes,
                                     fixed_inclusion_chain_map, invariant_complex,
                                     invariant_inclusion_chain_map, invariant_ses,
                                     make_chain_map, norm_chain_map, orbit_members,
                                     quotient_chain_map, quotient_complex_D,
                                     s1_counterexample_complex, subgroup_bar_inclusion,
                                     subgroup_invariant_inclusion, tuple_orbits)
from invariant_chains.errors import BudgetExceededError, GroupConstructionError, \
    InternalCheckError
from invariant_chains.groups import (_validate_group, action_from_permutations,
                                     generated_subgroup, make_cyclic, make_product,
                                     negation_action, parse_action_spec, parse_group_spec,
                                     trivial_action)
from invariant_chains.homology import homology
from invariant_chains.linalg import SparseIntMatrix, smith_normal_form


def apply_tuple(action, qi, t):
    """The tuple t moved by the q-element qi, entry by entry."""
    p = action.perm[qi]
    return tuple(p[x] for x in t)


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
        assert len(bc4.d(2).columns[c]) <= 3  # at most three distinct faces
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
    col = inv.d(2).columns[pos]
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
            col = composite.columns[pos]
            expected = {}
            rep = decode_tuple(4, n, data.reps[pos])
            for qi in range(act.q.order):
                key = encode_tuple(4, apply_tuple(act, qi, rep))
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
    col = f.mat(2).columns[encode_tuple(2, (1, 1))]
    assert col == {d2.orbit_of[encode_tuple(4, (2, 2))]: 1}
    i = invariant_inclusion_chain_map(act, 3)
    d1 = tuple_orbits(act, 1)
    col1 = i.mat(1).columns[d1.orbit_of[1]]
    assert col1 == {1: 1, 3: 1}


def test_subgroup_inclusions():
    z6 = make_cyclic(6)
    act = negation_action(6)
    k = generated_subgroup(z6, [3])
    j = subgroup_invariant_inclusion(act, k, 3)
    assert j.source.sizes[1] == 2  # bar of Z/2 under trivial action
    jb = subgroup_bar_inclusion(z6, k, 3)
    assert jb.mat(1).columns[1] == {3: 1}


def test_s1_counterexample_complex():
    s1 = s1_counterexample_complex()
    assert s1.sizes == (1, 0, 0)
    assert s1.max_degree == 2


def test_slice_with_nonzero_dd_is_refused_at_construction():
    d1 = SparseIntMatrix.from_dense([[1, 1]])
    d2 = SparseIntMatrix.from_dense([[1], [1]])
    with pytest.raises(InternalCheckError, match=r"d \. d != 0 in broken"):
        _finish_slice("broken", "test", 2, (1, 2, 1), (d1, d2))
    # the same boundaries compose to 0 over Z/2
    assert dd_zero(_finish_slice("mod-2", "test", 2, (1, 2, 1), (d1, d2), modulus=2))
    # homology re-exports the one check
    assert importlib.import_module("invariant_chains.homology").dd_zero is dd_zero


def test_invariant_builder_checks_every_orbit_for_constancy(monkeypatch):
    calls = []

    def counting(acc, lower, what):
        calls.append(lower.degree)
        return orbit_coords(acc, lower, what)

    orbit_coords = chains._orbit_coords
    monkeypatch.setattr(chains, "_orbit_coords", counting)
    act = negation_action(4)
    clear_caches()
    invariant_complex(act, 4)
    # one call per orbit of each degree n = 1..4, read off the orbits of n - 1
    assert sorted(calls) == [n - 1 for n in range(1, 5) for _ in range(tuple_orbits(act, n).count)]
    clear_caches()


def test_chain_maps_are_checked_for_commutation():
    norm = norm_chain_map(negation_action(4), 3)
    assert all(commutes(norm, n) for n in range(1, 4))
    # doubling N_2 breaks d_2 . N_2 = N_1 . d_2 first
    mats = list(norm.mats)
    mats[2] = SparseIntMatrix._trusted(mats[2].rows, mats[2].cols,
                                       [{r: 2 * v for r, v in col.items()}
                                        for col in mats[2].columns])
    with pytest.raises(InternalCheckError, match="broken does not commute with d at degree 2"):
        make_chain_map("broken", norm.source, norm.target, mats)


def _materialized_vanishes(terms, modulus):
    """The reference for `_vanishes`: form every product, add, reduce, test."""
    total = SparseIntMatrix.zero(terms[0][1].rows, terms[0][2].cols)
    for sign, a, b in terms:
        prod = a.mul(b)
        total = SparseIntMatrix(total.rows, total.cols, [
            {r: col.get(r, 0) + sign * pcol.get(r, 0) for r in col.keys() | pcol.keys()}
            for col, pcol in zip(total.columns, prod.columns)])
    if modulus:
        total = total.to_mod(modulus)
    return total.is_zero()


@st.composite
def product_sums(draw):
    """(terms, modulus): a sum of signed products of small random matrices.

    The sums are one product, A.B - A.B, A.B - (A.E)(E^-1.B) for a
    transvection E, or a random pair; the entries are mostly within the
    sorted-list bound, sometimes far beyond it.
    """
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    big = draw(st.booleans())
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12)) if big \
        else st.sampled_from([-2, -1, -1, 0, 0, 0, 1, 1, 2])

    def matrix(r, c):
        return SparseIntMatrix.from_dense([[draw(entry) for _ in range(c)] for _ in range(r)], c)

    a, b = matrix(rows, inner), matrix(inner, cols)
    kind = draw(st.sampled_from(["one", "same", "transvection", "pair"]))
    if kind == "one":
        terms = [(1, a, b)]
    elif kind == "same":
        terms = [(1, a, b), (-1, a, b)]
    elif kind == "transvection" and inner >= 2:
        i, j = draw(st.permutations(range(inner)))[:2]
        k = draw(st.sampled_from([-2, -1, 1, 3]))
        e = SparseIntMatrix.from_entries(inner, inner, {**{(x, x): 1 for x in range(inner)},
                                                        (i, j): k})
        e_inv = SparseIntMatrix.from_entries(inner, inner, {**{(x, x): 1 for x in range(inner)},
                                                            (i, j): -k})
        terms = [(1, a, b), (-1, a.mul(e), e_inv.mul(b))]
    else:
        terms = [(1, a, b), (draw(st.sampled_from([1, -1])), matrix(rows, inner + 1),
                             matrix(inner + 1, cols))]
    return terms, draw(st.sampled_from([0, 2, 3, 5]))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(product_sums())
def test_vanishes_matches_materialized_products(case):
    terms, modulus = case
    assert chains._vanishes(terms, modulus) == _materialized_vanishes(terms, modulus)


def test_vanishes_cancels_across_coefficients():
    # +2 in one row against two -1 terms in that row: the sorted row lists
    # read [0, 0] on both sides, once with the 2 in A and once with it in B
    ones = SparseIntMatrix.from_dense([[1], [1], [1]])
    cases = [
        ([(1, SparseIntMatrix.from_dense([[2, -1, -1]]), ones)], True),
        ([(1, SparseIntMatrix.from_dense([[1, -1, -1]]),
           SparseIntMatrix.from_dense([[2], [1], [1]]))], True),
        ([(1, SparseIntMatrix.from_dense([[2, -1, 0]]), ones)], False),
        # a repeat of 2 is not a repeat of 1, in A or in B, on either side
        ([(1, SparseIntMatrix.from_dense([[1, -1, 0]]),
           SparseIntMatrix.from_dense([[2], [1], [0]]))], False),
        ([(1, SparseIntMatrix.from_dense([[1, -1, 0]]),
           SparseIntMatrix.from_dense([[-1], [-2], [0]]))], False),
        ([(-1, SparseIntMatrix.from_dense([[-2, 1, 0]]), ones)], False),
        # an entry beyond the sorted-list bound is summed exactly
        ([(1, SparseIntMatrix.from_dense([[5, -2, -3]]), ones)], True),
        ([(1, SparseIntMatrix.from_dense([[5, -2, -2]]), ones)], False),
    ]
    for terms, zero in cases:
        assert chains._vanishes(terms, 0) is zero
        assert _materialized_vanishes(terms, 0) is zero


def _flip(m, r, c):
    """m with the sign of entry (r, c) flipped."""
    columns = list(m.columns)
    columns[c] = {**columns[c], r: -columns[c][r]}
    return SparseIntMatrix._trusted(m.rows, m.cols, columns)


@pytest.mark.parametrize("build, size", [
    (lambda: invariant_complex(negation_action(4), 6), 2),
    (lambda: bar_complex(make_cyclic(5), 5), 1),
])
def test_one_flipped_sign_in_d4_is_refused(build, size):
    clear_caches()
    slc = build()
    d3, d4 = slc.d(3), slc.d(4)
    r, c = next((r, c) for c, col in enumerate(d4.columns) for r, v in col.items()
                if abs(v) == size and d3.columns[r])
    boundaries = list(slc.boundaries)
    boundaries[3] = _flip(d4, r, c)
    assert not dd_zero(replace(slc, boundaries=tuple(boundaries)))
    with pytest.raises(InternalCheckError, match=r"d \. d != 0 in broken"):
        _finish_slice("broken", "test", slc.max_degree, slc.sizes, boundaries)
    clear_caches()


def test_one_changed_entry_of_an_inclusion_is_refused():
    clear_caches()
    incl = invariant_inclusion_chain_map(negation_action(4), 4)
    d3 = incl.target.d(3)
    f3 = incl.mat(3)
    r, c = next((r, c) for c, col in enumerate(f3.columns) for r in col
                if set(col.values()) <= {1, -1} and d3.columns[r])
    mats = list(incl.mats)
    mats[3] = _flip(f3, r, c)
    with pytest.raises(InternalCheckError, match="broken does not commute with d at degree 3"):
        make_chain_map("broken", incl.source, incl.target, mats)
    clear_caches()


def test_checks_form_no_product(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a check formed, reduced or compared a whole matrix")

    for name in ("mul", "__matmul__", "to_mod", "is_zero", "__eq__"):
        monkeypatch.setattr(SparseIntMatrix, name, refuse)
    clear_caches()
    slices = []
    for make, spec, top in (("invariant", 3, 6), ("invariant", 5, 5), ("invariant", 6, 5),
                            ("invariant", 4, 6), ("invariant", 8, 4), ("coinvariant", 4, 5),
                            ("bar", 5, 5)):
        if make == "bar":
            slices.append(bar_complex(make_cyclic(spec), top))
        else:
            build = invariant_complex if make == "invariant" else coinvariant_complex
            slices.append(build(negation_action(spec), top))
    act = negation_action(4)
    maps = [norm_chain_map(act, 5), quotient_chain_map(act, 5),
            fixed_inclusion_chain_map(act, 5), invariant_inclusion_chain_map(act, 5)]
    slices += [s for f in maps for s in (f.source, f.target)]
    assert all(dd_zero(s) for s in slices)
    assert all(commutes(f, n) for f in maps for n in range(1, f.max_degree + 1))
    clear_caches()


def test_dd_zero_refuses_mismatched_shapes():
    d1 = SparseIntMatrix.from_dense([[1, 1]])
    d2 = SparseIntMatrix.from_dense([[1], [1], [1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        dd_zero(ComplexSlice("bad", "test", 2, (1, 2, 3), (d1, d2)))


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


def test_trivial_q_gives_the_zero_cokernel():
    # every orbit of the trivial group is free, so coker N is the zero complex
    act = trivial_action(make_cyclic(5), make_cyclic(1))
    dq = quotient_complex_D(act, 3)
    assert dq.sizes == (0, 0, 0, 0) and dq.modulus == 0
    assert dq.name == "norm-cokernel(cyclic:1 on cyclic:5)"
    proj = quotient_chain_map(act, 3)
    assert [(m.rows, m.cols) for m in proj.mats] == [(0, 1), (0, 5), (0, 25), (0, 125)]


def test_cokernel_torsion_must_be_prime():
    # Aut(Z/7) = Z/6 fixes only 0, so the degree-1 tuple (0,) has stabilizer 6
    act = action_from_permutations(make_cyclic(7), [[0, 3, 6, 2, 5, 1, 4]])
    with pytest.raises(GroupConstructionError, match="norm cokernel torsion 6 is not prime"):
        quotient_complex_D(act, 2)


def test_budget_estimation_and_rejection():
    assert estimate_build_bytes([8 ** n for n in range(9)]) > 2 * 1024 ** 3
    with pytest.raises(BudgetExceededError):
        bar_complex(make_cyclic(4), 3, memory_budget=10)
    with pytest.raises(BudgetExceededError):
        invariant_complex(negation_action(4), 3, memory_budget=10)


def test_action_builders_are_budgeted_by_orbits():
    g, act = make_cyclic(4), negation_action(4)
    tuples = estimate_build_bytes([4 ** n for n in range(4)])
    orbits = estimate_build_bytes([burnside_orbit_count(act, n) for n in range(4)])
    # Burnside: (4^n + 2^n) / 2 orbits of negation on Z/4, 1, 3, 10 and 36
    assert orbits == 150 * (1 + 2 * 3 + 3 * 10 + 4 * 36) < tuples
    for build in (invariant_complex, coinvariant_complex):
        assert build(act, 3, memory_budget=orbits).sizes == (1, 3, 10, 36)
        with pytest.raises(BudgetExceededError):
            build(act, 3, memory_budget=orbits - 1)
    with pytest.raises(BudgetExceededError):
        bar_complex(g, 3, memory_budget=orbits)
    # the sum stops at the first degree past the budget
    assert estimate_build_bytes([1, 10, 10 ** 6], budget=1000) == 150 * (1 + 2 * 10)


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


def test_memo_holds_no_index_tables():
    # face and action tables live for one builder call; the memo keeps results
    act = negation_action(6)
    clear_caches()
    invariant_complex(act, 4)
    keys = {(invariant_complex.__wrapped__, act, 4)} | {("orbits", act, n) for n in range(5)}
    assert set(_memo) == keys
    assert all(isinstance(v, (ComplexSlice, OrbitData)) for v in _memo.values())


def dihedral6():
    """S_3 as rotations r and flips f, element f*3 + r; not abelian."""
    mul = [[0] * 6 for _ in range(6)]
    for r1 in range(3):
        for f1 in range(2):
            for r2 in range(3):
                for f2 in range(2):
                    r = (r1 + (r2 if f1 == 0 else -r2)) % 3
                    mul[f1 * 3 + r1][f2 * 3 + r2] = ((f1 + f2) % 2) * 3 + r
    return _validate_group(6, mul, "dihedral6")


def conjugation_action(g):
    return action_from_permutations(g, [[g.mul(g.mul(x, y), g.inv(x)) for y in g.elements()]
                                        for x in g.elements()])


def tuple_path_orbits(action, n):
    """(reps, sizes, orbit_of) by decoding, moving and encoding every tuple."""
    order = action.g.order
    orbit_of = [-1] * order ** n
    reps, sizes = [], []
    for idx in range(order ** n):
        if orbit_of[idx] < 0:
            t = decode_tuple(order, n, idx)
            members = {encode_tuple(order, apply_tuple(action, q, t))
                       for q in range(action.q.order)}
            for mem in members:
                orbit_of[mem] = len(reps)
            reps.append(min(members))
            sizes.append(len(members))
    return tuple(reps), tuple(sizes), tuple(orbit_of)


@pytest.mark.parametrize("make", [
    lambda: conjugation_action(dihedral6()),
    lambda: parse_action_spec("negation", parse_group_spec("product:cyclic:2,cyclic:4")),
    lambda: parse_action_spec("negation", make_cyclic(1)),
], ids=["dihedral6-conjugation", "cyclic2xcyclic4-negation", "cyclic1"])
def test_index_tables_agree_with_the_tuple_path(make):
    act = make()
    g, order, top = act.g, act.g.order, 4
    assert act.q.order > 1 or order == 1
    clear_caches()
    bar = bar_complex(g, top)
    inv = invariant_complex(act, top)
    coinv = coinvariant_complex(act, top)
    data = [tuple_orbits(act, n) for n in range(top + 1)]
    for n in range(top + 1):
        assert (data[n].reps, data[n].sizes, data[n].orbit_of) == tuple_path_orbits(act, n)
        assert data[n].count == burnside_orbit_count(act, n)
    for n in range(1, top + 1):
        lower = data[n - 1]
        bar_cols = [{encode_tuple(order, f): v
                     for f, v in bar_boundary(g, decode_tuple(order, n, i)).items()}
                    for i in range(order ** n)]
        inv_cols = [_orbit_coords(_expand_orbit_boundary(act, n, rep), lower, "test")
                    for rep in data[n].reps]
        coinv_cols = []
        for rep in data[n].reps:
            col = {}
            for f, v in bar_cols[rep].items():
                pos = lower.orbit_of[f]
                col[pos] = col.get(pos, 0) + v
                if not col[pos]:
                    del col[pos]
            coinv_cols.append(col)
        for slice_, cols in ((bar, bar_cols), (inv, inv_cols), (coinv, coinv_cols)):
            d = slice_.d(n)
            assert (d.rows, d.cols) == (lower.count if slice_ is not bar else order ** (n - 1),
                                        len(cols))
            assert [list(col.items()) for col in d.columns] == [list(col.items()) for col in cols]


@st.composite
def perm_actions(draw):
    """An action_from_permutations on a cyclic or product group of order <= 12.

    Each generator multiplies every cyclic factor by a unit, then may swap
    two equal factors.
    """
    if draw(st.booleans()):
        factors = [draw(st.integers(1, 12))]
    else:
        a = draw(st.integers(2, 6))
        factors = [a, draw(st.integers(2, 12 // a))]
    cyclic = [make_cyclic(f) for f in factors]
    g = cyclic[0] if len(cyclic) == 1 else make_product(*cyclic)
    perms = []
    for _ in range(draw(st.integers(1, 2))):
        units = [draw(st.sampled_from([u for u in range(f) if math.gcd(u, f) == 1]))
                 for f in factors]
        swap = len(factors) == 2 and factors[0] == factors[1] and draw(st.booleans())
        perm = []
        for digits in itertools.product(*map(range, factors)):  # g's element order
            moved = [u * x % f for u, x, f in zip(units, digits, factors)]
            if swap:
                moved.reverse()
            idx = 0
            for x, f in zip(moved, factors):
                idx = idx * f + x
            perm.append(idx)
        perms.append(perm)
    return action_from_permutations(g, perms)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(perm_actions())
def test_table_builders_on_random_perm_actions(act):
    g, top = act.g, 3
    inv = invariant_complex(act, top)
    data = [tuple_orbits(act, n) for n in range(top + 1)]
    for n in range(top + 1):
        assert (data[n].reps, data[n].sizes, data[n].orbit_of) == tuple_path_orbits(act, n)
        assert data[n].count == burnside_orbit_count(act, n)
    for n in range(1, top + 1):
        assert inv.d(n).columns == [_orbit_coords(_expand_orbit_boundary(act, n, rep),
                                                  data[n - 1], "test")
                                    for rep in data[n].reps]
    triv = trivial_action(g)
    assert homology(invariant_complex(triv, top)).rows() == homology(bar_complex(g, top)).rows()


def test_orbit_members_and_labels():
    act = negation_action(5)
    assert orbit_members(act, 1, 1) == [1, 4]
