"""Homology profiles, induced maps, actions on homology, the connecting map
and exactness reports."""

import importlib

import pytest

from invariant_chains.chains import (ComplexSlice, bar_complex, clear_caches,
                                     coinvariant_complex, invariant_complex,
                                     invariant_inclusion_chain_map, invariant_ses,
                                     fixed_inclusion_chain_map, make_chain_map, norm_chain_map,
                                     quotient_complex_D, s1_counterexample_complex,
                                     subgroup_bar_inclusion)
from invariant_chains.errors import InternalCheckError
from invariant_chains.groups import (generated_subgroup, make_cyclic, negation_action,
                                     trivial_action)
from invariant_chains.homology import (HomologyProfile, LesNode, action_on_homology,
                                       connecting_homomorphism, dd_zero, exactness_check,
                                       fixed_homology, homology, induced_map,
                                       invariant_les, uct_crosscheck)
from invariant_chains.linalg import (AbelianHom, FgAbelianGroup, SparseIntMatrix,
                                     image_of_hom, invariant_factors, kernel_of_hom,
                                     rank_mod_p)


def groups_str(prof, lo, hi):
    return [str(prof.group(n)) for n in range(lo, hi + 1)]


def test_classical_cyclic_tables():
    prof3 = homology(bar_complex(make_cyclic(3), 6))
    assert groups_str(prof3, 1, 5) == ["Z/3", "0", "Z/3", "0", "Z/3"]
    prof4 = homology(bar_complex(make_cyclic(4), 4))
    assert groups_str(prof4, 1, 3) == ["Z/4", "0", "Z/4"]
    prof1 = homology(bar_complex(make_cyclic(1), 4))
    assert groups_str(prof1, 1, 3) == ["0", "0", "0"]


def test_degree_zero_is_z_for_all_standard_complexes():
    act = negation_action(4)
    for slc in (bar_complex(make_cyclic(4), 2), invariant_complex(act, 2),
                coinvariant_complex(act, 2)):
        assert homology(slc).group(0) == FgAbelianGroup(1, ())


def test_invariant_degree_one_for_multiple_of_four():
    for n in (4, 8, 12):
        prof = homology(invariant_complex(negation_action(n), 2))
        assert prof.group(1) == FgAbelianGroup(0, (2, 2))


def test_generator_reduce_unit_property():
    slc = invariant_complex(negation_action(4), 4)
    for coeff in (0, 2, 3):
        prof = homology(slc, coeff)
        for deg in range(1, 4):
            gens = prof.generators(deg)
            assert len(gens) == prof.group(deg).ngens
            for i, g in enumerate(gens):
                coords = prof.reduce(deg, g)
                assert coords == tuple(1 if j == i else 0 for j in range(len(gens)))
            # every boundary reduces to zero
            d_up = slc.d(deg + 1)
            for column in d_up.columns:
                col = [0] * slc.sizes[deg]
                for r, v in column.items():
                    col[r] = v
                assert not any(prof.reduce(deg, col))


def test_mod_p_profile_cross_checked_and_composite_uct():
    bar = bar_complex(make_cyclic(6), 4)
    prof2 = homology(bar, 2)
    assert [str(g) for g in prof2.groups()] == ["Z/2", "Z/2", "Z/2", "Z/2"]
    assert homology(bar).group_with_coefficients(2, 2) == prof2.group(2)
    prof6 = homology(bar, 6)  # composite: universal coefficients only
    assert [str(g) for g in prof6.groups()] == ["Z/6", "Z/6", "Z/6", "Z/6"]
    with pytest.raises(ValueError):
        prof6.generators(1)


def test_mod_p_on_quotient_slice():
    dq = quotient_complex_D(negation_action(4), 4)
    prof = homology(dq)
    # reduced mod-2 homology of Z/2 in every positive degree
    assert [str(prof.group(n)) for n in range(1, 4)] == ["Z/2", "Z/2", "Z/2"]
    # one profile per ring: naming the slice's own modulus finds it again
    assert homology(dq, dq.modulus) is prof
    with pytest.raises(ValueError):
        homology(dq, 3)


def test_induced_identity_map():
    act = negation_action(4)
    inv = invariant_complex(act, 3)
    prof = homology(inv)
    ident = make_chain_map("id", inv, inv,
                           [SparseIntMatrix.identity(s) for s in inv.sizes])
    for deg in (1, 2):
        assert induced_map(ident, prof, prof, deg) == AbelianHom.identity(prof.group(deg))


def test_induced_map_stays_in_the_source_ring():
    bar = bar_complex(make_cyclic(4), 3)
    ident = make_chain_map("id", bar, bar, [SparseIntMatrix.identity(s) for s in bar.sizes])
    over_z, over_2, over_3 = homology(bar), homology(bar, 2), homology(bar, 3)
    with pytest.raises(ValueError, match="cannot induce from a Z/2 profile into a Z one"):
        induced_map(ident, over_2, over_z, 1)
    with pytest.raises(ValueError, match="cannot induce from a Z/2 profile into a Z/3 one"):
        induced_map(ident, over_2, over_3, 1)
    # Z -> Z/2 is reduction mod 2: H_1 = Z/4 onto Z/2
    reduction = induced_map(ident, over_z, over_2, 1)
    assert (reduction.source, reduction.target) == (FgAbelianGroup(0, (4,)),
                                                    FgAbelianGroup(0, (2,)))
    assert image_of_hom(reduction).order() == 2


def test_istar_iso_for_odd_cyclic_degree_three():
    act = negation_action(3)
    incl = invariant_inclusion_chain_map(act, 4)
    inv_prof = homology(incl.source)
    bar_prof = homology(incl.target)
    i3 = induced_map(incl, inv_prof, bar_prof, 3)
    assert kernel_of_hom(i3).order() == 1
    fixed = fixed_homology(act, bar_prof, 3)
    assert image_of_hom(i3).same_subgroup(fixed)
    assert fixed.group == FgAbelianGroup(0, (3,))


def test_fstar_image_has_order_two_and_matches_classical_inclusion():
    # the fixed-subgroup class [2] stays nonzero in the invariant homology of
    # the order-4 group: its image under the full inclusion is 2 in Z/4
    act = negation_action(4)
    f = fixed_inclusion_chain_map(act, 2)
    f_star = induced_map(f, homology(f.source), homology(f.target), 1)
    assert image_of_hom(f_star).order() == 2
    # classical oracle: H_1(Z/2) -> H_1(Z/4) induced by inclusion is 1 -> 2
    z4 = make_cyclic(4)
    k = generated_subgroup(z4, [2])
    jb = subgroup_bar_inclusion(z4, k, 2)
    j_star = induced_map(jb, homology(jb.source), homology(jb.target), 1)
    assert image_of_hom(j_star).order() == 2


def test_action_on_homology_z5():
    act = negation_action(5)
    prof = homology(bar_complex(make_cyclic(5), 5))
    auts1 = action_on_homology(act, prof, 1)
    assert auts1[1] == AbelianHom.scalar(prof.group(1), -1)
    assert fixed_homology(act, prof, 1).order() == 1
    auts3 = action_on_homology(act, prof, 3)
    assert auts3[1] == AbelianHom.identity(prof.group(3))
    assert fixed_homology(act, prof, 3).group == FgAbelianGroup(0, (5,))


def test_action_on_homology_trivial_action():
    g = make_cyclic(4)
    prof = homology(bar_complex(g, 3))
    for hom in action_on_homology(trivial_action(g), prof, 1):
        assert hom == AbelianHom.identity(prof.group(1))


def test_connecting_maps_vanish_for_free_fixed_part():
    ses = invariant_ses(negation_action(5), 4)
    d_prof = homology(ses.quotient)
    for n in range(1, 4):
        # only the identity tuple is fixed: cokernel homology vanishes
        assert d_prof.group(n).is_trivial()
        assert connecting_homomorphism(ses, n).is_zero_map()


def test_les_exact_for_z4():
    ses = invariant_ses(negation_action(4), 4)
    les = invariant_les(ses, 3)
    report = exactness_check(les)
    assert report.ok
    labels = [r.label for r in report.records]
    assert "h_2(coker N)" in labels and "H~_1(invariants)" in labels


def test_invariant_ses_is_made_of_the_built_complexes():
    act = negation_action(4)
    ses = invariant_ses(act, 4)
    assert ses.invariants is invariant_complex(act, 4)
    assert ses.coinvariants is coinvariant_complex(act, 4)
    assert ses.quotient is quotient_complex_D(act, 4)
    assert ses.norm.mats == norm_chain_map(act, 4).mats
    les = invariant_les(ses, 3)
    assert les.labels[-1] == "H_0(orbit space)"
    assert les.groups[-1] == FgAbelianGroup(1, ())
    assert les.maps[-1].is_zero_map()
    assert exactness_check(les).ok


def test_les_at_top_degree_zero_is_one_node():
    les = invariant_les(invariant_ses(negation_action(4), 1), 0)
    assert les.labels == ["H_0(orbit space)"]
    assert les.groups == [FgAbelianGroup(1, ())] and les.maps == []
    assert exactness_check(les).records == []


def test_exactness_negative_control():
    # corrupt one map of an exact sequence: report must flag it
    ses = invariant_ses(negation_action(4), 4)
    les = invariant_les(ses, 2)
    good = exactness_check(les)
    assert good.ok
    bad_maps = list(les.maps)
    target = bad_maps[1]
    zeroed = AbelianHom.zero(target.source, target.target)
    bad_maps[1] = zeroed
    bad = LesNode(les.labels, les.groups, bad_maps)
    assert not exactness_check(bad).ok


def test_quotient_homology_matches_fixed_subgroup_reduced():
    for n in (4, 6):
        act = negation_action(n)
        d_prof = homology(quotient_complex_D(act, 4))
        sub_prof = homology(bar_complex(make_cyclic(2), 4), 2)
        for deg in range(1, 4):
            assert d_prof.group(deg) == sub_prof.group(deg)


def test_orbit_space_equals_invariants_when_fixed_part_trivial():
    ses = invariant_ses(negation_action(5), 4)
    co_prof = homology(ses.coinvariants)
    inv_prof = homology(ses.invariants)
    for deg in range(1, 4):
        assert co_prof.group(deg) == inv_prof.group(deg)


def test_uct_crosscheck_on_standard_complexes():
    act = negation_action(4)
    for slc in (bar_complex(make_cyclic(6), 3), invariant_complex(act, 4),
                coinvariant_complex(act, 4)):
        for rec in uct_crosscheck(slc, primes=(2, 3, 5, 7)):
            assert rec.ok
        assert dd_zero(slc)


def test_uct_crosscheck_on_inv_z4_degree_8():
    slc = invariant_complex(negation_action(4), 8)
    assert all(rec.ok for rec in uct_crosscheck(slc, primes=(2, 3)))
    # a value this package computes, pinned so that a change to it shows;
    # it is not taken from the paper's tables
    assert homology(slc).group(7) == FgAbelianGroup(0, (2,) * 5)


def test_generators_of_z8_keep_small_coefficients(monkeypatch):
    # generator data over Z takes unit pivots first, as the profiles do;
    # with a plain fewest-nonzeros rule the transforms of inv(Z/8) grew to
    # 311,922-bit entries in degree 3, and those of coinv(Z/8) did not finish
    linalg = importlib.import_module("invariant_chains.linalg")
    homology_module = importlib.import_module("invariant_chains.homology")
    widest = [0]

    class Recording(linalg._SnfEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for ws in (self.u, self.u_inv, self.v):
                if ws is not None:
                    widest[0] = max([widest[0]] + [abs(v).bit_length()
                                                   for line in ws.lines for v in line.values()])

    monkeypatch.setattr(linalg, "_SnfEngine", Recording)
    monkeypatch.setattr(homology_module, "_SnfEngine", Recording)
    clear_caches()
    act = negation_action(8)
    for slc in (invariant_complex(act, 4), coinvariant_complex(act, 4)):
        prof = homology(slc)
        gens = prof.generators(3)
        assert len(gens) == prof.group(3).ngens
        assert all(abs(x).bit_length() < 64 for g in gens for x in g)
    assert 0 < widest[0] < 64
    clear_caches()


def test_invariantiso_for_invertible_coefficients():
    # invariant homology with A = Z/5 equals the fixed classes of H(G; Z/5)
    act = negation_action(5)
    inv_prof = homology(invariant_complex(act, 4), 5)
    bar_prof = homology(bar_complex(make_cyclic(5), 4), 5)
    for deg in range(1, 4):
        fixed = fixed_homology(act, bar_prof, deg)
        assert fixed.group == inv_prof.group(deg)


def test_s1_counterexample_vs_truncation_contrast():
    prof = homology(s1_counterexample_complex())
    assert prof.group(0) == FgAbelianGroup(1, ())
    assert prof.group(1).is_trivial()


def test_trivial_action_profile_matches_classical():
    g = make_cyclic(5)
    inv_prof = homology(invariant_complex(trivial_action(g), 3))
    bar_prof = homology(bar_complex(g, 3))
    for deg in range(3):
        assert inv_prof.group(deg) == bar_prof.group(deg)


def test_reduce_rejects_non_cycles():
    slc = bar_complex(make_cyclic(4), 3)
    for coeff in (0, 2):
        prof = homology(slc, coeff)
        prof.group(1)
        non_cycle = [0] * 16
        non_cycle[1] = 1  # [0|1] alone is not a cycle in degree 2
        with pytest.raises(InternalCheckError, match="not a cycle"):
            prof.reduce(2, non_cycle)


def test_boundary_that_is_not_a_cycle_is_caught():
    # d_1 * d_2 != 0, which the builders never produce: generator data must
    # refuse it in both rings
    d1 = SparseIntMatrix.from_dense([[1, 0]])
    d2 = SparseIntMatrix.from_dense([[1], [0]])
    slc = ComplexSlice("broken", "test", 2, (1, 2, 1), (d1, d2))
    for coeff in (0, 2):
        prof = HomologyProfile(slc, coeff)
        with pytest.raises(InternalCheckError, match="boundary column is not a cycle"):
            prof.generators(1)


@pytest.mark.parametrize("mod", [0, 2])
def test_a_skipped_row_that_is_not_redundant_is_caught(monkeypatch, mod):
    # d_3 of bar(Z/3) skips the rows d_2 cleared; add one more row whose loss
    # lowers the rank.  The generator data reduces the boundaries in its own
    # pass, which never reads the profile's cleared columns, so its presented
    # group disagrees with the profile's.
    bar = bar_complex(make_cyclic(3), 4)
    slc = ComplexSlice("bar(Z/3)", "test", 4, bar.sizes, bar.boundaries, mod)
    d2, d3 = slc.d(2), slc.d(3)
    homology_module = importlib.import_module("invariant_chains.homology")

    def rank(d, skip=(), cleared=None):
        return (rank_mod_p(d, mod, skip_rows=skip, cleared=cleared) if mod
                else len(invariant_factors(d, skip_rows=skip, cleared=cleared)))

    cleared = []
    rank(d2, cleared=cleared)
    full = rank(d3, cleared)
    extra = next(i for i in range(d3.rows) if i not in cleared and rank(d3, cleared + [i]) < full)
    expected = HomologyProfile(slc, mod).group(3)

    def widening(real):
        def run(d, *args, cleared, **kwargs):
            out = real(d, *args, cleared=cleared, **kwargs)
            if d is d2:
                cleared.append(extra)
            return out
        return run

    for name in ("invariant_factors", "rank_mod_p"):
        monkeypatch.setattr(homology_module, name, widening(getattr(homology_module, name)))
    prof = HomologyProfile(slc, mod)
    assert prof.group(3) != expected
    with pytest.raises(InternalCheckError,
                       match="generator presentation at degree 3 disagrees"):
        prof.generators(3)


# ---------------------------------------------------------------------------
# generator data on the Morse complex: each inline check catches its fault


def test_builder_slices_skip_the_dd_guard_and_hand_built_ones_run_it(monkeypatch):
    homology_module = importlib.import_module("invariant_chains.homology")
    checked = []

    def counting(slice_):
        checked.append(slice_.kind)
        return dd_zero(slice_)

    monkeypatch.setattr(homology_module, "dd_zero", counting)
    bar = bar_complex(make_cyclic(4), 4)
    assert bar.dd_checked
    HomologyProfile(bar).generators(3)
    assert checked == ["morse"]  # only the Morse complex's own check
    checked.clear()
    by_hand = ComplexSlice("bar(Z/4)", "test", 4, bar.sizes, bar.boundaries)
    assert not by_hand.dd_checked
    HomologyProfile(by_hand).generators(3)
    assert checked == ["test", "morse"]


def test_a_lift_that_is_not_a_cycle_is_caught():
    # without d_n's pairs, phi leaves each generator on its critical cells
    slc = bar_complex(make_cyclic(4), 4)
    for coeff, n in ((0, 3), (2, 2)):
        prof = HomologyProfile(slc, coeff)
        prof._morse_complex().lifts[n] = []
        with pytest.raises(InternalCheckError, match=f"lifted generator at degree {n}"):
            prof.generators(n)


def test_psi_that_does_not_invert_phi_is_caught():
    # a pair that claims a critical cell: psi moves it away, phi never wrote it
    slc = bar_complex(make_cyclic(4), 4)
    for coeff in (0, 2):
        prof = HomologyProfile(slc, coeff)
        morse = prof._morse_complex()
        for c in morse.critical[1]:
            morse.pushes[1].append((c, 1, {c: 1}))
        with pytest.raises(InternalCheckError, match=r"psi\(phi\(g\)\) != g at degree 1"):
            prof.generators(1)


def test_psi_that_leaves_the_cycles_of_m_is_caught(monkeypatch):
    # over Z, d_M at degree 2 of bar(Z/4) is +-4 between single critical
    # cells, so a critical 2-cell alone is no cycle of M.  (Over Z/p every
    # pivot is a unit, so d_M = 0 and no chain of M fails the check.)
    prof = HomologyProfile(bar_complex(make_cyclic(4), 4))
    prof.generators(2)
    d_m = prof._morse_complex().complex.d(2)
    c = next(c for c, col in enumerate(d_m.columns) if col)
    monkeypatch.setattr(HomologyProfile, "_psi",
                        lambda self, n, z: [int(i == c) for i in range(d_m.cols)])
    with pytest.raises(InternalCheckError,
                       match="psi of the cycle at degree 2 is not a cycle of M"):
        prof.reduce(2, [0] * prof.slice.sizes[2])


def test_a_morse_complex_with_dd_nonzero_is_caught():
    # d_1 * d_2 = 6 and no unit pivot, so M is the slice itself; the slice
    # claims a checked d.d = 0, so only the check on M is left to see it
    d1, d2 = SparseIntMatrix.from_dense([[2]]), SparseIntMatrix.from_dense([[3]])
    slc = ComplexSlice("broken", "test", 2, (1, 1, 1), (d1, d2), dd_checked=True)
    with pytest.raises(InternalCheckError, match=r"d_M \. d_M != 0 in Morse\(broken\)"):
        HomologyProfile(slc).generators(1)


def test_a_non_unit_pivot_taken_as_a_unit_is_caught(monkeypatch):
    # column [1|1] of d_2 of bar(Z/2) is 2[1] - [0]; once the lone unit
    # [0|0] takes row [0], a +-2 accepted as a unit pairs [1] with [1|1] and
    # leaves no critical 1-cell for H_1 = Z/2
    linalg = importlib.import_module("invariant_chains.linalg")
    prof = HomologyProfile(bar_complex(make_cyclic(2), 3))
    assert prof.group(1) == FgAbelianGroup(0, (2,))
    monkeypatch.setattr(linalg._SnfEngine, "_unit",
                        lambda self, a: self.mod > 0 or a in (1, -1, 2, -2))
    with pytest.raises(InternalCheckError, match="generator presentation at degree 1"):
        prof.generators(1)


def test_uct_crosscheck_reads_the_field_profiles(monkeypatch):
    homology_module = importlib.import_module("invariant_chains.homology")
    real = homology_module.rank_mod_p
    calls = []

    def counting(m, p, **kwargs):
        calls.append((p, id(m)))
        return real(m, p, **kwargs)

    monkeypatch.setattr(homology_module, "rank_mod_p", counting)
    clear_caches()
    inv = invariant_complex(negation_action(4), 4)
    records = uct_crosscheck(inv, primes=(2, 3))
    assert all(rec.ok for rec in records) and len(records) == 2 * 4
    # one elimination per boundary and prime, and none when asked again
    assert calls == [(p, id(d)) for p in (2, 3) for d in inv.boundaries]
    assert uct_crosscheck(inv, primes=(2, 3)) == records and len(calls) == 2 * 4
    with pytest.raises(ValueError):
        uct_crosscheck(inv, primes=(2, 4))

    # a wrong field rank fails inside the profile, against universal coefficients
    monkeypatch.setattr(homology_module, "rank_mod_p",
                        lambda m, p, **kwargs: real(m, p, **kwargs) + 1)
    clear_caches()
    with pytest.raises(InternalCheckError):
        uct_crosscheck(invariant_complex(negation_action(4), 4), primes=(2,))


def test_profiles_eliminate_each_boundary_once(monkeypatch):
    # the package binds the name `homology` to the function, so look the module up
    homology_module = importlib.import_module("invariant_chains.homology")
    calls = []

    def counting(name):
        real = getattr(homology_module, name)

        def wrapper(m, *args, **kwargs):
            calls.append((name, m))
            return real(m, *args, **kwargs)
        return wrapper

    for name in ("invariant_factors", "rank_mod_p"):
        monkeypatch.setattr(homology_module, name, counting(name))
    clear_caches()
    inv = invariant_complex(negation_action(6), 5)
    for coeff, name in ((0, "invariant_factors"), (3, "rank_mod_p")):
        calls.clear()
        homology(inv, coeff)  # the Z/3 profile reuses the Z profile from the memo
        assert [(n, id(m)) for n, m in calls] == [(name, id(d)) for d in inv.boundaries]
