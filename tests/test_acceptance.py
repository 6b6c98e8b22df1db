"""Acceptance suite.

Each test covers one numbered criterion, asserts the pinned expected values
exactly, enforces the stated time budget, and prints one PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from invariant_chains.chains import (bar_complex, coinvariant_complex,
                                     find_equivariant_coset_reps,
                                     invariant_complex, invariant_inclusion_chain_map,
                                     invariant_ses, norm_chain_map,
                                     s1_counterexample_complex,
                                     subgroup_invariant_inclusion, transfer_chain_map,
                                     tuple_orbits)
from invariant_chains.groups import (generated_subgroup, make_cyclic, negation_action,
                                     trivial_subgroup)
from invariant_chains.homology import (dd_zero, exactness_check, fixed_homology,
                                       homology, induced_map, invariant_les,
                                       uct_crosscheck)
from invariant_chains.linalg import (AbelianHom, FgAbelianGroup, kernel_of_hom,
                                     rank_z)
from invariant_chains.theorems import truncated_integer_h1

Z = FgAbelianGroup(1, ())


def G(*orders):
    return FgAbelianGroup.from_orders(0, orders)


_checked_slices = []


def track(slice_):
    if all(s is not slice_ for s in _checked_slices):
        _checked_slices.append(slice_)
    return slice_


def finish(num, label, failures, t0, budget_s):
    elapsed = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {num} [{status}] {label} ({elapsed:.1f}s)")
    for f in failures:
        print(f"    mismatch: {f}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"
    assert not failures, f"criterion {num}: {failures}"


def table_failures(profile, expected_by_degree):
    out = []
    for deg, expected in expected_by_degree.items():
        got = profile.group(deg)
        if got != expected:
            out.append(f"degree {deg}: expected {expected}, computed {got}")
    return out


def test_criterion_01_odd_cyclic_tables():
    t0 = time.time()
    prof3 = homology(track(invariant_complex(negation_action(3), 6)))
    prof5 = homology(track(invariant_complex(negation_action(5), 5)))
    failures = table_failures(prof3, {1: G(), 2: G(), 3: G(3), 4: G(), 5: G()})
    failures += table_failures(prof5, {1: G(), 2: G(), 3: G(5), 4: G()})
    finish(1, "negation on orders 3 and 5", failures, t0, 120)


def test_criterion_02_twice_odd_table():
    t0 = time.time()
    prof = homology(track(invariant_complex(negation_action(6), 5)))
    failures = table_failures(prof, {1: G(2), 2: G(), 3: G(6), 4: G()})
    finish(2, "negation on order 6", failures, t0, 300)


def test_criterion_03_two_power_tables():
    t0 = time.time()
    prof4 = homology(track(invariant_complex(negation_action(4), 6)))
    failures = table_failures(prof4, {1: G(2, 2), 2: G(2), 3: G(4, 2, 2),
                                      4: G(2, 2), 5: G(2, 2, 2, 2)})
    prof8 = homology(track(invariant_complex(negation_action(8), 4)))
    failures += table_failures(prof8, {1: G(2, 2), 2: G(2), 3: G(8, 2, 2)})
    finish(3, "negation on orders 4 and 8", failures, t0, 1500)


def test_criterion_04_orbit_space_tables():
    t0 = time.time()
    coinv = track(coinvariant_complex(negation_action(4), 5))
    prof2 = homology(coinv, 2)
    failures = table_failures(prof2, {1: G(2), 2: G(2), 3: G(2, 2), 4: G(2, 2, 2)})
    profz = homology(coinv)
    failures += table_failures(profz, {1: G(2), 2: G(), 3: G(4, 2), 4: G(2)})
    finish(4, "orbit space of negation on order 4", failures, t0, 600)


def test_criterion_05_norm_cokernel_and_exactness():
    t0 = time.time()
    failures = []
    for n in (4, 6):
        action = negation_action(n)
        ses = invariant_ses(action, 5)
        d_prof = homology(track(ses.quotient))
        sub_prof = homology(bar_complex(make_cyclic(2), 5), 2)
        for deg in range(1, 5):
            if d_prof.group(deg) != sub_prof.group(deg):
                failures.append(f"order {n}: coker(N) homology at degree {deg}: "
                                f"{d_prof.group(deg)} != {sub_prof.group(deg)}")
        report = exactness_check(invariant_les(ses, 4))
        for rec in report.records:
            if not rec.exact:
                failures.append(f"order {n}: not exact at {rec.label} "
                                f"(|im| {rec.image_order}, |ker| {rec.kernel_order})")
        track(ses.invariants)
        track(ses.coinvariants)
    finish(5, "norm cokernel identification and long exact sequence", failures, t0, 600)


def test_criterion_06_invertible_coefficients():
    t0 = time.time()
    failures = []
    for n, a in ((5, 5), (4, 3)):
        action = negation_action(n)
        inv_prof = homology(track(invariant_complex(action, 5)), a)
        bar_prof = homology(track(bar_complex(make_cyclic(n), 5)), a)
        for deg in range(1, 5):
            fixed = fixed_homology(action, bar_prof, deg)
            if fixed.group != inv_prof.group(deg):
                failures.append(f"order {n}, A=Z/{a}, degree {deg}: invariant "
                                f"{inv_prof.group(deg)} != fixed {fixed.group}")
    finish(6, "invariant homology equals fixed classes for invertible |Q|",
           failures, t0, 300)


def test_criterion_07_annihilation_bounds():
    t0 = time.time()
    failures = []
    cases = [(3, 6), (5, 5), (6, 5), (4, 6), (8, 4)]
    for n, n_build in cases:
        action = negation_action(n)
        inv = invariant_complex(action, n_build)
        prof = homology(inv)
        incl = invariant_inclusion_chain_map(action, n_build)
        bar_prof = homology(incl.target)
        for deg in range(1, min(n_build, 4)):
            exp = prof.group(deg).exponent()
            if exp is None or n % exp:
                failures.append(f"order {n} degree {deg}: exponent {exp} "
                                f"does not divide |G|")
            ker = kernel_of_hom(induced_map(incl, prof, bar_prof, deg))
            kexp = ker.group.exponent()
            if kexp is None or 2 % kexp:
                failures.append(f"order {n} degree {deg}: ker(i_*) exponent {kexp} "
                                f"does not divide |Q| = 2")
    finish(7, "homology killed by |G|, kernel of i_* killed by |Q|", failures, t0, 600)


def test_criterion_08_transfer_laws():
    t0 = time.time()
    failures = []
    cases = [(6, [3]), (5, []), (4, [2])]
    for n, gens in cases:
        g = make_cyclic(n)
        k = generated_subgroup(g, gens) if gens else trivial_subgroup(g)
        action = negation_action(n)
        index = g.order // k.order
        e = find_equivariant_coset_reps(g, k, action, check_degree=4)
        if e is None:
            failures.append(f"order {n}: no compatible transversal")
            continue
        tr = transfer_chain_map(g, k, e, 4, action=action)
        j = subgroup_invariant_inclusion(action, k, 4)
        prof_g = homology(tr.source)
        prof_k = homology(tr.target)
        for deg in range(1, 4):
            tr_star = induced_map(tr, prof_g, prof_k, deg)
            j_star = induced_map(j, prof_k, prof_g, deg)
            if j_star.compose(tr_star) != AbelianHom.scalar(prof_g.group(deg), index):
                failures.append(f"order {n} degree {deg}: inclusion.transfer != "
                                f"{index} id")
            if tr_star.compose(j_star) != AbelianHom.scalar(prof_k.group(deg), index):
                failures.append(f"order {n} degree {deg}: transfer.inclusion != "
                                f"{index} id")
    finish(8, "transfer composition laws", failures, t0, 300)


def test_criterion_09_integer_line_window():
    t0 = time.time()
    failures = []
    notes = {}
    for bound in (10, 20, 40):
        report = truncated_integer_h1(bound)
        for claim in report.claims:
            if not claim.passed:
                failures.append(f"bound {bound}: {claim.name}")
        notes[bound] = report.notes[0]
    if not (notes[10] == notes[20][:len(notes[10])] ==
            notes[40][:len(notes[10])]):
        failures.append("class structure not stable across bounds")
    s1_prof = homology(s1_counterexample_complex())
    if not s1_prof.group(1).is_trivial():
        failures.append("circle-model complex has nonzero first homology")
    if s1_prof.group(0) != Z:
        failures.append("circle-model complex degree 0 is not Z")
    finish(9, "integer-line window and circle-model contrast", failures, t0, 60)


def test_criterion_10_engine_cross_checks():
    t0 = time.time()
    failures = []
    if not _checked_slices:
        # standalone run: rebuild the core complexes (cached when the other
        # criteria ran first)
        for n, n_build in ((3, 6), (5, 5), (6, 5), (4, 6), (8, 4)):
            track(invariant_complex(negation_action(n), n_build))
        track(coinvariant_complex(negation_action(4), 5))
        track(bar_complex(make_cyclic(5), 5))
    for slc in _checked_slices:
        if not dd_zero(slc):
            failures.append(f"{slc.name}: d.d != 0")
        if slc.modulus == 0:
            for rec in uct_crosscheck(slc, primes=(2, 3, 5)):
                if not rec.ok:
                    failures.append(f"{slc.name}: universal-coefficient mismatch "
                                    f"at degree {rec.degree} mod {rec.prime}")
    # orbit constancy is enforced during construction; re-run a direct check
    for n in (4, 6):
        action = negation_action(n)
        inv = invariant_complex(action, 3)
        from invariant_chains.chains import _expand_orbit_boundary, _orbit_coords
        for deg in (2, 3):
            data = tuple_orbits(action, deg)
            lower = tuple_orbits(action, deg - 1)
            for pos, rep in enumerate(data.reps):
                acc = _expand_orbit_boundary(action, deg, rep)
                _orbit_coords(acc, lower, "acceptance")  # raises on violation
        # norm injectivity: full column rank in every degree
        nm = norm_chain_map(action, 3)
        for deg in range(1, 4):
            if rank_z(nm.mat(deg)) != nm.mat(deg).cols:
                failures.append(f"order {n}: norm not injective at degree {deg}")
    finish(10, f"engine cross-checks on {len(_checked_slices)} complexes",
           failures, t0, 900)
