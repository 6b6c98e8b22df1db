"""Verification suites: expected outcomes at small parameters.

The `n_0_mod_4` suite intentionally asserts the published closed forms; the
claims at degrees congruent to 3 mod 4 fail against the computed groups
(see the failure messages themselves), and these tests pin exactly which
claims those are so any behavioral drift is caught.
"""

import pytest

from invariant_chains import chains, theorems
from invariant_chains.errors import InternalCheckError, SpecParseError
from invariant_chains.groups import (generated_subgroup, make_cyclic, negation_action,
                                     trivial_subgroup)
from invariant_chains.linalg import FgAbelianGroup
from invariant_chains.theorems import (REGISTRY, expected_invariant_homology_2k,
                                       expected_invariant_homology_2s,
                                       expected_invariant_homology_odd,
                                       expected_orbit_space_integral,
                                       expected_orbit_space_mod2, suite_divisible_relation,
                                       suite_hiz, suite_n_0_mod_4, suite_n_2k, suite_n_odd,
                                       suite_structure, suite_transfer,
                                       truncated_integer_h1)


def failing(report):
    return [c.name for c in report.claims if not c.passed]


def test_expected_value_tables():
    assert expected_invariant_homology_odd(3, 3) == FgAbelianGroup(0, (3,))
    assert expected_invariant_homology_odd(3, 5) == FgAbelianGroup.trivial()
    assert expected_invariant_homology_2k(3, 1) == FgAbelianGroup(0, (2,))
    assert expected_invariant_homology_2k(3, 3) == FgAbelianGroup(0, (6,))
    assert expected_invariant_homology_2s(2, 3) == FgAbelianGroup(0, (2, 2, 4))
    assert expected_invariant_homology_2s(2, 5) == FgAbelianGroup(0, (2, 2, 2, 2))
    assert expected_orbit_space_mod2(4) == FgAbelianGroup(0, (2, 2, 2))
    assert expected_orbit_space_integral(2, 3) == FgAbelianGroup(0, (2, 4))


def test_suite_n_odd_small():
    assert suite_n_odd(3, 4).passed
    assert suite_n_odd(1, 3).passed  # trivial group: everything vanishes


def test_suite_n_2k_k1():
    report = suite_n_2k(1, 4)
    assert report.passed


def test_suite_n_0_mod_4_fails_exactly_on_the_known_claims():
    report = suite_n_0_mod_4(2, 4)
    bad = failing(report)
    assert bad == ["invariant homology, degree 3", "orbit space integral, degree 3"]
    # the computed values disagree by exactly one factor of two in the torsion
    claims = {c.name: c for c in report.claims}
    assert claims["invariant homology, degree 3"].expected == "Z/2 + Z/2 + Z/4"
    assert claims["invariant homology, degree 3"].computed == "Z/2 + Z/2 + Z/2"
    # every mod-2 orbit space claim passes
    assert all(c.passed for c in report.claims if "mod 2" in c.name)
    assert all(c.passed for c in report.claims if "split extension" in c.name)
    assert all(c.passed for c in report.claims if "surjective" in c.name)


def test_suite_structure_z5():
    report = suite_structure(negation_action(5), 3, invertible_coeff=5)
    assert report.passed


def test_suite_structure_at_degree_zero():
    report = suite_structure(negation_action(4), 0, invertible_coeff=5)
    assert report.claims and failing(report) == []


def test_suite_structure_rejects_a_composite_coefficient_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(theorems, "invariant_complex", no_build)
    with pytest.raises(SpecParseError, match="prime"):
        suite_structure(negation_action(5), 2, invertible_coeff=9)


def test_suite_transfer_z6():
    z6 = make_cyclic(6)
    report = suite_transfer(z6, generated_subgroup(z6, [3]), negation_action(6), 2)
    assert report.passed


def test_suite_transfer_trivial_subgroup():
    z5 = make_cyclic(5)
    report = suite_transfer(z5, trivial_subgroup(z5), negation_action(5), 3)
    assert report.passed


def test_suite_divisible_z7_and_z9():
    assert suite_divisible_relation(make_cyclic(7), negation_action(7)).passed
    r9 = suite_divisible_relation(make_cyclic(9), negation_action(9), orbit_reps=[0, 2]).passed
    assert r9


def test_divisible_chain_boundary_example():
    # orbit {1, 6} in the order-7 group: the power family's boundary is
    # 2([1]+[6]) - ([2]+[5])
    report = suite_divisible_relation(make_cyclic(7), negation_action(7), orbit_reps=[1])
    claim = next(c for c in report.claims if "power family" in c.name)
    assert claim.passed
    assert claim.computed == str(sorted({1: 2, 6: 2, 2: -1, 5: -1}.items()))


@pytest.mark.parametrize("fault", [InternalCheckError, IndexError])
def test_divisible_invariance_claim_fails_only_on_the_check(monkeypatch, fault):
    # a non-invariant family fails its claim; any other fault propagates
    orbit_coords = chains._orbit_coords

    def faulty(acc, lower, what):
        if what == "divisible-suite":
            raise fault("injected")
        return orbit_coords(acc, lower, what)

    monkeypatch.setattr(chains, "_orbit_coords", faulty)
    if fault is IndexError:
        with pytest.raises(IndexError):
            suite_divisible_relation(make_cyclic(7), negation_action(7), orbit_reps=[1])
        return
    report = suite_divisible_relation(make_cyclic(7), negation_action(7), orbit_reps=[1])
    assert sorted(c.name for c in report.claims if not c.passed) == [
        "orbit [1, 6]: power family is invariant", "orbit [1, 6]: product family is invariant"]


def test_truncated_integer_h1_checks():
    report = truncated_integer_h1(10)
    assert report.passed
    names = [c.name for c in report.claims]
    assert any("parity" in n for n in names)
    assert any("even classes" in n for n in names)
    assert any("order exactly 2" in n for n in names)


def test_truncation_class_structure_stable_across_bounds():
    notes = {}
    for bound in (10, 20):
        rep = truncated_integer_h1(bound)
        assert rep.passed
        notes[bound] = rep.notes[0]
    assert notes[10] == notes[20]  # classes of s(1)..s(10) agree


def test_suite_hiz_contrast():
    report = suite_hiz(10)
    assert report.passed
    assert any("circle model degree 1" in c.name for c in report.claims)


def test_registry_names():
    assert set(REGISTRY) == {"n_odd", "n_2k", "n_0_mod_4", "structure", "transfer",
                             "divisible", "integer_line"}


def test_report_serialization():
    report = suite_n_odd(3, 3)
    data = report.as_dict()
    assert data["suite"].startswith("n_odd")
    assert data["passed"] is True
    assert all({"name", "expected", "computed", "passed"} <= set(c) for c in data["claims"])
