"""Outputs every benchmark case must reproduce.

Homology groups are written as in the CLI's table output, one string per
degree from 0 up.  Nothing here depends on the choice of generator basis.

The degree-3 rows marked "engine" below are what the engine computes today,
not the paper's closed-form tables: the paper claims Z/4 + Z/2 + Z/2 for
invariant(Z/4,6), Z/8 + Z/2 + Z/2 for invariant(Z/8,4) and Z/4 + Z/2 for the
orbit space coinvariant(Z/4,5).  Acceptance criteria 3 and 4 keep checking
the paper's values; a change to either set of values is a finding, not a fix.
"""

# integral homology of the acceptance ladder (ladder-int)
INT_REFERENCES = {
    "invariant(Z/3,6)": ["Z", "0", "0", "Z/3", "0", "0"],
    "invariant(Z/5,5)": ["Z", "0", "0", "Z/5", "0"],
    "invariant(Z/6,5)": ["Z", "Z/2", "0", "Z/6", "0"],
    "invariant(Z/4,6)": ["Z", "Z/2 + Z/2", "Z/2",
                         "Z/2 + Z/2 + Z/2",  # engine
                         "Z/2 + Z/2", "Z/2 + Z/2 + Z/2 + Z/2"],
    "invariant(Z/8,4)": ["Z", "Z/2 + Z/2", "Z/2",
                         "Z/2 + Z/2 + Z/4"],  # engine
    "coinvariant(Z/4,5)": ["Z", "Z/2", "0",
                           "Z/2 + Z/2",  # engine
                           "Z/2"],
    "bar(Z/5,5)": ["Z", "Z/5", "0", "Z/5", "0"],
}


def _modp(betti_2, betti_3, betti_5):
    """d.d = 0, and every universal-coefficient record agrees."""
    return {"dd_zero": True, "betti": {2: betti_2, 3: betti_3, 5: betti_5},
            "uct_mismatches": []}


# field Betti numbers by degree, mod 2, 3 and 5 (ladder-modp)
MODP_REFERENCES = {
    "invariant(Z/3,6)": _modp([1, 0, 0, 0, 0, 0], [1, 0, 0, 1, 1, 0], [1, 0, 0, 0, 0, 0]),
    "invariant(Z/5,5)": _modp([1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 1, 1]),
    "invariant(Z/6,5)": _modp([1, 1, 1, 1, 1], [1, 0, 0, 1, 1], [1, 0, 0, 0, 0]),
    "invariant(Z/4,6)": _modp([1, 2, 3, 4, 5, 6], [1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]),
    "invariant(Z/8,4)": _modp([1, 2, 3, 4], [1, 0, 0, 0], [1, 0, 0, 0]),
    "coinvariant(Z/4,5)": _modp([1, 1, 1, 2, 3], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]),
    "bar(Z/5,5)": _modp([1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]),
}


def _maps(*orders):
    """(kernel order, image order) of the three maps of `compute --maps`, by degree."""
    names = ("fixed_to_invariant", "invariant_to_full", "norm")
    return [f"{names[i % 3]} degree {i // 3 + 1}: |kernel| {k}, |image| {im}"
            for i, (k, im) in enumerate(orders)]


def _exact(label, image_order):
    return [f"exact at {label}", True, "true",
            f"composite zero: True, |image| {image_order}, |kernel| {image_order}"]


_STRUCTURE_CLAIMS = (
    [["degree-0 homology is the coefficients", True, "Z", "Z"]]
    + [[f"exponent divides |G|, degree {d}", True, "true", "exponent 2"] for d in range(1, 5)]
    + [claim for d in range(1, 5) for claim in (
        [f"image(i_*) inside fixed classes, degree {d}", True, "true", "True"],
        [f"ker(i_*) killed by |Q|, degree {d}", True, "true", "exponent 2"])]
    + [[f"coker(N) homology is reduced mod-2 homology of the fixed subgroup, degree {d}",
        True, "Z/2", "Z/2"] for d in range(1, 5)]
    + [_exact("H~_4(invariants)", 2), _exact("h_4(coker N)", 2),
       _exact("H~_3(orbit space)", 1), _exact("H~_3(invariants)", 4),
       _exact("h_3(coker N)", 2), _exact("H~_2(orbit space)", 1),
       _exact("H~_2(invariants)", 1), _exact("h_2(coker N)", 2),
       _exact("H~_1(orbit space)", 1), _exact("H~_1(invariants)", 2),
       _exact("h_1(coker N)", 2)]
)

# basis-free content of the CLI payloads (maps-cli)
CLI_REFERENCES = {
    "compute cyclic:4 --maps": {
        "exit": 0,
        "homology": ["Z", "Z/2 + Z/2", "Z/2",
                     "Z/2 + Z/2 + Z/2",  # engine
                     "Z/2 + Z/2"],
        "orbit_space_homology": ["Z", "Z/2", "0",
                                 "Z/2 + Z/2",  # engine
                                 "Z/2"],
        "quotient_homology": ["0", "Z/2", "Z/2", "Z/2", "Z/2"],
        "fixed_subgroup_homology": ["Z", "Z/2", "0", "Z/2", "0"],
        "invariant_classes": ["Z/2", "0", "Z/4", "0"],
        "maps": _maps((1, 2), (2, 2), (1, 2),
                      (1, 1), (2, 1), (1, 1),
                      (1, 2), (4, 2), (1, 4),
                      (1, 1), (4, 1), (1, 2)),
    },
    "compute cyclic:6 --maps": {
        "exit": 0,
        "homology": ["Z", "Z/2", "0", "Z/6", "0"],
        "orbit_space_homology": ["Z", "Z/2", "0", "Z/6", "0"],
        "quotient_homology": ["0", "Z/2", "Z/2", "Z/2", "Z/2"],
        "fixed_subgroup_homology": ["Z", "Z/2", "0", "Z/2", "0"],
        "invariant_classes": ["Z/2", "0", "Z/6", "0"],
        "maps": _maps((1, 2), (1, 2), (2, 1),
                      (1, 1), (1, 1), (1, 1),
                      (1, 2), (1, 6), (2, 3),
                      (1, 1), (1, 1), (1, 1)),
    },
    "verify structure cyclic:4": {
        "exit": 0,
        "passed": True,
        "reports": [{"suite": "structure(cyclic:2 on cyclic:4, max_degree=4)",
                     "passed": True, "notes": [], "claims": _STRUCTURE_CLAIMS}],
    },
}
