"""Command-line interface.

Subcommands:
  compute    invariant homology of an action, optionally with the orbit
             space, the norm cokernel, fixed classes and the natural maps
  classical  plain group homology of the bar complex (oracle mode)
  info       basis sizes, orbit counts and predicted matrix shapes only
  verify     run named verification suites

Exit codes: 0 success, 1 failed verification claim, 2 bad specification or
unknown suite, 3 memory budget exceeded.  JSON output carries `"schema": 1`
and round-trips byte-identically through json.loads/json.dumps.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .chains import (_is_prime, bar_complex, burnside_orbit_count, coinvariant_complex,
                     estimate_build_bytes, fixed_inclusion_chain_map, invariant_complex,
                     invariant_inclusion_chain_map, norm_chain_map, quotient_complex_D)
from .errors import BudgetExceededError, GroupConstructionError, SpecParseError
from .groups import (FiniteGroup, Subgroup, fixed_subgroup, generated_subgroup,
                     parse_action_spec, parse_group_spec, trivial_subgroup)
from .homology import fixed_homology, homology, induced_map
from .linalg import image_of_hom, kernel_of_hom
from .theorems import REGISTRY

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_SPEC = 2
EXIT_BUDGET = 3


def _parse_coeff(spec: str) -> int:
    spec = spec.strip()
    if spec == "Z":
        return 0
    if spec.startswith("Z/"):
        try:
            m = int(spec[2:])
        except ValueError:
            raise SpecParseError(f"bad coefficient spec {spec!r}") from None
        if m < 2:
            raise SpecParseError("coefficient modulus must be >= 2")
        return m
    raise SpecParseError(f"bad coefficient spec {spec!r} (use Z or Z/m)")


def _parse_budget(spec: str) -> int:
    digits = spec.strip().upper()
    mult = 1
    if digits.endswith("G"):
        mult, digits = 1024 ** 3, digits[:-1]
    elif digits.endswith("M"):
        mult, digits = 1024 ** 2, digits[:-1]
    elif digits.endswith("K"):
        mult, digits = 1024, digits[:-1]
    try:
        budget = int(digits) * mult
    except ValueError:
        raise SpecParseError(f"bad memory budget {spec!r}") from None
    if budget < 1:
        raise SpecParseError(f"memory budget must be at least 1 byte, got {budget}")
    return budget


def _parse_subgroup(spec: str, g: FiniteGroup) -> Subgroup:
    if spec == "trivial":
        return trivial_subgroup(g)
    try:
        index = int(spec)
    except ValueError:
        raise SpecParseError(
            f"bad subgroup spec {spec!r} (use trivial or an element index)") from None
    if not 0 <= index < g.order:
        raise SpecParseError(
            f"subgroup generator {index} is not an element index 0..{g.order - 1}")
    return generated_subgroup(g, [index])


def _emit(payload: dict, fmt: str, render_table) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        render_table(payload)


def _group_str(row: dict) -> str:
    parts = ["Z"] * row["free_rank"] + [f"Z/{t}" for t in row["torsion"]]
    return " + ".join(parts) if parts else "0"


def _render_homology_table(payload: dict) -> None:
    for section in ("homology", "orbit_space_homology", "quotient_homology",
                    "fixed_subgroup_homology", "invariant_classes"):
        if section not in payload:
            continue
        print(f"{section.replace('_', ' ')} (coefficients {payload['coefficients']}):"
              if section == "homology" else f"{section.replace('_', ' ')}:")
        for row in payload[section]:
            print(f"  degree {row['degree']:>2}  {_group_str(row)}")
    if "maps" in payload:
        print("maps:")
        for entry in payload["maps"]:
            print(f"  {entry['map']} degree {entry['degree']}: "
                  f"matrix {entry['matrix']}, |kernel| {entry['kernel_order']}, "
                  f"|image| {entry['image_order']}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invariant-chains",
        description="Homology of invariant group chains by exact integer linear algebra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, action_required=True):
        p.add_argument("--group", required=True, help="cyclic:N or product:<spec>,<spec>")
        if action_required:
            p.add_argument("--action", default="negation",
                           help="negation | trivial | perm:<file> (default negation)")
        p.add_argument("--max-degree", type=int, default=4,
                       help="highest homology degree to compute (default 4)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--memory-budget", default="2G",
                       help="memory budget of the group table and the builders, "
                            "e.g. 512M or 2G (default 2G)")

    p_compute = sub.add_parser("compute", help="invariant homology of an action")
    common(p_compute)
    p_compute.add_argument("--coeff", default="Z", help="Z or Z/m (default Z)")
    p_compute.add_argument("--maps", action="store_true",
                           help="include natural maps and auxiliary homology")

    p_classical = sub.add_parser("classical", help="plain bar-complex homology")
    common(p_classical, action_required=False)
    p_classical.add_argument("--coeff", default="Z", help="Z or Z/m (default Z)")

    p_info = sub.add_parser("info", help="sizes and orbit counts, no matrices")
    common(p_info)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suites", nargs="+", help=f"any of: {', '.join(REGISTRY)}")
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--k", type=int, default=3)
    p_verify.add_argument("--s", type=int, default=2)
    p_verify.add_argument("--bound", type=int, default=10)
    p_verify.add_argument("--group", default=None)
    p_verify.add_argument("--action", default="negation")
    p_verify.add_argument("--subgroup", default=None,
                          help="generator element index, or 'trivial'")
    p_verify.add_argument("--coeff-a", type=int, default=None,
                          help="prime coefficient modulus for the structure suite")
    p_verify.add_argument("--max-degree", type=int, default=4)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def cmd_compute(args) -> int:
    budget = _parse_budget(args.memory_budget)
    coeff = _parse_coeff(args.coeff)
    if args.maps and coeff != 0:
        raise SpecParseError("--maps is supported for integral coefficients")
    g = parse_group_spec(args.group, budget)
    action = parse_action_spec(args.action, g)
    n_build = args.max_degree + 1
    inv = invariant_complex(action, n_build, memory_budget=budget)
    prof = homology(inv, coeff)
    payload = {
        "schema": 1,
        "command": "compute",
        "group": args.group,
        "action": args.action,
        "coefficients": prof.coeff_str,
        "max_degree": args.max_degree,
        "homology": prof.rows(),
    }
    if args.maps:
        coinv = coinvariant_complex(action, n_build, memory_budget=budget)
        dq = quotient_complex_D(action, n_build, memory_budget=budget)
        bar = bar_complex(g, n_build, memory_budget=budget)
        sub = fixed_subgroup(action)
        payload["orbit_space_homology"] = homology(coinv).rows()
        payload["quotient_homology"] = homology(dq).rows()
        payload["fixed_subgroup_homology"] = homology(
            bar_complex(sub.as_group(), n_build, memory_budget=budget)).rows()
        bar_prof = homology(bar)
        maps = []
        f_map = fixed_inclusion_chain_map(action, n_build, memory_budget=budget)
        i_map = invariant_inclusion_chain_map(action, n_build, memory_budget=budget)
        n_map = norm_chain_map(action, n_build, memory_budget=budget)
        f_src = homology(f_map.source)
        n_src = homology(n_map.source)
        fixed_rows = []
        for deg in range(1, args.max_degree + 1):
            fixed_sub = fixed_homology(action, bar_prof, deg)
            gsub = fixed_sub.group
            fixed_rows.append({"degree": deg, "free_rank": gsub.free_rank,
                               "torsion": list(gsub.torsion)})
            for name, hom in (("fixed_to_invariant", induced_map(f_map, f_src, prof, deg)),
                              ("invariant_to_full", induced_map(i_map, prof, bar_prof, deg)),
                              ("norm", induced_map(n_map, n_src, prof, deg))):
                maps.append({
                    "map": name,
                    "degree": deg,
                    "matrix": [list(row) for row in hom.matrix],
                    "kernel_order": kernel_of_hom(hom).order(),
                    "image_order": image_of_hom(hom).order(),
                })
        payload["invariant_classes"] = fixed_rows
        payload["maps"] = maps
    _emit(payload, args.format, _render_homology_table)
    return EXIT_OK


def cmd_classical(args) -> int:
    budget = _parse_budget(args.memory_budget)
    coeff = _parse_coeff(args.coeff)
    g = parse_group_spec(args.group, budget)
    n_build = args.max_degree + 1
    bar = bar_complex(g, n_build, memory_budget=budget)
    prof = homology(bar, coeff)
    payload = {
        "schema": 1,
        "command": "classical",
        "group": args.group,
        "coefficients": prof.coeff_str,
        "max_degree": args.max_degree,
        "homology": prof.rows(),
    }
    _emit(payload, args.format, _render_homology_table)
    return EXIT_OK


def _check_printable(count: int, args, g: FiniteGroup) -> None:
    """Refuse a count with more digits than Python prints an int with."""
    try:
        str(count)
    except ValueError:
        raise SpecParseError(f"--max-degree {args.max_degree} gives counts too long to "
                             f"print ({g.order}^{args.max_degree + 1} tuples)") from None


def cmd_info(args) -> int:
    g = parse_group_spec(args.group, _parse_budget(args.memory_budget))
    action = parse_action_spec(args.action, g)
    n_build = args.max_degree + 1
    # the largest counts are the top tuple count, checked before any count
    # is made, and the byte estimate
    _check_printable(g.order ** n_build, args, g)
    sub = fixed_subgroup(action)
    degrees = []
    prev_orbits = 1
    for n in range(n_build + 1):
        tuples = g.order ** n
        orbits = burnside_orbit_count(action, n)
        row = {"degree": n, "tuples": tuples, "orbits": orbits}
        if n >= 1:
            row["boundary_shape"] = [prev_orbits, orbits]
        prev_orbits = orbits
        degrees.append(row)
    payload = {
        "schema": 1,
        "command": "info",
        "group": args.group,
        "action": args.action,
        "max_degree": args.max_degree,
        "fixed_subgroup_order": sub.order,
        "estimated_build_bytes": estimate_build_bytes([row["orbits"] for row in degrees]),
        "degrees": degrees,
    }
    _check_printable(payload["estimated_build_bytes"], args, g)

    def render(p):
        print(f"group {p['group']}, action {p['action']}")
        print(f"fixed subgroup order: {p['fixed_subgroup_order']}")
        print(f"estimated build size: {p['estimated_build_bytes']} bytes")
        print("degree  tuples  orbits  boundary (rows x cols)")
        for row in p["degrees"]:
            shape = row.get("boundary_shape")
            shape_s = f"{shape[0]} x {shape[1]}" if shape else "-"
            print(f"  {row['degree']:>4}  {row['tuples']:>6}  {row['orbits']:>6}  {shape_s}")

    _emit(payload, args.format, render)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.coeff_a is not None and not _is_prime(args.coeff_a):
        raise SpecParseError(f"--coeff-a must be a prime, got {args.coeff_a}")
    for name in args.suites:
        if name not in REGISTRY:
            raise SpecParseError(f"unknown suite {name!r}; known: {', '.join(REGISTRY)}")
        if name in ("structure", "transfer", "divisible") and not args.group:
            raise SpecParseError(f"suite {name!r} needs --group")
        if name == "transfer" and args.subgroup is None:
            raise SpecParseError("suite 'transfer' needs --subgroup")
    reports = []
    for name in args.suites:
        suite = REGISTRY[name]
        if name == "n_odd":
            report = suite(args.n, args.max_degree)
        elif name == "n_2k":
            report = suite(args.k, args.max_degree)
        elif name == "n_0_mod_4":
            report = suite(args.s, args.max_degree)
        elif name == "integer_line":
            report = suite(args.bound)
        else:
            g = parse_group_spec(args.group)
            action = parse_action_spec(args.action, g)
            if name == "structure":
                report = suite(action, args.max_degree, invertible_coeff=args.coeff_a)
            elif name == "transfer":
                report = suite(g, _parse_subgroup(args.subgroup, g), action, args.max_degree)
            else:  # divisible
                report = suite(g, action)
        reports.append(report)

    payload = {
        "schema": 1,
        "command": "verify",
        "passed": all(r.passed for r in reports),
        "reports": [r.as_dict() for r in reports],
    }

    def render(p):
        for rep in p["reports"]:
            status = "PASS" if rep["passed"] else "FAIL"
            print(f"[{status}] {rep['suite']} ({rep['duration_s']}s)")
            for c in rep["claims"]:
                mark = "ok " if c["passed"] else "FAIL"
                print(f"  {mark} {c['name']}: expected {c['expected']}, "
                      f"got {c['computed']}")
            for note in rep["notes"]:
                print(f"  note: {note}")

    _emit(payload, args.format, render)
    return EXIT_OK if payload["passed"] else EXIT_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_degree < 0:
            raise SpecParseError(f"--max-degree must be >= 0, got {args.max_degree}")
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "classical":
            return cmd_classical(args)
        if args.command == "info":
            return cmd_info(args)
        if args.command == "verify":
            return cmd_verify(args)
        parser.error(f"unknown command {args.command}")
    except (SpecParseError, GroupConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
