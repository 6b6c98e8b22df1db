"""The benchmark's workloads: their cases, and the output each case is checked by.

ladder-int
    Integral homology groups (rank and torsion only) of the seven complexes
    of the acceptance ladder.  Builders plus transform-free integer Smith
    form; never touches field elimination or generator data.
ladder-modp
    `dd_zero` plus `uct_crosscheck(primes=(2, 3, 5))` on the same seven
    complexes.  Mostly mod-p elimination (`rank_mod_p`).
maps-cli
    Three in-process CLI calls: `compute --maps` on cyclic:4 and cyclic:6,
    and `verify structure` on cyclic:4.  Mostly generator data: eliminations
    that carry transforms and lattice solves.

Every case starts from cold in-process caches, because a user pays the
build on every CLI call.  A case's output keeps only what does not depend on
the choice of generator basis, so `--maps` matrix entries and `duration_s`
are never compared.

Not covered yet: the disk cache (`cli._SliceCache`) has no workload.  Its
JSON round trip takes at most 0.1 to 0.14 s per ladder complex on a 2-core
x86 machine, so a workload for it belongs with the cache merge (ROADMAP
item 5).  Spans inside the package and a `--stats` flag are a later change;
the traced run wraps the package's public functions from outside (see
tracing.py).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from references import CLI_REFERENCES, INT_REFERENCES, MODP_REFERENCES

chains = importlib.import_module("invariant_chains.chains")
cli = importlib.import_module("invariant_chains.cli")
groups = importlib.import_module("invariant_chains.groups")
homology = importlib.import_module("invariant_chains.homology")

# (case name, builder, group spec, highest chain degree built)
LADDER = (
    ("invariant(Z/3,6)", "invariant", "cyclic:3", 6),
    ("invariant(Z/5,5)", "invariant", "cyclic:5", 5),
    ("invariant(Z/6,5)", "invariant", "cyclic:6", 5),
    ("invariant(Z/4,6)", "invariant", "cyclic:4", 6),
    ("invariant(Z/8,4)", "invariant", "cyclic:8", 4),
    ("coinvariant(Z/4,5)", "coinvariant", "cyclic:4", 5),
    ("bar(Z/5,5)", "bar", "cyclic:5", 5),
)

CLI_CALLS = (
    ("compute cyclic:4 --maps",
     ["compute", "--group", "cyclic:4", "--max-degree", "4", "--maps", "--format", "json"]),
    ("compute cyclic:6 --maps",
     ["compute", "--group", "cyclic:6", "--max-degree", "4", "--maps", "--format", "json"]),
    ("verify structure cyclic:4",
     ["verify", "structure", "--group", "cyclic:4", "--action", "negation",
      "--max-degree", "4", "--format", "json"]),
)

WORKLOADS = ("ladder-int", "ladder-modp", "maps-cli")

HOMOLOGY_SECTIONS = ("homology", "orbit_space_homology", "quotient_homology",
                     "fixed_subgroup_homology", "invariant_classes")


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], object]
    reference: object


def clear_caches() -> None:
    """Drop every in-process cache, so the next case starts cold."""
    chains.clear_caches()
    homology.clear_profile_cache()


def group_str(row: dict) -> str:
    parts = ["Z"] * row["free_rank"] + [f"Z/{t}" for t in row["torsion"]]
    return " + ".join(parts) if parts else "0"


def _builder(kind: str, spec: str, degree: int) -> Callable:
    """The ladder complex's build, bound late so that traced wrappers are seen."""
    g = groups.parse_group_spec(spec)
    if kind == "bar":
        return lambda: chains.bar_complex(g, degree)
    action = groups.parse_action_spec("negation", g)
    if kind == "invariant":
        return lambda: chains.invariant_complex(action, degree)
    return lambda: chains.coinvariant_complex(action, degree)


def _integral_rows(build: Callable) -> Callable[[], list[str]]:
    def run():
        return [group_str(row) for row in homology.homology(build()).rows()]
    return run


def _modp_checks(build: Callable, primes=(2, 3, 5)) -> Callable[[], dict]:
    def run():
        slice_ = build()
        dd_ok = homology.dd_zero(slice_)
        records = homology.uct_crosscheck(slice_, primes=primes)
        betti = {p: [r.field_betti for r in records if r.prime == p] for p in primes}
        mismatches = [f"degree {r.degree} mod {r.prime}" for r in records if not r.ok]
        return {"dd_zero": dd_ok, "betti": betti, "uct_mismatches": mismatches}
    return run


def basis_free(payload: dict) -> dict:
    """The part of a CLI JSON payload that no choice of generator basis changes."""
    if payload["command"] == "verify":
        return {"passed": payload["passed"],
                "reports": [{"suite": rep["suite"], "passed": rep["passed"],
                             "notes": rep["notes"],
                             "claims": [[c["name"], c["passed"], c["expected"], c["computed"]]
                                        for c in rep["claims"]]}
                            for rep in payload["reports"]]}
    out = {section: [group_str(row) for row in payload[section]]
           for section in HOMOLOGY_SECTIONS if section in payload}
    out["maps"] = [f"{m['map']} degree {m['degree']}: |kernel| {m['kernel_order']}, "
                   f"|image| {m['image_order']}" for m in payload.get("maps", ())]
    return out


def _cli_call(argv: list[str]) -> Callable[[], dict]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != cli.EXIT_OK:
            return {"exit": code}
        return {"exit": code, **basis_free(json.loads(buf.getvalue()))}
    return run


def cases(workload: str) -> list[Case]:
    """Parse the workload's specs and return its cases in their pinned order."""
    if workload == "ladder-int":
        return [Case(name, _integral_rows(_builder(kind, spec, deg)), INT_REFERENCES[name])
                for name, kind, spec, deg in LADDER]
    if workload == "ladder-modp":
        return [Case(name, _modp_checks(_builder(kind, spec, deg)), MODP_REFERENCES[name])
                for name, kind, spec, deg in LADDER]
    if workload == "maps-cli":
        out = []
        for name, argv in CLI_CALLS:
            cli._build_parser().parse_args(argv)
            out.append(Case(name, _cli_call(argv), CLI_REFERENCES[name]))
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
