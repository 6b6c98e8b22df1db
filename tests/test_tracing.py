"""The traced benchmark run patches the package by name: every name it
replaces must exist, and uninstalling must restore the originals."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def patch_points():
    linalg = importlib.import_module("invariant_chains.linalg")
    homology = importlib.import_module("invariant_chains.homology")
    cli = importlib.import_module("invariant_chains.cli")
    return (linalg.ColumnEchelon.__dict__["__init__"], linalg.ColumnEchelon.__dict__["solve"],
            homology.HomologyProfile.__dict__["generators"],
            homology.HomologyProfile.__dict__["reduce"],
            homology.invariant_factors, homology.rank_mod_p, homology.present_fg_abelian,
            cli.main)


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = patch_points()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = patch_points()
    finally:
        tracer.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert patch_points() == originals
