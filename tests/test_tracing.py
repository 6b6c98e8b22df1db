"""The traced benchmark run patches the package by name: every name it
replaces must exist, and uninstalling must restore the originals."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
    tracing = load_tracing()
    originals = patch_points()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = patch_points()
    finally:
        tracer.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert patch_points() == originals


def test_every_patched_function_exists_is_replaced_and_restored():
    tracing = load_tracing()
    names = tracing.BUILDERS + tracing.MAPS + (
        "dd_zero", "homology", "invariant_factors", "rank_mod_p", "present_fg_abelian", "main")
    modules = [importlib.import_module(m) for m in tracing.PACKAGE_MODULES]
    # the module that defines each name, and every binding of it in the package
    homes = {name: module for module in modules for name in names
             if getattr(getattr(module, name, None), "__module__", None) == module.__name__}
    assert sorted(set(names) - set(homes)) == []
    bindings = {(module.__name__, name): getattr(module, name)
                for module in modules for name in names if hasattr(module, name)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        replaced = {name: getattr(home, name) is not bindings[home.__name__, name]
                    for name, home in homes.items()}
    finally:
        tracer.uninstall()
    assert sorted(name for name, ok in replaced.items() if not ok) == []
    assert {(module.__name__, name): getattr(module, name)
            for module in modules for name in names if hasattr(module, name)} == bindings
