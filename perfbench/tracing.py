"""Traced run: spans around the calls into each layer, recorded from outside.

`install()` replaces each public entry point of the package, wherever a
module binds it, with a wrapper that records a span (layer, parent span,
start, end) and the layer's counters.  The package itself is unchanged, so
the CLI runs its real path.  Spans stay in memory until the run ends.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers plus `trace.unattributed_s`
add up to the traced wall time of a pass.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# the modules that call the entry points below
PACKAGE_MODULES = ("invariant_chains.chains", "invariant_chains.linalg",
                   "invariant_chains.homology", "invariant_chains.theorems",
                   "invariant_chains.cli")

# builders and chain-map constructors, with their inline d.d, orbit and
# commutation checks
BUILDERS = ("bar_complex", "invariant_complex", "coinvariant_complex", "quotient_complex_D",
            "invariant_ses", "norm_chain_map", "quotient_chain_map",
            "fixed_inclusion_chain_map", "invariant_inclusion_chain_map",
            "subgroup_invariant_inclusion", "subgroup_bar_inclusion", "transfer_chain_map")
MAPS = ("induced_map", "fixed_homology", "action_on_homology", "connecting_homomorphism",
        "invariant_les", "exactness_check", "kernel_of_hom", "image_of_hom")

# span layer -> per-layer metric holding its self time
SELF_TIMES = {
    "chains.build": "chains.build_s",
    "chains.check": "chains.check_s",
    "linalg.snf": "linalg.snf_s",
    "linalg.field": "linalg.field_s",
    "linalg.echelon": "linalg.echelon_s",
    "linalg.solve": "linalg.solve_s",
    "linalg.present": "linalg.present_s",
    "homology.groups": "homology.groups_s",
    "homology.gens": "homology.gens_s",
    "homology.maps": "homology.maps_s",
    "cli": "cli.self_s",
}


class Recorder:
    """Spans and counters of one traced pass, grouped by case."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._distinct_snf = 0
        self._new_case()

    def _new_case(self) -> None:
        # strong references keep ids unique while a case runs
        self._seen: dict[int, object] = {}
        self._gens_seen: set[tuple[int, int]] = set()
        self.snf_inputs: list = []

    def end_case(self) -> None:
        """Close a case: the next one starts from cold caches."""
        self._distinct_snf += len(set(self.snf_inputs))
        self._new_case()

    def call(self, layer: str, fn, args, kwargs):
        index = len(self.spans)
        span = [layer, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def seen_before(self, obj) -> bool:
        if id(obj) in self._seen:
            return True
        self._seen[id(obj)] = obj
        return False

    def first_generator_call(self, profile, n: int) -> bool:
        key = (id(profile), n)
        if key in self._gens_seen:
            return False
        self._gens_seen.add(key)
        return True

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the pass; `wall` is its traced wall time."""
        self_time = Counter()
        covered = 0.0
        for layer, parent, start, end in self.spans:
            duration = end - start
            self_time[layer] += duration
            if parent < 0:
                covered += duration
            else:
                self_time[self.spans[parent][0]] -= duration
        c = self.counts
        out = {metric: float(self_time[layer]) for layer, metric in SELF_TIMES.items()}
        out.update({
            "chains.cells": c["cells"],
            "chains.boundary_nnz": c["boundary_nnz"],
            "chains.build_calls": c["build_calls"],
            "chains.build_reuse": _share(c["build_reuse"], c["build_calls"]),
            "linalg.snf_calls": c["snf_calls"],
            "linalg.snf_nnz_in": c["snf_nnz_in"],
            "linalg.snf_distinct": _share(self._distinct_snf, c["snf_calls"]),
            "linalg.field_calls": c["field_calls"],
            "linalg.field_nnz_in": c["field_nnz_in"],
            "linalg.echelon_calls": c["echelon_calls"],
            "linalg.solve_calls": c["solve_calls"],
            "homology.profile_reuse": _share(c["profile_reuse"], c["profile_calls"]),
            "homology.maps_calls": c["maps_calls"],
            "trace.unattributed_s": wall - covered,
            "trace.wall_s": wall,
        })
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Wraps the entry points for a traced pass; each pass records into a fresh Recorder."""

    def __init__(self):
        self.recorder = Recorder()
        self._undo: list[tuple[object, str, object]] = []

    def new_pass(self) -> Recorder:
        self.recorder = Recorder()
        return self.recorder

    def _wrap(self, layer: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.recorder
            if before is not None:
                before(rec, args)
            result = rec.call(layer, fn, args, kwargs)
            if after is not None:
                after(rec, result)
            return result
        return wrapper

    def _patch_function(self, home: str, name: str, wrapper_of) -> None:
        """Replace `home.name` in every package module that binds that function."""
        original = getattr(importlib.import_module(home), name)
        wrapper = wrapper_of(original)
        for module_name in PACKAGE_MODULES:
            module = importlib.import_module(module_name)
            if getattr(module, name, None) is original:
                self._undo.append((module, name, original))
                setattr(module, name, wrapper)

    def _patch_method(self, cls, name: str, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self) -> None:
        chains = "invariant_chains.chains"
        homology = "invariant_chains.homology"
        linalg = "invariant_chains.linalg"

        for name in BUILDERS:
            self._patch_function(chains, name, lambda fn: self._wrap(
                "chains.build", fn, before=_count("build_calls"), after=_count_build))
        for name in MAPS:
            home = linalg if name in ("kernel_of_hom", "image_of_hom") else homology
            self._patch_function(home, name, lambda fn: self._wrap(
                "homology.maps", fn, before=_count("maps_calls")))
        self._patch_function(homology, "dd_zero", lambda fn: self._wrap("chains.check", fn))
        self._patch_function(homology, "homology", lambda fn: self._wrap(
            "homology.groups", fn, before=_count("profile_calls"), after=_count_profile))
        self._patch_function(linalg, "invariant_factors", lambda fn: self._wrap(
            "linalg.snf", fn, before=_count_snf))
        self._patch_function(linalg, "rank_mod_p", lambda fn: self._wrap(
            "linalg.field", fn, before=_count_field))
        self._patch_function(linalg, "present_fg_abelian",
                             lambda fn: self._wrap("linalg.present", fn))
        self._patch_function("invariant_chains.cli", "main", lambda fn: self._wrap("cli", fn))

        echelon = importlib.import_module(linalg).ColumnEchelon
        self._patch_method(echelon, "__init__", self._wrap(
            "linalg.echelon", echelon.__init__, before=_count("echelon_calls")))
        self._patch_method(echelon, "solve", self._wrap(
            "linalg.solve", echelon.solve, before=_count("solve_calls")))
        profile = importlib.import_module(homology).HomologyProfile
        for name in ("generators", "reduce"):
            self._patch_method(profile, name, self._first_per_degree(getattr(profile, name)))

    def _first_per_degree(self, fn):
        """Span only the first generators/reduce call per profile and degree."""
        @functools.wraps(fn)
        def wrapper(profile, n, *args, **kwargs):
            rec = self.recorder
            if rec.first_generator_call(profile, n):
                return rec.call("homology.gens", fn, (profile, n) + args, kwargs)
            return fn(profile, n, *args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _count(key: str):
    def before(rec: Recorder, args) -> None:
        rec.counts[key] += 1
    return before


def _count_snf(rec: Recorder, args) -> None:
    rec.counts["snf_calls"] += 1
    rec.counts["snf_nnz_in"] += args[0].nnz
    rec.snf_inputs.append(args[0])


def _count_field(rec: Recorder, args) -> None:
    rec.counts["field_calls"] += 1
    rec.counts["field_nnz_in"] += args[0].nnz


def _slices_of(result) -> tuple:
    if hasattr(result, "boundaries"):  # a ComplexSlice
        return (result,)
    if hasattr(result, "quotient"):  # an InvariantSES
        return (result.coinvariants, result.invariants, result.quotient)
    return ()  # a ChainMap: its slices come from builder calls of their own


def _count_build(rec: Recorder, result) -> None:
    if rec.seen_before(result):
        rec.counts["build_reuse"] += 1
        return
    for slice_ in _slices_of(result):
        if slice_ is result or not rec.seen_before(slice_):
            rec.counts["cells"] += sum(slice_.sizes)
            rec.counts["boundary_nnz"] += sum(b.nnz for b in slice_.boundaries)


def _count_profile(rec: Recorder, result) -> None:
    if rec.seen_before(result):
        rec.counts["profile_reuse"] += 1
