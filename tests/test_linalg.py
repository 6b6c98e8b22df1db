"""Exact linear algebra: Smith form, kernels, lattice solves, presentations."""

import collections
import heapq
import importlib
import itertools
import json
import math
import random
import signal
from contextlib import contextmanager

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from invariant_chains import linalg
from invariant_chains.chains import (ComplexSlice, bar_complex, clear_caches,
                                     coinvariant_complex, invariant_complex, invariant_ses)
from invariant_chains.errors import InternalCheckError
from invariant_chains.groups import inversion_action, make_cyclic, negation_action
from invariant_chains.homology import HomologyProfile, exactness_check, homology, invariant_les
from invariant_chains.linalg import (AbelianHom, ColumnEchelon, FgAbelianGroup,
                                     SparseIntMatrix, _SnfEngine,
                                     fixed_points_of_hom_family, image_of_hom,
                                     invariant_factors, invariant_factors_from_orders,
                                     kernel_basis, kernel_of_hom, present_fg_abelian,
                                     rank_mod_p, smith_normal_form, solve_in_lattice)


def dense(rows):
    return SparseIntMatrix.from_dense(rows)


def random_matrix(rng, rows, cols, lo=-9, hi=9, density=0.7):
    return SparseIntMatrix.from_dense(
        [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)], cols)


def z4_boundaries():
    """The boundaries of the invariant complex of negation on Z/4, degrees 1-4."""
    ladder = invariant_complex(inversion_action(make_cyclic(4)), 4)
    return [ladder.d(n) for n in range(1, 5)]


@contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def full_engine(cls, m, mod):
    return cls(m, mod, want_u=True, want_v=True, want_u_inv=True)


def engine_lines(eng):
    """diag and the lines of U, U^-1 and V, entry order included."""
    return [eng.diag] + [[list(line.items()) for line in ws.lines]
                         for ws in (eng.u, eng.u_inv, eng.v)]


def transforms(eng, rows, cols):
    """U, U^-1 and V of a Smith form engine run, as matrices."""
    return (SparseIntMatrix(rows, rows, eng.u.lines).transpose(),
            SparseIntMatrix(rows, rows, eng.u_inv.lines),
            SparseIntMatrix(cols, cols, eng.v.lines))


def extended_euclid(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0, by floor quotients."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def test_gcd_step_is_the_extended_euclid_step():
    # no +-1 in either entry: units come first, so a +-1 would be the
    # pivot and no gcd step would happen
    small = [v for v in range(-12, 13) if abs(v) >= 2]
    pairs = [(a, b) for a in small for b in small if b % a]
    pairs += [(240, -46), (-987, 1597), (1234, 5678), (12345, -54321), (-99, -1000)]
    checked = 0
    for a, b in pairs:
        g, x, y = extended_euclid(a, b)
        assert x * a + y * b == g > 0
        # the lines of the step and of its inverse, as the engine keeps them
        step = [{i: v for i, v in enumerate(r) if v} for r in ([x, y], [-b // g, a // g])]
        inverse = [{i: v for i, v in enumerate(c) if v} for c in ([a // g, b // g], [-y, x])]
        # 1 x 2: column 0 is the pivot column, so a is the pivot; V is kept
        # by columns, already in pivot-first order
        eng = full_engine(_SnfEngine, dense([[a, b]]), 0)
        assert eng.diag == [g]
        assert eng.v.lines == step
        if abs(a) < abs(b):
            # 2 x 1: the pivot is the entry of least magnitude; put it on
            # either row and read U, U^-1 in pivot-first order
            for piv in (0, 1):
                col = [a, b] if piv == 0 else [b, a]
                eng = full_engine(_SnfEngine, dense([[v] for v in col]), 0)
                first = {piv: 0, 1 - piv: 1}
                assert eng.diag == [g]
                assert [{first[k]: v for k, v in line.items()} for line in eng.u.lines] == step
                assert [{first[k]: v for k, v in line.items()}
                        for line in eng.u_inv.lines] == inverse
                checked += 1
    assert checked > 100


def test_snf_examples():
    assert smith_normal_form(dense([[2, 0], [0, 3]])).s == (1, 6)
    assert smith_normal_form(SparseIntMatrix.zero(3, 4)).s == ()
    assert smith_normal_form(dense([[2, 4], [6, 8]])).s == (2, 4)


def test_snf_transforms_reproduce_diagonal():
    rng = random.Random(0)
    small = [random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(60)]
    # pivots are eliminated where they lie and the transforms ordered at the
    # end, so also take pivots away from the diagonal: zero leading rows and
    # columns, tall and wide shapes, a zero matrix and real boundaries
    placed = [SparseIntMatrix.zero(3, 5)]
    for rows, cols, zero_rows, zero_cols in ((6, 6, 2, 3), (7, 5, 0, 2), (5, 7, 3, 0),
                                             (12, 3, 4, 0), (3, 12, 0, 5), (10, 4, 0, 0),
                                             (4, 10, 0, 0)):
        block = random_matrix(rng, rows - zero_rows, cols - zero_cols, density=0.5)
        placed.append(SparseIntMatrix(rows, cols, [{}] * zero_cols + [
            {r + zero_rows: v for r, v in col.items()} for col in block.columns]))
    for m in small + placed + z4_boundaries():
        rows, cols = m.rows, m.cols
        res = smith_normal_form(m)
        assert res.u.mul(m).mul(res.v) == SparseIntMatrix.diagonal(res.s, rows, cols)
        for a, b in zip(res.s, res.s[1:]):
            assert b % a == 0 and a > 0
        if rows <= 8 and cols <= 8:
            # unimodularity, checked with an unrelated determinant implementation
            assert abs(sympy.Matrix(res.u.to_dense()).det()) == 1
            assert abs(sympy.Matrix(res.v.to_dense()).det()) == 1
        # the engine's inverse transform
        eng = full_engine(_SnfEngine, m, 0)
        u, u_inv, v = transforms(eng, rows, cols)
        assert u.mul(u_inv) == SparseIntMatrix.identity(rows)
        kernel = ColumnEchelon(m).kernel_matrix()
        assert kernel.cols == cols - len(res.s) and m.mul(kernel).is_zero()
        # the same engine over Z/p: U*M*V = D mod p, rank = number of pivots
        for p in (2, 3, 5):
            eng = full_engine(_SnfEngine, m, p)
            u, u_inv, v = transforms(eng, rows, cols)
            rank = len(eng.diag)
            assert u.mul(m).mul(v).to_mod(p) == SparseIntMatrix.diagonal(eng.diag, rows, cols)
            assert all(0 < d < p for d in eng.diag)
            assert u.mul(u_inv).to_mod(p) == SparseIntMatrix.identity(rows)
            kernel = SparseIntMatrix(cols, cols - rank, eng.v.lines[rank:])
            assert kernel.cols == cols - rank and m.mul(kernel).to_mod(p).is_zero()
            if m in small:
                assert rank == sympy.Matrix(m.to_dense()).rank(iszerofunc=lambda x: x % p == 0)


class _NoPrePassEngine(_SnfEngine):
    """The engine without the lone-unit pre-pass: the unit queue takes every pivot."""

    def _take_lone_units(self):
        pass


class _ScanPivotEngine(_NoPrePassEngine):
    """Reference: the engine's pivot rule by a linear scan of every entry.

    A unit is +-1 over Z and any nonzero entry over Z/p.  The pivot column
    is the column without a pivot of least (nonzero count, index) that holds
    a unit, and the pivot row its unit of least (row length, magnitude, row
    index).  When no column holds a unit, the same rule reads every entry.
    It takes no pre-pass, so the scan chooses every pivot.
    """

    def _choose_pivot(self) -> tuple[int, int] | None:
        ws = self.ws
        entries = [(len(rows), c, len(ws.lines[r]), abs(ws.lines[r][c]), r)
                   for c, rows in ws.cross.items() if not self._done[c] for r in rows]
        if not entries:
            return None
        units = [e for e in entries if self.mod or e[3] == 1]
        _, c, _, _, r = min(units or entries)
        return r, c


def queue_test_matrices():
    rng = random.Random(6)
    # larger entries, so that gcd steps make units again after none is left.
    # In the first, a column dropped for holding no unit gets one back while
    # its count is the same again; in the second, a row gcd step changes the
    # count of a unit column that no re-key reaches, so only the rebuild of
    # the stale queue keeps the choice right.
    mats = [dense([[0, 0, 0, 0, 0], [0, -6, 0, 0, -1], [0, 0, -2, 0, 0], [-6, 0, 3, 0, 5],
                   [-4, 6, 0, -5, 3], [-4, 5, -2, 2, 1]]),
            dense([[0, 5, -3, 1, 0, 0], [-4, 0, 0, 0, -3, 5], [0, 0, 0, 0, -4, 0],
                   [1, -6, -3, 0, 0, 0], [-1, 6, -4, -2, 0, -2]])]
    mats += [random_matrix(rng, rng.randint(2, 7), rng.randint(2, 7), lo=-6, hi=6,
                           density=rng.choice((0.4, 0.6, 0.8))) for _ in range(300)]
    rng = random.Random(5)
    mats += [random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), density=0.3)
             for _ in range(40)]
    # wide matrices whose columns all have two or three entries, so that
    # most pivot choices are decided by the lowest-index tie-break
    for _ in range(20):
        rows, cols = rng.randint(3, 8), rng.randint(20, 40)
        mats.append(SparseIntMatrix.from_entries(rows, cols, {
            (r, c): rng.choice((-3, -2, -1, 1, 2, 3))
            for c in range(cols) for r in rng.sample(range(rows), rng.randint(2, 3))}))
    # no +-1 at the start, so over Z the first pivot already comes from the
    # scan of the live columns: non-unit entries only, a diagonal and a band
    # of 2s
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mats.append(SparseIntMatrix.from_entries(rows, cols, {
            (r, c): rng.choice((-6, -4, -3, -2, 2, 3, 4, 6))
            for r in range(rows) for c in range(cols) if rng.random() < 0.6}))
    mats.append(SparseIntMatrix.diagonal([2] * 30))
    mats.append(SparseIntMatrix.from_entries(30, 30, {
        (r, c): 2 for r in range(30) for c in range(30) if abs(r - c) <= 1}))
    return mats + z4_boundaries()


def test_pivot_queue_matches_linear_scan():
    for m in queue_test_matrices():
        for mod in (0, 2, 3, 5):
            assert (engine_lines(full_engine(_SnfEngine, m, mod))
                    == engine_lines(full_engine(_ScanPivotEngine, m, mod))), (m, mod)


def transform_free_run(cls, m, mod, skip_rows=()):
    """The pivots (row, column, a unit when chosen), diag and cleared columns
    of a run without transforms, the pre-pass's pivots first."""
    pivots = []

    class Recording(cls):
        def _take_lone_units(self):
            super()._take_lone_units()
            # the pre-pass runs first, so every pivot so far is its own
            pivots.extend((r, c, bool(mod) or abs(d) == 1)
                          for (r, c), d in zip(self._pivots, self.diag))

        def _choose_pivot(self):
            picked = super()._choose_pivot()
            if picked is not None:
                r, c = picked
                pivots.append((r, c, bool(mod) or abs(self.ws.lines[r][c]) == 1))
            return picked

    eng = Recording(m, mod, skip_rows=skip_rows)
    assert [(r, c) for r, c, _ in pivots] == eng._pivots
    return pivots, eng.diag, eng.cleared


def test_unit_pivot_queue_matches_linear_scan():
    returned = 0  # unit pivots chosen over Z after a pivot that was not a unit
    for m in queue_test_matrices():
        for mod in (0, 2, 3, 5):
            pivots, diag, cleared = transform_free_run(_SnfEngine, m, mod)
            assert (pivots, diag, cleared) == transform_free_run(_ScanPivotEngine, m, mod), (m, mod)
            units = [unit for _, _, unit in pivots]
            lead = units.index(False) if False in units else len(units)
            assert cleared == [c for _, c, _ in pivots[:lead]]
            returned += sum(units[lead:])
    assert returned > 0


class _StaleCountEngine(_SnfEngine):
    """The engine, counting the queue rebuilds made because the queue was stale."""

    stale_rebuilds = 0

    def _rebuild_queue(self):
        if getattr(self, "_stale", False):
            self.stale_rebuilds += 1
        super()._rebuild_queue()


def test_only_a_row_gcd_step_makes_the_queue_stale():
    # a row gcd step adds another row to the pivot row, which can change a
    # count that no re-key reaches: it happens only over Z, at a pivot that
    # is not a unit
    rebuilds = collections.Counter()
    for m in queue_test_matrices():
        for mod in (0, 2, 3, 5):
            for eng in (_StaleCountEngine(m, mod), full_engine(_StaleCountEngine, m, mod)):
                rebuilds[mod] += eng.stale_rebuilds
                if len(eng.cleared) == len(eng.diag):  # every pivot a unit when chosen
                    assert eng.stale_rebuilds == 0, (m, mod)
    assert rebuilds[0] > 0
    assert rebuilds[2] == rebuilds[3] == rebuilds[5] == 0


class _ZeroResidueEngine(_SnfEngine):
    """The engine with a row of entries = 0 mod 3 in both columns of its
    working matrix, as row 2."""

    def _load_rows(self):
        super()._load_rows()
        self.ws.lines[2] = {0: 3, 1: 3}
        for c in (0, 1):
            self.ws.cross[c][2] = None


def test_a_zero_residue_in_the_working_matrix_raises():
    # its quotient by the pivot is 0, so no row op moves it out of the pivot
    # column: the clear must raise instead of repeating itself
    with deadline(5), pytest.raises(InternalCheckError):
        _ZeroResidueEngine(dense([[1, 1], [1, 2], [0, 0]]), 3)


class _AxpyRowClearEngine(_NoPrePassEngine):
    """Reference: the engine whose pivot-row clear always goes through `_col_axpy`.

    It takes no pre-pass, so every pivot is cleared that way.  `refilled`
    counts the column ops made while a gcd step had refilled the pivot
    column.
    """

    refilled = 0

    def _clear_position(self, r0: int, c0: int):
        ws = self.ws
        while True:
            for r in sorted(ws.cross[c0]):
                if r == r0:
                    continue
                a = ws.lines[r0][c0]
                b = ws.lines[r][c0]
                q = self._quotient(b, a)
                if q is not None:
                    self._row_axpy(r0, r, -q)
                else:
                    self._gcd_step(r0, r, a, b, self._row_axpy, self._row_negate)
            row = ws.lines[r0]
            for c in sorted(c for c in row if c != c0):
                a = row[c0]
                b = row[c]
                q = self._quotient(b, a)
                if q is not None:
                    if len(ws.cross[c0]) > 1:
                        self.refilled += 1
                    self._col_axpy(c0, c, -q)
                else:
                    self._gcd_step(c0, c, a, b, self._col_axpy, self._col_negate)
            if len(ws.cross[c0]) == 1:
                return


def test_direct_pivot_row_clear_matches_col_axpy():
    rng = random.Random(9)
    # non-unit entries, so that gcd steps refill column t during row clears
    mats = [random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10), lo=-12, hi=12,
                          density=rng.choice((0.3, 0.6, 0.9)))
            for _ in range(60)]
    mats += z4_boundaries()
    refilled = 0
    for m in mats:
        for mod in (0, 2, 3, 5):
            ref = full_engine(_AxpyRowClearEngine, m, mod)
            refilled += ref.refilled
            assert (engine_lines(full_engine(_SnfEngine, m, mod))
                    == engine_lines(ref)), (m, mod)
            # without transforms a unit pivot alone in its column drops
            # the rest of its row in one step
            assert (transform_free_run(_SnfEngine, m, mod)
                    == transform_free_run(_AxpyRowClearEngine, m, mod)), (m, mod)
    assert refilled > 0


class _PrePassCountEngine(_SnfEngine):
    """The engine, counting the pivots its pre-pass takes."""

    def _take_lone_units(self):
        super()._take_lone_units()
        self.pre_pass = len(self._pivots)


def test_lone_unit_pre_pass_changes_no_pivot():
    # chained boundaries: each run skips the rows its predecessor cleared
    ladders = [z4_boundaries()]
    ladders += [invariant_complex(negation_action(n), deg).boundaries
                for n, deg in ((3, 6), (5, 5), (8, 4))]
    ladders.append(coinvariant_complex(negation_action(4), 5).boundaries)
    taken = total = taken_with_transforms = 0
    for boundaries in ladders:
        for mod in (0, 2, 3, 5):
            cleared = []
            for d in boundaries:
                skip = cleared
                run = transform_free_run(_SnfEngine, d, mod, skip)
                assert run == transform_free_run(_NoPrePassEngine, d, mod, skip), (d, mod)
                pivots, _, cleared = run
                # U and U^-1, whose lines record the pre-pass's sign changes,
                # and V, whose lines record the column ops its dropped rows
                # stand for
                engines = [cls(d, mod, want_u=True, want_u_inv=True, want_v=True)
                           for cls in (_PrePassCountEngine, _NoPrePassEngine)]
                assert len({json.dumps([eng._pivots, eng.diag, eng.cleared]
                                       + [[list(line.items()) for line in ws.lines]
                                          for ws in (eng.u, eng.u_inv, eng.v)])
                            for eng in engines}) == 1, (d, mod)
                taken_with_transforms += engines[0].pre_pass
                taken += _PrePassCountEngine(d, mod, skip_rows=skip).pre_pass
                total += len(pivots)
    # with the rows the boundary before cleared skipped, most pivots are
    # units alone in their columns from the start or once rows are dropped
    assert taken > total // 2
    assert taken_with_transforms > 0


class _WorkspacePrePassEngine(_SnfEngine):
    """Reference: the lone-unit pre-pass on a fully loaded working matrix.

    Every live entry goes into the row dicts and the cross index first; a
    heap of the columns with one entry then gives the least lone column,
    and a unit there is taken by dropping its row from the workspace one
    entry at a time, pushing each column whose count falls to 1, negating a
    -1 pivot's row with a row operation and finishing it as the queue would.
    It shares no code with the engine's count pass, pre-pass or row load.
    """

    def __init__(self, m, mod=0, **kwargs):
        self._skip = set(kwargs.get("skip_rows", ()))
        super().__init__(m, mod, **kwargs)

    def _count_live(self, skip):
        pass

    def _load_rows(self):
        pass  # `_take_lone_units` built the working matrix before its pass

    def _take_lone_units(self):
        m, mod = self.m, self.mod
        ws = self.ws = linalg._IndexedLines([{} for _ in range(m.rows)],
                                            collections.defaultdict(dict), mod)
        lines, cross = ws.lines, ws.cross
        for c, col in enumerate(m.columns):
            rows = {}
            for r, v in col.items():
                if mod:
                    v %= mod
                    if not v:
                        continue
                if r not in self._skip:
                    lines[r][c] = v
                    rows[r] = None
            if rows:
                cross[c] = rows
        lone = [c for c, rows in cross.items() if len(rows) == 1]
        heapq.heapify(lone)
        while lone:
            c0 = heapq.heappop(lone)
            rows = cross[c0]
            if len(rows) != 1:
                continue
            r0 = next(iter(rows))
            piv = lines[r0][c0]
            if not self._unit(piv):
                continue
            self._done[c0] = True
            self.cleared.append(c0)
            if self.pairs is not None:
                self.pairs.append((r0, c0, piv, None, lines[r0] if self._pair_rows else None))
            self._drop_lone_row(r0, c0, lone)
            if piv < 0:
                self._row_negate(r0)
            self._finish_pivot(r0, c0)

    def _drop_lone_row(self, r0, c0, lone):
        cross = self.ws.cross
        row = self.ws.lines[r0]
        if self.v is not None:
            for c, b in row.items():
                if c != c0:
                    self.v.axpy(c0, c, -self._quotient(b, row[c0]))
        for c in row:
            if c != c0:
                rows = cross[c]
                del rows[r0]
                if len(rows) == 1:
                    heapq.heappush(lone, c)
        self.ws.lines[r0] = {c0: row[c0]}


def engine_state(eng):
    """Everything a run leaves: the pivots, diag, cleared columns, pairs with
    their rows, the working lines (entry order included), the cross index
    (as sets, without emptied columns) and the lines of U, U^-1 and V."""
    return (eng.diag, eng._pivots, eng.cleared, eng._done, eng.pairs,
            [list(line.items()) for line in eng.ws.lines],
            {c: set(rows) for c, rows in eng.ws.cross.items() if rows},
            [None if ws is None else [list(line.items()) for line in ws.lines]
             for ws in (eng.u, eng.u_inv, eng.v)])


class _WorkspacePrePassOnly(_WorkspacePrePassEngine):
    """The reference, stopped where the engine has just loaded its rows."""

    def _rebuild_queue(self):
        pass

    def _run(self):
        pass


def assert_same_state(m, mod, **kwargs):
    """The engine's state equals the reference's once the rows are loaded,
    before the queue could run on a wrong matrix, and at the end."""
    loaded = engine_state(_WorkspacePrePassOnly(m, mod, **kwargs))

    class Checked(_PrePassCountEngine):
        def _load_rows(self):
            super()._load_rows()
            assert engine_state(self) == loaded, (m, mod, kwargs)

    eng = Checked(m, mod, **kwargs)
    assert engine_state(eng) == engine_state(_WorkspacePrePassEngine(m, mod, **kwargs)), (
        m, mod, kwargs)
    return eng


def pre_pass_edge_cases():
    """(matrix, skip_rows, what it exercises) for the count pre-pass."""
    return [
        # a lone 2 from the start, and one left when row 1 is dropped: over
        # Z the queue takes them, over Z/3 they are units, over Z/2 zeros
        (dense([[2, 1, 0], [0, 1, 1]]), (), "lone 2"),
        (dense([[2, 0], [1, 1]]), (), "lone 2 after a drop"),
        (dense([[-2, 0, 1], [0, 1, 1], [1, 0, 0]]), (), "lone -2"),
        # entries that vanish mod p, first in their input columns
        (SparseIntMatrix(3, 3, [{0: 2, 1: 1}, {0: 3, 2: 1}, {1: 6, 0: 1, 2: 5}]), (),
         "zero residues"),
        (dense([[4, 1], [6, 1], [1, 0]]), (), "zero residues in a lone column"),
        # lone -1 pivots whose rows carry other entries, for V, U and U^-1
        (dense([[-1, 2, 3], [0, 1, 0], [0, 0, -1]]), (), "lone -1"),
        (dense([[-1, 0, 0, 5], [0, -1, 0, -4], [0, 0, -1, 2], [0, 0, 0, 1]]), (), "every -1"),
        # a skipped row that is a column's only entry, and one that leaves a
        # column lone
        (dense([[1, 0], [0, 1]]), (0,), "skipped only entry"),
        (dense([[1, 1, 0], [1, 0, 1], [0, 1, 1]]), (0,), "skip makes a column lone"),
        # runs whose pre-pass takes every pivot
        (SparseIntMatrix.identity(5), (), "all pre-pass"),
        (dense([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]), (), "all pre-pass"),
        # no rows, no columns, neither
        (SparseIntMatrix.zero(0, 3), (), "0 rows"),
        (SparseIntMatrix.zero(3, 0), (), "0 columns"),
        (SparseIntMatrix.zero(0, 0), (), "0 x 0"),
    ]


def test_count_pre_pass_leaves_the_workspace_pre_pass_state():
    transforms_kw = dict(want_u=True, want_u_inv=True, want_v=True)
    seen = collections.Counter()
    mats = [(m, ()) for m in queue_test_matrices()]
    mats += [(m, skip) for m, skip, _ in pre_pass_edge_cases()]
    for m, skip in mats:
        for mod in (0, 2, 3, 5):
            eng = assert_same_state(m, mod, skip_rows=skip)
            seen["pre-pass pivots"] += eng.pre_pass
            seen["queue pivots"] += len(eng._pivots) - eng.pre_pass
            assert_same_state(m, mod, skip_rows=skip, pairs=True)
            assert_same_state(m, mod, skip_rows=skip, pairs=True, pair_rows=True)
            if not skip:
                eng = assert_same_state(m, mod, **transforms_kw)
                seen["-1 pivots with U"] += sum(
                    d == 1 and eng.u.lines[k] != {r: 1} for k, ((r, _), d)
                    in enumerate(zip(eng._pivots, eng.diag)) if k < eng.pre_pass)
    assert min(seen.values()) > 0, seen


def test_count_pre_pass_edge_cases():
    for m, skip, what in pre_pass_edge_cases():
        for mod in (0, 2, 3, 5):
            eng = _PrePassCountEngine(m, mod, skip_rows=skip)
            if what == "all pre-pass":
                assert eng.pre_pass == len(eng._pivots) == min(m.rows, m.cols)
            if what == "lone 2" and mod in (0, 2):
                # over Z the 2 stays for the queue, over Z/2 it is no entry
                assert (0, 0) not in eng._pivots[:eng.pre_pass]
            if what == "lone 2" and mod == 3:
                assert (0, 0) in eng._pivots[:eng.pre_pass]
            if what == "skipped only entry":
                assert eng._pivots == [(1, 1)] and eng.ws.lines[0] == {}
            if m.rows == 0 or m.cols == 0:
                assert eng.diag == [] and not any(eng.ws.cross.values())


def test_chained_ladders_leave_the_workspace_pre_pass_state():
    # transform-free runs skip the rows their predecessor cleared; pair runs
    # skip the rows the pairs of their predecessor named, as the reduction
    # pass of generator data does; runs with transforms skip nothing
    for boundaries in lone_unit_ladders():
        for mod in (0, 2, 3, 5):
            cleared, paired = [], []
            for d in boundaries:
                eng = assert_same_state(d, mod, skip_rows=cleared)
                cleared = eng.cleared
                eng = assert_same_state(d, mod, skip_rows=paired, pairs=True,
                                        pair_rows=True)
                paired = [b for _, b, *_ in eng.pairs]
                assert_same_state(d, mod, want_u=True, want_u_inv=True, want_v=True)


def lone_unit_ladders():
    """Chained boundaries of small complexes, lowest degree first."""
    ladders = [z4_boundaries()]
    ladders += [invariant_complex(negation_action(n), deg).boundaries
                for n, deg in ((3, 6), (5, 5), (8, 4))]
    ladders.append(coinvariant_complex(negation_action(4), 5).boundaries)
    return ladders


class _LoadCountEngine(_SnfEngine):
    """The engine, recording what its working matrix holds when it is made."""

    def _take_lone_units(self):
        assert not hasattr(self, "ws")  # the pre-pass runs before any load
        super()._take_lone_units()
        self.pre_pass = list(zip(self._pivots, self.diag))
        # the count the load will write is known before it starts
        self.expected = sum(self._counts) + len(self._pivots)

    def _load_rows(self):
        super()._load_rows()
        self.loaded = [dict(line) for line in self.ws.lines]


def test_working_matrix_holds_only_the_rows_the_pre_pass_left():
    # the entries written into the working matrix are the live entries of
    # the rows the pre-pass left, plus one per pre-pass pivot: a dropped row
    # holds its pivot and nothing else
    total_live = total_loaded = 0
    for boundaries in lone_unit_ladders():
        for mod in (0, 2, 3, 5):
            cleared = []
            for d in boundaries:
                skip = set(cleared)
                eng = _LoadCountEngine(d, mod, skip_rows=skip)
                cleared = eng.cleared
                dropped = {r: (c, u) for (r, c), u in eng.pre_pass}
                live = [{} for _ in range(d.rows)]
                for c, col in enumerate(d.columns):
                    for r, v in col.items():
                        if r not in skip and (v % mod if mod else v):
                            live[r][c] = v % mod if mod else v
                for r, line in enumerate(eng.loaded):
                    if r in dropped:
                        c, u = dropped[r]
                        assert line == {c: abs(u)}
                    else:
                        assert line == live[r]
                kept = sum(len(live[r]) for r in range(d.rows) if r not in dropped)
                assert sum(map(len, eng.loaded)) == kept + len(dropped) == eng.expected
                total_live += sum(map(len, live))
                total_loaded += kept + len(dropped)
    # most live entries sit in the rows the pre-pass drops
    assert total_loaded < total_live // 2


class _SortedScanCheckEngine(_SnfEngine):
    """The engine, checking each `_find_nondivisible` against a sorted scan.

    The reference walks the live columns in index order and each column's
    rows in sorted order, and returns the first row whose entry the pivot
    does not divide.
    """

    def __init__(self, *args, **kwargs):
        self.found = [0, 0]  # calls that returned a row, calls that returned None
        super().__init__(*args, **kwargs)

    def _find_nondivisible(self, piv):
        got = super()._find_nondivisible(piv)
        lines, cross = self.ws.lines, self.ws.cross
        ref = next((r for c in range(self.m.cols) if not self._done[c]
                    for r in sorted(cross.get(c, ())) if lines[r][c] % piv), None)
        assert got == ref
        self.found[got is None] += 1
        return got


def test_find_nondivisible_matches_a_sorted_scan():
    # the matrices with no +-1 entry, a 30 x 30 band of 2s among them:
    # every first pivot over Z is a non-unit
    mats = [m for m in queue_test_matrices()
            if all(abs(v) != 1 for col in m.columns for v in col.values())]
    assert SparseIntMatrix.from_entries(30, 30, {
        (r, c): 2 for r in range(30) for c in range(30) if abs(r - c) <= 1}) in mats
    found = [0, 0]
    for m in mats:
        for eng in (_SortedScanCheckEngine(m), full_engine(_SortedScanCheckEngine, m, 0)):
            found = [a + b for a, b in zip(found, eng.found)]
    assert min(found) > 0


def test_snf_against_sympy_oracle():
    rng = random.Random(1)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols)
        mine = [f for f in invariant_factors(m) if f != 1]
        s = sympy_snf(sympy.Matrix(m.to_dense()))
        theirs = sorted(int(s[i, i]) for i in range(min(s.shape))
                        if s[i, i] not in (0, 1))
        assert sorted(mine) == theirs


def test_square_determinant_is_product_of_factors():
    rng = random.Random(2)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n)
        det = int(sympy.Matrix(m.to_dense()).det())
        if det == 0:
            continue
        factors = invariant_factors(m)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == abs(det)
        checked += 1


def test_kernel_examples():
    k = kernel_basis(dense([[1, 1]]))
    assert k.cols == 1 and k.to_dense() in ([[1], [-1]], [[-1], [1]])
    assert kernel_basis(SparseIntMatrix.identity(3)).cols == 0
    k2 = kernel_basis(dense([[2, -2]]))
    assert k2.to_dense() in ([[1], [1]], [[-1], [-1]])  # saturated, not (2, 2)


def test_kernel_is_saturated():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        k = kernel_basis(m)
        assert m.mul(k).is_zero()
        quotient = present_fg_abelian(m.cols, k)
        assert quotient.torsion == ()  # kernel lattice is a direct summand


def test_solve_examples():
    assert solve_in_lattice(dense([[2]]), [4]) == [2]
    assert solve_in_lattice(dense([[2]]), [3]) is None
    assert solve_in_lattice(dense([[1, 0], [0, 2]]), [5, 6]) == [5, 3]


def test_solve_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = [rng.randint(-5, 5) for _ in range(m.cols)]
        b = m.mul_vec(x)
        got = solve_in_lattice(m, b)
        assert got is not None
        assert m.mul_vec(got) == b


def test_rank_crosscheck_rational():
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        assert len(invariant_factors(m)) == sympy.Matrix(m.to_dense()).rank()


def test_present_examples():
    g = present_fg_abelian(2, dense([[2, 0], [0, 0]]))
    assert g == FgAbelianGroup(1, (2,))
    assert present_fg_abelian(1, SparseIntMatrix.zero(1, 0)) == FgAbelianGroup(1, ())
    g2 = present_fg_abelian(2, dense([[2, 0], [0, 3]]))
    assert g2 == FgAbelianGroup(0, (6,))


def test_present_generator_data_reduces_to_units():
    rng = random.Random(6)
    for _ in range(30):
        rank = rng.randint(1, 5)
        rels = random_matrix(rng, rank, rng.randint(0, 5), lo=-6, hi=6)
        g = present_fg_abelian(rank, rels)
        for i, gen in enumerate(g.gens):
            coords = g.reduce(gen)
            assert coords == tuple(1 if j == i else 0 for j in range(g.ngens))
        # every relation column reduces to zero
        for col in rels.columns:
            vec = [0] * rank
            for r, v in col.items():
                vec[r] = v
            assert all(x == 0 for x in g.reduce(vec))


def test_present_reducer_rejects_a_vector_of_the_wrong_length():
    g = present_fg_abelian(2, dense([[2], [0]]))
    assert g.reduce([3, 5]) == (1, 5)
    for vec in ([1], [1, 0, 0]):
        with pytest.raises(ValueError, match="vector length mismatch"):
            g.reduce(vec)


def test_invariant_factors_from_orders():
    assert invariant_factors_from_orders([2, 3]) == (6,)
    assert invariant_factors_from_orders([2, 4, 3]) == (2, 12)
    assert invariant_factors_from_orders([]) == ()
    assert invariant_factors_from_orders([1, 1]) == ()
    # 2 * (2^89 - 1): no factoring, whose trial division would not end
    mersenne = 2 ** 89 - 1
    with deadline(1):
        assert invariant_factors_from_orders([2 * mersenne, 4]) == (2, 4 * mersenne)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(1, 720), max_size=7))
def test_invariant_factors_from_orders_match_the_smith_form(orders):
    # the non-unit invariant factors of the diagonal matrix of the orders
    assert invariant_factors_from_orders(orders) == tuple(
        d for d in invariant_factors(SparseIntMatrix.diagonal(orders)) if d != 1)


def test_hom_examples():
    z4 = FgAbelianGroup(0, (4,))
    ident = AbelianHom.identity(z4)
    assert kernel_of_hom(ident).order() == 1
    assert image_of_hom(ident).group == z4
    mul2 = AbelianHom.scalar(z4, 2)
    assert kernel_of_hom(mul2).group == FgAbelianGroup(0, (2,))
    assert image_of_hom(mul2).group == FgAbelianGroup(0, (2,))
    z2 = FgAbelianGroup(0, (2,))
    j = AbelianHom(z2, z4, [[2]])
    assert kernel_of_hom(j).order() == 1
    assert image_of_hom(j).order() == 2


def test_hom_rejects_ill_defined():
    z2 = FgAbelianGroup(0, (2,))
    z4 = FgAbelianGroup(0, (4,))
    with pytest.raises(ValueError):
        AbelianHom(z2, z4, [[1]])  # 2*1 = 2 != 0 in Z/4
    with pytest.raises(ValueError):
        AbelianHom(z2, FgAbelianGroup(1, ()), [[1]])  # torsion into free part


def test_fixed_points_examples():
    z4 = FgAbelianGroup(0, (4,))
    fp = fixed_points_of_hom_family(z4, [AbelianHom.scalar(z4, -1)])
    assert fp.group == FgAbelianGroup(0, (2,))
    assert fp.contains((2,)) and not fp.contains((1,))
    z5 = FgAbelianGroup(0, (5,))
    assert fixed_points_of_hom_family(z5, [AbelianHom.scalar(z5, -1)]).order() == 1
    assert fixed_points_of_hom_family(z4, [AbelianHom.identity(z4)]).group == z4
    assert fixed_points_of_hom_family(z4, []).group == z4


def test_fixed_points_mixed_presentation():
    g = FgAbelianGroup(1, (2, 4))
    swapish = AbelianHom(g, g, [[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    fp = fixed_points_of_hom_family(g, [swapish])
    # elements (a, b, c) with 2c = 0 in Z/4: c in {0, 2}
    assert fp.contains((0, 1, 0)) and fp.contains((0, 0, 2)) and fp.contains((1, 0, 0))
    assert not fp.contains((0, 0, 1))


def test_subgroup_membership_and_equality():
    z8 = FgAbelianGroup(0, (8,))
    im2 = image_of_hom(AbelianHom.scalar(z8, 2))
    im6 = image_of_hom(AbelianHom.scalar(z8, 6))
    assert im2.same_subgroup(im6)
    im4 = image_of_hom(AbelianHom.scalar(z8, 4))
    assert not im2.same_subgroup(im4)


def test_each_subgroup_takes_one_smith_form(monkeypatch):
    built = []
    init = ColumnEchelon.__init__

    def counting_init(self, m):
        built.append(m)
        init(self, m)

    monkeypatch.setattr(linalg.ColumnEchelon, "__init__", counting_init)
    g = FgAbelianGroup(1, (2, 4))
    h = AbelianHom(g, g, [[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    image_of_hom(h)
    assert len(built) == 1  # [G | R], for relations and membership alike
    built.clear()
    kernel_of_hom(h)
    assert len(built) == 2  # the preimage [H | R], then the subgroup's [G | R]
    preimage, subgroup = built
    # G is the kernel basis of the preimage, and R the two ambient relations,
    # which are not added to G as well
    assert subgroup.cols == kernel_basis(preimage).cols + len(g.torsion)


def test_is_zero_map_on_torsion_multiples_and_free_targets():
    z4 = FgAbelianGroup(0, (4,))
    assert AbelianHom(z4, z4, [[4]]).is_zero_map()
    assert not AbelianHom(z4, z4, [[2]]).is_zero_map()
    z = FgAbelianGroup(1, ())
    assert AbelianHom(z, z, [[0]]).is_zero_map()
    assert not AbelianHom(z, z, [[3]]).is_zero_map()
    mixed = FgAbelianGroup(1, (4,))
    assert AbelianHom(z, mixed, [[8], [0]]).is_zero_map()
    assert not AbelianHom(z, mixed, [[8], [3]]).is_zero_map()


def test_exactness_check_takes_each_image_once(monkeypatch):
    # the package exports a function named `homology`, which hides the module
    homology = importlib.import_module("invariant_chains.homology")
    les = invariant_les(invariant_ses(negation_action(4), 4), 3)
    calls = []
    image = homology.image_of_hom

    def counting_image(h):
        calls.append(h)
        return image(h)

    monkeypatch.setattr(homology, "image_of_hom", counting_image)
    report = exactness_check(les)
    assert len(report.records) == len(les.maps) - 1
    assert len(calls) == len(les.maps)
    assert all(a is b for a, b in zip(calls, les.maps))


# random well-defined homs between small presented groups

@st.composite
def presented_groups(draw):
    free = draw(st.integers(0, 2))
    orders = draw(st.lists(st.integers(2, 6), max_size=3))
    return FgAbelianGroup.from_orders(free, orders)


@st.composite
def homs(draw, source=None, target=None):
    if source is None:
        source = draw(presented_groups())
    if target is None:
        target = draw(presented_groups())
    matrix = []
    for t in target.gen_orders():
        row = []
        for o in source.gen_orders():
            k = draw(st.integers(-6, 6))
            if o == 0:
                row.append(k)  # a free generator may go anywhere
            elif t == 0:
                row.append(0)  # torsion has no image in a free coordinate
            else:
                row.append(k * (t // math.gcd(o, t)))  # o * entry = 0 mod t
        matrix.append(row)
    return AbelianHom(source, target, matrix)


@st.composite
def endomorphisms(draw):
    g = draw(presented_groups())
    return draw(homs(source=g, target=g))


def elements(group):
    """Every element of a finite group, in normal form."""
    return itertools.product(*(range(t) for t in group.torsion))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(homs())
def test_kernel_and_image_properties(h):
    ker, im = kernel_of_hom(h), image_of_hom(h)
    zero = (0,) * h.target.ngens
    assert all(h.apply(col) == zero for col in ker.inclusion.images())
    assert all(im.contains(col) for col in h.images())
    for sub in (ker, im):
        assert all(sub.contains(col) for col in sub.inclusion.images())
    if h.source.order() is not None:
        assert ker.order() * im.order() == h.source.order()
        # the kernel holds exactly the elements h sends to 0
        assert all(ker.contains(x) == (h.apply(x) == zero) for x in elements(h.source))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(endomorphisms())
def test_fixed_points_are_the_kernel_of_rho_minus_one(rho):
    g = rho.source
    rho_minus_one = AbelianHom(g, g, [[v - (i == j) for j, v in enumerate(row)]
                                      for i, row in enumerate(rho.matrix)])
    fixed = fixed_points_of_hom_family(g, [rho])
    assert fixed.same_subgroup(kernel_of_hom(rho_minus_one))
    assert all(fixed.contains(col) for col in fixed.inclusion.images())


def test_field_echelon_and_ranks():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(15):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rank_mod_p(m, p) == sympy.Matrix(m.to_dense()).rank(
                iszerofunc=lambda x: x % p == 0)


# ---------------------------------------------------------------------------
# clearing: a boundary skips the rows its predecessor's cleared columns name


def chained_runs(boundaries, mod):
    """Each boundary's invariant factors (mod 0) or rank mod p, skipping the
    rows the boundary before cleared, with the columns it clears itself."""
    out, cleared = [], []
    for d in boundaries:
        skip, cleared = cleared, []
        out.append((rank_mod_p(d, mod, skip_rows=skip, cleared=cleared) if mod
                    else invariant_factors(d, skip_rows=skip, cleared=cleared), cleared))
    return out


def chained_eliminations(boundaries, mod):
    return [result for result, _ in chained_runs(boundaries, mod)]


def uncleared_eliminations(boundaries, mod):
    return [rank_mod_p(d, mod) if mod else invariant_factors(d) for d in boundaries]


@st.composite
def unimodular_pairs(draw, n):
    """(P, P^-1) for a random product of row swaps and row additions, dense."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(-2, 2))
        if k == 0:
            # E swaps rows i and j: P <- E*P, P^-1 <- P^-1*E
            p[i], p[j] = p[j], p[i]
            for row in p_inv:
                row[i], row[j] = row[j], row[i]
        else:
            # E adds k * row j to row i: P <- E*P, P^-1 <- P^-1*E^-1
            p[i] = [a + k * b for a, b in zip(p[i], p[j])]
            for row in p_inv:
                row[j] -= k * row[i]
    return dense(p), dense(p_inv)


@st.composite
def z_complexes(draw):
    """d_1, d_2, d_3 of a sum of pieces Z --k--> Z and free Z, in random bases.

    A piece `k` at degree n maps its generator in degree n to k times its
    generator in degree n - 1; the sum's boundaries are then conjugated,
    d'_n = P_{n-1} * d_n * P_n^-1 with P_n unimodular, which keeps d.d = 0.
    """
    pieces = draw(st.lists(st.one_of(
        st.tuples(st.just(0), st.integers(0, 3)),
        st.tuples(st.sampled_from((1, -1, 2, -2, 3, 4, 6)), st.integers(1, 3))),
        min_size=1, max_size=8))
    basis: list[list[int]] = [[], [], [], []]  # per degree, the pieces with a generator there
    for i, (k, n) in enumerate(pieces):
        basis[n].append(i)
        if k:
            basis[n - 1].append(i)
    ps = [draw(unimodular_pairs(len(b))) for b in basis]
    out = []
    for n in (1, 2, 3):
        rows = {piece: r for r, piece in enumerate(basis[n - 1])}
        d = SparseIntMatrix(len(basis[n - 1]), len(basis[n]), [
            {rows[piece]: pieces[piece][0]} if pieces[piece][0] and pieces[piece][1] == n
            else {} for piece in basis[n]])
        out.append(ps[n - 1][0].mul(d).mul(ps[n][1]))
    return out


@settings(derandomize=True, deadline=None, max_examples=200)
@given(z_complexes())
def test_cleared_rows_keep_factors_and_ranks(boundaries):
    assert all(a.mul(b).is_zero() for a, b in zip(boundaries, boundaries[1:]))
    for mod in (0, 2, 3, 5):
        assert chained_eliminations(boundaries, mod) == uncleared_eliminations(boundaries, mod)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(z_complexes())
def test_morse_bundles_present_the_profile_groups(boundaries):
    # a complex d_1, d_2, d_3 whose homology has generator data in degrees
    # 0-2; the generator data presents H_n of the complex its own unit
    # reduction pairs leave, and each lifted generator reduces to its own
    # coordinate vector
    sizes = (boundaries[0].rows,) + tuple(d.cols for d in boundaries)
    slc = ComplexSlice("pieces", "test", 3, sizes, tuple(boundaries))
    for mod in (0, 2, 3, 5):
        prof = HomologyProfile(slc, mod)
        for n in range(3):
            group = prof.group(n)
            assert prof._bundle(n).presented == group
            gens = prof.generators(n)
            assert [prof.reduce(n, g) for g in gens] == [
                group.normalize([int(i == j) for i in range(group.ngens)])
                for j in range(group.ngens)]


def test_cleared_stops_at_the_first_nonunit_pivot():
    # no entry of d1 is a unit, so its first pivot is not one
    d1, d2 = dense([[2, 3]]), dense([[3], [-2]])
    cleared = []
    assert invariant_factors(d1, cleared=cleared) == (1,)
    assert cleared == []
    assert _SnfEngine(d1, pairs=True).pairs == []  # reduction pairs stop there too
    assert invariant_factors(d2, skip_rows=cleared) == (1,)
    assert invariant_factors(d2, skip_rows=[0]) == (2,)  # what skipping row 0 would give
    for p in (2, 3):
        assert chained_eliminations([d1, d2], p) == [1, 1]
    # a +-1 is chosen before a +-2 of another column with as many nonzeros
    d1, d2 = dense([[2, 1]]), dense([[1], [-2]])
    cleared = []
    assert invariant_factors(d1, cleared=cleared) == (1,)
    assert cleared == [1]
    # the pair (row 0, column 1, pivot 1): a lone unit, row [2, 1] as found
    assert _SnfEngine(d1, pairs=True, pair_rows=True).pairs == [(0, 1, 1, None, {0: 2, 1: 1})]
    assert invariant_factors(d2, skip_rows=cleared) == (1,)
    # U and U^-1 are indexed by the rows, so runs that keep them skip none,
    # and reduction runs keep no transform
    for want in ("want_u", "want_u_inv"):
        with pytest.raises(ValueError, match="without U and U"):
            _SnfEngine(d2, skip_rows=[0], **{want: True})
    for want in ("want_u", "want_v", "want_u_inv"):
        with pytest.raises(ValueError, match="without U and U"):
            _SnfEngine(d2, pairs=True, **{want: True})


def test_clearing_reaches_every_pivot_of_inv_z6_d5():
    # units first: every pivot of d_5 over Z is cleared, as over Z/2 (with
    # the plain pivot rule, 164 of these 560 columns were)
    boundaries = invariant_complex(negation_action(6), 5).boundaries
    factors, cleared_z = chained_runs(boundaries, 0)[-1]
    rank, cleared_2 = chained_runs(boundaries, 2)[-1]
    assert len(cleared_z) == len(factors) == len(cleared_2) == rank == 560


def test_chained_equals_uncleared_on_inv_z4_degree_7():
    boundaries = invariant_complex(negation_action(4), 7).boundaries
    assert chained_eliminations(boundaries, 0) == uncleared_eliminations(boundaries, 0)


def test_profiles_equal_uncleared_elimination_on_the_ladder():
    # the seven complexes of the benchmark's ladder workloads
    ladder = [invariant_complex(negation_action(n), deg)
              for n, deg in ((3, 6), (5, 5), (6, 5), (4, 6), (8, 4))]
    ladder += [coinvariant_complex(negation_action(4), 5), bar_complex(make_cyclic(5), 5)]
    for slice_ in ladder:
        clear_caches()
        for mod in (0, 2, 3, 5):
            data = homology(slice_, mod)._boundary_data[1:]
            assert list(data) == uncleared_eliminations(slice_.boundaries, mod), (slice_, mod)


def dense_product(x, y):
    xd, yd = x.to_dense(), y.to_dense()
    return [[sum(xd[i][k] * yd[k][j] for k in range(x.cols)) for j in range(y.cols)]
            for i in range(x.rows)]


def test_mul_matches_dense_product():
    rng = random.Random(10)
    pairs = []
    for _ in range(60):
        a, b, c = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        pairs.append((random_matrix(rng, a, b, lo=-2, hi=2, density=0.4),
                      random_matrix(rng, b, c, lo=-2, hi=2, density=0.4)))
    # products that cancel to zero
    d = z4_boundaries()
    pairs += [(d[n - 1], d[n]) for n in range(1, len(d))]
    for _ in range(10):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 7))
        pairs.append((m, kernel_basis(m)))
    # empty rows and columns on both sides
    pairs.append((SparseIntMatrix.from_entries(4, 3, {(0, 1): 2, (2, 1): -1, (2, 2): 3}),
                  SparseIntMatrix.from_entries(3, 5, {(1, 0): 3, (1, 4): -2, (2, 4): 1})))
    pairs.append((SparseIntMatrix.from_entries(3, 2, {(0, 0): 1, (1, 1): 1}),
                  SparseIntMatrix.from_entries(2, 3, {(0, 0): 1, (1, 0): -1})))
    for x, y in pairs:
        p = x.mul(y)
        assert (p.rows, p.cols) == (x.rows, y.cols)
        assert p.to_dense() == dense_product(x, y)
        assert all(v for col in p.columns for v in col.values())
        assert p == SparseIntMatrix(p.rows, p.cols, p.columns)
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 3).mul(SparseIntMatrix(2, 3))


def test_matrix_basics():
    m = dense([[1, 2], [3, 4]])
    assert m.transpose().to_dense() == [[1, 3], [2, 4]]
    assert m.mul(SparseIntMatrix.identity(2)) == m
    assert m.mul_vec([1, 1]) == [3, 7]
    with pytest.raises(ValueError):
        SparseIntMatrix.from_entries(2, 2, {(2, 0): 1})
    h = m.hstack(SparseIntMatrix.identity(2))
    assert h.cols == 4 and h.get(0, 2) == 1


# ---------------------------------------------------------------------------
# the column store of SparseIntMatrix


@st.composite
def column_dicts(draw, rows=None, cols=None):
    """(rows, cols, columns): one {row: value} dict per column, zero values included."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    cell = st.dictionaries(st.integers(0, max(rows - 1, 0)), st.integers(-4, 4), max_size=rows)
    return rows, cols, [draw(cell) for _ in range(cols)]


@st.composite
def matrices(draw, rows=None, cols=None):
    return SparseIntMatrix(*draw(column_dicts(rows, cols)))


@st.composite
def product_pairs(draw):
    a, b, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(a, b)), draw(matrices(b, c))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(product_pairs())
def test_column_mul_matches_dense_product(pair):
    x, y = pair
    p = x.mul(y)
    assert (p.rows, p.cols) == (x.rows, y.cols)
    assert p.to_dense() == dense_product(x, y)
    assert all(v for col in p.columns for v in col.values())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_column_matrix_operations(data):
    m = data.draw(matrices())
    dm = m.to_dense()
    vec = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
    assert m.mul_vec(vec) == [sum(a * x for a, x in zip(row, vec)) for row in dm]
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.to_dense() == [[dm[r][c] for r in range(m.rows)] for c in range(m.cols)]
    assert t.transpose() == m
    other = data.draw(matrices(rows=m.rows))
    h = m.hstack(other)
    assert (h.rows, h.cols) == (m.rows, m.cols + other.cols)
    assert h.to_dense() == [a + b for a, b in zip(dm, other.to_dense())]
    for p in (2, 3, 5):
        reduced = m.to_mod(p)
        assert reduced.to_dense() == [[v % p for v in row] for row in dm]
        assert all(v for col in reduced.columns for v in col.values())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(matrices())
def test_from_entries_inverts_the_entry_dict(m):
    triples = json.loads(json.dumps(sorted(
        [r, c, v] for c, col in enumerate(m.columns) for r, v in col.items())))
    assert SparseIntMatrix.from_entries(m.rows, m.cols, {(r, c): v for r, c, v in triples}) == m
    assert m.nnz == len(triples)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(column_dicts())
def test_equal_content_in_another_order_is_equal(drawn):
    rows, cols, columns = drawn
    m = SparseIntMatrix(rows, cols, columns)
    reordered = SparseIntMatrix(rows, cols, [dict(reversed(col.items())) for col in columns])
    assert [list(c.items()) for c in reordered.columns] == \
        [list(reversed(c.items())) for c in m.columns]
    assert reordered == m and hash(reordered) == hash(m)
    assert len({m, reordered}) == 1


@settings(derandomize=True, deadline=None, max_examples=100)
@given(column_dicts())
def test_constructor_checks_shape_and_drops_zeros(drawn):
    rows, cols, columns = drawn
    m = SparseIntMatrix(rows, cols, columns)
    assert m.nnz == sum(1 for col in columns for v in col.values() if v)
    assert m.columns == [{r: v for r, v in col.items() if v} for col in columns]
    with pytest.raises(ValueError, match="columns given"):
        SparseIntMatrix(rows, cols + 1, columns)
    for bad_row in (rows, -1):
        bad = [dict(col) for col in columns] + [{bad_row: 1}]
        with pytest.raises(ValueError, match="out of range"):
            SparseIntMatrix(rows, cols + 1, bad)


def test_constructor_converts_values_to_int():
    m = SparseIntMatrix(2, 1, [{0: True, 1: False}])
    assert m.columns == [{0: 1}] and type(m.columns[0][0]) is int
