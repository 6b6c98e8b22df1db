"""Exact sparse linear algebra over Z and Z/p.

One elimination routine does all the work: a sparse Smith normal form
U*M*V = D over Z or over Z/p, p prime, that carries whichever of the three
transforms U, U^-1 and V its caller asks for.  Everything else is read off
it:

  * smith_normal_form, invariant_factors -- the Smith form over Z
  * rank_mod_p             -- the rank of M mod p, by its own elimination mod p
  * kernel_basis           -- V[:, r:], a saturated basis of the kernel lattice
  * solve_in_lattice       -- U*b divided by the invariant factors, then times V
  * present_fg_abelian     -- invariant-factor presentation of R^k / relations
  * FgAbelianGroup, AbelianHom  -- finitely generated abelian groups with
    generator data, and homomorphisms between them
  * FgSubgroup             -- one Smith form of [G | R], the generator matrix
    beside the ambient relations, gives its presentation and membership;
    kernels and fixed points take the X rows of ker [X | R] as G

Pivoting is deterministic, so results are reproducible bit for bit, and
one rule chooses every pivot.  A unit is +-1 over Z and any nonzero entry
over Z/p.  The pivot column is the column without a pivot that holds a
unit and has the fewest nonzeros, ties to the lowest index; in it the pivot
row is the unit entry of least (row length, magnitude, row index).  When no
column holds a unit, which happens only over Z, the same rule reads every
entry as a candidate.  Every run first takes, with no queue, every unit
alone in its column, least column first (see below): no live column has
fewer than one nonzero, so these are the pivots the rule picks first, in
the same order.  After that a unit column comes from a priority queue
keyed by (nonzero count, column index), checked as keys reach the top for a
column that still holds a unit.  Every count an operation changes is
re-keyed before the next choice, save after a gcd step between two rows,
which has the queue rebuilt instead (see `_SnfEngine`).  Once the queue is
empty, one pass over the live columns makes the choice without a unit.
That is rare (29 of the 2,768 pivots of the benchmark ladder's integral
eliminations), and a pivot that stays a non-unit is followed by a scan of
the live columns for an entry it does not divide anyway, so the pass at
most doubles a cost that is there already; a second queue would be
re-keyed on every count change of every run over Z.  Each pivot is
eliminated where it is found: no row or column is ever moved.  The engine
keeps the pivot sequence instead, and orders the lines of the transforms
once at the end, pivot lines first in pivot order, so that D's entries sit
at (i, i).

The elementary operations are the textbook elementary matrices:
transvections (add k times one line to another) and sign changes.  Over Z a
pivot a that does not divide an entry b of its row or column takes a gcd
step, one run of extended Euclid on the two lines through a and b; see
`_SnfEngine._gcd_step`.  Over Z/p every nonzero pivot is a unit, so gcd
steps happen only over Z.

Only the working matrix carries a cross index (for each column, the rows
with an entry there): its column operations reach rows through it, and the
pivot queue reads the column counts off it.  The transforms U, U^-1 and V
receive only whole-line operations and are read line by line, so they are
plain lists of dicts.  When the pivot is a unit alone in its column, each
column operation of the pivot-row clear would only delete one entry of that
row (a unit divides every entry), so the engine drops the row's other
entries in one step, and a kept V receives those column operations: a
reduction pair in the sense of Kaczynski, Mrozek and Slusarek (1998).  The
matrix, U, U^-1, V and every later pivot are the same as with one column
operation per entry; in the structured Gaussian elimination of LaMacchia
and Odlyzko (CRYPTO '90) the same step is singleton removal.  Every run
begins with these pairs, and takes them on counts alone, before the
working matrix exists: one pass over the input columns gives each column
its live count and each row the columns of its live entries.  A sweep over
the columns, merged with a heap of the columns whose counts fall to 1
behind it, gives the least column with one live entry.  If that entry is a
unit it is the pivot: its row is dropped, the counts of the row's other
columns fall by one, and a -1 pivot's sign change goes to U and U^-1.  The
working matrix and its cross index are then built from the rows left, so a
dropped row is never loaded, and the pivot queue only over the columns
left.  With the rows of a cleared predecessor skipped, the pre-pass takes
9,156 of the 11,043 pivots of the benchmark ladder's eliminations over Z,
Z/2, Z/3 and Z/5, and the rows it drops hold 191,344 of their 231,329 live
entries.

There is one sparse format: a `SparseIntMatrix` keeps one {row: value} dict
per column, as a column-kept `_Lines` does.  So V, U^-1 and kernel bases
become matrices without a copy; the rows of U are read as they are kept.

Clearing.  A transform-free elimination of d_n reports `cleared`, a set A of
its columns, and the elimination of d_{n+1} may take A as `skip_rows`: those
rows are never loaded, and its invariant factors (over Z) or rank (over Z/p)
stay the same.  Over Z/p, A is every pivot column; over Z it is the columns
of the leading pivots that were +-1 when chosen, up to the first that was
not.  Units come first, so that run covers every pivot chosen while a +-1
was left.  Until its end no gcd step happens: each row operation adds a
multiple of the pivot row to another row or negates the pivot row, and each
column operation adds a multiple of the pivot column to a column without a
pivot.  Precondition: d_n * d_{n+1} = 0 in the ring, which every
`ComplexSlice` checks when it is made.  Proof: d_n[:, A] has a
left inverse L in the ring.  Over Z/p its columns are independent; over Z
the unit-pivot prefix turns it into a signed partial permutation by
unimodular row operations and unit-triangular column operations.  L reads
only the rows the elimination of d_n loaded, so this holds when d_n skipped
rows itself.  With B the other rows of d_{n+1}, d_n * d_{n+1} = 0 gives
d_{n+1}[A, :] = -L * d_n[:, B] * d_{n+1}[B, :], so rows A are combinations
of rows B: a unimodular row operation makes them zero, which changes no
invariant factor and no rank.  Past a non-unit pivot, gcd steps mix a pivot
column with others, and a later unit pivot need not give such an L.

Reduction pairs.  With `pairs=True` a transform-free run records its
leading unit pivots, as the pairs (a, b, u, p, q) of Kaczynski, Mrozek and
Slusarek: row a, column b, the pivot u, and the pivot's column p and row q
as they stood when it was chosen (p is None for a unit alone in its
column, q is None unless `pair_rows`).  It stops at the first pivot that is
not a unit, so the working matrix it leaves, outside the pivot lines, is
the reduced boundary: each unit clear adds multiples of the pivot row to the
rows of the pivot column, the Schur complement of u.  `homology` chains
such runs, d_n skipping the rows that d_{n-1}'s pairs name, into the Morse
complex of its generator data.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InternalCheckError

Vector = Sequence[int]


# ---------------------------------------------------------------------------
# sparse matrices


class SparseIntMatrix:
    """Immutable sparse integer matrix kept by columns, zeros never stored.

    `columns[c]` maps row -> value for column c, the same layout as a
    column-kept `_Lines`.  Matrices built from one another may share column
    dicts, so a column dict is never changed once it is in a matrix.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Sequence[dict[int, int]] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if columns is None:
            columns = [{}] * cols
        elif len(columns) != cols:
            raise ValueError(f"{len(columns)} columns given for {rows}x{cols}")
        store = []
        for c, col in enumerate(columns):
            if col and (min(col) < 0 or max(col) >= rows):
                r = next(r for r in col if not 0 <= r < rows)
                raise ValueError(f"entry index {(r, c)} out of range for {rows}x{cols}")
            store.append({r: int(v) for r, v in col.items() if v})
        self.rows = rows
        self.cols = cols
        self.columns = store

    @classmethod
    def _trusted(cls, rows: int, cols: int, columns: list[dict[int, int]]) -> "SparseIntMatrix":
        """Wrap column dicts, already in range and free of zeros, without checks."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.columns = columns
        return m

    # -- construction helpers

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "SparseIntMatrix":
        """The matrix with the given entries, a {(r, c): v} dict."""
        columns: list[dict[int, int]] = [{} for _ in range(cols)]
        for (r, c), v in entries.items():
            if not 0 <= c < cols:
                raise ValueError(f"entry index {(r, c)} out of range for {rows}x{cols}")
            columns[c][r] = v
        return cls(rows, cols, columns)

    @classmethod
    def from_dense(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "SparseIntMatrix":
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, [{r: row[c] for r, row in enumerate(data) if row[c]}
                                for c in range(cols)])

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls._trusted(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseIntMatrix":
        return cls(rows, cols)

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "SparseIntMatrix":
        n = len(values)
        cols = n if cols is None else cols
        return cls(n if rows is None else rows, cols,
                   [{i: v} for i, v in enumerate(values)] + [{}] * (cols - n))

    # -- accessors

    def get(self, r: int, c: int) -> int:
        return self.columns[c].get(r, 0)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return out

    def transpose(self) -> "SparseIntMatrix":
        out: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                out[r][c] = v
        return SparseIntMatrix._trusted(self.cols, self.rows, out)

    def to_mod(self, p: int) -> "SparseIntMatrix":
        return SparseIntMatrix._trusted(self.rows, self.cols, [
            {r: v % p for r, v in col.items() if v % p} for col in self.columns])

    # -- arithmetic

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # column c of the product is the sum of the left columns b, each
        # times the entry (b, c) of the right factor
        left = self.columns
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for b, v in col.items():
                for a, w in left[b].items():
                    acc[a] = acc.get(a, 0) + w * v
            out.append({a: x for a, x in acc.items() if x})
        return SparseIntMatrix._trusted(self.rows, other.cols, out)

    __matmul__ = mul

    def mul_vec(self, vec: Vector) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for x, col in zip(vec, self.columns):
            if x:
                for r, v in col.items():
                    out[r] += v * x
        return out

    def hstack(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return SparseIntMatrix._trusted(self.rows, self.cols + other.cols,
                                        self.columns + other.columns)

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.columns == other.columns

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(col.items()) for col in self.columns)))

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# the elimination workspace


class _Lines:
    """Mutable sparse matrix stored as one dict per line, over Z or Z/mod.

    A line is a row or a column, whichever the owner chooses, and only line
    operations are supported.  This is the store of the transforms U, U^-1
    and V: each is kept so that every operation it receives acts on
    whole lines, and each is read only line by line, so it keeps no index of
    positions.  The working matrix, which also receives operations on
    positions, is an `_IndexedLines`.
    """

    __slots__ = ("lines", "mod")

    def __init__(self, n: int, mod: int = 0):
        self.lines: list[dict[int, int]] = [dict() for _ in range(n)]
        self.mod = mod

    @classmethod
    def identity(cls, n: int, mod: int = 0) -> "_Lines":
        ws = cls(n, mod)
        for i in range(n):
            ws.lines[i][i] = 1
        return ws

    def axpy(self, src: int, dst: int, k: int) -> None:
        # line[dst] += k * line[src]
        if not k:
            return
        ld = self.lines[dst]
        mod = self.mod
        for j, v in self.lines[src].items():
            nv = ld.get(j, 0) + k * v
            if mod:
                nv %= mod
            if nv:
                ld[j] = nv
            elif j in ld:
                del ld[j]

    def negate(self, i: int) -> None:
        line = self.lines[i]
        for c in line:
            line[c] = -line[c]


class _IndexedLines(_Lines):
    """`_Lines` plus `cross[j]`, the lines with an entry at position j.

    The engine's working matrix is kept by rows: its row operations are line
    operations, and its column operations are cross operations, which reach
    the rows that hold a position through the index.  The index also gives
    the column counts that pivoting reads.  Line operations keep it exact.
    Each `cross[j]` is a dict with the lines as keys and None as values: a
    set of the same lines takes more memory than the row dicts it indexes.
    """

    __slots__ = ("cross",)

    def __init__(self, lines: list[dict[int, int]], cross: dict[int, dict[int, None]],
                 mod: int = 0):
        self.lines = lines
        self.mod = mod
        self.cross = cross  # a defaultdict(dict), so that an op can open a column

    # line operations -----------------------------------------------------

    def axpy(self, src: int, dst: int, k: int) -> None:
        if not k:
            return
        ld = self.lines[dst]
        cross = self.cross
        mod = self.mod
        for j, v in self.lines[src].items():
            nv = ld.get(j, 0) + k * v
            if mod:
                nv %= mod
            if nv:
                if j not in ld:
                    cross[j][dst] = None
                ld[j] = nv
            elif j in ld:
                del ld[j]
                del cross[j][dst]

    # cross operations ----------------------------------------------------

    def cross_axpy(self, src: int, dst: int, k: int) -> None:
        # position dst += k * position src, in every line
        if not k:
            return
        cross = self.cross
        mod = self.mod
        for r in list(cross.get(src, ())):
            line = self.lines[r]
            nv = line.get(dst, 0) + k * line[src]
            if mod:
                nv %= mod
            if nv:
                if dst not in line:
                    cross[dst][r] = None
                line[dst] = nv
            elif dst in line:
                del line[dst]
                del cross[dst][r]

    def cross_negate(self, j: int) -> None:
        # position j = -position j, in every line
        for r in self.cross.get(j, ()):
            line = self.lines[r]
            line[j] = -line[j]


# ---------------------------------------------------------------------------
# Smith normal form: the one elimination routine


@dataclass(frozen=True)
class SnfResult:
    """u * m * v = diag(s) with u, v unimodular and s_1 | s_2 | ... positive."""

    s: tuple[int, ...]
    u: SparseIntMatrix
    v: SparseIntMatrix


class _SnfEngine:
    """Sparse Smith normal form U*M*V = D over Z (mod = 0) or Z/p (mod = p).

    Each requested transform among U, U^-1 and V follows every elementary
    operation.  Over Z the diagonal is positive and a divisibility
    chain; over Z/p, p prime, every nonzero pivot is a unit, so its entries
    are just the nonzero pivots.  In both rings len(diag) is the rank.

    Pivots stay where they are found, and a column that holds one is marked
    in `_done`; `_pivots` lists them in the order taken.  After the last
    pivot the lines of U and U^-1 are put in row order and those of V in
    column order: the pivot lines in pivot order, then the other lines by
    ascending index.

    A run begins in three steps.  `_count_live` reads the input columns
    once, for each row the columns of its live entries and for each column
    its live count; `_take_lone_units` takes the units alone in their
    columns on those counts alone; `_load_rows` builds the working matrix
    `ws` from the rows it left, with each of its pivots alone in its row
    and column.  Then the pivot queue is built.  The pre-pass changes no
    pivot and no transform line: count 1 is the least count, so the queue
    would take the same columns first, in the same index order, and clear
    each by dropping its row, which it does without ever loading the row.
    No branch of a run depends on which transforms it keeps.

    The pivot queue.  Every count an op changes is re-keyed before the next
    choice, or the queue is marked `_stale` and rebuilt then.  A column op
    changes only its destination column, which `_col_axpy` re-keys, and
    `_drop_row` re-keys the columns of the row it drops.  A row op of a
    clear adds a multiple of the pivot row r0 to another row, so it changes
    counts only in r0's columns, and r0 stays as it is until its row clear
    re-keys each of them, by a column op or by the drop.  The fold in `_run`
    adds a row to r0 while r0 holds only its pivot, so each column it
    changes is one of r0's.  Only a gcd step between rows also adds another
    row to r0, after which a changed count may sit in a column r0 no longer
    holds: it marks the queue stale.  That happens only over Z, at a pivot
    that is not a unit.  A column dropped for holding no unit is queued
    again at its next re-key, since a unit appears only where an op writes.

    A transform-free run may leave out `skip_rows` (never loaded; the other
    rows keep their indices), and may record its unit pivots as reduction
    pairs in `pairs` (see the module docstring).  `cleared` lists the
    columns whose rows the next boundary may skip: see "Clearing" in the
    module docstring.  Every run, in either ring, with or without
    transforms, takes its pivots by the one rule of the module docstring:
    units first, then over Z every entry.
    """

    def __init__(self, m: SparseIntMatrix, mod: int = 0, want_u: bool = False,
                 want_v: bool = False, want_u_inv: bool = False,
                 skip_rows: Iterable[int] = (), pairs: bool = False, pair_rows: bool = False):
        skip = set(skip_rows)
        if (skip or pairs) and (want_u or want_u_inv or want_v):
            raise ValueError("rows can be skipped, and pairs recorded, only without "
                             "U and U^-1 and V")
        self.m = m
        self.mod = mod
        # U is kept by rows, U^-1 and V by columns
        self.u = _Lines.identity(m.rows, mod) if want_u else None
        self.u_inv = _Lines.identity(m.rows, mod) if want_u_inv else None
        self.v = _Lines.identity(m.cols, mod) if want_v else None
        self.diag: list[int] = []
        self.cleared: list[int] = []
        self.pairs: list[tuple] | None = [] if pairs else None
        self._pair_rows = pair_rows
        self._pivots: list[tuple[int, int]] = []
        self._inverted = (0, 0)  # the last pivot inverted over Z/p, and its inverse
        self._done = [False] * m.cols
        self._count_live(skip)
        self._take_lone_units()
        self._load_rows()
        # the unit queue: keys count * cols + c, checked at the top against
        # the live count; `keyed[c]` is the count c was last queued with, 0
        # once c is dropped for holding no unit (see "The pivot queue" above)
        self._rebuild_queue()
        self._run()

    # elementary ops with transform and pivot-queue bookkeeping ----------

    def _row_axpy(self, src, dst, k):
        self.ws.axpy(src, dst, k)
        if self.u is not None:
            self.u.axpy(src, dst, k)
        if self.u_inv is not None:
            # E = I + k e_dst e_src^T; U^-1 <- U^-1 E^-1: col src -= k * col dst
            self.u_inv.axpy(dst, src, -k)

    def _row_negate(self, i):
        self.ws.negate(i)
        if self.u is not None:
            self.u.negate(i)
        if self.u_inv is not None:
            self.u_inv.negate(i)

    def _col_axpy(self, src, dst, k):
        self.ws.cross_axpy(src, dst, k)
        self._rekey(dst)
        if self.v is not None:
            self.v.axpy(src, dst, k)

    def _col_negate(self, i):
        self.ws.cross_negate(i)
        if self.v is not None:
            self.v.negate(i)

    def _gcd_step(self, p, o, a, b, axpy, negate):
        """Leave g = gcd(a, b) > 0 in line p, the pivot's, and 0 in line o.

        a and b are the entries of p and o in the pivot's other line.  One
        run of extended Euclid with floor quotients, starting by reducing p
        by o, leaves +-g in one line and 0 in the other.  If it ended in o,
        three transvections move it back to p; if it is -g, both lines change
        sign.  The pair then ends as (x*p + y*o, -(b/g)*p + (a/g)*o), with
        x*a + y*b = g the Bezout pair of this run: det = 1 fixes the sign of
        the primitive vector (-b/g, a/g) that sends (a, b) to 0.
        """
        dst, src = p, o
        while b:
            axpy(src, dst, -(a // b))
            a, b = b, a % b
            dst, src = src, dst
        if dst != p:
            axpy(o, p, 1)
            axpy(p, o, -1)
            axpy(o, p, 1)
        if a < 0:
            negate(p)
            negate(o)

    # pivot selection: units first, then fewest nonzeros, row length,
    # magnitude and index

    def _rekey(self, c: int) -> None:
        """Queue column c again where its count differs from the one last queued."""
        n = len(self.ws.cross.get(c, ()))
        if n != self._keyed[c]:
            self._keyed[c] = n
            if n:
                heapq.heappush(self._queue, n * self.m.cols + c)

    def _rebuild_queue(self) -> None:
        """One key per column without a pivot and with a nonzero count."""
        ncols = self.m.cols
        done = self._done
        keyed = [0] * ncols
        queue = []
        for c, rows in self.ws.cross.items():
            if rows and not done[c]:
                keyed[c] = len(rows)
                queue.append(len(rows) * ncols + c)
        heapq.heapify(queue)
        self._queue = queue
        self._keyed = keyed
        self._stale = False

    def _choose_pivot(self) -> tuple[int, int] | None:
        ws = self.ws
        lines = ws.lines
        cross = ws.cross
        ncols = self.m.cols
        done = self._done
        if self._stale or len(self._queue) > 2 * ncols:
            self._rebuild_queue()
        keyed = self._keyed
        queue = self._queue
        # the live column of least key that holds a unit, and in it the unit
        # of least (row length, magnitude, row index).  Entries over Z/p lie
        # in 1..p-1, so all are units.
        bound = self.mod or 1
        while queue:
            n, c = divmod(queue[0], ncols)
            if not done[c] and len(cross.get(c, ())) == n:
                rows = [(len(lines[r]), a, r) for r in cross[c]
                        if (a := abs(lines[r][c])) <= bound]
                if rows:
                    return min(rows)[2], c
                keyed[c] = 0
            heapq.heappop(queue)
        # no unit is left, which happens only over Z: one pass over the live
        # columns for the least (count, index), and in it every entry is a
        # candidate
        live = [(len(rows), c) for c, rows in cross.items() if rows and not done[c]]
        if not live:
            return None
        c = min(live)[1]
        return min((len(lines[r]), abs(lines[r][c]), r) for r in cross[c])[2], c

    def _count_live(self, skip: set[int]) -> None:
        """One pass over the input columns: for each row the columns of its
        live entries, ascending, and for each column its live count.

        An entry is live when its row is not skipped and its value is
        nonzero in the ring; the stored entries of a matrix are nonzero, so
        only the reduction mod p makes one zero.
        """
        m, mod = self.m, self.mod
        live = self._live = bytearray(b"\x01") * m.rows
        for r in skip:
            if 0 <= r < m.rows:
                live[r] = 0
        row_cols: list[list[int]] = [[] for _ in range(m.rows)]
        counts = self._counts = [0] * m.cols
        for c, col in enumerate(m.columns):
            n = len(col)
            if mod:
                for r, v in col.items():
                    if v % mod and live[r]:
                        row_cols[r].append(c)
                    else:
                        n -= 1
            else:
                for r in col:
                    if live[r]:
                        row_cols[r].append(c)
                    else:
                        n -= 1
            counts[c] = n
        self._row_cols = row_cols

    def _take_lone_units(self) -> None:
        """Pivot on each unit alone in its column, least column first, on
        the live counts, before the working matrix exists.

        A sweep over the columns finds those whose count is 1, and a heap
        holds the columns whose counts fall to 1 behind it; the least of
        the two comes first, as it would from the unit queue.  A lone
        column's entry is the first live row of its input column with a
        nonzero residue.  If it is a unit, the pivot's row is dropped: the
        counts of its other columns fall by one, a kept V receives the
        column operations those entries stand for, and a -1 pivot's sign
        change goes to U and U^-1.  A lone column whose entry is not a unit
        keeps that entry and is left to the queue.
        """
        columns = self.m.columns
        mod = self.mod
        live = self._live
        row_cols = self._row_cols
        counts = self._counts
        behind: list[int] = []  # a heap of the columns that fell to 1 behind the sweep
        sweep = 0  # every column from here on with a count of 1 is still to be examined
        while True:
            if behind:
                c0 = heapq.heappop(behind)
                if counts[c0] != 1:
                    continue  # its one row was dropped as another pivot's
            else:
                try:
                    c0 = counts.index(1, sweep)
                except ValueError:
                    break
                sweep = c0 + 1
            # the column's live entry: its first live row with a nonzero residue
            for r0, piv in columns[c0].items():
                if mod:
                    piv %= mod
                if piv and live[r0]:
                    break
            if not self._unit(piv):
                continue
            live[r0] = 0
            self._done[c0] = True
            self.cleared.append(c0)
            cols = row_cols[r0]
            row = None  # the pivot row's live entries, read only where needed
            if self._pair_rows or self.v is not None:
                row = {c: columns[c][r0] % mod if mod else columns[c][r0] for c in cols}
                if self.v is not None:
                    self._drop_in_v(row, c0)
            if self.pairs is not None:
                self.pairs.append((r0, c0, piv, None, row))
            for c in cols:  # c0's count falls to 0, and nothing reads it again
                n = counts[c] - 1
                counts[c] = n
                if n == 1 and c < sweep:
                    heapq.heappush(behind, c)
            if piv < 0:
                piv = -piv
                for lines in (self.u, self.u_inv):
                    if lines is not None:
                        lines.negate(r0)
            self.diag.append(piv)
            self._pivots.append((r0, c0))

    def _load_rows(self) -> None:
        """Build the working matrix from the live rows the pre-pass left,
        and place each pre-pass pivot u as {c0: |u|}, alone in its column.

        A skipped or dropped row never gets its entries; the cross index
        lists the rows of a column in ascending order.
        """
        columns = self.m.columns
        mod = self.mod
        live = self._live
        lines = []
        cross: dict[int, dict[int, None]] = defaultdict(dict)
        for r, cols in enumerate(self._row_cols):
            line = {}
            if live[r]:
                for c in cols:
                    v = columns[c][r]
                    line[c] = v % mod if mod else v
                    cross[c][r] = None
            lines.append(line)
        for (r0, c0), piv in zip(self._pivots, self.diag):
            lines[r0] = {c0: piv}
            cross[c0] = {r0: None}
        self.ws = _IndexedLines(lines, cross, mod)
        self._live = self._row_cols = self._counts = None

    def _finish_pivot(self, r0: int, c0: int) -> None:
        """Record the pivot (r0, c0), whose row and column hold nothing else.

        Fresh containers free the tables the finished lines grew to while
        they were cleared.
        """
        ws = self.ws
        piv = ws.lines[r0][c0]
        ws.lines[r0] = {c0: piv}
        ws.cross[c0] = {r0: None}
        self.diag.append(piv)
        self._pivots.append((r0, c0))

    def _unit(self, a: int) -> bool:
        """Whether the pivot a counts as a unit for `cleared` and `pairs`."""
        return self.mod > 0 or a == 1 or a == -1

    def _run(self):
        ws = self.ws
        units = True  # every pivot so far was a unit when chosen, the pre-pass's too
        while (picked := self._choose_pivot()) is not None:
            r0, c0 = picked
            units = units and self._unit(ws.lines[r0][c0])
            if self.pairs is not None:
                if not units:
                    break
                # a unit's clear changes other rows and then replaces row r0
                lines = ws.lines
                self.pairs.append((r0, c0, lines[r0][c0],
                                   {r: lines[r][c0] for r in ws.cross[c0]},
                                   lines[r0] if self._pair_rows else None))
            self._done[c0] = True
            if units:
                self.cleared.append(c0)
            while True:
                self._clear_position(r0, c0)
                if self.mod:
                    break
                piv = ws.lines[r0][c0]
                if piv < 0:
                    self._row_negate(r0)
                    piv = -piv
                if piv == 1:
                    break
                offender = self._find_nondivisible(piv)
                if offender is None:
                    break
                # fold the offending row into the pivot row and re-clear
                self._row_axpy(offender, r0, 1)
            self._finish_pivot(r0, c0)
        # move D's entry k from (r_k, c_k) to (k, k)
        rows = _pivots_first([r for r, _ in self._pivots], self.m.rows)
        cols = _pivots_first([c for _, c in self._pivots], self.m.cols)
        for lines, order in ((self.u, rows), (self.u_inv, rows), (self.v, cols)):
            if lines is not None:
                lines.lines = [lines.lines[i] for i in order]

    def _quotient(self, b: int, a: int) -> int | None:
        """q with b = q*a in the ring, or None when a does not divide b."""
        if self.mod:
            # no op of a clear over Z/p changes its pivot, so invert it once
            if a != self._inverted[0]:
                self._inverted = (a, pow(a, -1, self.mod))
            return b * self._inverted[1] % self.mod
        return b // a if b % a == 0 else None

    def _clear_position(self, r0: int, c0: int):
        """Make row r0 and column c0 zero except at (r0, c0), which stays nonzero."""
        ws = self.ws
        cross = ws.cross
        while True:
            # clear column c0 with row ops; each op only removes rows from it
            for r in sorted(cross[c0]):
                if r == r0:
                    continue
                a = ws.lines[r0][c0]
                b = ws.lines[r][c0]
                q = self._quotient(b, a)
                if q is not None:
                    self._row_axpy(r0, r, -q)
                else:
                    # it adds row r to row r0 too, which nothing re-keys
                    self._gcd_step(r0, r, a, b, self._row_axpy, self._row_negate)
                    self._stale = True
            # a quotient leaves 0 and a gcd step leaves 0 in row r, so only an
            # entry that is 0 in the ring can stay
            if len(cross[c0]) != 1:
                raise InternalCheckError(
                    f"pivot column {c0} keeps {len(cross[c0]) - 1} other rows after its clear")
            # clear row r0 with col ops; a gcd step may refill column c0
            row = ws.lines[r0]
            if self._unit(row[c0]):
                self._drop_row(r0, c0)
                return
            for c in sorted(c for c in row if c != c0):
                a = row[c0]
                b = row[c]
                q = self._quotient(b, a)
                if q is not None:
                    self._col_axpy(c0, c, -q)
                else:
                    self._gcd_step(c0, c, a, b, self._col_axpy, self._col_negate)
            if len(cross[c0]) == 1:
                return

    def _drop_row(self, r0: int, c0: int) -> None:
        """Delete the entries of row r0 outside column c0, where the queue's
        unit pivot is alone.

        Each col c -= q * col c0 of the pivot-row clear would only zero the
        entry (r0, c), so the row's other entries go at once, and a kept V
        receives those column operations.  The columns whose counts fall
        are re-keyed in the unit queue.  The pre-pass drops its rows before
        the working matrix is built, in `_take_lone_units`.
        """
        ws = self.ws
        cross = ws.cross
        row = ws.lines[r0]
        if self.v is not None:
            self._drop_in_v(row, c0)
        ncols = self.m.cols
        keyed = self._keyed
        queue = self._queue
        for c in row:
            if c != c0:
                rows = cross[c]
                del rows[r0]
                n = len(rows)
                if n != keyed[c]:
                    keyed[c] = n
                    if n:
                        heapq.heappush(queue, n * ncols + c)
        ws.lines[r0] = {c0: row[c0]}

    def _drop_in_v(self, row: dict[int, int], c0: int) -> None:
        """Give V the col c -= q * col c0 that each entry of row outside c0,
        dropped where the unit row[c0] is alone in its column, stands for."""
        for c, b in row.items():
            if c != c0:
                self.v.axpy(c0, c, -self._quotient(b, row[c0]))

    def _find_nondivisible(self, piv: int) -> int | None:
        """Row of the first entry outside the pivot lines that piv does not
        divide, by (column, row), or None."""
        lines = self.ws.lines
        cross = self.ws.cross
        done = self._done
        # the least live column with an offender, then its least offender
        c = next((c for c in range(self.m.cols) if not done[c] and c in cross
                  for r in cross[c] if lines[r][c] % piv), None)
        if c is None:
            return None
        return min(r for r in cross[c] if lines[r][c] % piv)


def _pivots_first(pivot_lines: list[int], n: int) -> list[int]:
    """The line order 0..n-1 with the pivot lines first, in pivot order."""
    taken = set(pivot_lines)
    return pivot_lines + [i for i in range(n) if i not in taken]


def smith_normal_form(m: SparseIntMatrix) -> SnfResult:
    """Smith normal form with transforms; deterministic for fixed input."""
    ech = ColumnEchelon(m)
    return SnfResult(tuple(ech.diag),
                     SparseIntMatrix._trusted(m.rows, m.rows, ech._u_rows).transpose(),
                     SparseIntMatrix._trusted(m.cols, m.cols, ech._v_cols))


def invariant_factors(m: SparseIntMatrix, *, skip_rows: Iterable[int] = (),
                      cleared: list[int] | None = None) -> tuple[int, ...]:
    """Diagonal of the Smith form, computed without transform bookkeeping.

    The rows in `skip_rows` are left out; `cleared`, if given, is extended
    by the columns whose rows the next boundary may skip.
    """
    eng = _SnfEngine(m, skip_rows=skip_rows)
    if cleared is not None:
        cleared.extend(eng.cleared)
    return tuple(eng.diag)


def rank_mod_p(m: SparseIntMatrix, p: int, *, skip_rows: Iterable[int] = (),
               cleared: list[int] | None = None) -> int:
    """Rank over Z/p, p prime, by eliminating m mod p without transforms.

    `skip_rows` and `cleared` act as in `invariant_factors`."""
    eng = _SnfEngine(m, p, skip_rows=skip_rows)
    if cleared is not None:
        cleared.extend(eng.cleared)
    return len(eng.diag)


# ---------------------------------------------------------------------------
# kernels, rank and lattice solves over Z, read off the Smith form


class ColumnEchelon:
    """The column lattice of an integer matrix M, through U*M*V = D.

    The columns of V beyond the rank r form a basis of ker(M), saturated
    because V is unimodular.  M*x = b has an integer solution exactly when
    (U*b)_i is divisible by d_i for i < r and vanishes for i >= r.
    """

    def __init__(self, m: SparseIntMatrix):
        eng = _SnfEngine(m, want_u=True, want_v=True)
        self.nrows = m.rows
        self.ncols = m.cols
        self.diag = eng.diag
        self.rank = len(eng.diag)
        self._u_rows = eng.u.lines
        self._v_cols = eng.v.lines

    def kernel_matrix(self) -> SparseIntMatrix:
        return SparseIntMatrix._trusted(self.ncols, self.ncols - self.rank,
                                        self._v_cols[self.rank:])

    def solve(self, b: Vector) -> list[int] | None:
        """Solve M*x = b over Z, or return None if b is outside the lattice."""
        if len(b) != self.nrows:
            raise ValueError("vector length mismatch")
        x = [0] * self.ncols
        for i, row in enumerate(self._u_rows):
            y = sum(w * b[j] for j, w in row.items())
            if i >= self.rank:
                if y:
                    return None
                continue
            q, rem = divmod(y, self.diag[i])
            if rem:
                return None
            if q:
                for r, w in self._v_cols[i].items():
                    x[r] += q * w
        return x


def kernel_basis(m: SparseIntMatrix) -> SparseIntMatrix:
    """Columns form a basis of the full (saturated) integer kernel lattice."""
    return ColumnEchelon(m).kernel_matrix()


def solve_in_lattice(m: SparseIntMatrix, b: Vector) -> list[int] | None:
    """Return x with m*x = b if b lies in the column lattice of m, else None."""
    return ColumnEchelon(m).solve(b)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def invariant_factors_from_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisibility chain for a direct sum of finite cyclic groups.

    Each order is folded into the chain by gcd and lcm, which for every
    prime sorts its exponent in among those of the chain.
    """
    chain: list[int] = []
    for d in orders:
        if d < 1:
            raise ValueError(f"order {d} is not a finite cyclic order")
        for i, c in enumerate(chain):
            chain[i], d = math.gcd(c, d), math.lcm(c, d)
        chain.append(d)
    return tuple(c for c in chain if c != 1)


class FgAbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    Optionally carries generator data: vectors expressing the abstract
    generators in an ambient coordinate space plus a reduction routine
    sending an ambient vector to its coordinates (torsion coords first, in
    the order of `torsion`, then free coords).
    """

    __slots__ = ("free_rank", "torsion", "gens", "_reducer")

    def __init__(self, free_rank: int, torsion: Sequence[int],
                 gens: Sequence[Sequence[int]] | None = None,
                 reducer: Callable[[Vector], tuple[int, ...]] | None = None):
        torsion = tuple(int(t) for t in torsion)
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        self.free_rank = free_rank
        self.torsion = torsion
        self.gens = tuple(tuple(g) for g in gens) if gens is not None else None
        self._reducer = reducer

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def from_orders(cls, free_rank: int, orders: Iterable[int]) -> "FgAbelianGroup":
        return cls(free_rank, invariant_factors_from_orders(orders))

    @property
    def ngens(self) -> int:
        return len(self.torsion) + self.free_rank

    def gen_orders(self) -> tuple[int, ...]:
        """Per-generator order, 0 meaning infinite."""
        return self.torsion + (0,) * self.free_rank

    def order(self) -> int | None:
        if self.free_rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def exponent(self) -> int | None:
        if self.free_rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def reduce(self, vec: Vector) -> tuple[int, ...]:
        if self._reducer is None:
            raise ValueError("group carries no generator data")
        return self._reducer(vec)

    def normalize(self, coords: Vector) -> tuple[int, ...]:
        out = []
        for i, v in enumerate(coords):
            if i < len(self.torsion):
                out.append(v % self.torsion[i])
            else:
                out.append(v)
        return tuple(out)

    # groups compare by isomorphism type
    def __eq__(self, other):
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbelianGroup(free_rank={self.free_rank}, torsion={self.torsion})"


def present_fg_abelian(ambient_rank: int, relations: SparseIntMatrix,
                       mod: int = 0) -> FgAbelianGroup:
    """Invariant-factor form of R^ambient_rank modulo the column span, R = Z or Z/mod.

    Over Z/p, p prime, the quotient is a vector space (Z/p)^k, reported as k
    torsion coefficients p.  Generator data is populated: generators are
    ambient vectors, and the reducer maps an ambient vector to its
    coordinates in the quotient.
    """
    if relations.rows != ambient_rank:
        raise ValueError("relation matrix must have ambient_rank rows")
    eng = _SnfEngine(relations, mod, want_u=True, want_u_inv=True)
    kept = [] if mod else [(i, d) for i, d in enumerate(eng.diag) if d >= 2]
    frees = list(range(len(eng.diag), ambient_rank))
    coord_positions = [i for i, _ in kept] + frees
    orders = [d for _, d in kept] + [mod] * len(frees)
    # the generators are the columns of U^-1 at the coordinate positions, and
    # the coordinates of a vector are its products with the rows of U there
    gens = [[col.get(i, 0) for i in range(ambient_rank)]
            for col in (eng.u_inv.lines[j] for j in coord_positions)]
    u_rows = [eng.u.lines[j] for j in coord_positions]

    def reducer(vec: Vector) -> tuple[int, ...]:
        if len(vec) != ambient_rank:
            raise ValueError("vector length mismatch")
        ys = (sum(w * vec[i] for i, w in row.items()) for row in u_rows)
        return tuple(y % o if o else y for y, o in zip(ys, orders))

    return FgAbelianGroup(orders.count(0), [o for o in orders if o],
                          gens=gens, reducer=reducer)


# ---------------------------------------------------------------------------
# homomorphisms, kernels, images, fixed points


class AbelianHom:
    """A homomorphism between presented f.g. abelian groups.

    `matrix` has one column per source generator giving the image in target
    coordinates.  Well-definedness (source relations land in the target
    relation lattice) is checked at construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup,
                 matrix: Sequence[Sequence[int]]):
        matrix = [list(row) for row in matrix]
        if len(matrix) != target.ngens or any(len(row) != source.ngens for row in matrix):
            raise ValueError("hom matrix shape must be target.ngens x source.ngens")
        t_orders = target.gen_orders()
        for j, o in enumerate(source.gen_orders()):
            if not o:
                continue
            for i, to in enumerate(t_orders):
                val = o * matrix[i][j]
                if (to and val % to) or (not to and val):
                    raise ValueError(
                        f"ill-defined hom: order-{o} generator {j} maps outside relations")
        # store canonically (torsion coordinates reduced)
        for i, to in enumerate(t_orders):
            if to:
                matrix[i] = [v % to for v in matrix[i]]
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)

    @classmethod
    def from_columns(cls, source: FgAbelianGroup, target: FgAbelianGroup,
                     cols: Sequence[Vector]) -> "AbelianHom":
        """The hom sending source generator j to the target coordinates cols[j]."""
        return cls(source, target, [[col[i] for col in cols] for i in range(target.ngens)])

    @classmethod
    def identity(cls, group: FgAbelianGroup) -> "AbelianHom":
        return cls.scalar(group, 1)

    @classmethod
    def zero(cls, source: FgAbelianGroup, target: FgAbelianGroup) -> "AbelianHom":
        return cls(source, target, [[0] * source.ngens for _ in range(target.ngens)])

    @classmethod
    def scalar(cls, group: FgAbelianGroup, k: int) -> "AbelianHom":
        n = group.ngens
        return cls(group, group, [[k if i == j else 0 for j in range(n)] for i in range(n)])

    def apply(self, coords: Vector) -> tuple[int, ...]:
        if len(coords) != self.source.ngens:
            raise ValueError("coordinate length mismatch")
        out = [0] * self.target.ngens
        for i, row in enumerate(self.matrix):
            out[i] = sum(w * x for w, x in zip(row, coords))
        return self.target.normalize(out)

    def images(self) -> list[tuple[int, ...]]:
        """The image of each source generator, in target coordinates."""
        return [tuple(row[j] for row in self.matrix) for j in range(self.source.ngens)]

    def compose(self, other: "AbelianHom") -> "AbelianHom":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition type mismatch")
        return AbelianHom.from_columns(other.source, self.target,
                                       [self.apply(col) for col in other.images()])

    def is_zero_map(self) -> bool:
        # the stored torsion rows are reduced, so a zero map stores only zeros
        return not any(map(any, self.matrix))

    def __eq__(self, other):
        if not isinstance(other, AbelianHom):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"AbelianHom({self.source} -> {self.target})"


@dataclass
class FgSubgroup:
    """A subgroup of a presented group, as its own presentation plus inclusion."""

    ambient: FgAbelianGroup
    group: FgAbelianGroup
    inclusion: AbelianHom
    _membership: ColumnEchelon

    def order(self) -> int | None:
        return self.group.order()

    def contains(self, coords: Vector) -> bool:
        return self._membership.solve(coords) is not None

    def same_subgroup(self, other: "FgSubgroup") -> bool:
        if self.ambient != other.ambient:
            return False
        return (all(other.contains(g) for g in self.inclusion.images())
                and all(self.contains(g) for g in other.inclusion.images()))


def _kernel_block(x: SparseIntMatrix,
                  orders: Sequence[int]) -> tuple[ColumnEchelon, SparseIntMatrix]:
    """ColumnEchelon([X | R]), R the columns o_i * e_i of the finite orders, and
    the X rows of its kernel basis: R has independent columns, so these are a
    basis of the x with X*x in the lattice of R."""
    relations = [{i: o} for i, o in enumerate(orders) if o]
    echelon = ColumnEchelon(x.hstack(SparseIntMatrix(len(orders), len(relations), relations)))
    n = x.cols
    kernel = [{r: v for r, v in col.items() if r < n} for col in echelon.kernel_matrix().columns]
    return echelon, SparseIntMatrix._trusted(n, len(kernel), kernel)


def _subgroup_from_generators(ambient: FgAbelianGroup, gens: SparseIntMatrix) -> FgSubgroup:
    """Subgroup of `ambient` generated by the classes of the columns of `gens`.

    One Smith form of [G | R], G the generators and R the relations of
    `ambient`, gives both the relations among the generators (the G part of
    its kernel) and membership in the subgroup (a lattice solve).
    """
    membership, relations = _kernel_block(gens, ambient.gen_orders())
    presented = present_fg_abelian(gens.cols, relations)
    # inclusion: push each abstract generator through G into ambient coords,
    # which the hom reduces mod the torsion
    inclusion = AbelianHom.from_columns(presented, ambient,
                                        [gens.mul_vec(gen) for gen in presented.gens])
    return FgSubgroup(ambient, presented, inclusion, membership)


def _preimage_of_relations(source: FgAbelianGroup, rows: Sequence[Vector],
                           target_orders: Sequence[int]) -> FgSubgroup:
    """Subgroup of the x in `source` with rows*x in the lattice of `target_orders`.

    The X rows of ker [H | R], H = rows and R the relations of the target
    orders, are the generator matrix.  The source relations are not added to
    it: they lie in the lattice, as every `AbelianHom` is well defined, and
    `_subgroup_from_generators` sets them beside the generators already.
    """
    _, kernel = _kernel_block(SparseIntMatrix.from_dense(rows, source.ngens), target_orders)
    return _subgroup_from_generators(source, kernel)


def kernel_of_hom(h: AbelianHom) -> FgSubgroup:
    return _preimage_of_relations(h.source, h.matrix, h.target.gen_orders())


def image_of_hom(h: AbelianHom) -> FgSubgroup:
    return _subgroup_from_generators(h.target,
                                     SparseIntMatrix.from_dense(h.matrix, h.source.ngens))


def fixed_points_of_hom_family(group: FgAbelianGroup,
                               actions: Sequence[AbelianHom]) -> FgSubgroup:
    """Subgroup of elements fixed by every endomorphism in the family.

    These are the kernel of x -> ((rho_i - 1) x)_i.  The rows of rho_i - 1
    are passed unreduced: an `AbelianHom` would reduce them mod the torsion
    and so change the kernel basis.
    """
    for a in actions:
        if a.source != group or a.target != group:
            raise ValueError("actions must be endomorphisms of the group")
    rows = [[v - (i == j) for j, v in enumerate(row)]
            for a in actions for i, row in enumerate(a.matrix)]
    return _preimage_of_relations(group, rows, group.gen_orders() * len(actions))
