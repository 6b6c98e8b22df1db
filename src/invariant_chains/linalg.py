"""Exact sparse linear algebra over Z and Z/p.

One elimination routine does all the work: a sparse Smith normal form
U*M*V = D over Z or over Z/p, p prime, that carries whichever of U, U^-1, V
and V^-1 its caller asks for.  Everything else is read off it:

  * smith_normal_form, invariant_factors -- the Smith form over Z
  * rank_mod_p             -- the rank of M mod p, by its own elimination mod p
  * kernel_basis           -- V[:, r:], a saturated basis of the kernel lattice
  * solve_in_lattice       -- U*b divided by the invariant factors, then times V
  * present_fg_abelian     -- invariant-factor presentation of R^k / relations
  * FgAbelianGroup, AbelianHom, FgSubgroup  -- finitely generated abelian
    groups with generator data, homomorphisms, kernels/images/fixed points

Pivoting is deterministic: structural (Markowitz-style minimal fill) with
minimal-magnitude and lowest-index tie-breaks, so results are reproducible
bit for bit.  The pivot column comes from a priority queue keyed by
(nonzero count, column index), so it is the column with the fewest nonzero
rows, ties to the lowest index; the queue is re-keyed only for the columns
whose counts the elementary operations since the last pivot could change.

Only the working matrix carries a cross index (for each column, the set of
rows with an entry there): its column operations reach rows through it, and
the pivot queue reads the column counts off it.  The transforms U, U^-1, V
and V^-1 receive only whole-line operations and are read line by line, so
they are plain lists of dicts.  While column t holds only the pivot row, a
column operation of the pivot-row clear can only delete one entry of that
row, so the engine deletes it directly and replays the operation on V and
V^-1 alone.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

Vector = Sequence[int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# sparse matrices


class SparseIntMatrix:
    """Immutable sparse integer matrix; only nonzero entries are stored."""

    __slots__ = ("rows", "cols", "entries", "_col_cache")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        store: dict[tuple[int, int], int] = {}
        if entries:
            if isinstance(entries, dict):
                items = (((r, c), v) for (r, c), v in entries.items())
            else:
                items = (((r, c), v) for r, c, v in entries)
            for (r, c), v in items:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry index {(r, c)} out of range for {rows}x{cols}")
                if v:
                    store[(r, c)] = int(v)
        self.entries = store
        self._col_cache = None

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict[tuple[int, int], int]) -> "SparseIntMatrix":
        """Wrap an entry dict, already in range and free of zeros, without checks."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._col_cache = None
        return m

    # -- construction helpers

    @classmethod
    def from_dense(cls, data: Sequence[Sequence[int]], cols: int | None = None) -> "SparseIntMatrix":
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = int(v)
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, nrows: int, columns: Sequence[dict[int, int] | Sequence[int]]) -> "SparseIntMatrix":
        entries = {}
        for c, col in enumerate(columns):
            items = col.items() if isinstance(col, dict) else enumerate(col)
            for r, v in items:
                if v:
                    entries[(r, c)] = int(v)
        return cls(nrows, len(columns), entries)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseIntMatrix":
        return cls(rows, cols)

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "SparseIntMatrix":
        n = len(values)
        return cls(rows if rows is not None else n, cols if cols is not None else n,
                   {(i, i): v for i, v in enumerate(values) if v})

    # -- accessors

    def get(self, r: int, c: int) -> int:
        return self.entries.get((r, c), 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def columns(self) -> dict[int, list[tuple[int, int]]]:
        """Column index: col -> sorted list of (row, value)."""
        if self._col_cache is None:
            cache: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for (r, c), v in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
                cache[c].append((r, v))
            self._col_cache = dict(cache)
        return self._col_cache

    def column(self, c: int) -> list[tuple[int, int]]:
        return self.columns().get(c, [])

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def to_mod(self, p: int) -> "SparseIntMatrix":
        return SparseIntMatrix(self.rows, self.cols,
                               {(r, c): v % p for (r, c), v in self.entries.items() if v % p})

    # -- arithmetic

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # the left factor by column, the right factor by output column; each
        # output column is summed in a dict keyed by row
        left: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for (a, b), w in self.entries.items():
            left[b].append((a, w))
        right: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for (b, c), v in other.entries.items():
            right[c].append((b, v))
        entries: dict[tuple[int, int], int] = {}
        for c, col in right.items():
            acc: dict[int, int] = defaultdict(int)
            for b, v in col:
                for a, w in left.get(b, ()):
                    acc[a] += w * v
            for a, x in acc.items():
                if x:
                    entries[(a, c)] = x
        return SparseIntMatrix._trusted(self.rows, other.cols, entries)

    __matmul__ = mul

    def mul_vec(self, vec: Vector) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x:
                out[r] += v * x
        return out

    def scale(self, k: int) -> "SparseIntMatrix":
        if k == 0:
            return SparseIntMatrix.zero(self.rows, self.cols)
        return SparseIntMatrix(self.rows, self.cols, {key: k * v for key, v in self.entries.items()})

    def add(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            nv = acc.get(key, 0) + v
            if nv:
                acc[key] = nv
            else:
                acc.pop(key, None)
        return SparseIntMatrix(self.rows, self.cols, acc)

    def hstack(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, c + self.cols)] = v
        return SparseIntMatrix(self.rows, self.cols + other.cols, entries)

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# the elimination workspace


class _Lines:
    """Mutable sparse matrix stored as one dict per line, over Z or Z/mod.

    A line is a row or a column, whichever the owner chooses, and only line
    operations are supported.  This is the store of the transforms U, U^-1,
    V and V^-1: each is kept so that every operation it receives acts on
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

    def to_matrix(self, rows: int, cols: int, by_rows: bool) -> SparseIntMatrix:
        return SparseIntMatrix._trusted(rows, cols, {
            ((i, j) if by_rows else (j, i)): v
            for i, line in enumerate(self.lines) for j, v in line.items()})

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

    def combine(self, i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # (line[i], line[j]) <- (x*line[i] + y*line[j], z*line[i] + w*line[j])
        self._combine(i, j, x, y, z, w, self.lines[i].keys() | self.lines[j].keys())

    def _combine(self, i, j, x, y, z, w, touched) -> None:
        a, b = self.lines[i], self.lines[j]
        mod = self.mod
        na: dict[int, int] = {}
        nb: dict[int, int] = {}
        for c in touched:
            va = a.get(c, 0)
            vb = b.get(c, 0)
            va2 = x * va + y * vb
            vb2 = z * va + w * vb
            if mod:
                va2 %= mod
                vb2 %= mod
            if va2:
                na[c] = va2
            if vb2:
                nb[c] = vb2
        self.lines[i] = na
        self.lines[j] = nb

    def swap(self, i: int, j: int) -> None:
        self.lines[i], self.lines[j] = self.lines[j], self.lines[i]

    def negate(self, i: int) -> None:
        line = self.lines[i]
        for c in line:
            line[c] = -line[c]


class _IndexedLines(_Lines):
    """`_Lines` plus `cross[j]`, the set of lines with an entry at position j.

    The engine's working matrix is kept by rows: its row operations are line
    operations, and its column operations are cross operations, which reach
    the rows that hold a position through the index.  The index also gives
    the column counts that pivoting reads.  Line operations keep it exact.
    """

    __slots__ = ("cross",)

    def __init__(self, n: int, mod: int = 0):
        super().__init__(n, mod)
        self.cross: dict[int, set[int]] = defaultdict(set)

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
                    cross[j].add(dst)
                ld[j] = nv
            elif j in ld:
                del ld[j]
                cross[j].discard(dst)

    def combine(self, i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        touched = self.lines[i].keys() | self.lines[j].keys()
        self._combine(i, j, x, y, z, w, touched)
        cross = self.cross
        for c in touched:
            cross[c].discard(i)
            cross[c].discard(j)
        for c in self.lines[i]:
            cross[c].add(i)
        for c in self.lines[j]:
            cross[c].add(j)

    def swap(self, i: int, j: int) -> None:
        if i == j:
            return
        li, lj = self.lines[i], self.lines[j]
        cross = self.cross
        for c in li:
            if c not in lj:
                rows = cross[c]
                rows.discard(i)
                rows.add(j)
        for c in lj:
            if c not in li:
                rows = cross[c]
                rows.discard(j)
                rows.add(i)
        self.lines[i], self.lines[j] = lj, li

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
                    cross[dst].add(r)
                line[dst] = nv
            elif dst in line:
                del line[dst]
                cross[dst].discard(r)

    def cross_combine(self, i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        cross = self.cross
        mod = self.mod
        for r in cross.get(i, set()) | cross.get(j, set()):
            line = self.lines[r]
            va = line.get(i, 0)
            vb = line.get(j, 0)
            va2 = x * va + y * vb
            vb2 = z * va + w * vb
            if mod:
                va2 %= mod
                vb2 %= mod
            for c, nv in ((i, va2), (j, vb2)):
                if nv:
                    if c not in line:
                        cross[c].add(r)
                    line[c] = nv
                elif c in line:
                    del line[c]
                    cross[c].discard(r)

    def cross_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        cross = self.cross
        touched = cross.get(i, set()) | cross.get(j, set())
        for r in touched:
            line = self.lines[r]
            vi = line.pop(i, 0)
            vj = line.pop(j, 0)
            if vj:
                line[i] = vj
            if vi:
                line[j] = vi
        cross[i] = {r for r in touched if i in self.lines[r]}
        cross[j] = {r for r in touched if j in self.lines[r]}


# ---------------------------------------------------------------------------
# Smith normal form: the one elimination routine


@dataclass(frozen=True)
class SnfResult:
    """u * m * v = diag(s) with u, v unimodular and s_1 | s_2 | ... positive."""

    s: tuple[int, ...]
    u: SparseIntMatrix
    v: SparseIntMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> SparseIntMatrix:
        return SparseIntMatrix.diagonal(self.s, rows, cols)


class _SnfEngine:
    """Sparse Smith normal form U*M*V = D over Z (mod = 0) or Z/p (mod = p).

    Each requested transform among U, U^-1, V and V^-1 follows every
    elementary operation.  Over Z the diagonal is positive and a divisibility
    chain; over Z/p, p prime, every nonzero pivot is a unit, so its entries
    are just the nonzero pivots.  In both rings len(diag) is the rank.
    """

    def __init__(self, m: SparseIntMatrix, mod: int = 0, want_u: bool = False,
                 want_v: bool = False, want_u_inv: bool = False, want_v_inv: bool = False):
        self.m = m
        self.mod = mod
        ws = self.ws = _IndexedLines(m.rows, mod)
        for (r, c), v in m.entries.items():
            if mod:
                v %= mod
            if v:
                ws.lines[r][c] = v
                ws.cross[c].add(r)
        # U and V^-1 are kept by rows, U^-1 and V by columns
        self.u = _Lines.identity(m.rows, mod) if want_u else None
        self.u_inv = _Lines.identity(m.rows, mod) if want_u_inv else None
        self.v = _Lines.identity(m.cols, mod) if want_v else None
        self.v_inv = _Lines.identity(m.cols, mod) if want_v_inv else None
        self.diag: list[int] = []
        self._inverted = (0, 0)  # the last pivot inverted over Z/p, and its inverse
        # pivot queue: a heap of keys count * cols + c, each checked against
        # the live count when it reaches the top; `_keyed[c]` is the count
        # column c was last queued with.  Column ops re-key their columns at
        # once.  Row ops record their rows, and the supports of those rows
        # are re-keyed before the next choice: every column whose count a row
        # op changes keeps an entry in one of its recorded rows until a later
        # op changes that count again and re-keys or records it in turn.
        # (Collecting the columns themselves into a set that was filled and
        # freed on every pivot raised the peak RSS by several MB.)
        self._rows_touched: set[int] = set()
        self._rebuild_queue(0)
        self._run()

    # elementary ops with transform and pivot-queue bookkeeping ----------

    def _row_axpy(self, src, dst, k):
        self._rows_touched.add(src)
        self.ws.axpy(src, dst, k)
        if self.u is not None:
            self.u.axpy(src, dst, k)
        if self.u_inv is not None:
            # E = I + k e_dst e_src^T; U^-1 <- U^-1 E^-1: col src -= k * col dst
            self.u_inv.axpy(dst, src, -k)

    def _row_combine(self, i, j, x, y, z, w):
        # the 2x2 step is invertible, so each column it touches keeps an
        # entry in row i or row j
        self._rows_touched.update((i, j))
        self.ws.combine(i, j, x, y, z, w)
        if self.u is not None:
            self.u.combine(i, j, x, y, z, w)
        if self.u_inv is not None:
            # E^-1 = [[w, -y], [-z, x]] for det(E) = 1
            self.u_inv.combine(i, j, w, -z, -y, x)

    def _row_swap(self, i, j):
        # a recorded row's entries move with it
        touched = self._rows_touched
        if i in touched or j in touched:
            touched.update((i, j))
        self.ws.swap(i, j)
        if self.u is not None:
            self.u.swap(i, j)
        if self.u_inv is not None:
            self.u_inv.swap(i, j)

    def _row_negate(self, i):
        self.ws.negate(i)
        if self.u is not None:
            self.u.negate(i)
        if self.u_inv is not None:
            self.u_inv.negate(i)

    def _col_axpy(self, src, dst, k):
        self.ws.cross_axpy(src, dst, k)
        self._rekey(dst)
        self._transform_col_axpy(src, dst, k)

    def _transform_col_axpy(self, src, dst, k):
        if self.v is not None:
            self.v.axpy(src, dst, k)
        if self.v_inv is not None:
            # F = I + k e_src e_dst^T; V^-1 <- F^-1 V^-1: row src -= k * row dst
            self.v_inv.axpy(dst, src, -k)

    def _col_combine(self, i, j, x, y, z, w):
        self.ws.cross_combine(i, j, x, y, z, w)
        self._rekey(i)
        self._rekey(j)
        if self.v is not None:
            self.v.combine(i, j, x, y, z, w)
        if self.v_inv is not None:
            self.v_inv.combine(i, j, w, -z, -y, x)

    def _col_swap(self, i, j):
        self.ws.cross_swap(i, j)
        self._rekey(i)
        self._rekey(j)
        if self.v is not None:
            self.v.swap(i, j)
        if self.v_inv is not None:
            self.v_inv.swap(i, j)

    # pivot selection: structural fill estimate, then magnitude, then index

    def _rekey(self, c: int) -> None:
        """Queue column c again if its count differs from the one last queued."""
        n = len(self.ws.cross.get(c, ()))
        if n != self._keyed[c]:
            self._keyed[c] = n
            if n:
                heapq.heappush(self._queue, n * self.m.cols + c)

    def _rebuild_queue(self, t: int) -> None:
        """One key per column c >= t with a nonzero count, nothing recorded."""
        ncols = self.m.cols
        self._keyed = [0] * ncols
        self._queue = []
        for c, rows in self.ws.cross.items():
            if c >= t and rows:
                self._keyed[c] = len(rows)
                self._queue.append(len(rows) * ncols + c)
        heapq.heapify(self._queue)
        self._rows_touched.clear()

    def _choose_pivot(self, t: int) -> tuple[int, int] | None:
        ws = self.ws
        cross = ws.cross
        ncols = self.m.cols
        if len(self._queue) > 2 * ncols:
            self._rebuild_queue(t)
        else:
            keyed = self._keyed
            for r in self._rows_touched:
                for c in ws.lines[r]:
                    n = len(cross[c])
                    if c >= t and n != keyed[c]:
                        keyed[c] = n
                        heapq.heappush(self._queue, n * ncols + c)
            self._rows_touched.clear()
        queue = self._queue
        while queue:
            n, best_c = divmod(queue[0], ncols)
            if best_c >= t and len(cross.get(best_c, ())) == n:
                break
            heapq.heappop(queue)
        else:
            return None
        best_r = None
        best_key = None
        for r in cross[best_c]:
            key = (len(ws.lines[r]), abs(ws.lines[r][best_c]), r)
            if best_key is None or key < best_key:
                best_key, best_r = key, r
        return best_r, best_c

    def _run(self):
        ws = self.ws
        for t in range(min(self.m.rows, self.m.cols)):
            picked = self._choose_pivot(t)
            if picked is None:
                break
            r0, c0 = picked
            self._row_swap(r0, t)
            self._col_swap(c0, t)
            while True:
                self._clear_position(t)
                if self.mod:
                    break
                piv = ws.lines[t][t]
                if piv < 0:
                    self._row_negate(t)
                    piv = -piv
                if piv == 1:
                    break
                offender = self._find_nondivisible(t, piv)
                if offender is None:
                    break
                # fold the offending row into the pivot row and re-clear
                self._row_axpy(offender, t, 1)
            self.diag.append(ws.lines[t][t])

    def _quotient(self, b: int, a: int) -> int | None:
        """q with b = q*a in the ring, or None when a does not divide b."""
        if self.mod:
            # no op of a clear over Z/p changes its pivot, so invert it once
            if a != self._inverted[0]:
                self._inverted = (a, pow(a, -1, self.mod))
            return b * self._inverted[1] % self.mod
        return b // a if b % a == 0 else None

    def _clear_position(self, t: int):
        """Make row t and column t zero except at (t, t), which stays nonzero."""
        ws = self.ws
        while True:
            # clear column t with row ops; each op only removes rows from it
            for r in sorted(ws.cross[t]):
                if r == t:
                    continue
                a = ws.lines[t][t]
                b = ws.lines[r][t]
                q = self._quotient(b, a)
                if q is not None:
                    self._row_axpy(t, r, -q)
                else:
                    g, x, y = xgcd(a, b)
                    self._row_combine(t, r, x, y, -(b // g), a // g)
            # clear row t with col ops; a gcd step may refill column t
            row_t = ws.lines[t]
            for c in sorted(c for c in row_t if c != t):
                a = row_t[t]
                b = row_t[c]
                q = self._quotient(b, a)
                if q is not None and len(ws.cross[t]) == 1:
                    # column t holds only row t, so col c -= q * col t can
                    # only zero the entry (t, c)
                    del row_t[c]
                    ws.cross[c].discard(t)
                    self._rekey(c)
                    self._transform_col_axpy(t, c, -q)
                elif q is not None:
                    self._col_axpy(t, c, -q)
                else:
                    g, x, y = xgcd(a, b)
                    self._col_combine(t, c, x, y, -(b // g), a // g)
            if ws.cross[t] == {t}:
                return

    def _find_nondivisible(self, t: int, piv: int) -> int | None:
        """Row index of some active entry not divisible by piv, or None."""
        ws = self.ws
        for c in range(t + 1, self.m.cols):
            for r in sorted(ws.cross.get(c, ())):
                if r <= t:
                    continue
                if ws.lines[r][c] % piv:
                    return r
        return None


def smith_normal_form(m: SparseIntMatrix) -> SnfResult:
    """Smith normal form with transforms; deterministic for fixed input."""
    eng = _SnfEngine(m, want_u=True, want_v=True)
    return SnfResult(tuple(eng.diag),
                     eng.u.to_matrix(m.rows, m.rows, by_rows=True),
                     eng.v.to_matrix(m.cols, m.cols, by_rows=False))


def invariant_factors(m: SparseIntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form, computed without transform bookkeeping."""
    return tuple(_SnfEngine(m).diag)


def rank_mod_p(m: SparseIntMatrix, p: int) -> int:
    """Rank over Z/p, p prime, by eliminating m mod p without transforms."""
    return len(_SnfEngine(m, p).diag)


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
        return SparseIntMatrix.from_columns(self.ncols, self._v_cols[self.rank:])

    def solve(self, b: Vector | dict[int, int]) -> list[int] | None:
        """Solve M*x = b over Z, or return None if b is outside the lattice."""
        if not isinstance(b, dict):
            if len(b) != self.nrows:
                raise ValueError("vector length mismatch")
            b = {r: v for r, v in enumerate(b) if v}
        x = [0] * self.ncols
        for i, row in enumerate(self._u_rows):
            y = sum(w * b.get(j, 0) for j, w in row.items())
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


def rank_z(m: SparseIntMatrix) -> int:
    return len(invariant_factors(m))


def solve_in_lattice(m: SparseIntMatrix, b: Vector) -> list[int] | None:
    """Return x with m*x = b if b lies in the column lattice of m, else None."""
    return ColumnEchelon(m).solve(b)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisibility chain for a direct sum of finite cyclic groups."""
    by_prime: dict[int, list[int]] = defaultdict(list)
    for d in orders:
        if d in (0, 1):
            if d == 0:
                raise ValueError("order 0 is not a finite cyclic order")
            continue
        for p, e in _factorint(d).items():
            by_prime[p].append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for j in range(width):
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if j < len(exps_sorted):
                f *= p ** exps_sorted[j]
        factors.append(f)
    factors.reverse()  # increasing divisibility chain
    return tuple(factors)


class FgAbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    Optionally carries generator data: vectors expressing the abstract
    generators in an ambient coordinate space plus a reduction routine
    sending an ambient vector to its coordinates (torsion coords first, in
    the order of `torsion`, then free coords).
    """

    __slots__ = ("free_rank", "torsion", "ambient_rank", "gens", "_reducer")

    def __init__(self, free_rank: int, torsion: Sequence[int],
                 ambient_rank: int | None = None,
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
        self.ambient_rank = ambient_rank
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

    u_rows = [eng.u.lines[i] for i in coord_positions]
    gens = []
    for i in coord_positions:
        col = eng.u_inv.lines[i]
        vec = [0] * ambient_rank
        for r, v in col.items():
            vec[r] = v
        gens.append(tuple(vec))

    def reducer(vec: Vector) -> tuple[int, ...]:
        if len(vec) != ambient_rank:
            raise ValueError("ambient vector length mismatch")
        out = []
        for row, o in zip(u_rows, orders):
            y = 0
            for j, w in row.items():
                x = vec[j]
                if x:
                    y += w * x
            out.append(y % o if o else y)
        return tuple(out)

    return FgAbelianGroup(orders.count(0), [o for o in orders if o],
                          ambient_rank=ambient_rank, gens=gens, reducer=reducer)


# ---------------------------------------------------------------------------
# homomorphisms, kernels, images, fixed points


def _relation_matrix(group: FgAbelianGroup) -> SparseIntMatrix:
    """Columns t_i * e_i for the finite-order generators."""
    cols = []
    for i, t in enumerate(group.torsion):
        cols.append({i: t})
    return SparseIntMatrix.from_columns(group.ngens, cols)


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
    def identity(cls, group: FgAbelianGroup) -> "AbelianHom":
        n = group.ngens
        return cls(group, group, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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

    def compose(self, other: "AbelianHom") -> "AbelianHom":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition type mismatch")
        cols = []
        for j in range(other.source.ngens):
            col = [other.matrix[i][j] for i in range(other.target.ngens)]
            cols.append(self.apply(col))
        matrix = [[cols[j][i] for j in range(len(cols))] for i in range(self.target.ngens)]
        return AbelianHom(other.source, self.target, matrix)

    def is_zero_map(self) -> bool:
        orders = self.target.gen_orders()
        for i, row in enumerate(self.matrix):
            for v in row:
                if orders[i]:
                    if v % orders[i]:
                        return False
                elif v:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, AbelianHom):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"AbelianHom({self.source} -> {self.target})"

    def kernel(self) -> "FgSubgroup":
        return kernel_of_hom(self)

    def image(self) -> "FgSubgroup":
        return image_of_hom(self)


def make_hom(source: FgAbelianGroup, target: FgAbelianGroup,
             matrix: Sequence[Sequence[int]]) -> AbelianHom:
    return AbelianHom(source, target, matrix)


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
        return self._membership.solve(list(coords)) is not None

    def same_subgroup(self, other: "FgSubgroup") -> bool:
        if self.ambient != other.ambient:
            return False
        mine = [list(col) for col in zip(*self.inclusion.matrix)] if self.group.ngens else []
        theirs = [list(col) for col in zip(*other.inclusion.matrix)] if other.group.ngens else []
        return all(other.contains(g) for g in mine) and all(self.contains(g) for g in theirs)


def _subgroup_from_generators(ambient: FgAbelianGroup,
                              gen_cols: Sequence[Sequence[int]]) -> FgSubgroup:
    """Subgroup of `ambient` generated by the classes of the given vectors."""
    m = ambient.ngens
    rel = _relation_matrix(ambient)
    gmat = SparseIntMatrix.from_columns(m, [dict(enumerate(g)) for g in gen_cols])
    g = gmat.cols
    # relations among the chosen generators: c with G*c in the relation lattice
    block = gmat.hstack(rel)
    ker = kernel_basis(block)
    rel_cols = []
    for c in range(ker.cols):
        col = {r: v for (r, v) in ker.column(c) if r < g}
        rel_cols.append(col)
    presented = present_fg_abelian(g, SparseIntMatrix.from_columns(g, rel_cols))
    # inclusion: push each abstract generator through G into ambient coords
    incl_cols = []
    for gen in (presented.gens or ()):
        vec = gmat.mul_vec(list(gen))
        incl_cols.append(ambient.normalize(vec))
    matrix = [[incl_cols[j][i] for j in range(len(incl_cols))] for i in range(m)]
    inclusion = AbelianHom(presented, ambient, matrix)
    membership = ColumnEchelon(block)
    return FgSubgroup(ambient, presented, inclusion, membership)


def kernel_of_hom(h: AbelianHom) -> FgSubgroup:
    m_s, m_t = h.source.ngens, h.target.ngens
    hm = SparseIntMatrix.from_columns(
        m_t, [{i: h.matrix[i][j] for i in range(m_t) if h.matrix[i][j]} for j in range(m_s)])
    block = hm.hstack(_relation_matrix(h.target))
    ker = kernel_basis(block)
    gens = []
    for c in range(ker.cols):
        vec = [0] * m_s
        for r, v in ker.column(c):
            if r < m_s:
                vec[r] = v
        gens.append(vec)
    # always include the source relations so the lattice contains them
    for i, t in enumerate(h.source.torsion):
        vec = [0] * m_s
        vec[i] = t
        gens.append(vec)
    return _subgroup_from_generators(h.source, gens)


def image_of_hom(h: AbelianHom) -> FgSubgroup:
    m_t = h.target.ngens
    cols = [[h.matrix[i][j] for i in range(m_t)] for j in range(h.source.ngens)]
    return _subgroup_from_generators(h.target, cols)


def fixed_points_of_hom_family(group: FgAbelianGroup,
                               actions: Sequence[AbelianHom]) -> FgSubgroup:
    """Subgroup of elements fixed by every endomorphism in the family."""
    m = group.ngens
    for a in actions:
        if a.source != group or a.target != group:
            raise ValueError("actions must be endomorphisms of the group")
    if not actions:
        return _subgroup_from_generators(
            group, [[1 if i == j else 0 for i in range(m)] for j in range(m)])
    rel = _relation_matrix(group)
    k = rel.cols
    blocks = []
    for a in actions:
        entries = {}
        for i in range(m):
            for j in range(m):
                v = a.matrix[i][j] - (1 if i == j else 0)
                if v:
                    entries[(i, j)] = v
        blocks.append(SparseIntMatrix(m, m, entries))
    # stacked system: for each action, (rho - 1) x + rel * y_rho = 0
    n_actions = len(actions)
    big_entries = {}
    for bi, blk in enumerate(blocks):
        for (r, c), v in blk.entries.items():
            big_entries[(bi * m + r, c)] = v
        for (r, c), v in rel.entries.items():
            big_entries[(bi * m + r, m + bi * k + c)] = v
    big = SparseIntMatrix(n_actions * m, m + n_actions * k, big_entries)
    ker = kernel_basis(big)
    gens = []
    for c in range(ker.cols):
        vec = [0] * m
        for r, v in ker.column(c):
            if r < m:
                vec[r] = v
        if any(vec):
            gens.append(vec)
    for i, t in enumerate(group.torsion):
        vec = [0] * m
        vec[i] = t
        gens.append(vec)
    return _subgroup_from_generators(group, gens)
