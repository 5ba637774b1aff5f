"""Vectors and matrices over GF(2^m), plus their GF(2) substructure.

Entries are raw ints (see gf2m); containers carry one shared FieldCtx and
are treated as immutable after construction, so values can move freely
between threads.  A matrix keeps its packed rows once built (packed_rows);
they are assigned whole, so a concurrent reader sees all of them or builds
them again.

Heavy operations (products, elimination) run on rows packed into single
big ints, one 2m-bit slot per entry: multiplying a whole row by a scalar
is then a handful of shift/xor operations on one integer, and carry-less
products never spill between slots.  The packed form is internal; the
public API speaks lists of ints.  Packing merges neighbouring slots
pairwise, level by level, and unpacking splits halves the same way, so
each level shifts the whole row once: O(L log L) slot moves for L slots,
where one shift of the growing row per slot takes O(L^2).  Every sum of
row products (matrix products, syndromes, c·P, the repaired M0 rows)
goes through _Packed.sum_products, which hands the terms to
gf2m._window_mul_sum in chunks of _SUM_CHUNK: the sum is shifted once per
window and chunk, not once per window and term, and only one chunk's
window tables are held at a time.

Elimination builds the 4-bit window table of each pivot row once and
applies it to every row it updates; the window helpers live in gf2m,
whose FieldCtx.mul runs them on single elements.  Between folds a slot
holds an XOR of products of two reduced elements, so it stays below 2m
bits and fold reduces it exactly; only the slot being read is reduced,
and a row is folded when it becomes a pivot.  In the forward pass the
rows below the pivot are held shifted right by one slot per finished
column, so the work per update shrinks with the remaining width.  A
Toeplitz-like matrix reaches systematic form without elimination of its
rows, by generalized Schur steps on a few displacement generators
(_systematic_packed).

Circulant conventions follow the right-shift rule: the k-partial circulant
of a = (a_0, ..., a_{n-1}) has row 0 = reflect(a) = (a_0, a_{n-1}, ..., a_1)
and every row is the right cyclic shift of the one above, i.e.
M[i][j] = a[(i-j) % n].  Circulant n x n matrices multiply like polynomials
mod z^n - 1, so Cir_k(b) Cir(a) = Cir_k(b a) in that ring.  A matrix made
of such blocks, a single circulant included (a 1 x 1 grid), is held as a
CirculantGrid of block generators; products and inverses of grids run in
the ring, a vector times a grid runs on the GF(2) decomposition of its
generators (CirculantGrid.left_mul_values), and the dense matrix is built
only as an oracle for the tests and the audit (CirculantGrid.dense, with
RankMatrix.from_blocks, identity and invert).  Ring elements live in
packed rows, slot i holding the coefficient of z^i, so cyc_mul and cyc_inv
use the same window/fold kernel as the matrices.

GF(2) matrices (BitMatrix) keep each row as a bitmask int.  They are
drawn, shifted and applied to field vectors here; their rank, like every
other elimination over GF(2), comes from gf2m.BitSpan.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .gf2m import (
    ContextMismatchError,
    FieldCtx,
    _bit_rank,
    _window_mul,
    _window_mul_sum,
    _window_table,
)


class SingularMatrixError(ValueError):
    """Matrix not invertible; carries the rank reached by elimination."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class StructureError(ValueError):
    """Input violates a required circulant / block structure."""


# ---------------------------------------------------------------------------
# packed-row kernel


# Terms per _window_mul_sum call in _Packed.sum_products: the window
# tables of one chunk are all that is held at once (CHANGES.md has the
# measurements at 8 and 16).
_SUM_CHUNK = 8


class _Packed:
    """Row-packing helper for a fixed context and slot count."""

    def __init__(self, ctx: FieldCtx, nslots: int):
        self.ctx = ctx
        self.L = nslots
        self.S = 2 * ctx.m
        self.elem_mask = ctx.mask
        self.slot_mask = (1 << self.S) - 1
        lo = 0
        for i in range(nslots):
            lo |= ctx.mask << (i * self.S)
        self.lo_mask = lo

    def pack(self, vals):
        """vals[i] in slot i, for any number of values: neighbours merge
        pairwise, level by level, so each level shifts the row once."""
        S = self.S
        while len(vals) > 1:
            it = iter(vals)
            vals = [a | b << S for a, b in itertools.zip_longest(it, it, fillvalue=0)]
            S <<= 1
        return vals[0] if vals else 0

    def unpack(self, p):
        """The L reduced-width entries of p: halves split off level by level
        until a part holds at most four slots, which shifts read.  Bits
        above m in a slot and past slot L - 1 are dropped."""
        S, L, mask = self.S, self.L, self.elem_mask
        w = 4  # slots per part
        while w < L:
            w <<= 1
        parts = [p]
        while w > 4:
            w >>= 1
            sh = w * S
            lo = (1 << sh) - 1
            parts = [x for q in parts for x in (q & lo, q >> sh)][: -(-L // w)]
        S2, S3 = 2 * S, 3 * S
        vals = [x for q in parts for x in (q & mask, q >> S & mask, q >> S2 & mask, q >> S3 & mask)]
        return vals[:L]

    def entry(self, p, j):
        return (p >> (j * self.S)) & self.elem_mask

    def scal(self, p, lam):
        """Slot-wise carry-less product of a reduced row by a scalar."""
        if lam == 0 or p == 0:
            return 0
        if lam == 1:
            return p
        return _window_mul(_window_table(p), lam)

    def fold(self, p):
        """Reduce every slot modulo the field polynomial."""
        m = self.ctx.m
        lo_mask = self.lo_mask
        shifts = self.ctx._red_shifts
        hi = (p >> m) & lo_mask
        while hi:
            p ^= hi << m
            for s in shifts:
                p ^= hi << s
            hi = (p >> m) & lo_mask
        return p

    def sum_products(self, pairs):
        """XOR of the slot-wise products lam * p over (lam, p) pairs of a
        scalar and a reduced row, unfolded.

        The terms go to _window_mul_sum _SUM_CHUNK at a time, with the
        window tables of their rows, so the sum is shifted once per window
        and chunk, not once per window and term as in separate scal.
        """
        acc = 0
        tabs, lams = [], []
        for lam, p in pairs:
            if lam == 0 or p == 0:
                continue
            if lam == 1:
                acc ^= p
                continue
            tabs.append(_window_table(p))
            lams.append(lam)
            if len(tabs) == _SUM_CHUNK:
                acc ^= _window_mul_sum(tabs, lams)
                tabs, lams = [], []
        return acc ^ _window_mul_sum(tabs, lams)

    def lincomb(self, coeffs, prows):
        """sum_i coeffs[i] * prows[i] over reduced packed rows, unpacked."""
        return self.unpack(self.fold(self.sum_products(zip(coeffs, prows))))

    def rotate(self, p, r, n):
        """Cyclic slot rotation by r positions (slot u <- slot (u-r) mod n)."""
        r %= n
        if r == 0:
            return p
        S = self.S
        keep = (1 << (n * S)) - 1
        return ((p << (r * S)) | (p >> ((n - r) * S))) & keep


_packed_cache: dict = {}


def _packed(ctx: FieldCtx, nslots: int) -> _Packed:
    key = (ctx, nslots)
    ops = _packed_cache.get(key)
    if ops is None:
        ops = _Packed(ctx, nslots)
        _packed_cache[key] = ops
    return ops


def _echelon_packed(ctx, rows, ncols, lu=None):
    """In-place row echelon form with unit pivots; returns pivot cols.

    On return every row is reduced and in full layout, and rows past the
    last pivot are 0.  While column col is eliminated, the rows not yet
    chosen as pivots are held shifted right by col slots, because their
    finished slots are 0 mod the field polynomial, and their slots stay
    unreduced below 2m bits until they become pivots (module docstring).
    _rref_packed runs this first, so the two always agree on the pivots.

    With lu a list, the elimination is also recorded there, one record per
    row, which moves with its row: [original index, the multipliers of the
    pivot rows subtracted from it, in order, then its own pivot inverse if
    it became a pivot].  LeftSolver replays these records.
    """
    pk = _packed(ctx, ncols)
    S = pk.S
    smask = pk.slot_mask
    reduce = ctx.reduce
    nrows = len(rows)
    if lu is not None:
        lu[:] = [[i] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = r
        while piv < nrows and not reduce(rows[piv] & smask):
            piv += 1
        if piv == nrows:
            for i in range(r, nrows):
                rows[i] >>= S
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = pk.fold(rows[r])
        pinv = prow & smask
        if pinv != 1:
            pinv = ctx.inv(pinv)
            prow = pk.fold(pk.scal(prow, pinv))
        rows[r] = prow << (col * S)
        if lu is not None:
            lu[r], lu[piv] = lu[piv], lu[r]
            lu[r].append(pinv)
        # the pivot slot itself is not multiplied: it would only cancel the
        # slot that the shift drops
        tab = _window_table(prow >> S)
        for i in range(r + 1, nrows):
            row = rows[i]
            f = reduce(row & smask)
            row >>= S
            rows[i] = row ^ _window_mul(tab, f) if f else row
            if lu is not None:
                lu[i].append(f)
        pivots.append(col)
        r += 1
    return pivots


def _rref_packed(ctx, rows, ncols):
    """In-place reduced row echelon form on packed rows; returns pivot cols.

    The upward pass clears each pivot column in the rows above it with one
    window table per pivot and lazy folds, as in _echelon_packed: a row is
    folded before it becomes the multiplier, and row 0 at the end.
    """
    pk = _packed(ctx, ncols)
    S = pk.S
    smask = pk.slot_mask
    reduce = ctx.reduce
    pivots = _echelon_packed(ctx, rows, ncols)
    for r in range(len(pivots) - 1, 0, -1):
        sh = pivots[r] * S
        prow = rows[r] = pk.fold(rows[r])
        # the table holds the part of the row past its pivot, from its
        # lowest set bit on; the target's pivot slot is cleared instead
        rest = prow >> (sh + S)
        low = (rest & -rest).bit_length() - 1 if rest else 0
        tab = _window_table(rest >> low)
        keep = ~(smask << sh)
        up = sh + S + low
        for i in range(r):
            row = rows[i]
            f = reduce(row >> sh & smask)
            if f:
                rows[i] = (row & keep) ^ (_window_mul(tab, f) << up)
    if pivots:
        rows[0] = pk.fold(rows[0])
    return pivots


def _systematic_packed(ctx, rows, n):
    """In-place reduced row echelon form of [M | I_k], for M the k x n
    matrix of the reduced packed rows, k <= n; returns pivot cols, as
    _rref_packed does.

    When the pivots lead, the result is [I_k | N | S] with S = A^-1 for A
    the leading k x k block and N = S M[:, k:].  [N | S] is then the Schur
    complement of A in E = [[M, I_k], [I_k, 0]] (characteristic 2), and E
    is Toeplitz-like when M is: with Z the down shift of rows and the right
    shift of columns, E - Z E Z^T has rank alpha, small when the rows of M
    are shifts of one another up to a low-rank correction (6 for the
    repaired public matrix).  The generalized Schur algorithm (Kailath,
    Kung & Morf 1979; Kailath & Sayed, SIAM Review 1995) eliminates on
    alpha generator pairs instead of k rows: O(alpha k n) work for the
    O(k^2 n) of the echelon.  A zero Schur pivot is a singular leading
    principal minor, which the echelon does not need; the echelon of
    [M | I_k] then decides, so the result is always _rref_packed's.
    """
    k = len(rows)
    pk = _packed(ctx, n)
    S, smask = pk.S, pk.slot_mask
    gens = _schur_steps(ctx, rows, n) if 0 < k <= n else None
    if gens is None:
        for r in range(k):
            rows[r] |= 1 << ((n + r) * S)
        return _rref_packed(ctx, rows, n + k)
    # C = [N | S] has generators (G, B): C - Z C Z^T = G B^T gives row r of
    # C as G[r] B^T plus row r - 1 shifted right.  Slot n of B and slot k of
    # G hold entries shifted past E's edge.
    gcols, bcols = gens
    keep = (1 << (n * S)) - 1
    tabs = [_window_table(b & keep) for b in bcols]
    prev = 0
    for r in range(k):
        f = [g >> r * S & smask for g in gcols]
        prev = pk.fold(prev << S & keep ^ _window_mul_sum(tabs, f))
        rows[r] = 1 << (r * S) | prev << (k * S)
    return list(range(k))


def _displacement_generators(ctx, rows, n):
    """Generators of E - Z E Z^T = G B^T for E = [[M, I_k], [I_k, 0]].

    Its nonzero rows are row 0 of E, row_i(M) - row_{i-1}(M) shifted right
    (the identity parts cancel, and slot n takes the entry shifted out of
    M) and row k, e_0 - row_{k-1}(M) shifted; all live in slots 0..n.  They
    are reduced one by one against an echelon basis of unit-pivot rows:
    row i of G holds the multipliers, and each basis row is a column of B.
    Basis row t is 0 at the pivot slots of the rows before it, so the
    multiplier f_t of a row d is d's entry at t's pivot slot less
    sum_{s<t} f_s (basis row s at that slot), and the whole combination is
    subtracted in one product.  Returns (G's columns packed over E's rows,
    B's columns packed over E's columns).
    """
    pk = _packed(ctx, n + 1)
    S, smask, fold = pk.S, pk.slot_mask, pk.fold
    mul = ctx.mul
    k = len(rows)
    slots, basis, tabs = [], [], []  # pivot slots, unit-pivot rows, their tables
    coeffs = []
    for i in range(k + 1):
        if i == 0:
            d = rows[0] | 1 << (n * S)
        else:
            d = (rows[i] if i < k else 1) ^ rows[i - 1] << S
        f_row = []
        for slot in slots:
            f = d >> slot * S & smask
            for fs, u in zip(f_row, basis):
                f ^= mul(fs, u >> slot * S & smask)
            f_row.append(f)
        if f_row:
            d = fold(d ^ _window_mul_sum(tabs, f_row))
        if d:
            slot = ((d & -d).bit_length() - 1) // S
            piv = d >> slot * S & smask
            u = fold(pk.scal(d, ctx.inv(piv)))
            slots.append(slot)
            basis.append(u)
            tabs.append(_window_table(u))
            f_row.append(piv)
        coeffs.append(f_row)
    gcols = [pk.pack([f[s] if s < len(f) else 0 for f in coeffs]) for s in range(len(basis))]
    return gcols, basis


def _schur_steps(ctx, rows, n):
    """Generators (G, B) of [N | S] after k generalized Schur steps, or
    None when a leading principal minor of M is singular
    (_systematic_packed).

    Each step brings the top rows of G and B to a single nonzero entry in
    one column p, through column operations on G matched by their inverse
    transposes on B, so that G B^T is kept (proper form): then column p
    of G and of B are the pivot column and row of E over its pivot, and
    the generators of the complement are the others plus these two
    shifted down.  Columns are packed with slot 0 at the current top row,
    so dropping the finished row is a shift of every other column, and
    column p stays as it is.
    """
    gcols, bcols = _displacement_generators(ctx, rows, n)
    pk = _packed(ctx, n + 1)
    S, smask, fold = pk.S, pk.slot_mask, pk.fold
    others = range(1, len(gcols))
    for _ in range(len(rows)):
        # every column is reduced, so its top slot is its top entry
        top = [c & smask for c in gcols]
        p = next((j for j, v in enumerate(top) if v), None)
        if p is None:
            return None
        gcols.insert(0, gcols.pop(p))
        bcols.insert(0, bcols.pop(p))
        top.insert(0, top.pop(p))
        # G[:, j] += c_j G[:, 0] clears G's top row; B[:, 0] += sum c_j B[:, j]
        bcols[0] = fold(bcols[0] ^ _clear_top(pk, gcols, bcols, top))
        top = [c & smask for c in bcols]
        if not top[0]:
            return None
        # B[:, j] += c_j B[:, 0] clears B's top row; G[:, 0] += sum c_j G[:, j]
        gcols[0] = fold(gcols[0] ^ _clear_top(pk, bcols, gcols, top))
        for j in others:
            gcols[j] >>= S
            bcols[j] >>= S
    return gcols, bcols


def _clear_top(pk, xcols, ycols, top):
    """Half a proper-form step on reduced packed columns: x_j += c_j x_0
    for each j >= 1, c_j = top[j] / top[0], which clears the top entries
    top[j] of x_j; returns sum_j c_j y_j, unfolded, which y_0 takes so
    that x y^T is kept."""
    ctx = pk.ctx
    ip = ctx.inv(top[0])
    tab = _window_table(xcols[0])
    cs, tabs = [], []
    for j in range(1, len(xcols)):
        if top[j]:
            c = ctx.mul(top[j], ip)
            xcols[j] = pk.fold(xcols[j] ^ _window_mul(tab, c))
            cs.append(c)
            tabs.append(_window_table(ycols[j]))
    return _window_mul_sum(tabs, cs)


def _solve_packed(ctx, rows, ncols):
    """Solve packed augmented rows whose last column is the right-hand side.

    Echelon form, then back-substitution for the last column only: slot r
    of one packed accumulator holds the right-hand side of row r less the
    unknowns found so far, unreduced, and each unknown subtracts its
    packed pivot column with one scal.  Returns the pivots and the
    ncols - 1 unknowns with free variables zero, or None for the unknowns
    when the last column is a pivot (no solution).
    """
    pk = _packed(ctx, ncols)
    pivots = _echelon_packed(ctx, rows, ncols)
    rhs = ncols - 1
    if pivots and pivots[-1] == rhs:
        return pivots, None
    acc = pk.pack([pk.entry(row, rhs) for row in rows[: len(pivots)]])
    return pivots, _back_substitute(pk, acc, pivots, _pivot_columns(pk, rows, pivots), rhs)


def _pivot_columns(pk, rows, pivots):
    """Packed column pivots[r] of the echelon rows above row r, for each r."""
    entry = pk.entry
    return [pk.pack([entry(row, col) for row in rows[:r]]) for r, col in enumerate(pivots)]


def _back_substitute(pk, acc, pivots, cols, nunknowns):
    """Unknowns of an echelon system with unit pivots; free variables zero.

    Slot r of the packed accumulator acc holds the right-hand side of row r,
    unreduced, and cols[r] is the packed pivot column of row r above it
    (_pivot_columns); each unknown subtracts its column with one scal.
    """
    reduce = pk.ctx.reduce
    S = pk.S
    smask = pk.slot_mask
    x = [0] * nunknowns
    for r in range(len(pivots) - 1, -1, -1):
        v = x[pivots[r]] = reduce(acc >> (r * S) & smask)
        if v and r:
            acc ^= pk.scal(cols[r], v)
    return x


class LeftSolver:
    """A k x k matrix A factored once to solve x·A = b for many b.

    The build runs one forward elimination of A^T with its steps recorded
    (_echelon_packed), a permuted LU factoring: with the rows in their final
    order Q, Q A^T = L U for U upper triangular with a unit diagonal and L
    lower triangular, holding the pivots on its diagonal and the
    multipliers below it.  x·A = b is A^T x^T = b^T, so each solve permutes
    b by Q, runs the forward pass L z = Q b^T as k scal, one per packed
    column of L, and the back-substitution U x^T = z of _solve_packed.
    Raises SingularMatrixError, with the rank of A, when A is singular.
    """

    def __init__(self, A: "RankMatrix"):
        if A.nrows != A.ncols:
            raise SingularMatrixError("only square matrices invert")
        ctx, k = A.ctx, A.nrows
        pk = _packed(ctx, k)
        rows = [pk.pack(col) for col in zip(*A.rows)]
        lu = []
        pivots = _echelon_packed(ctx, rows, k, lu)
        if len(pivots) < k:
            rank = len(pivots)
            raise SingularMatrixError(f"matrix is singular (rank {rank})", rank=rank)
        self._pk = pk
        self._order = [rec[0] for rec in lu]
        self._pinvs = [rec[-1] for rec in lu]
        # packed column s of L: the multipliers of pivot s in the rows below it
        self._lcols = [pk.pack([0] * (s + 1) + [lu[i][s + 1] for i in range(s + 1, k)])
                       for s in range(k)]
        self._pivots = pivots
        self._ucols = _pivot_columns(pk, rows, pivots)

    def solve(self, b) -> list:
        """x with x·A = b, for b a list of k reduced elements."""
        pk = self._pk
        S, smask = pk.S, pk.slot_mask
        reduce, mul = pk.ctx.reduce, pk.ctx.mul
        # slot s of acc holds entry s of Q b^T less the pivots done so far
        acc = pk.pack([b[i] for i in self._order])
        z = []
        for s, (col, pinv) in enumerate(zip(self._lcols, self._pinvs)):
            v = mul(reduce(acc >> (s * S) & smask), pinv)
            z.append(v)
            if v:
                acc ^= pk.scal(col, v)
        return _back_substitute(pk, pk.pack(z), self._pivots, self._ucols, len(z))


# ---------------------------------------------------------------------------
# GF(2) matrices


class BitMatrix:
    """Matrix over the base field GF(2); each row is a bitmask int."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [0] * nrows
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        mask = (1 << ncols) - 1
        self.rows = [r & mask for r in rows]

    @classmethod
    def random(cls, nrows, ncols, rng):
        return cls(nrows, ncols, [rng.bits(ncols) for _ in range(nrows)])

    def rank(self):
        return _bit_rank(self.rows)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def cyclic_col_shift(self):
        """Columns shifted right by one position, wrapping the last to front."""
        n = self.ncols
        out = []
        for r in self.rows:
            out.append(((r << 1) | (r >> (n - 1))) & ((1 << n) - 1))
        return BitMatrix(self.nrows, n, out)

    def __repr__(self):
        return f"BitMatrix({self.nrows}x{self.ncols})"


def field_vec_times_bitmatrix(ctx, vals, bm: BitMatrix):
    """Row vector over GF(2^m) times a GF(2) matrix (entrywise XOR combine)."""
    if len(vals) != bm.nrows:
        raise ValueError("dimension mismatch")
    out = [0] * bm.ncols
    for i, v in enumerate(vals):
        if not v:
            continue
        row = bm.rows[i]
        j = 0
        while row:
            if row & 1:
                out[j] ^= v
            row >>= 1
            j += 1
    return out


# ---------------------------------------------------------------------------
# vectors and matrices over GF(2^m)


class RankVector:
    """Vector over GF(2^m) with rank-metric helpers."""

    __slots__ = ("ctx", "values")

    def __init__(self, ctx: FieldCtx, values):
        self.ctx = ctx
        self.values = [ctx.check(v) for v in values]

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, [0] * n)

    @classmethod
    def random(cls, ctx, n, rng):
        return cls(ctx, [rng.element(ctx.m) for _ in range(n)])

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, RankVector)
            and self.ctx == other.ctx
            and self.values == other.values
        )

    def __repr__(self):
        return f"RankVector(n={len(self.values)}, GF(2^{self.ctx.m}))"

    def rank_weight(self) -> int:
        """rk_q: GF(2)-rank of the base-field expansion."""
        return _bit_rank(self.values)


def checked_values(ctx: FieldCtx, x, n: int, what: str) -> list:
    """The entries of x, a RankVector or a sequence of ints, as a list.

    Raises ValueError unless x has n entries, each an element of ctx.  List
    input reaches the packed kernel through here: a negative entry would
    never finish a window product, and one of degree >= m would spill into
    the next slot.
    """
    vals = x.values if isinstance(x, RankVector) else list(x)
    if len(vals) != n:
        raise ValueError(f"{what} length {len(vals)} != {n}")
    for v in vals:
        ctx.check(v)
    return vals


class RankMatrix:
    """Rectangular matrix over GF(2^m)."""

    __slots__ = ("ctx", "nrows", "ncols", "rows", "_prows")

    def __init__(self, ctx: FieldCtx, rows):
        self.ctx = ctx
        self.rows = [[ctx.check(v) for v in row] for row in rows]
        self._prows = None
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def random(cls, ctx, r, c, rng):
        return cls(ctx, [[rng.element(ctx.m) for _ in range(c)] for _ in range(r)])

    @classmethod
    def random_full_rank(cls, ctx, r, c, rng):
        for _ in range(256):
            M = cls.random(ctx, r, c, rng)
            if M.rank() == min(r, c):
                return M
        raise RuntimeError("failed to sample a full-rank matrix")

    def __eq__(self, other):
        return (
            isinstance(other, RankMatrix)
            and self.ctx == other.ctx
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"RankMatrix({self.nrows}x{self.ncols}, GF(2^{self.ctx.m}))"

    def _same_ctx(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("matrices from different field contexts")

    def column(self, j):
        return [r[j] for r in self.rows]

    def submatrix(self, i0, j0, r, c) -> "RankMatrix":
        return RankMatrix(self.ctx, [row[j0 : j0 + c] for row in self.rows[i0 : i0 + r]])

    @classmethod
    def from_blocks(cls, grid):
        ctx = grid[0][0].ctx
        rows = []
        for blockrow in grid:
            height = blockrow[0].nrows
            for b in blockrow:
                if b.nrows != height:
                    raise ValueError("block height mismatch")
                if b.ctx != ctx:
                    raise ContextMismatchError("blocks from different contexts")
            for i in range(height):
                row = []
                for b in blockrow:
                    row.extend(b.rows[i])
                rows.append(row)
        return cls(ctx, rows)

    # -- products ---------------------------------------------------------

    def left_mul_values(self, vals):
        """values (length nrows) times self, returning a plain list."""
        pk, prows = self.packed_rows()
        return pk.lincomb(vals, prows)

    def packed_rows(self):
        """(packer, rows), built on first use and kept; callers must not
        change the rows."""
        if self._prows is None:
            pk = _packed(self.ctx, self.ncols)
            self._prows = pk, [pk.pack(row) for row in self.rows]
        return self._prows

    def mul(self, other: "RankMatrix") -> "RankMatrix":
        self._same_ctx(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        pk, prows = other.packed_rows()
        return RankMatrix(self.ctx, [pk.lincomb(row, prows) for row in self.rows])

    __matmul__ = mul

    # -- elimination --------------------------------------------------------

    def rank(self) -> int:
        """Rank by forward elimination only."""
        pk = _packed(self.ctx, self.ncols)
        return len(_echelon_packed(self.ctx, [pk.pack(r) for r in self.rows], self.ncols))

    def invert(self) -> "RankMatrix":
        """The dense inverse; the tests' referee for LeftSolver, which every
        program path uses instead.  perfbench/tracer.py wraps it by name."""
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square matrices invert")
        n = self.nrows
        pk = _packed(self.ctx, 2 * n)
        rows = []
        for i, row in enumerate(self.rows):
            ext = list(row) + [0] * n
            ext[n + i] = 1
            rows.append(pk.pack(ext))
        pivots = _rref_packed(self.ctx, rows, 2 * n)
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError(
                f"matrix is singular (rank {len([p for p in pivots if p < n])})",
                rank=len([p for p in pivots if p < n]),
            )
        inv_rows = [pk.unpack(r)[n:] for r in rows[:n]]
        return RankMatrix(self.ctx, inv_rows)


def column_rank_q(M: RankMatrix) -> int:
    """colrk_q: GF(2)-dimension of the span of the columns of M."""
    m = M.ctx.m
    cols = []
    for j in range(M.ncols):
        v = 0
        for i in range(M.nrows):
            v |= M.rows[i][j] << (i * m)
        cols.append(v)
    return _bit_rank(cols)


def information_set(G: RankMatrix):
    """Lexicographically first column set whose submatrix is invertible."""
    pk = _packed(G.ctx, G.ncols)
    pivots = _echelon_packed(G.ctx, [pk.pack(r) for r in G.rows], G.ncols)
    if len(pivots) != G.nrows:
        raise SingularMatrixError(
            f"matrix has rank {len(pivots)} < {G.nrows}", rank=len(pivots)
        )
    return tuple(pivots)


# ---------------------------------------------------------------------------
# circulant structure


def partial_circulant(a: RankVector, k: int) -> RankMatrix:
    """Cir_k(a): k rows, each the right cyclic shift of the previous."""
    vals = a.values
    ctx = a.ctx
    n = len(vals)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    rows = [[vals[(i - j) % n] for j in range(n)] for i in range(k)]
    return RankMatrix(ctx, rows)


def circulant(a) -> RankMatrix:
    return partial_circulant(a, len(a))


def is_partial_circulant(M: RankMatrix) -> bool:
    n = M.ncols
    for i in range(1, M.nrows):
        prev = M.rows[i - 1]
        cur = M.rows[i]
        if any(cur[j] != prev[(j - 1) % n] for j in range(n)):
            return False
    return True


def is_circulant(M: RankMatrix) -> bool:
    return M.nrows == M.ncols and is_partial_circulant(M)


def reflect(v):
    """(v_0, v_{n-1}, ..., v_1): row 0 of Cir(v), and v again from that row."""
    return v[:1] + v[:0:-1]


def is_partial_circulant_block(M: RankMatrix, k1: int, n1: int, k2: int, n2: int) -> bool:
    if M.nrows != k1 * k2 or M.ncols != n1 * n2:
        return False
    return all(
        is_partial_circulant(M.submatrix(i * k2, j * n2, k2, n2))
        for i in range(k1)
        for j in range(n1)
    )


# -- the ring GF(2^m)[z]/(z^n - 1), which circulants multiply in -------------


def cyc_mul(ctx, a, b):
    """Cyclic convolution: generator of Cir(a) · Cir(b)."""
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    pk = _packed(ctx, n)
    # a carry-less product fills under 2m bits of a slot, so the rotation
    # moves whole products: a_r (b rotated by r) = (a_r b) rotated by r
    tab = _window_table(pk.pack(b))
    acc = 0
    for r, v in enumerate(a):
        acc ^= pk.rotate(_window_mul(tab, v), r, n)
    return pk.unpack(pk.fold(acc))


def _cyc_euclid(ctx, a, bezout):
    """Euclid on z^n - 1 and a over packed rows, slot i the coefficient of z^i.

    Each division step clears the leading slot of r0 with one scal of r1.
    Returns (pk, r, s): r is the constant gcd when a is a unit and 0
    otherwise.  With bezout set, the same steps run on s, so that
    r = s a mod z^n - 1 and deg s < n; without it, s is 0.
    """
    n = len(a)
    pk = _packed(ctx, n + 1)
    S = pk.S
    # invariant: r_i = s_i a mod z^n - 1; r0 = z^n + 1 and r1 = a to start
    r0, r1 = 1 | 1 << (n * S), pk.pack(a)
    s0, s1 = 0, int(bezout)
    while r1 >> S:  # deg r1 > 0
        d1 = (r1.bit_length() - 1) // S
        inv_lead = ctx.inv(pk.entry(r1, d1))
        d0 = (r0.bit_length() - 1) // S
        while d0 >= d1:  # d0 is -1 once r0 is zero
            f = ctx.mul(pk.entry(r0, d0), inv_lead)
            sh = (d0 - d1) * S
            r0 = pk.fold(r0 ^ pk.scal(r1, f) << sh)
            if bezout:
                s0 = pk.fold(s0 ^ pk.scal(s1, f) << sh)
            d0 = (r0.bit_length() - 1) // S
        r0, r1, s0, s1 = r1, r0, s1, s0
    return pk, r1, s1


def cyc_inv(ctx, a):
    """Inverse of a in GF(2^m)[z]/(z^n - 1), or None if a is not a unit."""
    pk, r, s = _cyc_euclid(ctx, a, True)
    if not r:
        return None  # gcd has positive degree: a shares a factor with z^n - 1
    return pk.unpack(pk.fold(pk.scal(s, ctx.inv(r))))[: len(a)]


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] ^= v
    return out


def circulant_inverse(M: RankMatrix) -> RankMatrix:
    """Inverse of a circulant matrix, computed and returned in circulant form."""
    if not is_circulant(M):
        raise StructureError("matrix is not circulant")
    inv = cyc_inv(M.ctx, reflect(M.rows[0]))
    if inv is None:
        raise SingularMatrixError("circulant matrix is singular")
    return circulant(RankVector(M.ctx, inv))


def _binary_parts(vals):
    """vals = sum_q v_q b_q with the v_q a GF(2) basis of its entries and
    each b_q binary; returns [(v_q, support of b_q)].

    Each v_q is an entry reduced by the v before it, so it is clear at
    their top bits, and reducing an entry by the v_q in order clears every
    top bit for good: what is left is 0 or the next basis element.
    """
    parts = {}  # v_q -> support of b_q, in the order the v_q were found
    for u, x in enumerate(vals):
        for v, supp in parts.items():
            if x ^ v < x:
                x ^= v
                supp.append(u)
        if x:
            parts[x] = [u]
    return list(parts.items())


@dataclass
class CirculantGrid:
    """Block matrix held by its block generators.

    Block (i, j) is Cir_k(gens[i][j]): the first k rows of the circulant of
    an n-vector, k the same for every block (k = n for circulant blocks).
    A grid keeps, once built, its packed rows (packed_rows) and the GF(2)
    decomposition of each generator that left_mul_values reads.
    """

    ctx: FieldCtx
    gens: list  # gens[i][j]: list of n ints
    k: int
    _prows: tuple = field(default=None, init=False, repr=False, compare=False)
    _parts: list = field(default=None, init=False, repr=False, compare=False)

    def left_mul_values(self, vals):
        """vals (length rows of blocks times k) times the grid, as a list.

        Write a generator as b = sum_q v_q b_q, b_q binary (_binary_parts).
        Entry u of c Cir_k(b_q) is the XOR of c_{u+d mod n} over the support
        of b_q, so c Cir_k(b) = sum_q v_q x_q, x_q the XOR of c's left
        rotations by that support: rank(b) products instead of k, summed
        per block column by sum_products.  A rotation is a shift of c's
        packed row doubled end to end.
        """
        n = len(self.gens[0][0])
        k = self.k
        pk = _packed(self.ctx, n)
        S = pk.S
        width = n * S
        if self._parts is None:
            self._parts = [[_binary_parts(b) for b in grow] for grow in self.gens]
        keep = (1 << width) - 1
        doubled = []  # (c c, that block row's parts) where c is not 0
        for i, grow in enumerate(self._parts):
            c = pk.pack(vals[i * k : (i + 1) * k])
            if c:
                doubled.append((c | c << width, grow))

        def terms(j):
            for cc, grow in doubled:
                for v, supp in grow[j]:
                    x = 0
                    for d in supp:
                        x ^= cc >> (d * S)
                    yield v, x & keep

        acc = 0
        for j in range(len(self.gens[0])):
            acc ^= pk.sum_products(terms(j)) << (j * width)
        wide = _packed(self.ctx, len(self.gens[0]) * n)
        return wide.unpack(wide.fold(acc))

    def packed_rows(self):
        """(packer, rows) exactly as RankMatrix.packed_rows of dense(), and
        likewise kept."""
        if self._prows is None:
            n = len(self.gens[0][0])
            pk = _packed(self.ctx, n)
            width = n * pk.S
            rows = []
            for grow in self.gens:
                firsts = [pk.pack(reflect(a)) for a in grow]
                for r in range(self.k):
                    acc = 0
                    for j, p in enumerate(firsts):
                        acc |= pk.rotate(p, r, n) << (j * width)
                    rows.append(acc)
            self._prows = _packed(self.ctx, len(grow) * n), rows
        return self._prows

    def _det(self):
        return _ring_det(self.ctx, self.gens, len(self.gens), len(self.gens[0][0]))

    def is_invertible(self) -> bool:
        """True iff a square grid is invertible: gcd(det, z^n - 1) = 1.

        Runs the Euclid loop of det_inverse without its Bezout row.
        """
        return bool(_cyc_euclid(self.ctx, self._det(), False)[1])

    def det_inverse(self):
        """Inverse of the ring determinant of a square grid, or None when the
        grid is singular."""
        return cyc_inv(self.ctx, self._det())

    def dense(self) -> RankMatrix:
        """The expanded matrix; an oracle for tests and the audit."""
        return RankMatrix.from_blocks(
            [[partial_circulant(RankVector(self.ctx, a), self.k) for a in row]
             for row in self.gens]
        )


def circulant_block_compose(B: CirculantGrid, A: CirculantGrid) -> CirculantGrid:
    """Product of a partial-circulant-block B by a circulant-block A.

    Block (i, j) of the product has generator sum_l B[i][l] A[l][j] in the
    circulant ring, so the result is a grid of B's row count by construction.
    """
    if len(B.gens[0]) != len(A.gens):
        raise ValueError("dimension mismatch")
    ctx = B.ctx
    cols = list(zip(*A.gens))
    gens = [
        [functools.reduce(_poly_add, (cyc_mul(ctx, b, a) for b, a in zip(brow, col)))
         for col in cols]
        for brow in B.gens
    ]
    return CirculantGrid(ctx, gens, B.k)


def _ring_det(ctx, gens, n1, n2):
    """Determinant of an n1 x n1 matrix over GF(2^m)[z]/(z^n2 - 1).

    Leibniz expansion; signs vanish in characteristic 2.  Fine for the
    small n1 this artifact uses.
    """
    det = [0] * n2
    for perm in itertools.permutations(range(n1)):
        term = None
        for i in range(n1):
            term = gens[i][perm[i]] if term is None else cyc_mul(ctx, term, gens[i][perm[i]])
        det = _poly_add(det, term)
    return det


def circulant_block_invert(A: CirculantGrid) -> CirculantGrid:
    """Inverse of a circulant-block matrix: adjugate over the determinant."""
    det_inv = A.det_inverse()
    if det_inv is None:
        raise SingularMatrixError("circulant-block matrix is singular")
    ctx = A.ctx
    gens = A.gens
    n1 = len(gens)
    n2 = len(det_inv)
    if n1 == 1:
        return CirculantGrid(ctx, [[det_inv]], n2)
    grid = []
    for i in range(n1):
        row = []
        for j in range(n1):
            minor = [
                [gens[r][c] for c in range(n1) if c != i]
                for r in range(n1)
                if r != j
            ]
            row.append(cyc_mul(ctx, det_inv, _ring_det(ctx, minor, n1 - 1, n2)))
        grid.append(row)
    return CirculantGrid(ctx, grid, n2)
