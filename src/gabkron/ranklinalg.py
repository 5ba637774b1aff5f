"""Vectors and matrices over GF(2^m), plus their GF(2) substructure.

Entries are raw ints (see gf2m); containers carry one shared FieldCtx and
are treated as immutable after construction, so values can move freely
between threads.  A matrix keeps its packed rows once built (packed_rows);
they are assigned whole, so a concurrent reader sees all of them or builds
them again.

Heavy operations (products, elimination) run on rows packed into single
big ints, one slot of 2 * ceil(m / 8) bytes per entry: multiplying a whole
row by a scalar is then a handful of shift/xor operations on one integer,
carry-less products never spill between slots, and a row squares in place
with one byte spread (_Packed.sqr).  The packed form is internal; the
public API speaks lists of ints.  Packing merges neighbouring slots
pairwise, level by level, and unpacking splits halves the same way, so
each level shifts the whole row once: O(L log L) slot moves for L slots,
where one shift of the growing row per slot takes O(L^2).

Every product of a packed row by a scalar is taken from the row's window
table through _Packed, the one row-product kernel: table builds it, mul
takes one product and mul_sum the XOR of several.  The width rule lives
in _Packed.table alone: 8-bit windows for a table that serves more than
_BYTE_WINDOW_ROWS products (an elimination pivot over many rows, cyc_mul's
factor), 4-bit ones otherwise.  Sums whose tables are built as they go
(matrix products, syndromes, c·P, _cyc_sum, the Schur half-steps) go
through _Packed.sum_products, which hands the terms to mul_sum in chunks
of _SUM_CHUNK: the sum is shifted once per window and chunk, not once per
window and term, and only one chunk's tables are held at a time.  The
window helpers live in gf2m, whose FieldCtx.mul runs them on single
elements.  Between folds a slot holds an XOR of products of two reduced
elements, so it stays below 2m bits and fold reduces it exactly; only the
slot being read is reduced, and a row is folded when it becomes a pivot.
In the forward pass the rows below the pivot are held shifted right by
one slot per finished column, so the work per update shrinks with the
remaining width.  A Toeplitz-like matrix reaches systematic form without
elimination of its rows, by generalized Schur steps on a few displacement
generators (_systematic_packed).

Circulant conventions follow the right-shift rule: the k-partial circulant
of a = (a_0, ..., a_{n-1}) has row 0 = reflect(a) = (a_0, a_{n-1}, ..., a_1)
and every row is the right cyclic shift of the one above, i.e.
M[i][j] = a[(i-j) % n].  Circulant n x n matrices multiply like polynomials
mod z^n - 1, so Cir_k(b) Cir(a) = Cir_k(b a) in that ring.  A matrix made
of such blocks, a single circulant included (a 1 x 1 grid), is held as a
CirculantGrid of block generators; products and inverses of grids run in
the ring, a vector times a grid too (CirculantGrid.left_mul_values), and
the dense matrix is built only as an oracle for the tests and the audit
(CirculantGrid.dense, with RankMatrix.identity and invert).
Ring elements live in packed rows, slot i holding the coefficient of z^i,
so ring products use the same window/fold kernel as the matrices.  The
scheme's scramblers have low binary rank by construction: P's entries lie
in a small GF(2) subspace and X repeats t1 values.  A product with such a
factor b goes through b's GF(2) decomposition b = sum_q v_q b_q, b_q
binary (_binary_parts): one XOR of rotations of the other factor per b_q,
then rank(b) products in one sum (_cyc_sum).  That one routine gives c P
on decrypt, P's determinant and adjugate (_ring_det,
CirculantGrid.adjugate), the Newton lift of cyc_inv and key generation's
products by P^-1 and X; cyc_mul, one product per entry of its first
factor, is left for two factors of full rank.  Units and inverses are
found at the odd part a of n = 2^s a, where z^n - 1 = (z^a - 1)^(2^s) in
characteristic 2: an element splits over the binary cyclotomic factors
Phi_d of z^a - 1 by XOR alone, folded onto d slots and reduced by the
binary Phi_d, and one Euclid runs per factor, at degree phi(d) instead of
n (_factor_euclids).  cyc_inv recombines the factors' inverses and lifts
the result s times by Newton's iteration.  Every reduction mod z^d - 1 is
that XOR fold of a packed row (_fold_slots): each factor's input, from
cyc_inv's argument or from the determinant whose unit test is
CirculantGrid.is_invertible, and each Newton step's a mod z^(2c) - 1.

A GF(2) matrix is a list of row bitmask ints, bit j of row i its entry
(i, j), drawn row by row with rng.bits.  field_vec_times_bits applies one
to a field vector; its rank, like every other elimination over GF(2),
comes from gf2m.BitSpan (_bit_rank).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import gf2m
from .gf2m import ContextMismatchError, FieldCtx, _bit_rank, _poly_inv, _poly_mulmod, _spread


class SingularMatrixError(ValueError):
    """Matrix not invertible; carries the rank reached by elimination."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class StructureError(ValueError):
    """Input violates a required circulant / block structure."""


# ---------------------------------------------------------------------------
# packed-row kernel


# Terms per mul_sum call in _Packed.sum_products: the window tables of
# one chunk are all that is held at once (CHANGES.md has the measurements
# at 8 and 16).
_SUM_CHUNK = 8


class _Packed:
    """Row-packing helper for a fixed context and slot count, and the
    one kernel of row products: every product of a packed row by a scalar
    is taken from the row's window table (table, mul, mul_sum)."""

    # A table that serves more products than this gets 8-bit windows: it
    # costs 4-7 products to build and makes each product 1.5-2x faster
    # (CHANGES.md has the measurements).
    _BYTE_WINDOW_ROWS = 8

    # the carry-less product of a scalar by the row whose table is given,
    # and the XOR of such products; mul_sum steps in 4-bit windows, so the
    # tables it reuses are built at table's default width
    mul = staticmethod(gf2m._window_mul)
    mul_sum = staticmethod(gf2m._window_mul_sum)

    def __init__(self, ctx: FieldCtx, nslots: int):
        self.ctx = ctx
        self.L = nslots
        # twice an element's bytes: a product of two reduced elements fits,
        # and so does a square spread byte by byte (sqr)
        self.S = 16 * ctx._nbytes
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

    def table(self, p, uses=1):
        """The window table of row p for uses products by mul; the width
        rule lives here alone."""
        return gf2m._window_table(p, 8 if uses > self._BYTE_WINDOW_ROWS else 4)

    def scal(self, p, lam):
        """Slot-wise carry-less product of a reduced row by a scalar."""
        if lam == 0 or p == 0:
            return 0
        if lam == 1:
            return p
        return self.mul(self.table(p), lam)

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

    def sqr(self, p):
        """Every slot of a row of reduced slots squared, reduced.

        A reduced slot's upper half is zero, so the lower halves, cut out
        by one strided slice per byte, are the elements' bytes end to end;
        their spread (gf2m._spread) fills the slots again, and one fold
        reduces them.
        """
        nb = self.ctx._nbytes
        raw = p.to_bytes(-(-p.bit_length() // self.S) * 2 * nb, "little")
        low = bytearray(len(raw) // 2)
        for b in range(nb):
            low[b::nb] = raw[b :: 2 * nb]
        return self.fold(int.from_bytes(_spread(low), "little"))

    def sum_products(self, pairs):
        """XOR of the slot-wise products lam * p over (lam, p) pairs of a
        scalar and a reduced row, unfolded.

        The terms go to mul_sum _SUM_CHUNK at a time, with the window
        tables of their rows, so the sum is shifted once per window and
        chunk, not once per window and term as in separate scal.
        """
        acc = 0
        tabs, lams = [], []
        for lam, p in pairs:
            if lam == 0 or p == 0:
                continue
            if lam == 1:
                acc ^= p
                continue
            tabs.append(self.table(p))
            lams.append(lam)
            if len(tabs) == _SUM_CHUNK:
                acc ^= self.mul_sum(tabs, lams)
                tabs, lams = [], []
        return acc ^ self.mul_sum(tabs, lams)

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


@functools.cache
def _packed(ctx: FieldCtx, nslots: int) -> _Packed:
    """The packer of nslots slots, one per equal context and slot count."""
    return _Packed(ctx, nslots)


def _echelon_packed(ctx, rows, ncols):
    """In-place row echelon form with unit pivots; returns pivot cols.

    On return every row is reduced and in full layout, and rows past the
    last pivot are 0.  While column col is eliminated, the rows not yet
    chosen as pivots are held shifted right by col slots, because their
    finished slots are 0 mod the field polynomial, and their slots stay
    unreduced below 2m bits until they become pivots (module docstring).
    _rref_packed runs this first, so the two always agree on the pivots.
    """
    pk = _packed(ctx, ncols)
    S, smask, mul = pk.S, pk.slot_mask, pk.mul
    reduce = ctx.reduce
    nrows = len(rows)
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
        lead = prow & smask
        if lead != 1:
            prow = pk.fold(pk.scal(prow, ctx.inv(lead)))
        rows[r] = prow << (col * S)
        # the pivot slot itself is not multiplied: it would only cancel the
        # slot that the shift drops
        tab = pk.table(prow >> S, nrows - r - 1)
        for i in range(r + 1, nrows):
            row = rows[i]
            f = reduce(row & smask)
            row >>= S
            rows[i] = row ^ mul(tab, f) if f else row
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
    S, smask, mul = pk.S, pk.slot_mask, pk.mul
    reduce = ctx.reduce
    pivots = _echelon_packed(ctx, rows, ncols)
    for r in range(len(pivots) - 1, 0, -1):
        sh = pivots[r] * S
        prow = rows[r] = pk.fold(rows[r])
        # the table holds the part of the row past its pivot, from its
        # lowest set bit on; the target's pivot slot is cleared instead
        rest = prow >> (sh + S)
        low = (rest & -rest).bit_length() - 1 if rest else 0
        tab = pk.table(rest >> low, r)
        keep = ~(smask << sh)
        up = sh + S + low
        for i in range(r):
            row = rows[i]
            f = reduce(row >> sh & smask)
            if f:
                rows[i] = (row & keep) ^ (mul(tab, f) << up)
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
    tabs = [pk.table(b & keep) for b in bcols]
    prev = 0
    for r in range(k):
        f = [g >> r * S & smask for g in gcols]
        prev = pk.fold(prev << S & keep ^ pk.mul_sum(tabs, f))
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
            d = fold(d ^ pk.mul_sum(tabs, f_row))
        if d:
            slot = ((d & -d).bit_length() - 1) // S
            piv = d >> slot * S & smask
            u = fold(pk.scal(d, ctx.inv(piv)))
            slots.append(slot)
            basis.append(u)
            tabs.append(pk.table(u))
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
    tab = pk.table(xcols[0], len(top) - 1 - top.count(0))
    pairs = []
    for j in range(1, len(xcols)):
        if top[j]:
            c = ctx.mul(top[j], ip)
            xcols[j] = pk.fold(xcols[j] ^ pk.mul(tab, c))
            pairs.append((c, ycols[j]))
    return pk.sum_products(pairs)


def _substitute(pk, acc, cols, pinvs=None, up=False):
    """The unknowns of a triangular system with packed right-hand sides.

    Slot r of the packed accumulator acc holds the right-hand side of row
    r, unreduced, and cols[r] is the packed column of unknown r in the rows
    solved after it: those below r for a lower triangular system, those
    above it when up.  Unknown r is slot r reduced, times
    the pivot inverse pinvs[r] (unit pivots without pinvs), and subtracts
    its column with one scal; an empty column is skipped.  Returns the
    unknowns in slot order.
    """
    reduce, mul = pk.ctx.reduce, pk.ctx.mul
    S, smask = pk.S, pk.slot_mask
    x = [0] * len(cols)
    for r in reversed(range(len(cols))) if up else range(len(cols)):
        v = reduce(acc >> (r * S) & smask)
        if pinvs is not None:
            v = mul(v, pinvs[r])
        x[r] = v
        if v and cols[r]:
            acc ^= pk.scal(cols[r], v)
    return x


# ---------------------------------------------------------------------------
# GF(2) matrices


def field_vec_times_bits(vals, rows, ncols):
    """Row vector over GF(2^m) times a GF(2) matrix of ncols columns held
    as row bitmasks, bit j of rows[i] its entry (i, j): entrywise XOR."""
    if len(vals) != len(rows):
        raise ValueError("dimension mismatch")
    out = [0] * ncols
    for v, row in zip(vals, rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] ^= v
            row ^= low
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

    def submatrix(self, i0, j0, r, c) -> "RankMatrix":
        return RankMatrix(self.ctx, [row[j0 : j0 + c] for row in self.rows[i0 : i0 + r]])

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
        """The dense inverse, which no program path takes; a referee for
        the tests.  perfbench/tracer.py wraps it by name."""
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
    """Cyclic convolution: generator of Cir(a) · Cir(b), for two factors
    of full binary rank; a factor of low rank goes through _cyc_sum."""
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    pk = _packed(ctx, n)
    # a carry-less product fills under 2m bits of a slot, so the rotation
    # moves whole products: a_r (b rotated by r) = (a_r b) rotated by r
    tab = pk.table(pk.pack(b), n)
    acc = 0
    for r, v in enumerate(a):
        acc ^= pk.rotate(pk.mul(tab, v), r, n)
    return pk.unpack(pk.fold(acc))


def _cyc_sum(pk, pairs):
    """sum of a b over (a, parts) pairs in GF(2^m)[z]/(z^n - 1), n = pk.L,
    unfolded: a is a packed row of reduced slots and parts the GF(2)
    decomposition of b (_binary_parts).

    b = sum_q v_q b_q with each b_q binary, so a b = sum_q v_q x_q, x_q the
    XOR of a rotated right by each d in the support of b_q: rank(b)
    products instead of n, summed by sum_products.  A rotation is a shift
    of a's packed row doubled end to end.
    """
    n, S = pk.L, pk.S
    width = n * S
    keep = (1 << width) - 1

    def terms():
        for a, parts in pairs:
            if not a:
                continue
            aa = a | a << width
            for v, supp in parts:
                x = 0
                for d in supp:
                    x ^= aa >> ((n - d) * S)
                yield v, x & keep

    return pk.sum_products(terms())


def _fold_slots(S, p, d):
    """The packed row p modulo z^d - 1: slot i XORed onto slot i mod d."""
    width = d * S
    keep = (1 << width) - 1
    r = 0
    while p:
        r ^= p & keep
        p >>= width
    return r


def _binary_rem(pk, p, poly):
    """The packed row p of reduced slots modulo the binary polynomial poly,
    held as an int (bit i the coefficient of z^i): each leading slot c is
    cleared by XORing c times poly's lower bits, one slot per bit, which a
    plain int product places because c fits in a slot."""
    S = pk.S
    deg = poly.bit_length() - 1
    low = pk.pack([poly >> i & 1 for i in range(deg)])
    top = (p.bit_length() - 1) // S
    while top >= deg:
        c = p >> (top * S)
        p ^= c << (top * S) ^ c * low << ((top - deg) * S)
        top = (p.bit_length() - 1) // S
    return p


def _binary_divmod(num, den):
    """(q, r) with num = q den + r and deg r < deg den, for binary
    polynomials held as ints."""
    q = 0
    while num.bit_length() >= den.bit_length():
        sh = num.bit_length() - den.bit_length()
        q |= 1 << sh
        num ^= den << sh
    return q, num


@functools.cache
def _cyclotomic(a):
    """((d, Phi_d, e_d) for each d | a), a odd, as binary polynomials held
    as ints.  Phi_d is z^d - 1 over the Phi of its proper divisors; the
    Phi_d are pairwise coprime and z^a - 1 is their product (Lidl &
    Niederreiter, Finite Fields, 2.4).  e_d is the idempotent of the
    Chinese remainder theorem: 1 mod Phi_d and 0 mod the others, as
    M (M^-1 mod Phi_d) mod z^a - 1 for M = (z^a - 1) / Phi_d, the inverse
    taken of M mod Phi_d by the binary Euclid of the field (gf2m._poly_inv)."""
    phis = {}
    for d in range(1, a + 1):
        if a % d == 0:
            q = 1 | 1 << d
            for c, phi in phis.items():
                if d % c == 0:
                    q = _binary_divmod(q, phi)[0]
            phis[d] = q
    za = 1 | 1 << a
    out = []
    for d, phi in phis.items():
        M = _binary_divmod(za, phi)[0]
        out.append((d, phi, _poly_mulmod(M, _poly_inv(_binary_divmod(M, phi)[1], phi), za, a)))
    return tuple(out)


def _cyc_euclid(ctx, modulus, a, bezout):
    """Euclid on a binary modulus and a over packed rows, slot i the
    coefficient of z^i.

    modulus is an int of degree n, bit i its coefficient of z^i, and a is a
    packed row of reduced slots of degree < n.  Each division step clears
    the leading slot of r0 with one scal of r1.  Returns (pk, r, s): r is
    the constant gcd when a is a unit modulo modulus and 0 otherwise.  With
    bezout set, the same steps run on s, so that r = s a mod modulus and
    deg s < n; without it, s is 0.
    """
    n = modulus.bit_length() - 1
    pk = _packed(ctx, n + 1)
    S = pk.S
    # invariant: r_i = s_i a mod modulus; r0 = modulus and r1 = a to start
    r0, r1 = pk.pack([modulus >> i & 1 for i in range(n + 1)]), a
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


def _odd_part(n):
    return n // (n & -n)


def _factor_euclids(ctx, p, a, bezout):
    """For the packed row p modulo z^n - 1, a the odd part of n:
    (_cyc_euclid's result, e_d) for p mod Phi_d against Phi_d, for each
    d | a (_cyclotomic), up to the first factor of which p is not a unit.
    p mod Phi_d is p folded onto d slots (_fold_slots, p mod z^d - 1 as d
    divides n) and reduced by the binary Phi_d, with XORs alone; the
    Euclid then runs at degree phi(d), not n."""
    pk = _packed(ctx, a)
    for d, phi, e in _cyclotomic(a):
        res = _cyc_euclid(ctx, phi, _binary_rem(pk, _fold_slots(pk.S, p, d), phi), bezout)
        yield res, e
        if not res[1]:
            return


def cyc_inv(ctx, a):
    """Inverse of a in GF(2^m)[z]/(z^n - 1), or None if a is not a unit.

    With n = 2^s c and c odd, z^n - 1 = (z^c - 1)^(2^s) in characteristic
    2, so a is a unit exactly when b = a mod z^c - 1 is one.  Its inverse
    modulo z^c - 1 is sum_d x_d e_d over d | c, x_d the inverse of b modulo
    Phi_d (_factor_euclids); e_d is binary, so each term is an XOR of
    shifts of x_d.  Each doubling of c lifts the inverse x: x b = 1 mod
    z^c - 1 gives (b x^2) b = (x b)^2 = 1 mod z^(2c) - 1, for
    b = a mod z^(2c) - 1, a's packed row folded onto 2c slots by
    _fold_slots (Newton's iteration x (2 - b x) with 2 = 0; von
    zur Gathen & Gerhard, Modern Computer Algebra, ch. 9).  x^2 holds x_i^2
    (_Packed.sqr) at slot 2i, and the product takes b through its GF(2)
    decomposition (_cyc_sum): rank(b) products, a handful for the
    determinants of the scheme's low-rank scramblers.
    """
    n = len(a)
    c = _odd_part(n)
    pk = _packed(ctx, n)
    S = pk.S
    pa = pk.pack(a)
    acc = 0
    for (pk, r, s), e in _factor_euclids(ctx, pa, c, True):
        if not r:
            return None  # a shares a factor with z^n - 1
        x = pk.fold(pk.scal(s, ctx.inv(r)))
        for j in range(e.bit_length()):
            if e >> j & 1:
                acc ^= x << (j * S)
    pk = _packed(ctx, c)
    x = _fold_slots(S, acc, c)
    while c < n:
        squares = pk.unpack(pk.sqr(x))
        c *= 2
        pk = _packed(ctx, c)
        x2 = pk.pack([v for sq in squares for v in (sq, 0)])
        b = pk.unpack(_fold_slots(S, pa, c))
        x = pk.fold(_cyc_sum(pk, [(x2, _binary_parts(b))]))
    return pk.unpack(x)


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
    A grid keeps, once built, its packed rows (packed_rows), the GF(2)
    decomposition of each generator (parts) and, when square and
    invertible, the inverse of its ring determinant (det_inverse).  Raises
    ValueError unless every generator entry is an element of ctx.
    """

    ctx: FieldCtx
    gens: list  # gens[i][j]: list of n ints
    k: int
    _prows: tuple = field(default=None, init=False, repr=False, compare=False)
    _parts: list = field(default=None, init=False, repr=False, compare=False)
    _det_inv: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a negative entry would never finish a window product, and one of
        # degree >= m would spill into the next slot
        for grow in self.gens:
            for a in grow:
                for v in a:
                    self.ctx.check(v)

    def parts(self):
        """_binary_parts of each generator, built on first use and kept."""
        if self._parts is None:
            self._parts = [[_binary_parts(b) for b in grow] for grow in self.gens]
        return self._parts

    def left_mul_values(self, vals):
        """vals (length rows of blocks times k) times the grid, as a list.

        Row 0 of Cir(b) is reflect(b), so c Cir_k(b), c padded to n, is
        c reflect(b) in the ring, which is reflect(reflect(c) b): reflect
        is the ring automorphism z -> z^-1.  Block column j is thus the
        reflection of sum_i reflect(c_i) b_ij, one _cyc_sum on the kept
        decomposition of the generators: rank(b) products instead of k.
        """
        n = len(self.gens[0][0])
        k = self.k
        pk = _packed(self.ctx, n)
        pad = [0] * (n - k)
        rcs = [pk.pack(reflect(vals[i * k : (i + 1) * k] + pad)) for i in range(len(self.gens))]
        out = []
        for col in zip(*self.parts()):
            out += reflect(pk.unpack(pk.fold(_cyc_sum(pk, zip(rcs, col)))))
        return out

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
        pk = _packed(self.ctx, len(self.gens[0][0]))
        packed = [[pk.pack(b) for b in grow] for grow in self.gens]
        parts = self.parts() if len(self.gens) > 1 else None  # 1 x 1: unread
        return pk.unpack(_ring_det(pk, packed, parts))

    def is_invertible(self) -> bool:
        """True iff a square grid is invertible: gcd(det, z^n - 1) = 1.

        z^n - 1 has the irreducible factors of z^a - 1, a the odd part of
        n, so det (_det, on the kept decompositions of the generators) is
        a unit exactly when it is one modulo every binary cyclotomic
        factor Phi_d of z^a - 1, det folded onto d slots (_fold_slots) and
        reduced: one Euclid of degree phi(d) per factor, without its
        Bezout row (_factor_euclids).  At a = 1 that is det(1) != 0.
        """
        det = self._det()
        return all(res[1] for res, _ in _factor_euclids(
            self.ctx, _packed(self.ctx, len(det)).pack(det), _odd_part(len(det)), False))

    def det_inverse(self):
        """Inverse of the ring determinant of a square grid, kept once
        found, or None when the grid is singular."""
        if self._det_inv is None:
            self._det_inv = cyc_inv(self.ctx, self._det())
        return self._det_inv

    def adjugate(self):
        """adj of a square grid over the ring, entry (i, j) the minor
        without block row j and block column i (signs vanish in
        characteristic 2), as (packed row, _binary_parts) pairs, so that
        products take it through its decomposition.  The 1 x 1 minors of a
        2 x 2 grid are its generators, with their kept decompositions."""
        n1 = len(self.gens)
        pk = _packed(self.ctx, len(self.gens[0][0]))
        if n1 == 1:
            return [[(1, [(1, [0])])]]
        packed = [[pk.pack(b) for b in grow] for grow in self.gens]
        parts = self.parts()
        adj = []
        for i in range(n1):
            row = []
            for j in range(n1):
                rows = [r for r in range(n1) if r != j]
                cols = [c for c in range(n1) if c != i]
                minor = _ring_det(pk, [[packed[r][c] for c in cols] for r in rows],
                                  [[parts[r][c] for c in cols] for r in rows])
                row.append((minor, parts[rows[0]][cols[0]] if n1 == 2
                            else _binary_parts(pk.unpack(minor))))
            adj.append(row)
        return adj

    def dense(self) -> RankMatrix:
        """The expanded matrix, M[i][j] = a[(i - j) % n] in each block; an
        oracle for tests and the audit, built without packed_rows, which
        the tests check against it."""
        n = len(self.gens[0][0])
        return RankMatrix(self.ctx, [[a[(i - j) % n] for a in grow for j in range(n)]
                                     for grow in self.gens for i in range(self.k)])


def _ring_det(pk, gens, parts):
    """Determinant of a square matrix over GF(2^m)[z]/(z^n - 1), n = pk.L,
    packed and reduced; gens[i][j] is entry (i, j) as a packed row of
    reduced slots and parts[i][j] its _binary_parts.

    Leibniz expansion; signs vanish in characteristic 2.  A term multiplies
    its later factors in through their decompositions (_cyc_sum), and the
    last factors of all terms go through one sum.  Fine for the small n1
    this artifact uses.
    """
    n1 = len(gens)
    if n1 == 1:
        return gens[0][0]
    last = []
    for perm in itertools.permutations(range(n1)):
        term = gens[0][perm[0]]
        for i in range(1, n1 - 1):
            term = pk.fold(_cyc_sum(pk, [(term, parts[i][perm[i]])]))
        last.append((term, parts[-1][perm[-1]]))
    return pk.fold(_cyc_sum(pk, last))


def circulant_block_invert(A: CirculantGrid) -> CirculantGrid:
    """Inverse of a circulant-block matrix: adjugate over the determinant,
    d^-1 times each minor through the minor's decomposition."""
    det_inv = A.det_inverse()
    if det_inv is None:
        raise SingularMatrixError("circulant-block matrix is singular")
    n2 = len(det_inv)
    pk = _packed(A.ctx, n2)
    d = pk.pack(det_inv)
    return CirculantGrid(
        A.ctx, [[pk.unpack(pk.fold(_cyc_sum(pk, [(d, parts)]))) for _, parts in row]
                for row in A.adjugate()], n2)
