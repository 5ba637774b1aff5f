"""Vectors and matrices over GF(2^m), plus their GF(2) substructure.

Entries are raw ints (see gf2m); containers carry one shared FieldCtx and
are treated as immutable after construction, so values can move freely
between threads.

Heavy operations (products, elimination) run on rows packed into single
big ints, one 2m-bit slot per entry: multiplying a whole row by a scalar
is then a handful of shift/xor operations on one integer, and carry-less
products never spill between slots.  The packed form is internal; the
public API speaks lists of ints.

Elimination builds the 4-bit window table of each pivot row once and
applies it to every row it updates.  Between folds a slot holds an XOR of
products of two reduced elements, so it stays below 2m bits and fold
reduces it exactly; only the slot being read is reduced, and a row is
folded when it becomes a pivot.  In the forward pass the rows below the
pivot are held shifted right by one slot per finished column, so the
work per update shrinks with the remaining width.

Circulant conventions follow the right-shift rule: the k-partial circulant
of a = (a_0, ..., a_{n-1}) has row 0 = reflect(a) = (a_0, a_{n-1}, ..., a_1)
and every row is the right cyclic shift of the one above, i.e.
M[i][j] = a[(i-j) % n].  Circulant n x n matrices multiply like polynomials
mod z^n - 1, so Cir_k(b) Cir(a) = Cir_k(b a) in that ring.  A matrix made
of such blocks, a single circulant included (a 1 x 1 grid), is held as a
CirculantGrid of block generators; products and inverses of grids run in
the ring, and the dense matrix is built only as a test oracle
(CirculantGrid.dense).  Ring elements live in packed rows, slot i holding
the coefficient of z^i, so cyc_mul and cyc_inv use the same scal/fold
kernel as the matrices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gf2m import ContextMismatchError, FieldCtx, _bit_rank


class SingularMatrixError(ValueError):
    """Matrix not invertible; carries the rank reached by elimination."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class StructureError(ValueError):
    """Input violates a required circulant / block structure."""


# ---------------------------------------------------------------------------
# packed-row kernel


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
        S = self.S
        p = 0
        for v in reversed(vals):
            p = (p << S) | v
        return p

    def unpack(self, p):
        S = self.S
        mask = self.elem_mask
        return [(p >> (i * S)) & mask for i in range(self.L)]

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

    def lincomb(self, coeffs, prows):
        """sum_i coeffs[i] * prows[i] over reduced packed rows, unpacked."""
        scal = self.scal
        acc = 0
        for v, p in zip(coeffs, prows):
            if v:
                acc ^= scal(p, v)
        return self.unpack(self.fold(acc))

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


def _window_table(p):
    """p times each of the 16 polynomials of degree < 4, for _window_mul."""
    t2 = p << 1
    t4 = p << 2
    t8 = p << 3
    tab = [0, p, t2, t2 ^ p, t4, t4 ^ p, t4 ^ t2, t4 ^ t2 ^ p]
    return tab + [x ^ t8 for x in tab]


def _window_mul(tab, lam):
    """Carry-less product of lam by the row whose _window_table is tab."""
    r = 0
    sh = 0
    while lam:
        w = lam & 15
        if w:
            r ^= tab[w] << sh
        sh += 4
        lam >>= 4
    return r


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
    S = pk.S
    smask = pk.slot_mask
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
        pv = prow & smask
        if pv != 1:
            prow = pk.fold(pk.scal(prow, ctx.inv(pv)))
        rows[r] = prow << (col * S)
        # the pivot slot itself is not multiplied: it would only cancel the
        # slot that the shift drops
        tab = _window_table(prow >> S)
        for i in range(r + 1, nrows):
            row = rows[i]
            f = reduce(row & smask)
            row >>= S
            rows[i] = row ^ _window_mul(tab, f) if f else row
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
    S = pk.S
    smask = pk.slot_mask
    entry = pk.entry
    x = [0] * rhs
    acc = pk.pack([entry(row, rhs) for row in rows[: len(pivots)]])
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        v = x[col] = ctx.reduce(acc >> (r * S) & smask)
        if v and r:
            acc ^= pk.scal(pk.pack([entry(row, col) for row in rows[:r]]), v)
    return pivots, x


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

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        out = []
        for r in self.rows:
            acc = 0
            i = 0
            v = r
            while v:
                if v & 1:
                    acc ^= other.rows[i]
                v >>= 1
                i += 1
            out.append(acc)
        return BitMatrix(self.nrows, other.ncols, out)

    def inverse(self):
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square bit matrices invert")
        n = self.nrows
        aug = [row | (1 << (n + i)) for i, row in enumerate(self.rows)]
        rank = len(_bit_gauss_jordan(aug, n))
        if rank < n:
            raise SingularMatrixError("bit matrix is singular", rank=rank)
        return BitMatrix(n, n, [row >> n for row in aug])

    def cyclic_col_shift(self):
        """Columns shifted right by one position, wrapping the last to front."""
        n = self.ncols
        out = []
        for r in self.rows:
            out.append(((r << 1) | (r >> (n - 1))) & ((1 << n) - 1))
        return BitMatrix(self.nrows, n, out)

    def __eq__(self, other):
        return (
            isinstance(other, BitMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"BitMatrix({self.nrows}x{self.ncols})"


def _bit_gauss_jordan(rows, ncols):
    """In-place reduced row echelon form over GF(2) on the low ncols bits.

    Bits above ncols ride along (an augmented right-hand side).  Returns the
    pivot columns; row r holds the pivot of column pivots[r], and the rows
    below the last pivot are zero in their low ncols bits.
    """
    r = 0
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i] >> col & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    return pivots


def bit_kernel(mat: BitMatrix):
    """Basis of the right kernel of a GF(2) matrix, as column bitmasks."""
    n = mat.ncols
    rows = list(mat.rows)
    pivots = _bit_gauss_jordan(rows, n)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = 1 << free
        for ri, col in enumerate(pivots):
            if rows[ri] >> free & 1:
                v |= 1 << col
        basis.append(v)
    return basis


def solve_gf2(mat: BitMatrix, rhs_cols):
    """Solve mat · y = b over GF(2) for each b in rhs_cols (bitmask ints).

    Returns a list of solution bitmasks, or None in each slot where the
    system is inconsistent.  Free variables are set to zero.
    """
    n = mat.ncols
    rows = []
    for i in range(mat.nrows):
        ext = mat.rows[i]
        for t, b in enumerate(rhs_cols):
            ext |= (b >> i & 1) << (n + t)
        rows.append(ext)
    pivots = _bit_gauss_jordan(rows, n)
    # rows past the last pivot have a zero left side: any rhs bit there is
    # an inconsistency
    inconsistent = 0
    for row in rows[len(pivots):]:
        inconsistent |= row >> n
    sols = []
    for t in range(len(rhs_cols)):
        if inconsistent >> t & 1:
            sols.append(None)
            continue
        y = 0
        for ri, col in enumerate(pivots):
            if rows[ri] >> (n + t) & 1:
                y |= 1 << col
        sols.append(y)
    return sols


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

    def _same_ctx(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("vectors from different field contexts")

    def add(self, other: "RankVector") -> "RankVector":
        self._same_ctx(other)
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return RankVector(self.ctx, [a ^ b for a, b in zip(self.values, other.values)])

    __add__ = add
    __sub__ = add

    def expand_over_base(self) -> BitMatrix:
        """m x n matrix over GF(2); column j holds the coefficients of entry j."""
        m = self.ctx.m
        rows = [0] * m
        for j, v in enumerate(self.values):
            i = 0
            while v:
                if v & 1:
                    rows[i] |= 1 << j
                v >>= 1
                i += 1
        return BitMatrix(m, len(self.values), rows)

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

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: FieldCtx, rows):
        self.ctx = ctx
        self.rows = [[ctx.check(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zero(cls, ctx, r, c):
        return cls(ctx, [[0] * c for _ in range(r)])

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

    def add(self, other: "RankMatrix") -> "RankMatrix":
        self._same_ctx(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return RankMatrix(
            self.ctx,
            [[a ^ b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    __add__ = add
    __sub__ = add

    def scalar_mul(self, lam) -> "RankMatrix":
        lam = self.ctx.check(lam)
        mul = self.ctx.mul
        return RankMatrix(self.ctx, [[mul(lam, v) for v in row] for row in self.rows])

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
        pk = _packed(self.ctx, self.ncols)
        return pk.lincomb(vals, map(pk.pack, self.rows))

    def packed_rows(self):
        pk = _packed(self.ctx, self.ncols)
        return pk, [pk.pack(row) for row in self.rows]

    def mul(self, other: "RankMatrix") -> "RankMatrix":
        self._same_ctx(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        pk, prows = other.packed_rows()
        return RankMatrix(self.ctx, [pk.lincomb(row, prows) for row in self.rows])

    __matmul__ = mul

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple)."""
        pk = _packed(self.ctx, self.ncols)
        rows = [pk.pack(r) for r in self.rows]
        pivots = _rref_packed(self.ctx, rows, self.ncols)
        return RankMatrix(self.ctx, [pk.unpack(r) for r in rows]), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def invert(self) -> "RankMatrix":
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
    R, pivots = G.rref()
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


def is_circulant_block(M: RankMatrix, n1: int, n2: int) -> bool:
    if M.nrows != n1 * n2 or M.ncols != n1 * n2:
        return False
    return all(
        is_circulant(M.submatrix(i * n2, j * n2, n2, n2))
        for i in range(n1)
        for j in range(n1)
    )


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
    pb = pk.pack(b)
    return pk.lincomb(a, (pk.rotate(pb, r, n) for r in range(n)))


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


@dataclass
class CirculantGrid:
    """Block matrix held by its block generators.

    Block (i, j) is Cir_k(gens[i][j]): the first k rows of the circulant of
    an n-vector, k the same for every block (k = n for circulant blocks).
    """

    ctx: FieldCtx
    gens: list  # gens[i][j]: list of n ints
    k: int

    def packed_rows(self):
        """(packer, rows) exactly as RankMatrix.packed_rows of dense()."""
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
        return _packed(self.ctx, len(grow) * n), rows

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
        det = [x ^ y for x, y in zip(det, term)]
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
