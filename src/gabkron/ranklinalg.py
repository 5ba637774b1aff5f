"""Vectors and matrices over GF(2^m), plus their GF(2) substructure.

Entries are raw ints (see gf2m); containers carry one shared FieldCtx and
are treated as immutable after construction, so values can move freely
between threads.

Heavy operations (products, elimination) run on rows packed into single
big ints, one 2m-bit slot per entry: multiplying a whole row by a scalar
is then a handful of shift/xor operations on one integer, and carry-less
products never spill between slots.  The packed form is internal; the
public API speaks lists of ints.

Circulant conventions follow the right-shift rule: the k-partial circulant
of a = (a_0, ..., a_{n-1}) has row 0 = (a_0, a_{n-1}, ..., a_1) and every
row is the right cyclic shift of the one above, i.e. M[i][j] = a[(i-j) % n].
Circulant n x n matrices multiply like polynomials mod z^n - 1, which is
what the closure and inversion routines exploit.
"""

from __future__ import annotations

import itertools

from .gf2m import ContextMismatchError, FieldCtx, FieldElement, _bit_rank


class SingularMatrixError(ValueError):
    """Matrix not invertible; carries the rank reached by elimination."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class StructureError(ValueError):
    """Input violates a required circulant / block structure."""


def _value(ctx, x):
    if isinstance(x, FieldElement):
        if x.ctx != ctx:
            raise ContextMismatchError("element bound to a different field")
        return x.value
    return ctx.check(x)


# ---------------------------------------------------------------------------
# packed-row kernel


class _Packed:
    """Row-packing helper for a fixed context and slot count."""

    def __init__(self, ctx: FieldCtx, nslots: int):
        self.ctx = ctx
        self.L = nslots
        self.S = 2 * ctx.m
        self.elem_mask = ctx.mask
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
        t2 = p << 1
        t4 = p << 2
        t8 = p << 3
        tab = [0, p, t2, t2 ^ p, t4, t4 ^ p, t4 ^ t2, t4 ^ t2 ^ p]
        tab += [x ^ t8 for x in tab]
        r = 0
        sh = 0
        while lam:
            w = lam & 15
            if w:
                r ^= tab[w] << sh
            sh += 4
            lam >>= 4
        return r

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


def _echelon_packed(ctx, rows, ncols):
    """In-place row echelon form with unit pivots; returns pivot cols.

    _rref_packed runs this first, so the two always agree on the pivots.
    """
    pk = _packed(ctx, ncols)
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if pk.entry(rows[i], col):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = pk.entry(rows[r], col)
        if pv != 1:
            rows[r] = pk.fold(pk.scal(rows[r], ctx.inv(pv)))
        prow = rows[r]
        for i in range(r + 1, nrows):
            f = pk.entry(rows[i], col)
            if f:
                rows[i] = pk.fold(rows[i] ^ pk.scal(prow, f))
        pivots.append(col)
        r += 1
    return pivots


def _rref_packed(ctx, rows, ncols):
    """In-place reduced row echelon form on packed rows; returns pivot cols."""
    pk = _packed(ctx, ncols)
    pivots = _echelon_packed(ctx, rows, ncols)
    for r in range(len(pivots) - 1, 0, -1):
        col = pivots[r]
        prow = rows[r]
        for i in range(r):
            f = pk.entry(rows[i], col)
            if f:
                rows[i] = pk.fold(rows[i] ^ pk.scal(prow, f))
    return pivots


def _solve_packed(ctx, rows, ncols):
    """Solve packed augmented rows whose last column is the right-hand side.

    Echelon form, then back-substitution for the last column only.  Returns
    the pivots and the ncols - 1 unknowns with free variables zero, or None
    for the unknowns when the last column is a pivot (no solution).
    """
    pk = _packed(ctx, ncols)
    pivots = _echelon_packed(ctx, rows, ncols)
    rhs = ncols - 1
    if pivots and pivots[-1] == rhs:
        return pivots, None
    mul = ctx.mul
    x = [0] * rhs
    for r in range(len(pivots) - 1, -1, -1):
        vals = pk.unpack(rows[r])
        acc = vals[rhs]
        for c in pivots[r + 1 :]:
            if x[c] and vals[c]:
                acc ^= mul(vals[c], x[c])
        x[pivots[r]] = acc
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
    def identity(cls, n):
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def random(cls, nrows, ncols, rng):
        return cls(nrows, ncols, [rng.bits(ncols) for _ in range(nrows)])

    @classmethod
    def from_entries(cls, grid):
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        rows = []
        for row in grid:
            v = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                v |= e << j
            rows.append(v)
        return cls(nrows, ncols, rows)

    def entry(self, i, j):
        return self.rows[i] >> j & 1

    def column(self, j):
        v = 0
        for i, r in enumerate(self.rows):
            v |= (r >> j & 1) << i
        return v

    def transpose(self):
        return BitMatrix(self.ncols, self.nrows, [self.column(j) for j in range(self.ncols)])

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
        aug = [(self.rows[i]) | (1 << (n + i)) for i in range(n)]
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, n) if aug[i] >> col & 1), None)
            if piv is None:
                raise SingularMatrixError("bit matrix is singular", rank=r)
            aug[r], aug[piv] = aug[piv], aug[r]
            for i in range(n):
                if i != r and aug[i] >> col & 1:
                    aug[i] ^= aug[r]
            r += 1
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


def bit_kernel(mat: BitMatrix):
    """Basis of the right kernel of a GF(2) matrix, as column bitmasks."""
    n = mat.ncols
    rows = list(mat.rows)
    r = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i] >> col & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
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
    w = len(rhs_cols)
    rows = []
    for i in range(mat.nrows):
        ext = mat.rows[i]
        for t, b in enumerate(rhs_cols):
            ext |= (b >> i & 1) << (n + t)
        rows.append(ext)
    r = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i] >> col & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    sols = []
    for t in range(w):
        # inconsistent iff some zero-lhs row has this rhs bit set
        bad = any(rows[i] & ((1 << n) - 1) == 0 and rows[i] >> (n + t) & 1 for i in range(r, len(rows)))
        if bad:
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
        self.values = [_value(ctx, v) for v in values]

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, [0] * n)

    @classmethod
    def random(cls, ctx, n, rng):
        return cls(ctx, [rng.element(ctx.m) for _ in range(n)])

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

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

    def scalar_mul(self, lam) -> "RankVector":
        lam = _value(self.ctx, lam)
        mul = self.ctx.mul
        return RankVector(self.ctx, [mul(lam, v) for v in self.values])

    def frobenius(self, i: int) -> "RankVector":
        f = self.ctx.frobenius
        return RankVector(self.ctx, [f(v, i) for v in self.values])

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

    def mul_matrix(self, M: "RankMatrix") -> "RankVector":
        self._same_ctx(M)
        if len(self) != M.nrows:
            raise ValueError("dimension mismatch")
        return RankVector(self.ctx, M.left_mul_values(self.values))

    def to_bytes(self) -> bytes:
        out = [len(self.values).to_bytes(4, "big")]
        out += [self.ctx.to_bytes(v) for v in self.values]
        return b"".join(out)

    @classmethod
    def from_bytes(cls, ctx, data: bytes) -> "RankVector":
        if len(data) < 4:
            raise ValueError("truncated vector")
        n = int.from_bytes(data[:4], "big")
        nb = ctx.nbytes
        if len(data) != 4 + n * nb:
            raise ValueError("vector byte length mismatch")
        vals = [ctx.from_bytes(data[4 + i * nb : 4 + (i + 1) * nb]) for i in range(n)]
        return cls(ctx, vals)


class RankMatrix:
    """Rectangular matrix over GF(2^m)."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: FieldCtx, rows):
        self.ctx = ctx
        self.rows = [[_value(ctx, v) for v in row] for row in rows]
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
    def random_full_rank(cls, ctx, r, c, rng, tries=256):
        for _ in range(tries):
            M = cls.random(ctx, r, c, rng)
            if M.rank() == min(r, c):
                return M
        raise RuntimeError("failed to sample a full-rank matrix")

    @classmethod
    def diagonal(cls, ctx, diag):
        n = len(diag)
        M = cls.zero(ctx, n, n)
        for i, v in enumerate(diag):
            M.rows[i][i] = _value(ctx, v)
        return M

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

    def entry(self, i, j):
        return self.rows[i][j]

    def row(self, i) -> RankVector:
        return RankVector(self.ctx, self.rows[i])

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
        lam = _value(self.ctx, lam)
        mul = self.ctx.mul
        return RankMatrix(self.ctx, [[mul(lam, v) for v in row] for row in self.rows])

    def transpose(self) -> "RankMatrix":
        return RankMatrix(self.ctx, [list(col) for col in zip(*self.rows)] if self.rows else [])

    def submatrix(self, i0, j0, r, c) -> "RankMatrix":
        return RankMatrix(self.ctx, [row[j0 : j0 + c] for row in self.rows[i0 : i0 + r]])

    def take_columns(self, cols) -> "RankMatrix":
        return RankMatrix(self.ctx, [[row[j] for j in cols] for row in self.rows])

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

    def solve_left(self, target):
        """Any x with x · self = target, or None if no solution exists."""
        vals = target.values if isinstance(target, RankVector) else list(target)
        if len(vals) != self.ncols:
            raise ValueError("dimension mismatch")
        # transpose the system: self^T · x^T = target^T
        n = self.nrows
        pk = _packed(self.ctx, n + 1)
        rows = []
        for j in range(self.ncols):
            rows.append(pk.pack([self.rows[i][j] for i in range(n)] + [vals[j]]))
        pivots = _rref_packed(self.ctx, rows, n + 1)
        if pivots and pivots[-1] == n:
            return None
        x = [0] * n
        for ri, col in enumerate(pivots):
            x[col] = pk.entry(rows[ri], n)
        return x

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [self.nrows.to_bytes(4, "big"), self.ncols.to_bytes(4, "big")]
        to_b = self.ctx.to_bytes
        for row in self.rows:
            out.extend(to_b(v) for v in row)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, ctx, data: bytes) -> "RankMatrix":
        if len(data) < 8:
            raise ValueError("truncated matrix")
        r = int.from_bytes(data[:4], "big")
        c = int.from_bytes(data[4:8], "big")
        nb = ctx.nbytes
        if len(data) != 8 + r * c * nb:
            raise ValueError("matrix byte length mismatch")
        vals = [
            ctx.from_bytes(data[8 + i * nb : 8 + (i + 1) * nb]) for i in range(r * c)
        ]
        return cls(ctx, [vals[i * c : (i + 1) * c] for i in range(r)])


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


def circulant_generator(M: RankMatrix) -> RankVector:
    """Recover a with M = Cir_k(a) from the first row; checks the structure."""
    if not is_partial_circulant(M):
        raise StructureError("matrix is not partial circulant")
    n = M.ncols
    first = M.rows[0]
    return RankVector(M.ctx, [first[(n - r) % n] for r in range(n)])


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


def _poly_deg(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_divmod(ctx, a, b):
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ctx.inv(b[db])
    rem = list(a)
    quot = [0] * max(len(a) - db, 1)
    for i in range(_poly_deg(rem), db - 1, -1):
        if rem[i]:
            f = ctx.mul(rem[i], inv_lead)
            quot[i - db] = f
            for j in range(db + 1):
                if b[j]:
                    rem[i - db + j] ^= ctx.mul(f, b[j])
    return quot, rem[:db] if db > 0 else [0]


def _poly_mul(ctx, a, b):
    da, db = _poly_deg(a), _poly_deg(b)
    if da < 0 or db < 0:
        return [0]
    out = [0] * (da + db + 1)
    for i in range(da + 1):
        if a[i]:
            for j in range(db + 1):
                if b[j]:
                    out[i + j] ^= ctx.mul(a[i], b[j])
    return out


def cyc_inv(ctx, a):
    """Inverse of a in GF(2^m)[z]/(z^n - 1), or None if a is not a unit."""
    n = len(a)
    modp = [0] * (n + 1)
    modp[0] = 1
    modp[n] = 1
    # extended Euclid: r0 = modulus, r1 = a
    r0, r1 = modp, list(a)
    s0, s1 = [0], [1]
    while _poly_deg(r1) > 0:
        q, rem = _poly_divmod(ctx, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_add(s0, _poly_mul(ctx, q, s1))
    if _poly_deg(r1) < 0:
        return None  # gcd has positive degree: a shares a factor with z^n - 1
    c = ctx.inv(r1[0])
    inv = [ctx.mul(c, v) for v in s1]
    _, inv = _poly_divmod(ctx, inv, modp) if _poly_deg(inv) >= n else (None, inv)
    inv = list(inv) + [0] * (n - len(inv))
    return inv[:n]


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] ^= v
    return out


def circulant_inverse(M: RankMatrix) -> RankMatrix:
    """Inverse of a circulant matrix, computed and returned in circulant form."""
    gen = circulant_generator(M)
    inv = cyc_inv(M.ctx, gen.values)
    if inv is None:
        raise SingularMatrixError("circulant matrix is singular")
    return circulant(RankVector(M.ctx, inv))


def circulant_mul_closure(P: RankMatrix, Q: RankMatrix) -> RankMatrix:
    """Product of a k-partial circulant by a circulant; stays k-partial circulant."""
    if not is_partial_circulant(P):
        raise StructureError("left factor is not partial circulant")
    if not is_circulant(Q):
        raise StructureError("right factor is not circulant")
    if P.ncols != Q.nrows:
        raise ValueError("dimension mismatch")
    a = circulant_generator(P)
    b = circulant_generator(Q)
    c = cyc_mul(P.ctx, a.values, b.values)
    return partial_circulant(RankVector(P.ctx, c), P.nrows)


def _block_generators(M: RankMatrix, br, bc, k2, n2):
    """Generator vectors of every (k2 x n2) block of a block-structured matrix."""
    gens = []
    for i in range(br):
        row = []
        for j in range(bc):
            row.append(circulant_generator(M.submatrix(i * k2, j * n2, k2, n2)).values)
        gens.append(row)
    return gens


def circulant_block_compose(B: RankMatrix, A: RankMatrix, k1, n1, k2, n2) -> RankMatrix:
    """Product of a partial-circulant-block B by a circulant-block A.

    Runs blockwise in the circulant ring, so the result carries its
    partial-circulant-block structure by construction.
    """
    if not is_partial_circulant_block(B, k1, n1, k2, n2):
        raise StructureError("left factor is not partial-circulant-block")
    if not is_circulant_block(A, n1, n2):
        raise StructureError("right factor is not circulant-block")
    ctx = B.ctx
    bg = _block_generators(B, k1, n1, k2, n2)
    ag = _block_generators(A, n1, n1, n2, n2)
    grid = []
    for i in range(k1):
        row = []
        for j in range(n1):
            acc = [0] * n2
            for l in range(n1):
                term = cyc_mul(ctx, bg[i][l], ag[l][j])
                acc = [x ^ y for x, y in zip(acc, term)]
            row.append(partial_circulant(RankVector(ctx, acc), k2))
        grid.append(row)
    return RankMatrix.from_blocks(grid)


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


def circulant_block_invert(A: RankMatrix, n1: int, n2: int) -> RankMatrix:
    """Inverse of a circulant-block matrix, again circulant-block."""
    if not is_circulant_block(A, n1, n2):
        raise StructureError("matrix is not circulant-block")
    ctx = A.ctx
    gens = _block_generators(A, n1, n1, n2, n2)
    det = _ring_det(ctx, gens, n1, n2)
    det_inv = cyc_inv(ctx, det)
    if det_inv is None:
        raise SingularMatrixError("circulant-block matrix is singular")
    one = [0] * n2
    one[0] = 1
    grid = []
    for i in range(n1):
        row = []
        for j in range(n1):
            if n1 == 1:
                cof = one
            else:
                minor = [
                    [gens[r][c] for c in range(n1) if c != i]
                    for r in range(n1)
                    if r != j
                ]
                cof = _ring_det(ctx, minor, n1 - 1, n2)
            row.append(circulant(RankVector(ctx, cyc_mul(ctx, det_inv, cof))))
        grid.append(row)
    return RankMatrix.from_blocks(grid)
