"""Gabidulin codes and their Kronecker products.

A Gabidulin code of length n <= m and dimension k is generated by the
Moore matrix of a vector g with rank weight n: row i is the coordinate-wise
2^i-power of g.  Codewords are evaluations of linearized polynomials of
q-degree < k at the coordinates of g, which gives minimum rank distance
n - k + 1 and unique decoding up to t = floor((n - k) / 2) rank errors.

Decoding works on syndromes: writing the error as e_i = sum_p E_p Y_{p,i}
with independent values E_p and GF(2) locations Y_p, the syndromes satisfy
s_j = sum_p E_p X_p^[j] with X_p = sum_i Y_{p,i} h_i.  The key equation
for a monic annihilator of q-degree t of the values has rows
(s_j, s_{j-1}^[1], ..., s_{j-t}^[t]), j >= t, each built by squaring the
previous one; the root space of the annihilator yields the E_p.  Raising
the first w syndrome equations to powers [w-1-j] gives W_p = X_p^[w-1],
and as Y is binary, W_p = sum_i Y_{p,i} h_i^[w-1] locates the error
against row w-1 of the parity-check matrix.  One packed product then
re-checks every syndrome, so a returned pair is always a valid decoding
within the radius.
"""

from __future__ import annotations

import itertools

from .gf2m import FieldCtx
from .ranklinalg import (
    BitMatrix,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    _packed,
    _solve_packed,
    bit_kernel,
    information_set,
    partial_circulant,
    solve_gf2,
)


class DecodeFailure(Exception):
    """No codeword within the decoding radius (or block decoding collapsed)."""

    def __init__(self, message, failed_blocks=None):
        super().__init__(message)
        self.failed_blocks = failed_blocks or []


class LinearizedPoly:
    """Internal q-polynomial: coeffs[i] weights the term x^(2^i)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        self.coeffs = [ctx.check(c) for c in coeffs]

    def evaluate(self, x):
        ctx = self.ctx
        acc = 0
        for c in self.coeffs:
            if c:
                acc ^= ctx.mul(c, x)
            x = ctx.sqr(x)
        return acc

    def add(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] ^= v
        return LinearizedPoly(self.ctx, out)

    def compose(self, other):
        """self(other(x)); q-degrees add under symbolic composition."""
        ctx = self.ctx
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= ctx.mul(a, ctx.frobenius(b, i))
        return LinearizedPoly(ctx, out)

    def kernel_basis(self):
        """F_2-basis of the root space {x : self(x) = 0}."""
        ctx = self.ctx
        m = ctx.m
        frob = ctx.frobenius_power_rows(len(self.coeffs) - 1)
        # column i = self(x^i): the F_2-linear action on the polynomial basis
        cols = _packed(ctx, m).lincomb(self.coeffs, frob)
        rows = [0] * m
        for i, col in enumerate(cols):
            b = 0
            v = col
            while v:
                if v & 1:
                    rows[b] |= 1 << i
                v >>= 1
                b += 1
        return bit_kernel(BitMatrix(m, m, rows))


def moore_matrix(g: RankVector, nrows: int) -> RankMatrix:
    """Moore matrix: row i is the coordinate-wise Frobenius power [i] of g."""
    ctx = g.ctx
    rows = [list(g.values)]
    for _ in range(nrows - 1):
        rows.append([ctx.sqr(v) for v in rows[-1]])
    return RankMatrix(ctx, rows)


class GabidulinCode:
    """[n, k] Gabidulin code over GF(2^m), n <= m."""

    def __init__(self, g: RankVector, k: int):
        ctx = g.ctx
        n = len(g)
        if n > ctx.m:
            raise ValueError(f"length {n} exceeds extension degree {ctx.m}")
        if g.rank_weight() != n:
            raise ValueError("generator vector must have full rank weight")
        if not 1 <= k <= n:
            raise ValueError(f"dimension {k} out of range [1, {n}]")
        self.ctx = ctx
        self.g = g
        self.n = n
        self.k = k
        self.radius = (n - k) // 2
        self.generator = moore_matrix(g, k)
        self.h, self.parity_check = self._dual_vector()
        # message recovery: the leading k columns of a Moore matrix of a
        # full-rank-weight vector are always invertible
        self._lead_inv = self.generator.submatrix(0, 0, k, k).invert()
        self._packed_gen = None
        self._packed_hcols = None
        self._hbits = {}  # w -> GF(2) expansion of h^[w-1]

    def _dual_vector(self):
        """Vector h whose Moore matrix is a parity check for this code.

        h must satisfy sum_i h_i g_i^[d] = 0 for the n-1 exponents
        d = -(n-k-1), ..., k-1; those rows form a Moore matrix of rank n-1,
        so the kernel is one-dimensional.
        """
        ctx, n, k = self.ctx, self.n, self.k
        if n == k:
            return RankVector(ctx, []), RankMatrix(ctx, [])
        lo = -(n - k - 1) % ctx.m
        base = [ctx.frobenius(v, lo) for v in self.g.values]
        A = moore_matrix(RankVector(ctx, base), n - 1)
        pk = _packed(ctx, n)
        # the leading n-1 columns form a square Moore matrix of independent
        # values, so they are the pivots and h_{n-1} = 1 fixes the kernel
        pivots, h = _solve_packed(ctx, [pk.pack(r) for r in A.rows], n)
        if pivots != list(range(n - 1)):
            raise SingularMatrixError("degenerate generator vector")
        hv = RankVector(ctx, h + [1])
        if hv.rank_weight() != n:
            raise SingularMatrixError("parity vector lacks full rank weight")
        return hv, moore_matrix(hv, n - k)

    def _gen_packed(self):
        if self._packed_gen is None:
            self._packed_gen = self.generator.packed_rows()
        return self._packed_gen

    def _hcols_packed(self):
        if self._packed_hcols is None:
            d1 = self.n - self.k
            pk = _packed(self.ctx, d1)
            cols = [
                pk.pack([self.parity_check.rows[r][i] for r in range(d1)])
                for i in range(self.n)
            ]
            self._packed_hcols = (pk, cols)
        return self._packed_hcols

    def encode(self, u) -> RankVector:
        vals = u.values if isinstance(u, RankVector) else list(u)
        if len(vals) != self.k:
            raise ValueError(f"message length {len(vals)} != k={self.k}")
        pk, prows = self._gen_packed()
        return RankVector(self.ctx, pk.lincomb(vals, prows))

    def syndromes(self, y_vals):
        pk, cols = self._hcols_packed()
        return pk.lincomb(y_vals, cols)

    def _message_of_codeword(self, c_vals):
        return self._lead_inv.left_mul_values(c_vals[: self.k])

    def decode(self, y):
        """Recover (u, e) with y = u·G + e and rk(e) <= radius.

        Raises DecodeFailure when no codeword lies within the radius.  The
        returned pair always satisfies the stated relation exactly.
        """
        y_vals = y.values if isinstance(y, RankVector) else list(y)
        if len(y_vals) != self.n:
            raise ValueError(f"received length {len(y_vals)} != n={self.n}")
        ctx = self.ctx
        c_vals, e_vals = self._decode_codeword(y_vals)
        u = RankVector(ctx, self._message_of_codeword(c_vals))
        return u, RankVector(ctx, e_vals)

    def _decode_codeword(self, y_vals):
        """Split y into (codeword, error) with rk(error) <= radius."""
        ctx, n, k = self.ctx, self.n, self.k
        if n == k:
            return list(y_vals), [0] * n
        s = self.syndromes(y_vals)
        if not any(s):
            return list(y_vals), [0] * n
        t = self.radius
        if t == 0:
            raise DecodeFailure("non-zero syndrome with zero correction radius")
        E = self._error_value_space(s, t)
        if E is None:
            raise DecodeFailure("no annihilator of the error values")
        W = self._error_coordinates(s, E)
        if W is None:
            raise DecodeFailure("error values inconsistent with the syndromes")
        e_vals = self._locate(E, W)
        if e_vals is None:
            raise DecodeFailure("error support does not lie in the code space")
        # every syndrome must match, not just the w solved for.  Same product
        # as syndromes(), whose calls perfbench counts as received blocks.
        pk, cols = self._hcols_packed()
        if pk.lincomb(e_vals, cols) != s:
            raise DecodeFailure("error values inconsistent with the syndromes")
        c_vals = [a ^ b for a, b in zip(y_vals, e_vals)]
        return c_vals, e_vals

    def _error_value_space(self, s, t):
        """Solve for a monic annihilator of q-degree t; return its root basis."""
        ctx = self.ctx
        sqr = ctx.sqr
        pk = _packed(ctx, t + 1)
        # row j = (s_j, s_{j-1}^[1], ..., s_{j-t}^[t]); rows j >= t enter the system
        rows = []
        row = []
        for j, sj in enumerate(s):
            row = [sj] + [sqr(v) for v in row[:t]]
            if j >= t:
                rows.append(pk.pack(row))
        _, gamma = _solve_packed(ctx, rows, t + 1)
        if gamma is None:
            return None  # inconsistent: more than t independent error values
        return LinearizedPoly(ctx, gamma + [1]).kernel_basis()

    def _error_coordinates(self, s, E):
        """Solve s_j = sum_p E_p X_p^[j], j < w, for W_p = X_p^[w-1]."""
        ctx = self.ctx
        w = len(E)
        if w == 0 or w > self.radius:
            return None
        # uniformize unknowns: eq j scaled by [w-1-j] turns X_p^[j] into X_p^[w-1];
        # filling rows in rising-shift order costs one squaring pass per row
        rows = [0] * w
        pk = _packed(ctx, w + 1)
        efr = list(E)
        for sh in range(w):
            j = w - 1 - sh
            if sh:
                efr = [ctx.sqr(x) for x in efr]
            rows[j] = pk.pack(efr + [ctx.frobenius(s[j], sh)])
        pivots, W = _solve_packed(ctx, rows, w + 1)
        if pivots != list(range(w)):
            return None
        return W

    def _locate(self, E, W):
        """Recover GF(2) locations from W_p = sum_i Y_{p,i} h_i^[w-1], then e."""
        w = len(E)
        hbits = self._hbits.get(w)
        if hbits is None:
            hbits = RankVector(self.ctx, self.parity_check.rows[w - 1]).expand_over_base()
            self._hbits[w] = hbits
        sols = solve_gf2(hbits, W)
        if any(y is None for y in sols):
            return None
        e = [0] * self.n
        for ep, ybits in zip(E, sols):
            i = 0
            v = ybits
            while v:
                if v & 1:
                    e[i] ^= ep
                v >>= 1
                i += 1
        return e

    def decode_bruteforce(self, y):
        """Exhaustive nearest-codeword search; the referee for tiny codes."""
        y_vals = y.values if isinstance(y, RankVector) else list(y)
        ctx = self.ctx
        best = None
        total = 1 << (ctx.m * self.k)
        for idx in range(total):
            u = [(idx >> (ctx.m * i)) & ctx.mask for i in range(self.k)]
            c = self.encode(u)
            d = RankVector(ctx, [a ^ b for a, b in zip(y_vals, c.values)])
            w = d.rank_weight()
            if best is None or w < best[0]:
                best = (w, RankVector(ctx, u), d)
        w, u, e = best
        if w > self.radius:
            raise DecodeFailure("no codeword within the radius (exhaustive)")
        return u, e


def from_normal_orbit(ctx: FieldCtx, alpha: int, n2: int, k2: int):
    """Gabidulin code presented by the partial circulant of the orbit vector.

    Returns (code, G2) where G2 = Cir_{k2}(alpha^[n2-1], ..., alpha) and the
    code's Moore generator spans the same rows (G2 lists them in reverse).
    """
    if not ctx.is_normal(alpha):
        raise ValueError("alpha must be a normal element")
    g2 = RankVector(ctx, [ctx.frobenius(alpha, (n2 - 1 - j) % ctx.m) for j in range(n2)])
    G2 = partial_circulant(g2, k2)
    gamma = RankVector(ctx, G2.rows[k2 - 1])
    code = GabidulinCode(gamma, k2)
    return code, G2


class KroneckerCode:
    """[n1*n2, k1*k2] product code of an outer matrix with a Gabidulin code."""

    def __init__(self, G1: RankMatrix, C2: GabidulinCode, G2: RankMatrix | None = None):
        ctx = G1.ctx
        if ctx != C2.ctx:
            raise ValueError("outer matrix and inner code use different fields")
        if G2 is None:
            G2 = C2.generator
        if (G2.nrows, G2.ncols) != (C2.k, C2.n):
            raise ValueError("inner generator shape mismatch")
        k1, n1 = G1.nrows, G1.ncols
        if G1.rank() != k1:
            raise SingularMatrixError("outer matrix must have full row rank")
        self.ctx = ctx
        self.G1 = G1
        self.C2 = C2
        self.G2 = G2
        self.k1, self.n1 = k1, n1
        self.k2, self.n2 = C2.k, C2.n
        self.k = k1 * self.k2
        self.n = n1 * self.n2
        self.G = RankMatrix.from_blocks(
            [[G2.scalar_mul(G1.rows[i][j]) for j in range(n1)] for i in range(k1)]
        )
        self.Gbar1 = self._left_factor()
        self.Gbar2 = self._right_factor()
        if self.Gbar1.rank() != self.k:
            raise SingularMatrixError("left factor rank defect (full-rank outer matrix expected)")
        self.I = information_set(G1)
        self._I2 = information_set(G2)
        self._G2_inv_at_I2 = G2.take_columns(self._I2).invert()
        self._packed_G = None

    def _left_factor(self):
        ctx, k1, n1, k2 = self.ctx, self.k1, self.n1, self.k2
        ident = RankMatrix.identity(ctx, k2)
        return RankMatrix.from_blocks(
            [[ident.scalar_mul(self.G1.rows[i][j]) for j in range(n1)] for i in range(k1)]
        )

    def _right_factor(self):
        ctx, n1, k2, n2 = self.ctx, self.n1, self.k2, self.n2
        zero = RankMatrix.zero(ctx, k2, n2)
        return RankMatrix.from_blocks(
            [[self.G2 if i == j else zero for j in range(n1)] for i in range(n1)]
        )

    def encode(self, m_vals) -> RankVector:
        vals = m_vals.values if isinstance(m_vals, RankVector) else list(m_vals)
        if len(vals) != self.k:
            raise ValueError(f"message length {len(vals)} != k={self.k}")
        if self._packed_G is None:
            self._packed_G = self.G.packed_rows()
        pk, prows = self._packed_G
        return RankVector(self.ctx, pk.lincomb(vals, prows))

    def subcode_membership(self, c) -> bool:
        """True iff c lies in the row space of the Gabidulin-block factor."""
        vals = c.values if isinstance(c, RankVector) else list(c)
        if len(vals) != self.n:
            raise ValueError(f"length {len(vals)} != n={self.n}")
        for j in range(self.n1):
            block = vals[j * self.n2 : (j + 1) * self.n2]
            if self._block_message(block) is None:
                return False
        return True

    def _block_message(self, block_vals):
        """u with u·G2 = block, or None when the block is not a codeword."""
        u = self._G2_inv_at_I2.left_mul_values([block_vals[j] for j in self._I2])
        if self.G2.left_mul_values(u) != list(block_vals):
            return None
        return u

    def _decode_block(self, block_vals):
        """Message (w.r.t. G2) of the unique codeword within the block radius."""
        c_vals, _ = self.C2._decode_codeword(block_vals)
        u = self._block_message(c_vals)
        if u is None:
            raise DecodeFailure("decoded block is not spanned by the presentation")
        return u

    def block_decode(self, y):
        """Blockwise decoding through the inner code over an information set.

        Decodes the blocks of the lexicographically first information set of
        the outer matrix; on failure, retries every information set whose
        blocks all decode, in lexicographic order.
        """
        y_vals = y.values if isinstance(y, RankVector) else list(y)
        if len(y_vals) != self.n:
            raise ValueError(f"received length {len(y_vals)} != n={self.n}")
        blocks = [y_vals[j * self.n2 : (j + 1) * self.n2] for j in range(self.n1)]
        decoded: dict[int, list] = {}
        failed: set[int] = set()

        def try_block(j):
            if j in decoded or j in failed:
                return j in decoded
            try:
                decoded[j] = self._decode_block(blocks[j])
                return True
            except DecodeFailure:
                failed.add(j)
                return False

        if all(try_block(j) for j in self.I):
            return self._solve_outer(self.I, decoded)
        for j in range(self.n1):
            try_block(j)
        usable = sorted(decoded)
        for cand in itertools.combinations(usable, self.k1):
            if cand == self.I:
                continue
            sub = self.G1.take_columns(cand)
            try:
                sub.invert()
            except SingularMatrixError:
                continue
            return self._solve_outer(cand, decoded)
        raise DecodeFailure(
            f"no decodable information set (failed blocks: {sorted(failed)})",
            failed_blocks=sorted(failed),
        )

    def _solve_outer(self, cols, decoded):
        """Solve u_j = sum_l G1[l][j] m_l over the chosen information set."""
        A = RankMatrix(
            self.ctx, [[self.G1.rows[l][j] for l in range(self.k1)] for j in cols]
        )
        Ainv = A.invert()
        U = RankMatrix(self.ctx, [decoded[j] for j in cols])
        M = Ainv.mul(U)
        out = []
        for row in M.rows:
            out.extend(row)
        return RankVector(self.ctx, out)

