"""Gabidulin codes and their Kronecker products.

A Gabidulin code of length n <= m and dimension k is generated by the
Moore matrix of a vector g with rank weight n: row i is the coordinate-wise
2^i-power of g.  Codewords are evaluations of linearized polynomials of
q-degree < k at the coordinates of g, which gives minimum rank distance
n - k + 1 and unique decoding up to t = floor((n - k) / 2) rank errors.

Decoding works on syndromes: writing the error as e_i = sum_p E_p Y_{p,i}
with independent values E_p and GF(2) locations Y_p, the syndromes satisfy
s_j = sum_p E_p X_p^[j] with X_p = sum_i Y_{p,i} h_i.  The key equation
for a monic annihilator Gamma of q-degree t of the values has rows
(s_j, s_{j-1}^[1], ..., s_{j-t}^[t]), j >= t, each built by squaring the
previous one.  Both decoders solve it (_key_equation) and then part:
- for n = m and a normal alpha (_NormalOrbitCode, the improved variant's
  inner code) the syndromes are the first n - k values of the error's
  q-transform; Gamma extends them to all m values by a recursion, and
  one packed product inverts the transform (Silva & Kschischang, ISIT
  2009);
- for every other code, the repaired variant's inner code (n < m) and
  codes built from an arbitrary g, the root space of Gamma yields the E_p.
  The first w syndrome equations form a Moore system in the E_p, and
  eq_j^[1] + E_0 eq_{j+1} is one of the same kind with one unknown fewer,
  sum_{p>=1} D_p X_p^[j+1] = s_j^2 + E_0 s_{j+1} for D_p = E_p^2 + E_0 E_p
  (Lidl & Niederreiter, Finite Fields, 3.4).  The last equations of
  these stages form a triangular system in W_p = X_p^[w-1], and as Y is
  binary, W_p = sum_i Y_{p,i} h_i^[w-1] locates the error against row
  w-1 of the parity-check matrix.  This route is the transform's referee
  in the tests.
Either way the error's rank is at most t: the transform checks it, and the
root-space route builds the error from at most t values.  The message is
read off the corrected word and re-encoded, which must give that word
back; so the word is a codeword, the error has the received syndromes,
and a returned pair is always a valid decoding within the radius.

Each code owns the presentation its messages are written in: the Moore
matrix of g by default, the partial circulant of a normal orbit for the
improved variant (from_normal_orbit).  The parity check h, the packed
parity columns, the generator's packed rows (which the matrix keeps) and
the factored leading block that reads messages off a codeword (a
LeftSolver) are built on first use, so key
generation and decrypter builds do none of that work and the first decode
pays for it once.

Only a code built from an arbitrary g, as in the tests and the audit,
solves a Moore system for h (_dual_vector).  The inner codes of both
variants come from alpha's m-orbit, which the normal-element draw or the
decrypter's check squares once and hands to the builder:
- the improved variant's has length m and a normal alpha
  (from_normal_orbit), so its parity check is the trace-dual orbit:
  h_j = beta^[j] for the trace dual beta of alpha (one GF(2) solve), and
  row r of the parity check is h rotated left by r;
- the repaired variant's has g = (alpha^[n-1], ..., alpha) with n <= m
  (from_orbit), the tail of alpha's m-orbit, so its Moore matrix is a
  set of windows of that orbit,
  and h holds the coefficients of the subspace polynomial of n - 1
  consecutive Frobenius powers of alpha, built on packed rows with
  2(n - 1) scal and O(n^2) table-driven squarings.

The public methods take a RankVector or a list of ints and pass it through
checked_values, which checks its length and every entry once.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .gf2m import BitSpan, FieldCtx, _bit_rank, _window_mul_sum, _window_table
from .ranklinalg import (
    BitMatrix,
    LeftSolver,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    _packed,
    _solve_packed,
    checked_values,
    field_vec_times_bitmatrix,
    information_set,
    partial_circulant,
)


class DecodeFailure(Exception):
    """No codeword within the decoding radius (or block decoding collapsed)."""

    def __init__(self, message, failed_blocks=None):
        super().__init__(message)
        self.failed_blocks = failed_blocks or []


def _root_space(ctx: FieldCtx, coeffs):
    """F_2-basis of the roots of sum_i coeffs[i] x^(2^i), as ints."""
    frob = ctx.frobenius_power_rows(len(coeffs) - 1)
    # column i = the polynomial at x^i: its F_2-linear action on the basis.
    # A dependency among the columns has bit i for x^i, so it is a root.
    cols = _packed(ctx, ctx.m).lincomb(coeffs, frob)
    return BitSpan(cols).kernel


def moore_matrix(g: RankVector, nrows: int) -> RankMatrix:
    """Moore matrix: row i is the coordinate-wise Frobenius power [i] of g."""
    ctx = g.ctx
    rows = [list(g.values)]
    for _ in range(nrows - 1):
        rows.append([ctx.sqr(v) for v in rows[-1]])
    return RankMatrix(ctx, rows)


class GabidulinCode:
    """[n, k] Gabidulin code over GF(2^m), n <= m.

    `generator` is the k x n matrix whose rows present the code: messages
    are written in it (encode) and read back from it (decode).  It defaults
    to the Moore matrix of g and must span the same code; decoding checks
    every message it returns against it.  The parity check and the other
    decoder state are built on first decode.
    """

    def __init__(self, g: RankVector, k: int, generator: RankMatrix | None = None):
        ctx = g.ctx
        n = len(g)
        if n > ctx.m:
            raise ValueError(f"length {n} exceeds extension degree {ctx.m}")
        if g.rank_weight() != n:
            raise ValueError("generator vector must have full rank weight")
        if not 1 <= k <= n:
            raise ValueError(f"dimension {k} out of range [1, {n}]")
        if generator is None:
            generator = moore_matrix(g, k)
        elif generator.ctx != ctx or (generator.nrows, generator.ncols) != (k, n):
            raise ValueError(f"generator must be a {k} x {n} matrix over the code's field")
        self.ctx = ctx
        self.g = g
        self.n = n
        self.k = k
        self.radius = (n - k) // 2
        self.generator = generator

    @cached_property
    def h(self) -> RankVector:
        """Vector h whose Moore matrix is a parity check for this code.

        h must satisfy sum_i h_i g_i^[d] = 0 for the n-1 exponents
        d = -(n-k-1), ..., k-1; those rows form a Moore matrix of rank n-1,
        so the kernel is one-dimensional.
        """
        return self._dual_vector()

    def _dual_vector(self):
        ctx, n, k = self.ctx, self.n, self.k
        if n == k:
            return RankVector(ctx, [])
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
        return hv

    @cached_property
    def parity_check(self) -> RankMatrix:
        """(n-k) x n Moore matrix of h."""
        if self.n == self.k:
            return RankMatrix(self.ctx, [])
        return moore_matrix(self.h, self.n - self.k)

    @cached_property
    def _packed_hcols(self):
        d1 = self.n - self.k
        pk = _packed(self.ctx, d1)
        H = self.parity_check
        return pk, [pk.pack([H.rows[r][i] for r in range(d1)]) for i in range(self.n)]

    @cached_property
    def _lead_solver(self) -> LeftSolver:
        # the leading k columns of a generator of an MRD code are an
        # information set, so this block is invertible for any valid presentation
        return LeftSolver(self.generator.submatrix(0, 0, self.k, self.k))

    def encode(self, u) -> RankVector:
        vals = checked_values(self.ctx, u, self.k, "message")
        return RankVector(self.ctx, self.generator.left_mul_values(vals))

    def syndromes(self, y_vals):
        pk, cols = self._packed_hcols
        return pk.lincomb(y_vals, cols)

    def decode(self, y):
        """Recover (u, e) with y = u·generator + e and rk(e) <= radius.

        Raises DecodeFailure when no codeword lies within the radius.  The
        returned pair always satisfies the stated relation exactly.
        """
        ctx = self.ctx
        u, e_vals = self._decode_values(checked_values(ctx, y, self.n, "received"))
        return RankVector(ctx, u), RankVector(ctx, e_vals)

    def _decode_values(self, y_vals):
        """(u, e) as lists with y = u·generator + e and rk(e) <= radius.

        Both error decoders return e of rank at most the radius.  u is read
        off the leading k coordinates of c = y - e and re-encoded: c must
        come back, so c is a codeword and e has y's syndromes.  Raises
        DecodeFailure otherwise.
        """
        n, k = self.n, self.k
        e_vals = [0] * n
        if n > k:
            s = self.syndromes(y_vals)
            if any(s):
                if self.radius == 0:
                    raise DecodeFailure("non-zero syndrome with zero correction radius")
                e_vals = self._error_vector(s)
        c_vals = [a ^ b for a, b in zip(y_vals, e_vals)]
        u = self._lead_solver.solve(c_vals[:k])
        if self.generator.left_mul_values(u) != c_vals:
            raise DecodeFailure("codeword is not spanned by the presentation")
        return u, e_vals

    def _error_vector(self, s):
        """The error of rank <= radius that the first syndromes in s give,
        through its values' root space and its locations; raises
        DecodeFailure.  _decode_values checks it against all of s."""
        gamma, _ = self._key_equation(s)
        if gamma is None:
            raise DecodeFailure("no annihilator of the error values")
        E = _root_space(self.ctx, gamma)
        if not E:
            raise DecodeFailure("the annihilator of the error values has no nonzero root")
        W = self._error_coordinates(s, E)
        if W is None:
            raise DecodeFailure("error values inconsistent with the syndromes")
        e_vals = self._locate(E, W)
        if e_vals is None:
            raise DecodeFailure("error support does not lie in the code space")
        return e_vals

    def _key_equation(self, s):
        """Solve for a monic annihilator Gamma of q-degree t of the error values.

        Returns (gamma, row): gamma[i] is the coefficient of x^[i], i <= t,
        or None when the system has no solution (more than t independent
        error values), and row = (s_j, s_{j-1}^[1], ..., s_{j-t}^[t]) is the
        key-equation row of the last syndrome index j.
        """
        ctx, t = self.ctx, self.radius
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
        return (None if gamma is None else gamma + [1]), row

    def _error_coordinates(self, s, E):
        """Solve s_j = sum_p E_p X_p^[j], j < w, for W_p = X_p^[w-1].

        The system is a Moore matrix in E, and one elimination step keeps
        that shape (Lidl & Niederreiter, Finite Fields, 3.4): eq_j^[1] +
        E_0 eq_{j+1} reads sum_{p>=1} D_p X_p^[j+1] = s_j^2 + E_0 s_{j+1}
        with D_p = E_p^2 + E_0 E_p, one unknown fewer and the unknowns
        twisted once more.  Stage k's last equation has twist w-1, so it
        reads sum_{p>=k} E^(k)_p W_p = s^(k)_{w-1-k}: row k of an upper
        triangular system in W.  A stage costs one scal and the
        back-substitution one per unknown: 2w in all, where an echelon of
        the w x w system takes about w^2/2.  D_p is E_p under x^2 + E_0 x,
        whose kernel is {0, E_0}, so a stage pivot is zero exactly when E
        is dependent.  Returns None then, and when w = 0 or w > radius.
        """
        ctx = self.ctx
        w = len(E)
        if w == 0 or w > self.radius:
            return None
        pk = _packed(ctx, 2 * w)
        S, mask = pk.S, ctx.mask
        sqr, scal, fold = ctx.sqr, pk.scal, pk.fold
        # one packed row per stage: slot p holds E_p and slot 2u-1-j holds
        # s_j, u the unknowns left, so E_0 s_{j+1} lands one slot below s_j
        row = pk.pack(list(E) + s[:w][::-1])
        lead = []  # stage k's last equation: E^(k)_k..E^(k)_{w-1}, s^(k)_{w-1-k}
        for u in range(w, 0, -1):
            vals = [row >> (i * S) & mask for i in range(2 * u)]
            if not vals[0]:
                return None
            lead.append(vals[: u + 1])
            if u > 1:
                # D_p in slot p, which is 0 at p = 0; s_j^2 + E_0 s_{j+1} one
                # slot below s_j.  Drop E's slot 0 and s's top slot.
                sq = [sqr(v) for v in vals]
                row = fold(pk.pack(sq[:u] + sq[u + 1 :]) ^ scal(row, vals[0]))
                row = row >> S & (1 << (2 * u - 2) * S) - 1
        # back-substitution on the packed right-hand sides: one scal by each
        # unknown on its column above the diagonal
        reduce, mul, inv, smask = ctx.reduce, ctx.mul, ctx.inv, pk.slot_mask
        acc = pk.pack([eq[-1] for eq in lead])
        W = [0] * w
        for p in range(w - 1, -1, -1):
            v = W[p] = mul(reduce(acc >> (p * S) & smask), inv(lead[p][0]))
            if v and p:
                acc ^= scal(pk.pack([lead[k][p - k] for k in range(p)]), v)
        return W

    def _locate(self, E, W):
        """Recover GF(2) locations from W_p = sum_i Y_{p,i} h_i^[w-1], then e.

        The n entries h_i^[w-1] are independent, as h has full rank weight,
        so each W_p has one set of locations or none.
        """
        w = len(E)
        span = BitSpan(self.parity_check.rows[w - 1])
        sols = [span.coordinates(x) for x in W]
        if None in sols:
            return None
        return field_vec_times_bitmatrix(self.ctx, E, BitMatrix(w, self.n, sols))


class _NormalOrbitCode(GabidulinCode):
    """Gab_k(gamma) of full length n = m with gamma_j = alpha^[j-k], alpha normal.

    With beta the trace dual of alpha, h_j = beta^[j] is a parity vector:
    sum_j h_j gamma_j^[d] = Tr(beta alpha^[d-k]), which vanishes for the
    exponents d = -(n-k-1), ..., k-1 because d-k is then non-zero mod m.
    It is _dual_vector() up to a scalar, which the decoder's output does
    not depend on, and row r of its Moore matrix is h rotated left by r.

    The syndromes are therefore the first n - k values of the q-transform
    Y^_r = sum_j y_j beta^[j+r], r < m, whose inverse is
    y_j = sum_r Y^_r alpha^[r+j], because Tr(alpha^[i] beta^[j]) = 1 if
    i = j else 0.  The decoder extends the error's transform past the
    syndromes and inverts it (_error_vector).
    """

    def __init__(self, gamma: RankVector, k: int, generator: RankMatrix, orbit):
        super().__init__(gamma, k, generator)
        self.orbit = orbit  # frobenius_orbit(alpha, m), checked normal by the caller

    @cached_property
    def h(self) -> RankVector:
        beta = self.ctx._trace_dual_of_orbit(self.orbit)
        return RankVector(self.ctx, self.ctx.frobenius_orbit(beta, self.n)[::-1])

    @cached_property
    def parity_check(self) -> RankMatrix:
        h = self.h.values
        return RankMatrix(self.ctx, [h[r:] + h[:r] for r in range(self.n - self.k)])

    @cached_property
    def _inverse_rows(self):
        """Packed row r = (alpha^[r+j])_j, so that e = sum_r E^_r row_r."""
        orbit, m = self.orbit, self.n
        pk = _packed(self.ctx, m)
        # the orbit holds alpha^[e] at index -1-e mod m
        return pk, [pk.pack([orbit[(-1 - r - j) % m] for j in range(m)]) for r in range(m)]

    def _error_vector(self, s):
        """The error of rank <= radius whose transform starts with s.

        Write e_j = sum_p E_p Y_{p,j} with independent values E_p and binary
        Y_p.  Its transform is E^_r = sum_p E_p X_p^[r], X_p = sum_j
        Y_{p,j} beta^[j], so any Gamma that solves the key equation
        annihilates the E_p when rk(e) <= t, and
        sum_i Gamma_i E^_{l-i}^[i] = 0 for every l.  Once Gamma_0 != 0 this
        gives E^_l from the t values before it, so the syndromes extend to
        all m values (Silva & Kschischang, "Fast encoding and decoding of
        Gabidulin codes", ISIT 2009).  Gamma_0 = 0 makes Gamma = Gamma'^2
        with Gamma'_i = sqrt(Gamma_{i+1}), which annihilates the same values.
        One inverse transform gives e, and rk(e) <= t is checked; raises
        DecodeFailure otherwise.
        """
        ctx = self.ctx
        gamma, row = self._key_equation(s)
        if gamma is None:
            raise DecodeFailure("no annihilator of the error values")
        while not gamma[0]:
            gamma = [ctx.sqrt(g) for g in gamma[1:]]
        # E^_l = sum_{i>=1} (Gamma_i / Gamma_0) E^_{l-i}^[i]: the window
        # tables of the t coefficients are built once, and each value is
        # one window sum over all of them and one reduction.  The terms are
        # single elements, so the tables are small and held whole, not in
        # _Packed.sum_products's chunks, which would build them every step.
        inv0 = ctx.inv(gamma[0])
        tabs = [_window_table(ctx.mul(inv0, g)) for g in gamma[1:]]
        reduce, sqr = ctx.reduce, ctx.sqr
        # prev[i] = E^_{l-1-i}^[i], i < t, from l = n - k on: to begin with,
        # the last key-equation row; squared once, it holds E^_{l-i}^[i]
        prev = row[: len(tabs)]
        E = list(s)
        for _ in range(self.k):
            win = [sqr(v) for v in prev]
            E.append(reduce(_window_mul_sum(tabs, win)))
            prev = [E[-1]] + win[:-1]
        pk, rows = self._inverse_rows
        e_vals = pk.lincomb(E, rows)
        if _bit_rank(e_vals) > self.radius:
            raise DecodeFailure("error rank exceeds the radius")
        return e_vals


def from_normal_orbit(ctx: FieldCtx, orbit, k2: int) -> GabidulinCode:
    """The length-m Gabidulin code presented by Cir_k2 of alpha's orbit.

    orbit = (alpha^[m-1], ..., alpha) of a normal alpha, as
    FieldCtx.find_normal_element and FieldCtx.is_normal return it; the
    caller has checked it.  The code is Gab_k2(gamma) for gamma = row k2-1
    of Cir_k2(orbit), and Cir_k2(orbit) is the Moore matrix of gamma with
    its rows reversed, so the presentation takes no squaring to build.  The
    parity check comes from the trace-dual orbit (_NormalOrbitCode).  This
    is the improved variant's inner code, whose length n2 = m setup enforces.
    """
    m = ctx.m
    gamma = RankVector(ctx, [orbit[(k2 - 1 - j) % m] for j in range(m)])
    return _NormalOrbitCode(gamma, k2, partial_circulant(RankVector(ctx, orbit), k2), orbit)


class _OrbitCode(GabidulinCode):
    """Gab_k(g) with g_j = alpha^[n-1-j], n <= m, presented by its Moore matrix.

    Moore entry (i, j) is alpha^[n-1-j+i], read off alpha's m-orbit with no
    squaring.  With H(x) = sum_r h_{n-1-r} x^[r], sum_j h_j g_j^[d] =
    H(alpha^[d]), so H vanishes on W = <alpha^[lo+i] : i < n-1>,
    lo = -(n-k-1) mod m, and is a multiple of W's subspace polynomial.  That
    polynomial is built one basis element v at a time, L <- L^2 + L(v) L,
    with v^[r] read off the orbit too; scaled to h_{n-1} = 1 it is
    _dual_vector() entry for entry (Lidl & Niederreiter, Finite Fields, 3.4).
    """

    def __init__(self, g: RankVector, k: int, orbit):
        self.orbit = orbit  # frobenius_orbit(alpha, m)
        n = len(g)
        moore = [[self.frob(n - 1 - j + i) for j in range(n)] for i in range(k)]
        super().__init__(g, k, RankMatrix(g.ctx, moore))

    def frob(self, e: int) -> int:
        """alpha^[e], read off the m-orbit, which holds it at index -1-e mod m."""
        return self.orbit[(-1 - e) % len(self.orbit)]

    @cached_property
    def h(self) -> RankVector:
        """The subspace polynomial's coefficients, reversed and scaled.

        Both the coefficients of L and its values at the basis elements not
        yet taken are packed rows, slot r the coefficient of x^[r] and slot
        j the value at the j-th remaining element.  L <- L^2 + c L squares
        each coefficient and shifts it up one slot, and a value V becomes
        V^2 + c V, with c the value at the element being taken; each c·
        is one scal, the squares one sqr per slot.
        """
        ctx, n, k, m = self.ctx, self.n, self.k, self.ctx.m
        if n == k:
            return RankVector(ctx, [])
        sqr, mask = ctx.sqr, ctx.mask
        pk = _packed(ctx, n)
        S, scal, fold = pk.S, pk.scal, pk.fold

        def squares(p, count):
            return pk.pack([sqr(p >> (r * S) & mask) for r in range(count)])

        lo = -(n - k - 1) % m
        L = 1  # monic; slot r is the coefficient of x^[r]
        # basis element i of W is alpha^[lo+i], and L = x at first
        V = pk.pack([self.frob(lo + i) for i in range(n - 1)])
        for i in range(n - 1):
            c = V & mask
            if not c:
                raise SingularMatrixError("degenerate generator vector")
            V = fold(squares(V, n - 1 - i) ^ scal(V, c)) >> S
            L = fold((squares(L, i + 1) << S) ^ scal(L, c))
        hv = RankVector(ctx, pk.unpack(fold(scal(L, ctx.inv(L & mask))))[::-1])
        if hv.rank_weight() != n:
            raise SingularMatrixError("parity vector lacks full rank weight")
        return hv


def from_orbit(ctx: FieldCtx, orbit, n2: int, k2: int) -> GabidulinCode:
    """Gab_k2(g2) for g2 = (alpha^[n2-1], ..., alpha), the tail of alpha's m-orbit.

    orbit = frobenius_orbit(alpha, m).  The Moore presentation and h come
    from it (_OrbitCode) instead of squarings and a Moore solve; a g2
    without full rank weight raises ValueError.  This is the repaired
    variant's inner code.
    """
    m = ctx.m
    if n2 > m:
        raise ValueError(f"length {n2} exceeds extension degree {m}")
    return _OrbitCode(RankVector(ctx, orbit[m - n2:]), k2, orbit)


class KroneckerCode:
    """[n1*n2, k1*k2] product code of an outer matrix with a Gabidulin code.

    The inner code presents itself: block messages are written in
    C2.generator, so the product generator is G1 (x) C2.generator, which
    only the audit expands (audit.product_generator).  The code holds what
    decryption uses; the inner decoder state is built on the first block
    decode.
    """

    def __init__(self, G1: RankMatrix, C2: GabidulinCode):
        ctx = G1.ctx
        if ctx != C2.ctx:
            raise ValueError("outer matrix and inner code use different fields")
        self.ctx = ctx
        self.G1 = G1
        self.C2 = C2
        self.k1, self.n1 = G1.nrows, G1.ncols
        self.k2, self.n2 = C2.k, C2.n
        self.k = self.k1 * self.k2
        self.n = self.n1 * self.n2
        # raises SingularMatrixError unless G1 has full row rank
        self.I = information_set(G1)

    def block_decode(self, y):
        """Blockwise decoding through the inner code over an information set.

        Decodes every block, then solves the outer code over the information
        sets of decoded blocks in lexicographic order; the first is self.I
        when its blocks decode.  A solved message is returned only if it
        re-encodes to every decoded block outside its set, so a miscorrected
        block makes its sets fail the check instead of yielding a wrong
        message.
        """
        y_vals = checked_values(self.ctx, y, self.n, "received")
        C2 = self.C2
        decoded: dict[int, list] = {}  # j -> message of block j w.r.t. C2.generator
        failed = []
        for j in range(self.n1):
            try:
                decoded[j], _ = C2._decode_values(y_vals[j * self.n2 : (j + 1) * self.n2])
            except DecodeFailure:
                failed.append(j)
        for cand in itertools.combinations(decoded, self.k1):
            try:
                M = self._solve_outer(cand, decoded)
            except SingularMatrixError:
                continue
            if all(
                M.left_mul_values(self.G1.column(j)) == u
                for j, u in decoded.items()
                if j not in cand
            ):
                return RankVector(self.ctx, [v for row in M.rows for v in row])
        raise DecodeFailure(
            f"no information set of decoded blocks agrees with the others "
            f"(failed blocks: {failed})",
            failed_blocks=failed,
        )

    def _solve_outer(self, cols, decoded):
        """The k1 x k2 matrix M with u_j = sum_l G1[l][j] M[l] over cols.

        Raises SingularMatrixError when those columns of G1 are dependent.
        """
        solver = LeftSolver(RankMatrix(self.ctx, [[row[j] for j in cols] for row in self.G1.rows]))
        # column c of M solves x·G1[:, cols] = (u_j[c] for j in cols)
        sols = [solver.solve([decoded[j][c] for j in cols]) for c in range(self.k2)]
        return RankMatrix(self.ctx, [list(row) for row in zip(*sols)])

