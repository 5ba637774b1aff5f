"""Gabidulin codes and their Kronecker products.

A Gabidulin code of length n <= m and dimension k is generated by the
Moore matrix of a vector g with rank weight n: row i is the coordinate-wise
2^i-power of g.  Codewords are evaluations of linearized polynomials of
q-degree < k at the coordinates of g, which gives minimum rank distance
n - k + 1 and unique decoding up to t = floor((n - k) / 2) rank errors.

Decoding works on syndromes: writing the error as e_i = sum_p E_p Y_{p,i}
with independent values E_p and GF(2) locations Y_p, the syndromes satisfy
s_j = sum_p E_p X_p^[j] with X_p = sum_i Y_{p,i} h_i.  So the syndromes
obey sum_i Lambda_i s_{j-i}^[i] = 0, j >= L, for every annihilator
Lambda = sum_i Lambda_i x^[i] of the values with q-degree L and
Lambda_0 = 1.  Every code finds the shortest such recurrence by
linearized Berlekamp-Massey (_key_equation; Sidorenko, Richter and
Bossert, IEEE Trans. IT 57(9), 2011), one packed row update per
syndrome.  For an error of rank w <= t, L = w and the root space of
Lambda is the span of the E_p, so it has dimension exactly L; a block
whose root space has any other dimension fails.  The first w syndrome
equations form a Moore system in the E_p, and eq_j^[1] + E_0 eq_{j+1} is
one of the same kind with one unknown fewer,
sum_{p>=1} D_p X_p^[j+1] = s_j^2 + E_0 s_{j+1} for D_p = E_p^2 + E_0 E_p
(Lidl & Niederreiter, Finite Fields, 3.4).  The last equations of these
stages form a triangular system in W_p = X_p^[w-1], and as Y is binary,
W_p = sum_i Y_{p,i} h_i^[w-1] locates the error against row w-1 of the
parity-check matrix.  The error is built from at most t values, so its
rank is at most t.  The message is read off the corrected word and
re-encoded, which must give that word back; so the word is a codeword,
the error has the received syndromes, and a returned pair is always a
valid decoding within the radius.  Given a basis E of the error values,
which the repaired variant's blocks share (KroneckerCode.block_decode), a
block skips the key equation and the root space.  On any failure it
decodes in full; a codeword within the radius is unique, so the two agree.

Each code owns the presentation its messages are written in: the Moore
matrix of g by default, the partial circulant of a normal orbit for the
improved variant (from_normal_orbit).  The parity check h, the packed
parity columns and the Newton form of the leading block (_lead_solve) are
built on first use, so key generation and decrypter builds do none of
that work and the first decode pays for it once.

Every Moore system here is solved in the Newton basis of linearized
interpolation at points v_i, P_0 = x and P_{i+1} = P_i^2 + P_i(v_i) P_i
(_newton; Lidl & Niederreiter, Finite Fields, 3.4): the leading block,
whose message polynomial sum_i a_i P_i at the g_j is lower triangular in
the a_i (_lead_solve); h of a code built from an arbitrary g, as in the
tests and the audit (GabidulinCode.h); and h of the repaired variant's
inner code, the last P at n - 1 consecutive Frobenius powers of alpha
(_OrbitCode.h).  The inner codes of both variants come from alpha's
m-orbit, which the normal-element draw or the decrypter's check squares
once and hands to the builder:
- the improved variant's has length m and a normal alpha
  (from_normal_orbit), so its parity check is the trace-dual orbit:
  h_j = beta^[j] for the trace dual beta of alpha (one GF(2) solve), and
  each column of the parity check is a window of h, taken cyclically;
- the repaired variant's has g = (alpha^[n-1], ..., alpha) with n <= m
  (from_orbit), the tail of alpha's m-orbit, so its Moore matrix is a
  set of windows of that orbit.

The public methods take a RankVector or a list of ints and pass it through
checked_values, which checks its length and every entry once.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cache, cached_property

from .gf2m import BitSpan, FieldCtx
from .ranklinalg import (
    RankMatrix,
    RankVector,
    SingularMatrixError,
    _packed,
    _rref_packed,
    _substitute,
    checked_values,
    field_vec_times_bits,
    information_set,
    partial_circulant,
)


class DecodeFailure(Exception):
    """No codeword within the decoding radius (or block decoding collapsed)."""

    def __init__(self, message, failed_blocks=None):
        super().__init__(message)
        self.failed_blocks = failed_blocks or []


@cache
def _frobenius_rows(ctx: FieldCtx, t: int) -> tuple[int, ...]:
    """Row u = ((x^i)^[u])_i, i < m, packed, for u = 0..t.

    Each row is the one before squared, and the rows are cached per field
    and t, so equal contexts share them.
    """
    pk = _packed(ctx, ctx.m)
    if t == 0:
        return (pk.pack([1 << i for i in range(ctx.m)]),)
    rows = _frobenius_rows(ctx, t - 1)
    return rows + (pk.sqr(rows[-1]),)


def _root_space(ctx: FieldCtx, coeffs):
    """F_2-basis of the roots of sum_i coeffs[i] x^(2^i), as ints."""
    frob = _frobenius_rows(ctx, len(coeffs) - 1)
    # column i = the polynomial at x^i: its F_2-linear action on the basis.
    # A dependency among the columns has bit i for x^i, so it is a root.
    cols = _packed(ctx, ctx.m).lincomb(coeffs, frob)
    return BitSpan(cols).kernel


def moore_matrix(g: RankVector, nrows: int) -> RankMatrix:
    """Moore matrix: row i is the coordinate-wise Frobenius power [i] of g."""
    pk = _packed(g.ctx, len(g))
    row = pk.pack(g.values)
    rows = [g.values]
    for _ in range(nrows - 1):
        row = pk.sqr(row)
        rows.append(pk.unpack(row))
    return RankMatrix(g.ctx, rows)


def _newton(ctx: FieldCtx, points):
    """Newton basis P_0 = x, P_{i+1} = P_i^2 + P_i(v_i) P_i at the points
    v_i, i < N: P_i is monic of q-degree i and vanishes on v_0..v_{i-1}.

    Returns (vals, pivots, coefs): for i < N, vals[i] is the packed row of
    P_i(v_j) in slot j > i (0 elsewhere) and pivots[i] = P_i(v_i); for
    i <= N, coefs[i] packs P_i's coefficients, so coefs[N] is the subspace
    polynomial of the points.  A step is one _Packed.sqr and one scal of
    the values row and of P; a zero pivot, dependent points, raises
    SingularMatrixError.
    """
    pk = _packed(ctx, len(points) + 1)
    S, mask, sqr, scal, fold = pk.S, ctx.mask, pk.sqr, pk.scal, pk.fold
    V, P = pk.pack(points), 1  # P_i at v_i, v_{i+1}, ... from slot 0; P_0 = x
    vals, pivots, coefs = [], [], [P]
    for i in range(len(points)):
        c = V & mask
        if not c:
            raise SingularMatrixError("degenerate generator vector")
        V >>= S
        vals.append(V << (i + 1) * S)
        pivots.append(c)
        V = fold(sqr(V) ^ scal(V, c))
        P = fold((sqr(P) << S) ^ scal(P, c))
        coefs.append(P)
    return vals, pivots, coefs


class GabidulinCode:
    """[n, k] Gabidulin code over GF(2^m), n <= m.

    `generator` is the k x n matrix whose rows present the code: messages
    are written in it (encode) and read back from it (decode).  It is the
    Moore matrix of g, or the presentation a subclass sets; decoding checks
    every message it returns against it.  The decoder state is built on
    first decode.
    """

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
        self._spans = {}  # _locate's BitSpan of parity-check row w - 1, by w

    @cached_property
    def generator(self) -> RankMatrix:
        return moore_matrix(self.g, self.k)

    @cached_property
    def h(self) -> RankVector:
        """Vector h whose Moore matrix is a parity check for this code.

        h must satisfy sum_j h_j v_j^[i] = 0, i < n-1, for v = g^[lo],
        lo = -(n-k-1) mod m, a Moore system of rank n-1.  In v's Newton
        basis that is h T = P_{n-1}(v_{n-1}) e_{n-1} with h_{n-1} = 1, for
        T[j][l] = P_l(v_j) lower triangular: one backward _substitute on
        _newton's value rows transposed into columns.
        """
        ctx, n, k = self.ctx, self.n, self.k
        if n == k:
            return RankVector(ctx, [])
        pk = _packed(ctx, n)
        v = pk.pack(self.g.values)
        for _ in range(-(n - k - 1) % ctx.m):
            v = pk.sqr(v)
        vals, pivots, _ = _newton(ctx, pk.unpack(v))
        cols = [pk.pack(col[:j]) for j, col in enumerate(zip(*map(pk.unpack, vals)))]
        hv = RankVector(ctx, _substitute(pk, pivots[-1] << (n - 1) * pk.S, cols,
                                         [ctx.inv(c) for c in pivots], up=True))
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
        pk = _packed(self.ctx, self.n - self.k)
        return pk, [pk.pack(col) for col in zip(*self.parity_check.rows)]

    @cached_property
    def _lead_newton(self):
        vals, pivots, coefs = _newton(self.ctx, self.g.values[: self.k])
        return vals, [self.ctx.inv(c) for c in pivots], coefs[:-1]

    def _lead_solve(self, c):
        """u with sum_i u_i g_j^[i] = c_j, j < k.  In the Newton basis of
        g_0..g_{k-1}, u = sum_i a_i P_i and c_j = sum_{i<=j} a_i P_i(g_j):
        one forward _substitute, then one lincomb of the coefficient rows.
        """
        vals, pinvs, coefs = self._lead_newton
        pk = _packed(self.ctx, self.k)
        return pk.lincomb(_substitute(pk, pk.pack(c), vals, pinvs), coefs)

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

    def _decode_values(self, y_vals, E=None):
        """(u, e) as lists with y = u·generator + e and rk(e) <= radius.

        _error_vector returns e of rank at most the radius.  u is read
        off the leading k coordinates of c = y - e and re-encoded: c must
        come back, so c is a codeword and e has y's syndromes.  Raises
        DecodeFailure otherwise.  Given a basis E, an error with values in
        its span is tried first (_error_in), then the full decode of the
        same syndromes.
        """
        e_vals = [0] * self.n
        if self.n > self.k:
            s = self.syndromes(y_vals)
            if any(s):
                if self.radius == 0:
                    raise DecodeFailure("non-zero syndrome with zero correction radius")
                if E:
                    with suppress(DecodeFailure):
                        return self._reencoded(y_vals, self._error_in(s, E))
                e_vals = self._error_vector(s)
        return self._reencoded(y_vals, e_vals)

    def _reencoded(self, y_vals, e_vals):
        """(u, e) for c = y - e, u read off c and re-encoded to c."""
        c_vals = [a ^ b for a, b in zip(y_vals, e_vals)]
        u = self._lead_solve(c_vals[: self.k])
        if self.generator.left_mul_values(u) != c_vals:
            raise DecodeFailure("codeword is not spanned by the presentation")
        return u, e_vals

    def _error_vector(self, s):
        """The error of rank <= radius that the first syndromes in s give,
        through its values' root space and its locations; raises
        DecodeFailure.  _decode_values checks it against all of s."""
        lam = self._key_equation(s)
        if lam is None:
            raise DecodeFailure("no annihilator of the error values")
        E = _root_space(self.ctx, lam)
        if not E:
            raise DecodeFailure("the annihilator of the error values has no nonzero root")
        if len(E) != len(lam) - 1:
            raise DecodeFailure("the annihilator's root space is smaller than its q-degree")
        return self._error_in(s, E)

    def _error_in(self, s, E):
        """The error with values in E's span that s gives; raises DecodeFailure."""
        W = self._error_coordinates(s, E)
        if W is None:
            raise DecodeFailure("error values inconsistent with the syndromes")
        e_vals = self._locate(E, W)
        if e_vals is None:
            raise DecodeFailure("error support does not lie in the code space")
        return e_vals

    def _key_equation(self, s):
        """The minimal annihilator Lambda of the error values, by linearized
        Berlekamp-Massey; None when its q-degree L exceeds the radius t.

        lam[i] is the coefficient of x^[i], lam[0] = 1 and len(lam) = L + 1.
        Lambda and the correction B each share one packed row with their
        discrepancy sequences D_j(P) = sum_i P_i s_{j-i}^[i]: coefficients
        in slots 0..t, D_n, D_{n+1}, ... from slot t + 1.  Step n first sets
        B <- x^[1] o B: one squaring of B's row with its coefficients moved
        up one slot, as D_j(x^[1] o B) = D_{j-1}(B)^2 keeps its sequence in
        place.  It reads Delta = D_n(Lambda) and sets Lambda += Delta b B,
        where b scales B to D_n(B) = 1.  At a length change (2L <= n) B
        becomes the old Lambda and b its 1/Delta, which each step squares
        with B.  Then Lambda drops D_n and both rows are cut to the slots
        still read.  A coefficient of B pushed past slot t would make the
        next nonzero Delta raise L past t, so dropping it loses nothing.
        """
        ctx, t = self.ctx, self.radius
        d = len(s)
        pk = _packed(ctx, t + 1 + d)
        S, mask = pk.S, ctx.mask
        sqr, scal, fold = pk.sqr, pk.scal, pk.fold
        c = (t + 1) * S  # the sequence part starts at bit c
        coef = (1 << c) - 1
        lam = 1 | pk.pack(s) << c
        B = 1 | pk.pack(s[: d - 1]) << c + S  # D_{-1} = 0, s_0, ..., s_{d-2}
        b = 1
        L = 0
        for n in range(d):
            sq = sqr(B)
            B = (sq & coef) << S & coef | sq >> c << c
            b = ctx.sqr(b)
            delta = lam >> c & mask
            if delta:
                new = fold(lam ^ scal(B, ctx.mul(delta, b)))
                if 2 * L <= n:
                    L = n + 1 - L
                    if L > t:
                        return None
                    B, b = lam, ctx.inv(delta)
                lam = new
            live = (1 << c + (d - 1 - n) * S) - 1
            lam = (lam & coef | lam >> c + S << c) & live
            B &= live
        return [lam >> i * S & mask for i in range(L + 1)]

    def _error_coordinates(self, s, E):
        """Solve s_j = sum_p E_p X_p^[j], j < w, for W_p = X_p^[w-1].

        The system is a Moore matrix in E, and one elimination step keeps
        that shape (Lidl & Niederreiter, Finite Fields, 3.4): eq_j^[1] +
        E_0 eq_{j+1} reads sum_{p>=1} D_p X_p^[j+1] = s_j^2 + E_0 s_{j+1}
        with D_p = E_p^2 + E_0 E_p, one unknown fewer and the unknowns
        twisted once more.  Stage k's last equation has twist w-1, so it
        reads sum_{p>=k} E^(k)_p W_p = s^(k)_{w-1-k}: row k of an upper
        triangular system in W, which ranklinalg._substitute solves on
        packed columns.  Each stage but the last costs one scal, and so
        does each unknown but W_0: 2(w - 1) in all, where an echelon of the
        w x w system takes about w^2/2.  D_p is E_p under x^2 + E_0 x,
        whose kernel is {0, E_0}, so a stage pivot is zero exactly when E
        is dependent.  Returns None then, and when w = 0 or w > radius.
        """
        ctx = self.ctx
        w = len(E)
        if w == 0 or w > self.radius:
            return None
        pk = _packed(ctx, 2 * w)
        S, mask = pk.S, ctx.mask
        sqr, scal, fold = pk.sqr, pk.scal, pk.fold
        # one packed row per stage: slot p holds E_p and slot 2u-1-j holds
        # s_j, u the unknowns left, so E_0 s_{j+1} lands one slot below s_j
        row = pk.pack(list(E) + s[:w][::-1])
        lead = []  # stage k's last equation: E^(k)_k..E^(k)_{w-1}, s^(k)_{w-1-k}
        for u in range(w, 0, -1):
            vals = [row >> (i * S) & mask for i in range(u + 1)]
            if not vals[0]:
                return None
            lead.append(vals)
            if u > 1:
                # D_p in slot p, which is 0 at p = 0; s_j^2 + E_0 s_{j+1} one
                # slot below s_j, so s's squares move down one slot and the
                # square of slot u drops out.  Then drop E's slot 0 and s's
                # top slot.
                sq = sqr(row)
                sq = sq & (1 << u * S) - 1 | sq >> (u + 1) * S << u * S
                row = fold(sq ^ scal(row, vals[0])) >> S & (1 << (2 * u - 2) * S) - 1
        # column p holds W_p's coefficients in the stages before p; each
        # unknown is scaled by the inverse of its own stage's pivot
        cols = [pk.pack([lead[k][p - k] for k in range(p)]) for p in range(w)]
        return _substitute(pk, pk.pack([eq[-1] for eq in lead]), cols,
                           [ctx.inv(eq[0]) for eq in lead], up=True)

    def _locate(self, E, W):
        """Recover GF(2) locations from W_p = sum_i Y_{p,i} h_i^[w-1], then e.

        The n entries h_i^[w-1] are independent, as h has full rank weight,
        so each W_p has one set of locations or none.  Row w-1's span is
        built on the first block of rank w and kept.
        """
        w = len(E)
        span = self._spans.get(w)
        if span is None:
            pk, cols = self._packed_hcols
            span = self._spans[w] = BitSpan([pk.entry(col, w - 1) for col in cols])
        sols = [span.coordinates(x) for x in W]
        if None in sols:
            return None
        return field_vec_times_bits(E, sols, self.n)


class _NormalOrbitCode(GabidulinCode):
    """Gab_k(gamma) of full length n = m with gamma_j = alpha^[j-k], alpha normal.

    With beta the trace dual of alpha, h_j = beta^[j] is a parity vector:
    sum_j h_j gamma_j^[d] = Tr(beta alpha^[d-k]), which vanishes for the
    exponents d = -(n-k-1), ..., k-1 because d-k is then non-zero mod m.
    It is GabidulinCode.h up to a scalar, which the decoder's output does
    not depend on, and row r of its Moore matrix is h rotated left by r.
    Its presentation Cir_k(orbit) reverses the rows of gamma's Moore
    matrix, so _lead_solve reverses the Moore solve.
    """

    def __init__(self, gamma: RankVector, k: int, orbit):
        super().__init__(gamma, k)
        self.orbit = orbit  # frobenius_orbit(alpha, m), checked normal by the caller
        self.generator = partial_circulant(RankVector(self.ctx, orbit), k)

    def _lead_solve(self, c):
        return super()._lead_solve(c)[::-1]

    @cached_property
    def h(self) -> RankVector:
        beta = self.ctx._trace_dual_of_orbit(self.orbit)
        return RankVector(self.ctx, self.ctx.frobenius_orbit(beta, self.n)[::-1])

    @cached_property
    def _packed_hcols(self):
        """Column i of the parity check, h_i, ..., h_{i+n-k-1} cyclically, is
        a window of one packed row of h || h[:n-k]."""
        d1, h = self.n - self.k, self.h.values
        pk = _packed(self.ctx, d1)
        row, keep = pk.pack(h + h[:d1]), (1 << d1 * pk.S) - 1
        return pk, [row >> i * pk.S & keep for i in range(self.n)]


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
    return _NormalOrbitCode(gamma, k2, orbit)


class _OrbitCode(GabidulinCode):
    """Gab_k(g) with g_j = alpha^[n-1-j], n <= m, presented by its Moore matrix.

    Moore entry (i, j) is alpha^[n-1-j+i], read off alpha's m-orbit with no
    squaring.  With H(x) = sum_r h_{n-1-r} x^[r], sum_j h_j g_j^[d] =
    H(alpha^[d]), so H vanishes on W = <alpha^[lo+i] : i < n-1>,
    lo = -(n-k-1) mod m, and is a multiple of W's subspace polynomial:
    _newton's last row at the basis read off the orbit.  Scaled to
    h_{n-1} = 1 it is GabidulinCode.h entry for entry.
    """

    def __init__(self, g: RankVector, k: int, orbit):
        super().__init__(g, k)
        self.orbit = orbit  # frobenius_orbit(alpha, m)
        n = self.n
        self.generator = RankMatrix(g.ctx, [[self.frob(n - 1 - j + i) for j in range(n)]
                                            for i in range(k)])

    def frob(self, e: int) -> int:
        """alpha^[e], read off the m-orbit, which holds it at index -1-e mod m."""
        return self.orbit[(-1 - e) % len(self.orbit)]

    @cached_property
    def h(self) -> RankVector:
        """The subspace polynomial's coefficients, reversed and scaled."""
        ctx, n, k = self.ctx, self.n, self.k
        if n == k:
            return RankVector(ctx, [])
        L = _newton(ctx, [self.frob(i - (n - k - 1)) for i in range(n - 1)])[2][-1]  # lo + i
        pk = _packed(ctx, n)
        hv = RankVector(ctx, pk.unpack(pk.fold(pk.scal(L, ctx.inv(L & ctx.mask))))[::-1])
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
    decode.  Decoding takes every block through the inner code and the outer
    code through one reduced echelon form over the decoded blocks
    (block_decode).
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

    def block_decode(self, y, shared=False, errors=False):
        """Blockwise decoding: every inner block, then the outer code by one
        elimination over the decoded blocks.

        With shared (the repaired variant: its whole error has rank at
        most lam t + t1 <= t2, so every block's error has values in one
        such space), each later block is tried first in the value space of
        the first decoded nonzero error, then in full.  A codeword within
        t2 is unique, so the outcome is the same.  With errors, returns
        (mu, y - mu G) as a RankVector and a list: a decoded block's error
        is its decoder's, and only a failed block is encoded again.

        Decoded block j gives u_j = sum_l G1[l][j] M[l] for the k1 x k2
        message M, so the rows [G1[0][j], ..., G1[k1-1][j] | u_j] of the
        decoded blocks stack to [A | U] with A M = U.  Its reduced echelon
        form has the pivots range(k1) exactly when A has full column rank
        and one M fits every decoded block, and rows 0..k1-1 are then
        [I | M].  Otherwise no information set of decoded blocks gives an M
        that fits the others, so a miscorrected block raises DecodeFailure
        instead of yielding a wrong message.
        """
        ctx, k1, n2 = self.ctx, self.k1, self.n2
        y_vals = checked_values(ctx, y, self.n, "received")
        pk = _packed(ctx, k1 + self.k2)
        rows, failed, errs, E = [], [], [], None
        for j in range(self.n1):
            try:
                u, e = self.C2._decode_values(y_vals[j * n2 : (j + 1) * n2], E)
            except DecodeFailure:
                failed.append(j)
                continue
            if shared and not E:
                E = [v for v, _ in BitSpan(e).pivots.values()]
            rows.append(pk.pack([row[j] for row in self.G1.rows] + u))
            errs += e
        if _rref_packed(ctx, rows, k1 + self.k2) != list(range(k1)):
            raise DecodeFailure(
                f"no information set of decoded blocks agrees with the others "
                f"(failed blocks: {failed})",
                failed_blocks=failed,
            )
        mu = RankVector(ctx, [v for row in rows[:k1] for v in pk.unpack(row)[k1:]])
        if not errors:
            return mu
        for j in failed:
            u = pk.lincomb([row[j] for row in self.G1.rows], rows[:k1])[k1:]
            c = self.C2.generator.left_mul_values(u)
            errs[j * n2 : j * n2] = [a ^ b for a, b in zip(y_vals[j * n2 : (j + 1) * n2], c)]
        return mu, errs
