import copy
import dataclasses
import functools
import itertools
import operator
import time

import pytest

from gabkron import audit, gabcodes as gc, keyio, ranklinalg as rl, scheme as sc
from gabkron.gabcodes import DecodeFailure
from gabkron.gf2m import FieldCtx, _bit_rank, _poly_mulmod
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import (
    CirculantGrid,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    circulant,
    circulant_block_invert,
)


@pytest.fixture
def ctx4():
    return FieldCtx(4)


@pytest.fixture
def ctx6():
    return FieldCtx(6)


@pytest.fixture
def ctx8():
    return FieldCtx(8)


@pytest.fixture
def rng():
    return SeededRng(b"gabkron-tests")


def fresh_rng(label: bytes) -> SeededRng:
    return SeededRng(b"gabkron-tests/" + label)


# The referee of gf2m.MODULI: the search for the lexicographically smallest
# irreducible polynomial of minimal weight that built the table.


def poly_gcd(a, b):
    """gcd of two GF(2) polynomials held as ints."""
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
            continue
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def is_irreducible(poly: int, m: int) -> bool:
    """Deterministic irreducibility test for a degree-m polynomial over GF(2).

    Checks that x^(2^i) - x shares no factor with poly for i up to m/2,
    which rules out irreducible factors of every degree below m.
    """
    if poly >> m != 1 or not poly & 1:
        return False
    if m == 1:
        return True
    r = 2  # the polynomial x
    for _ in range(m // 2):
        r = _poly_mulmod(r, r, poly, m)
        if poly_gcd(r ^ 2, poly) != 1:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible of degree m with minimal weight."""
    if m == 1:
        return 0b10
    top = 1 << m
    for a in range(1, m):
        cand = top | (1 << a) | 1
        if is_irreducible(cand, m):
            return cand
    for c in range(3, m):
        for b in range(2, c):
            for a in range(1, b):
                cand = top | (1 << c) | (1 << b) | (1 << a) | 1
                if is_irreducible(cand, m):
                    return cand
    raise ValueError(f"no low-weight irreducible of degree {m}")


def vec_mat(u, M):
    """The product u·M of a RankVector by a RankMatrix, as a RankVector."""
    if len(u) != M.nrows:
        raise ValueError("dimension mismatch")
    return RankVector(M.ctx, M.left_mul_values(u.values))


def vec_add(u, v):
    """The entrywise sum of two RankVectors of one length and field."""
    assert u.ctx == v.ctx and len(u) == len(v)
    return RankVector(u.ctx, [a ^ b for a, b in zip(u.values, v.values)])


def zero_matrix(ctx, r, c):
    return RankMatrix(ctx, [[0] * c for _ in range(r)])


def block_matrix(grid):
    """The matrix of a grid of RankMatrix blocks, each block row of one
    height, over the first block's field."""
    return RankMatrix(grid[0][0].ctx, [
        [v for b in brow for v in b.rows[i]]
        for brow in grid for i in range(brow[0].nrows)
    ])


# The dense referees of the product code and the disguise: the k x n
# generator G = G1 (x) C2.generator that decryption never builds, and G + X.


def product_encode(K, u):
    """u·G for the dense generator G of the KroneckerCode K."""
    return vec_mat(u, audit.product_generator(K))


def dense_g_plus_x(kp):
    """G + X of a key pair, both dense, as the paper defines them."""
    G, X = audit.product_generator(kp.code), kp.x_witness.X.dense()
    return RankMatrix(G.ctx, [[a ^ b for a, b in zip(g, x)] for g, x in zip(G.rows, X.rows)])


# Exhaustive referees for tiny fields.


def decode_bruteforce(code, y):
    """Nearest codeword of a GabidulinCode by exhaustive search: (u, e) as
    RankVectors, or DecodeFailure past the radius."""
    ctx = code.ctx
    y_vals = rl.checked_values(ctx, y, code.n, "received")
    best = None
    for idx in range(1 << (ctx.m * code.k)):
        u = [(idx >> (ctx.m * i)) & ctx.mask for i in range(code.k)]
        d = RankVector(ctx, [a ^ b for a, b in zip(y_vals, code.encode(u).values)])
        w = d.rank_weight()
        if best is None or w < best[0]:
            best = (w, RankVector(ctx, u), d)
    w, u, e = best
    if w > code.radius:
        raise DecodeFailure("no codeword within the radius (exhaustive)")
    return u, e


def block_decode_by_subsets(K, y):
    """KroneckerCode.block_decode by a search over information sets: the
    outer code is solved over each k1-subset of decoded blocks in
    lexicographic order, and the first message that re-encodes to every
    decoded block outside its subset is returned."""
    ctx, G1 = K.ctx, K.G1.rows
    y_vals = rl.checked_values(ctx, y, K.n, "received")
    decoded, failed = {}, []  # j -> message of block j w.r.t. C2.generator
    for j in range(K.n1):
        try:
            decoded[j], _ = K.C2._decode_values(y_vals[j * K.n2 : (j + 1) * K.n2])
        except DecodeFailure:
            failed.append(j)
    for cand in itertools.combinations(decoded, K.k1):
        # row c of A is column cand[c] of G1, so A M = (u_j for j in cand)
        A = RankMatrix(ctx, [[row[j] for row in G1] for j in cand])
        try:
            M = A.invert().mul(RankMatrix(ctx, [decoded[j] for j in cand]))
        except SingularMatrixError:
            continue
        if all(M.left_mul_values([row[j] for row in G1]) == u
               for j, u in decoded.items() if j not in cand):
            return RankVector(ctx, [v for row in M.rows for v in row])
    raise DecodeFailure(
        f"no information set of decoded blocks agrees with the others "
        f"(failed blocks: {failed})",
        failed_blocks=failed,
    )


def brute_force_circulant_scrambler(M):
    """An invertible circulant S with S·M systematic, found by enumerating
    every circulant over the field, or None; for q^(m k) <= 65536."""
    ctx = M.ctx
    k = M.nrows
    if ctx.m * k > 16:
        raise ValueError("brute force limited to q^(m*k) <= 65536")
    ident = RankMatrix.identity(ctx, k)
    for idx in range(1, 1 << (ctx.m * k)):
        vec = [(idx >> (ctx.m * i)) & ctx.mask for i in range(k)]
        S = circulant(RankVector(ctx, vec))
        if S.mul(M).submatrix(0, 0, k, k) == ident:
            return S
    return None


def rref(M):
    """Reduced row echelon form of a RankMatrix by the packed kernel;
    returns (matrix, pivot column tuple)."""
    pk = rl._packed(M.ctx, M.ncols)
    rows = [pk.pack(r) for r in M.rows]
    pivots = rl._rref_packed(M.ctx, rows, M.ncols)
    return RankMatrix(M.ctx, [pk.unpack(r) for r in rows]), tuple(pivots)


# The referees of the packed-row kernel: the shift loops that _Packed.pack
# and _Packed.unpack replaced, and a sum of products taken one scal per
# term, as _Packed.lincomb did before _Packed.sum_products.


def pack_shift_loop(pk, vals):
    """vals[i] in slot i of one packed row, shifting the row once per slot."""
    p = 0
    for v in reversed(vals):
        p = (p << pk.S) | v
    return p


def unpack_shift_loop(pk, p):
    """The pk.L reduced-width entries of a packed row, one shift per slot."""
    return [(p >> (i * pk.S)) & pk.elem_mask for i in range(pk.L)]


def products_per_term(pk, pairs):
    """XOR of pk.scal(p, lam) over (lam, p) pairs, unfolded."""
    acc = 0
    for lam, p in pairs:
        if lam:
            acc ^= pk.scal(p, lam)
    return acc


def lincomb_per_term(pk, coeffs, prows):
    """sum_i coeffs[i] * prows[i] over reduced packed rows, unpacked."""
    return unpack_shift_loop(pk, pk.fold(products_per_term(pk, zip(coeffs, prows))))


# The referee of the circulant ring GF(2^m)[z]/(z^n - 1): Euclid on z^n - 1
# at full n, which cyc_inv and CirculantGrid.is_invertible ran before they
# moved to the cyclotomic factors of the odd part of n.


def cyc_inv_euclid(ctx, a):
    """Inverse of a modulo z^n - 1, n = len(a), or None if a is not a unit.

    Euclid on z^n - 1 and a over packed rows, slot i the coefficient of
    z^i: each division step clears the leading slot of r0 with one scal of
    r1, and the same steps on s keep r_i = s_i a mod z^n - 1.
    """
    n = len(a)
    pk = rl._packed(ctx, n + 1)
    S = pk.S
    r0, r1 = 1 | 1 << (n * S), pk.pack(a)
    s0, s1 = 0, 1
    while r1 >> S:  # deg r1 > 0
        d1 = (r1.bit_length() - 1) // S
        inv_lead = ctx.inv(pk.entry(r1, d1))
        d0 = (r0.bit_length() - 1) // S
        while d0 >= d1:  # d0 is -1 once r0 is zero
            f = ctx.mul(pk.entry(r0, d0), inv_lead)
            sh = (d0 - d1) * S
            r0 = pk.fold(r0 ^ pk.scal(r1, f) << sh)
            s0 = pk.fold(s0 ^ pk.scal(s1, f) << sh)
            d0 = (r0.bit_length() - 1) // S
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        return None  # gcd has positive degree
    return pk.unpack(pk.fold(pk.scal(s1, ctx.inv(r1))))[:n]


def cyclotomic_multiples(ctx, r):
    """r Phi_d mod z^n - 1, n = len(r), for each binary cyclotomic factor
    Phi_d of z^a - 1, a the odd part of n: none is a unit, whatever r is,
    and random inputs need not hit every factor."""
    n = len(r)
    out = []
    for _, phi, _ in rl._cyclotomic(n // (n & -n)):
        coeffs = [0] * n
        for i in range(phi.bit_length()):
            coeffs[i % n] ^= phi >> i & 1
        out.append(rl.cyc_mul(ctx, r, coeffs))
    return out


def ring_against_euclid(P, rng):
    """CirculantGrid.is_invertible and cyc_inv against cyc_inv_euclid at the
    block size n of the key's grid P: on det(P) and a random r, and on each
    of them times every Phi_d (cyclotomic_multiples); and P's own verdict,
    also with its first block row times each Phi_d, which makes its
    determinant a multiple of Phi_d.  Returns the seconds of the program
    and of the referee."""
    ctx, det = P.ctx, P._det()
    n = len(det)
    r = RankVector.random(ctx, n, rng).values
    inputs = [det, r] + cyclotomic_multiples(ctx, det) + cyclotomic_multiples(ctx, r)
    prog_s = ref_s = 0.0
    units = 0
    for a in inputs:
        t0 = time.perf_counter()
        inv = rl.cyc_inv(ctx, a)
        unit = CirculantGrid(ctx, [[a]], n).is_invertible()
        t1 = time.perf_counter()
        want = cyc_inv_euclid(ctx, a)
        ref_s += time.perf_counter() - t1
        prog_s += t1 - t0
        assert inv == want
        assert unit == (want is not None)
        units += unit
    assert 1 <= units <= 2  # det(P), and r when it is a unit
    assert P.is_invertible()
    for row0 in zip(*(cyclotomic_multiples(ctx, g) for g in P.gens[0])):
        assert not CirculantGrid(ctx, [list(row0)] + P.gens[1:], P.k).is_invertible()
    return prog_s, ref_s


# The referee of gf2m.BitSpan: field elements transposed into the columns
# of a GF(2) matrix, which a Gauss–Jordan elimination brings to reduced
# echelon form.


def expand_over_base(vals, m):
    """m x n matrix over GF(2) as row bitmasks, n = len(vals); column j
    holds the coefficients of vals[j]."""
    rows = [0] * m
    for j, v in enumerate(vals):
        for i in range(m):
            rows[i] |= (v >> i & 1) << j
    return rows


def gauss_jordan_gf2(rows, ncols):
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


def kernel_gf2(rows, ncols):
    """Basis of the right kernel of a GF(2) matrix of ncols columns held as
    row bitmasks, as column bitmasks."""
    rows = list(rows)
    pivots = gauss_jordan_gf2(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = 1 << free
        for ri, col in enumerate(pivots):
            if rows[ri] >> free & 1:
                v |= 1 << col
        basis.append(v)
    return basis


def solve_gf2(mat, n, rhs_cols):
    """y with mat · y = b for each b in rhs_cols (bit i for row i), free
    unknowns zero, or None where the system is inconsistent; mat has n
    columns and is held as row bitmasks.  Each right-hand side rides along
    in one Gauss–Jordan elimination."""
    rows = []
    for i, row in enumerate(mat):
        for t, b in enumerate(rhs_cols):
            row |= (b >> i & 1) << (n + t)
        rows.append(row)
    pivots = gauss_jordan_gf2(rows, n)
    bad = 0
    for row in rows[len(pivots):]:
        bad |= row >> n
    return [None if bad >> t & 1 else
            sum(1 << col for r, col in enumerate(pivots) if rows[r] >> (n + t) & 1)
            for t in range(len(rhs_cols))]


def same_span(a, b):
    """True when the ints in a and in b are bases of one GF(2) space."""
    r = _bit_rank(a)
    return r == len(a) == len(b) == _bit_rank(b) == _bit_rank(list(a) + list(b))


# The factor-once solve of x·A = b by a recorded LU, which the program ran
# for the inner code's leading block and the repaired S before the Newton
# solve and M0's rows replaced it: the referee of both.


def echelon_recorded(ctx, rows, ncols):
    """ranklinalg._echelon_packed with its steps recorded; returns (pivots,
    lu), one record per row, which moves with its row: [original index, the
    multipliers of the pivot rows subtracted from it, in order, then its own
    pivot inverse if it became a pivot].  LeftSolver replays the records."""
    pk = rl._packed(ctx, ncols)
    S, smask, mul = pk.S, pk.slot_mask, pk.mul
    reduce = ctx.reduce
    nrows = len(rows)
    lu = [[i] for i in range(nrows)]
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
        lu[r], lu[piv] = lu[piv], lu[r]
        prow = pk.fold(rows[r])
        pinv = prow & smask
        if pinv != 1:
            pinv = ctx.inv(pinv)
            prow = pk.fold(pk.scal(prow, pinv))
        rows[r] = prow << (col * S)
        lu[r].append(pinv)
        tab = pk.table(prow >> S, nrows - r - 1)
        for i in range(r + 1, nrows):
            row = rows[i]
            f = reduce(row & smask)
            row >>= S
            rows[i] = row ^ mul(tab, f) if f else row
            lu[i].append(f)
        pivots.append(col)
        r += 1
    return pivots, lu


def pivot_columns(pk, rows, pivots):
    """Packed column pivots[r] of the echelon rows above row r, for each r."""
    entry = pk.entry
    return [pk.pack([entry(row, col) for row in rows[:r]]) for r, col in enumerate(pivots)]


class LeftSolver:
    """A k x k matrix A factored once to solve x·A = b for many b.

    The build runs one forward elimination of A^T with its steps recorded
    (echelon_recorded), a permuted LU factoring: with the rows in their
    final order Q, Q A^T = L U for U upper triangular with a unit diagonal
    and L lower triangular, holding the pivots on its diagonal and the
    multipliers below it.  x·A = b is A^T x^T = b^T, so each solve permutes
    b by Q and runs two passes of ranklinalg._substitute: L z = Q b^T down
    the packed columns of L, then U x^T = z up those of U.
    Raises SingularMatrixError, with the rank of A, when A is singular.
    """

    def __init__(self, A):
        if A.nrows != A.ncols:
            raise SingularMatrixError("only square matrices invert")
        ctx, k = A.ctx, A.nrows
        pk = rl._packed(ctx, k)
        rows = [pk.pack(col) for col in zip(*A.rows)]
        pivots, lu = echelon_recorded(ctx, rows, k)
        if len(pivots) < k:
            rank = len(pivots)
            raise SingularMatrixError(f"matrix is singular (rank {rank})", rank=rank)
        self._pk = pk
        self._order = [rec[0] for rec in lu]
        self._pinvs = [rec[-1] for rec in lu]
        # packed column s of L: the multipliers of pivot s in the rows below it
        self._lcols = [pk.pack([0] * (s + 1) + [lu[i][s + 1] for i in range(s + 1, k)])
                       for s in range(k)]
        # A is invertible, so the pivots are columns 0..k-1
        self._ucols = pivot_columns(pk, rows, pivots)

    def solve(self, b) -> list:
        """x with x·A = b, for b a list of k reduced elements."""
        pk = self._pk
        z = rl._substitute(pk, pk.pack([b[i] for i in self._order]), self._lcols, self._pinvs)
        return rl._substitute(pk, pk.pack(z), self._ucols, up=True)


def solve_packed(ctx, rows, ncols):
    """Solve packed augmented rows whose last column is the right-hand side,
    by the generic packed echelon: the referee of the program's Moore solves.

    Echelon form, then the upward pass of _substitute for the last column
    only, whose unknowns go to their pivot columns.  Returns the pivots and
    the ncols - 1 unknowns with free variables zero, or None for the
    unknowns when the last column is a pivot (no solution).
    """
    pk = rl._packed(ctx, ncols)
    pivots = rl._echelon_packed(ctx, rows, ncols)
    rhs = ncols - 1
    if pivots and pivots[-1] == rhs:
        return pivots, None
    acc = pk.pack([pk.entry(row, rhs) for row in rows[: len(pivots)]])
    x = [0] * rhs
    for col, v in zip(pivots, rl._substitute(pk, acc, pivot_columns(pk, rows, pivots), up=True)):
        x[col] = v
    return pivots, x


def dual_vector_echelon(code):
    """The referee of the parity vector h of a code: the kernel of the
    n-1 Moore rows (g^[lo], ..., g^[lo+n-2]), lo = -(n-k-1) mod m, by the
    packed echelon, whose leading n-1 columns are the pivots, with
    h_{n-1} = 1."""
    ctx, n, k = code.ctx, code.n, code.k
    if n == k:
        return RankVector(ctx, [])
    pk = rl._packed(ctx, n)
    row = pk.pack(code.g.values)
    for _ in range(-(n - k - 1) % ctx.m):
        row = pk.sqr(row)
    rows = [row]
    for _ in range(n - 2):
        rows.append(pk.sqr(rows[-1]))
    pivots, h = solve_packed(ctx, rows, n)
    assert pivots == list(range(n - 1))
    return RankVector(ctx, h + [1])


def key_equation_echelon(code, s):
    """The referee of GabidulinCode._key_equation: a monic annihilator
    Gamma of q-degree t of the error values, from the rows
    (s_j, s_{j-1}^[1], ..., s_{j-t}^[t]), j >= t, each the one before
    squared and shifted up one slot, solved by the generic packed echelon.
    gamma[i] is the coefficient of x^[i], i <= t; None when the system has
    no solution.  Its root space holds the error values but can be larger
    than the error's rank, and need not hold any nonzero value."""
    ctx, t = code.ctx, code.radius
    pk = rl._packed(ctx, t + 1)
    keep = (1 << (t + 1) * pk.S) - 1
    rows = []
    row = 0
    for j, sj in enumerate(s):
        row = (pk.sqr(row) << pk.S | sj) & keep
        if j >= t:
            rows.append(row)
    _, gamma = solve_packed(ctx, rows, t + 1)
    return None if gamma is None else gamma + [1]


def decode_echelon(code, y):
    """code.decode(y) with its error values taken from the whole root space
    of key_equation_echelon's annihilator, then through the code's own
    _error_coordinates and _locate and decode's re-encode check."""
    def error_vector(s):
        gamma = key_equation_echelon(code, s)
        E = [] if gamma is None else gc._root_space(code.ctx, gamma)
        W = code._error_coordinates(s, E)  # None when E is empty
        e_vals = None if W is None else code._locate(E, W)
        if e_vals is None:
            raise DecodeFailure("no error through the echelon key equation")
        return e_vals

    ref = copy.copy(code)
    ref._error_vector = error_vector
    return ref.decode(y)


def assert_decode_matches_echelon(C, rng, planted, trials=1, words=2):
    """C.decode against decode_echelon.  Codewords plus errors of each rank
    in planted, trials times: up to the radius t both routes return the
    planted pair.  Past t, and on `words` random words, both raise
    DecodeFailure or both return one pair, which re-encodes to the word
    within the radius."""
    ctx, t = C.ctx, C.radius

    def outcome(decode, y):
        try:
            return decode(y)
        except DecodeFailure:
            return None

    ys = []
    for r in planted:
        for _ in range(trials):
            u = RankVector.random(ctx, C.k, rng)
            e = sc.sample_rank_error(ctx, C.n, min(r, C.n), rng)
            ys.append((r, (u, e), vec_add(C.encode(u), e)))
    ys += [(None, None, RankVector.random(ctx, C.n, rng)) for _ in range(words)]
    for r, planted_pair, y in ys:
        got = outcome(C.decode, y)
        assert got == outcome(functools.partial(decode_echelon, C), y)
        if r is not None and r <= t:
            assert got == planted_pair
        elif got is not None:
            assert vec_add(C.encode(got[0]), got[1]) == y and got[1].rank_weight() <= t


def error_coordinates_echelon(code, s, E):
    """The referee of GabidulinCode._error_coordinates: the w x w Moore
    system s_j = sum_p E_p X_p^[j], j < w, with equation j raised to the
    power [w-1-j] so that every unknown reads W_p = X_p^[w-1], solved by
    the generic packed echelon.  None when w = 0, w > radius or the system
    is singular (E dependent)."""
    ctx = code.ctx
    w = len(E)
    if w == 0 or w > code.radius:
        return None
    # filling rows in rising-shift order costs one squaring pass per row
    rows = [0] * w
    pk = rl._packed(ctx, w + 1)
    efr = list(E)
    for sh in range(w):
        j = w - 1 - sh
        if sh:
            efr = [ctx.sqr(x) for x in efr]
        rows[j] = pk.pack(efr + [ctx.frobenius(s[j], sh)])
    pivots, W = solve_packed(ctx, rows, w + 1)
    if pivots != list(range(w)):
        return None
    return W


def located_error(C, E, rng):
    """e = sum_p E_p Y_p for the values E and random locations Y of rank
    w = len(E), and W_p = sum_i Y_{p,i} h_i^[w-1], what the code's
    _error_coordinates must return for e's syndromes."""
    w = len(E)
    while True:
        Y = [rng.bits(C.n) for _ in range(w)]
        if _bit_rank(Y) == w:
            break
    hrow = C.parity_check.rows[w - 1]
    W = [functools.reduce(operator.xor, (h for i, h in enumerate(hrow) if y >> i & 1)) for y in Y]
    return rl.field_vec_times_bits(E, Y, C.n), W


def systematic_form_against_rref(kp):
    """Keygen's systematic form of a repaired key's M0 = (G + X) P^-1
    against the reduced echelon form of [M0 | I_k]: the same leading pivots
    and every row, and M0[:, :k] [I_k | N] = M0 for the key's N.  Returns
    the seconds each took."""
    p = kp.pk.params
    pk, rows = m0_rows(kp, circulant_block_invert(kp.sk.P))
    got = list(rows)
    t0 = time.perf_counter()
    pivots = rl._systematic_packed(pk.ctx, got, p.n)
    schur_s = time.perf_counter() - t0
    want = [row | 1 << ((p.n + r) * pk.S) for r, row in enumerate(rows)]
    t0 = time.perf_counter()
    assert rl._rref_packed(pk.ctx, want, p.n + p.k) == pivots == list(range(p.k))
    rref_s = time.perf_counter() - t0
    assert got == want
    M0 = RankMatrix(pk.ctx, [pk.unpack(row) for row in rows])
    assert M0.submatrix(0, 0, p.k, p.k).mul(systematic(kp.pk.matrix)) == M0
    return schur_s, rref_s


def m0_rows(kp, Pinv):
    """(packer, rows) of a repaired key pair's M0 = (G + X) P^-1: the
    generators of its code, z_0 and P^-1 expanded by _repaired_m0_rows."""
    return sc._repaired_m0_rows(kp.code, sc._repaired_m0_gens(kp.code, kp.sk.z0.values, Pinv))


def m0_gens(sk):
    """Generators (packer, ys, xp) of a repaired key's M0 = (G + X) P^-1,
    built by keygen's _repaired_m0_gens from P^-1, which no decrypter
    takes."""
    return sc._repaired_m0_gens(sk.decrypter().code, sk.z0.values, circulant_block_invert(sk.P))


def times_m0(code, gens, u):
    """u M0 from M0's generators, as a repaired decrypter read it before it
    read e off e P: u G P^-1 = sum_j rot(sum_r u_{j,r} y_r, j n2) for
    u_j = sum_i G1[i][j] u_i, u_i the k2-value parts of u, and u X P^-1
    repeats s Cir_t1(xp), s_r the sum of the u_rho, rho = r mod t1."""
    pk, ys, xp = gens
    n, k2, t1 = code.n, code.k2, len(xp)
    p2 = rl._packed(pk.ctx, k2)
    parts = [p2.pack(u[i : i + k2]) for i in range(0, code.k, k2)]
    us = [p2.unpack(p2.fold(p2.sum_products(zip(col, parts)))) for col in zip(*code.G1.rows)]
    acc = 0
    for c in range(0, k2, rl._SUM_CHUNK):  # one window table of y_r for every u_j
        tabs = [pk.table(y) for y in ys[c : c + rl._SUM_CHUNK]]
        for j, uj in enumerate(us):
            acc ^= pk.rotate(pk.mul_sum(tabs, uj[c : c + rl._SUM_CHUNK]), j * code.n2, n)
    s = rl._packed(pk.ctx, t1).unpack(rl._fold_slots(pk.S, pk.pack(u), t1))
    ux = CirculantGrid(pk.ctx, [[xp]], t1).left_mul_values(s)
    return [a ^ b for a, b in zip(pk.unpack(pk.fold(acc)), ux * (n // t1))]


def decrypt_by_m0(sk, c_vals, gens=None):
    """The referee of a repaired decrypt: w = mu M0 for the decoded blocks
    mu (times_m0), and w[:k] only when rk(c - w) <= t, else the
    DecodeFailure that the decrypter raises."""
    p, dec = sk.params, sk.decrypter()
    mu = dec.code.block_decode(sk.P.left_mul_values(c_vals))
    w = times_m0(dec.code, gens or m0_gens(sk), mu.values)
    r = _bit_rank([a ^ b for a, b in zip(c_vals, w)])
    if r > p.t:
        raise DecodeFailure(f"c - m G_pub has rank {r} > t = {p.t}")
    return RankVector(mu.ctx, w[: p.k])


def read_against_m0(sk, words):
    """Every word of c values decrypted by sk's decrypter, whose read of e
    off e P falls back to P^-1 only when it fails, against decrypt_by_m0:
    the same message or the same DecodeFailure text and blocks.  Returns
    how many reads fell back."""
    dec, gens = sk.decrypter(), m0_gens(sk)
    fallbacks = []
    read = dec._read_error

    def outcome(decrypt, *args):
        try:
            return decrypt(*args).values
        except DecodeFailure as exc:
            return str(exc), exc.failed_blocks

    def counting(e1):
        e = read(e1)
        fallbacks.append(e is None)
        return e

    dec._read_error = counting
    try:
        for c in words:
            assert outcome(dec.decrypt, c) == outcome(decrypt_by_m0, sk, c, gens)
    finally:
        del dec._read_error
    return sum(fallbacks)


def words_of_rank(kp, rng, ranks, draws):
    """c values m G_pub + e of a repaired key pair for rk(e) in ranks, draws
    each: m = 0 first, whose blocks carry no part of X, then random m."""
    p, ctx = kp.pk.params, kp.pk.matrix.ctx
    pko, prows = kp.pk.matrix.packed_rows()
    words = []
    for r in ranks:
        for i in range(draws):
            m = [0] * p.k if i == 0 else RankVector.random(ctx, p.k, rng).values
            e = sc.sample_rank_error(ctx, p.n, r, rng).values
            words.append([a ^ b for a, b in zip(m + pko.lincomb(m, prows), e)])
    return words


def m0_read_against_rows_and_dense(kp, M0, rng, trials=4):
    """The referee's u M0, read off M0's generators (times_m0), against u
    times M0's rows expanded by _repaired_m0_rows and u times the dense
    M0, for random u."""
    gens = m0_gens(kp.sk)
    pk, rows = sc._repaired_m0_rows(kp.code, gens)
    for _ in range(trials):
        u = [rng.element(M0.ctx.m) for _ in range(M0.nrows)]
        assert times_m0(kp.code, gens, u) == pk.lincomb(u, rows) == M0.left_mul_values(u)


def systematic(N):
    """The dense public generator [I_k | N] of a repaired key's N, which
    the key holds as packed rows."""
    N = N.dense()
    return block_matrix([[RankMatrix.identity(N.ctx, N.nrows), N]])


def packed_parse_against_entries(blob):
    """A repaired public key file parsed into N's packed rows against its
    entries unpacked one by one and packed row by row, and each row
    gathered back against pack_elements of its entries; the file one byte
    short, and with a padding bit set where the payload has any, raises
    the FormatError of the entry-wise unpack.  Returns the seconds that
    the parse and the entry-wise unpack and pack took."""
    t0 = time.perf_counter()
    pk = keyio.parse_public_key(blob)
    parse_s = time.perf_counter() - t0
    p = pk.params
    w, payload = p.n - p.k, blob[keyio._HEADER_LEN :]
    t0 = time.perf_counter()
    vals = keyio.unpack_elements(payload, p.m, p.k * w)
    packer, rows = pk.matrix.packed_rows()
    want = [packer.pack(vals[i * w : (i + 1) * w]) for i in range(p.k)]
    entries_s = time.perf_counter() - t0
    assert packer.L == w
    assert rows == want
    assert [packer.gather(row) for row in rows] == [
        int.from_bytes(keyio.pack_elements(vals[i * w : (i + 1) * w], p.m), "little")
        for i in range(p.k)]
    assert keyio.serialize_public_key(pk) == blob

    def refusal(parse, data):
        with pytest.raises(keyio.FormatError) as exc:
            parse(data)
        return str(exc.value)

    def unpack(data):
        return keyio.unpack_elements(data[keyio._HEADER_LEN :], p.m, p.k * w)

    damaged = [blob[:-1]]
    if p.k * w * p.m % 8:
        damaged.append(blob[:-1] + bytes([blob[-1] | 0x80]))
    for data in damaged:
        assert refusal(keyio.parse_public_key, data) == refusal(unpack, data)
    return parse_s, entries_s


def secret_s(sk):
    """S = M0[:, :k]^-1 of a repaired key, read off [I_k | N | S], the
    systematic form of M0's rows expanded from its generators (m0_gens),
    as keygen took it when the key held S in place of z_0."""
    p = sk.params
    pk, got = sc._repaired_m0_rows(sk.decrypter().code, m0_gens(sk))
    assert rl._systematic_packed(pk.ctx, got, p.n) == list(range(p.k))
    unpack = rl._packed(pk.ctx, p.n + p.k).unpack
    return RankMatrix(pk.ctx, [unpack(row)[p.n :] for row in got])


def secret_key_v1(sk):
    """The version-1 file of a repaired key: G1, g2, b and then S, row by
    row, where version 2 holds z_0."""
    p = sk.params
    vals = [v for row in sk.G1.rows for v in row] + sk.g2.values + sk.P.gens[0][0]
    vals += [v for row in secret_s(sk).rows for v in row]
    return keyio._header(p, 1) + keyio.pack_elements(vals, p.m)


def m0_read_against_s_solve(sk, rng, trials=4):
    """The referee's (u M0)[:k], read off M0's generators (times_m0),
    against LeftSolver(S).solve(u), S = secret_s(sk).  Returns the seconds
    of the read and of the solve, summed over the trials."""
    p = sk.params
    code, gens = sk.decrypter().code, m0_gens(sk)
    solver = LeftSolver(secret_s(sk))
    read_s = solve_s = 0.0
    for _ in range(trials):
        u = [rng.element(p.m) for _ in range(p.k)]
        t0 = time.perf_counter()
        w = times_m0(code, gens, u)
        t1 = time.perf_counter()
        x = solver.solve(u)
        solve_s += time.perf_counter() - t1
        read_s += t1 - t0
        assert w[: p.k] == x
    return read_s, solve_s


def inconsistent_secret_key(sk, part):
    """sk with one part of its secret tuple replaced by a degenerate one."""
    ctx = sk.G1.ctx
    if part == "z0":  # one value too many for X's row 0
        return dataclasses.replace(sk, z0=RankVector(ctx, sk.z0.values + [1]))
    if part == "g2":  # rank weight 1, not a Gabidulin generator
        return dataclasses.replace(sk, g2=RankVector(ctx, [1] * len(sk.g2)))
    if part == "g2-orbit":  # two entries swapped: full rank weight, but no orbit
        g = sk.g2.values
        return dataclasses.replace(sk, g2=RankVector(ctx, [g[1], g[0]] + g[2:]))
    if part == "P":  # all-zero generators: singular right scrambler
        gens = [[[0] * len(a) for a in row] for row in sk.P.gens]
        return dataclasses.replace(sk, P=CirculantGrid(ctx, gens, sk.P.k))
    if part == "G1":  # rank-deficient outer matrix
        return dataclasses.replace(sk, G1=zero_matrix(ctx, sk.G1.nrows, sk.G1.ncols))
    if part == "alpha":  # orbit of rank 1, not a normal element
        return dataclasses.replace(sk, alpha=1)
    raise ValueError(part)


@pytest.fixture
def toy_improved():
    return setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
                 t=1, t1=1, lam=3, lam_p=2)


@pytest.fixture
def toy_improved_wide():
    # n1 > k1 leaves spare blocks for information-set retries
    return setup(variant="improved", m=12, n1=3, k1=2, n2=12, k2=4,
                 t=1, t1=1, lam=3, lam_p=2)


@pytest.fixture
def toy_repaired():
    return setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4,
                 t1=2, lam=2)
