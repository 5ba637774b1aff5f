import dataclasses
import functools
import operator
import time

import pytest

from gabkron import audit, ranklinalg as rl, scheme as sc
from gabkron.gabcodes import DecodeFailure
from gabkron.gf2m import FieldCtx, _bit_rank
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import (
    BitMatrix,
    CirculantGrid,
    RankMatrix,
    RankVector,
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


# The referee of gf2m.BitSpan: field elements transposed into the columns
# of a GF(2) matrix, which a Gauss–Jordan elimination brings to reduced
# echelon form.


def expand_over_base(vals, m):
    """m x n matrix over GF(2); column j holds the coefficients of vals[j]."""
    rows = [0] * m
    for j, v in enumerate(vals):
        for i in range(m):
            rows[i] |= (v >> i & 1) << j
    return BitMatrix(m, len(vals), rows)


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


def kernel_gf2(mat):
    """Basis of the right kernel of a BitMatrix, as column bitmasks."""
    rows = list(mat.rows)
    pivots = gauss_jordan_gf2(rows, mat.ncols)
    basis = []
    for free in sorted(set(range(mat.ncols)) - set(pivots)):
        v = 1 << free
        for ri, col in enumerate(pivots):
            if rows[ri] >> free & 1:
                v |= 1 << col
        basis.append(v)
    return basis


def solve_gf2(mat, rhs_cols):
    """y with mat · y = b for each b in rhs_cols (bit i for row i), free
    unknowns zero, or None where the system is inconsistent.  Each
    right-hand side rides along in one Gauss–Jordan elimination."""
    n = mat.ncols
    rows = []
    for i, row in enumerate(mat.rows):
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
    pivots, W = rl._solve_packed(ctx, rows, w + 1)
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
    return rl.field_vec_times_bitmatrix(C.ctx, E, rl.BitMatrix(w, C.n, Y)), W


def systematic_form_against_rref(kp):
    """Keygen's systematic form of a repaired key's M0 = (G + X) P^-1
    against the reduced echelon form of [M0 | I_k]: the same leading pivots
    and every row, and S M0 = [I_k | N] for the key's N and S.  Returns the
    seconds each took."""
    p = kp.pk.params
    pk, rows = sc._repaired_m0_rows(kp.code, kp.x_witness.X, circulant_block_invert(kp.sk.P))
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
    I = RankMatrix.identity(pk.ctx, p.k)
    assert kp.sk.S.mul(M0).rows == [e + row for e, row in zip(I.rows, kp.pk.matrix.rows)]
    return schur_s, rref_s


def inconsistent_secret_key(sk, part):
    """sk with one part of its secret tuple replaced by a degenerate one."""
    ctx = sk.G1.ctx
    if part == "S":  # singular scrambler
        return dataclasses.replace(sk, S=zero_matrix(ctx, sk.S.nrows, sk.S.ncols))
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
