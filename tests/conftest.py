import dataclasses
import time

import pytest

from gabkron import ranklinalg as rl, scheme as sc
from gabkron.gf2m import FieldCtx, _bit_rank
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import (
    BitMatrix,
    CirculantGrid,
    RankMatrix,
    RankVector,
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
        return dataclasses.replace(sk, S=RankMatrix.zero(ctx, sk.S.nrows, sk.S.ncols))
    if part == "g2":  # rank weight 1, not a Gabidulin generator
        return dataclasses.replace(sk, g2=RankVector(ctx, [1] * len(sk.g2)))
    if part == "g2-orbit":  # two entries swapped: full rank weight, but no orbit
        g = sk.g2.values
        return dataclasses.replace(sk, g2=RankVector(ctx, [g[1], g[0]] + g[2:]))
    if part == "P":  # all-zero generators: singular right scrambler
        gens = [[[0] * len(a) for a in row] for row in sk.P.gens]
        return dataclasses.replace(sk, P=CirculantGrid(ctx, gens, sk.P.k))
    if part == "G1":  # rank-deficient outer matrix
        return dataclasses.replace(sk, G1=RankMatrix.zero(ctx, sk.G1.nrows, sk.G1.ncols))
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
