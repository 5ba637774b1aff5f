import dataclasses
import time

import pytest

from gabkron import ranklinalg as rl, scheme as sc
from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import CirculantGrid, RankMatrix, RankVector, circulant_block_invert


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
