"""The GabKron public-key scheme: key generation, encryption, decryption.

Both variants disguise the product-code generator G as
G_pub = S (G + X) P^{-1} (repaired; S makes it systematic) or
G_pub = (G + X) P^{-1} (improved; everything partial-circulant-block).

Both variants hold P as a CirculantGrid, one generator per block: n1 x n1
blocks in the improved variant, the single block Cir(b) in the repaired
one.  Its inverse comes from the circulant ring, and the decrypter reads
P's packed rows straight from the grid.  In the improved variant G, X and
G_pub are grids too, from key generation to the decrypter: block (i, j)
of G is Cir_k2(G1[i][j] g2), so G_pub's generators come from one product
in the circulant ring, and the dense matrices are never built.

The inner Gabidulin code carries its own presentation, and block messages
are written in it: Cir_k2 of the normal orbit of alpha in the improved
variant (gabcodes.from_normal_orbit), the Moore matrix of g2 in the
repaired one.  Key generation never builds the decoder; a decrypter build
makes the codes and P's packed rows, and the inner code's parity check and
message inverse are built on the first decrypt.

X is built so that any message combination of an in-information-set
column block keeps rank at most t1: each such block factors through one
shared GF(2) transform, and its rows follow the shift recursion
y_{r+1} = y_r T' T^{-1}, which makes the block a partial circulant whose
row pattern repeats with period t1.  P draws its entries from small
GF(2)-subspaces so that e P_Ci has rank at most lam' * t (improved, blocks
in the information set) or lam * t (repaired), keeping every decoded block
inside the Gabidulin radius t2.  Each randomized construction retries up
to a fixed budget and raises GenerationError past it.  Key pairs keep the
X factorization (XWitness) and the subspaces in memory as evidence for
property checks; the tests check them.

encrypt and decrypt take messages and ciphertext values as a RankVector
or a list of ints, and check the length and every entry once, on entry
(ranklinalg.checked_values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2m import FieldCtx, _bit_rank
from .gabcodes import DecodeFailure, GabidulinCode, KroneckerCode, from_normal_orbit
from .params import ParamSet
from .ranklinalg import (
    BitMatrix,
    CirculantGrid,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    checked_values,
    circulant_block_compose,
    circulant_block_invert,
    column_rank_q,
    field_vec_times_bitmatrix,
    reflect,
)


class GenerationError(RuntimeError):
    """A randomized construction exhausted its retry budget."""


class DecryptFailure(Exception):
    """Decryption could not recover the message; lists undecodable blocks."""

    def __init__(self, message, failed_blocks=None):
        super().__init__(message)
        self.failed_blocks = failed_blocks or []


# ---------------------------------------------------------------------------
# subspaces


@dataclass
class SubspaceSpec:
    """Basis of the lambda-dimensional space V and the per-block choices U_i."""

    basis: tuple
    selections: dict  # column block index -> tuple of basis elements (i in I)

    @classmethod
    def sample(cls, ctx: FieldCtx, lam: int, lam_p: int | None, info_set, rng):
        basis = sample_subspace_basis(ctx, lam, rng)
        selections = {}
        if lam_p is not None:
            for i in info_set:
                selections[i] = tuple(rng.sample(basis, lam_p))
        return cls(basis=basis, selections=selections)

    def span_for_block(self, i) -> tuple:
        return self.selections.get(i, self.basis)

    def member(self, elems, rng) -> int:
        bits = rng.bits(len(elems))
        v = 0
        for j, e in enumerate(elems):
            if bits >> j & 1:
                v ^= e
        return v


def sample_subspace_basis(ctx: FieldCtx, lam: int, rng) -> tuple:
    for _ in range(256):
        cand = [rng.nonzero_element(ctx.m) for _ in range(lam)]
        if _bit_rank(cand) == lam:
            return tuple(cand)
    raise GenerationError("could not sample an independent subspace basis")


# ---------------------------------------------------------------------------
# construction of X


@dataclass
class XBlockWitness:
    """Factorization evidence for one in-information-set column block."""

    Y: list  # per row block: RankMatrix (rows follow the shift recursion)
    T: BitMatrix
    T_shift: BitMatrix


@dataclass
class XWitness:
    X: RankMatrix | CirculantGrid  # repaired | improved
    blocks: dict  # column block index -> XBlockWitness (in-set blocks only)


def _sample_shift_pair(t1: int, rng):
    """Invertible T over GF(2) whose right cyclic column shift is invertible."""
    for _ in range(1024):
        T = BitMatrix.random(t1, t1, rng)
        if not T.is_invertible():
            continue
        Ts = T.cyclic_col_shift()
        if Ts.is_invertible():
            return T, Ts
    raise GenerationError("no invertible (T, T') pair found")


def _recursion_rows(ctx, first_row, R: BitMatrix, nrows: int):
    rows = [list(first_row)]
    for _ in range(nrows - 1):
        rows.append(field_vec_times_bitmatrix(ctx, rows[-1], R))
    return rows


def _periodic_block(ctx, Z: RankMatrix, ncols: int) -> RankMatrix:
    reps = ncols // Z.ncols
    return RankMatrix(ctx, [row * reps for row in Z.rows])


def _low_colrank_block(ctx, rows, width, t1, rng):
    """Stacked partial circulants of width `width`, sharing one transform.

    rows = list of row counts per stacked block; returns (blocks, witness)
    with the stacked column block having GF(2) column rank exactly t1.
    """
    if t1 == 0:
        blocks = [RankMatrix.zero(ctx, r, width) for r in rows]
        return blocks, None
    for _ in range(64):
        T, Ts = _sample_shift_pair(t1, rng)
        R = Ts.mul(T.inverse())
        Ys, blocks = [], []
        for nrows in rows:
            y1 = [rng.element(ctx.m) for _ in range(t1)]
            Y = RankMatrix(ctx, _recursion_rows(ctx, y1, R, nrows))
            Z = RankMatrix(
                ctx, [field_vec_times_bitmatrix(ctx, rw, T) for rw in Y.rows]
            )
            Ys.append(Y)
            blocks.append(_periodic_block(ctx, Z, width))
        stacked = RankMatrix(ctx, [r for b in blocks for r in b.rows])
        if column_rank_q(stacked) == t1:
            return blocks, XBlockWitness(Y=Ys, T=T, T_shift=Ts)
    raise GenerationError("column rank t1 not reached while building X")


def construct_X(p: ParamSet, info_set, rng, ctx: FieldCtx) -> XWitness:
    """Disguise matrix X per variant; see the module docstring.

    Improved: per column block, in-set blocks share one transform and have
    column rank t1; out-of-set blocks are random partial circulants; X is
    the grid of block generators.  Repaired: one dense full-width block
    with the same recursion.
    """
    if p.variant == "repaired":
        blocks, wit = _low_colrank_block(ctx, [p.k], p.n, p.t1, rng)
        return XWitness(X=blocks[0], blocks={0: wit} if wit else {})
    grid = [[None] * p.n1 for _ in range(p.k1)]
    witnesses = {}
    inset = set(info_set)
    for j in range(p.n1):
        if j in inset:
            col_blocks, wit = _low_colrank_block(
                ctx, [p.k2] * p.k1, p.n2, p.t1, rng
            )
            for i in range(p.k1):
                grid[i][j] = reflect(col_blocks[i].rows[0])
            if wit is not None:
                witnesses[j] = wit
        else:
            for i in range(p.k1):
                grid[i][j] = [rng.element(ctx.m) for _ in range(p.n2)]
    return XWitness(X=CirculantGrid(ctx, grid, p.k2), blocks=witnesses)


# ---------------------------------------------------------------------------
# construction of P


def construct_P(p: ParamSet, spec: SubspaceSpec, info_set, rng, ctx: FieldCtx):
    """Invertible right scrambler as a circulant-block grid; returns (P, P^-1).

    Improved: n1 x n1 blocks of size n2, column block i drawn from U_i (i in
    the information set) or V.  Repaired: the single block Cir(b), b of
    length n drawn from V.
    """
    nb, size = (1, p.n) if p.variant == "repaired" else (p.n1, p.n2)
    for _ in range(64):
        grid = [
            [[spec.member(spec.span_for_block(ic), rng) for _ in range(size)]
             for ic in range(nb)]
            for _ in range(nb)
        ]
        P = CirculantGrid(ctx, grid, size)
        try:
            return P, circulant_block_invert(P)
        except SingularMatrixError:
            continue
    raise GenerationError("no invertible circulant-block P found")


# ---------------------------------------------------------------------------
# errors of exact rank


def sample_rank_error(ctx: FieldCtx, n: int, t: int, rng) -> RankVector:
    """Vector with rank weight exactly t: independent values times a
    full-rank GF(2) location matrix."""
    if t < 0 or t > min(ctx.m, n):
        raise ValueError(f"t={t} out of range [0, {min(ctx.m, n)}]")
    if t == 0:
        return RankVector.zero(ctx, n)
    while True:
        betas = [rng.nonzero_element(ctx.m) for _ in range(t)]
        if _bit_rank(betas) == t:
            break
    while True:
        loc = [rng.bits(n) for _ in range(t)]
        if _bit_rank(loc) == t:
            break
    e = [0] * n
    for b, row in zip(betas, loc):
        i = 0
        while row:
            if row & 1:
                e[i] ^= b
            row >>= 1
            i += 1
    return RankVector(ctx, e)


# ---------------------------------------------------------------------------
# keys


@dataclass
class PublicKey:
    params: ParamSet
    matrix: RankMatrix | CirculantGrid  # G_pub: repaired | improved
    _packed: tuple = field(default=None, repr=False, compare=False)

    def packed_rows(self):
        if self._packed is None:
            self._packed = self.matrix.packed_rows()
        return self._packed


@dataclass
class ImprovedSecretKey:
    params: ParamSet
    alpha: int
    P: CirculantGrid
    G1: RankMatrix
    _dec: object = field(default=None, repr=False, compare=False)

    def decrypter(self):
        if self._dec is None:
            self._dec = _Decrypter.for_improved(self)
        return self._dec


@dataclass
class RepairedSecretKey:
    params: ParamSet
    G1: RankMatrix
    g2: RankVector
    P: CirculantGrid  # one block, Cir_n(b)
    S: RankMatrix
    _dec: object = field(default=None, repr=False, compare=False)

    def decrypter(self):
        if self._dec is None:
            self._dec = _Decrypter.for_repaired(self)
        return self._dec


@dataclass
class KeyPair:
    pk: PublicKey
    sk: object
    # construction evidence, kept in memory for property checks only;
    # never serialized and never read by decryption
    x_witness: XWitness | None = None
    subspace: SubspaceSpec | None = None
    code: KroneckerCode | None = None
    P: CirculantGrid | None = None


@dataclass
class Ciphertext:
    params: ParamSet
    values: RankVector


class _Decrypter:
    """Decoder state rebuilt from the secret tuple alone."""

    def __init__(self, code: KroneckerCode, P: CirculantGrid, S_inv: RankMatrix | None):
        self.code = code
        self.P_packed = P.packed_rows()
        self.S_inv = S_inv

    @classmethod
    def for_improved(cls, sk: ImprovedSecretKey):
        p = sk.params
        ctx = sk.G1.ctx
        code = KroneckerCode(sk.G1, from_normal_orbit(ctx, sk.alpha, p.k2))
        return cls(code, sk.P, None)

    @classmethod
    def for_repaired(cls, sk: RepairedSecretKey):
        p = sk.params
        C2 = GabidulinCode(sk.g2, p.k2)
        code = KroneckerCode(sk.G1, C2)
        return cls(code, sk.P, sk.S.invert())

    def decrypt(self, c_vals):
        pk, prows = self.P_packed
        c_prime = pk.lincomb(c_vals, prows)
        try:
            mu = self.code.block_decode(c_prime)
        except DecodeFailure as exc:
            raise DecryptFailure(str(exc), failed_blocks=exc.failed_blocks) from exc
        if self.S_inv is None:
            return mu
        return RankVector(mu.ctx, self.S_inv.left_mul_values(mu.values))


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt


def keygen(p: ParamSet, rng) -> KeyPair:
    ctx = FieldCtx(p.m, p.modulus)
    if p.variant == "improved":
        return _keygen_improved(p, rng, ctx)
    if p.variant == "repaired":
        return _keygen_repaired(p, rng, ctx)
    raise ValueError(f"unsupported variant {p.variant!r}")


def _keygen_improved(p: ParamSet, rng, ctx) -> KeyPair:
    G1 = RankMatrix.random_full_rank(ctx, p.k1, p.n1, rng)
    alpha = ctx.find_normal_element(rng)
    code = KroneckerCode(G1, from_normal_orbit(ctx, alpha, p.k2))
    xw = construct_X(p, code.I, rng, ctx)
    spec = SubspaceSpec.sample(ctx, p.lam, p.lam_p, code.I, rng)
    P, Pinv = construct_P(p, spec, code.I, rng, ctx)
    # generators of G + X: block (i, j) of G is Cir_k2(G1[i][j] g2)
    g2 = reflect(code.C2.generator.rows[0])
    GX = [
        [[ctx.mul(G1.rows[i][j], v) ^ x for v, x in zip(g2, xw.X.gens[i][j])]
         for j in range(p.n1)]
        for i in range(p.k1)
    ]
    pk = PublicKey(p, circulant_block_compose(CirculantGrid(ctx, GX, p.k2), Pinv))
    sk = ImprovedSecretKey(p, alpha=alpha, P=P, G1=G1)
    return KeyPair(pk=pk, sk=sk, x_witness=xw, subspace=spec, code=code, P=P)


def _keygen_repaired(p: ParamSet, rng, ctx) -> KeyPair:
    for _ in range(64):
        G1 = RankMatrix.random_full_rank(ctx, p.k1, p.n1, rng)
        alpha = ctx.find_normal_element(rng)
        g2 = RankVector(ctx, ctx.frobenius_orbit(alpha, p.n2))
        C2 = GabidulinCode(g2, p.k2)
        code = KroneckerCode(G1, C2)
        xw = construct_X(p, code.I, rng, ctx)
        spec = SubspaceSpec.sample(ctx, p.lam, None, code.I, rng)
        P, Pinv = construct_P(p, spec, code.I, rng, ctx)
        pinv, pinv_rows = Pinv.packed_rows()
        M0 = RankMatrix(ctx, [pinv.lincomb(row, pinv_rows) for row in code.G.add(xw.X).rows])
        try:
            S = M0.submatrix(0, 0, p.k, p.k).invert()
        except SingularMatrixError:
            continue  # leading minor singular: fresh randomness
        Gpub = S.mul(M0)
        pk = PublicKey(p, Gpub)
        sk = RepairedSecretKey(p, G1=G1, g2=g2, P=P, S=S)
        return KeyPair(pk=pk, sk=sk, x_witness=xw, subspace=spec, code=code, P=P)
    raise GenerationError("could not reach a systematic public key")


def encrypt(message, pk: PublicKey, p: ParamSet, rng) -> Ciphertext:
    """c = m G_pub + e with rk(e) = t."""
    ctx = pk.matrix.ctx
    vals = checked_values(ctx, message, p.k, "message")
    pko, prows = pk.packed_rows()
    c = pko.lincomb(vals, prows)
    e = sample_rank_error(ctx, p.n, p.t, rng)
    return Ciphertext(p, RankVector(ctx, [a ^ b for a, b in zip(c, e.values)]))


def decrypt(ct: Ciphertext, sk, p: ParamSet) -> RankVector:
    """Invert the disguise and block-decode; raises DecryptFailure."""
    vals = checked_values(sk.G1.ctx, ct.values, p.n, "ciphertext")
    return sk.decrypter().decrypt(vals)
