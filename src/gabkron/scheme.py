"""The GabKron public-key scheme: key generation, encryption, decryption.

Both variants disguise the product-code generator G as
G_pub = S (G + X) P^{-1} (repaired; S makes it systematic) or
G_pub = (G + X) P^{-1} (improved; everything partial-circulant-block).

X is built so that any message combination of an in-information-set
column block keeps rank at most t1: each such block factors through one
shared GF(2) transform, and its rows follow the shift recursion
y_{r+1} = y_r T' T^{-1}, which makes the block a partial circulant whose
row pattern repeats with period t1.  P draws its entries from small
GF(2)-subspaces so that e P_Ci has rank at most lam' * t (improved, blocks
in the information set) or lam * t (repaired), keeping every decoded block
inside the Gabidulin radius t2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2m import FieldCtx, _bit_rank
from .gabcodes import DecodeFailure, GabidulinCode, KroneckerCode, from_normal_orbit
from .params import ParamSet
from .ranklinalg import (
    BitMatrix,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    circulant,
    circulant_block_invert,
    circulant_inverse,
    column_rank_q,
    field_vec_times_bitmatrix,
    is_partial_circulant_block,
    partial_circulant,
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


def sample_subspace_basis(ctx: FieldCtx, lam: int, rng, tries: int = 256) -> tuple:
    for _ in range(tries):
        cand = [rng.nonzero_element(ctx.m) for _ in range(lam)]
        if _bit_rank(cand) == lam:
            return tuple(cand)
    raise GenerationError("could not sample an independent subspace basis")


def in_span(value: int, elems) -> bool:
    return _bit_rank(list(elems) + [value]) == _bit_rank(list(elems))


# ---------------------------------------------------------------------------
# construction of X


@dataclass
class XBlockWitness:
    """Factorization evidence for one in-information-set column block."""

    Y: list  # per row block: RankMatrix (rows follow the shift recursion)
    T: BitMatrix
    T_shift: BitMatrix

    def w_top(self, ncols: int) -> BitMatrix:
        """Top t1 rows of the GF(2) transform W: the block [T | T | ... | T]."""
        t1 = self.T.nrows
        reps = ncols // t1
        rows = []
        for r in self.T.rows:
            v = 0
            for i in range(reps):
                v |= r << (i * t1)
            rows.append(v)
        return BitMatrix(t1, ncols, rows)

    def full_w(self, ncols: int) -> BitMatrix:
        """An invertible completion of W below the [T | ... | T] top rows."""
        top = self.w_top(ncols)
        rows = list(top.rows)
        for b in range(ncols):
            if len(rows) == ncols:
                break
            cand = rows + [1 << b]
            if _bit_rank(cand) == len(cand):
                rows.append(1 << b)
        if len(rows) != ncols:
            raise GenerationError("could not complete W to an invertible matrix")
        return BitMatrix(ncols, ncols, rows)


@dataclass
class XWitness:
    X: RankMatrix
    blocks: dict  # column block index -> XBlockWitness (in-set blocks only)


def _sample_shift_pair(t1: int, rng, tries: int = 1024):
    """Invertible T over GF(2) whose right cyclic column shift is invertible."""
    for _ in range(tries):
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


def _low_colrank_block(ctx, rows, width, t1, rng, tries=64):
    """Stacked partial circulants of width `width`, sharing one transform.

    rows = list of row counts per stacked block; returns (blocks, witness)
    with the stacked column block having GF(2) column rank exactly t1.
    """
    if t1 == 0:
        blocks = [RankMatrix.zero(ctx, r, width) for r in rows]
        return blocks, None
    for _ in range(tries):
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
    column rank t1; out-of-set blocks are random partial circulants.
    Repaired: one full-width block with the same recursion.
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
                grid[i][j] = col_blocks[i]
            if wit is not None:
                witnesses[j] = wit
        else:
            for i in range(p.k1):
                gen = RankVector(ctx, [rng.element(ctx.m) for _ in range(p.n2)])
                grid[i][j] = partial_circulant(gen, p.k2)
    return XWitness(X=RankMatrix.from_blocks(grid), blocks=witnesses)


# ---------------------------------------------------------------------------
# construction of P


def construct_P(p: ParamSet, spec: SubspaceSpec, info_set, rng, ctx: FieldCtx,
                tries: int = 64):
    """Invertible right scrambler; returns (P, P_inverse, generator-or-None).

    Improved: circulant-block, column block i drawn from U_i (i in the
    information set) or V.  Repaired: one circulant generated by a vector
    over V, returned as the third element for the secret key.
    """
    if p.variant == "repaired":
        for _ in range(tries):
            b = RankVector(ctx, [spec.member(spec.basis, rng) for _ in range(p.n)])
            P = circulant(b)
            try:
                Pinv = circulant_inverse(P)
            except SingularMatrixError:
                continue
            return P, Pinv, b
        raise GenerationError("no invertible circulant P found")
    for _ in range(tries):
        grid = []
        for jr in range(p.n1):
            row = []
            for ic in range(p.n1):
                elems = spec.span_for_block(ic)
                gen = RankVector(ctx, [spec.member(elems, rng) for _ in range(p.n2)])
                row.append(circulant(gen))
            grid.append(row)
        P = RankMatrix.from_blocks(grid)
        try:
            Pinv = circulant_block_invert(P, p.n1, p.n2)
        except SingularMatrixError:
            continue
        return P, Pinv, None
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
    matrix: RankMatrix  # G_pub
    _packed: tuple = field(default=None, repr=False, compare=False)

    def packed_rows(self):
        if self._packed is None:
            self._packed = self.matrix.packed_rows()
        return self._packed


@dataclass
class ImprovedSecretKey:
    params: ParamSet
    alpha: int
    P: RankMatrix
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
    b: RankVector  # generator of P = Cir_n(b)
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
    P: RankMatrix | None = None


@dataclass
class Ciphertext:
    params: ParamSet
    values: RankVector


class _Decrypter:
    """Decoder state rebuilt from the secret tuple alone."""

    def __init__(self, code: KroneckerCode, P: RankMatrix, S_inv: RankMatrix | None):
        self.code = code
        self.P_packed = P.packed_rows()
        self.S_inv = S_inv

    @classmethod
    def for_improved(cls, sk: ImprovedSecretKey):
        p = sk.params
        ctx = sk.G1.ctx
        C2, G2 = from_normal_orbit(ctx, sk.alpha, p.n2, p.k2)
        code = KroneckerCode(sk.G1, C2, G2)
        return cls(code, sk.P, None)

    @classmethod
    def for_repaired(cls, sk: RepairedSecretKey):
        p = sk.params
        C2 = GabidulinCode(sk.g2, p.k2)
        code = KroneckerCode(sk.G1, C2)
        return cls(code, circulant(sk.b), sk.S.invert())

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


def keygen(p: ParamSet, rng, tries: int = 64) -> KeyPair:
    ctx = FieldCtx(p.m, p.modulus)
    if p.variant == "improved":
        return _keygen_improved(p, rng, ctx)
    if p.variant == "repaired":
        return _keygen_repaired(p, rng, ctx, tries)
    raise ValueError(f"unsupported variant {p.variant!r}")


def _keygen_improved(p: ParamSet, rng, ctx) -> KeyPair:
    G1 = RankMatrix.random_full_rank(ctx, p.k1, p.n1, rng)
    alpha = ctx.find_normal_element(rng)
    C2, G2 = from_normal_orbit(ctx, alpha, p.n2, p.k2)
    code = KroneckerCode(G1, C2, G2)
    xw = construct_X(p, code.I, rng, ctx)
    spec = SubspaceSpec.sample(ctx, p.lam, p.lam_p, code.I, rng)
    P, Pinv, _ = construct_P(p, spec, code.I, rng, ctx)
    Gpub = code.G.add(xw.X).mul(Pinv)
    if not is_partial_circulant_block(Gpub, p.k1, p.n1, p.k2, p.n2):
        raise AssertionError("public key lost its block structure (bug)")
    pk = PublicKey(p, Gpub)
    sk = ImprovedSecretKey(p, alpha=alpha, P=P, G1=G1)
    return KeyPair(pk=pk, sk=sk, x_witness=xw, subspace=spec, code=code, P=P)


def _keygen_repaired(p: ParamSet, rng, ctx, tries: int) -> KeyPair:
    for _ in range(tries):
        G1 = RankMatrix.random_full_rank(ctx, p.k1, p.n1, rng)
        alpha = ctx.find_normal_element(rng)
        g2 = RankVector(
            ctx, [ctx.frobenius(alpha, (p.n2 - 1 - j) % ctx.m) for j in range(p.n2)]
        )
        C2 = GabidulinCode(g2, p.k2)
        code = KroneckerCode(G1, C2)
        xw = construct_X(p, code.I, rng, ctx)
        spec = SubspaceSpec.sample(ctx, p.lam, None, code.I, rng)
        P, Pinv, b = construct_P(p, spec, code.I, rng, ctx)
        M0 = code.G.add(xw.X).mul(Pinv)
        try:
            S = M0.submatrix(0, 0, p.k, p.k).invert()
        except SingularMatrixError:
            continue  # leading minor singular: fresh randomness
        Gpub = S.mul(M0)
        pk = PublicKey(p, Gpub)
        sk = RepairedSecretKey(p, G1=G1, g2=g2, b=b, S=S)
        return KeyPair(pk=pk, sk=sk, x_witness=xw, subspace=spec, code=code, P=P)
    raise GenerationError("could not reach a systematic public key")


def encrypt(message, pk: PublicKey, p: ParamSet, rng, error=None) -> Ciphertext:
    """c = m G_pub + e with rk(e) = t; `error` is a test-only override."""
    vals = message.values if isinstance(message, RankVector) else list(message)
    if len(vals) != p.k:
        raise ValueError(f"message length {len(vals)} != k={p.k}")
    ctx = pk.matrix.ctx
    pko, prows = pk.packed_rows()
    c = pko.lincomb(vals, prows)
    if error is None:
        e = sample_rank_error(ctx, p.n, p.t, rng)
    else:
        e = error if isinstance(error, RankVector) else RankVector(ctx, error)
        if len(e) != p.n:
            raise ValueError("error length mismatch")
    return Ciphertext(p, RankVector(ctx, [a ^ b for a, b in zip(c, e.values)]))


def decrypt(ct: Ciphertext, sk, p: ParamSet) -> RankVector:
    """Invert the disguise and block-decode; raises DecryptFailure."""
    vals = ct.values.values if isinstance(ct, Ciphertext) else list(ct)
    if len(vals) != p.n:
        raise ValueError(f"ciphertext length {len(vals)} != n={p.n}")
    return sk.decrypter().decrypt(vals)
