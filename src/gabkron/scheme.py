"""The GabKron public-key scheme: key generation, encryption, decryption.

Both variants disguise the product-code generator G as
G_pub = S (G + X) P^{-1} (repaired; S makes it systematic) or
G_pub = (G + X) P^{-1} (improved; everything partial-circulant-block).

One key-generation loop serves both variants (keygen).  Each attempt
draws G1, alpha's orbit, X, the subspaces and P in the same order and
parts only at its last step: the improved variant takes its public grid
from the circulant ring and never retries; the repaired variant takes its
systematic form and draws again when the leading minor is singular.

Both variants hold P and X as CirculantGrids, one generator per block.
P has n1 x n1 blocks in the improved variant and the single block Cir(b)
in the repaired one; its inverse comes from the circulant ring, and the
decrypter forms c P from the GF(2) decomposition of P's generators
(CirculantGrid.left_mul_values), never from its rows.  X has k1 x n1
blocks of k2 rows in the improved variant and one block of k rows in the
repaired one.  Key generation multiplies by P, by the minors of P that
make up its adjugate and by X through their GF(2) decompositions too
(ranklinalg._cyc_sum): the improved variant makes one product of two
full-rank factors, alpha's orbit times det(P)^-1, and the repaired one
none.  In the improved variant G and G_pub are grids too, from key
generation to the decrypter: block (i, j) of G is Cir_k2(G1[i][j] g2), so
G_pub's generators come from products in the circulant ring
(_improved_public_grid), and the dense matrices are never built.  The
repaired variant never builds the dense G either: G P^{-1} comes row by
row from alpha's orbit, since G = G1 (x) Moore(g2) and a rotation
commutes with the circulant P^{-1} (_repaired_m0_gens).  It adds X P^{-1},
taken in the ring, and reads N off [I_k | N | S], the reduced echelon
form of [M0 | I_k] for M0 = (G + X) P^{-1}.  Each row of M0 is the one
above rotated, plus a combination of two rows of P^{-1}, except at the
first row of a G1 block, so generalized Schur steps on 6 displacement
generators give that form (ranklinalg._systematic_packed); the echelon
runs only when a leading principal minor is singular.  The public key
holds N as packed rows (ranklinalg.PackedRows): keygen hands over slots
k..n - 1 of that form's reduced rows, as a parse spreads them from the
file, and encrypt takes m N on them; no other module knows that
G_pub = [I_k | N].  The repaired secret key holds z_0, the t1 values that
row 0 of X repeats, and not S: S^-1 = M0[:, :k].  Only keygen builds M0,
by its generators and then its rows.  The error e P + mu X of c P has rank
at most lam t + t1 <= t2, so the decrypter decodes the later blocks in the
first one's error value space (block_decode with shared), which also
hands back that error.  Taking off mu X, t1 values repeated, leaves e P,
whose values lie in E V for E the values of e and V P's subspace; the
decrypter reads e off it through P's GF(2) parts, as LRPC decoding
recovers a support (_Decrypter._read_error), so a parsed key takes no
ring inverse of P and builds no M0.  c - e = mu M0 = m || m N for the
right key, and the decrypter returns (c - e)[:k] only when rk(e) <= t, so
a damaged key or an error of rank > t is a DecodeFailure.  When the read
fails, e = (e P) P^-1, with P^-1 built then, and the outcome is the same.

The inner Gabidulin code carries its own presentation, and block messages
are written in it: Cir_k2 of the normal orbit of alpha in the improved
variant (gabcodes.from_normal_orbit), the Moore matrix of
g2 = (alpha^[n2-1], ..., alpha) in the repaired one, read off alpha's
m-orbit (gabcodes.from_orbit).  Both take the parity vector h from
alpha's orbit, so no decrypt solves a Moore system.  Key generation hands
each key the decrypter of the code and P it holds; any other key, parsed
or in memory, passes _Decrypter.checked, which rejects an inconsistent
tuple.  P's GF(2) decomposition (which key generation already built for
its own keys) and the inner decoder state are built on the first
decrypt, and the grids and matrices that own them keep them.

X is built so that any message combination of an in-information-set
column block keeps rank at most t1.  The paper draws y_1 and a shared GF(2)
transform T whose right cyclic column shift T' is invertible (T' permutes
T's columns, so any invertible T will do), and sets
row r to z_r = y_r T repeated with period t1, y_{r+1} = y_r T' T^{-1}.
As z_{r+1} = y_r T' is z_r rotated right by one, the block is the partial
circulant whose row 0 repeats z_0 = y_1 T; the k x t1 stack of z_0's
rotations has the block's GF(2) column span and is what the column-rank
check reads.  P draws its entries from small GF(2)-subspaces so that
e P_Ci has rank at most lam' * t (improved, blocks in the information set)
or lam * t (repaired), keeping every decoded block inside the Gabidulin
radius t2.  Each randomized construction retries up to a fixed budget and
raises GenerationError past it.  Key pairs keep X with its transforms
(XWitness) and the subspaces in memory as evidence for property checks;
the tests check them.

encrypt and decrypt take messages and ciphertext values as a RankVector
or a list of ints, and check the length and every entry once, on entry
(ranklinalg.checked_values).  They refuse a parameter set, passed or on
the ciphertext, that is not the key's: the error rank t and the shapes
come from it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

from .gf2m import BitSpan, FieldCtx, _bit_rank
from .gabcodes import DecodeFailure, KroneckerCode, from_normal_orbit, from_orbit
from .params import ParamSet
from .ranklinalg import (
    CirculantGrid,
    PackedRows,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    _binary_bezout,
    _binary_parts,
    _cyc_sum,
    _fold_slots,
    _packed,
    _systematic_packed,
    checked_values,
    circulant_block_invert,
    column_rank_q,
    cyc_mul,
    field_vec_times_bits,
    reflect,
)


class GenerationError(RuntimeError):
    """A randomized construction exhausted its retry budget."""


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
class XWitness:
    X: CirculantGrid
    T: dict  # column block index -> shared transform T as t1 row bitmasks (in-set blocks only)


def _sample_shift_pair(t1: int, rng) -> list:
    """Rows of an invertible t1 x t1 T over GF(2).  Its right cyclic column
    shift T' (column t1 - 1 wraps to the front) is a column permutation of
    T, so it is invertible exactly when T is."""
    for _ in range(1024):
        T = [rng.bits(t1) for _ in range(t1)]
        if _bit_rank(T) == t1:
            return T
    raise GenerationError("no invertible T found")


def _low_colrank_gens(ctx, nblocks, k, width, t1, rng):
    """Generators of nblocks stacked k-row partial circulants of width `width`
    sharing one transform T; returns (generators, T).

    Row r of a block is z_0 = y_1 T rotated right by r and repeated, so the
    stack of each block's first k rotations of z_0 has the GF(2) column
    span of the stacked blocks, whose column rank must be exactly t1.
    """
    if t1 == 0:
        return [[0] * width for _ in range(nblocks)], None
    for _ in range(64):
        T = _sample_shift_pair(t1, rng)
        z0s = [field_vec_times_bits([rng.element(ctx.m) for _ in range(t1)], T, t1)
               for _ in range(nblocks)]
        rotations = [[z[(j - r) % t1] for j in range(t1)] for z in z0s for r in range(k)]
        if column_rank_q(RankMatrix(ctx, rotations)) == t1:
            return [reflect(z * (width // t1)) for z in z0s], T
    raise GenerationError("column rank t1 not reached while building X")


def construct_X(p: ParamSet, info_set, rng, ctx: FieldCtx) -> XWitness:
    """Disguise matrix X as a grid of partial-circulant blocks.

    In-set column blocks share one transform per column block and have
    column rank t1; out-of-set blocks are random partial circulants.  The
    improved X has k1 x n1 blocks of k2 rows and width n2, with the
    information set of the outer code; the repaired X is one block of k
    rows and width n, always in the set.
    """
    if p.variant == "repaired":
        row_blocks, col_blocks, k, width, inset = 1, 1, p.k, p.n, {0}
    else:
        row_blocks, col_blocks, k, width, inset = p.k1, p.n1, p.k2, p.n2, set(info_set)
    cols, Ts = [], {}
    for j in range(col_blocks):
        if j in inset:
            gens, T = _low_colrank_gens(ctx, row_blocks, k, width, p.t1, rng)
            if T is not None:
                Ts[j] = T
        else:
            gens = [[rng.element(ctx.m) for _ in range(width)] for _ in range(row_blocks)]
        cols.append(gens)
    return XWitness(X=CirculantGrid(ctx, [list(row) for row in zip(*cols)], k), T=Ts)


# ---------------------------------------------------------------------------
# construction of P


def construct_P(p: ParamSet, spec: SubspaceSpec, rng, ctx: FieldCtx):
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
    betas = sample_subspace_basis(ctx, t, rng)
    while True:
        loc = [rng.bits(n) for _ in range(t)]
        if _bit_rank(loc) == t:
            return RankVector(ctx, field_vec_times_bits(betas, loc, n))


# ---------------------------------------------------------------------------
# keys


@dataclass
class PublicKey:
    params: ParamSet
    matrix: PackedRows | CirculantGrid  # N of G_pub = [I_k | N] (repaired) | G_pub (improved)


def _decrypter(sk):
    """The key's decrypter, _Decrypter.checked once; both key classes bind it."""
    if sk._dec is None:
        sk._dec = _Decrypter.checked(sk)
    return sk._dec


@dataclass
class ImprovedSecretKey:
    params: ParamSet
    alpha: int
    P: CirculantGrid
    G1: RankMatrix
    _dec: object = field(default=None, init=False, repr=False, compare=False)

    decrypter = _decrypter


@dataclass
class RepairedSecretKey:
    params: ParamSet
    G1: RankMatrix
    g2: RankVector
    P: CirculantGrid  # one block, Cir_n(b)
    z0: RankVector  # the t1 values that row 0 of X repeats
    _dec: object = field(default=None, init=False, repr=False, compare=False)

    decrypter = _decrypter


@dataclass
class KeyPair:
    pk: PublicKey
    sk: object
    # construction evidence, kept in memory for property checks only and
    # never serialized; code is also the product code of sk's decrypter,
    # which keygen hands to the key
    x_witness: XWitness | None = None
    subspace: SubspaceSpec | None = None
    code: KroneckerCode | None = None


@dataclass
class Ciphertext:
    params: ParamSet
    values: RankVector


class _Decrypter:
    """Decoder state of a secret tuple; P's GF(2) decomposition (which P
    keeps) is built on first use, or with a repaired decrypter.  That one
    also holds the error rank t, X's t1 values as the circulant whose row 0
    they are, and what reads e off e P (_read_error): the inverses of the
    basis v_q of P's entries and the binary Bezout row of P's binary parts
    b_q.  It builds P^-1 only when that read fails, and keeps it."""

    def __init__(self, code: KroneckerCode, P: CirculantGrid, t=None, z0=None, Pinv=None):
        self.code = code
        self.P = P
        self.t = t
        self.X = None  # Cir_t1 with row 0 z0, repaired only
        if z0 is not None:
            ctx = code.ctx
            self.X = CirculantGrid(ctx, [[reflect(z0)]], len(z0))
            parts = P.parts()[0][0]
            self._vinv = [ctx.inv(v) for v, _ in parts]
            # window tables of the Bezout row and of the b_q, for _read_error;
            # the row exists because P is invertible
            bs = [sum(1 << d for d in supp) for _, supp in parts]
            table = _packed(ctx, ctx.m).table
            self._tabs = [table(a) for a in _binary_bezout(bs, code.n)], [table(b) for b in bs]
            self._Pinv = Pinv

    @classmethod
    def checked(cls, sk):
        """The decrypter of a key that keygen did not hand one.  Raises
        ValueError unless, in order, P is invertible (one gcd per
        cyclotomic factor of z^a - 1, a the odd part of its block size),
        alpha a field element and normal or g2 alpha's orbit of full rank
        weight, G1 of full rank, z0 of t1 values.  P's entries were
        checked when its grid was built.  No ring inverse is taken: a
        repaired decrypt reads e off e P through P's GF(2) parts, whose
        Bezout row exists because P is invertible."""
        p, ctx = sk.params, sk.G1.ctx
        if not sk.P.is_invertible():
            raise SingularMatrixError("P is singular")
        if isinstance(sk, ImprovedSecretKey):
            orbit = ctx.is_normal(ctx.check(sk.alpha))
            if orbit is None:
                raise ValueError("alpha must be a normal element")
            return cls(KroneckerCode(sk.G1, from_normal_orbit(ctx, orbit, p.k2)), sk.P)
        C2 = from_orbit(ctx, ctx.frobenius_orbit(sk.g2.values[-1], ctx.m), p.n2, p.k2)
        if C2.g != sk.g2:
            raise ValueError("g2 must be a Frobenius orbit (alpha^[n2-1], ..., alpha)")
        code = KroneckerCode(sk.G1, C2)
        if len(sk.z0) != p.t1:
            raise ValueError(f"z0 must hold t1 = {p.t1} values")
        return cls(code, sk.P, p.t, sk.z0.values)

    def _read_error(self, e1):
        """e with e P = e1, or None when the read fails.

        reflect(e) b = reflect(e1) in the ring, b = P's generator.  With
        b = sum_q v_q b_q (P's GF(2) parts) and reflect(e) = sum_p E_p R_p,
        R_p binary, reflect(e1) = sum_{p,q} E_p v_q Z_pq, Z_pq = R_p b_q.  So
        e1's values span E V, and E is the intersection of the spaces
        E V v_q^-1 (the support recovery of LRPC decoding; Gaborit, Murat,
        Ruatta & Zemor, WCC 2013).  e1's coordinates on the products
        E_p v_q give the binary Z_pq, and R_p = sum_q a_q Z_pq for the
        Bezout row sum_q a_q b_q = 1.  The read holds only when
        R_p b_q = Z_pq for every p and q, which makes e P = e1 exactly; a
        degenerate span fails somewhere on the way.  Past the intersection
        every product is of binary polynomials, by window tables of the a_q
        and b_q that the decrypter keeps.
        """
        ctx, n, parts = self.code.ctx, self.code.n, self.P.parts()[0][0]
        pm = _packed(ctx, ctx.m)  # a basis of a subspace has at most m elements

        def times(xs, v):
            return pm.unpack(pm.fold(pm.scal(pm.pack(xs), v)))[: len(xs)]

        f1 = reflect(e1)
        span = [v for v, _ in BitSpan(f1).pivots.values()]
        E = times(span, self._vinv[0])
        for w in self._vinv[1:]:
            meet = BitSpan(E + times(span, w)).kernel
            E = [functools.reduce(operator.xor, (x for i, x in enumerate(E) if tag >> i & 1), 0)
                 for tag in meet]
        r, d = len(E), len(E) * len(parts)
        if d > ctx.m:
            return None
        basis = BitSpan([x for v, _ in parts for x in times(E, v)])  # E_p v_q is input q r + p
        if len(basis.pivots) < d:
            return None
        tags = [basis.coordinates(x) for x in f1]
        if None in tags:
            return None
        # bit j of Z[q r + p] is bit q r + p of entry j's tag
        bits = "".join(format(tag, f"0{d}b") for tag in tags)
        Z = [int(bits[d - 1 - i :: d][::-1], 2) for i in range(d)]
        atabs, btabs = self._tabs
        R = [_fold_slots(1, pm.mul_sum(atabs, Z[p::r]), n) for p in range(r)]
        for q, tab in enumerate(btabs):
            if any(_fold_slots(1, pm.mul(tab, Rp), n) != z for Rp, z in zip(R, Z[q * r :])):
                return None
        return reflect(field_vec_times_bits(E, R, n))

    def _error(self, e1):
        """e with e P = e1: _read_error, or e1 P^-1 when that fails, P^-1
        built then and kept."""
        e = self._read_error(e1)
        if e is None:
            if self._Pinv is None:
                self._Pinv = circulant_block_invert(self.P)
            e = self._Pinv.left_mul_values(e1)
        return e

    def decrypt(self, c_vals):
        """The message; a repaired key decodes its blocks in one error
        value space (block_decode with shared), takes mu X off their error
        e P + mu X, reads e off e P (_error), and returns m = (c - e)[:k]
        only when e has rank at most t: c - e = mu (G + X) P^-1 = m G_pub
        for the right key."""
        y = self.P.left_mul_values(c_vals)
        if self.X is None:
            return self.code.block_decode(y)
        mu, e1 = self.code.block_decode(y, shared=True, errors=True)
        t1, n = self.X.k, self.code.n
        # mu X repeats sum_r s_r z0[j - r], s_r the sum of the mu_i, i = r mod t1
        ux = self.X.left_mul_values([functools.reduce(operator.xor, mu.values[r::t1], 0)
                                     for r in range(t1)])
        e = self._error([a ^ b for a, b in zip(e1, ux * (n // t1))])
        r = _bit_rank(e)
        if r > self.t:
            raise DecodeFailure(f"c - m G_pub has rank {r} > t = {self.t}")
        return RankVector(mu.ctx, [a ^ b for a, b in zip(c_vals[: self.code.k], e)])


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt


def keygen(p: ParamSet, rng) -> KeyPair:
    """A key pair; raises GenerationError when 64 attempts fail.

    Each attempt draws G1, alpha's orbit, X, the subspaces and P, in that
    order, for both variants.  The improved public key is the grid
    (G + X) P^-1 and takes one attempt; the repaired one is N of
    [I_k | N], which fails when the leading minor is singular.
    """
    if p.variant not in ("improved", "repaired"):
        raise ValueError(f"unsupported variant {p.variant!r}")
    ctx = FieldCtx(p.m)
    for _ in range(64):
        G1 = RankMatrix.random_full_rank(ctx, p.k1, p.n1, rng)
        orbit = ctx.find_normal_element(rng)
        if p.variant == "improved":
            C2 = from_normal_orbit(ctx, orbit, p.k2)
        else:
            C2 = from_orbit(ctx, orbit, p.n2, p.k2)
        code = KroneckerCode(G1, C2)
        xw = construct_X(p, code.I, rng, ctx)
        spec = SubspaceSpec.sample(ctx, p.lam, p.lam_p, code.I, rng)
        P, Pinv = construct_P(p, spec, rng, ctx)
        if p.variant == "improved":
            pk = PublicKey(p, _improved_public_grid(G1, orbit, xw.X, P, Pinv))
            sk = ImprovedSecretKey(p, alpha=orbit[-1], P=P, G1=G1)
            sk._dec = _Decrypter(code, P)
        else:
            # the RREF of [M0 | I_k] is [I_k | N | S] with S M0 = [I_k | N]
            # exactly when its pivots lead, S = M0[:, :k]^-1; M0 is
            # Toeplitz-like, so generalized Schur steps give it
            z0 = RankVector(ctx, reflect(xw.X.gens[0][0])[: p.t1])
            packer, rows = _repaired_m0_rows(code, _repaired_m0_gens(code, z0.values, Pinv))
            if _systematic_packed(ctx, rows, p.n) != list(range(p.k)):
                continue  # leading minor singular: fresh randomness
            # N is slots k..n - 1 of the reduced rows, handed over packed
            low, keep = p.k * packer.S, (1 << (p.n - p.k) * packer.S) - 1
            pk = PublicKey(p, PackedRows(ctx, p.n - p.k, [row >> low & keep for row in rows]))
            sk = RepairedSecretKey(p, G1=G1, g2=C2.g, P=P, z0=z0)
            sk._dec = _Decrypter(code, P, p.t, z0.values, Pinv)
        return KeyPair(pk=pk, sk=sk, x_witness=xw, subspace=spec, code=code)
    raise GenerationError("could not reach a systematic public key")


def _improved_public_grid(G1: RankMatrix, orbit, X: CirculantGrid, P: CirculantGrid,
                          Pinv: CirculantGrid) -> CirculantGrid:
    """G_pub = (G + X) P^-1 as a grid, block (i, j) of G being
    Cir_k2(G1[i][j] orbit).

    P^-1 = d^-1 adj(P) for d = det(P), so block (i, j) of G_pub has the
    generator sum_l G1[i][l] (w adj_lj) + X_il P^-1_lj in the circulant
    ring, with w = orbit d^-1.  That is one dense ring product (cyc_mul);
    every other one takes its factor of low binary rank, a minor of P or a
    generator of X, through its GF(2) decomposition (ranklinalg._cyc_sum).
    P keeps d^-1 from construct_P's inversion.
    """
    ctx = P.ctx
    pk = _packed(ctx, len(orbit))
    w = pk.pack(cyc_mul(ctx, orbit, P.det_inverse()))
    wadj = [[pk.fold(_cyc_sum(pk, [(w, parts)])) for _, parts in row] for row in P.adjugate()]
    pinv = [[pk.pack(b) for b in row] for row in Pinv.gens]
    gens = [
        [pk.unpack(pk.fold(pk.sum_products(zip(g1row, wcol)) ^ _cyc_sum(pk, zip(pcol, xrow))))
         for wcol, pcol in zip(zip(*wadj), zip(*pinv))]
        for g1row, xrow in zip(G1.rows, X.parts())
    ]
    return CirculantGrid(ctx, gens, X.k)


def _repaired_m0_gens(code: KroneckerCode, z0, Pinv: CirculantGrid):
    """Generators (packer, ys, xp) of M0 = (G + X) P^-1 for the repaired
    G = G1 (x) Moore(g2) and X = Cir_k(x), x = reflect(z0 repeated).

    g2 = (alpha^[n2-1], ..., alpha), so [g2^[r+1] | 0] is [g2^[r] | 0]
    rotated right by one slot, plus alpha^[n2+r] at slot 0 and minus the
    alpha^[r] rotated into slot n2.  A rotation commutes with the
    circulant P^-1, so y_r = [g2^[r] | 0] P^-1, r < k2, packed, follows
    y_{r+1} = rot(y_r, 1) + alpha^[n2+r] row_0(P^-1) + alpha^[r] row_n2(P^-1),
    and row (i, r) of G P^-1 is sum_j G1[i][j] rot(y_r, j n2).  X P^-1 is
    Cir_k(x b) for P^-1 = Cir(b), and x b repeats its first t1 = len(z0)
    values, xp, as x does: reflect(z0) times b folded onto t1 slots
    (ranklinalg._fold_slots), through reflect(z0)'s GF(2) decomposition.
    """
    n, n2, t1, C2 = code.n, code.n2, len(z0), code.C2
    pk, p1 = _packed(code.ctx, n), _packed(code.ctx, t1)
    row0 = pk.pack(reflect(Pinv.gens[0][0]))
    pinv_rows = [pk.rotate(row0, r, n) for r in range(n2 + 1)]
    sum_products, fold, rotate = pk.sum_products, pk.fold, pk.rotate
    ys = [fold(sum_products(zip(C2.g.values, pinv_rows)))]
    for r in range(code.k2 - 1):
        step = ((C2.frob(n2 + r), pinv_rows[0]), (C2.frob(r), pinv_rows[n2]))
        ys.append(fold(rotate(ys[-1], 1, n) ^ sum_products(step)))
    bt = _fold_slots(pk.S, pk.pack(Pinv.gens[0][0]), t1)
    xp = p1.unpack(p1.fold(_cyc_sum(p1, [(bt, _binary_parts(reflect(z0)))])))
    return pk, ys, xp


def _repaired_m0_rows(code: KroneckerCode, gens):
    """(packer, M0's k packed rows, reduced) from its generators, for
    keygen's systematic form: row (i, r) is sum_j G1[i][j] rot(y_r, j n2)
    plus row i k2 + r of Cir_k(xp), row 0 rotated right i k2 + r slots."""
    (pk, ys, xp), n = gens, code.n
    x0 = pk.pack(reflect(xp * (n // len(xp))))
    return pk, [pk.fold(pk.sum_products((g, pk.rotate(y, j * code.n2, n)) for j, g in enumerate(g1))
                        ^ pk.rotate(x0, i * code.k2 + r, n))
                for i, g1 in enumerate(code.G1.rows) for r, y in enumerate(ys)]


def encrypt(message, pk: PublicKey, p: ParamSet, rng) -> Ciphertext:
    """c = m G_pub + e with rk(e) = t; the repaired m [I_k | N] is m || m N.

    Raises ValueError unless p is the key's parameter set (its name aside).
    """
    if p != pk.params:
        raise ValueError("parameter set differs from the public key's")
    ctx = pk.matrix.ctx
    vals = checked_values(ctx, message, p.k, "message")
    pko, prows = pk.matrix.packed_rows()
    c = pko.lincomb(vals, prows)
    if p.variant == "repaired":
        c = vals + c
    e = sample_rank_error(ctx, p.n, p.t, rng)
    return Ciphertext(p, RankVector(ctx, [a ^ b for a, b in zip(c, e.values)]))


def decrypt(ct: Ciphertext, sk, p: ParamSet) -> RankVector:
    """Invert the disguise and block-decode.

    Raises ValueError unless p and the ciphertext's set are the key's
    parameter set (names aside), and gabcodes.DecodeFailure, with the
    failed blocks, when no message is recovered, or, for a repaired key,
    when c - m G_pub has rank above t.
    """
    if p != sk.params:
        raise ValueError("parameter set differs from the secret key's")
    if ct.params != sk.params:
        raise ValueError("ciphertext and key parameter sets differ")
    vals = checked_values(sk.G1.ctx, ct.values, p.n, "ciphertext")
    return sk.decrypter().decrypt(vals)
