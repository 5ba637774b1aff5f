import subprocess
import sys

import pytest

from gabkron.gf2m import FieldCtx, _bit_rank
from gabkron import scheme as sc
from gabkron import keyio
from gabkron.gabcodes import GabidulinCode
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import (
    BitMatrix,
    RankMatrix,
    RankVector,
    column_rank_q,
    is_circulant,
    is_circulant_block,
    is_partial_circulant,
    is_partial_circulant_block,
)
from gabkron.scheme import (
    DecryptFailure,
    SubspaceSpec,
    construct_X,
    sample_rank_error,
)

from conftest import fresh_rng, vec_mat


@pytest.fixture(scope="module")
def toy_kp():
    p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
              t=1, t1=1, lam=3, lam_p=2)
    return p, sc.keygen(p, SeededRng(b"toy-improved-keys"))


@pytest.fixture(scope="module")
def toy_rep_kp():
    p = setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)
    return p, sc.keygen(p, SeededRng(b"toy-repaired-keys"))


def x_column_block(p, X, i):
    return X.submatrix(0, i * p.n2, p.k, p.n2)


def p_column_block(p, P, i):
    return P.submatrix(0, i * p.n2, p.n, p.n2)


def in_span(value, elems):
    return _bit_rank(list(elems) + [value]) == _bit_rank(list(elems))


def full_w(wit, ncols):
    """An invertible GF(2) transform W whose top t1 rows are [T | T | ... | T]."""
    t1 = wit.T.nrows
    rows = [sum(r << (i * t1) for i in range(ncols // t1)) for r in wit.T.rows]
    for b in range(ncols):
        if _bit_rank(rows + [1 << b]) == len(rows) + 1:
            rows.append(1 << b)
    assert len(rows) == ncols
    return BitMatrix(ncols, ncols, rows)


# -- sample_rank_error ---------------------------------------------------------


def test_rank_error_zero():
    ctx = FieldCtx(8)
    e = sample_rank_error(ctx, 6, 0, fresh_rng(b"e0"))
    assert e.values == [0] * 6


def test_rank_error_exact_rank_paper_scale():
    ctx = FieldCtx(90)
    rng = fresh_rng(b"e-exact")
    for _ in range(500):
        e = sample_rank_error(ctx, 180, 12, rng)
        assert e.rank_weight() == 12


def test_rank_error_t1_structure():
    ctx = FieldCtx(8)
    rng = fresh_rng(b"e1")
    for _ in range(50):
        e = sample_rank_error(ctx, 6, 1, rng)
        vals = {v for v in e.values if v}
        assert len(vals) == 1  # q=2: nonzero coordinates all equal one beta


def test_rank_error_range_check():
    ctx = FieldCtx(4)
    with pytest.raises(ValueError):
        sample_rank_error(ctx, 6, 5, fresh_rng(b"ebad"))


# -- construct_X ---------------------------------------------------------------


def test_construct_x_improved_structure(toy_kp):
    p, kp = toy_kp
    X = kp.x_witness.X.dense()
    assert is_partial_circulant_block(X, p.k1, p.n1, p.k2, p.n2)
    I = kp.code.I
    for j in I:
        block = x_column_block(p, X, j)
        assert column_rank_q(block) == p.t1


def test_construct_x_message_rank_bound(toy_kp):
    p, kp = toy_kp
    rng = fresh_rng(b"xmsg")
    ctx = kp.pk.matrix.ctx
    X = kp.x_witness.X.dense()
    for j in kp.code.I:
        block = x_column_block(p, X, j)
        for _ in range(100):
            u = RankVector.random(ctx, p.k, rng)
            assert vec_mat(u, block).rank_weight() <= p.t1


def test_construct_x_witness_factorization(toy_kp):
    # in-set blocks factor as [Y | 0] W with one shared invertible W
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    for j, wit in kp.x_witness.blocks.items():
        W = full_w(wit, p.n2)
        assert W.is_invertible()
        assert wit.T.is_invertible() and wit.T_shift.is_invertible()
        for i, Y in enumerate(wit.Y):
            padded = [row + [0] * (p.n2 - p.t1) for row in Y.rows]
            rebuilt = [
                sc.field_vec_times_bitmatrix(ctx, row, W) for row in padded
            ]
            got = kp.x_witness.X.dense().submatrix(i * p.k2, j * p.n2, p.k2, p.n2)
            assert rebuilt == got.rows


def test_construct_x_out_of_set_blocks_are_partial_circulant(toy_kp):
    p, kp = toy_kp
    X = kp.x_witness.X.dense()
    for j in range(p.n1):
        for i in range(p.k1):
            blk = X.submatrix(i * p.k2, j * p.n2, p.k2, p.n2)
            assert is_partial_circulant(blk)


def test_construct_x_zero_t1_edge():
    # t1 = 0 is rejected by setup but accepted by the builder for tests
    p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
              t=1, t1=1, lam=3, lam_p=2)
    zeroed = type(p)(**{**p.__dict__, "t1": 0})
    ctx = FieldCtx(12)
    xw = construct_X(zeroed, (0, 1), fresh_rng(b"x0"), ctx)
    assert xw.X.dense() == RankMatrix.zero(ctx, p.k, p.n)
    assert xw.blocks == {}


def test_construct_x_repaired_full_width(toy_rep_kp):
    p, kp = toy_rep_kp
    X = kp.x_witness.X
    assert is_partial_circulant(X)
    assert column_rank_q(X) == p.t1
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"xrep")
    for _ in range(100):
        u = RankVector.random(ctx, p.k, rng)
        for i in range(p.n1):
            blk = x_column_block(p, X, i)
            assert vec_mat(u, blk).rank_weight() <= p.t1


# -- construct_P ---------------------------------------------------------------


def test_construct_p_improved_structure(toy_kp):
    p, kp = toy_kp
    P = kp.P.dense()
    spec = kp.subspace
    assert is_circulant_block(P, p.n1, p.n2)
    from gabkron.ranklinalg import circulant_block_invert

    Pinv = circulant_block_invert(kp.P).dense()
    assert is_circulant_block(Pinv, p.n1, p.n2)
    assert P.mul(Pinv) == RankMatrix.identity(P.ctx, p.n)
    for i in range(p.n1):
        elems = spec.span_for_block(i)
        if i in kp.code.I:
            assert len(elems) == p.lam_p
        block = p_column_block(p, P, i)
        for row in block.rows:
            for v in row:
                assert in_span(v, elems)


def test_construct_p_error_rank_bound(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"perr")
    for i in kp.code.I:
        block = p_column_block(p, kp.P.dense(), i)
        for _ in range(100):
            e = sample_rank_error(ctx, p.n, p.t, rng)
            assert vec_mat(e, block).rank_weight() <= p.lam_p * p.t


def test_construct_p_repaired_entries_in_v(toy_rep_kp):
    p, kp = toy_rep_kp
    P = kp.P.dense()
    assert is_circulant(P)
    basis = kp.subspace.basis
    for v in kp.sk.P.dense().rows[0]:
        assert in_span(v, basis)


def test_subspace_spec_sampling():
    ctx = FieldCtx(12)
    rng = fresh_rng(b"vspec")
    spec = SubspaceSpec.sample(ctx, 3, 2, (0, 1), rng)
    assert _bit_rank(list(spec.basis)) == 3
    for i in (0, 1):
        sel = spec.selections[i]
        assert len(sel) == 2 and len(set(sel)) == 2
        assert all(s in spec.basis for s in sel)


# -- keygen invariants ---------------------------------------------------------


def test_keygen_deterministic(toy_kp):
    p, kp = toy_kp
    kp2 = sc.keygen(p, SeededRng(b"toy-improved-keys"))
    assert keyio.serialize_public_key(kp.pk) == keyio.serialize_public_key(kp2.pk)
    assert keyio.serialize_secret_key(kp.sk) == keyio.serialize_secret_key(kp2.sk)


def test_key_equation(toy_kp):
    p, kp = toy_kp
    # the ring product against the dense one: G_pub P = G + X
    G_pub = kp.pk.matrix.dense()
    assert G_pub.mul(kp.P.dense()) == kp.code.G.add(kp.x_witness.X.dense())


def test_improved_pk_structure(toy_kp):
    p, kp = toy_kp
    assert is_partial_circulant_block(kp.pk.matrix.dense(), p.k1, p.n1, p.k2, p.n2)


def test_repaired_pk_systematic(toy_rep_kp):
    p, kp = toy_rep_kp
    ctx = kp.pk.matrix.ctx
    assert kp.pk.matrix.submatrix(0, 0, p.k, p.k) == RankMatrix.identity(ctx, p.k)
    # S undoes the row transform: S_pub = S (G+X) P^{-1}
    from gabkron.ranklinalg import circulant_inverse

    M0 = kp.code.G.add(kp.x_witness.X).mul(circulant_inverse(kp.sk.P.dense()))
    assert kp.sk.S.mul(M0) == kp.pk.matrix


def test_rank_budget_per_block(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"budget")
    budget = p.t1 + p.lam_p * p.t
    X, P = kp.x_witness.X.dense(), kp.P.dense()
    for _ in range(200):
        m = RankVector.random(ctx, p.k, rng)
        e = sample_rank_error(ctx, p.n, p.t, rng)
        for i in kp.code.I:
            eff = vec_mat(m, x_column_block(p, X, i)).add(
                vec_mat(e, p_column_block(p, P, i))
            )
            assert eff.rank_weight() <= budget


# -- encrypt / decrypt ---------------------------------------------------------


def test_round_trip_improved_toy_1000(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"trip1000")
    for i in range(1000):
        m = RankVector.random(ctx, p.k, rng)
        ct = sc.encrypt(m, kp.pk, p, rng)
        assert sc.decrypt(ct, kp.sk, p) == m, i


def test_round_trip_repaired_toy(toy_rep_kp):
    p, kp = toy_rep_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"triprep")
    for i in range(200):
        m = RankVector.random(ctx, p.k, rng)
        ct = sc.encrypt(m, kp.pk, p, rng)
        assert sc.decrypt(ct, kp.sk, p) == m, i


def test_encrypt_error_override_noiseless(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"noiseless")
    m = RankVector.random(ctx, p.k, rng)
    ct = sc.Ciphertext(p, vec_mat(m, kp.pk.matrix.dense()))
    assert sc.decrypt(ct, kp.sk, p) == m


def test_encrypt_deterministic(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    m = RankVector.random(ctx, p.k, fresh_rng(b"msg"))
    c1 = sc.encrypt(m, kp.pk, p, SeededRng(b"enc-seed"))
    c2 = sc.encrypt(m, kp.pk, p, SeededRng(b"enc-seed"))
    assert c1.values == c2.values


def test_encrypt_length_check(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    with pytest.raises(ValueError):
        sc.encrypt(RankVector.zero(ctx, p.k + 1), kp.pk, p, fresh_rng(b"len"))


@pytest.mark.parametrize("bad", ["top", "huge"])
def test_entries_outside_the_field_rejected(toy_kp, bad):
    # an entry of degree >= m used to spill into the next packed slot:
    # encrypt accepted it and decrypt returned another message
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    m = RankVector.random(ctx, p.k, fresh_rng(b"outside")).values
    ct = sc.encrypt(m, kp.pk, p, fresh_rng(b"outside-e"))
    value = 1 << p.m if bad == "top" else (1 << 3 * p.m) | 5
    with pytest.raises(ValueError):
        sc.encrypt([value] + m[1:], kp.pk, p, fresh_rng(b"outside-e"))
    with pytest.raises(ValueError):
        sc.decrypt(sc.Ciphertext(p, [value] + ct.values.values[1:]), kp.sk, p)
    assert sc.decrypt(ct, kp.sk, p).values == m


_NEGATIVE_ENTRY = """
from gabkron import scheme as sc
from gabkron.params import setup
from gabkron.prng import SeededRng
p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4, t=1, t1=1, lam=3, lam_p=2)
kp = sc.keygen(p, SeededRng(b"negative"))
for call in (lambda: sc.encrypt([-1] + [0] * (p.k - 1), kp.pk, p, SeededRng(b"e")),
             lambda: sc.decrypt(sc.Ciphertext(p, [-1] + [0] * (p.n - 1)), kp.sk, p)):
    try:
        call()
    except ValueError:
        print("rejected")
"""


def test_negative_entries_rejected():
    # a negative entry used to loop forever in the window product, so the
    # calls run in a child process that a timeout can stop
    proc = subprocess.run([sys.executable, "-c", _NEGATIVE_ENTRY],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected", "rejected"]


def test_encrypt_error_has_exact_rank(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"erank")
    m = RankVector.random(ctx, p.k, rng)
    ct = sc.encrypt(m, kp.pk, p, rng)
    e = ct.values.add(vec_mat(m, kp.pk.matrix.dense()))
    assert e.rank_weight() == p.t


def test_decrypt_needs_only_secret_tuple(toy_kp):
    # rebuild the secret key from its serialized (alpha, P, G1) tuple: the
    # X witness and subspace never travel and decryption still succeeds
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    sk2 = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
    assert sk2.alpha == kp.sk.alpha
    rng = fresh_rng(b"tupleonly")
    for _ in range(20):
        m = RankVector.random(ctx, p.k, rng)
        ct = sc.encrypt(m, kp.pk, p, rng)
        assert sc.decrypt(ct, sk2, p) == m


def test_decrypt_oversized_error_may_fail_cleanly(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"bigerr")
    G_pub = kp.pk.matrix.dense()
    outcomes = {"ok": 0, "fail": 0, "wrong": 0}
    for _ in range(30):
        m = RankVector.random(ctx, p.k, rng)
        big = sample_rank_error(ctx, p.n, p.t2 + 3, rng)
        ct = sc.Ciphertext(p, vec_mat(m, G_pub) + big)
        try:
            got = sc.decrypt(ct, kp.sk, p)
            outcomes["ok" if got == m else "wrong"] += 1
        except DecryptFailure:
            outcomes["fail"] += 1
    # out-of-contract input: any split is permitted, but most should fail
    assert outcomes["fail"] >= 15


def test_wide_outer_matrix_round_trip():
    p = setup(variant="improved", m=12, n1=3, k1=2, n2=12, k2=4,
              t=1, t1=1, lam=3, lam_p=2)
    kp = sc.keygen(p, SeededRng(b"wide"))
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"widetrip")
    for _ in range(100):
        m = RankVector.random(ctx, p.k, rng)
        ct = sc.encrypt(m, kp.pk, p, rng)
        assert sc.decrypt(ct, kp.sk, p) == m


@pytest.mark.parametrize("pair", ["toy_kp", "toy_rep_kp"])
def test_decrypter_inverts_inner_code_once(pair, request, monkeypatch):
    # the inner code is inverted once, for its message inverse, on the first
    # decrypt; the decrypter build itself inverts no k2 x k2 matrix
    p, kp = request.getfixturevalue(pair)
    ctx = kp.pk.matrix.ctx
    sk = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
    shapes = []
    invert = RankMatrix.invert

    def recording_invert(self):
        shapes.append((self.nrows, self.ncols))
        return invert(self)

    monkeypatch.setattr(RankMatrix, "invert", recording_invert)
    sk.decrypter()
    assert (p.k2, p.k2) not in shapes
    rng = fresh_rng(b"inner-inverts")
    for _ in range(3):
        m = RankVector.random(ctx, p.k, rng)
        assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), sk, p) == m
    assert shapes.count((p.k2, p.k2)) == 1


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_keygen_computes_no_dual_vector(params, request, monkeypatch):
    # the improved inner code has n2 = m and takes h from the trace-dual
    # orbit, so no decrypt solves for it either
    decrypt_calls = {"toy_improved": 0, "toy_repaired": 1}[params]
    p = request.getfixturevalue(params)
    calls = []
    dual_vector = GabidulinCode._dual_vector

    def recording_dual_vector(self):
        calls.append(self)
        return dual_vector(self)

    monkeypatch.setattr(GabidulinCode, "_dual_vector", recording_dual_vector)
    kp = sc.keygen(p, SeededRng(b"no-dual-vector"))
    assert calls == []
    rng = fresh_rng(b"no-dual-vector")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m
    assert len(calls) == decrypt_calls
    assert "h" in kp.sk.decrypter().code.C2.__dict__  # built by the first decrypt


def test_improved_decrypter_squares_one_orbit_of_alpha(monkeypatch):
    # building the decrypter and its parity check squares alpha's orbit once,
    # for the normality check and the code, and beta's orbit once, for h
    p = setup("new-gabkron-128")
    kp = sc.keygen(p, SeededRng(b"orbit-count"))
    sk = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
    calls = []
    sqr = FieldCtx.sqr

    def counting_sqr(self, a):
        calls.append(a)
        return sqr(self, a)

    monkeypatch.setattr(FieldCtx, "sqr", counting_sqr)
    h = sk.decrypter().code.C2.h.values
    monkeypatch.undo()
    assert len(calls) == 2 * (p.m - 1)
    # the same h as from the trace dual of alpha
    ctx = FieldCtx(p.m, p.modulus)
    assert h == ctx.frobenius_orbit(ctx.trace_dual(sk.alpha), p.n2)[::-1]
