import dataclasses
import functools
import subprocess
import sys

import pytest

from gabkron.gf2m import BitSpan, FieldCtx, _bit_rank
from gabkron import scheme as sc
from gabkron import audit, gabcodes, keyio, ranklinalg
from gabkron.gabcodes import DecodeFailure, GabidulinCode
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import (
    CirculantGrid,
    PackedRows,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    circulant_block_invert,
    circulant_inverse,
    column_rank_q,
    is_circulant,
    is_partial_circulant,
    is_partial_circulant_block,
    reflect,
)
from gabkron.scheme import (
    SubspaceSpec,
    construct_X,
    sample_rank_error,
)

from conftest import (
    dense_g_plus_x,
    fresh_rng,
    inconsistent_secret_key,
    m0_read_against_rows_and_dense,
    m0_read_against_s_solve,
    m0_rows,
    systematic,
    systematic_form_against_rref,
    vec_add,
    vec_mat,
    zero_matrix,
)


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


def bit_inverse(T):
    """T^-1 over GF(2), both as row bitmasks: row c is the combination of
    T's rows equal to e_c."""
    span = BitSpan(T)
    return [span.coordinates(1 << c) for c in range(len(T))]


def col_shift(T):
    """T' of square T held as row bitmasks: the columns shifted right by
    one, the last wrapping to the front."""
    t1 = len(T)
    return [(r << 1 | r >> (t1 - 1)) & ((1 << t1) - 1) for r in T]


def x_block_shape(p):
    """(row blocks, column blocks, rows, width) of the X grid."""
    if p.variant == "repaired":
        return 1, 1, p.k, p.n
    return p.k1, p.n1, p.k2, p.n2


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


@pytest.mark.parametrize("pair", ["toy_kp", "toy_rep_kp"])
def test_construct_x_rows_follow_the_recursion(pair, request):
    # X is held as generators only; re-derive the paper's Y = Z T^-1 from
    # the dense blocks and check y_{r+1} = y_r T' T^-1 and z_r = y_r T
    # repeated with period t1, column rank t1 per in-set column block, and
    # partial circulants everywhere
    p, kp = request.getfixturevalue(pair)
    ctx = kp.pk.matrix.ctx
    xw = kp.x_witness
    nr, nc, k, width = x_block_shape(p)
    assert isinstance(xw.X, CirculantGrid) and xw.X.k == k
    assert [len(row) for row in xw.X.gens] == [nc] * nr
    X = xw.X.dense()
    assert (X.nrows, X.ncols) == (nr * k, nc * width)
    assert set(xw.T) == (set(kp.code.I) if p.variant == "improved" else {0})
    for j in range(nc):
        column = X.submatrix(0, j * width, nr * k, width)
        blocks = [column.submatrix(i * k, 0, k, width) for i in range(nr)]
        assert all(is_partial_circulant(blk) for blk in blocks)
        if j not in xw.T:
            continue
        T = xw.T[j]
        Ts = col_shift(T)
        assert len(T) == p.t1 and _bit_rank(T) == _bit_rank(Ts) == p.t1
        Tinv = bit_inverse(T)
        assert column_rank_q(column) == p.t1
        for blk in blocks:
            Y = [sc.field_vec_times_bits(row[: p.t1], Tinv, p.t1) for row in blk.rows]
            for y, row in zip(Y, blk.rows):
                assert row == sc.field_vec_times_bits(y, T, p.t1) * (width // p.t1)
            for y, y_next in zip(Y, Y[1:]):
                y_shift = sc.field_vec_times_bits(y, Ts, p.t1)
                assert y_next == sc.field_vec_times_bits(y_shift, Tinv, p.t1)


def test_sample_shift_pair_rows():
    # T is t1 rows of rng.bits(t1), the first invertible draw, and its right
    # cyclic column shift, which moves bit j of a row to bit j + 1 and the
    # top bit to bit 0, is invertible too
    assert col_shift([0b01, 0b11]) == [0b10, 0b11]
    for t1 in (1, 2, 3, 5, 8):
        rng, twin = fresh_rng(b"shift-pair"), fresh_rng(b"shift-pair")
        T = sc._sample_shift_pair(t1, rng)
        while True:
            want = [twin.bits(t1) for _ in range(t1)]
            if _bit_rank(want) == t1:
                break
        assert T == want and rng.u64() == twin.u64()
        assert _bit_rank(col_shift(T)) == t1


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
    assert xw.X.dense() == zero_matrix(ctx, p.k, p.n)
    assert xw.T == {}


def test_construct_x_repaired_full_width(toy_rep_kp):
    p, kp = toy_rep_kp
    X = kp.x_witness.X.dense()
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
    P = kp.sk.P.dense()
    spec = kp.subspace
    assert is_partial_circulant_block(P, p.n1, p.n1, p.n2, p.n2)
    Pinv = circulant_block_invert(kp.sk.P).dense()
    assert is_partial_circulant_block(Pinv, p.n1, p.n1, p.n2, p.n2)
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
        block = p_column_block(p, kp.sk.P.dense(), i)
        for _ in range(100):
            e = sample_rank_error(ctx, p.n, p.t, rng)
            assert vec_mat(e, block).rank_weight() <= p.lam_p * p.t


def test_construct_p_repaired_entries_in_v(toy_rep_kp):
    p, kp = toy_rep_kp
    P = kp.sk.P.dense()
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


def test_public_grid_times_P_is_G_plus_X(toy_kp):
    p, kp = toy_kp
    # the ring product against the dense one: G_pub P = G + X
    G_pub = kp.pk.matrix.dense()
    assert G_pub.mul(kp.sk.P.dense()) == dense_g_plus_x(kp)


def test_improved_pk_structure(toy_kp):
    p, kp = toy_kp
    assert is_partial_circulant_block(kp.pk.matrix.dense(), p.k1, p.n1, p.k2, p.n2)


def test_repaired_pk_systematic(toy_rep_kp):
    # the key holds N; M0 = (G + X) P^-1 is its leading block times
    # [I_k | N], so m [I_k | N] is (m M0[:, :k]^-1) M0
    p, kp = toy_rep_kp
    N = kp.pk.matrix
    assert (N.dense().nrows, N.dense().ncols) == (p.k, p.n - p.k)
    M0 = dense_g_plus_x(kp).mul(circulant_inverse(kp.sk.P.dense()))
    assert M0.submatrix(0, 0, p.k, p.k).mul(systematic(N)) == M0


def test_repaired_encrypt_matches_dense_product(toy_rep_kp):
    # c = m || m N + e against the referee m [I_k | N] + e, same error draws
    p, kp = toy_rep_kp
    ctx = kp.pk.matrix.ctx
    G_pub = systematic(kp.pk.matrix)
    rng = fresh_rng(b"rep-encrypt-dense")
    for i in range(20):
        m = RankVector.random(ctx, p.k, rng)
        ct = sc.encrypt(m, kp.pk, p, SeededRng(b"rep-encrypt-%d" % i))
        e = sample_rank_error(ctx, p.n, p.t, SeededRng(b"rep-encrypt-%d" % i))
        assert ct.values == vec_add(vec_mat(m, G_pub), e)


def test_rank_budget_per_block(toy_kp):
    p, kp = toy_kp
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"budget")
    budget = p.t1 + p.lam_p * p.t
    X, P = kp.x_witness.X.dense(), kp.sk.P.dense()
    for _ in range(200):
        m = RankVector.random(ctx, p.k, rng)
        e = sample_rank_error(ctx, p.n, p.t, rng)
        for i in kp.code.I:
            eff = vec_add(
                vec_mat(m, x_column_block(p, X, i)),
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


@pytest.fixture(scope="module")
def new128_kp():
    p = setup("new-gabkron-128")
    return p, sc.keygen(p, SeededRng(b"new-128-keys"))


def test_encrypt_refuses_another_parameter_set(new128_kp):
    # the key's set but for t = 1 used to give a ciphertext of error rank 1
    # whose header said t = 1, and which decrypted
    p, kp = new128_kp
    weak = dataclasses.replace(p, t=1)
    rng = fresh_rng(b"weak-t")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    with pytest.raises(ValueError, match="parameter set differs from the public key's"):
        sc.encrypt(m, kp.pk, weak, rng)
    ct = sc.encrypt(m, kp.pk, p, rng)
    with pytest.raises(ValueError, match="ciphertext and key parameter sets differ"):
        sc.decrypt(sc.Ciphertext(weak, ct.values), kp.sk, p)
    with pytest.raises(ValueError, match="parameter set differs from the secret key's"):
        sc.decrypt(ct, kp.sk, weak)
    assert sc.decrypt(ct, kp.sk, p) == m


def test_decrypt_refuses_a_ciphertext_of_another_set(toy_kp, toy_rep_kp):
    p, kp = toy_kp
    q, kq = toy_rep_kp
    rng = fresh_rng(b"other-set")
    ct = sc.encrypt(RankVector.random(kq.pk.matrix.ctx, q.k, rng), kq.pk, q, rng)
    with pytest.raises(ValueError, match="ciphertext and key parameter sets differ"):
        sc.decrypt(ct, kp.sk, p)


def test_parsed_keys_work_with_the_named_set(new128_kp):
    # files do not store a set's name, so parsed keys hold an unnamed set;
    # the name is a label, and sets that differ only there are equal
    p, kp = new128_kp
    pk = keyio.parse_public_key(keyio.serialize_public_key(kp.pk))
    sk = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
    assert (p.name, pk.params.name, sk.params.name) == ("new-gabkron-128", "", "")
    rng = fresh_rng(b"parsed-named")
    m = RankVector.random(pk.matrix.ctx, p.k, rng)
    ct = sc.encrypt(m, pk, setup("new-gabkron-128"), rng)
    assert sc.decrypt(ct, sk, setup("new-gabkron-128")) == m


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
    e = vec_add(ct.values, vec_mat(m, kp.pk.matrix.dense()))
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
        ct = sc.Ciphertext(p, vec_add(vec_mat(m, G_pub), big))
        try:
            got = sc.decrypt(ct, kp.sk, p)
            outcomes["ok" if got == m else "wrong"] += 1
        except DecodeFailure:
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
    # the inner code's leading block is put in Newton form once, for
    # reading messages off codewords, on the first decrypt; neither it nor
    # a repaired key's M0[:, :k] is factored or inverted: the parse and the
    # decrypts eliminate only over the k1 x n1 G1 and the decoded blocks
    p, kp = request.getfixturevalue(pair)
    ctx = kp.pk.matrix.ctx
    blob = keyio.serialize_secret_key(kp.sk)
    shapes = []
    echelon = ranklinalg._echelon_packed

    def recording_echelon(ctx, rows, ncols):
        shapes.append(len(rows))
        return echelon(ctx, rows, ncols)

    monkeypatch.setattr(ranklinalg, "_echelon_packed", recording_echelon)
    monkeypatch.setattr(RankMatrix, "invert", lambda self: shapes.append(self.nrows))
    newtons = []
    lead_newton = gabcodes.GabidulinCode.__dict__["_lead_newton"].func

    def recording_newton(self):
        newtons.append(self)
        return lead_newton(self)

    cached = functools.cached_property(recording_newton)
    cached.__set_name__(gabcodes.GabidulinCode, "_lead_newton")
    monkeypatch.setattr(gabcodes.GabidulinCode, "_lead_newton", cached)
    sk = keyio.parse_secret_key(blob)  # the parse builds the decrypter
    assert sk._dec is not None
    rng = fresh_rng(b"inner-inverts")
    for _ in range(3):
        m = RankVector.random(ctx, p.k, rng)
        assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), sk, p) == m
    assert shapes and max(shapes) <= p.n1
    assert newtons == [sk._dec.code.C2]


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_keygen_computes_no_dual_vector(params, request, monkeypatch):
    # both inner codes take h from alpha's orbit (the trace dual when n2 = m,
    # the subspace polynomial when n2 < m), so no decrypt takes the generic
    # h, the Moore solve for it
    p = request.getfixturevalue(params)
    calls = []
    generic_h = GabidulinCode.__dict__["h"].func

    def recording_h(self):
        calls.append(self)
        return generic_h(self)

    monkeypatch.setattr(GabidulinCode, "h", property(recording_h))
    kp = sc.keygen(p, SeededRng(b"no-dual-vector"))
    assert calls == []
    rng = fresh_rng(b"no-dual-vector")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m
    assert calls == []
    assert "h" in kp.sk.decrypter().code.C2.__dict__  # built by the first decrypt


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_keygen_makes_no_inverse_or_dense_product(params, request, monkeypatch):
    # X P^-1 and G_pub's generators come from the circulant ring, the repaired
    # G P^-1 from alpha's orbit without the dense G or Moore(g2), and the
    # repaired N and S from one echelon form of [M0 | I_k]
    p = request.getfixturevalue(params)
    calls = []
    for cls, name in ((RankMatrix, "invert"), (RankMatrix, "mul"), (CirculantGrid, "dense")):
        orig = getattr(cls, name)

        def recording(self, *args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, recording)
    monkeypatch.setattr(audit, "kron", lambda *args: calls.append("kron"))  # the dense G
    monkeypatch.setattr(gabcodes, "moore_matrix", lambda *args: calls.append("moore"))
    sc.keygen(p, SeededRng(b"no-dense-keygen"))
    assert calls == []


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_m0_read_matches_s_solve(params, request):
    # the message read off u M0 by a parsed key's decrypter and by keygen's
    # against the solve by S = M0[:, :k]^-1, which the key held before z_0
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    for seed in (b"m0-read-1", b"m0-read-2"):
        kp = sc.keygen(p, SeededRng(seed + params.encode()))
        sk = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
        assert sk.decrypter().m0[1:] == kp.sk.decrypter().m0[1:]
        m0_read_against_s_solve(sk, fresh_rng(seed))


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_decrypt_refuses_an_error_of_rank_above_t(params, request):
    # with m = 0 the blocks carry no part of X, so an error of rank t + 1
    # adds rank at most lam (t + 1) <= t2 to them and decodes; only the
    # check rk(c - m G_pub) <= t refuses it, and rank t still decrypts
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    kp = sc.keygen(p, SeededRng(b"rank-above-t-" + params.encode()))
    assert p.lam * (p.t + 1) <= p.t2
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"rank-above-t")
    for t in (p.t, p.t + 1):
        ct = sc.Ciphertext(p, sample_rank_error(ctx, p.n, t, rng))
        if t == p.t:
            assert sc.decrypt(ct, kp.sk, p) == RankVector.zero(ctx, p.k)
            continue
        with pytest.raises(DecodeFailure, match=f"rank {t} > t"):
            sc.decrypt(ct, kp.sk, p)
        assert kp.code.block_decode(kp.sk.P.left_mul_values(ct.values.values)) == \
            RankVector.zero(ctx, p.k)


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_m0_by_structure_matches_dense_product(params, request):
    # the referee is the dense (G + X) P^-1 of the paper's definition
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    kp = sc.keygen(p, SeededRng(b"m0-" + params.encode()))
    Pinv = circulant_block_invert(kp.sk.P)
    pk, rows = m0_rows(kp, Pinv)
    M0 = dense_g_plus_x(kp).mul(Pinv.dense())
    assert [pk.unpack(row) for row in rows] == M0.rows
    assert M0.submatrix(0, 0, p.k, p.k).mul(systematic(kp.pk.matrix)) == M0
    m0_read_against_rows_and_dense(kp, M0, fresh_rng(b"m0-read-" + params.encode()))


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_x_p_inverse_repeats_t1_values(params, request):
    # X P^-1 = Cir_k(x b) for X = Cir_k(x) and P^-1 = Cir(b): x b, taken in
    # the ring at full length and as row 0 of the dense product, repeats
    # the t1 values the decrypter holds
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    kp = sc.keygen(p, SeededRng(b"xp-" + params.encode()))
    Pinv = circulant_block_invert(kp.sk.P)
    xp = kp.sk.decrypter().m0[2]
    X = kp.x_witness.X
    full = ranklinalg.cyc_mul(X.ctx, X.gens[0][0], Pinv.gens[0][0])
    assert len(xp) == p.t1 and full == xp * (p.n // p.t1)
    assert all(full[i] == full[i - p.t1] for i in range(p.t1, p.n))
    assert Pinv.dense().left_mul_values(X.dense().rows[0]) == reflect(full)
    assert sc._repaired_m0_gens(kp.code, kp.sk.z0.values, Pinv)[2] == xp


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_parsed_repaired_key_never_expands_m0_rows(params, request, monkeypatch):
    # parsing a key builds its decrypter from M0's generators, and the
    # first decrypt reads u M0 off them: neither expands M0's k rows
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    kp = sc.keygen(p, SeededRng(b"no-rows-" + params.encode()))
    rng = fresh_rng(b"no-rows")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    ct = sc.encrypt(m, kp.pk, p, rng)
    blob = keyio.serialize_secret_key(kp.sk)

    def refuse(*args):
        raise AssertionError("M0's rows expanded")

    monkeypatch.setattr(sc, "_repaired_m0_rows", refuse)
    sk = keyio.parse_secret_key(blob)
    assert sc.decrypt(ct, sk, p) == m


def test_improved_decrypter_squares_one_orbit_of_alpha(monkeypatch):
    # parsing the key, which builds its decrypter, and the parity check square
    # alpha's orbit once, for the normality check and the code, and beta's
    # orbit once, for h
    p = setup("new-gabkron-128")
    kp = sc.keygen(p, SeededRng(b"orbit-count"))
    blob = keyio.serialize_secret_key(kp.sk)
    calls = []
    sqr = FieldCtx.sqr

    def counting_sqr(self, a):
        calls.append(a)
        return sqr(self, a)

    monkeypatch.setattr(FieldCtx, "sqr", counting_sqr)
    sk = keyio.parse_secret_key(blob)
    h = sk.decrypter().code.C2.h.values
    monkeypatch.undo()
    assert len(calls) == 2 * (p.m - 1)
    # the same h as from the trace dual of alpha
    ctx = FieldCtx(p.m)
    assert h == ctx.frobenius_orbit(ctx._trace_dual_of_orbit(ctx.is_normal(sk.alpha)), p.n2)[::-1]


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_decrypter_squares_one_orbit_of_alpha(params, request, monkeypatch):
    # parsing the key, which builds its decrypter, squares alpha's m-orbit
    # once, for the orbit check; the inner code's Moore presentation is
    # windows of that orbit
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    kp = sc.keygen(p, SeededRng(b"orbit-count-" + params.encode()))
    blob = keyio.serialize_secret_key(kp.sk)
    calls = []
    sqr = FieldCtx.sqr

    def counting_sqr(self, a):
        calls.append(a)
        return sqr(self, a)

    monkeypatch.setattr(FieldCtx, "sqr", counting_sqr)
    keyio.parse_secret_key(blob)
    monkeypatch.undo()
    assert len(calls) == p.m - 1


@pytest.mark.parametrize("pair", ["toy_kp", "toy_rep_kp"])
def test_in_memory_key_with_singular_p_raises(pair, request):
    # a key made in memory passes the same gate as a parsed one on its first
    # decrypt, instead of decrypting every ciphertext to the zero message
    p, kp = request.getfixturevalue(pair)
    sk = inconsistent_secret_key(kp.sk, "P")
    rng = fresh_rng(b"singular-p")
    ct = sc.encrypt(RankVector.random(kp.pk.matrix.ctx, p.k, rng), kp.pk, p, rng)
    with pytest.raises(SingularMatrixError, match="P is singular"):
        sc.decrypt(ct, sk, p)
    assert issubclass(SingularMatrixError, ValueError)


_OUT_OF_RANGE_P = """
import dataclasses, sys
from gabkron import scheme as sc
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import CirculantGrid
if sys.argv[1] == "improved":
    p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4, t=1, t1=1, lam=3, lam_p=2)
else:
    p = setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)
kp = sc.keygen(p, SeededRng(b"out-of-range-p"))
ct = sc.encrypt([0] * p.k, kp.pk, p, SeededRng(b"e"))
gens = [[list(a) for a in row] for row in kp.sk.P.gens]
gens[0][0][0] = -1 if sys.argv[2] == "negative" else gens[0][0][0] | 1 << p.m
try:
    sk = dataclasses.replace(kp.sk, P=CirculantGrid(kp.sk.P.ctx, gens, kp.sk.P.k))
    sc.decrypt(ct, sk, p)
except ValueError:
    print("rejected")
"""


@pytest.mark.parametrize("variant", ["improved", "repaired"])
@pytest.mark.parametrize("entry", ["negative", "top"])
def test_in_memory_key_with_out_of_range_p_raises(variant, entry):
    # a negative entry of P used to loop forever in the gcd that gates the
    # decrypter, so the calls run in a child process that a timeout can stop;
    # an entry of degree >= m ended in a DecodeFailure
    proc = subprocess.run([sys.executable, "-c", _OUT_OF_RANGE_P, variant, entry],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"]


def test_in_memory_key_with_out_of_range_alpha_raises(toy_kp):
    # an alpha wider than the field's bytes used to raise OverflowError from
    # FieldCtx.sqr
    p, kp = toy_kp
    rng = fresh_rng(b"alpha-range")
    ct = sc.encrypt(RankVector.random(kp.pk.matrix.ctx, p.k, rng), kp.pk, p, rng)
    sk = dataclasses.replace(kp.sk, alpha=kp.sk.alpha | 1 << 2 * p.m)
    with pytest.raises(ValueError, match="degree >= m"):
        sc.decrypt(ct, sk, p)


def test_public_grid_with_a_negative_entry_raises(toy_kp):
    # an improved public grid holding a negative entry used to encrypt
    p, kp = toy_kp
    grid = kp.pk.matrix
    gens = [[list(a) for a in row] for row in grid.gens]
    gens[0][0][0] = -1
    rng = fresh_rng(b"negative-grid")
    with pytest.raises(ValueError, match="degree >= m"):
        pk = sc.PublicKey(p, CirculantGrid(grid.ctx, gens, grid.k))
        sc.encrypt(RankVector.random(grid.ctx, p.k, rng), pk, p, rng)


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_keygen_hands_its_code_to_the_key(params, request, monkeypatch):
    # keygen and the first decrypt build the inner code once, and the key's
    # decrypter is keygen's: no gcd on P, and a repaired key's M0
    # generators are keygen's, not built again, nor expanded to rows
    p = request.getfixturevalue(params)
    calls = []
    for cls, name in ((GabidulinCode, "__init__"), (CirculantGrid, "is_invertible"),
                      (sc, "_repaired_m0_gens"), (sc, "_repaired_m0_rows")):
        orig = getattr(cls, name)

        def recording(*args, _key=(cls.__name__, name), _orig=orig):
            calls.append(_key)
            return _orig(*args)

        monkeypatch.setattr(cls, name, recording)
    kp = sc.keygen(p, SeededRng(b"hand-over"))
    m0 = [("gabkron.scheme", "_repaired_m0_gens"), ("gabkron.scheme", "_repaired_m0_rows")]
    m0 = m0 if p.variant == "repaired" else []
    assert calls == [("GabidulinCode", "__init__")] + m0
    rng = fresh_rng(b"hand-over")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m
    assert calls == [("GabidulinCode", "__init__")] + m0
    assert kp.sk.decrypter().code is kp.code


def test_keygen_dense_ring_products(toy_repaired, monkeypatch):
    # every ring product with a factor drawn of low binary rank (P, its
    # determinant and minors, X) goes through that factor's GF(2)
    # decomposition: an improved keygen makes one dense product, w = orbit
    # det(P)^-1, and a repaired one none
    calls = []
    dense = ranklinalg.cyc_mul

    def counting(*args):
        calls.append(args)
        return dense(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gabkron") and getattr(mod, "cyc_mul", None) is dense:
            monkeypatch.setattr(mod, "cyc_mul", counting)
    assert ranklinalg.cyc_mul is counting
    sc.keygen(setup("new-gabkron-128"), SeededRng(b"dense-products"))
    assert len(calls) == 1
    calls.clear()
    sc.keygen(toy_repaired, SeededRng(b"dense-products"))
    assert calls == []


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_keygen_squares_alpha_orbit_once_per_attempt(params, request, monkeypatch):
    # each attempt squares alpha's m-orbit once per draw, for the normality
    # test, which hands the orbit to the inner code and g2 to the key
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    counts = {"sqr": 0, "is_normal": 0, "attempts": 0}
    for name, key in (("sqr", "sqr"), ("is_normal", "is_normal"),
                      ("find_normal_element", "attempts")):
        orig = getattr(FieldCtx, name)

        def counting(self, *args, _key=key, _orig=orig):
            counts[_key] += 1
            return _orig(self, *args)

        monkeypatch.setattr(FieldCtx, name, counting)
    kp = sc.keygen(p, SeededRng(b"bench"))
    monkeypatch.undo()
    assert counts["is_normal"] >= counts["attempts"] >= 1
    assert counts["sqr"] == counts["is_normal"] * (p.m - 1)
    alpha = kp.sk.g2.values[-1]
    assert kp.sk.g2.values == FieldCtx(p.m).frobenius_orbit(alpha, p.n2)


def test_repaired_keygen_draws_again_after_a_singular_leading_minor(toy_repaired, monkeypatch):
    # the first systematic form is made to miss the leading pivots, as a
    # singular leading minor does: the attempt's draws are dropped and the
    # key comes from the next one's
    p = toy_repaired
    pivots = []
    systematic = sc._systematic_packed

    def first_misses(ctx, rows, n):
        pivots.append(systematic(ctx, rows, n))
        return [] if len(pivots) == 1 else pivots[-1]

    monkeypatch.setattr(sc, "_systematic_packed", first_misses)
    kp = sc.keygen(p, SeededRng(b"retry"))
    monkeypatch.undo()
    assert pivots == [list(range(p.k))] * 2
    assert kp.sk.G1 != sc.keygen(p, SeededRng(b"retry")).sk.G1  # fresh draws
    rng = fresh_rng(b"retry")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m
    sk = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
    pk = keyio.parse_public_key(keyio.serialize_public_key(kp.pk))
    assert sc.decrypt(sc.encrypt(m, pk, p, rng), sk, p) == m


def test_repaired_keygen_gives_up_after_64_attempts(toy_repaired, monkeypatch):
    attempts = []
    monkeypatch.setattr(sc, "_systematic_packed", lambda ctx, rows, n: attempts.append(n) or [])
    with pytest.raises(sc.GenerationError, match="systematic"):
        sc.keygen(toy_repaired, SeededRng(b"give-up"))
    assert len(attempts) == 64


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_repaired_systematic_form_matches_rref(params, request):
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    systematic_form_against_rref(sc.keygen(p, SeededRng(b"systematic-" + params.encode())))


def test_repaired_systematic_form_of_m0_with_a_singular_leading_minor(toy_rep_kp):
    # row 0 of M0 plus a multiple of row 1 has a zero leading entry: the
    # leading block stays invertible but its 1 x 1 minor is singular, so the
    # Schur steps stop and the echelon gives the form, with the key's N
    p, kp = toy_rep_kp
    pk, rows = m0_rows(kp, circulant_block_invert(kp.sk.P))
    ctx = pk.ctx
    assert pk.entry(rows[1], 0)
    c = ctx.mul(pk.entry(rows[0], 0), ctx.inv(pk.entry(rows[1], 0)))
    rows[0] = pk.fold(rows[0] ^ pk.scal(rows[1], c))
    assert pk.entry(rows[0], 0) == 0
    assert ranklinalg._schur_steps(ctx, list(rows), p.n) is None
    got = list(rows)
    want = [row | 1 << ((p.n + r) * pk.S) for r, row in enumerate(rows)]
    assert ranklinalg._systematic_packed(ctx, got, p.n) == list(range(p.k))
    assert ranklinalg._rref_packed(ctx, want, p.n + p.k) == list(range(p.k))
    assert got == want
    out = ranklinalg._packed(ctx, p.n + p.k)
    assert [out.unpack(row)[p.k : p.n] for row in got] == kp.pk.matrix.dense().rows


def test_repaired_keygen_bytes_do_not_depend_on_the_schur_steps(toy_repaired, monkeypatch):
    # with the Schur steps made to report a singular leading minor, the
    # echelon of [M0 | I_k] gives the key: the same bytes
    p = toy_repaired

    def blobs(kp):
        return keyio.serialize_public_key(kp.pk), keyio.serialize_secret_key(kp.sk)

    fast = blobs(sc.keygen(p, SeededRng(b"fallback")))
    calls = []
    monkeypatch.setattr(ranklinalg, "_schur_steps", lambda *args: calls.append(args))
    assert blobs(sc.keygen(p, SeededRng(b"fallback"))) == fast
    assert len(calls) == 1


def test_repaired_keygen_draws_again_after_a_singular_leading_block(toy_repaired, monkeypatch):
    # the first attempt's M0 gets two equal rows: the Schur steps stop, the
    # echelon misses the leading pivots and keygen draws again
    p = toy_repaired
    m0_rows, systematic = sc._repaired_m0_rows, sc._systematic_packed
    schur = ranklinalg._schur_steps
    pivots, passes = [], []

    def doubled_first(*args):
        pk, rows = m0_rows(*args)
        if not pivots:
            rows[1] = rows[0]
        return pk, rows

    def recording(ctx, rows, n):
        pivots.append(systematic(ctx, rows, n))
        return pivots[-1]

    def schur_recording(*args):
        out = schur(*args)
        passes.append(out is not None)
        return out

    monkeypatch.setattr(sc, "_repaired_m0_rows", doubled_first)
    monkeypatch.setattr(sc, "_systematic_packed", recording)
    monkeypatch.setattr(ranklinalg, "_schur_steps", schur_recording)
    kp = sc.keygen(p, SeededRng(b"retry"))
    monkeypatch.undo()
    assert passes == [False, True]
    assert pivots[0] != list(range(p.k)) and pivots[1:] == [list(range(p.k))]
    assert kp.sk.G1 != sc.keygen(p, SeededRng(b"retry")).sk.G1  # fresh draws
    rng = fresh_rng(b"retry-block")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m


@pytest.mark.parametrize("params", ["toy_improved", "new-gabkron-128"])
def test_improved_keygen_draws_alpha_once(params, request, monkeypatch):
    # an improved attempt cannot fail, so the loop draws everything once
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    calls = []
    for owner, name in ((FieldCtx, "find_normal_element"), (sc, "construct_X"),
                        (sc, "construct_P")):
        orig = getattr(owner, name)

        def recording(*args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(owner, name, recording)
    kp = sc.keygen(p, SeededRng(b"alpha-once"))
    assert calls == ["find_normal_element", "construct_X", "construct_P"]
    assert kp.sk.alpha == kp.code.C2.orbit[-1]


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_second_round_trip_packs_no_kept_rows(params, request, monkeypatch):
    # the public matrix and the inner generator keep their packed rows, and
    # P its GF(2) decomposition, so only the first encrypt and decrypt build
    # them (a repaired N is held packed from keygen on and never packed)
    p = request.getfixturevalue(params)
    kp = sc.keygen(p, SeededRng(b"kept-rows"))
    owners = (kp.pk.matrix, kp.code.C2.generator)
    # what packing each owner's rows hands the packer: a grid packs row 0
    # of each block
    rows = []
    for o in owners:
        if isinstance(o, CirculantGrid):
            rows += [reflect(a) for grow in o.gens for a in grow]
        elif isinstance(o, PackedRows):
            rows += o.dense().rows
        else:
            rows += o.rows
    rng = fresh_rng(b"kept-rows")
    ctx = kp.pk.matrix.ctx

    def round_trip():
        m = RankVector.random(ctx, p.k, rng)
        assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m

    packed = []
    pack = ranklinalg._Packed.pack
    monkeypatch.setattr(ranklinalg._Packed, "pack",
                        lambda self, vals: packed.append(list(vals)) or pack(self, vals))
    round_trip()
    assert any(v in rows for v in packed)  # the first round trip packs them
    kept = [o._prows for o in owners]
    parts = kp.sk.P._parts
    assert parts is not None
    packed.clear()
    round_trip()
    assert not any(v in rows for v in packed)
    assert [o._prows for o in owners] == kept
    assert all(a is b for a, b in zip(kept, (o._prows for o in owners)))
    assert kp.sk.P._parts is parts and kp.sk.P._prows is None


@pytest.mark.parametrize("pair", ["toy_kp", "toy_rep_kp"])
def test_decrypt_builds_no_packed_rows_of_p(pair, request, monkeypatch):
    # c·P comes from P's GF(2) decomposition (CirculantGrid.left_mul_values),
    # so neither a parsed key nor a key in memory packs P's rows to decrypt;
    # a parsed repaired key builds M0's generators from row 0 of P^-1 and
    # packs no grid's rows either
    p, kp = request.getfixturevalue(pair)
    rng = fresh_rng(b"no-p-rows")
    ctx = kp.pk.matrix.ctx
    msgs = [RankVector.random(ctx, p.k, rng) for _ in range(2)]
    cts = [sc.encrypt(m, kp.pk, p, rng) for m in msgs]
    blob = keyio.serialize_secret_key(kp.sk)
    grids = []
    packed_rows = CirculantGrid.packed_rows
    monkeypatch.setattr(CirculantGrid, "packed_rows",
                        lambda self: grids.append(self) or packed_rows(self))
    for sk in (keyio.parse_secret_key(blob), kp.sk):
        for m, ct in zip(msgs, cts):
            assert sc.decrypt(ct, sk, p) == m
        assert sk.P._prows is None
    assert grids == []
