import copy
import functools
import operator

import pytest

from gabkron.gf2m import FieldCtx, _bit_rank
from gabkron.params import setup
from gabkron import audit, scheme as sc
from gabkron import gabcodes as gc, ranklinalg as rl
from gabkron.gabcodes import DecodeFailure, GabidulinCode, KroneckerCode
from gabkron.ranklinalg import RankMatrix, RankVector, SingularMatrixError, partial_circulant
from gabkron.scheme import sample_rank_error

from conftest import (
    LeftSolver,
    assert_decode_matches_echelon,
    block_decode_by_subsets,
    block_matrix,
    decode_bruteforce,
    dual_vector_echelon,
    error_coordinates_echelon,
    expand_over_base,
    fresh_rng,
    kernel_gf2,
    key_equation_echelon,
    located_error,
    product_encode,
    rref,
    same_span,
    solve_gf2,
    vec_add,
    vec_mat,
    zero_matrix,
)


def full_rank_vector(ctx, n, rng):
    while True:
        g = RankVector.random(ctx, n, rng)
        if g.rank_weight() == n:
            return g


@pytest.fixture
def tiny_code():
    # [4, 2] over GF(2^4): radius 1, 256 codewords
    ctx = FieldCtx(4)
    g = full_rank_vector(ctx, 4, fresh_rng(b"tinygen"))
    return GabidulinCode(g, 2)


@pytest.fixture
def small_code(ctx8):
    g = full_rank_vector(ctx8, 8, fresh_rng(b"smallgen"))
    return GabidulinCode(g, 4)


def test_moore_structure(small_code):
    ctx = small_code.ctx
    G = small_code.generator
    for i in range(1, small_code.k):
        assert G.rows[i] == [ctx.sqr(v) for v in G.rows[i - 1]]


def test_generator_requires_full_rank_weight(ctx4):
    with pytest.raises(ValueError):
        GabidulinCode(RankVector(ctx4, [1, 1, 2, 3]), 2)
    with pytest.raises(ValueError):
        GabidulinCode(RankVector(FieldCtx(4), [1, 2, 4, 8, 3]), 2)  # n > m


@pytest.mark.parametrize("m,n,k", [(8, 8, 4), (8, 5, 2), (12, 10, 4), (48, 48, 12)])
def test_dual_vector_matches_full_rref(m, n, k):
    ctx = FieldCtx(m)
    code = GabidulinCode(full_rank_vector(ctx, n, fresh_rng(b"dual%d-%d" % (m, n))), k)
    lo = -(n - k - 1) % m
    A = gc.moore_matrix(RankVector(ctx, [ctx.frobenius(v, lo) for v in code.g.values]), n - 1)
    # the kernel vector as the full reduced echelon form reads it off
    R, pivots = rref(A)
    free = next(j for j in range(n) if j not in pivots)
    h = [0] * n
    h[free] = 1
    for ri, col in enumerate(pivots):
        h[col] = R.rows[ri][free]
    assert code.h.values == h
    # independently: the one-dimensional kernel of A, normalised at h_{n-1}
    assert h[n - 1] == 1
    for row in A.rows:
        acc = 0
        for a, v in zip(row, h):
            acc ^= ctx.mul(a, v)
        assert acc == 0


@pytest.mark.parametrize("m,n,k", [(8, 8, 8), (8, 6, 1), (8, 8, 1), (12, 12, 5), (12, 7, 6),
                                   (24, 17, 4), (90, 90, 18), (211, 105, 35)])
def test_generic_parity_vector_matches_echelon(m, n, k):
    # h by one backward substitution on the Newton rows of g^[lo] against
    # the echelon of the n-1 Moore rows, at n = k (no parity check), k = 1
    # and n = m among others
    ctx = FieldCtx(m)
    code = GabidulinCode(full_rank_vector(ctx, n, fresh_rng(b"newton-h-%d-%d-%d" % (m, n, k))), k)
    assert code.h == dual_vector_echelon(code)
    assert len(code.h) == (0 if n == k else n)


def test_parity_check_annihilates_generator(small_code):
    G_t = RankMatrix(small_code.ctx, [list(col) for col in zip(*small_code.generator.rows)])
    prod = small_code.parity_check.mul(G_t)
    assert prod == zero_matrix(small_code.ctx, 4, 4)


def test_square_code_has_zero_radius(ctx4):
    g = full_rank_vector(ctx4, 4, fresh_rng(b"square"))
    C = GabidulinCode(g, 4)
    assert C.radius == 0
    assert C.generator.rank() == 4
    y = RankVector.random(ctx4, 4, fresh_rng(b"squarey"))
    u, e = C.decode(y)
    assert e.values == [0, 0, 0, 0]
    assert C.encode(u) == y


def test_encode_identities(small_code, ctx8):
    rng = fresh_rng(b"encid")
    assert C_encode_zero(small_code) == [0] * 8
    e1 = [1, 0, 0, 0]
    assert small_code.encode(e1).values == small_code.g.values
    u = RankVector.random(ctx8, 4, rng)
    v = RankVector.random(ctx8, 4, rng)
    left = small_code.encode(vec_add(u, v))
    right = vec_add(small_code.encode(u), small_code.encode(v))
    assert left == right


def C_encode_zero(code):
    return code.encode([0] * code.k).values


def test_decode_zero_error(small_code, ctx8):
    rng = fresh_rng(b"dec0")
    u = RankVector.random(ctx8, 4, rng)
    y = small_code.encode(u)
    ud, ed = small_code.decode(y)
    assert ud == u and ed.values == [0] * 8


@pytest.mark.parametrize("m,n,k", [(8, 8, 4), (6, 6, 2), (12, 10, 4)])
def test_decode_round_trips_500(m, n, k):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"dec500-%d-%d-%d" % (m, n, k))
    code = GabidulinCode(full_rank_vector(ctx, n, rng), k)
    for trial in range(500):
        u = RankVector.random(ctx, k, rng)
        c = code.encode(u)
        t = trial % (code.radius + 1)
        e = sample_rank_error(ctx, n, t, rng)
        y = RankVector(ctx, [a ^ b for a, b in zip(c.values, e.values)])
        ud, ed = code.decode(y)
        assert ud == u
        assert ed == e


@pytest.mark.parametrize(
    "m,n,k", [(6, 6, 2), (8, 8, 2), (8, 6, 2), (10, 7, 1), (12, 12, 4), (12, 9, 3)]
)
def test_decode_property_every_rank(m, n, k):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"decprop-%d-%d-%d" % (m, n, k))
    code = GabidulinCode(full_rank_vector(ctx, n, rng), k)
    t = code.radius
    G = code.generator.rows
    beyond = {"failed": 0, "decoded": 0}
    for trial in range(40 * (t + 3)):
        r = trial % (t + 3)
        u = RankVector.random(ctx, k, rng)
        e = sample_rank_error(ctx, n, r, rng)
        y = vec_add(code.encode(u), e)
        if r <= t:
            assert code.decode(y) == (u, e)
            continue
        try:
            ud, ed = code.decode(y)
        except DecodeFailure:
            beyond["failed"] += 1
            continue
        beyond["decoded"] += 1
        # schoolbook u·G, independent of the packed encoder
        c = [0] * n
        for i, ui in enumerate(ud.values):
            for j in range(n):
                c[j] ^= ctx.mul(ui, G[i][j])
        assert [a ^ b for a, b in zip(c, ed.values)] == y.values
        assert ed.rank_weight() <= t
    assert beyond["failed"] > 0


def test_decode_beyond_radius_differs_or_fails(tiny_code):
    # craft y at rank distance radius+1 from c but distance <= radius from c2
    ctx = tiny_code.ctx
    rng = fresh_rng(b"beyond")
    hits = 0
    for _ in range(50):
        u = RankVector.random(ctx, 2, rng)
        c = tiny_code.encode(u)
        u2 = RankVector.random(ctx, 2, rng)
        if u2 == u:
            continue
        c2 = tiny_code.encode(u2)
        small = sample_rank_error(ctx, 4, 1, rng)
        y = RankVector(ctx, [a ^ b for a, b in zip(c2.values, small.values)])
        injected_e = [a ^ b for a, b in zip(y.values, c.values)]
        if RankVector(ctx, injected_e).rank_weight() <= tiny_code.radius:
            continue
        hits += 1
        try:
            ud, ed = tiny_code.decode(y)
            assert (ud.values, ed.values) != (u.values, injected_e)
            assert ud == u2 and ed == small
        except DecodeFailure:
            pass
    assert hits >= 10


def test_tiny_exhaustive_min_distance(tiny_code):
    # minimum rank distance equals n - k + 1 = 3, checked over all codewords
    ctx = tiny_code.ctx
    best = 99
    for idx in range(1, 256):
        u = [idx & 0xF, idx >> 4]
        w = tiny_code.encode(u).rank_weight()
        best = min(best, w)
    assert best == 3


def test_decode_agrees_with_bruteforce_sample(tiny_code):
    ctx = tiny_code.ctx
    rng = fresh_rng(b"oraclesample")
    for _ in range(30):
        u = RankVector.random(ctx, 2, rng)
        c = tiny_code.encode(u)
        e = sample_rank_error(ctx, 4, 1, rng)
        y = RankVector(ctx, [a ^ b for a, b in zip(c.values, e.values)])
        ub, eb = decode_bruteforce(tiny_code, y)
        ud, ed = tiny_code.decode(y)
        assert (ud, ed) == (ub, eb) == (u, e)


def evaluate(ctx, coeffs, x):
    """sum_i coeffs[i] x^(2^i), term by term: the referee for _root_space."""
    acc = 0
    for c in coeffs:
        acc ^= ctx.mul(c, x)
        x = ctx.sqr(x)
    return acc


def test_linearized_poly_helpers(ctx8):
    rng = fresh_rng(b"qpoly")
    a = [rng.element(8) for _ in range(3)]
    x = rng.element(8)
    y = rng.element(8)
    # evaluation is additive
    assert evaluate(ctx8, a, x ^ y) == evaluate(ctx8, a, x) ^ evaluate(ctx8, a, y)
    # root space members evaluate to zero
    for v in gc._root_space(ctx8, a):
        assert evaluate(ctx8, a, v) == 0


def subspace_polynomial(ctx, basis):
    """Monic q-polynomial whose roots are the span of basis: L <- L^2 + L(v) L."""
    L = [1]
    for v in basis:
        c = evaluate(ctx, L, v)
        # L^2 squares each coefficient and moves it up one place
        L = [ctx.mul(c, a) ^ ctx.sqr(b) for a, b in zip(L + [0], [0] + L)]
    return L


@pytest.mark.parametrize("m", [12, 24, 211])
def test_root_space_matches_transposed_kernel(m):
    # the span's dependency tags against the Gauss–Jordan kernel of the
    # columns Gamma(x^i) transposed into an m x m GF(2) matrix, on random
    # Gamma and on subspace polynomials whose root space has a known
    # dimension
    ctx = FieldCtx(m)
    rng = fresh_rng(b"root-space-%d" % m)
    dims = []
    for trial in range(6):
        if trial % 2:
            r = (1, 3, 7)[trial // 2]
            gamma = subspace_polynomial(ctx, sample_rank_error(ctx, r, r, rng).values)
        else:
            gamma = [rng.element(m) for _ in range(trial // 2 + 2)]
        cols = [evaluate(ctx, gamma, 1 << i) for i in range(m)]
        got = gc._root_space(ctx, gamma)
        assert same_span(got, kernel_gf2(expand_over_base(cols, m), m))
        assert all(evaluate(ctx, gamma, v) == 0 for v in got)
        dims.append(len(got))
    assert dims[1::2] == [1, 3, 7]


def test_kernel_basis_spans_every_root(ctx8):
    rng = fresh_rng(b"kerroots")
    for deg in range(6):
        for _ in range(6):
            coeffs = [rng.element(8) if rng.randrange(3) else 0 for _ in range(deg)]
            a = coeffs + [rng.element(8)]
            basis = gc._root_space(ctx8, a)
            span = {0}
            for v in basis:
                span |= {x ^ v for x in span}
            assert len(span) == 2 ** len(basis)
            assert span == {x for x in range(256) if evaluate(ctx8, a, x) == 0}


def test_orbit_circulant_presentation():
    ctx = FieldCtx(8)
    rng = fresh_rng(b"orbit8")
    orbit = ctx.find_normal_element(rng)
    C2 = gc.from_normal_orbit(ctx, orbit, 3)
    G2 = C2.generator
    # the presentation is the partial circulant of the orbit vector
    assert G2 == partial_circulant(RankVector(ctx, ctx.frobenius_orbit(orbit[-1], 8)), 3)
    # reversed rows form the Moore generator
    assert list(reversed(G2.rows)) == gc.moore_matrix(C2.g, 3).rows
    # successive rows step down one Frobenius power
    for i in range(G2.nrows - 1):
        assert [ctx.sqr(v) for v in G2.rows[i + 1]] == G2.rows[i]
    # same row space: every presentation row is a codeword
    for row in G2.rows:
        assert not any(C2.syndromes(row))
        u, e = C2._decode_values(row)
        assert not any(e) and C2.encode(u).values == row


@pytest.mark.parametrize(
    "params", ["toy_improved", "new-gabkron-128", "new-gabkron-192", "new-gabkron-256"]
)
def test_trace_dual_parity_vector(params, request):
    if params.startswith("toy"):
        p = request.getfixturevalue(params)
    else:
        p = setup(params)
    ctx = FieldCtx(p.m)
    C2 = gc.from_normal_orbit(
        ctx, ctx.find_normal_element(fresh_rng(b"trace-dual-h-" + params.encode())), p.k2)
    h = C2.h.values
    # the Moore-matrix solve, normalised at h_{n-1} = 1, is the referee
    ref = dual_vector_echelon(C2).values
    assert h == [ctx.mul(h[-1], v) for v in ref]
    assert C2.parity_check == gc.moore_matrix(C2.h, p.n2 - p.k2)


@pytest.mark.parametrize("params", ["toy_improved", "new-gabkron-128"])
def test_normal_orbit_parity_columns_are_windows_of_h(params, request):
    # column i of the parity check is h_i, ..., h_{i+n-k-1}, cyclic: the
    # windows of one packed row of h || h[:n-k] are the columns of h's Moore
    # matrix, transposed, and a decode that locates an error builds no
    # parity-check matrix
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    ctx = FieldCtx(p.m)
    C = gc.from_normal_orbit(
        ctx, ctx.find_normal_element(fresh_rng(b"h-windows-" + params.encode())), p.k2)
    rng = fresh_rng(b"h-windows")
    u = RankVector.random(ctx, p.k2, rng)
    e = sample_rank_error(ctx, p.n2, C.radius, rng)
    y = [a ^ b for a, b in zip(C.encode(u).values, e.values)]
    assert C.decode(y) == (u, e)
    assert "parity_check" not in C.__dict__
    pk, cols = C._packed_hcols
    H = gc.moore_matrix(C.h, p.n2 - p.k2)
    assert [pk.unpack(col) for col in cols] == [list(col) for col in zip(*H.rows)]


def decode_or_none(C, y):
    try:
        return C.decode(y)
    except DecodeFailure:
        return None


def assert_same_decoding(C, ref, rng, ranks):
    """C and ref decode u·G + e at each error rank to the same pair, or both
    raise DecodeFailure; returns the number of failures.  ref presents the
    code by the Moore matrix, whose rows C's Cir_k presentation reverses, so
    ref's message is C's reversed."""
    ctx = C.ctx
    failures = 0
    for r in ranks:
        y = vec_add(C.encode(RankVector.random(ctx, C.k, rng)), sample_rank_error(ctx, C.n, r, rng))
        got = decode_or_none(C, y)
        want = decode_or_none(ref, y)
        assert got == (want and (RankVector(ctx, want[0].values[::-1]), want[1]))
        failures += got is None
    return failures


@pytest.mark.parametrize(
    "m,k",
    [(4, 1), (4, 2), (5, 1), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3),
     (8, 2), (8, 4), (9, 3), (10, 4), (11, 3), (12, 4), (12, 6)],
)
def test_trace_dual_decoder_matches_moore_solve(m, k):
    # the decoder with h from the trace-dual orbit against the generic
    # decoder of the same code: same pair, or a DecodeFailure from both
    ctx = FieldCtx(m)
    rng = fresh_rng(b"trace-dual-decode-%d-%d" % (m, k))
    C = gc.from_normal_orbit(ctx, ctx.find_normal_element(rng), k)
    ref = GabidulinCode(C.g, k)
    t = C.radius
    ranks = [min(trial % (t + 3), m) for trial in range(12 * (t + 3))]
    assert assert_same_decoding(C, ref, rng, ranks) > 0
    assert "h" in C.__dict__ and "h" in ref.__dict__ and C.h != ref.h


@pytest.mark.parametrize("params", ["new-gabkron-128", "new-gabkron-192", "new-gabkron-256"])
def test_normal_orbit_decoder_at_registry_sets(params):
    # the inner code of each improved set: planted pairs at every rank up
    # to t decode to themselves; at t + 1 and t + 2 decode raises
    # DecodeFailure or returns a pair that re-encodes within the radius
    p = setup(params)
    ctx = FieldCtx(p.m)
    rng = fresh_rng(b"transform-decode-" + params.encode())
    C = gc.from_normal_orbit(ctx, ctx.find_normal_element(rng), p.k2)
    t = C.radius
    for r in range(t + 3):
        u = RankVector.random(ctx, C.k, rng)
        e = sample_rank_error(ctx, C.n, r, rng)
        y = vec_add(C.encode(u), e)
        got = decode_or_none(C, y)
        if r <= t:
            assert got == (u, e)
        elif got is not None:
            assert vec_add(C.encode(got[0]), got[1]) == y and got[1].rank_weight() <= t


def test_gamma0_zero_block_decodes_without_sqrt(monkeypatch):
    # a seeded block of rank 2 < t = 3 whose echelon key-equation solution
    # (the referee's, of q-degree t) has Gamma_0 = 0: the decode of such a
    # block takes no square root
    ctx = FieldCtx(8)
    C = gc.from_normal_orbit(ctx, ctx.find_normal_element(fresh_rng(b"gamma0-8-2")), 2)
    rng = fresh_rng(b"gamma0-8-2-2-76")
    u = RankVector.random(ctx, 2, rng)
    e = sample_rank_error(ctx, 8, 2, rng)
    y = vec_add(C.encode(u), e)
    gamma = key_equation_echelon(C, C.syndromes(y.values))
    assert gamma[0] == 0 and len(gamma) == C.radius + 1

    def unreachable(self, a):
        raise AssertionError("FieldCtx.sqrt ran during a decode")

    monkeypatch.setattr(FieldCtx, "sqrt", unreachable)
    assert C.decode(y) == (u, e)


@pytest.mark.parametrize("k", [1, 2])
def test_normal_orbit_decoder_exhaustive_against_bruteforce(k):
    # GF(16)^4 for m = n = 4: the leading k coordinates are an information
    # set, so the words that vanish there meet every coset of the code once,
    # and both decoders commute with adding a codeword
    ctx = FieldCtx(4)
    C = gc.from_normal_orbit(ctx, ctx.find_normal_element(fresh_rng(b"exhaustive-%d" % k)), k)
    decoded = 0
    for idx in range(16 ** (4 - k)):
        y = [0] * k + [idx >> (4 * i) & 15 for i in range(4 - k)]
        try:
            want = decode_bruteforce(C, y)
        except DecodeFailure:
            want = None
        assert decode_or_none(C, y) == want
        decoded += want is not None
    # one decodable coset per word of rank <= 1: zero, and a nonzero value
    # times a nonzero binary vector
    assert decoded == 1 + 15 * 15


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_block_decode_computes_syndromes_once(params, request, monkeypatch):
    # perfbench counts received blocks as calls to GabidulinCode.syndromes
    p = request.getfixturevalue(params)
    kp = sc.keygen(p, fresh_rng(b"syndromes-once-" + params.encode()))
    rng = fresh_rng(b"syndromes-once")
    calls = []
    syndromes = GabidulinCode.syndromes
    monkeypatch.setattr(GabidulinCode, "syndromes",
                        lambda self, y: calls.append(len(y)) or syndromes(self, y))
    C2 = kp.code.C2
    for r in range(C2.radius + 3):
        y = vec_add(C2.encode(RankVector.random(C2.ctx, C2.k, rng)),
                    sample_rank_error(C2.ctx, C2.n, r, rng))
        decode_or_none(C2, y)
        assert len(calls) == r + 1
    calls.clear()
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    assert sc.decrypt(sc.encrypt(m, kp.pk, p, rng), kp.sk, p) == m
    assert calls == [p.n2] * p.n1


def orbit_code(ctx, alpha, n, k):
    C = gc.from_orbit(ctx, ctx.frobenius_orbit(alpha, ctx.m), n, k)
    assert C.g.values == ctx.frobenius_orbit(alpha, n)
    return C


def assert_orbit_h_is_dual_vector(C):
    # the Moore-matrix solve, normalised at h_{n-1} = 1, is the referee
    ref = dual_vector_echelon(C)
    assert C.h.values == ref.values
    assert C.parity_check == gc.moore_matrix(ref, C.n - C.k)


@pytest.mark.parametrize(
    "m,n,k",
    [(4, 2, 1), (5, 4, 1), (6, 3, 2), (8, 5, 2), (8, 7, 3), (8, 7, 6), (9, 4, 1),
     (10, 6, 2), (12, 8, 4), (12, 11, 5), (16, 9, 8), (24, 12, 4), (48, 40, 12)],
)
def test_orbit_parity_vector_matches_moore_solve(m, n, k):
    ctx = FieldCtx(m)
    alpha = ctx.find_normal_element(fresh_rng(b"orbit-h-%d-%d-%d" % (m, n, k)))[-1]
    C = orbit_code(ctx, alpha, n, k)
    assert C.generator == gc.moore_matrix(C.g, k)
    assert_orbit_h_is_dual_vector(C)


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_orbit_parity_vector_at_repaired_sets(params, request):
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    ctx = FieldCtx(p.m)
    alpha = ctx.find_normal_element(fresh_rng(b"orbit-h-" + params.encode()))[-1]
    C = orbit_code(ctx, alpha, p.n2, p.k2)
    # the presentation from orbit windows against the squared-out Moore matrix
    assert C.generator == gc.moore_matrix(C.g, p.k2)
    assert_orbit_h_is_dual_vector(C)


def test_orbit_parity_vector_of_non_normal_alpha():
    # an orbit of rank r < m: any r consecutive Frobenius powers stay independent
    ctx = FieldCtx(12)
    rng = fresh_rng(b"orbit-h-non-normal")
    ranks = set()
    while len(ranks) < 3:
        alpha = rng.nonzero_element(ctx.m)
        r = _bit_rank(ctx.frobenius_orbit(alpha, ctx.m))
        if 3 <= r < ctx.m and r not in ranks:
            ranks.add(r)
            for k in (1, r // 2, r - 1):
                assert_orbit_h_is_dual_vector(orbit_code(ctx, alpha, r, k))


def test_orbit_parity_vector_of_degenerate_window_raises():
    # the subspace-polynomial recursion meets a zero value when the window
    # of n - 1 powers it spans is dependent.  Consecutive powers of a real
    # orbit never are, so the orbit list is doctored outside g's entries:
    # at m = 8, n = 5, k = 1 the window alpha^[5..8] is orbit[2], [1], [0],
    # [7], and g is orbit[3:]
    ctx = FieldCtx(8)
    orbit = list(ctx.find_normal_element(fresh_rng(b"orbit-h-degenerate")))
    orbit[0] = orbit[1] ^ orbit[2]
    C = gc._OrbitCode(RankVector(ctx, orbit[3:]), 1, orbit)
    with pytest.raises(SingularMatrixError, match="degenerate generator vector"):
        C.h


def test_from_orbit_rejects_non_orbits(ctx8):
    # a swapped g2 is rejected where a secret key's decrypter is built
    # (test_keyio's inconsistent-key tests), since from_orbit takes alpha
    orbit = ctx8.find_normal_element(fresh_rng(b"orbit-reject"))
    with pytest.raises(ValueError, match="exceeds extension degree"):
        gc.from_orbit(ctx8, orbit, 9, 2)  # n > m
    with pytest.raises(ValueError, match="rank weight"):
        gc.from_orbit(ctx8, ctx8.frobenius_orbit(1, 8), 6, 2)  # 1 is its own orbit


@pytest.mark.parametrize(
    "m,n,k",
    [(4, 2, 1), (5, 3, 1), (6, 5, 2), (7, 4, 2), (8, 5, 2), (8, 7, 3),
     (9, 6, 2), (10, 7, 3), (11, 9, 3), (12, 8, 2), (12, 11, 5)],
)
def test_orbit_decoder_matches_moore_solve(m, n, k):
    # the same code decoded with h from the subspace polynomial and with
    # the generic h: same pair, or a DecodeFailure from both
    ctx = FieldCtx(m)
    rng = fresh_rng(b"orbit-decode-%d-%d-%d" % (m, n, k))
    C = orbit_code(ctx, ctx.find_normal_element(rng)[-1], n, k)
    ref = GabidulinCode(C.g, k)
    t = C.radius
    failures = 0
    for trial in range(12 * (t + 3)):
        r = min(trial % (t + 3), n)
        y = vec_add(C.encode(RankVector.random(ctx, k, rng)), sample_rank_error(ctx, n, r, rng))
        try:
            got = C.decode(y)
        except DecodeFailure:
            got = None
        try:
            want = ref.decode(y)
        except DecodeFailure:
            want = None
        assert got == want
        failures += got is None
    assert "h" in C.__dict__ and "h" in ref.__dict__ and C.h == ref.h
    assert failures > 0


@pytest.mark.parametrize("params", ["toy_repaired", "rep-gabkron-128"])
def test_locate_matches_transposed_solve(params, request):
    # _locate against the transposed route: h^[w-1] expanded into an
    # m x n GF(2) matrix and each W_p solved by Gauss–Jordan elimination,
    # for W inside the span of h^[w-1] and for random W outside it
    p = request.getfixturevalue(params) if params.startswith("toy") else setup(params)
    ctx = FieldCtx(p.m)
    rng = fresh_rng(b"locate-" + params.encode())
    C = orbit_code(ctx, ctx.find_normal_element(rng)[-1], p.n2, p.k2)
    located = set()
    for w in (1, 2, 3, C.radius):
        hrow = C.parity_check.rows[w - 1]
        hbits = expand_over_base(hrow, p.m)
        E = sample_rank_error(ctx, w, w, rng).values
        Y = [rng.bits(p.n2) for _ in range(w)]
        inside = [functools.reduce(operator.xor, (h for i, h in enumerate(hrow) if y >> i & 1), 0)
                  for y in Y]
        for W in (inside, [rng.element(p.m) for _ in range(w)]):
            sols = solve_gf2(hbits, p.n2, W)
            if W is inside:
                assert sols == Y
            want = None if None in sols else rl.field_vec_times_bits(E, sols, p.n2)
            assert C._locate(E, W) == want
            located.add(want is not None)
    assert located == {True, False}


def test_locate_keeps_one_span_per_rank(toy_repaired, monkeypatch):
    # the span of parity-check row w - 1 is built on the first block of
    # rank w and no earlier, and a second block of that rank reuses it
    C = sc.keygen(toy_repaired, fresh_rng(b"locate-span-key")).code.C2
    ctx = C.ctx
    built = []
    bitspan = gc.BitSpan

    def recording(vals):
        built.append(list(vals))
        return bitspan(vals)

    monkeypatch.setattr(gc, "BitSpan", recording)
    rng = fresh_rng(b"locate-span")
    row = C.parity_check.rows[C.radius - 1]
    for blocks in (1, 2):
        u = RankVector.random(ctx, C.k, rng)
        e = sample_rank_error(ctx, C.n, C.radius, rng)
        assert C.decode(vec_add(C.encode(u), e)) == (u, e)
        assert built.count(row) == 1
    assert list(C._spans) == [C.radius]


def stage_code(params, request):
    """A root-space code: a toy set's inner code from a key, the m = 24,
    n = 12, k = 4 code of an orbit, a moore-m-n-k code from an arbitrary g,
    or the inner code of a registry set."""
    if params.startswith("toy"):
        return sc.keygen(request.getfixturevalue(params), fresh_rng(b"stages-key")).code.C2
    rng = fresh_rng(b"stages-" + params.encode())
    if params == "orbit-24-12-4":
        ctx = FieldCtx(24)
        return orbit_code(ctx, ctx.find_normal_element(rng)[-1], 12, 4)
    if params.startswith("moore-"):
        m, n, k = map(int, params.split("-")[1:])
        return GabidulinCode(full_rank_vector(FieldCtx(m), n, rng), k)
    p = setup(params)
    ctx = FieldCtx(p.m)
    if p.variant == "improved":
        return gc.from_normal_orbit(ctx, ctx.find_normal_element(rng), p.k2)
    return orbit_code(ctx, ctx.find_normal_element(rng)[-1], p.n2, p.k2)


STAGE_CODES = ["toy_repaired", "orbit-24-12-4", "moore-24-12-4", "rep-gabkron-128"]


@pytest.mark.parametrize("params", ["toy_improved", "moore-8-8-1", "moore-12-7-7"]
                         + STAGE_CODES + ["new-gabkron-128"])
def test_lead_block_newton_matches_left_solver(params, request):
    # a message read off a codeword's leading k entries by the Newton solve
    # against the LU factoring of the presentation's leading block
    C = stage_code(params, request)
    lead = LeftSolver(C.generator.submatrix(0, 0, C.k, C.k))
    rng = fresh_rng(b"newton-lead-" + params.encode())
    for _ in range(4):
        b = RankVector.random(C.ctx, C.k, rng).values
        assert C._lead_solve(b) == lead.solve(b)
    assert C._lead_solve([0] * C.k) == [0] * C.k
KEY_EQUATION_CODES = STAGE_CODES + ["new-gabkron-128"]


def planted_ranks(C):
    """Every rank up to the radius t and three past it; four draws each
    at the toy codes, one at the registry sets."""
    return range(C.radius + 4), 1 if C.ctx.m > 24 else 4


@pytest.mark.parametrize("params", KEY_EQUATION_CODES)
def test_decode_matches_echelon_key_equation(params, request):
    # the minimal annihilator against the referee's echelon key equation,
    # whose whole root space goes to the same later stages: both give the
    # planted pair up to t, and past t and on random words both fail or
    # both give one pair that re-encodes within the radius
    C = stage_code(params, request)
    ranks, trials = planted_ranks(C)
    assert_decode_matches_echelon(C, fresh_rng(b"bm-decode-" + params.encode()), ranks,
                                  trials, words=4)


@pytest.mark.parametrize("params", KEY_EQUATION_CODES)
def test_minimal_annihilator_root_space_is_the_error_rank(params, request):
    # on every planted block of rank w <= t the key equation's q-degree L
    # and the dimension of its root space E are w, so the later stages
    # solve for exactly the error's values
    C = stage_code(params, request)
    ctx = C.ctx
    rng = fresh_rng(b"bm-rank-" + params.encode())
    ranks, trials = planted_ranks(C)
    for w in ranks[1 : C.radius + 1]:
        for _ in range(trials):
            e = sample_rank_error(ctx, C.n, w, rng)
            lam = C._key_equation(C.syndromes(e.values))
            assert lam[0] == 1 and lam[-1] != 0
            assert len(gc._root_space(ctx, lam)) == w == len(lam) - 1


def test_root_space_smaller_than_q_degree_fails_its_block(request, monkeypatch):
    # a seeded word beyond the radius whose minimal annihilator has q-degree
    # L <= t but a nonzero root space of dimension below L: decode says so
    # before it solves for coordinates, and block_decode lists the block
    C = stage_code("orbit-24-12-4", request)
    ctx = C.ctx
    rng = fresh_rng(b"small-root-space")
    for _ in range(40):
        y = RankVector.random(ctx, C.n, rng)
        lam = C._key_equation(C.syndromes(y.values))
        if lam is not None and 0 < len(gc._root_space(ctx, lam)) < len(lam) - 1:
            break
    else:
        pytest.fail("no word with a root space below the q-degree in 40 draws")

    def unreachable(s, E):
        raise AssertionError("_error_coordinates ran on a root space below the q-degree")

    monkeypatch.setattr(C, "_error_coordinates", unreachable)
    with pytest.raises(DecodeFailure, match="root space is smaller than its q-degree"):
        C.decode(y)
    K = KroneckerCode(RankMatrix.identity(ctx, 2), C)
    codeword = C.encode(RankVector.random(ctx, C.k, rng)).values
    with pytest.raises(DecodeFailure) as exc:
        K.block_decode(y.values + codeword)
    assert exc.value.failed_blocks == [0]


@pytest.mark.parametrize("params", STAGE_CODES)
def test_error_coordinates_match_echelon(params, request):
    # the Moore stages against the packed echelon of the whole system, on
    # random independent values E with random locations, where W must also
    # be the locations against row w-1 of the parity check, and on random
    # syndromes, which an independent E solves as uniquely
    C = stage_code(params, request)
    ctx, t = C.ctx, C.radius
    rng = fresh_rng(b"stages-draws-" + params.encode())
    for w in sorted({1, 2, t - 1, t}):
        for _ in range(2):
            E = sample_rank_error(ctx, w, w, rng).values
            e, want = located_error(C, E, rng)
            s = C.syndromes(e)
            W = C._error_coordinates(s, E)
            assert W == want == error_coordinates_echelon(C, s, E)
            s = [rng.element(ctx.m) for _ in s]
            W = C._error_coordinates(s, E)
            assert W is not None and W == error_coordinates_echelon(C, s, E)


@pytest.mark.parametrize("params", ["orbit-24-12-4", "rep-gabkron-128"])
def test_error_coordinates_none_cases(params, request):
    # no values, more values than the radius, and dependent values passed
    # in directly: a zero pivot at the first stage (E_0 = 0), at a middle
    # one and at the last one; the stages and the referee both give None
    C = stage_code(params, request)
    ctx, t = C.ctx, C.radius
    rng = fresh_rng(b"stages-none-" + params.encode())
    s = [rng.element(ctx.m) for _ in range(C.n - C.k)]
    a, b, c = sample_rank_error(ctx, 3, 3, rng).values
    full = sample_rank_error(ctx, t + 1, t + 1, rng).values
    cases = [[], full, [0, a], [a, a], [a, b, a ^ b, c], full[: t - 1] + [full[0] ^ full[t - 2]]]
    for E in cases:
        assert C._error_coordinates(s, E) is None
        assert error_coordinates_echelon(C, s, E) is None
    # the same shapes with independent values do solve
    for E in ([a, b], [a, b, c], full[:t]):
        assert C._error_coordinates(s, E) == error_coordinates_echelon(C, s, E) is not None


def assert_excess_root_space_decodes(C, rng):
    """Search 40 seeded rank-2 errors for one whose echelon key-equation
    annihilator (the referee's) has a root space E of more than 2 values;
    the program's W on that E must still equal the referee's and its
    decode return the planted pair.  Returns E."""
    ctx = C.ctx
    for _ in range(40):
        u = RankVector.random(ctx, C.k, rng)
        e = sample_rank_error(ctx, C.n, 2, rng)
        s = C.syndromes(e.values)
        E = gc._root_space(ctx, key_equation_echelon(C, s))
        if len(E) > 2:
            break
    else:
        pytest.fail("no rank-2 error with a root space of more than 2 values in 40 draws")
    W = C._error_coordinates(s, E)
    assert W is not None and W == error_coordinates_echelon(C, s, E)
    assert C._locate(E, W) == e.values
    assert C.decode(vec_add(C.encode(u), e)) == (u, e)
    return E


def test_error_coordinates_with_excess_root_space():
    # the echelon key equation's annihilator has q-degree t whatever the
    # error's rank, so its root space can be larger than the error's: here
    # a rank-2 error gives len(E) = 3
    E = assert_excess_root_space_decodes(stage_code("orbit-24-12-4", None),
                                         fresh_rng(b"excess-root-space"))
    assert len(E) == 3


def test_error_coordinates_with_excess_root_space_at_n_equals_m():
    # the same at n = m, on a normal-orbit code (m = n = 12, k = 4, t = 4)
    ctx = FieldCtx(12)
    rng = fresh_rng(b"excess-root-space-normal")
    C = gc.from_normal_orbit(ctx, ctx.find_normal_element(rng), 4)
    assert_excess_root_space_decodes(C, rng)


def decode_or_reason(C, y):
    try:
        return C.decode(y)
    except DecodeFailure as exc:
        return str(exc)


@pytest.mark.parametrize(
    "params", STAGE_CODES + ["moore-16-9-3", "moore-12-11-5", "moore-8-7-3", "moore-12-12-4"]
)
def test_decode_matches_echelon_route(params, request):
    # whole decodes through the Moore stages and through the referee's
    # echelon, ranks 0 to t + 3: the same (u, e) or the same DecodeFailure
    # reason.  rep-gabkron-128 takes every fourth rank and the five around
    # the radius.
    C = stage_code(params, request)
    ref = copy.copy(C)
    ref._error_coordinates = lambda s, E: error_coordinates_echelon(ref, s, E)
    ctx, t = C.ctx, C.radius
    rng = fresh_rng(b"stages-decode-" + params.encode())
    if params.startswith("rep-"):
        ranks, trials = sorted(set(range(0, t + 4, 4)) | set(range(t - 1, t + 4))), 1
    else:
        ranks, trials = range(t + 4), 6
    outcomes = set()
    for r in ranks:
        for _ in range(trials):
            u = RankVector.random(ctx, C.k, rng)
            e = sample_rank_error(ctx, C.n, min(r, C.n), rng)
            y = vec_add(C.encode(u), e)
            got = decode_or_reason(C, y)
            assert got == decode_or_reason(ref, y)
            if r <= t:
                assert got == (u, e)
            outcomes.add(got if isinstance(got, str) else "decoded")
    assert "decoded" in outcomes and len(outcomes) > 1


def test_annihilator_without_nonzero_root_fails_its_block(request, monkeypatch):
    # a seeded word beyond the radius whose echelon key-equation
    # annihilator (the referee's) has no nonzero root, nor has the
    # program's: decode says so before it solves for coordinates, and
    # block_decode lists the block as failed
    C = stage_code("orbit-24-12-4", request)
    ctx = C.ctx
    rng = fresh_rng(b"no-nonzero-root")
    y = [RankVector.random(ctx, C.n, rng) for _ in range(2)][-1]
    gamma = key_equation_echelon(C, C.syndromes(y.values))
    assert gamma is not None and gc._root_space(ctx, gamma) == []

    def unreachable(s, E):
        raise AssertionError("_error_coordinates ran without error values")

    monkeypatch.setattr(C, "_error_coordinates", unreachable)
    with pytest.raises(DecodeFailure, match="annihilator of the error values has no nonzero root"):
        C.decode(y)
    K = KroneckerCode(RankMatrix.identity(ctx, 2), C)
    codeword = C.encode(RankVector.random(ctx, C.k, rng)).values
    with pytest.raises(DecodeFailure) as exc:
        K.block_decode(y.values + codeword)
    assert exc.value.failed_blocks == [0]


@pytest.mark.parametrize("params", ["toy_improved", "toy_repaired"])
def test_error_with_wrong_syndromes_fails_its_block(params, request, monkeypatch):
    # the message's re-encode check is what ties e to the syndromes: an
    # error within the radius whose syndromes differ from the received
    # word's makes decode raise and block_decode list the block as failed
    p = request.getfixturevalue(params)
    K = sc.keygen(p, fresh_rng(b"wrong-syndromes-" + params.encode())).code
    C2, ctx = K.C2, K.ctx
    rng = fresh_rng(b"wrong-syndromes")
    wrong = sample_rank_error(ctx, C2.n, C2.radius, rng).values
    e = sample_rank_error(ctx, C2.n, 1, rng).values
    assert C2.syndromes(wrong) != C2.syndromes(e)
    monkeypatch.setattr(C2, "_error_vector", lambda s: list(wrong))
    y = product_encode(K, RankVector.random(ctx, K.k, rng)).values
    block = [a ^ b for a, b in zip(y[: C2.n], e)]
    with pytest.raises(DecodeFailure, match="not spanned by the presentation"):
        C2.decode(block)
    with pytest.raises(DecodeFailure) as exc:
        K.block_decode(block + y[C2.n :])
    assert exc.value.failed_blocks == [0]


def test_presentation_is_checked(ctx8):
    # a presentation that spans another code than the one the Newton solve
    # reads messages off: decoding refuses to write a codeword in it
    rng = fresh_rng(b"presshape")
    g = full_rank_vector(ctx8, 8, rng)
    C = GabidulinCode(g, 3)
    C.generator = RankMatrix.random_full_rank(ctx8, 3, 8, rng)
    with pytest.raises(DecodeFailure, match="not spanned by the presentation"):
        C.decode(gc.moore_matrix(g, 3).rows[0])


# -- Kronecker product --------------------------------------------------------


def kron_fixture(ctx, rng, n1=2, k1=2, n2=6, k2=2):
    G1 = RankMatrix.random_full_rank(ctx, k1, n1, rng)
    g = full_rank_vector(ctx, n2, rng)
    return KroneckerCode(G1, GabidulinCode(g, k2))


def test_kron_scalar_outer_factor(ctx6):
    rng = fresh_rng(b"kron1x1")
    g = full_rank_vector(ctx6, 6, rng)
    C2 = GabidulinCode(g, 2)
    one = RankMatrix(ctx6, [[1]])
    K = KroneckerCode(one, C2)
    assert audit.product_generator(K) == C2.generator


def test_kron_identity_outer_factor(ctx6):
    rng = fresh_rng(b"kronI")
    g = full_rank_vector(ctx6, 6, rng)
    C2 = GabidulinCode(g, 2)
    K = KroneckerCode(RankMatrix.identity(ctx6, 2), C2)
    z = zero_matrix(ctx6, 2, 6)
    expect = block_matrix([[C2.generator, z], [z, C2.generator]])
    assert audit.product_generator(K) == expect


def test_kron_left_factor_rank_is_k(ctx6):
    rng = fresh_rng(b"lemma1")
    K = kron_fixture(ctx6, rng)
    Gbar1 = audit.left_factor(K)
    assert Gbar1.rank() == 4 == K.k
    assert audit.product_generator(K) == Gbar1.mul(audit.right_factor(K))


def test_kron_rejects_rank_deficient_outer(ctx6):
    rng = fresh_rng(b"krondef")
    g = full_rank_vector(ctx6, 6, rng)
    G1 = RankMatrix(ctx6, [[1, 2], [1, 2]])
    with pytest.raises(SingularMatrixError):
        KroneckerCode(G1, GabidulinCode(g, 2))


def test_subcode_membership(ctx6):
    rng = fresh_rng(b"member")
    K = kron_fixture(ctx6, rng)
    for _ in range(500):
        msg = RankVector.random(ctx6, K.k, rng)
        assert audit.subcode_membership(K, product_encode(K, msg).values)
    assert audit.subcode_membership(K, [0] * K.n)
    # referee for random vectors: re-encoding each block's message gives the
    # block back
    C2 = K.C2
    for trial in range(40):
        y = RankVector.random(ctx6, K.n, rng)
        if trial % 2:
            # a codeword with one block replaced
            vals = list(product_encode(K, RankVector.random(ctx6, K.k, rng)).values)
            j = trial // 2 % K.n1
            vals[j * K.n2 : (j + 1) * K.n2] = y.values[j * K.n2 : (j + 1) * K.n2]
            y = RankVector(ctx6, vals)
        blocks = [y.values[j * K.n2 : (j + 1) * K.n2] for j in range(K.n1)]
        expected = all(
            C2.encode(C2._lead_solve(b[: C2.k])).values == b for b in blocks
        )
        assert audit.subcode_membership(K, y.values) == expected


def test_block_decode_no_error(ctx6):
    rng = fresh_rng(b"kblock0")
    K = kron_fixture(ctx6, rng)
    m = RankVector.random(ctx6, K.k, rng)
    assert K.block_decode(product_encode(K, m)) == m


def test_block_decode_with_block_errors(ctx6):
    rng = fresh_rng(b"kblocke")
    K = kron_fixture(ctx6, rng)
    t2 = K.C2.radius
    assert t2 == 2
    for _ in range(100):
        m = RankVector.random(ctx6, K.k, rng)
        y = list(product_encode(K, m).values)
        for j in range(K.n1):
            e = sample_rank_error(ctx6, K.n2, rng.randrange(t2 + 1), rng)
            for i, v in enumerate(e.values):
                y[j * K.n2 + i] ^= v
        assert K.block_decode(y) == m


def test_block_decode_alternative_information_set(ctx6):
    # 3 outer columns, dimension 2: one hopeless block must not prevent recovery
    rng = fresh_rng(b"kalt")
    K = kron_fixture(ctx6, rng, n1=3, k1=2)
    assert K.I == (0, 1)
    found = 0
    for _ in range(40):
        m = RankVector.random(ctx6, K.k, rng)
        y = list(product_encode(K, m).values)
        # wreck block 0 far beyond the radius
        for i in range(K.n2):
            y[i] ^= rng.element(ctx6.m)
        try:
            got = K.block_decode(y)
        except DecodeFailure:
            continue  # block 0 accidentally decoded elsewhere and spoiled the set
        if got == m:
            found += 1
    assert found >= 30


def test_block_decode_failure_diagnostics(ctx6):
    rng = fresh_rng(b"kfail")
    K = kron_fixture(ctx6, rng)  # n1 = k1 = 2: no alternative sets
    m = RankVector.random(ctx6, K.k, rng)
    y = list(product_encode(K, m).values)
    for i in range(K.n2):
        y[i] ^= rng.element(ctx6.m)
    try:
        got = K.block_decode(y)
        # garbage can still be within radius of some codeword; accept silently
    except DecodeFailure as exc:
        assert 0 in exc.failed_blocks


def test_block_decode_rejects_miscorrected_block(ctx6):
    # n1 = 3, k1 = 2: one block moved onto another inner codeword decodes,
    # within the radius, to a wrong block message.  Each information set then
    # disagrees with the one block outside it, so no message may be returned.
    rng = fresh_rng(b"kmiscorrect")
    K = kron_fixture(ctx6, rng, n1=3, k1=2)
    for j in range(K.n1):
        m = RankVector.random(ctx6, K.k, rng)
        y = list(product_encode(K, m).values)
        wrong = K.C2.encode(RankVector.random(ctx6, K.k2, rng))
        assert any(wrong.values)
        e = sample_rank_error(ctx6, K.n2, 1, rng)
        for i in range(K.n2):
            y[j * K.n2 + i] ^= wrong.values[i] ^ e.values[i]
        with pytest.raises(DecodeFailure) as exc:
            K.block_decode(y)
        assert exc.value.failed_blocks == []


def decode_outcome(decode, K, y):
    try:
        return decode(K, y).values
    except DecodeFailure as exc:
        return str(exc), exc.failed_blocks


@pytest.mark.parametrize("n1,k1,dependent", [
    (2, 1, False), (2, 2, False), (3, 2, False), (4, 2, False), (4, 3, False),
    (2, 1, True), (3, 2, True), (4, 2, True), (4, 3, True),
])
def test_block_decode_matches_subset_search(ctx6, n1, k1, dependent):
    # one elimination over the decoded blocks against the search over their
    # information sets, with blocks clean, past the radius or moved onto
    # another inner codeword, and for a G1 with k1 dependent columns
    rng = fresh_rng(b"kdiff-%d-%d-%d" % (n1, k1, dependent))
    K = kron_fixture(ctx6, rng, n1=n1, k1=k1)
    if dependent:
        # column n1 - 1 becomes a multiple of column 0 (zero when k1 = 1),
        # so the k1-subsets holding both are singular; G1 keeps full row rank
        c = rng.nonzero_element(ctx6.m) if k1 > 1 else 0
        rows = [row[:-1] + [ctx6.mul(c, row[0])] for row in K.G1.rows]
        K = KroneckerCode(RankMatrix(ctx6, rows), K.C2)
    t2 = K.C2.radius
    outcomes = set()
    for _ in range(60):
        m = RankVector.random(ctx6, K.k, rng)
        y = list(product_encode(K, m).values)
        for j in range(n1):
            kind = rng.randrange(4)
            if kind < 2:  # within the radius
                e = sample_rank_error(ctx6, K.n2, rng.randrange(t2 + 1), rng).values
            elif kind == 2:  # past the radius
                e = sample_rank_error(ctx6, K.n2, t2 + 1 + rng.randrange(K.n2 - t2), rng).values
            else:  # another inner codeword, within the radius of it
                wrong = K.C2.encode(RankVector.random(ctx6, K.k2, rng)).values
                e = [a ^ b for a, b in
                     zip(wrong, sample_rank_error(ctx6, K.n2, 1, rng).values)]
            for i, v in enumerate(e):
                y[j * K.n2 + i] ^= v
        want = decode_outcome(block_decode_by_subsets, K, y)
        assert decode_outcome(KroneckerCode.block_decode, K, y) == want
        outcomes.add(isinstance(want, tuple))
    assert outcomes == {False, True}
