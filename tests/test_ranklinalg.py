import itertools

import pytest

from gabkron.gf2m import ContextMismatchError, FieldCtx, _bit_rank
from gabkron import ranklinalg as rl
from gabkron.ranklinalg import (
    BitMatrix,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    StructureError,
)

from conftest import fresh_rng


def test_expand_over_base(ctx4):
    v = RankVector(ctx4, [0, 0, 0])
    assert v.expand_over_base().rows == [0, 0, 0, 0]
    ctx2 = FieldCtx(2)
    v = RankVector(ctx2, [1, 2])
    M = v.expand_over_base()
    assert [M.column(0), M.column(1)] == [0b01, 0b10]


def test_expand_round_trip(ctx8, rng):
    v = RankVector.random(ctx8, 5, rng)
    M = v.expand_over_base()
    rebuilt = [M.column(j) for j in range(5)]
    assert rebuilt == v.values


def test_rank_weight_exhaustive_bruteforce(ctx4):
    # every vector in GF(2^4)^4: rank weight == size of a largest
    # GF(2)-independent coordinate subset
    n = 4
    for code in range(16 ** n):
        vals = [(code >> (4 * i)) & 0xF for i in range(n)]
        best = 0
        for r in range(1, n + 1):
            for sub in itertools.combinations(vals, r):
                if _bit_rank(list(sub)) == r:
                    best = max(best, r)
        assert RankVector(ctx4, vals).rank_weight() == best, vals


def test_rank_weight_examples(ctx4):
    assert RankVector(ctx4, [0, 0]).rank_weight() == 0
    assert RankVector(ctx4, [7, 7, 7]).rank_weight() == 1


def test_column_rank_examples(ctx4):
    assert rl.column_rank_q(RankMatrix.zero(ctx4, 2, 3)) == 0
    repeated = RankMatrix(ctx4, [[9, 9, 9], [3, 3, 3]])
    assert rl.column_rank_q(repeated) == 1


def test_column_rank_invariant_under_base_change(ctx8):
    rng = fresh_rng(b"colrank")
    for _ in range(50):
        M = RankMatrix.random(ctx8, 3, 5, rng)
        while True:
            W = BitMatrix.random(5, 5, rng)
            if W.is_invertible():
                break
        MW = RankMatrix(
            ctx8, [rl.field_vec_times_bitmatrix(ctx8, row, W) for row in M.rows]
        )
        assert rl.column_rank_q(MW) == rl.column_rank_q(M)


def test_column_rank_of_padded_factorization(ctx8):
    # [Y | 0] W has column rank at most t1
    rng = fresh_rng(b"padded")
    t1, k, n = 2, 3, 6
    for _ in range(25):
        Y = RankMatrix.random(ctx8, k, t1, rng)
        while True:
            W = BitMatrix.random(n, n, rng)
            if W.is_invertible():
                break
        padded = [row + [0] * (n - t1) for row in Y.rows]
        X = RankMatrix(
            ctx8, [rl.field_vec_times_bitmatrix(ctx8, row, W) for row in padded]
        )
        assert rl.column_rank_q(X) <= t1


def test_invert_identity_and_diagonal(ctx4):
    I = RankMatrix.identity(ctx4, 3)
    assert I.invert() == I
    D = RankMatrix.diagonal(ctx4, [3, 7, 9])
    Dinv = D.invert()
    assert Dinv == RankMatrix.diagonal(ctx4, [ctx4.inv(3), ctx4.inv(7), ctx4.inv(9)])


def test_invert_multiply_back_oracle(ctx8):
    rng = fresh_rng(b"invert8")
    done = 0
    while done < 10:
        M = RankMatrix.random(ctx8, 8, 8, rng)
        try:
            Minv = M.invert()
        except SingularMatrixError:
            continue
        assert M.mul(Minv) == RankMatrix.identity(ctx8, 8)
        done += 1


def test_singular_matrix_error_carries_rank(ctx4):
    M = RankMatrix(ctx4, [[1, 2], [1, 2]])
    with pytest.raises(SingularMatrixError) as exc:
        M.invert()
    assert exc.value.rank == 1


def test_solve_left_finds_solutions_and_rejects(ctx4):
    rng = fresh_rng(b"solve")
    G = RankMatrix.random_full_rank(ctx4, 2, 4, rng)
    x = [rng.element(4), rng.element(4)]
    b = RankVector(ctx4, x).mul_matrix(G)
    sol = G.solve_left(b)
    assert RankVector(ctx4, sol).mul_matrix(G) == b
    # a vector outside the row space has no solution
    probes = 0
    while probes < 5:
        y = RankVector.random(ctx4, 4, rng)
        sol = G.solve_left(y)
        if sol is None:
            break
        assert RankVector(ctx4, sol).mul_matrix(G) == y
        probes += 1


def test_rref_pivots_and_rank(ctx4):
    M = RankMatrix(ctx4, [[0, 1, 2], [0, 2, 5]])
    R, pivots = M.rref()
    assert pivots == (1, 2)
    assert M.rank() == 2
    # x * (0, 1, 2) = (0, 2, 4): a dependent pair has rank 1
    assert RankMatrix(ctx4, [[0, 1, 2], [0, 2, 4]]).rank() == 1


def test_solve_packed_matches_rref(ctx4):
    rng = fresh_rng(b"solvepacked")
    seen = {"inconsistent": 0, "free": 0, "unique": 0}
    for _ in range(400):
        nrows, ncols = rng.randrange(5) + 1, rng.randrange(5) + 2
        # sparse entries make rank defects and inconsistent systems common
        M = [
            [rng.element(4) if rng.randrange(3) else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        pk = rl._packed(ctx4, ncols)
        ref = [pk.pack(r) for r in M]
        ref_pivots = rl._rref_packed(ctx4, ref, ncols)
        pivots, x = rl._solve_packed(ctx4, [pk.pack(r) for r in M], ncols)
        assert pivots == ref_pivots
        if ref_pivots and ref_pivots[-1] == ncols - 1:
            assert x is None
            seen["inconsistent"] += 1
            continue
        expect = [0] * (ncols - 1)
        for ri, col in enumerate(ref_pivots):
            expect[col] = pk.entry(ref[ri], ncols - 1)
        assert x == expect
        for row in M:
            acc = 0
            for a, v in zip(row, x):
                acc ^= ctx4.mul(a, v)
            assert acc == row[-1]
        seen["free" if len(pivots) < ncols - 1 else "unique"] += 1
    assert min(seen.values()) >= 20


def test_matmul_against_schoolbook(ctx8):
    rng = fresh_rng(b"matmul")
    A = RankMatrix.random(ctx8, 3, 4, rng)
    B = RankMatrix.random(ctx8, 4, 5, rng)
    C = A.mul(B)
    for i in range(3):
        for j in range(5):
            acc = 0
            for l in range(4):
                acc ^= ctx8.mul(A.rows[i][l], B.rows[l][j])
            assert C.rows[i][j] == acc


def test_context_mismatch_between_containers(ctx4):
    other = FieldCtx(4, modulus=0b11001)
    A = RankMatrix.identity(ctx4, 2)
    B = RankMatrix.identity(other, 2)
    with pytest.raises(ContextMismatchError):
        A.mul(B)
    with pytest.raises(ContextMismatchError):
        A.add(B)


# -- circulant structure ------------------------------------------------------


def test_partial_circulant_row_layout(ctx4):
    a = RankVector(ctx4, [1, 2, 3])
    C = rl.partial_circulant(a, 2)
    assert C.rows == [[1, 3, 2], [2, 1, 3]]


def test_partial_circulant_of_unit_vector_is_identity(ctx4):
    e = RankVector(ctx4, [1, 0, 0, 0])
    assert rl.partial_circulant(e, 4) == RankMatrix.identity(ctx4, 4)


def test_partial_circulant_k_bounds(ctx4):
    a = RankVector(ctx4, [1, 2, 3])
    with pytest.raises(ValueError):
        rl.partial_circulant(a, 0)
    with pytest.raises(ValueError):
        rl.partial_circulant(a, 4)
    one_row = rl.partial_circulant(a, 1)
    assert one_row.rows == [[1, 3, 2]]


def test_circulant_generator_round_trip(ctx8):
    rng = fresh_rng(b"gen")
    a = RankVector.random(ctx8, 6, rng)
    C = rl.circulant(a)
    assert rl.circulant_generator(C) == a
    assert rl.is_circulant(C)
    with pytest.raises(StructureError):
        rl.circulant_generator(RankMatrix.random(ctx8, 3, 3, rng))


def test_circulant_product_matches_generic(ctx4):
    rng = fresh_rng(b"circprod")
    for _ in range(25):
        a = RankVector.random(ctx4, 5, rng)
        b = RankVector.random(ctx4, 5, rng)
        Ca, Cb = rl.circulant(a), rl.circulant(b)
        via_ring = rl.circulant(RankVector(ctx4, rl.cyc_mul(ctx4, a.values, b.values)))
        assert Ca.mul(Cb) == via_ring


def test_circulant_mul_closure_oracle(ctx4):
    rng = fresh_rng(b"lemma4")
    for _ in range(200):
        P = rl.partial_circulant(RankVector.random(ctx4, 3, rng), 2)
        Q = rl.circulant(RankVector.random(ctx4, 3, rng))
        prod = rl.circulant_mul_closure(P, Q)
        assert prod == P.mul(Q)
        assert rl.is_partial_circulant(prod)


def test_circulant_mul_closure_identity(ctx4):
    rng = fresh_rng(b"lemma4id")
    P = rl.partial_circulant(RankVector.random(ctx4, 4, rng), 2)
    e_first = rl.circulant(RankVector(ctx4, [1, 0, 0, 0]))
    assert rl.circulant_mul_closure(P, e_first) == P


def test_circulant_mul_closure_rejects_bad_structure(ctx4):
    rng = fresh_rng(b"lemma4bad")
    good = rl.circulant(RankVector.random(ctx4, 3, rng))
    bad = RankMatrix.random(ctx4, 3, 3, rng)
    with pytest.raises(StructureError):
        rl.circulant_mul_closure(bad, good)
    with pytest.raises(StructureError):
        rl.circulant_mul_closure(rl.partial_circulant(RankVector.random(ctx4, 3, rng), 2), bad)


def test_circulant_inverse_structure(ctx4):
    rng = fresh_rng(b"cinv")
    done = 0
    while done < 100:
        a = RankVector.random(ctx4, 5, rng)
        C = rl.circulant(a)
        try:
            Ci = rl.circulant_inverse(C)
        except SingularMatrixError:
            continue
        assert rl.is_circulant(Ci)
        assert C.mul(Ci) == RankMatrix.identity(ctx4, 5)
        done += 1


def test_circulant_block_invert_closure(ctx4):
    rng = fresh_rng(b"lemma3")
    done = 0
    while done < 100:
        grid = [
            [rl.circulant(RankVector.random(ctx4, 3, rng)) for _ in range(2)]
            for _ in range(2)
        ]
        A = RankMatrix.from_blocks(grid)
        try:
            Ainv = rl.circulant_block_invert(A, 2, 3)
        except SingularMatrixError:
            continue
        assert rl.is_circulant_block(Ainv, 2, 3)
        assert A.mul(Ainv) == RankMatrix.identity(ctx4, 6)
        done += 1


def test_circulant_block_invert_identity(ctx4):
    I = RankMatrix.identity(ctx4, 6)
    assert rl.circulant_block_invert(I, 2, 3) == I
    assert rl.is_circulant_block(I, 2, 3)


def test_circulant_block_compose_closure(ctx4):
    rng = fresh_rng(b"lemma5")
    for _ in range(100):
        B = RankMatrix.from_blocks(
            [
                [rl.partial_circulant(RankVector.random(ctx4, 3, rng), 2) for _ in range(2)]
                for _ in range(2)
            ]
        )
        A = RankMatrix.from_blocks(
            [
                [rl.circulant(RankVector.random(ctx4, 3, rng)) for _ in range(2)]
                for _ in range(2)
            ]
        )
        Q = rl.circulant_block_compose(B, A, 2, 2, 2, 3)
        assert Q == B.mul(A)
        assert rl.is_partial_circulant_block(Q, 2, 2, 2, 3)


def test_information_set_examples(ctx4):
    rng = fresh_rng(b"infoset")
    left = RankMatrix(ctx4, [[1, 0, 5, 6], [0, 1, 7, 8]])
    assert rl.information_set(left) == (0, 1)
    right = RankMatrix(ctx4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert rl.information_set(right) == (2, 3)
    for _ in range(20):
        G = RankMatrix.random_full_rank(ctx4, 2, 4, rng)
        cols = rl.information_set(G)
        G.take_columns(cols).invert()  # must not raise


def test_information_set_rank_deficient(ctx4):
    G = RankMatrix(ctx4, [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(SingularMatrixError):
        rl.information_set(G)


def test_matrix_bytes_round_trip(ctx8):
    rng = fresh_rng(b"matbytes")
    M = RankMatrix.random(ctx8, 3, 5, rng)
    assert RankMatrix.from_bytes(ctx8, M.to_bytes()) == M
    v = RankVector.random(ctx8, 7, rng)
    assert RankVector.from_bytes(ctx8, v.to_bytes()) == v
    with pytest.raises(ValueError):
        RankMatrix.from_bytes(ctx8, M.to_bytes()[:-1])


def test_bit_matrix_helpers(rng):
    T = BitMatrix.from_entries([[1, 0], [1, 1]])
    assert T.is_invertible()
    assert T.inverse().mul(T) == BitMatrix.identity(2)
    shifted = T.cyclic_col_shift()
    assert [shifted.entry(0, 0), shifted.entry(0, 1)] == [0, 1]
    # kernel of a rank-1 matrix in GF(2)^2
    K = BitMatrix.from_entries([[1, 1], [1, 1]])
    basis = rl.bit_kernel(K)
    assert len(basis) == 1 and basis[0] == 0b11


def _bitmat_apply(A: BitMatrix, y: int) -> int:
    out = 0
    for i in range(A.nrows):
        bit = 0
        v = A.rows[i] & y
        while v:
            bit ^= v & 1
            v >>= 1
        out |= bit << i
    return out


def test_solve_gf2_consistency():
    A = BitMatrix.from_entries([[1, 0, 1], [0, 1, 1]])
    targets = [0b11, 0b01]
    sols = rl.solve_gf2(A, targets)
    for b, y in zip(targets, sols):
        assert y is not None
        assert _bitmat_apply(A, y) == b
    # inconsistent target over a singular system
    B = BitMatrix.from_entries([[1, 1], [1, 1]])
    assert rl.solve_gf2(B, [0b01])[0] is None
    assert rl.solve_gf2(B, [0b11])[0] is not None
