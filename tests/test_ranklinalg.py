import functools
import importlib
import itertools
import math
import operator
import pathlib
import types

import pytest

from gabkron.gf2m import BitSpan, ContextMismatchError, FieldCtx, _bit_rank
from gabkron import audit, gabcodes, gf2m, ranklinalg as rl, scheme as sc
from gabkron.params import setup
from gabkron.ranklinalg import (
    RankMatrix,
    RankVector,
    SingularMatrixError,
    StructureError,
)

from conftest import (
    cyc_inv_euclid,
    cyclotomic_multiples,
    expand_over_base,
    fresh_rng,
    lincomb_per_term,
    pack_shift_loop,
    products_per_term,
    ring_against_euclid,
    rref,
    solve_gf2,
    solve_packed,
    unpack_shift_loop,
    zero_matrix,
)


def test_expand_round_trip(ctx8, rng):
    # the transposition the BitSpan referees run on: column j of the GF(2)
    # matrix holds the coefficients of entry j
    v = RankVector.random(ctx8, 5, rng)
    M = expand_over_base(v.values, 8)
    assert len(M) == 8 and max(M).bit_length() <= 5
    assert [bit_column(M, j) for j in range(5)] == v.values


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
    assert rl.column_rank_q(zero_matrix(ctx4, 2, 3)) == 0
    repeated = RankMatrix(ctx4, [[9, 9, 9], [3, 3, 3]])
    assert rl.column_rank_q(repeated) == 1


def test_column_rank_invariant_under_base_change(ctx8):
    rng = fresh_rng(b"colrank")
    for _ in range(50):
        M = RankMatrix.random(ctx8, 3, 5, rng)
        while True:
            W = [rng.bits(5) for _ in range(5)]
            if _bit_rank(W) == 5:
                break
        MW = RankMatrix(ctx8, [rl.field_vec_times_bits(row, W, 5) for row in M.rows])
        assert rl.column_rank_q(MW) == rl.column_rank_q(M)


def test_column_rank_of_padded_factorization(ctx8):
    # [Y | 0] W has column rank at most t1
    rng = fresh_rng(b"padded")
    t1, k, n = 2, 3, 6
    for _ in range(25):
        Y = RankMatrix.random(ctx8, k, t1, rng)
        while True:
            W = [rng.bits(n) for _ in range(n)]
            if _bit_rank(W) == n:
                break
        padded = [row + [0] * (n - t1) for row in Y.rows]
        X = RankMatrix(ctx8, [rl.field_vec_times_bits(row, W, n) for row in padded])
        assert rl.column_rank_q(X) <= t1


def diagonal(ctx, diag):
    return RankMatrix(ctx, [[v if i == j else 0 for j in range(len(diag))]
                            for i, v in enumerate(diag)])


def test_invert_identity_and_diagonal(ctx4):
    I = RankMatrix.identity(ctx4, 3)
    assert I.invert() == I
    D = diagonal(ctx4, [3, 7, 9])
    Dinv = D.invert()
    assert Dinv == diagonal(ctx4, [ctx4.inv(3), ctx4.inv(7), ctx4.inv(9)])


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


@pytest.mark.parametrize("m,k", [(4, 6), (90, 12), (211, 9)])
def test_left_solver_matches_inverse(m, k):
    # x·A = b solved from the factored [A^T | I] against b·A^-1
    ctx = FieldCtx(m)
    rng = fresh_rng(b"left-solver-%d" % m)
    done = 0
    while done < 4:
        rows = RankMatrix.random(ctx, k, k, rng).rows
        if m == 4 and done % 2:
            rows[0][0] = 0  # a zero leading entry makes the factoring swap rows
        A = RankMatrix(ctx, rows)
        try:
            Ainv = A.invert()
        except SingularMatrixError:
            continue
        solver = rl.LeftSolver(A)
        for _ in range(3):
            b = RankVector.random(ctx, k, rng).values
            x = solver.solve(b)
            assert x == Ainv.left_mul_values(b)
            assert A.left_mul_values(x) == b
        assert solver.solve([0] * k) == [0] * k
        done += 1


@pytest.mark.parametrize("rank", [0, 1, 3, 4])
def test_left_solver_rejects_singular_with_rank(ctx8, rank):
    rng = fresh_rng(b"left-solver-singular-%d" % rank)
    k = 5
    while True:
        B = RankMatrix.random(ctx8, k, rank, rng) if rank else zero_matrix(ctx8, k, 1)
        C = RankMatrix.random(ctx8, rank, k, rng) if rank else zero_matrix(ctx8, 1, k)
        A = B.mul(C)  # rank at most `rank`
        if A.rank() == rank:
            break
    with pytest.raises(SingularMatrixError) as exc:
        rl.LeftSolver(A)
    assert exc.value.rank == rank
    with pytest.raises(SingularMatrixError):
        rl.LeftSolver(RankMatrix.random(ctx8, 3, 4, rng))  # not square


# -- referee for LeftSolver's LU replay ---------------------------------------
# Factoring with no recorded steps: one forward elimination of [A^T | I] by
# the referee kernel below, whose identity half E, with U = E A^T, turns
# x·A = b into U x^T = E b^T; then a back-substitution with one field mul
# per entry.


class OracleLeftSolver:
    def __init__(self, A):
        ctx, k = A.ctx, A.nrows
        self.ctx, self.k = ctx, k
        pk = rl._packed(ctx, 2 * k)
        unit = 1 << (k * pk.S)
        rows = [pk.pack(col) | unit << (j * pk.S) for j, col in enumerate(zip(*A.rows))]
        pivots = oracle_echelon(ctx, rows, 2 * k)
        rank = sum(c < k for c in pivots)
        if rank < k:
            raise SingularMatrixError(f"matrix is singular (rank {rank})", rank=rank)
        self.rows = [pk.unpack(r) for r in rows]

    def solve(self, b):
        ctx, k, mul = self.ctx, self.k, self.ctx.mul
        x = [0] * k
        for r in range(k - 1, -1, -1):
            row = self.rows[r]
            acc = 0
            for j in range(k):
                acc ^= mul(row[k + j], b[j])  # (E b^T)_r
            for c in range(r + 1, k):
                acc ^= mul(row[c], x[c])
            x[r] = acc
        return x


def forced_swap_matrix(ctx, k, s, rng):
    """A random k x k matrix whose leading s x s minor is singular: column
    s-1 of its first s rows combines the columns before it, so eliminating
    A^T finds a zero pivot at step s-1 (or earlier) and swaps rows."""
    rows = RankMatrix.random(ctx, k, k, rng).rows
    xs = [rng.element(ctx.m) for _ in range(s - 1)]
    for i in range(s):
        acc = 0
        for j, x in enumerate(xs):
            acc ^= ctx.mul(x, rows[i][j])
        rows[i][s - 1] = acc
    return RankMatrix(ctx, rows)


def low_rank_matrix(ctx, k, rank, rng):
    if rank == 0:
        return zero_matrix(ctx, k, k)
    return RankMatrix.random(ctx, k, rank, rng).mul(RankMatrix.random(ctx, rank, k, rng))


@pytest.mark.parametrize("m,k", [(4, 7), (90, 10), (211, 8)])
def test_left_solver_matches_augmented_oracle(m, k):
    # the LU replay against the [A^T | I] factoring: the same x for every b,
    # or SingularMatrixError with the same rank from both
    ctx = FieldCtx(m)
    rng = fresh_rng(b"left-solver-oracle-%d" % m)
    cases = [RankMatrix.random(ctx, k, k, rng) for _ in range(4)]
    cases += [forced_swap_matrix(ctx, k, s, rng) for s in (1, 2, k // 2, k)]
    cases += [low_rank_matrix(ctx, k, r, rng) for r in (0, 1, k // 2, k - 1)]
    solved = raised = 0
    for A in cases:
        try:
            want = OracleLeftSolver(A)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as got:
                rl.LeftSolver(A)
            assert got.value.rank == exc.rank
            raised += 1
            continue
        solver = rl.LeftSolver(A)
        for _ in range(3):
            b = RankVector.random(ctx, k, rng).values
            assert solver.solve(b) == want.solve(b)
        assert solver.solve([0] * k) == [0] * k
        solved += 1
    assert solved >= 5 and raised >= 4


def test_echelon_records_its_steps_without_changing_them(ctx8):
    # the recorded elimination leaves the rows and pivots as they were, and
    # each record holds its row's original index, multipliers and pivot inverse
    rng = fresh_rng(b"echelon-lu")
    A = forced_swap_matrix(ctx8, 6, 2, rng)
    pk = rl._packed(ctx8, 6)
    plain, recorded = [pk.pack(r) for r in A.rows], [pk.pack(r) for r in A.rows]
    lu = []
    assert rl._echelon_packed(ctx8, recorded, 6, lu) == rl._echelon_packed(ctx8, plain, 6)
    assert recorded == plain
    assert sorted(rec[0] for rec in lu) == list(range(6))
    assert [rec[0] for rec in lu] != list(range(6))  # the zero pivot swapped rows
    assert [len(rec) for rec in lu] == [r + 2 for r in range(6)]


def test_rref_pivots_and_rank(ctx4):
    M = RankMatrix(ctx4, [[0, 1, 2], [0, 2, 5]])
    R, pivots = rref(M)
    assert pivots == (1, 2)
    assert M.rank() == 2
    # x * (0, 1, 2) = (0, 2, 4): a dependent pair has rank 1
    assert RankMatrix(ctx4, [[0, 1, 2], [0, 2, 4]]).rank() == 1


# -- referee for the packed elimination kernel --------------------------------
# The straightforward elimination: every row update multiplies with scal,
# which builds the pivot row's window table again, and folds the whole row;
# back-substitution makes one field mul per entry.


def oracle_echelon(ctx, rows, ncols):
    pk = rl._packed(ctx, ncols)
    nrows = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if pk.entry(rows[i], col)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = pk.entry(rows[r], col)
        if pv != 1:
            rows[r] = pk.fold(pk.scal(rows[r], ctx.inv(pv)))
        for i in range(r + 1, nrows):
            f = pk.entry(rows[i], col)
            if f:
                rows[i] = pk.fold(rows[i] ^ pk.scal(rows[r], f))
        pivots.append(col)
        r += 1
    return pivots


def oracle_rref(ctx, rows, ncols):
    pk = rl._packed(ctx, ncols)
    pivots = oracle_echelon(ctx, rows, ncols)
    for r in range(len(pivots) - 1, 0, -1):
        for i in range(r):
            f = pk.entry(rows[i], pivots[r])
            if f:
                rows[i] = pk.fold(rows[i] ^ pk.scal(rows[r], f))
    return pivots


def oracle_solve(ctx, rows, ncols):
    pk = rl._packed(ctx, ncols)
    pivots = oracle_echelon(ctx, rows, ncols)
    rhs = ncols - 1
    if pivots and pivots[-1] == rhs:
        return pivots, None
    x = [0] * rhs
    for r in range(len(pivots) - 1, -1, -1):
        vals = pk.unpack(rows[r])
        acc = vals[rhs]
        for c in pivots[r + 1 :]:
            acc ^= ctx.mul(vals[c], x[c])
        x[pivots[r]] = acc
    return pivots, x


def kernel_case(ctx, kind, nrows, ncols, rng):
    """A matrix of the given kind; the last column doubles as a right-hand side."""
    def el():
        return rng.element(ctx.m)

    if kind in ("rank-deficient", "inconsistent"):
        nrows = max(nrows, 3)
    if kind == "sparse":
        return [[el() if rng.randrange(4) == 0 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
    M = [[el() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero-column":
        for j in rng.sample(range(ncols), max(1, ncols // 3)):
            for row in M:
                row[j] = 0
    elif kind in ("rank-deficient", "inconsistent"):
        # later rows combine the first two, so the rank is at most 2; an
        # inconsistent system then has a right-hand side outside that span
        a, b = M[0], M[1 % nrows]
        for row in M[2:]:
            x, y = el(), el()
            row[:] = [ctx.mul(x, u) ^ ctx.mul(y, v) for u, v in zip(a, b)]
        if kind == "inconsistent":
            M[-1][-1] ^= 1 + el() % ctx.mask
    return M


KERNEL_KINDS = ("random", "sparse", "zero-column", "rank-deficient", "inconsistent")


def assert_kernel_matches_oracle(ctx, M):
    """Same pivots and rows from both eliminations, same unknowns from the
    solve; returns the unknowns (None when inconsistent)."""
    ncols = len(M[0])
    pk = rl._packed(ctx, ncols)
    for kernel, oracle in ((rl._echelon_packed, oracle_echelon),
                           (rl._rref_packed, oracle_rref),
                           (solve_packed, oracle_solve)):
        got, want = [pk.pack(r) for r in M], [pk.pack(r) for r in M]
        result = kernel(ctx, got, ncols)
        assert result == oracle(ctx, want, ncols), (kernel.__name__, M)
        assert got == want, (kernel.__name__, M)
    return result[1]


# m = 4, 12 and 90 have trinomial moduli, m = 8 and 211 pentanomials
@pytest.mark.parametrize("m,trials,size", [(4, 60, 7), (8, 60, 7), (12, 40, 8),
                                           (90, 12, 10), (211, 8, 10)])
def test_kernel_matches_oracle(m, trials, size):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"kernel-oracle-%d" % m)
    solved = {"none": 0, "solution": 0}
    for trial in range(trials * len(KERNEL_KINDS)):
        kind = KERNEL_KINDS[trial % len(KERNEL_KINDS)]
        nrows, ncols = rng.randrange(size) + 1, rng.randrange(size) + 2
        x = assert_kernel_matches_oracle(ctx, kernel_case(ctx, kind, nrows, ncols, rng))
        solved["none" if x is None else "solution"] += 1
    assert min(solved.values()) >= trials // 2


@pytest.mark.parametrize("m,shape", [(211, (30, 31)), (211, (12, 24)), (90, (24, 20))])
def test_kernel_matches_oracle_full_width(m, shape):
    # wide rows at full field size, the inverse's [A | I] layout included
    ctx = FieldCtx(m)
    rng = fresh_rng(b"kernel-oracle-wide-%d-%d" % shape)
    nrows, ncols = shape
    M = [[rng.element(m) for _ in range(ncols)] for _ in range(nrows)]
    if ncols == 2 * nrows:
        M = [row[:nrows] + [int(i == j) for j in range(nrows)] for i, row in enumerate(M)]
    assert_kernel_matches_oracle(ctx, M)


def test_solve_packed_matches_rref():
    for m in (4, 8, 90, 211):
        ctx = FieldCtx(m)
        rng = fresh_rng(b"solvepacked" + (b"-%d" % m if m != 4 else b""))
        seen = {"inconsistent": 0, "free": 0, "unique": 0}
        for _ in range(400):
            nrows, ncols = rng.randrange(5) + 1, rng.randrange(5) + 2
            # sparse entries make rank defects and inconsistent systems common
            M = [
                [rng.element(m) if rng.randrange(3) else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            pk = rl._packed(ctx, ncols)
            ref = [pk.pack(r) for r in M]
            ref_pivots = rl._rref_packed(ctx, ref, ncols)
            pivots, x = solve_packed(ctx, [pk.pack(r) for r in M], ncols)
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
                    acc ^= ctx.mul(a, v)
                assert acc == row[-1]
            seen["free" if len(pivots) < ncols - 1 else "unique"] += 1
        assert min(seen.values()) >= 20


def triangular(ctx, n, up, unit, rng):
    """A random n x n triangular matrix, upper when up, with a unit or a
    random nonzero diagonal; a third of the entries off it are zero, so
    some columns of the system are empty."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1 if unit else rng.nonzero_element(ctx.m))
            elif (j > i) == up and rng.randrange(3):
                row.append(rng.element(ctx.m))
            else:
                row.append(0)
        rows.append(row)
    return RankMatrix(ctx, rows)


@pytest.mark.parametrize("m", [8, 90])
@pytest.mark.parametrize("n", [1, 2, 17])
@pytest.mark.parametrize("up", [False, True])
@pytest.mark.parametrize("unit", [True, False])
def test_substitute_matches_inverse(m, n, up, unit):
    # T x^T = b^T for triangular T: x from the packed columns of T below
    # (or above) its diagonal and the inverses of its pivots, against the
    # dense inverse times b
    ctx = FieldCtx(m)
    rng = fresh_rng(b"substitute-%d-%d-%d-%d" % (m, n, up, unit))
    pk = rl._packed(ctx, n)
    for _ in range(4):
        T = triangular(ctx, n, up, unit, rng)
        b = [rng.element(m) for _ in range(n)]
        cols = [pk.pack([T.rows[i][r] if (i < r if up else i > r) else 0 for i in range(n)])
                for r in range(n)]
        pinvs = None if unit else [ctx.inv(T.rows[r][r]) for r in range(n)]
        x = rl._substitute(pk, pk.pack(b), cols, pinvs, up)
        want = T.invert().mul(RankMatrix(ctx, [[v] for v in b]))
        assert x == [row[0] for row in want.rows]


def test_one_triangular_substitution(ctx8, monkeypatch):
    # the LU solve runs two passes of _substitute, and the Newton solves
    # of the leading block (forward) and of h (backward) and the Moore
    # stages one each: no caller keeps a loop of its own
    calls = []
    substitute = rl._substitute

    def counted(*args, **kwargs):
        calls.append(kwargs.get("up", False))
        return substitute(*args, **kwargs)

    monkeypatch.setattr(rl, "_substitute", counted)
    monkeypatch.setattr(gabcodes, "_substitute", counted)
    rng = fresh_rng(b"substitute-routing")
    A = RankMatrix.random_full_rank(ctx8, 6, 6, rng)
    b = [rng.element(8) for _ in range(6)]
    assert rl.LeftSolver(A).solve(b) == A.invert().left_mul_values(b)
    assert calls == [False, True]
    calls.clear()
    C = gabcodes.GabidulinCode(RankVector(ctx8, sc.sample_rank_error(ctx8, 8, 8, rng).values), 2)
    assert C._lead_solve(b[:2]) == rl.LeftSolver(C.generator.submatrix(0, 0, 2, 2)).solve(b[:2])
    assert calls == [False, False, True]
    calls.clear()
    assert len(C.h) == 8 and calls == [True]
    calls.clear()
    E = sc.sample_rank_error(ctx8, 2, 2, rng).values
    s = [rng.element(8) for _ in range(C.n - C.k)]
    assert C._error_coordinates(s, E) is not None
    assert calls == [True]


def toeplitz_like(ctx, k, n, rank, rng):
    """k x n rows, each the one above shifted right by one slot (its last
    entry dropped) plus a combination of `rank` fixed rows."""
    el = functools.partial(rng.element, ctx.m)
    fixed = [[el() for _ in range(n)] for _ in range(rank)]
    rows = [[el() for _ in range(n)]]
    for _ in range(k - 1):
        row = [0] + rows[-1][:-1]
        for u in fixed:
            c = el()
            row = [a ^ ctx.mul(c, b) for a, b in zip(row, u)]
        rows.append(row)
    return rows


def assert_systematic_matches_rref(ctx, M, n):
    """_systematic_packed against the reduced echelon form of [M | I_k]:
    the same pivots and every row; returns the pivots."""
    pk = rl._packed(ctx, n)
    got = [pk.pack(row) for row in M]
    want = [row | 1 << ((n + r) * pk.S) for r, row in enumerate(got)]
    pivots = rl._systematic_packed(ctx, got, n)
    assert pivots == rl._rref_packed(ctx, want, n + len(M)), M
    assert got == want, M
    return pivots


def displacement(ctx, M, n):
    """E - Z E Z^T for E = [[M, I_k], [I_k, 0]], densely."""
    k = len(M)
    E = [row + [int(i == j) for j in range(k)] for i, row in enumerate(M)]
    E += [[int(i == j) for j in range(n + k)] for i in range(k)]
    return [[E[i][j] ^ (E[i - 1][j - 1] if i and j else 0) for j in range(n + k)]
            for i in range(2 * k)]


@pytest.mark.parametrize("m,k,n", [(8, 5, 9), (90, 6, 6), (211, 4, 10)])
def test_displacement_generators_factor_the_displacement(m, k, n):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"displacement-%d" % m)
    for rank in (0, 2, k):
        M = toeplitz_like(ctx, k, n, rank, rng)
        pk = rl._packed(ctx, n)
        gcols, bcols = rl._displacement_generators(ctx, [pk.pack(row) for row in M], n)
        # every generator lives in E's rows 0..k and columns 0..n
        assert len(gcols) <= min(rank + 3, k + 1)
        G = [rl._packed(ctx, 2 * k).unpack(g) for g in gcols]
        B = [rl._packed(ctx, n + k).unpack(b) for b in bcols]
        GB = [[functools.reduce(operator.xor, (ctx.mul(g[i], b[j]) for g, b in zip(G, B)), 0)
               for j in range(n + k)] for i in range(2 * k)]
        assert GB == displacement(ctx, M, n)


# m = 4, 12 and 90 have trinomial moduli, m = 8 and 211 pentanomials
@pytest.mark.parametrize("m,trials", [(4, 30), (8, 30), (12, 20), (90, 8), (211, 6)])
def test_systematic_form_matches_rref(m, trials):
    # Toeplitz-like matrices of low displacement rank and dense ones (rank
    # up to k + 1), square and wide, down to one row
    ctx = FieldCtx(m)
    rng = fresh_rng(b"systematic-%d" % m)
    schur = 0
    for trial in range(trials):
        k = rng.randrange(8) + 1
        n = k + rng.randrange(8)
        rank = (0, 1, 2, k)[trial % 4]
        M = toeplitz_like(ctx, k, n, rank, rng)
        pk = rl._packed(ctx, n)
        ran = rl._schur_steps(ctx, [pk.pack(row) for row in M], n) is not None
        pivots = assert_systematic_matches_rref(ctx, M, n)
        # a Schur pass means every leading minor is nonzero, so the pivots lead
        assert not ran or pivots == list(range(k))
        schur += ran
    assert schur >= trials // 2


def test_systematic_form_falls_back_on_singular_leading_minor():
    # the leading k x k block is invertible in the first two cases, but a
    # leading principal minor is singular (the 1 x 1 one, then the 3 x 3
    # one), so the Schur steps stop and the echelon decides; in the last
    # case the block is singular and the pivots do not lead
    ctx = FieldCtx(8)
    rng = fresh_rng(b"systematic-fallback")
    el = functools.partial(rng.element, 8)
    k, n = 6, 10
    seen = []
    while len(seen) < 3:
        M = [[el() for _ in range(n)] for _ in range(k)]
        case = len(seen)
        if case == 0:
            M[0][0] = 0
        else:
            # row 2 (case 1) or row k-1 (case 2) agrees with a combination of
            # rows 0 and 1 on the leading columns
            r = 2 if case == 1 else k - 1
            x, y = el(), el()
            for j in range(k if case == 2 else 3):
                M[r][j] = ctx.mul(x, M[0][j]) ^ ctx.mul(y, M[1][j])
        lead = RankMatrix(ctx, [row[:k] for row in M]).rank()
        if (case < 2) != (lead == k):
            continue
        pk = rl._packed(ctx, n)
        assert rl._schur_steps(ctx, [pk.pack(row) for row in M], n) is None
        pivots = assert_systematic_matches_rref(ctx, M, n)
        assert (pivots == list(range(k))) == (case < 2)
        seen.append(pivots)


SLOT_COUNTS = [0, 1, 2, 3, 5, 8, 13, 36, 140, 220]


@pytest.mark.parametrize("m", [4, 90, 211])
@pytest.mark.parametrize("L", SLOT_COUNTS)
def test_pack_unpack_match_shift_loops(m, L):
    # pairwise packing and splitting against the shift loops: reduced
    # values, values filling the whole 2m-bit slot, the all-ones element,
    # and unfolded rows with bits above m in a slot and past slot L - 1
    ctx = FieldCtx(m)
    pk = rl._packed(ctx, L)
    rng = fresh_rng(b"pack-%d-%d" % (m, L))
    for vals in ([rng.element(m) for _ in range(L)], [rng.bits(pk.S) for _ in range(L)],
                 [ctx.mask] * L, [pk.slot_mask] * L, [0] * L):
        p = pk.pack(vals)
        assert p == pack_shift_loop(pk, vals)
        assert pk.unpack(p) == unpack_shift_loop(pk, p)
        if all(v <= ctx.mask for v in vals):
            assert pk.unpack(p) == vals
    for p in (rng.bits(L * pk.S), rng.bits((L + 3) * pk.S), rng.bits(L * pk.S + 5),
              (1 << (L * pk.S + 2 * m)) - 1):
        assert pk.unpack(p) == unpack_shift_loop(pk, p)
    # pack takes any number of values, as the shift loop does
    short = [rng.element(m) for _ in range(L // 2 + 1)]
    assert pk.pack(short) == pack_shift_loop(pk, short)


@pytest.mark.parametrize("m,L", [(8, 5), (90, 36), (211, 140)])
def test_sum_products_matches_per_term(m, L):
    # the chunked window sum against one scal per term, for no terms, one,
    # one chunk and one either side of it, with zero coefficients, zero
    # rows and coefficient 1 among the terms
    ctx = FieldCtx(m)
    pk = rl._packed(ctx, L)
    rng = fresh_rng(b"sum-products-%d-%d" % (m, L))
    chunk = rl._SUM_CHUNK
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        rows = [pk.pack([rng.element(m) for _ in range(L)]) for _ in range(count)]
        coeffs = [rng.element(m) for _ in range(count)]
        for q in range(0, count, 3):
            coeffs[q] = (0, 1, ctx.mask)[q % 9 // 3]
        if count > 1:
            rows[1] = 0
        for cs in (coeffs, [0] * count, [1] * count):
            pairs = list(zip(cs, rows))
            assert pk.sum_products(pairs) == products_per_term(pk, pairs)
            assert pk.lincomb(cs, rows) == lincomb_per_term(pk, cs, rows)
        # an iterator of pairs is consumed once
        assert pk.sum_products(iter(pairs)) == products_per_term(pk, pairs)


# the window helpers of the row-product kernel and its width rule
WINDOW_NAMES = {"_window_table", "_window_mul", "_window_mul_sum", "_BYTE_WINDOW_ROWS"}


def code_objects(code, path=()):
    """(qualified name, code) for a module's code and every code object
    nested in it, through co_consts."""
    path += (code.co_name,)
    yield ".".join(path[1:]), code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const, path)


def module_code(name):
    source = pathlib.Path(importlib.import_module(f"gabkron.{name}").__file__)
    return compile(source.read_text(), str(source), "exec")


def test_window_helpers_only_in_packed(ctx8):
    # every windowed product of a packed row goes through _Packed: no other
    # code names a gf2m window helper or the table-width threshold, and the
    # width rule is read in _Packed.table alone
    named = {}
    for qualname, code in code_objects(module_code("ranklinalg")):
        for name in WINDOW_NAMES & set(code.co_names):
            named.setdefault(name, set()).add(qualname)
    assert named == {
        "_window_table": {"_Packed.table"},
        "_window_mul": {"_Packed"},
        "_window_mul_sum": {"_Packed"},
        "_BYTE_WINDOW_ROWS": {"_Packed", "_Packed.table"},
    }
    for mod in ("gabcodes", "scheme", "keyio", "audit", "cli"):
        for qualname, code in code_objects(module_code(mod)):
            assert not WINDOW_NAMES & set(code.co_names), (mod, qualname)
    # the rule: 8-bit windows for a table that serves more than 8 products
    pk = rl._packed(ctx8, 3)
    p = pk.pack([3, 5, 7])
    assert len(pk.table(p)) == len(pk.table(p, 8)) == 16
    assert len(pk.table(p, 9)) == 256


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


def test_kron_against_entrywise(ctx8):
    rng = fresh_rng(b"kron")
    A = RankMatrix.random(ctx8, 2, 3, rng)
    B = RankMatrix.random(ctx8, 3, 4, rng)
    K = audit.kron(A, B)
    assert (K.nrows, K.ncols) == (6, 12)
    for i, j, r, c in itertools.product(range(2), range(3), range(3), range(4)):
        assert K.rows[3 * i + r][4 * j + c] == ctx8.mul(A.rows[i][j], B.rows[r][c])


def test_context_mismatch_between_containers(ctx4):
    other = FieldCtx(5)
    A = RankMatrix.identity(ctx4, 2)
    B = RankMatrix.identity(other, 2)
    with pytest.raises(ContextMismatchError):
        A.mul(B)
    with pytest.raises(ContextMismatchError):
        audit.kron(A, B)


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
    assert rl.CirculantGrid(ctx8, [[a.values]], 6).dense() == C
    assert rl.reflect(C.rows[0]) == a.values
    assert rl.is_circulant(C)
    with pytest.raises(StructureError):
        rl.circulant_inverse(RankMatrix.random(ctx8, 3, 3, rng))


def test_circulant_product_matches_generic(ctx4):
    # cyc_mul's table serves n products: 4-bit windows at n = 5, 8-bit ones
    # at n = 12, where m = 12 spreads each scalar over two such windows
    rng = fresh_rng(b"circprod")
    for ctx, n in ((ctx4, 5), (FieldCtx(12), 12)):
        for _ in range(25):
            a = RankVector.random(ctx, n, rng)
            b = RankVector.random(ctx, n, rng)
            Ca, Cb = rl.circulant(a), rl.circulant(b)
            via_ring = rl.circulant(RankVector(ctx, rl.cyc_mul(ctx, a.values, b.values)))
            assert Ca.mul(Cb) == via_ring


def one_block(ctx, a, k):
    return rl.CirculantGrid(ctx, [[a.values]], k)


def test_circulant_mul_closure_oracle(ctx4):
    rng = fresh_rng(b"lemma4")
    for _ in range(200):
        P = one_block(ctx4, RankVector.random(ctx4, 3, rng), 2)
        Q = one_block(ctx4, RankVector.random(ctx4, 3, rng), 3)
        prod = audit.circulant_block_compose(P, Q).dense()
        assert prod == P.dense().mul(Q.dense())
        assert rl.is_partial_circulant(prod)


def test_circulant_mul_closure_identity(ctx4):
    rng = fresh_rng(b"lemma4id")
    P = one_block(ctx4, RankVector.random(ctx4, 4, rng), 2)
    e_first = one_block(ctx4, RankVector(ctx4, [1, 0, 0, 0]), 4)
    assert audit.circulant_block_compose(P, e_first) == P


def test_circulant_mul_closure_rejects_bad_structure(ctx4):
    rng = fresh_rng(b"lemma4bad")
    good = one_block(ctx4, RankVector.random(ctx4, 3, rng), 3)
    wide = rl.CirculantGrid(ctx4, [[[1, 0, 0], [0, 1, 0]]], 3)
    with pytest.raises(ValueError):
        audit.circulant_block_compose(wide, good)
    with pytest.raises(ValueError):
        audit.circulant_block_compose(good, one_block(ctx4, RankVector.random(ctx4, 4, rng), 4))
    with pytest.raises(StructureError):
        rl.circulant_inverse(RankMatrix.random(ctx4, 3, 3, rng))
    with pytest.raises(StructureError):
        rl.circulant_inverse(rl.partial_circulant(RankVector.random(ctx4, 3, rng), 2))


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


# n = 1, 2 and 8 have odd part 1, so the unit test is a(1) != 0; at 8 and
# 12 = 4 * 3 the inverse lifts three and two times
@pytest.mark.parametrize("m,n", [(4, 6), (8, 5), (4, 1), (4, 2), (4, 8), (8, 12)])
def test_cyc_inv_matches_dense_inverse(m, n):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"cycinv%d" % m)
    inputs = [[0] * n, [1] * n, [1] + [0] * (n - 1)]
    for trial in range(150):
        # every third input is sparse, so zero divisors and zero show up
        if trial % 3:
            inputs.append(RankVector.random(ctx, n, rng).values)
        else:
            inputs.append([rng.element(m) if rng.randrange(4) == 0 else 0 for _ in range(n)])
    # a multiple of each cyclotomic factor of z^a - 1, a the odd part of n
    inputs += cyclotomic_multiples(ctx, RankVector.random(ctx, n, rng).values)
    units = 0
    for a in inputs:
        inv = rl.cyc_inv(ctx, a)
        assert inv == cyc_inv_euclid(ctx, a)
        # the parse-time check splits z^n - 1 as cyc_inv does, without the
        # Bezout rows and the lift
        assert rl.CirculantGrid(ctx, [[a]], n).is_invertible() == (inv is not None)
        try:
            dense = rl.circulant(RankVector(ctx, a)).invert()
        except SingularMatrixError:
            assert inv is None
            continue
        assert rl.circulant(RankVector(ctx, inv)) == dense
        units += 1
    assert 0 < units < len(inputs)


def test_cyc_inv_full_size():
    ctx = FieldCtx(211)
    a = RankVector.random(ctx, 210, fresh_rng(b"cycinv211")).values
    inv = rl.cyc_inv(ctx, a)
    assert rl.cyc_mul(ctx, a, inv) == [1] + [0] * 209


# the block sizes n of the tier-1 sets (90, 120, 128, 210) at their own m,
# and small n with odd parts 1 and 3
@pytest.mark.parametrize("m,n", [(8, 1), (8, 2), (8, 8), (12, 12), (90, 90), (120, 120),
                                 (128, 128), (211, 210)])
def test_cyc_sum_matches_cyc_mul(m, n):
    # a b through b's GF(2) decomposition against the dense convolution, for
    # b of binary rank 1, 2, t1 = 6 (new-gabkron-128's X) and full, and a
    # sum of such products against the XOR of the dense ones
    ctx = FieldCtx(m)
    pk = rl._packed(ctx, n)
    rng = fresh_rng(b"cyc-sum-%d" % n)
    a = RankVector.random(ctx, n, rng).values
    cases = []
    for rank in sorted({min(r, n, m) for r in (1, 2, 6, n)}):
        basis = sc.sample_subspace_basis(ctx, rank, rng)
        b = list(basis[:n]) + [
            functools.reduce(operator.xor, (v for q, v in enumerate(basis) if rng.bits(rank) >> q & 1), 0)
            for _ in range(n - rank)
        ]
        assert _bit_rank(b) == rank
        parts = rl._binary_parts(b)
        assert len(parts) == rank
        cases.append((b, parts))
        for x in (a, [0] * n):
            got = pk.unpack(pk.fold(rl._cyc_sum(pk, [(pk.pack(x), parts)])))
            assert got == rl.cyc_mul(ctx, x, b)
    a2 = RankVector.random(ctx, n, rng).values
    (b1, parts1), (b2, parts2) = cases[0], cases[-1]
    got = pk.unpack(pk.fold(rl._cyc_sum(pk, [(pk.pack(a), parts1), (pk.pack(a2), parts2)])))
    assert got == [x ^ y for x, y in zip(rl.cyc_mul(ctx, a, b1), rl.cyc_mul(ctx, a2, b2))]


@pytest.mark.parametrize("a", [1, 3, 15, 45, 105, 165])
def test_cyclotomic_factors_and_idempotents(a):
    # z^a - 1 is the product of the Phi_d, each of degree phi(d), and e_d is
    # the idempotent of the CRT: 1 mod Phi_d, 0 mod the others
    rest = 1 | 1 << a
    total = 0
    for d, phi, e in rl._cyclotomic(a):
        assert phi.bit_length() - 1 == sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
        rest, r = rl._binary_divmod(rest, phi)
        assert r == 0
        for _, other, _ in rl._cyclotomic(a):
            assert rl._binary_divmod(e, other)[1] == (1 if other == phi else 0)
        assert e.bit_length() <= a
        total ^= e
    assert rest == 1
    assert total == 1


def test_one_binary_euclid(monkeypatch):
    # field inverses and the cyclotomic idempotents run the same binary
    # Euclid, gf2m._poly_inv: no caller keeps a loop of its own
    moduli = []
    poly_inv = gf2m._poly_inv

    def counted(a, mod):
        moduli.append(mod)
        return poly_inv(a, mod)

    monkeypatch.setattr(gf2m, "_poly_inv", counted)
    monkeypatch.setattr(rl, "_poly_inv", counted)
    ctx = FieldCtx(90)
    assert ctx.mul(ctx.inv(0x1234), 0x1234) == 1
    assert moduli == [ctx.modulus]
    moduli.clear()
    rl._cyclotomic.cache_clear()
    try:
        factors = rl._cyclotomic(15)
    finally:
        rl._cyclotomic.cache_clear()
    assert moduli == [phi for _, phi, _ in factors]


def test_one_by_one_grid_determinant_takes_no_decomposition(ctx8, monkeypatch):
    # a 1 x 1 grid's determinant is its generator, so its unit test
    # decomposes nothing
    a = RankVector.random(ctx8, 6, fresh_rng(b"det-1x1")).values
    unit = rl.cyc_inv(ctx8, a) is not None
    calls = []
    binary_parts = rl._binary_parts

    def recording(vals):
        calls.append(vals)
        return binary_parts(vals)

    monkeypatch.setattr(rl, "_binary_parts", recording)
    assert rl.CirculantGrid(ctx8, [[a]], 6).is_invertible() == unit
    assert calls == []


def test_is_invertible_on_3x3_grids(toy_improved_wide):
    # 3 x 3 grids of block size 12, the shape of the n1 = 3 improved toy
    # set: odd part 3, where z^3 - 1 = (z + 1)(z^2 + z + 1).  is_invertible
    # against the inverse of the ring determinant and the rank of the dense
    # matrix, on keygen's P, random grids, grids with entries in a GF(2)
    # plane, one with two equal block rows, and P with its first block row
    # times each Phi_d, whose determinant is a nonzero multiple of Phi_d
    p = toy_improved_wide
    ctx = FieldCtx(p.m)
    rng = fresh_rng(b"grid-3x3")
    n = p.n2
    P = sc.keygen(p, rng).sk.P
    assert len(P.gens) == 3 and len(P.gens[0][0]) == n
    grids = [P] + [random_grid(ctx, 3, 3, n, n, rng) for _ in range(3)]
    for _ in range(4):
        plane = (0, rng.element(p.m), rng.element(p.m))
        plane += (plane[1] ^ plane[2],)
        grids.append(rl.CirculantGrid(
            ctx, [[[plane[rng.randrange(4)] for _ in range(n)] for _ in range(3)]
                  for _ in range(3)], n))
    grids.append(rl.CirculantGrid(ctx, [P.gens[0], P.gens[0], P.gens[2]], n))
    phi_multiples = [rl.CirculantGrid(ctx, [list(row0)] + P.gens[1:], n)
                     for row0 in zip(*(cyclotomic_multiples(ctx, g) for g in P.gens[0]))]
    assert len(phi_multiples) == 2 and all(any(G._det()) for G in phi_multiples)
    verdicts = []
    for G in grids + phi_multiples:
        unit = G.is_invertible()
        assert unit == (G.det_inverse() is not None)
        assert unit == (G.dense().rank() == 3 * n)
        verdicts.append(unit)
    assert verdicts[0] and not any(verdicts[-3:])
    assert True in verdicts[1:-3] and False in verdicts[1:-3]


@pytest.mark.parametrize("name", ["new-gabkron-128", "new-gabkron-192", "new-gabkron-256",
                                  "rep-gabkron-128"])
def test_circulant_ring_against_full_euclid(name):
    # every registry block size in tier-1: n = 90, 120, 128 (odd part 1) and
    # 210; the fullscale tests take 300 and 330
    kp = sc.keygen(setup(name), fresh_rng(b"ring-" + name.encode()))
    ring_against_euclid(kp.sk.P, fresh_rng(b"ring-r-" + name.encode()))


def random_grid(ctx, nrows, ncols, k, n, rng):
    gens = [[RankVector.random(ctx, n, rng).values for _ in range(ncols)] for _ in range(nrows)]
    return rl.CirculantGrid(ctx, gens, k)


def test_circulant_grid_dense_layout(ctx4):
    rng = fresh_rng(b"grid")
    G = random_grid(ctx4, 2, 3, 2, 4, rng)
    D = G.dense()
    assert (D.nrows, D.ncols) == (4, 12)
    for i in range(2):
        for j in range(3):
            a = G.gens[i][j]
            for r in range(2):
                assert D.rows[i * 2 + r][j * 4 : (j + 1) * 4] == [a[(r - c) % 4] for c in range(4)]
    assert rl.reflect(D.rows[2][4:8]) == G.gens[1][1]
    assert rl.reflect(rl.reflect(G.gens[0][2])) == G.gens[0][2]


@pytest.mark.parametrize("m,shape", [(4, (2, 3, 2, 4)), (211, (3, 2, 5, 7)), (12, (2, 2, 12, 12))])
def test_circulant_grid_packed_rows_match_dense(m, shape):
    ctx = FieldCtx(m)
    nrows, ncols, k, n = shape
    G = random_grid(ctx, nrows, ncols, k, n, fresh_rng(b"gridpack%d" % m))
    pk, rows = G.packed_rows()
    dpk, drows = G.dense().packed_rows()
    assert rows == drows
    assert (pk.L, pk.S) == (dpk.L, dpk.S)


def subspace_grid(ctx, nb, k, n, dim, rng):
    """nb x nb grid of Cir_k blocks whose entries lie in one random
    dim-dimensional GF(2) subspace, or are unrestricted when dim is None."""
    basis = [rng.nonzero_element(ctx.m) for _ in range(dim or 0)]

    def entry():
        if dim is None:
            return rng.element(ctx.m)
        bits = rng.bits(dim)
        return functools.reduce(operator.xor, (b for q, b in enumerate(basis) if bits >> q & 1), 0)

    return rl.CirculantGrid(ctx, [[[entry() for _ in range(n)] for _ in range(nb)]
                                  for _ in range(nb)], k)


# 1 x 1 circulant (repaired P), 2 x 2 circulant (improved P), and partial blocks
@pytest.mark.parametrize("m,nb,k,n", [(8, 1, 6, 6), (211, 1, 14, 14), (12, 2, 12, 12),
                                      (90, 2, 9, 9), (8, 1, 3, 7), (12, 2, 4, 9)])
@pytest.mark.parametrize("dim", [3, None])
def test_circulant_grid_left_mul_matches_dense(m, nb, k, n, dim):
    # vals·grid from the generators' GF(2) decomposition against the dense
    # product and the packed-row lincomb, for entries of a 3-dimensional
    # subspace (a conforming P) and of full rank (a non-conforming parsed P)
    ctx = FieldCtx(m)
    rng = fresh_rng(b"grid-left-mul-%d-%d-%d-%d" % (m, nb, k, n))
    G = subspace_grid(ctx, nb, k, n, dim, rng)
    ranks = {_bit_rank(b) for grow in G.gens for b in grow}
    if dim:
        assert ranks == {3}
    else:
        assert min(ranks) > 3
    D = G.dense()
    pk, rows = G.packed_rows()
    for _ in range(3):
        vals = RankVector.random(ctx, nb * k, rng).values
        got = G.left_mul_values(vals)
        assert got == D.left_mul_values(vals) == pk.lincomb(vals, rows)
        assert got == lincomb_per_term(rl._packed(ctx, D.ncols), vals,
                                       [pack_shift_loop(pk, row) for row in D.rows])
    assert G.left_mul_values([0] * (nb * k)) == [0] * (nb * n)
    parts = G._parts
    G.left_mul_values(vals)
    assert G._parts is parts  # the decomposition is built once and kept


def test_circulant_grid_left_mul_with_zero_generator(ctx8):
    rng = fresh_rng(b"grid-left-mul-zero")
    G = subspace_grid(ctx8, 2, 5, 5, 2, rng)
    G.gens[1][0] = [0] * 5
    vals = RankVector.random(ctx8, 10, rng).values
    assert G.left_mul_values(vals) == G.dense().left_mul_values(vals)
    assert rl._binary_parts([0] * 5) == []


def test_packed_rows_are_built_once_and_kept(ctx8, monkeypatch):
    # a matrix is not changed after construction, so its packed rows are
    # built on first use and every later product reads the same ones
    rng = fresh_rng(b"kept-rows")
    M = RankMatrix.random(ctx8, 3, 5, rng)
    G = random_grid(ctx8, 2, 2, 3, 4, rng)
    assert M.packed_rows() is M.packed_rows()
    assert G.packed_rows() is G.packed_rows()
    packed = []
    pack = rl._Packed.pack
    monkeypatch.setattr(rl._Packed, "pack", lambda self, vals: packed.append(vals) or pack(self, vals))
    for _ in range(3):
        u = RankVector.random(ctx8, 3, rng).values
        assert M.left_mul_values(u) == [
            functools.reduce(operator.xor, (ctx8.mul(a, row[j]) for a, row in zip(u, M.rows)))
            for j in range(5)
        ]
    assert packed == []


def test_circulant_block_invert_closure(ctx4):
    rng = fresh_rng(b"lemma3")
    done = 0
    while done < 100:
        A = random_grid(ctx4, 2, 2, 3, 3, rng)
        try:
            Ainv = rl.circulant_block_invert(A)
        except SingularMatrixError:
            continue
        assert Ainv.k == 3
        assert rl.is_partial_circulant_block(Ainv.dense(), 2, 2, 3, 3)
        assert A.dense().mul(Ainv.dense()) == RankMatrix.identity(ctx4, 6)
        done += 1


def test_circulant_block_invert_singular(ctx4):
    # equal block rows: the determinant in the ring is zero
    a, b = [1, 2, 3], [5, 0, 7]
    A = rl.CirculantGrid(ctx4, [[a, b], [a, b]], 3)
    assert not A.is_invertible()
    with pytest.raises(SingularMatrixError):
        rl.circulant_block_invert(A)


def test_circulant_block_invert_identity(ctx4):
    one, zero = [1, 0, 0], [0, 0, 0]
    I = rl.CirculantGrid(ctx4, [[one, zero], [zero, one]], 3)
    assert I.is_invertible()
    assert rl.circulant_block_invert(I) == I
    assert I.dense() == RankMatrix.identity(ctx4, 6)


def test_circulant_block_compose_closure(ctx4):
    rng = fresh_rng(b"lemma5")
    for _ in range(100):
        B = random_grid(ctx4, 2, 2, 2, 3, rng)
        A = random_grid(ctx4, 2, 2, 3, 3, rng)
        Q = audit.circulant_block_compose(B, A)
        assert Q.dense() == B.dense().mul(A.dense())
        assert rl.is_partial_circulant_block(Q.dense(), 2, 2, 2, 3)


def test_information_set_examples(ctx4):
    rng = fresh_rng(b"infoset")
    left = RankMatrix(ctx4, [[1, 0, 5, 6], [0, 1, 7, 8]])
    assert rl.information_set(left) == (0, 1)
    right = RankMatrix(ctx4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert rl.information_set(right) == (2, 3)
    for _ in range(20):
        G = RankMatrix.random_full_rank(ctx4, 2, 4, rng)
        cols = rl.information_set(G)
        RankMatrix(ctx4, [[row[j] for j in cols] for row in G.rows]).invert()  # must not raise


def test_information_set_rank_deficient(ctx4):
    G = RankMatrix(ctx4, [[1, 2, 3], [1, 2, 3]])
    with pytest.raises(SingularMatrixError):
        rl.information_set(G)


# GF(2) matrices are lists of row bitmasks: bit j of row i is entry (i, j)


def bit_column(rows, j):
    return sum((r >> j & 1) << i for i, r in enumerate(rows))


def column_span(rows, ncols):
    """BitSpan of the ncols columns of A = rows, so that coordinates(b)
    solves A · y = b."""
    return BitSpan([bit_column(rows, j) for j in range(ncols)])


def test_bit_matrix_helpers(rng):
    assert _bit_rank([0b01, 0b11]) == 2
    # kernel of a rank-1 matrix in GF(2)^2
    basis = column_span([0b11, 0b11], 2).kernel
    assert len(basis) == 1 and basis[0] == 0b11
    # a field vector times the rows: row i's support gets vals[i]
    assert rl.field_vec_times_bits([5, 6], [0b011, 0b110], 3) == [5, 5 ^ 6, 6]
    with pytest.raises(ValueError):
        rl.field_vec_times_bits([5], [0b011, 0b110], 3)


def _bitmat_apply(rows, y: int) -> int:
    return sum(((r & y).bit_count() & 1) << i for i, r in enumerate(rows))


def test_solve_gf2_consistency():
    A = [0b101, 0b110]
    targets = [0b11, 0b01]
    span = column_span(A, 3)
    for b in targets:
        y = span.coordinates(b)
        assert y is not None
        assert _bitmat_apply(A, y) == b
    # inconsistent target over a singular system
    B = [0b11, 0b11]
    assert [column_span(B, 2).coordinates(b) for b in (0b01, 0b11)] == [None, 0b01]


def test_span_coordinates_match_augmented_elimination():
    # one span, many targets: the same solutions as the augmented
    # Gauss–Jordan elimination bit for bit when the columns are
    # independent, and a solution exactly when it finds one, over
    # full-rank, rank-deficient, tall and wide matrices
    rng = fresh_rng(b"bit-solver")
    seen = {"none": 0, "solution": 0, "unique": 0}
    for nrows, ncols in ((6, 6), (12, 5), (5, 12), (30, 14), (24, 24)):
        for trial in range(8):
            A = [rng.bits(ncols) for _ in range(nrows)]
            if trial % 2:
                # later rows repeat combinations of the first three
                A = A[:3] + [functools.reduce(operator.xor, rng.sample(A[:3], 2))
                             for _ in range(nrows - 3)]
            span = column_span(A, ncols)
            unique = len(span.pivots) == ncols
            for _ in range(3):
                targets = [rng.bits(nrows) for _ in range(3)]
                targets.append(_bitmat_apply(A, rng.bits(ncols)))
                for b, want in zip(targets, solve_gf2(A, ncols, targets)):
                    y = span.coordinates(b)
                    assert (y is None) == (want is None)
                    if y is None:
                        seen["none"] += 1
                        continue
                    assert _bitmat_apply(A, y) == b
                    seen["solution"] += 1
                    if unique:
                        assert y == want
                        seen["unique"] += 1
    assert min(seen.values()) >= 20


def test_gf2_elimination_against_bruteforce():
    # the rank, kernel and solutions from the span of the columns,
    # refereed by evaluating every vector of GF(2)^ncols
    rng = fresh_rng(b"gf2brute")
    for nrows in range(1, 6):
        for ncols in range(1, 6):
            for _ in range(12):
                A = [rng.bits(ncols) for _ in range(nrows)]
                images = {y: _bitmat_apply(A, y) for y in range(1 << ncols)}
                kernel = {y for y, b in images.items() if b == 0}
                cols = column_span(A, ncols)
                assert 1 << len(cols.pivots) == len(set(images.values()))
                span = {0}
                for v in cols.kernel:
                    assert v not in span
                    span |= {x ^ v for x in span}
                assert span == kernel
                targets = [rng.bits(nrows) for _ in range(3)] + [images[rng.bits(ncols)]]
                for b in targets:
                    y = cols.coordinates(b)
                    if b in images.values():
                        assert y is not None and images[y] == b
                    else:
                        assert y is None
                if nrows == ncols:
                    assert (_bit_rank(A) == nrows) == (len(kernel) == 1)
