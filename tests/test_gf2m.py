import pytest

from gabkron import gabcodes, gf2m, keyio, ranklinalg
from gabkron.gf2m import FieldCtx
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector, _packed, _Packed

from conftest import fresh_rng, solve_gf2


def test_moduli_table_matches_search():
    for m, poly in gf2m.MODULI.items():
        assert gf2m.is_irreducible(poly, m)
        assert poly == gf2m.smallest_irreducible(m), f"m={m}"


def test_registry_degrees_have_irreducible_moduli():
    # every degree used by a named parameter set
    for m in (48, 76, 90, 104, 120, 128, 211, 307, 331):
        assert gf2m.is_irreducible(gf2m.modulus_for_degree(m), m)


def test_irreducibility_rejects_composites():
    assert not gf2m.is_irreducible(0b110, 2)       # x^2 + x = x(x+1)
    assert not gf2m.is_irreducible(0b10101, 4)     # (x^2+x+1)^2
    assert not gf2m.is_irreducible(0b11011, 4)     # has the root 1
    assert gf2m.is_irreducible(0b10011, 4)
    assert gf2m.is_irreducible(0b11111, 4)         # 5th cyclotomic polynomial


def test_gf16_known_values(ctx4):
    assert ctx4.modulus == 0b10011
    assert ctx4.mul(0x9, 0x2) == 0x1    # (x^3+1)*x = x^4+x = 1 mod x^4+x+1
    assert ctx4.mul(0x7, 0x1) == 0x7
    assert ctx4.frobenius(0x2, 2) == 0x3  # x^4 = x + 1
    assert ctx4.inv(0x2) == 0x9
    assert ctx4.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx4.inv(0)


@pytest.mark.parametrize("m", [4, 8, 48, 90])
def test_field_axioms_random(m):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"axioms%d" % m)
    for _ in range(10_000):
        a, b, c = rng.element(m), rng.element(m), rng.element(m)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


@pytest.mark.parametrize("m", [4, 8, 90, 211])
def test_mul_matches_schoolbook(m):
    # the windowed multiply against bit-by-bit shift-and-add
    ctx = FieldCtx(m)
    rng = fresh_rng(b"schoolbook%d" % m)
    pairs = [(0, 1), (1, 1), (ctx.mask, ctx.mask), (1 << (m - 1), 1 << (m - 1))]
    pairs += [(rng.element(m), rng.element(m)) for _ in range(2000)]
    for a, b in pairs:
        assert ctx.mul(a, b) == gf2m._poly_mulmod(a, b, ctx.modulus, m)


def test_window_mul_sum_matches_separate_products():
    # multipliers of unequal lengths, zeros among them and all zero, on
    # single values and on long ints such as packed rows; no terms sum to 0.
    # A table of 8-bit windows gives each product as the 4-bit one does.
    rng = fresh_rng(b"window-sum")
    assert gf2m._window_mul_sum([], []) == 0
    for size in (1, 7, 211, 5000):
        value = rng.bits(size)
        tab4, tab8 = gf2m._window_table(value), gf2m._window_table(value, 8)
        assert len(tab4) == 16 and len(tab8) == 256
        for lam in [0, 1] + [rng.bits(1 + rng.randrange(331)) for _ in range(20)]:
            assert gf2m._window_mul(tab8, lam) == gf2m._window_mul(tab4, lam)
        for count in (0, 1, 2, 6):
            values = [rng.bits(size) for _ in range(count)]
            for lams in ([rng.bits(1 + rng.randrange(211)) for _ in range(count)],
                         [0] * count, ([0] * count + [rng.bits(9)])[1:]):
                tabs = [gf2m._window_table(v) for v in values]
                want = 0
                for tab, lam in zip(tabs, lams):
                    want ^= gf2m._window_mul(tab, lam)
                assert gf2m._window_mul_sum(tabs, lams) == want


def test_poly_inv_at_cyclotomic_and_field_moduli():
    # the one binary Euclid, at every binary Phi_d of z^a - 1 for a = 15,
    # 45 and 105 (z + 1 included) and at the field moduli of m = 8, 90, 211
    # and 331: x a = 1 mod mod, and deg x < deg mod without a final
    # reduction.  Inputs are random and coprime to mod; at each Phi_d also
    # M mod Phi_d, M = (z^a - 1) / Phi_d, the input of the CRT idempotents
    rng = fresh_rng(b"poly-inv")
    cases = []  # (modulus, inputs)
    for a in (15, 45, 105):
        za = 1 | 1 << a
        for _, phi, _ in ranklinalg._cyclotomic(a):
            deg = phi.bit_length() - 1
            M = ranklinalg._binary_divmod(za, phi)[0]
            cases.append((phi, [ranklinalg._binary_divmod(M, phi)[1]]
                          + [rng.bits(deg) for _ in range(40)]))
    for m in (8, 90, 211, 331):
        cases.append((gf2m.modulus_for_degree(m), [rng.bits(m) for _ in range(2000)]))
    assert 0b11 in [mod for mod, _ in cases]  # z + 1
    for mod, inputs in cases:
        deg = mod.bit_length() - 1
        units = [x for x in inputs if x and gf2m._poly_gcd(mod, x) == 1]
        assert units
        for x in units:
            inv = gf2m._poly_inv(x, mod)
            assert inv.bit_length() <= deg
            assert gf2m._poly_mulmod(inv, x, mod, deg) == 1


@pytest.mark.parametrize("m", [4, 8, 48, 90])
def test_inverse_and_frobenius_properties(m):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"invfrob%d" % m)
    for _ in range(500):
        a, b = rng.element(m), rng.element(m)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.inv(ctx.inv(a)) == a
        # frobenius is an additive and multiplicative automorphism
        assert ctx.frobenius(a ^ b, 1) == ctx.frobenius(a, 1) ^ ctx.frobenius(b, 1)
        assert ctx.frobenius(ctx.mul(a, b), 1) == ctx.mul(
            ctx.frobenius(a, 1), ctx.frobenius(b, 1)
        )
        assert ctx.frobenius(a, 0) == a
        assert ctx.frobenius(a, m) == a
        assert ctx.sqr(ctx.sqrt(a)) == a


def spread_and_reduce(ctx, a):
    """a^2 as a's bits spread to even positions, reduced; the referee for
    the byte-spread squaring."""
    return ctx.reduce(sum(1 << 2 * i for i in range(a.bit_length()) if a >> i & 1))


@pytest.mark.parametrize("m", sorted(gf2m.MODULI))
def test_sqr_tables_match_spread_and_reduce(m):
    # FieldCtx.sqr and ranklinalg's _Packed.sqr, which share one byte
    # spread, against two referees: sqr on its whole input domain, every int
    # below 2^(8 * ceil(m / 8)), so unreduced inputs too, and _Packed.sqr on
    # packed rows of the reduced values
    ctx = FieldCtx(m)
    top = 8 * ((m + 7) // 8)
    rng = fresh_rng(b"sqr-table%d" % m)
    # every bit alone, both ends of the range, and random elements
    randoms = [rng.element(m) for _ in range(100)]
    unreduced = [(1 << top) - 1] + [rng.bits(top) for _ in range(20)]
    values = [1 << i for i in range(top)] + [0, ctx.mask] + randoms + unreduced
    want = [spread_and_reduce(ctx, a) for a in values]
    reduced = [ctx.reduce(a) for a in values]
    assert want == [gf2m._poly_mulmod(a, a, ctx.modulus, m) for a in reduced]
    assert [ctx.sqr(a) for a in values] == want
    for size in (0, 1, 2, 105):
        pk = _packed(ctx, size)
        for start in range(0, len(values), size or len(values)):
            row = pk.pack(reduced[start : start + size])
            assert pk.sqr(row) == pk.pack(want[start : start + size])
    for a in randoms:
        assert ctx.sqr(ctx.sqrt(a)) == a


@pytest.mark.parametrize("m,t", [(4, 4), (12, 12), (90, 6)])
def test_frobenius_power_rows_match_repeated_squaring(m, t):
    # gabcodes._frobenius_rows, the packed rows of the root-space solve
    ctx = FieldCtx(m)
    gabcodes._frobenius_rows.cache_clear()  # equal contexts share the rows
    slot = _packed(ctx, m).S
    short = gabcodes._frobenius_rows(ctx, 1)
    rows = gabcodes._frobenius_rows(ctx, t)
    assert len(rows) == t + 1 and rows[:2] == short
    assert gabcodes._frobenius_rows(ctx, t - 1) == rows[:t]
    vals = [1 << i for i in range(m)]
    for row in rows:
        assert row >> (slot * m) == 0
        assert [row >> (slot * i) & ((1 << slot) - 1) for i in range(m)] == vals
        vals = [ctx.sqr(v) for v in vals]


def test_frobenius_power_rows_shared_by_equal_contexts(monkeypatch):
    # a parsed key builds a new FieldCtx, so the rows must outlive it
    rows = gabcodes._frobenius_rows(FieldCtx(11), 5)
    squarings = []
    sqr = _Packed.sqr
    monkeypatch.setattr(_Packed, "sqr", lambda self, p: squarings.append(p) or sqr(self, p))
    assert gabcodes._frobenius_rows(FieldCtx(11), 5) is rows
    assert squarings == []


@pytest.mark.parametrize("m,n", [(4, 1), (4, 3), (4, 9), (12, 12), (90, 90), (211, 210)])
def test_frobenius_orbit_matches_powers(m, n):
    ctx = FieldCtx(m)
    a = fresh_rng(b"orbit").element(m)
    assert ctx.frobenius_orbit(a, n) == [ctx.frobenius(a, (n - 1 - j) % m) for j in range(n)]


def test_frobenius_rejects_negative(ctx4):
    with pytest.raises(ValueError):
        ctx4.frobenius(1, -1)


def test_is_normal_edge_cases():
    ctx2 = FieldCtx(2)
    assert not ctx2.is_normal(0)
    assert not ctx2.is_normal(1)
    # orbit of x in GF(4): {x, x+1} is a basis, returned for reuse
    assert ctx2.is_normal(0b10) == ctx2.frobenius_orbit(0b10, 2) == [0b11, 0b10]
    ctx4 = FieldCtx(4)
    assert not ctx4.is_normal(1)


def test_find_normal_element_deterministic():
    ctx = FieldCtx(4)
    o1 = ctx.find_normal_element(SeededRng(b"seed-0"))
    o2 = ctx.find_normal_element(SeededRng(b"seed-0"))
    assert o1 == o2
    assert ctx.is_normal(o1[-1]) == o1


def test_find_normal_element_orbit_rank():
    ctx = FieldCtx(4)
    found = ctx.find_normal_element(SeededRng(b"orbit"))
    orbit = []
    v = found[-1]
    for _ in range(4):
        orbit.append(v)
        v = ctx.sqr(v)
    assert found == orbit[::-1]
    assert gf2m._bit_rank(orbit) == 4


def naive_trace_vector(ctx):
    """Bit i is x^i + (x^i)^[1] + ... + (x^i)^[m-1], summed by squaring."""
    tv = 0
    for i in range(ctx.m):
        a, t = 1 << i, 0
        for _ in range(ctx.m):
            t ^= a
            a = ctx.sqr(a)
        assert t in (0, 1)
        tv |= t << i
    return tv


@pytest.mark.parametrize("m", sorted(gf2m.MODULI))
def test_trace_vector_matches_naive_traces(m):
    ctx = FieldCtx(m)
    assert ctx.trace_vector() == naive_trace_vector(ctx)


@pytest.mark.parametrize("m", [12, 90])
def test_trace_dual_is_dual_basis(m):
    ctx = FieldCtx(m)
    tv = naive_trace_vector(ctx)
    for label in (b"a", b"b"):
        alpha = ctx.find_normal_element(fresh_rng(b"trace-dual-%d" % m + label))[-1]
        beta = ctx._trace_dual_of_orbit(ctx.is_normal(alpha))
        A = ctx.frobenius_orbit(alpha, m)[::-1]  # A[i] = alpha^[i]
        B = ctx.frobenius_orbit(beta, m)[::-1]
        for i, a in enumerate(A):
            traces = [(ctx.mul(a, b) & tv).bit_count() & 1 for b in B]
            assert traces == [int(i == j) for j in range(m)]


@pytest.mark.parametrize("m", [12, 90, 120, 128])
def test_trace_dual_matches_gram_solve(m):
    # the span's coordinates of e_0 over the Gram matrix's rows against
    # b solving M b = e_0 by Gauss–Jordan elimination, at the toy and the
    # registry improved sets
    ctx = FieldCtx(m)
    orbit = ctx.find_normal_element(fresh_rng(b"trace-dual-solve-%d" % m))
    A = orbit[::-1]  # A[j] = alpha^[j]
    tv = ctx.trace_vector()
    c = [(ctx.mul(A[0], a) & tv).bit_count() & 1 for a in A]
    gram = [sum(c[(j - l) % m] << j for j in range(m)) for l in range(m)]
    (b,) = solve_gf2(gram, m, [1])
    beta = 0
    for j, a in enumerate(A):
        if b >> j & 1:
            beta ^= a
    assert ctx._trace_dual_of_orbit(orbit) == beta


def test_bit_span_against_bruteforce():
    # rank, kernel and coordinates of up to 10 vectors, refereed by the
    # XOR of every one of their 2^n combinations
    rng = fresh_rng(b"bit-span")
    for n in range(11):
        for width in (1, 3, 6, 12):
            for trial in range(4):
                vecs = [rng.bits(width) for _ in range(n)]
                if trial % 2 and n > 3:
                    # later vectors repeat combinations of the first three
                    vecs[3:] = [vecs[0] ^ vecs[rng.randrange(3)] ^ vecs[2] for _ in range(n - 3)]
                xor = [0]  # xor[tag] = XOR of the vectors named by tag
                for i, v in enumerate(vecs):
                    xor += [x ^ v for x in xor]
                combos = {}  # value -> the tags that reach it
                for tag, x in enumerate(xor):
                    combos.setdefault(x, []).append(tag)
                span = gf2m.BitSpan(vecs)
                rank = len(span.pivots)
                assert 1 << rank == len(combos) and gf2m._bit_rank(vecs) == rank
                kspan = {0}
                for t in span.kernel:
                    assert t not in kspan
                    kspan |= {x ^ t for x in kspan}
                assert kspan == set(combos[0])
                targets = range(1 << width) if width <= 6 else (
                    list(combos)[:64] + [rng.bits(width) for _ in range(64)])
                for target in targets:
                    tag = span.coordinates(target)
                    if target not in combos:
                        assert tag is None
                    elif rank == n:
                        assert [tag] == combos[target]
                    else:
                        assert tag in combos[target]


def test_trace_dual_rejects_non_normal():
    # the trace dual exists only for normal alpha: is_normal refuses the
    # others, and the Gram matrix Tr(alpha^[i] alpha^[j]) that
    # _trace_dual_of_orbit inverts is singular on their orbits
    ctx = FieldCtx(12)
    tv = naive_trace_vector(ctx)
    rng = fresh_rng(b"trace-dual-non-normal")
    non_normal = [0, 1]
    while len(non_normal) < 6:
        a = rng.element(12)
        if RankVector(ctx, ctx.frobenius_orbit(a, 12)).rank_weight() < 12:
            non_normal.append(a)
    for a in non_normal:
        assert ctx.is_normal(a) is None
        orbit = ctx.frobenius_orbit(a, 12)
        gram = [sum(((ctx.mul(x, y) & tv).bit_count() & 1) << j
                    for j, y in enumerate(orbit)) for x in orbit]
        assert gf2m._bit_rank(gram) < 12


@pytest.mark.parametrize("m", [4, 8, 90, 211])
def test_element_bytes_round_trip(m):
    # one element in the file format's m-bit packing, the only byte form
    rng = fresh_rng(b"bytes%d" % m)
    for _ in range(50):
        a = rng.element(m)
        data = keyio.pack_elements([a], m)
        assert len(data) == (m + 7) // 8
        assert keyio.unpack_elements(data, m, 1) == [a]
    # x^0 coefficient sits in bit 0 of byte 0
    assert keyio.pack_elements([1], m)[0] == 1


def test_degree_bounds():
    with pytest.raises(ValueError):
        FieldCtx(1)
    with pytest.raises(ValueError):
        FieldCtx(513)
