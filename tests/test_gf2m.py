import pytest

from gabkron import gf2m, keyio
from gabkron.gf2m import FieldCtx
from gabkron.prng import SeededRng

from conftest import fresh_rng


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


def test_bad_modulus_rejected_at_construction():
    with pytest.raises(ValueError):
        FieldCtx(4, modulus=0b10101)


def test_registry_modulus_is_not_retested(monkeypatch):
    # every key and ciphertext parse builds a FieldCtx on the registry
    # modulus, which test_moduli_table_matches_search proves irreducible
    calls = []
    is_irreducible = gf2m.is_irreducible

    def recording(poly, m):
        calls.append((poly, m))
        return is_irreducible(poly, m)

    monkeypatch.setattr(gf2m, "is_irreducible", recording)
    FieldCtx(211)
    FieldCtx(90, gf2m.modulus_for_degree(90))
    assert calls == []
    FieldCtx(4, modulus=0b11111)  # irreducible, but not the registry modulus
    assert calls == [(0b11111, 4)]
    with pytest.raises(ValueError):
        FieldCtx(4, modulus=0b10101)


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
    the byte-table squaring."""
    return ctx.reduce(sum(1 << 2 * i for i in range(a.bit_length()) if a >> i & 1))


@pytest.mark.parametrize("m", sorted(gf2m.MODULI))
def test_sqr_tables_match_spread_and_reduce(m):
    ctx = FieldCtx(m)
    assert len(ctx._sqr_tables) == (m + 7) // 8
    assert all(len(tab) == 256 for tab in ctx._sqr_tables)
    assert FieldCtx(m)._sqr_tables is ctx._sqr_tables  # built once per field
    rng = fresh_rng(b"sqr-table%d" % m)
    # every bit alone, both ends of the range, and random elements
    randoms = [rng.element(m) for _ in range(100)]
    for a in [1 << i for i in range(m)] + [0, ctx.mask] + randoms:
        assert ctx.sqr(a) == spread_and_reduce(ctx, a) == gf2m._poly_mulmod(a, a, ctx.modulus, m)
    for a in randoms:
        assert ctx.sqr(ctx.sqrt(a)) == a


@pytest.mark.parametrize("m,t", [(4, 4), (12, 12), (90, 6)])
def test_frobenius_power_rows_match_repeated_squaring(m, t):
    ctx = FieldCtx(m)
    gf2m._frob_rows_cache.pop(ctx, None)  # equal contexts share the rows
    slot = 2 * m
    short = ctx.frobenius_power_rows(1)
    rows = ctx.frobenius_power_rows(t)
    assert len(rows) == t + 1 and rows[:2] == short
    assert ctx.frobenius_power_rows(t - 1) is rows
    vals = [1 << i for i in range(m)]
    for row in rows:
        assert row >> (slot * m) == 0
        assert [row >> (slot * i) & ((1 << slot) - 1) for i in range(m)] == vals
        vals = [ctx.sqr(v) for v in vals]


def test_frobenius_power_rows_shared_by_equal_contexts(monkeypatch):
    # a parsed key builds a new FieldCtx, so the rows must outlive it
    rows = FieldCtx(11).frobenius_power_rows(5)
    squarings = []
    sqr = FieldCtx.sqr
    monkeypatch.setattr(FieldCtx, "sqr", lambda self, a: squarings.append(a) or sqr(self, a))
    assert FieldCtx(11).frobenius_power_rows(5) is rows
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
        beta = ctx.trace_dual(alpha)
        A = ctx.frobenius_orbit(alpha, m)[::-1]  # A[i] = alpha^[i]
        B = ctx.frobenius_orbit(beta, m)[::-1]
        for i, a in enumerate(A):
            traces = [(ctx.mul(a, b) & tv).bit_count() & 1 for b in B]
            assert traces == [int(i == j) for j in range(m)]


def test_trace_dual_rejects_non_normal():
    ctx = FieldCtx(12)
    rng = fresh_rng(b"trace-dual-non-normal")
    non_normal = [0, 1]
    while len(non_normal) < 6:
        a = rng.element(12)
        if not ctx.is_normal(a):
            non_normal.append(a)
    for a in non_normal:
        with pytest.raises(ValueError):
            ctx.trace_dual(a)


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
