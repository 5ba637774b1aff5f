"""Full-scale tests at the larger registry sets, off by default.

Set GABKRON_FULLSCALE=1 to run them; together they take a few minutes:

    GABKRON_FULLSCALE=1 PYTHONPATH=src python -m pytest tests/test_fullscale.py -v -s

Keys, ciphertexts and plaintexts pass through the key-file formats, as in a
command-line round trip, and the round-trip test prints its stage timings:
keygen, and a first decrypt whose parse builds the generators of
M0 = (G + X) P^-1 from the key's.  The M0 read test checks the
decrypter's message, read off u M0 by those generators, against the solve
by S = M0[:, :k]^-1 that the version-1 key file held.  The other tests check
fast paths against their referees and print both timings: keygen's
(G + X) P^-1 from alpha's orbit against the dense product, with the
decrypter's u M0 against u times both, keygen's
systematic form by Schur steps against the echelon of [M0 | I_k], and the
inner code's parity vector h against the Moore solve, and the decoder's
error values W by Moore stages against the echelon of the whole Moore
system, at the repaired sets and at new-gabkron-192 and -256, whose
length-m inner codes decode by the same stages.  At the same four sets
whole block decodes, whose key equation takes the minimal annihilator by
linearized Berlekamp-Massey, are checked against decodes through the
echelon key equation, planted and past the radius.  The parity test also
checks the inner code's presentation, read off alpha's orbit, against the
squared-out Moore matrix.  The Newton tests check, at the same four sets,
the inner code's leading block solved in Newton form against its LU
factoring (conftest.LeftSolver), and the parity vector h of a code
built from the inner code's g, by the Newton solve, against the echelon
of its Moore rows.  The products test checks encrypt's m·N, a
block's syndromes and the decrypter's c·P, rows packed pairwise and summed
in chunked window sums, against rows packed by the shift loop and summed
one scal per term.  The packed-parse test checks the public key file's
rows of N, spread into packed rows, against its entries unpacked and
packed row by row, and the rows gathered back to the file's bytes.  The
ring test checks the circulant ring's unit test
and inverse at n = 300 and 330, by the cyclotomic factors of the odd part
of n, against the Euclid on z^n - 1 at full n.  The key-file test pins the
SHA-256 of the rep-gabkron-192 and -256 key files of a fixed-seed
command-line keygen, as the tier-1 workflow does at rep-gabkron-128.  The
moduli test checks every entry of gf2m.MODULI against the search that
found it (70-95 s); tier-1 checks a sample.
"""

import functools
import hashlib
import os
import statistics
import time

import pytest

from gabkron import gf2m, keyio, scheme as sc
from gabkron.cli import main
from gabkron.gabcodes import GabidulinCode, from_normal_orbit, from_orbit, moore_matrix
from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector, _packed, circulant_block_invert

from conftest import (
    LeftSolver,
    assert_decode_matches_echelon,
    dense_g_plus_x,
    dual_vector_echelon,
    error_coordinates_echelon,
    lincomb_per_term,
    located_error,
    m0_read_against_rows_and_dense,
    m0_read_against_s_solve,
    pack_shift_loop,
    packed_parse_against_entries,
    ring_against_euclid,
    smallest_irreducible,
    systematic_form_against_rref,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("GABKRON_FULLSCALE") != "1",
    reason="full-scale tests run only with GABKRON_FULLSCALE=1",
)


@functools.lru_cache(maxsize=None)
def _keypair(name):
    """(params, key pair, keygen seconds), generated once per set."""
    p = setup(name)
    t0 = time.perf_counter()
    kp = sc.keygen(p, SeededRng(b"fullscale-" + name.encode()))
    return p, kp, time.perf_counter() - t0


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_repaired_full_scale_round_trip(name):
    p, kp, keygen_s = _keypair(name)
    pk = keyio.parse_public_key(keyio.serialize_public_key(kp.pk))
    sk_bytes = keyio.serialize_secret_key(kp.sk)
    ctx = FieldCtx(p.m)
    rng = SeededRng(b"fullscale-msg-" + name.encode())
    messages = [RankVector.random(ctx, p.k, rng) for _ in range(2)]
    cts = [keyio.serialize_ciphertext(sc.encrypt(m, pk, p, rng)) for m in messages]
    # a fresh parse, decrypter and parity check, as in one command-line decrypt
    t0 = time.perf_counter()
    sk = keyio.parse_secret_key(sk_bytes)
    parse_s = time.perf_counter() - t0
    assert sc.decrypt(keyio.parse_ciphertext(cts[0]), sk, p) == messages[0]
    first_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert sc.decrypt(keyio.parse_ciphertext(cts[1]), sk, p) == messages[1]
    next_s = time.perf_counter() - t0
    print(f"\n{name}: keygen {keygen_s:.1f} s, first decrypt {first_s:.2f} s "
          f"(parse with decrypter build, which builds M0's generators, {parse_s:.2f} s, then "
          f"the decode that builds h), next decrypt {next_s:.2f} s")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_repaired_m0_full_scale(name):
    # keygen's (G + X) P^-1 from alpha's orbit against the dense product,
    # and the decrypter's u M0, read off M0's generators, against u times
    # the rows and the dense product
    p, kp, _ = _keypair(name)
    Pinv = circulant_block_invert(kp.sk.P)
    t0 = time.perf_counter()
    gens = sc._repaired_m0_gens(kp.code, kp.sk.z0.values, Pinv)
    gens_s = time.perf_counter() - t0
    pk, rows = sc._repaired_m0_rows(kp.code, gens)
    orbit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    M0 = dense_g_plus_x(kp).mul(Pinv.dense())
    dense_s = time.perf_counter() - t0
    assert [pk.unpack(row) for row in rows] == M0.rows
    m0_read_against_rows_and_dense(kp, M0, SeededRng(b"fullscale-m0-gens-" + name.encode()))
    print(f"\n{name}: M0 {orbit_s:.2f} s from alpha's orbit ({gens_s:.2f} s its "
          f"generators), {dense_s:.1f} s by the dense product")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_m0_read_matches_s_solve_full_scale(name):
    # the decrypter's (u M0)[:k], read off M0's generators, of a parsed key
    # and of keygen's, against the solve by S = M0[:, :k]^-1 read off the
    # systematic form of M0
    p, kp, _ = _keypair(name)
    sk = keyio.parse_secret_key(keyio.serialize_secret_key(kp.sk))
    assert sk.decrypter().m0[1:] == kp.sk.decrypter().m0[1:]
    read_s, solve_s = m0_read_against_s_solve(sk, SeededRng(b"fullscale-m0-read-" + name.encode()))
    print(f"\n{name}: 4 messages {read_s * 1e3:.1f} ms read off u M0, "
          f"{solve_s * 1e3:.1f} ms solved by S")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_systematic_form_full_scale(name):
    # keygen's Schur steps against the echelon of [M0 | I_k]
    p, kp, keygen_s = _keypair(name)
    schur_s, rref_s = systematic_form_against_rref(kp)
    print(f"\n{name}: keygen {keygen_s:.1f} s; systematic form {schur_s:.2f} s "
          f"by Schur steps, {rref_s:.1f} s by the echelon of [M0 | I_k]")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_circulant_ring_full_scale(name):
    # the unit test and inverse of the circulant ring at n = 300 and 330
    # (odd parts 75 and 165) against the Euclid on z^n - 1 at full n
    p, kp, _ = _keypair(name)
    prog_s, ref_s = ring_against_euclid(kp.sk.P, SeededRng(b"fullscale-ring-" + name.encode()))
    print(f"\n{name}: cyc_inv and is_invertible {prog_s:.2f} s in all, "
          f"{ref_s:.2f} s by the Euclid on z^n - 1")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_orbit_parity_vector_full_scale(name):
    # the Moore presentation from orbit windows against the squared-out one,
    # and h from the subspace polynomial of g2's orbit against the Moore solve
    p = setup(name)
    ctx = FieldCtx(p.m)
    C2 = from_orbit(ctx, ctx.find_normal_element(SeededRng(b"fullscale-h-" + name.encode())),
                    p.n2, p.k2)
    assert C2.generator == moore_matrix(C2.g, p.k2)
    t0 = time.perf_counter()
    h = C2.h
    orbit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = dual_vector_echelon(C2)
    moore_s = time.perf_counter() - t0
    assert h.values == ref.values
    assert C2.parity_check == moore_matrix(ref, p.n2 - p.k2)
    print(f"\n{name}: h {orbit_s:.2f} s from the orbit, {moore_s:.2f} s by the Moore solve")


def _inner_code(name, label):
    p = setup(name)
    ctx = FieldCtx(p.m)
    orbit = ctx.find_normal_element(SeededRng(label + name.encode()))
    if p.variant == "improved":
        return from_normal_orbit(ctx, orbit, p.k2)
    return from_orbit(ctx, orbit, p.n2, p.k2)


@pytest.mark.parametrize(
    "name", ["rep-gabkron-192", "rep-gabkron-256", "new-gabkron-192", "new-gabkron-256"]
)
def test_newton_lead_block_full_scale(name):
    # a message read off a codeword's leading k2 entries by the Newton solve
    # against the LU factoring of the presentation's leading block
    C2 = _inner_code(name, b"fullscale-lead-")
    rng = SeededRng(b"fullscale-lead-rhs-" + name.encode())
    t0 = time.perf_counter()
    C2._lead_newton
    newton_s = time.perf_counter() - t0
    A = C2.generator.submatrix(0, 0, C2.k, C2.k)
    t0 = time.perf_counter()
    lead = LeftSolver(A)
    lu_s = time.perf_counter() - t0
    for _ in range(10):
        b = RankVector.random(C2.ctx, C2.k, rng).values
        assert C2._lead_solve(b) == lead.solve(b)
    print(f"\n{name}: leading block {newton_s * 1e3:.1f} ms in Newton form, "
          f"{lu_s * 1e3:.1f} ms by LU")


@pytest.mark.parametrize(
    "name", ["rep-gabkron-192", "rep-gabkron-256", "new-gabkron-192", "new-gabkron-256"]
)
def test_newton_parity_vector_full_scale(name):
    # h of the inner code's g by one backward substitution on its Newton
    # rows against the echelon of the n - 1 Moore rows
    C2 = _inner_code(name, b"fullscale-newton-h-")
    C = GabidulinCode(C2.g, C2.k)
    t0 = time.perf_counter()
    h = C.h
    newton_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = dual_vector_echelon(C)
    echelon_s = time.perf_counter() - t0
    assert h == ref
    print(f"\n{name}: h {newton_s:.2f} s by Newton, {echelon_s:.2f} s by the echelon")


@pytest.mark.parametrize(
    "name", ["rep-gabkron-192", "rep-gabkron-256", "new-gabkron-192", "new-gabkron-256"]
)
def test_error_coordinates_full_scale(name):
    # the decoder's W by Moore stages against the echelon of the Moore
    # system, at w = radius - 1 and radius on independent values with random
    # locations, where W is also the locations against parity-check row w-1;
    # at the improved sets on the length-m inner code of a normal orbit
    p = setup(name)
    ctx = FieldCtx(p.m)
    rng = SeededRng(b"fullscale-stages-" + name.encode())
    orbit = ctx.find_normal_element(rng)
    if name.startswith("rep-"):
        C2 = from_orbit(ctx, orbit, p.n2, p.k2)
    else:
        C2 = from_normal_orbit(ctx, orbit, p.k2)
    stage_s, echelon_s = [], []
    for w in (C2.radius - 1, C2.radius):
        for _ in range(2):
            E = sc.sample_rank_error(ctx, w, w, rng).values
            e, want = located_error(C2, E, rng)
            s = C2.syndromes(e)
            t0 = time.perf_counter()
            W = C2._error_coordinates(s, E)
            stage_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            assert W == want == error_coordinates_echelon(C2, s, E)
            echelon_s.append(time.perf_counter() - t0)
    print(f"\n{name}: W at w = {C2.radius - 1}, {C2.radius}: median "
          f"{statistics.median(stage_s) * 1e3:.1f} ms by Moore stages, "
          f"{statistics.median(echelon_s) * 1e3:.1f} ms by the echelon")


@pytest.mark.parametrize(
    "name", ["rep-gabkron-192", "rep-gabkron-256", "new-gabkron-192", "new-gabkron-256"]
)
def test_decode_matches_echelon_full_scale(name):
    # whole decodes by the minimal annihilator against the referee's
    # echelon key equation, at every fourth rank and the five around the
    # radius, and on two random words: the planted pair up to the radius,
    # past it the same failure or the same pair on both routes
    p = setup(name)
    ctx = FieldCtx(p.m)
    rng = SeededRng(b"fullscale-bm-" + name.encode())
    orbit = ctx.find_normal_element(rng)
    if name.startswith("rep-"):
        C2 = from_orbit(ctx, orbit, p.n2, p.k2)
    else:
        C2 = from_normal_orbit(ctx, orbit, p.k2)
    t = C2.radius
    ranks = sorted(set(range(0, t + 4, 4)) | set(range(t - 1, t + 4)))
    t0 = time.perf_counter()
    assert_decode_matches_echelon(C2, rng, ranks)
    print(f"\n{name}: {len(ranks) + 2} words on both routes in {time.perf_counter() - t0:.1f} s")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_products_full_scale(name):
    # m·N, a block's syndromes and c·P, each packing its rows from the
    # entries and summing the products, against the shift-loop packing and
    # one scal per term
    p, kp, _ = _keypair(name)
    ctx = FieldCtx(p.m)
    rng = SeededRng(b"fullscale-products-" + name.encode())
    msg = RankVector.random(ctx, p.k, rng).values
    c = sc.encrypt(msg, kp.pk, p, rng).values.values
    C2 = kp.code.C2
    H = C2.parity_check.rows
    P = kp.sk.P
    npk, nrows = kp.pk.matrix.packed_rows()
    cases = [
        ("m·N", kp.pk.matrix.dense().rows, msg, lambda: npk.lincomb(msg, nrows)),
        ("syndromes", [list(col) for col in zip(*H)], c[: p.n2], lambda: C2.syndromes(c[: p.n2])),
        ("c·P on P's dense rows", P.dense().rows, c, lambda: P.left_mul_values(c)),
    ]
    report = []
    for label, rows, vals, product in cases:
        pk = _packed(ctx, len(rows[0]))
        t0 = time.perf_counter()
        want = lincomb_per_term(pk, vals, [pack_shift_loop(pk, row) for row in rows])
        old_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        got = pk.lincomb(vals, [pk.pack(row) for row in rows])
        new_s = time.perf_counter() - t0
        assert got == want == product()
        report.append(f"{label} {old_s * 1e3:.1f} -> {new_s * 1e3:.1f} ms")
    print(f"\n{name}, packing and product, per term and shift loop -> chunked and "
          f"pairwise: " + ", ".join(report))


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_packed_row_parse_full_scale(name):
    # N's rows spread from the key file against its entries packed row by
    # row and gathered back; a file one byte short is refused as by the
    # entry-wise unpack
    p, kp, _ = _keypair(name)
    parse_s, entries_s = packed_parse_against_entries(keyio.serialize_public_key(kp.pk))
    print(f"\n{name}: public key parsed into packed rows in {parse_s * 1e3:.1f} ms; "
          f"its entries unpacked and packed row by row in {entries_s * 1e3:.1f} ms")


# SHA-256 of pk.bin and sk.bin from `gabkron keygen --seed 5eed...5eed`, the
# seed of the tier-1 command-line steps
KEY_FILES = {
    "rep-gabkron-192": (
        "f52fb06d17acfb31c62e6946035eeeb0d680707bfcfc5f99164a8189ca8cc4b0",
        "6e4e81352d9a8d00f787b8e416ccefbec5ef288bab806fb4f6d0289892b63f6f",
    ),
    "rep-gabkron-256": (
        "5cb0923561390340397ca42502dfb5c2e3ae75a9a6344af768bfdfe33daab44e",
        "fcec21eae3973f7b558d70c59e690f41b9a7033b7d5e79978bc70e19e415aa6c",
    ),
}


@pytest.mark.parametrize("name", list(KEY_FILES))
def test_repaired_key_files_full_scale(name, tmp_path):
    pk, sk = tmp_path / "pk.bin", tmp_path / "sk.bin"
    t0 = time.perf_counter()
    assert main(["keygen", "--set", name, "--seed", "5eed" * 16,
                 "--pk", str(pk), "--sk", str(sk)]) == 0
    keygen_s = time.perf_counter() - t0
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (pk, sk))
    assert digests == KEY_FILES[name]
    print(f"\n{name}: command-line keygen {keygen_s:.1f} s")


def test_moduli_table_full_scale():
    # every degree FieldCtx accepts against the search that built the table
    t0 = time.perf_counter()
    for m in range(2, 513):
        assert gf2m.MODULI[m] == smallest_irreducible(m), f"m={m}"
    print(f"\nmoduli: 511 searches in {time.perf_counter() - t0:.1f} s")
