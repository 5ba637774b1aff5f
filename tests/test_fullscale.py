"""Full-scale tests at the larger repaired sets, off by default.

Set GABKRON_FULLSCALE=1 to run them; together they take a few minutes:

    GABKRON_FULLSCALE=1 PYTHONPATH=src python -m pytest tests/test_fullscale.py -v -s

Keys, ciphertexts and plaintexts pass through the key-file formats, as in a
command-line round trip, and the round-trip test prints its stage timings:
keygen, and a first decrypt whose parse factors S.  The other tests check
fast paths against their referees and print both timings: keygen's
(G + X) P^-1 from alpha's orbit against the dense product, keygen's
systematic form by Schur steps against the echelon of [M0 | I_k], and the
inner code's parity vector h against the Moore solve, and the decoder's
error values W by Moore stages against the echelon of the whole Moore
system.  The parity test also checks the inner code's presentation, read
off alpha's orbit, against the squared-out Moore matrix.  The products test
checks encrypt's m·N, a block's syndromes and the decrypter's c·P, rows
packed pairwise and summed in chunked window sums, against rows packed by
the shift loop and summed one scal per term.
"""

import functools
import os
import statistics
import time

import pytest

from gabkron import keyio, scheme as sc
from gabkron.gabcodes import from_orbit, moore_matrix
from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector, _packed, circulant_block_invert

from conftest import (
    dense_g_plus_x,
    error_coordinates_echelon,
    lincomb_per_term,
    located_error,
    pack_shift_loop,
    systematic_form_against_rref,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("GABKRON_FULLSCALE") != "1",
    reason="full-scale repaired round trips run only with GABKRON_FULLSCALE=1",
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
          f"(parse with decrypter build, which factors S, {parse_s:.2f} s, then "
          f"the decode that builds h), next decrypt {next_s:.2f} s")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_repaired_m0_full_scale(name):
    # keygen's (G + X) P^-1 from alpha's orbit against the dense product
    p, kp, _ = _keypair(name)
    Pinv = circulant_block_invert(kp.sk.P)
    t0 = time.perf_counter()
    pk, rows = sc._repaired_m0_rows(kp.code, kp.x_witness.X, Pinv)
    orbit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    M0 = dense_g_plus_x(kp).mul(Pinv.dense())
    dense_s = time.perf_counter() - t0
    assert [pk.unpack(row) for row in rows] == M0.rows
    print(f"\n{name}: M0 {orbit_s:.2f} s from alpha's orbit, {dense_s:.1f} s by the dense product")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_systematic_form_full_scale(name):
    # keygen's Schur steps against the echelon of [M0 | I_k]
    p, kp, keygen_s = _keypair(name)
    schur_s, rref_s = systematic_form_against_rref(kp)
    print(f"\n{name}: keygen {keygen_s:.1f} s; systematic form {schur_s:.2f} s "
          f"by Schur steps, {rref_s:.1f} s by the echelon of [M0 | I_k]")


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
    ref = C2._dual_vector()
    moore_s = time.perf_counter() - t0
    assert h.values == ref.values
    assert C2.parity_check == moore_matrix(ref, p.n2 - p.k2)
    print(f"\n{name}: h {orbit_s:.2f} s from the orbit, {moore_s:.2f} s by the Moore solve")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_error_coordinates_full_scale(name):
    # the decoder's W by Moore stages against the echelon of the Moore
    # system, at w = radius - 1 and radius on independent values with random
    # locations, where W is also the locations against parity-check row w-1
    p = setup(name)
    ctx = FieldCtx(p.m)
    rng = SeededRng(b"fullscale-stages-" + name.encode())
    C2 = from_orbit(ctx, ctx.find_normal_element(rng), p.n2, p.k2)
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
    cases = [
        ("m·N", kp.pk.matrix.rows, msg, lambda: kp.pk.matrix.left_mul_values(msg)),
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
