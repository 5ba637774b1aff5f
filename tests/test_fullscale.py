"""Full-scale round trips at the larger repaired sets, off by default.

Set GABKRON_FULLSCALE=1 to run them; each takes minutes:

    GABKRON_FULLSCALE=1 PYTHONPATH=src python -m pytest tests/test_fullscale.py -v -s

Keys, ciphertexts and plaintexts pass through the key-file formats, as in a
command-line round trip, and each test prints its stage timings.  A second
test checks the inner code's parity vector h against the Moore solve that
is its referee, and prints both timings.
"""

import os
import time

import pytest

from gabkron import keyio, scheme as sc
from gabkron.gabcodes import from_orbit, moore_matrix
from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector

pytestmark = pytest.mark.skipif(
    os.environ.get("GABKRON_FULLSCALE") != "1",
    reason="full-scale repaired round trips run only with GABKRON_FULLSCALE=1",
)


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_repaired_full_scale_round_trip(name):
    p = setup(name)
    t0 = time.perf_counter()
    kp = sc.keygen(p, SeededRng(b"fullscale-" + name.encode()))
    keygen_s = time.perf_counter() - t0
    pk = keyio.parse_public_key(keyio.serialize_public_key(kp.pk))
    sk_bytes = keyio.serialize_secret_key(kp.sk)
    ctx = FieldCtx(p.m, p.modulus)
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
          f"(parse with decrypter build {parse_s:.2f} s, then the decode that "
          f"builds h), next decrypt {next_s:.2f} s")


@pytest.mark.parametrize("name", ["rep-gabkron-192", "rep-gabkron-256"])
def test_orbit_parity_vector_full_scale(name):
    # h from the subspace polynomial of g2's orbit against the Moore solve
    p = setup(name)
    ctx = FieldCtx(p.m, p.modulus)
    alpha = ctx.find_normal_element(SeededRng(b"fullscale-h-" + name.encode()))
    C2 = from_orbit(ctx, RankVector(ctx, ctx.frobenius_orbit(alpha, p.n2)), p.k2)
    t0 = time.perf_counter()
    h = C2.h
    orbit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = C2._dual_vector()
    moore_s = time.perf_counter() - t0
    assert h.values == ref.values
    assert C2.parity_check == moore_matrix(ref, p.n2 - p.k2)
    print(f"\n{name}: h {orbit_s:.2f} s from the orbit, {moore_s:.2f} s by the Moore solve")
