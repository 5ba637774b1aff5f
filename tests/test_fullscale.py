"""Full-scale round trips at the larger repaired sets, off by default.

Set GABKRON_FULLSCALE=1 to run them; each takes minutes:

    GABKRON_FULLSCALE=1 PYTHONPATH=src python -m pytest tests/test_fullscale.py -v -s

Keys, ciphertexts and plaintexts pass through the key-file formats, as in a
command-line round trip, and each test prints its stage timings.
"""

import os
import time

import pytest

from gabkron import keyio, scheme as sc
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
    assert sc.decrypt(keyio.parse_ciphertext(cts[0]), sk, p) == messages[0]
    first_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    assert sc.decrypt(keyio.parse_ciphertext(cts[1]), sk, p) == messages[1]
    next_s = time.perf_counter() - t0
    print(f"\n{name}: keygen {keygen_s:.1f} s, first decrypt {first_s:.2f} s "
          f"(parse, decrypter, parity check), next decrypt {next_s:.2f} s")
