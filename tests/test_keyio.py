import collections
import hashlib
import subprocess
import sys
import time

import pytest

from gabkron import keyio, scheme as sc
from gabkron.gabcodes import DecodeFailure
from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector

from conftest import fresh_rng, inconsistent_secret_key, packed_parse_against_entries


@pytest.fixture(scope="module")
def improved_pair():
    p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
              t=1, t1=1, lam=3, lam_p=2)
    return p, sc.keygen(p, SeededRng(b"io-improved"))


@pytest.fixture(scope="module")
def repaired_pair():
    p = setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)
    return p, sc.keygen(p, SeededRng(b"io-repaired"))


@pytest.fixture(scope="module")
def repaired_odd_pair():
    # rows of (n - k) m = 350 bits, and four padding bits after k = 10 rows
    p = setup(variant="repaired", m=25, n1=2, k1=2, n2=12, k2=5, t1=1, lam=2)
    return p, sc.keygen(p, SeededRng(b"io-repaired-odd"))


@pytest.fixture(scope="module")
def rep128_pair():
    p = setup("rep-gabkron-128")
    return p, sc.keygen(p, SeededRng(b"io-rep128"))


def test_element_stream_round_trip():
    vals = [0b1011, 0b0001, 0b1111, 0]
    data = keyio.pack_elements(vals, 4)
    assert len(data) == 2
    assert keyio.unpack_elements(data, 4, 4) == vals
    # non-byte-aligned stride
    vals5 = [17, 3, 0, 31]
    data5 = keyio.pack_elements(vals5, 5)
    assert len(data5) == (4 * 5 + 7) // 8
    assert keyio.unpack_elements(data5, 5, 4) == vals5


def test_unpack_rejects_bad_padding_and_length():
    with pytest.raises(keyio.FormatError):
        keyio.unpack_elements(b"\xff", 4, 1)  # padding bits set
    with pytest.raises(keyio.FormatError):
        keyio.unpack_elements(b"\x01\x02", 4, 1)
    # the top pad bit in the second m-byte chunk: 9 * 211 bits in 238 bytes
    data = bytearray(keyio.pack_elements([1] * 9, 211))
    data[-1] |= 0x80
    with pytest.raises(keyio.FormatError):
        keyio.unpack_elements(bytes(data), 211, 9)


def test_public_key_round_trip_improved(improved_pair):
    p, kp = improved_pair
    blob = keyio.serialize_public_key(kp.pk)
    again = keyio.parse_public_key(blob)
    assert again.params == p
    assert again.matrix == kp.pk.matrix
    assert keyio.serialize_public_key(again) == blob


def test_public_key_round_trip_repaired(repaired_pair):
    p, kp = repaired_pair
    blob = keyio.serialize_public_key(kp.pk)
    again = keyio.parse_public_key(blob)
    assert again.matrix == kp.pk.matrix


def test_secret_key_round_trip_improved(improved_pair):
    p, kp = improved_pair
    blob = keyio.serialize_secret_key(kp.sk)
    again = keyio.parse_secret_key(blob)
    assert again.alpha == kp.sk.alpha
    assert again.P == kp.sk.P
    assert again.G1 == kp.sk.G1
    assert again._dec is not None  # built by the parse, cached for decrypt
    assert keyio.serialize_secret_key(again) == blob


def test_secret_key_round_trip_repaired(repaired_pair):
    p, kp = repaired_pair
    blob = keyio.serialize_secret_key(kp.sk)
    again = keyio.parse_secret_key(blob)
    assert again.G1 == kp.sk.G1
    assert again.g2 == kp.sk.g2
    assert again.P.dense() == kp.sk.P.dense()
    assert again.z0 == kp.sk.z0
    assert again._dec is not None


@pytest.mark.parametrize("variant, part", [
    ("repaired", "z0"), ("repaired", "g2"), ("repaired", "g2-orbit"), ("repaired", "G1"),
    ("repaired", "P"),
    ("improved", "G1"), ("improved", "alpha"),
])
def test_parse_rejects_inconsistent_secret_key(request, variant, part):
    # the library parser, not only the CLI, refuses a tuple it cannot decrypt with
    p, kp = request.getfixturevalue(f"{variant}_pair")
    blob = keyio.serialize_secret_key(inconsistent_secret_key(kp.sk, part))
    with pytest.raises(keyio.FormatError):
        keyio.parse_secret_key(blob)


def test_no_single_bit_flip_of_a_repaired_secret_key_decrypts_wrongly(repaired_pair):
    # every payload bit of the toy repaired key flipped in turn: the file
    # fails to parse (P singular, g2 no orbit, G1 rank-deficient, padding),
    # or decryption raises DecodeFailure, because c - m G_pub has rank above
    # t for the flipped key's m, or returns the right message; never a
    # wrong one
    p, kp = repaired_pair
    rng = fresh_rng(b"sk-flips")
    m = RankVector.random(FieldCtx(p.m), p.k, rng)
    ct = sc.encrypt(m, kp.pk, p, rng)
    blob = keyio.serialize_secret_key(kp.sk)
    outcomes = collections.Counter()
    for bit in range(8 * keyio._HEADER_LEN, 8 * len(blob)):
        data = bytearray(blob)
        data[bit // 8] ^= 1 << bit % 8
        try:
            sk = keyio.parse_secret_key(bytes(data))
        except keyio.FormatError:
            outcomes["parse"] += 1
            continue
        try:
            got = sc.decrypt(ct, sk, p)
        except DecodeFailure:
            outcomes["decode"] += 1
            continue
        assert got == m, f"payload bit {bit - 8 * keyio._HEADER_LEN}"
        outcomes["right"] += 1
    assert outcomes["parse"] and outcomes["decode"]


def test_ciphertext_round_trip(improved_pair):
    p, kp = improved_pair
    rng = fresh_rng(b"ctio")
    ctx = kp.pk.matrix.ctx
    m = RankVector.random(ctx, p.k, rng)
    ct = sc.encrypt(m, kp.pk, p, rng)
    blob = keyio.serialize_ciphertext(ct)
    again = keyio.parse_ciphertext(blob)
    assert again.params == p
    assert again.values == ct.values
    assert sc.decrypt(again, kp.sk, p) == m


def test_parse_rejects_malformed(improved_pair):
    p, kp = improved_pair
    blob = keyio.serialize_public_key(kp.pk)
    with pytest.raises(keyio.FormatError):
        keyio.parse_public_key(blob[:10])
    with pytest.raises(keyio.FormatError):
        keyio.parse_public_key(b"XXXX" + blob[4:])
    with pytest.raises(keyio.FormatError):
        keyio.parse_public_key(blob + b"\x00")
    corrupt = bytearray(blob)
    corrupt[4] = 9  # version
    with pytest.raises(keyio.FormatError):
        keyio.parse_public_key(bytes(corrupt))
    # a ciphertext blob fails public-key payload checks by length
    rng = fresh_rng(b"confuse")
    m = RankVector.random(kp.pk.matrix.ctx, p.k, rng)
    ct_blob = keyio.serialize_ciphertext(sc.encrypt(m, kp.pk, p, rng))
    with pytest.raises(keyio.FormatError):
        keyio.parse_public_key(ct_blob)


@pytest.mark.parametrize("m", [509, 512])
@pytest.mark.parametrize("variant", ["improved", "repaired"])
def test_wrong_length_rejected_before_field_search(variant, m):
    # a short payload fails on its length, before the field is built
    if variant == "improved":
        p = setup(variant="improved", m=m, n1=2, k1=2, n2=m, k2=m - 8,
                  t=1, t1=1, lam=3, lam_p=2)
    else:
        p = setup(variant="repaired", m=m, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)
    for parse, version in ((keyio.parse_public_key, keyio.VERSION),
                           (keyio.parse_secret_key, keyio.SK_VERSION),
                           (keyio.parse_ciphertext, keyio.VERSION)):
        data = keyio._header(p, version) + bytes(64)
        assert len(data) == 122
        start = time.perf_counter()
        with pytest.raises(keyio.FormatError, match="payload is 64 bytes"):
            parse(data)
        assert time.perf_counter() - start < 0.2, parse.__name__


_PARSE_M504 = """
import sys, time
from gabkron import keyio
data = sys.stdin.buffer.read()
t0 = time.perf_counter()
ct = keyio.parse_ciphertext(data)
print(time.perf_counter() - t0, ct.params.m, len(ct.values))
"""


def test_m504_ciphertext_parses_in_a_fresh_process_under_10ms():
    # n = 7 <= m = 504 passes setup, so a 499-byte ciphertext can name
    # GF(2^504), whose modulus a search took about 2 s to find; the table
    # holds every degree, so a fresh process builds the field at once
    p = setup(variant="repaired", m=504, n1=1, k1=1, n2=7, k2=1, t1=1, lam=2)
    rng = fresh_rng(b"m504")
    data = keyio._header(p) + keyio.pack_elements([rng.element(504) for _ in range(7)], 504)
    assert len(data) == 499
    proc = subprocess.run([sys.executable, "-c", _PARSE_M504], input=data,
                          capture_output=True, timeout=60, check=True)
    seconds, m, n = proc.stdout.split()
    assert (int(m), int(n)) == (504, 7)
    assert float(seconds) < 0.01


def test_header_constraint_validation(improved_pair):
    p, kp = improved_pair
    blob = bytearray(keyio.serialize_public_key(kp.pk))
    # t lives at field index 7 of the header
    off = 6 + 7 * 4
    blob[off : off + 4] = (99).to_bytes(4, "big")
    with pytest.raises(keyio.FormatError):
        keyio.parse_public_key(bytes(blob))


def test_repaired_header_with_lambda_prime_rejected(repaired_pair):
    p, kp = repaired_pair
    ct = sc.encrypt(RankVector.random(FieldCtx(p.m), p.k, fresh_rng(b"lam-p")), kp.pk, p,
                    fresh_rng(b"lam-p-e"))
    blob = bytearray(keyio.serialize_ciphertext(ct))
    # lambda' lives at field index 11 of the header; 0 stands for none
    off = 6 + 11 * 4
    assert blob[off : off + 4] == bytes(4)
    blob[off : off + 4] = (3).to_bytes(4, "big")
    with pytest.raises(keyio.FormatError, match="lambda'"):
        keyio.parse_ciphertext(bytes(blob))


def test_message_packing(improved_pair):
    p, _ = improved_pair
    cap = keyio.message_capacity(p)
    assert cap == (p.k * p.m) // 8 - 4
    rng = fresh_rng(b"msg")
    for size in (0, 1, cap // 2, cap):
        data = rng.bytes(size)
        vals = keyio.pack_message(data, p)
        assert len(vals) == p.k
        assert keyio.unpack_message(vals, p) == data
    with pytest.raises(ValueError):
        keyio.pack_message(bytes(cap + 1), p)


def test_unpack_message_rejects_bogus_length(improved_pair):
    p, _ = improved_pair
    vals = keyio.pack_message(b"hi", p)
    vals = [((1 << p.m) - 1)] + vals[1:]  # clobber the length prefix
    with pytest.raises(keyio.FormatError):
        keyio.unpack_message(vals, p)


# SHA-256 of the serialized pk, sk and ct under fixed seeds: any change to
# key generation, encryption or the file format shows up here
GOLDEN = {
    "toy-improved": (
        dict(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4, t=1, t1=1, lam=3, lam_p=2),
        "96920e72d9fa4ad0ff95f7edf3fbec8e9c0d53627f30a5d123341866d5ee612c",
        "7bfe6218530afb2561d98a625b7ca8d030cfe9144e885148b25bc632b2cd6144",
        "b42fa969213ca766320289e37cdc3a326966d5e15fb01a596490f08aded82a6c",
    ),
    "toy-repaired": (
        dict(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2),
        "abe1e3ea86aaf78d9e70fa79ecfdaec80f5fd9891b3066c819229c4e62cd9ac5",
        "edd278e0f5fd10244921d70a8ff3a937533a44323460fc8e7da257ad617989e9",
        "b925d236ef28413e01c789a21edcee12a581d87658bbbd84a1a8cef09b9ffe7c",
    ),
    "new-gabkron-128": (
        None,
        "f5d59e02c302f87fad7dac195ce40c32189af838d11fb2b5ded2e79199add417",
        "9fa9686ba6c67611cf85dafa7c0d96f07d34c2188c597543d2eb32fc57cfbee6",
        "40c1a15208f997eed2ee3df67d41fc67cc6d5e9667cc9770d946cf3bc3afc178",
    ),
    # n2 = 120 = 8 * 15 and 128 = 2^7: the ring inverse lifts 3 and 7 times
    "new-gabkron-192": (
        None,
        "9efe1286bb2bd5c2554ebcb3421dba9a9454a6c1b8e672e32d5b7ec70f52dfe8",
        "6de016aac6d8c7aa6877322f7e08368b013684d83fd73312a2236b88d083a465",
        "d354c23fc1ecc81ec2a2e56c83c5666b298862408c0a4a581c45de55fccabe75",
    ),
    "new-gabkron-256": (
        None,
        "1c4922a7f3a17c8a3530e9f98f3eb513cf20a900408ad2a37d608270bb251141",
        "a110dd07b693880471ea82790f68c13b6612dc40fdeefe497801b5b3be935fea",
        "d71a8a7a53c4834abc8782aae1cd18638dd620716c9da4d2957c3219d00cd084",
    ),
}


@pytest.mark.parametrize("label", list(GOLDEN))
def test_golden_digests(label):
    fields, pk_sha, sk_sha, ct_sha = GOLDEN[label]
    p = setup(label) if fields is None else setup(**fields)
    kp = sc.keygen(p, SeededRng(b"golden-" + label.encode()))
    m = RankVector.random(FieldCtx(p.m), p.k, SeededRng(b"golden-m"))
    ct = sc.encrypt(m, kp.pk, p, SeededRng(b"golden-e"))
    assert sc.decrypt(ct, kp.sk, p) == m

    def digest(blob):
        return hashlib.sha256(blob).hexdigest()

    assert digest(keyio.serialize_public_key(kp.pk)) == pk_sha
    assert digest(keyio.serialize_secret_key(kp.sk)) == sk_sha
    assert digest(keyio.serialize_ciphertext(ct)) == ct_sha


def _pack_referee(vals, m):
    # the original one-big-int packer, quadratic in the element count
    acc = 0
    for i, v in enumerate(vals):
        acc |= v << (i * m)
    return acc.to_bytes((len(vals) * m + 7) // 8, "little")


@pytest.mark.parametrize("count", [0, 1, 7, 9, 13, 100, 1003])
def test_pack_elements_matches_referee(count):
    m = 211
    rng = fresh_rng(b"pack%d" % count)
    vals = [rng.element(m) for _ in range(count)]
    if vals:
        vals[-1] = (1 << m) - 1  # a full-width last value
    data = keyio.pack_elements(vals, m)
    assert data == _pack_referee(vals, m)
    assert keyio.unpack_elements(data, m, count) == vals


def test_improved_key_handling_builds_no_full_width_matrix(improved_pair, monkeypatch):
    # keygen, parsing and the decrypter work on block generators: no RankMatrix
    # as wide as the whole code (n1 * n2 columns) is ever built
    from gabkron.ranklinalg import RankMatrix

    p, kp = improved_pair
    pk_blob = keyio.serialize_public_key(kp.pk)
    sk_blob = keyio.serialize_secret_key(kp.sk)
    shapes = []
    init = RankMatrix.__init__

    def recording_init(self, ctx, rows):
        init(self, ctx, rows)
        shapes.append((self.nrows, self.ncols))

    monkeypatch.setattr(RankMatrix, "__init__", recording_init)
    kp2 = sc.keygen(p, SeededRng(b"io-improved"))
    keyio.parse_public_key(pk_blob)
    sk = keyio.parse_secret_key(sk_blob)
    sk.decrypter()
    monkeypatch.undo()
    assert keyio.serialize_public_key(kp2.pk) == pk_blob
    assert shapes and all(ncols < p.n for _, ncols in shapes)
    assert max(ncols for _, ncols in shapes) == p.n2


@pytest.mark.parametrize("pair", ["repaired_pair", "repaired_odd_pair", "rep128_pair"])
def test_packed_row_parse_matches_entries(pair, request):
    # N's rows spread from the payload, eight rows at a time, against its
    # entries packed row by row: rows of whole bytes (384 bits), of 350 bits
    # with padding after the last, and of 29,540 bits at rep-gabkron-128
    p, kp = request.getfixturevalue(pair)
    packed_parse_against_entries(keyio.serialize_public_key(kp.pk))


@pytest.mark.parametrize("pair, seed", [("repaired_pair", b"io-repaired"),
                                        ("rep128_pair", b"io-rep128")])
def test_repaired_key_handling_builds_no_rank_matrix(pair, seed, request, monkeypatch):
    # N stays packed rows from the file or keygen's Schur rows to m N: a
    # parse, an encrypt and a serialize build no RankMatrix, and keygen
    # builds none of N's n - k columns
    from gabkron.ranklinalg import RankMatrix

    p, kp = request.getfixturevalue(pair)
    pk_blob = keyio.serialize_public_key(kp.pk)
    msg = list(range(p.k))
    shapes = []
    init = RankMatrix.__init__

    def recording_init(self, ctx, rows):
        init(self, ctx, rows)
        shapes.append((self.nrows, self.ncols))

    monkeypatch.setattr(RankMatrix, "__init__", recording_init)
    pk = keyio.parse_public_key(pk_blob)
    ct = sc.encrypt(msg, pk, p, SeededRng(b"no-rank-matrix"))
    blob = keyio.serialize_public_key(pk)
    assert shapes == []
    kp2 = sc.keygen(p, SeededRng(seed))
    monkeypatch.undo()
    assert blob == pk_blob
    assert keyio.serialize_public_key(kp2.pk) == pk_blob
    assert ct == sc.encrypt(msg, kp.pk, p, SeededRng(b"no-rank-matrix"))
    assert shapes and all(ncols != p.n - p.k for _, ncols in shapes)
