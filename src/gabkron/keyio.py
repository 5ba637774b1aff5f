"""GKPC file formats for keys, ciphertexts, and message packing.

Layout: magic "GKPC", one version byte (2 for secret keys, 1 for public
keys and ciphertexts), one variant tag byte, thirteen 32-bit big-endian
parameter fields, then the payload.  Payload values are
bit-packed at an m-bit stride in little-endian bit order and the whole
payload is zero-padded to a byte boundary; that is what makes the public
key for new-GabKron-128 occupy exactly its advertised 4050 payload bytes.
The modulus is not stored: it is the registry polynomial for the degree m
in the header, read from a table (gf2m.MODULI) that holds every degree a
header may name, so no parse searches for one.  Parsers check the payload
length the header implies before they build the field.

The improved variant's G_pub and P are partial-circulant-block matrices
and travel as the first row of every block, blocks in row-major order.
Row 0 of Cir_k(a) is reflect(a) = (a_0, a_{n-1}, ..., a_1), an involution,
so parsing and serializing map those rows to and from the in-memory
CirculantGrid of generators by slicing alone.  The repaired public key is
held as the k x (n - k) matrix its file stores, row by row.  The repaired
secret key stores G1, g2, b itself, the generator of its one-block grid
P = Cir(b), and the t1 values z_0 that row 0 of X repeats; the decrypter
rebuilds M0 = (G + X) P^-1 from them (scheme).  A version-1 secret key,
which held S in place of z_0, is refused by its version: its length can
equal the new layout's.  Parsing unpacks the tuple into its key and builds
the key's decrypter, which the key caches; that build checks the whole
tuple (scheme), so a singular P, a non-normal alpha, a rank-deficient G1
or a g2 that is not an orbit is a FormatError.

Messages for encryption are arbitrary byte strings up to the capacity
floor(k*m/8) - 4; a 4-byte big-endian length prefix travels inside the
first field elements so decryption can strip the padding.  The message
bytes are the leading floor(k*m/8) bytes of the k elements packed as a
payload is.
"""

from __future__ import annotations

from .gf2m import FieldCtx
from .params import ParamSet, ParameterError, setup
from .ranklinalg import CirculantGrid, RankMatrix, RankVector, reflect
from .scheme import (
    Ciphertext,
    ImprovedSecretKey,
    PublicKey,
    RepairedSecretKey,
)

MAGIC = b"GKPC"
VERSION = 1  # public keys and ciphertexts
SK_VERSION = 2  # secret keys; version 1 held S in place of z_0
_VARIANT_TAGS = {"repaired": 1, "improved": 2}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}


class FormatError(ValueError):
    """Malformed or truncated GKPC data."""


# ---------------------------------------------------------------------------
# bit-level element packing


# eight m-bit values fill exactly m bytes, so both directions work on
# independent m-byte chunks and take time linear in the element count
def pack_elements(vals, m: int) -> bytes:
    chunks = []
    for c in range(0, len(vals), 8):
        acc = 0
        for i, v in enumerate(vals[c : c + 8]):
            acc |= v << (i * m)
        chunks.append(acc.to_bytes(m, "little"))
    return b"".join(chunks)[: (len(vals) * m + 7) // 8]


def unpack_elements(data: bytes, m: int, count: int) -> list:
    nbytes = (count * m + 7) // 8
    if len(data) != nbytes:
        raise FormatError(f"payload is {len(data)} bytes, expected {nbytes}")
    mask = (1 << m) - 1
    vals = []
    for c in range(0, nbytes, m):
        acc = int.from_bytes(data[c : c + m], "little")
        vals.extend((acc >> (i * m)) & mask for i in range(8))
    if any(vals[count:]):
        raise FormatError("non-zero padding bits in payload")
    return vals[:count]


# ---------------------------------------------------------------------------
# headers


def _header(p: ParamSet, version: int = VERSION) -> bytes:
    fields = [
        p.m, p.n, p.k, p.n1, p.n2, p.k1, p.k2,
        p.t, p.t1, p.t2, p.lam, p.lam_p or 0, p.security,
    ]
    out = [MAGIC, bytes([version, _VARIANT_TAGS[p.variant]])]
    out += [f.to_bytes(4, "big") for f in fields]
    return b"".join(out)


_HEADER_LEN = 4 + 2 + 13 * 4


def _parse_header(data: bytes, version: int = VERSION) -> tuple[ParamSet, bytes]:
    if len(data) < _HEADER_LEN:
        raise FormatError("truncated header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    if data[4] != version:
        raise FormatError(f"unsupported version {data[4]} (expected {version})")
    variant = _TAG_VARIANTS.get(data[5])
    if variant is None:
        raise FormatError(f"unknown variant tag {data[5]}")
    raw = [int.from_bytes(data[6 + 4 * i : 10 + 4 * i], "big") for i in range(13)]
    (m, n, k, n1, n2, k1, k2, t, t1, t2, lam, lam_p, security) = raw
    try:
        p = setup(
            variant=variant, m=m, n=n, k=k, n1=n1, n2=n2, k1=k1, k2=k2,
            t=t, t1=t1, t2=t2, lam=lam, lam_p=lam_p or None, security=security,
        )
    except ParameterError as exc:
        raise FormatError(f"header violates setup constraints: {exc}") from exc
    return p, data[_HEADER_LEN:]


# ---------------------------------------------------------------------------
# public keys


def _first_rows(grid: CirculantGrid) -> list:
    return [v for row in grid.gens for a in row for v in reflect(a)]


def _matrix(ctx, vals, nrows, ncols) -> RankMatrix:
    """nrows x ncols matrix from the leading values, row by row."""
    return RankMatrix(ctx, [vals[i * ncols : (i + 1) * ncols] for i in range(nrows)])


def _entries(M: RankMatrix) -> list:
    return [v for row in M.rows for v in row]


def _grid(ctx, vals, nrows, ncols, n, k) -> CirculantGrid:
    """Grid of nrows x ncols blocks from their consecutive first rows."""
    firsts = [vals[i : i + n] for i in range(0, nrows * ncols * n, n)]
    gens = [[reflect(f) for f in firsts[i * ncols : (i + 1) * ncols]] for i in range(nrows)]
    return CirculantGrid(ctx, gens, k)


def serialize_public_key(pk: PublicKey) -> bytes:
    p = pk.params
    vals = _first_rows(pk.matrix) if p.variant == "improved" else _entries(pk.matrix)
    return _header(p) + pack_elements(vals, p.m)


def parse_public_key(data: bytes) -> PublicKey:
    p, payload = _parse_header(data)
    if p.variant == "improved":
        vals = unpack_elements(payload, p.m, p.k1 * p.n1 * p.n2)
        return PublicKey(p, _grid(FieldCtx(p.m), vals, p.k1, p.n1, p.n2, p.k2))
    vals = unpack_elements(payload, p.m, p.k * (p.n - p.k))
    return PublicKey(p, _matrix(FieldCtx(p.m), vals, p.k, p.n - p.k))


# ---------------------------------------------------------------------------
# secret keys


def serialize_secret_key(sk) -> bytes:
    p = sk.params
    if isinstance(sk, ImprovedSecretKey):
        vals = [sk.alpha, *_first_rows(sk.P), *_entries(sk.G1)]
    elif isinstance(sk, RepairedSecretKey):
        vals = [*_entries(sk.G1), *sk.g2.values, *sk.P.gens[0][0], *sk.z0.values]
    else:
        raise TypeError(f"not a secret key: {type(sk).__name__}")
    return _header(p, SK_VERSION) + pack_elements(vals, p.m)


def parse_secret_key(data: bytes):
    """The key with its decrypter built, which rejects an inconsistent tuple."""
    p, payload = _parse_header(data, SK_VERSION)
    if p.variant == "improved":
        pos = 1 + p.n1 * p.n1 * p.n2
        vals = unpack_elements(payload, p.m, pos + p.k1 * p.n1)
        ctx = FieldCtx(p.m)
        P = _grid(ctx, vals[1:], p.n1, p.n1, p.n2, p.n2)
        sk = ImprovedSecretKey(p, alpha=vals[0], P=P, G1=_matrix(ctx, vals[pos:], p.k1, p.n1))
    else:
        g2_at = p.k1 * p.n1
        P_at = g2_at + p.n2
        z_at = P_at + p.n
        vals = unpack_elements(payload, p.m, z_at + p.t1)
        ctx = FieldCtx(p.m)
        sk = RepairedSecretKey(
            p, G1=_matrix(ctx, vals, p.k1, p.n1), g2=RankVector(ctx, vals[g2_at:P_at]),
            P=CirculantGrid(ctx, [[vals[P_at:z_at]]], p.n), z0=RankVector(ctx, vals[z_at:]),
        )
    try:
        sk.decrypter()
    except ValueError as exc:
        raise FormatError(f"inconsistent secret key: {exc}") from exc
    return sk


# ---------------------------------------------------------------------------
# ciphertexts


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    return _header(ct.params) + pack_elements(ct.values.values, ct.params.m)


def parse_ciphertext(data: bytes) -> Ciphertext:
    p, payload = _parse_header(data)
    vals = unpack_elements(payload, p.m, p.n)
    return Ciphertext(p, RankVector(FieldCtx(p.m), vals))


# ---------------------------------------------------------------------------
# message packing


def message_capacity(p: ParamSet) -> int:
    """Largest byte payload that fits k field elements with the length prefix."""
    return (p.k * p.m) // 8 - 4


def pack_message(data: bytes, p: ParamSet) -> list:
    cap = message_capacity(p)
    if len(data) > cap:
        raise ValueError(f"message is {len(data)} bytes; capacity is {cap}")
    buf = len(data).to_bytes(4, "big") + data
    return unpack_elements(buf.ljust((p.k * p.m + 7) // 8, b"\0"), p.m, p.k)


def unpack_message(vals, p: ParamSet) -> bytes:
    if len(vals) != p.k:
        raise ValueError("expected k field elements")
    nbytes = (p.k * p.m) // 8
    buf = pack_elements(vals, p.m)[:nbytes]
    length = int.from_bytes(buf[:4], "big")
    if length > nbytes - 4:
        raise FormatError(f"embedded length {length} exceeds capacity")
    return buf[4 : 4 + length]
