"""GKPC file formats for keys, ciphertexts, and message packing.

Layout: magic "GKPC", one version byte, one variant tag byte, thirteen
32-bit big-endian parameter fields, then the payload.  Payload values are
bit-packed at an m-bit stride in little-endian bit order and the whole
payload is zero-padded to a byte boundary; that is what makes the public
key for new-GabKron-128 occupy exactly its advertised 4050 payload bytes.
The modulus is not stored: it is the registry polynomial for the degree m
in the header.

Messages for encryption are arbitrary byte strings up to the capacity
floor(k*m/8) - 4; a 4-byte big-endian length prefix travels inside the
first field elements so decryption can strip the padding.
"""

from __future__ import annotations

from .gf2m import FieldCtx
from .params import ParamSet, ParameterError, setup
from .ranklinalg import RankMatrix, RankVector
from .scheme import (
    Ciphertext,
    ImprovedSecretKey,
    PublicKey,
    RepairedSecretKey,
)

MAGIC = b"GKPC"
VERSION = 1
_VARIANT_TAGS = {"repaired": 1, "improved": 2}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}


class FormatError(ValueError):
    """Malformed or truncated GKPC data."""


# ---------------------------------------------------------------------------
# bit-level element packing


def pack_elements(vals, m: int) -> bytes:
    acc = 0
    for i, v in enumerate(vals):
        acc |= v << (i * m)
    nbytes = (len(vals) * m + 7) // 8
    return acc.to_bytes(nbytes, "little")


def unpack_elements(data: bytes, m: int, count: int) -> list:
    nbytes = (count * m + 7) // 8
    if len(data) != nbytes:
        raise FormatError(f"payload is {len(data)} bytes, expected {nbytes}")
    acc = int.from_bytes(data, "little")
    mask = (1 << m) - 1
    vals = [(acc >> (i * m)) & mask for i in range(count)]
    if acc >> (count * m):
        raise FormatError("non-zero padding bits in payload")
    return vals


# ---------------------------------------------------------------------------
# headers


def _header(p: ParamSet) -> bytes:
    fields = [
        p.m, p.n, p.k, p.n1, p.n2, p.k1, p.k2,
        p.t, p.t1, p.t2, p.lam, p.lam_p or 0, p.security,
    ]
    out = [MAGIC, bytes([VERSION, _VARIANT_TAGS[p.variant]])]
    out += [f.to_bytes(4, "big") for f in fields]
    return b"".join(out)


_HEADER_LEN = 4 + 2 + 13 * 4


def _parse_header(data: bytes) -> tuple[ParamSet, bytes]:
    if len(data) < _HEADER_LEN:
        raise FormatError("truncated header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    if data[4] != VERSION:
        raise FormatError(f"unsupported version {data[4]}")
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


def _ctx(p: ParamSet) -> FieldCtx:
    return FieldCtx(p.m, p.modulus)


# ---------------------------------------------------------------------------
# public keys


def serialize_public_key(pk: PublicKey) -> bytes:
    p = pk.params
    vals = []
    if p.variant == "improved":
        # one first row per k2 x n2 block, blocks in row-major order
        for i in range(p.k1):
            for j in range(p.n1):
                vals.extend(pk.matrix.rows[i * p.k2][j * p.n2 : (j + 1) * p.n2])
    else:
        # systematic form: only the non-identity part N
        for row in pk.matrix.rows:
            vals.extend(row[p.k :])
    return _header(p) + pack_elements(vals, p.m)


def parse_public_key(data: bytes) -> PublicKey:
    p, payload = _parse_header(data)
    ctx = _ctx(p)
    if p.variant == "improved":
        count = p.k1 * p.n1 * p.n2
        vals = unpack_elements(payload, p.m, count)
        rows = [[0] * p.n for _ in range(p.k)]
        pos = 0
        for i in range(p.k1):
            for j in range(p.n1):
                first = vals[pos : pos + p.n2]
                pos += p.n2
                for r in range(p.k2):
                    base = i * p.k2 + r
                    off = j * p.n2
                    for c in range(p.n2):
                        rows[base][off + c] = first[(c - r) % p.n2]
        return PublicKey(p, RankMatrix(ctx, rows))
    count = p.k * (p.n - p.k)
    vals = unpack_elements(payload, p.m, count)
    rows = []
    w = p.n - p.k
    for i in range(p.k):
        row = [1 if j == i else 0 for j in range(p.k)] + vals[i * w : (i + 1) * w]
        rows.append(row)
    return PublicKey(p, RankMatrix(ctx, rows))


# ---------------------------------------------------------------------------
# secret keys


def serialize_secret_key(sk) -> bytes:
    p = sk.params
    vals = []
    if isinstance(sk, ImprovedSecretKey):
        vals.append(sk.alpha)
        for i in range(p.n1):
            for j in range(p.n1):
                vals.extend(sk.P.rows[i * p.n2][j * p.n2 : (j + 1) * p.n2])
        for row in sk.G1.rows:
            vals.extend(row)
    elif isinstance(sk, RepairedSecretKey):
        for row in sk.G1.rows:
            vals.extend(row)
        vals.extend(sk.g2.values)
        vals.extend(sk.b.values)
        for row in sk.S.rows:
            vals.extend(row)
    else:
        raise TypeError(f"not a secret key: {type(sk).__name__}")
    return _header(p) + pack_elements(vals, p.m)


def parse_secret_key(data: bytes):
    p, payload = _parse_header(data)
    ctx = _ctx(p)
    if p.variant == "improved":
        count = 1 + p.n1 * p.n1 * p.n2 + p.k1 * p.n1
        vals = unpack_elements(payload, p.m, count)
        alpha = vals[0]
        if not ctx.is_normal(alpha):
            raise FormatError("alpha is not a normal element")
        pos = 1
        rows = [[0] * p.n for _ in range(p.n)]
        for i in range(p.n1):
            for j in range(p.n1):
                first = vals[pos : pos + p.n2]
                pos += p.n2
                for r in range(p.n2):
                    base = i * p.n2 + r
                    off = j * p.n2
                    for c in range(p.n2):
                        rows[base][off + c] = first[(c - r) % p.n2]
        P = RankMatrix(ctx, rows)
        G1 = RankMatrix(
            ctx, [vals[pos + i * p.n1 : pos + (i + 1) * p.n1] for i in range(p.k1)]
        )
        return ImprovedSecretKey(p, alpha=alpha, P=P, G1=G1)
    count = p.k1 * p.n1 + p.n2 + p.n + p.k * p.k
    vals = unpack_elements(payload, p.m, count)
    pos = 0
    G1 = RankMatrix(ctx, [vals[i * p.n1 : (i + 1) * p.n1] for i in range(p.k1)])
    pos += p.k1 * p.n1
    g2 = RankVector(ctx, vals[pos : pos + p.n2])
    pos += p.n2
    b = RankVector(ctx, vals[pos : pos + p.n])
    pos += p.n
    S = RankMatrix(
        ctx, [vals[pos + i * p.k : pos + (i + 1) * p.k] for i in range(p.k)]
    )
    return RepairedSecretKey(p, G1=G1, g2=g2, b=b, S=S)


# ---------------------------------------------------------------------------
# ciphertexts


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    return _header(ct.params) + pack_elements(ct.values.values, ct.params.m)


def parse_ciphertext(data: bytes) -> Ciphertext:
    p, payload = _parse_header(data)
    vals = unpack_elements(payload, p.m, p.n)
    return Ciphertext(p, RankVector(_ctx(p), vals))


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
    acc = int.from_bytes(buf, "little")
    mask = (1 << p.m) - 1
    return [(acc >> (i * p.m)) & mask for i in range(p.k)]


def unpack_message(vals, p: ParamSet) -> bytes:
    if len(vals) != p.k:
        raise ValueError("expected k field elements")
    acc = 0
    for i, v in enumerate(vals):
        acc |= v << (i * p.m)
    nbytes = (p.k * p.m) // 8
    buf = acc.to_bytes(nbytes + 1, "little")[:nbytes]
    length = int.from_bytes(buf[:4], "big")
    if length > nbytes - 4:
        raise FormatError(f"embedded length {length} exceeds capacity")
    return buf[4 : 4 + length]
