"""Property tests: the parsers and the CLI on damaged key and ciphertext files.

Inputs are valid toy files of both variants with random bytes substituted,
truncations, bit flips and header-field edits.  A parser must return a key
or ciphertext or raise FormatError/ValueError; the CLI must exit with one
of its documented codes and print no traceback.
"""

import contextlib
import functools
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gabkron import keyio, scheme  # noqa: E402
from gabkron.cli import main  # noqa: E402
from gabkron.params import setup  # noqa: E402
from gabkron.prng import SeededRng  # noqa: E402

TOY = {
    "improved": dict(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
                     t=1, t1=1, lam=3, lam_p=2),
    "repaired": dict(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2),
}
MESSAGE = b"toy"
HEADER_LEN = 4 + 2 + 13 * 4


@functools.lru_cache(maxsize=None)
def toy_files(variant):
    p = setup(**TOY[variant])
    kp = scheme.keygen(p, SeededRng(b"property-keys-" + variant.encode()))
    vals = keyio.pack_message(MESSAGE, p)
    ct = scheme.encrypt(vals, kp.pk, p, SeededRng(b"property-ct"))
    return {
        "pk": keyio.serialize_public_key(kp.pk),
        "sk": keyio.serialize_secret_key(kp.sk),
        "ct": keyio.serialize_ciphertext(ct),
    }


def mutate(data, mutation):
    kind, a, b = mutation
    if kind == "random":
        return a
    if kind == "truncate":
        return data[: a % len(data)]
    if kind == "flip":
        out = bytearray(data)
        for bit in a:
            bit %= 8 * len(out)
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "byte":  # magic, version or variant tag
        out = bytearray(data)
        out[a] = b
        return bytes(out)
    off = 6 + 4 * a  # one of the thirteen 32-bit parameter fields
    return data[:off] + b.to_bytes(4, "big") + data[off + 4 :]


MUTATIONS = st.one_of(
    st.tuples(st.just("random"), st.binary(max_size=2 * HEADER_LEN), st.none()),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("flip"), st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
              st.none()),
    st.tuples(st.just("byte"), st.integers(0, 5), st.integers(0, 255)),
    st.tuples(st.just("field"), st.integers(0, 12),
              st.one_of(st.integers(0, 600), st.integers(0, 2**32 - 1))),
)
TARGETS = st.tuples(st.sampled_from(sorted(TOY)), st.sampled_from(["pk", "sk", "ct"]))

PARSERS = {
    "pk": (keyio.parse_public_key, scheme.PublicKey),
    "sk": (keyio.parse_secret_key, (scheme.ImprovedSecretKey, scheme.RepairedSecretKey)),
    "ct": (keyio.parse_ciphertext, scheme.Ciphertext),
}


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(target=TARGETS, mutation=MUTATIONS)
def test_parsers_return_or_raise_documented_errors(target, mutation):
    variant, kind = target
    parse, result_type = PARSERS[kind]
    data = mutate(toy_files(variant)[kind], mutation)
    try:
        obj = parse(data)
    except (keyio.FormatError, ValueError):
        return
    assert isinstance(obj, result_type)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(target=TARGETS, mutation=MUTATIONS)
def test_cli_exit_codes_on_damaged_files(target, mutation):
    variant, kind = target
    files = dict(toy_files(variant))
    files[kind] = mutate(files[kind], mutation)
    with tempfile.TemporaryDirectory() as d:
        for name, data in list(files.items()) + [("msg", MESSAGE)]:
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(data)
        path = functools.partial(os.path.join, d)
        if kind == "pk":
            argv = ["encrypt", "--pk", path("pk"), "--in", path("msg"),
                    "--out", path("out"), "--seed", "00" * 32]
        else:
            argv = ["decrypt", "--sk", path("sk"), "--in", path("ct"), "--out", path("out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
