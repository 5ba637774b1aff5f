import json
import os
import subprocess
import sys

import pytest

from gabkron import keyio, scheme
from gabkron.cli import main
from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector

from conftest import inconsistent_secret_key, secret_key_v1

SEED = "ab" * 32
SET = "new-gabkron-128"


@pytest.fixture(scope="module")
def keydir(tmp_path_factory):
    d = tmp_path_factory.mktemp("keys")
    rc = main([
        "keygen", "--set", SET, "--seed", SEED,
        "--pk", str(d / "pk.bin"), "--sk", str(d / "sk.bin"),
    ])
    assert rc == 0
    return d


def test_keygen_deterministic(keydir, tmp_path):
    rc = main([
        "keygen", "--set", SET, "--seed", SEED,
        "--pk", str(tmp_path / "pk2.bin"), "--sk", str(tmp_path / "sk2.bin"),
    ])
    assert rc == 0
    assert (tmp_path / "pk2.bin").read_bytes() == (keydir / "pk.bin").read_bytes()
    assert (tmp_path / "sk2.bin").read_bytes() == (keydir / "sk.bin").read_bytes()


def test_pk_file_size_matches_published_table(keydir):
    header = 4 + 2 + 13 * 4
    assert (keydir / "pk.bin").stat().st_size == header + 4050


def test_keygen_rejects_original_set(tmp_path, capsys):
    rc = main([
        "keygen", "--set", "gabkron-128-original",
        "--pk", str(tmp_path / "pk"), "--sk", str(tmp_path / "sk"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "t <= floor((n2-k2)/(2*lambda))" in err
    assert "bound=2" in err


def test_encrypt_decrypt_round_trip(keydir, tmp_path):
    msg = bytes(range(256)) + b"round trip payload"
    (tmp_path / "msg.bin").write_bytes(msg)
    rc = main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "ct.bin"),
        "--seed", SEED,
    ])
    assert rc == 0
    rc = main([
        "decrypt", "--sk", str(keydir / "sk.bin"),
        "--in", str(tmp_path / "ct.bin"), "--out", str(tmp_path / "out.bin"),
    ])
    assert rc == 0
    assert (tmp_path / "out.bin").read_bytes() == msg


def test_encrypt_deterministic(keydir, tmp_path):
    (tmp_path / "m").write_bytes(b"same bytes")
    for name in ("c1", "c2"):
        assert main([
            "encrypt", "--pk", str(keydir / "pk.bin"),
            "--in", str(tmp_path / "m"), "--out", str(tmp_path / name),
            "--seed", SEED,
        ]) == 0
    assert (tmp_path / "c1").read_bytes() == (tmp_path / "c2").read_bytes()


def test_full_capacity_message(keydir, tmp_path):
    pk = keyio.parse_public_key((keydir / "pk.bin").read_bytes())
    cap = keyio.message_capacity(pk.params)
    msg = bytes(i % 251 for i in range(cap))
    (tmp_path / "m").write_bytes(msg)
    assert main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"),
        "--seed", SEED,
    ]) == 0
    assert main([
        "decrypt", "--sk", str(keydir / "sk.bin"),
        "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
    ]) == 0
    assert (tmp_path / "o").read_bytes() == msg


def test_oversized_message_rejected(keydir, tmp_path, capsys):
    pk = keyio.parse_public_key((keydir / "pk.bin").read_bytes())
    (tmp_path / "m").write_bytes(bytes(keyio.message_capacity(pk.params) + 1))
    rc = main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"),
    ])
    assert rc == 4


def test_truncated_ciphertext_is_parse_error(keydir, tmp_path):
    (tmp_path / "trunc").write_bytes(b"GKPC" + b"\x00" * 10)
    rc = main([
        "decrypt", "--sk", str(keydir / "sk.bin"),
        "--in", str(tmp_path / "trunc"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4


def test_non_normal_alpha_is_parse_error(keydir, tmp_path, capsys):
    # alpha = 1 has a one-element Frobenius orbit: never a normal basis
    data = (keydir / "sk.bin").read_bytes()
    header = 4 + 2 + 13 * 4
    m = keyio.parse_secret_key(data).params.m
    payload = int.from_bytes(data[header:], "little")
    payload = (payload >> m << m) | 1
    (tmp_path / "bad_sk").write_bytes(
        data[:header] + payload.to_bytes(len(data) - header, "little")
    )
    (tmp_path / "m").write_bytes(b"x")
    assert main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"), "--seed", SEED,
    ]) == 0
    rc = main([
        "decrypt", "--sk", str(tmp_path / "bad_sk"),
        "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert "normal" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _decrypt_with_bad_key(sk, pk, tmp_path, capsys):
    """CLI decrypt of a valid ciphertext under an inconsistent secret key."""
    (tmp_path / "pk").write_bytes(keyio.serialize_public_key(pk))
    (tmp_path / "sk").write_bytes(keyio.serialize_secret_key(sk))
    (tmp_path / "m").write_bytes(b"x")
    assert main([
        "encrypt", "--pk", str(tmp_path / "pk"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"), "--seed", SEED,
    ]) == 0
    rc = main([
        "decrypt", "--sk", str(tmp_path / "sk"),
        "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert "bad input file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rank_deficient_g1_improved_is_parse_error(keydir, tmp_path, capsys):
    sk = keyio.parse_secret_key((keydir / "sk.bin").read_bytes())
    pk = keyio.parse_public_key((keydir / "pk.bin").read_bytes())
    _decrypt_with_bad_key(inconsistent_secret_key(sk, "G1"), pk, tmp_path, capsys)


def test_singular_p_improved_is_parse_error(keydir, tmp_path, capsys):
    # c P = 0 would decode to the empty message: it must not get that far
    sk = keyio.parse_secret_key((keydir / "sk.bin").read_bytes())
    pk = keyio.parse_public_key((keydir / "pk.bin").read_bytes())
    _decrypt_with_bad_key(inconsistent_secret_key(sk, "P"), pk, tmp_path, capsys)


@pytest.fixture(scope="module")
def toy_repaired_kp():
    p = setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)
    return scheme.keygen(p, SeededRng(b"cli-repaired"))


@pytest.mark.parametrize("field", ["z0", "g2", "g2-orbit", "G1", "P"])
def test_inconsistent_repaired_key_is_parse_error(toy_repaired_kp, field, tmp_path, capsys):
    kp = toy_repaired_kp
    _decrypt_with_bad_key(inconsistent_secret_key(kp.sk, field), kp.pk, tmp_path, capsys)


@pytest.mark.parametrize("fields", [
    dict(m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2),
    # k^2 = t1: S and z_0 have one length, so only the version tells them apart
    dict(m=32, n1=2, k1=2, n2=16, k2=1, t1=4, lam=2),
])
def test_version_1_repaired_secret_key_is_exit_4(fields, tmp_path, capsys):
    # a key file that holds S in place of z_0 is refused by its version
    p = setup(variant="repaired", **fields)
    kp = scheme.keygen(p, SeededRng(b"cli-version-1"))
    v1 = secret_key_v1(kp.sk)
    assert (len(v1) == len(keyio.serialize_secret_key(kp.sk))) == (p.k ** 2 == p.t1)
    ct = scheme.encrypt(keyio.pack_message(b"v1", p), kp.pk, p, SeededRng(b"cli-v1-e"))
    (tmp_path / "sk.bin").write_bytes(v1)
    (tmp_path / "ct.bin").write_bytes(keyio.serialize_ciphertext(ct))
    rc = main([
        "decrypt", "--sk", str(tmp_path / "sk.bin"),
        "--in", str(tmp_path / "ct.bin"), "--out", str(tmp_path / "out.bin"),
    ])
    assert rc == 4
    assert "unsupported version 1 (expected 2)" in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


def test_repaired_files_with_lambda_prime_are_parse_errors(toy_repaired_kp, tmp_path, capsys):
    # lambda' = 3 in the header of a repaired public key and of a ciphertext
    kp = toy_repaired_kp
    p = kp.pk.params
    lam_p = slice(6 + 11 * 4, 10 + 11 * 4)

    def patched(blob):
        blob = bytearray(blob)
        assert blob[lam_p] == bytes(4)
        blob[lam_p] = (3).to_bytes(4, "big")
        return bytes(blob)

    ct = scheme.encrypt([0] * p.k, kp.pk, p, SeededRng(b"cli-lam-p"))
    for name, blob in (("pk.bin", patched(keyio.serialize_public_key(kp.pk))),
                       ("sk.bin", keyio.serialize_secret_key(kp.sk)),
                       ("ct.bin", patched(keyio.serialize_ciphertext(ct))),
                       ("msg.bin", b"hi")):
        (tmp_path / name).write_bytes(blob)
    rc = main([
        "encrypt", "--pk", str(tmp_path / "pk.bin"),
        "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "ct2.bin"),
    ])
    assert rc == 4
    assert "bad public key" in capsys.readouterr().err
    rc = main([
        "decrypt", "--sk", str(tmp_path / "sk.bin"),
        "--in", str(tmp_path / "ct.bin"), "--out", str(tmp_path / "out.bin"),
    ])
    assert rc == 4
    assert "bad input file" in capsys.readouterr().err
    assert not (tmp_path / "ct2.bin").exists() and not (tmp_path / "out.bin").exists()


def test_missing_input_file(keydir, tmp_path):
    rc = main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "c"),
    ])
    assert rc == 4


def test_wrong_key_kind_rejected(keydir, tmp_path):
    # feeding the secret key where the public key belongs fails on length
    (tmp_path / "m").write_bytes(b"x")
    rc = main([
        "encrypt", "--pk", str(keydir / "sk.bin"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"),
    ])
    assert rc == 4


def test_mismatched_secret_key(keydir, tmp_path):
    # decrypting with an unrelated secret key must not pretend to succeed
    other = "cd" * 32
    rc = main([
        "keygen", "--set", SET, "--seed", other,
        "--pk", str(tmp_path / "pk2"), "--sk", str(tmp_path / "sk2"),
    ])
    assert rc == 0
    msg = b"who am I for"
    (tmp_path / "m").write_bytes(msg)
    assert main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"),
        "--seed", SEED,
    ]) == 0
    rc = main([
        "decrypt", "--sk", str(tmp_path / "sk2"),
        "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
    ])
    if rc == 0:
        assert (tmp_path / "o").read_bytes() != msg
    else:
        assert rc == 3


def test_ciphertext_of_another_set_is_refused(keydir, tmp_path, capsys):
    # a ciphertext whose header claims t = 1 under the key's set, and one of
    # another set: scheme.decrypt refuses both, which the CLI reports as 4
    (tmp_path / "m").write_bytes(b"weak")
    assert main([
        "encrypt", "--pk", str(keydir / "pk.bin"),
        "--in", str(tmp_path / "m"), "--out", str(tmp_path / "c"), "--seed", SEED,
    ]) == 0
    weak = bytearray((tmp_path / "c").read_bytes())
    weak[6 + 4 * 7 : 10 + 4 * 7] = (1).to_bytes(4, "big")  # header field t
    p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
              t=1, t1=1, lam=3, lam_p=2)
    kp = scheme.keygen(p, SeededRng(b"cli-other-set"))
    other = scheme.encrypt([0] * p.k, kp.pk, p, SeededRng(b"cli-other-set-enc"))
    for blob in (bytes(weak), keyio.serialize_ciphertext(other)):
        (tmp_path / "ct").write_bytes(blob)
        rc = main([
            "decrypt", "--sk", str(keydir / "sk.bin"),
            "--in", str(tmp_path / "ct"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 4
        assert capsys.readouterr().err == "error: ciphertext and key parameter sets differ\n"
        assert not (tmp_path / "o").exists()


def test_undecodable_ciphertext_names_its_failed_blocks(keydir, tmp_path, capsys):
    # a body of random elements lies past t2 in both blocks: exit 3, and the
    # message lists the failed blocks
    p = setup(SET)
    noise = RankVector.random(FieldCtx(p.m), p.n, SeededRng(b"cli-noise"))
    (tmp_path / "c").write_bytes(keyio.serialize_ciphertext(scheme.Ciphertext(p, noise)))
    rc = main([
        "decrypt", "--sk", str(keydir / "sk.bin"),
        "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: decryption failed (blocks [0, 1]): no information set of decoded "
        "blocks agrees with the others (failed blocks: [0, 1])\n")
    assert not (tmp_path / "o").exists()


def test_rank_check_refusal_names_no_blocks(toy_repaired_kp, tmp_path, capsys):
    # an error of rank t + 1 on m = 0 decodes in every block, within
    # lam (t + 1) <= t2, and only the check rk(c - m G_pub) <= t refuses it:
    # no block failed, so the message lists none
    kp = toy_repaired_kp
    p = kp.pk.params
    assert p.lam * (p.t + 1) <= p.t2
    e = scheme.sample_rank_error(FieldCtx(p.m), p.n, p.t + 1, SeededRng(b"cli-rank-above-t"))
    (tmp_path / "sk").write_bytes(keyio.serialize_secret_key(kp.sk))
    (tmp_path / "c").write_bytes(keyio.serialize_ciphertext(scheme.Ciphertext(p, e)))
    rc = main([
        "decrypt", "--sk", str(tmp_path / "sk"),
        "--in", str(tmp_path / "c"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: decryption failed: c - m G_pub has rank {p.t + 1} > t = {p.t}\n")
    assert not (tmp_path / "o").exists()


def test_audit_all_passes(capsys):
    assert main(["audit", "--all"]) == 0
    out = capsys.readouterr().out
    assert "match=True" in out
    assert "match=False" not in out


def test_audit_json_report(tmp_path, capsys):
    rc = main([
        "audit", "--all", "--format", "json", "--out", str(tmp_path / "rep.json"),
    ])
    assert rc == 0
    data = json.loads((tmp_path / "rep.json").read_text())
    assert all(row["match"] for row in data["tables"])


def test_audit_prop1(capsys):
    rc = main(["audit", "--prop1", "--trials", "10", "--seed", SEED])
    assert rc == 0
    out = capsys.readouterr().out
    assert "prop1.circulant_s_found=0" in out


def test_audit_lemmas(capsys):
    rc = main(["audit", "--lemmas", "--trials", "10", "--seed", SEED])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lemmas" in out


def test_bad_seed_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["keygen", "--set", SET, "--seed", "zz", "--pk", "p", "--sk", "s"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--trials", "-3", "--lemmas"], ["--trials", "0", "--prop1"]])
def test_audit_trials_below_one_rejected(argv, capsys):
    # both used to run: -3 reported a mismatch, 0 passed after checking nothing
    with pytest.raises(SystemExit) as exc:
        main(["audit"] + argv)
    assert exc.value.code == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gabkron.cli", "audit", "--all"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def test_closed_stdout_is_an_io_error_after_the_report_file(tmp_path):
    # as in `gabkron audit --all | head -1`, but the reader is gone before
    # the report is printed: the --out file is written first, and the
    # closed pipe is one error line and exit 4, not a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "rep.txt"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gabkron.cli", "audit", "--all", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == "error: standard output was closed\n"
    report = out.read_text()
    assert "match=True" in report and "match=False" not in report
