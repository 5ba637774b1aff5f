"""Command-line front end: keygen, encrypt, decrypt, audit.

Every command is deterministic under --seed (32 hex-encoded bytes) and
falls back to OS entropy without it.  Exit codes: 0 ok, 2 parameter
violation, 3 decode failure, 4 I/O or parse error, 5 audit mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import audit, keyio, scheme
from .gabcodes import DecodeFailure
from .params import ParameterError, setup
from .prng import SeededRng, SystemRng

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_DECODE = 3
EXIT_IO = 4
EXIT_AUDIT = 5

# shape of the original design at demonstration scale; fast per trial
_PROP1_TOY = dict(variant="repaired", m=16, n1=2, n2=8, k1=2, k2=2, t1=1, lam=2)


def _seed_type(text: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed is not hex: {exc}") from exc
    if len(raw) != 32:
        raise argparse.ArgumentTypeError("seed must be 32 hex-encoded bytes")
    return raw


def _trials_type(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"trials is not an integer: {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError("trials must be at least 1")
    return n


def _rng(args):
    return SeededRng(args.seed) if args.seed is not None else SystemRng()


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _write(path: str, data: bytes):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(report: dict, fmt: str, out_path: str | None):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        lines = []

        def flatten(prefix, obj):
            if isinstance(obj, dict):
                for key in sorted(obj):
                    flatten(f"{prefix}.{key}" if prefix else str(key), obj[key])
            elif isinstance(obj, (list, tuple)):
                for i, item in enumerate(obj):
                    flatten(f"{prefix}[{i}]", item)
            else:
                lines.append(f"{prefix}={obj}")

        flatten("", report)
        text = "\n".join(lines)
    print(text)
    if out_path:
        _write(out_path, text.encode() + b"\n")


def cmd_keygen(args) -> int:
    p = setup(args.set)  # main turns a ParameterError into EXIT_PARAMS
    kp = scheme.keygen(p, _rng(args))
    _write(args.pk, keyio.serialize_public_key(kp.pk))
    _write(args.sk, keyio.serialize_secret_key(kp.sk))
    rep = audit.key_sizes(p, p.variant, name=p.name or args.set)
    _emit(rep.as_dict(), args.format, None)
    return EXIT_OK


def cmd_encrypt(args) -> int:
    data = _read(args.pk)
    try:
        pk = keyio.parse_public_key(data)
    except (keyio.FormatError, ValueError) as exc:
        print(f"error: bad public key: {exc}", file=sys.stderr)
        return EXIT_IO
    p = pk.params
    msg = _read(args.infile)
    try:
        vals = keyio.pack_message(msg, p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    ct = scheme.encrypt(vals, pk, p, _rng(args))
    _write(args.out, keyio.serialize_ciphertext(ct))
    return EXIT_OK


def cmd_decrypt(args) -> int:
    try:
        sk = keyio.parse_secret_key(_read(args.sk))
        ct = keyio.parse_ciphertext(_read(args.infile))
    except (keyio.FormatError, ValueError) as exc:
        print(f"error: bad input file: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        m = scheme.decrypt(ct, sk, sk.params)
    except ValueError as exc:  # a parameter set that is not the key's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DecodeFailure as exc:
        print(
            f"error: decryption failed (blocks {exc.failed_blocks}): {exc}",
            file=sys.stderr,
        )
        return EXIT_DECODE
    try:
        data = keyio.unpack_message(m.values, sk.params)
    except keyio.FormatError as exc:
        print(f"error: recovered padding is invalid: {exc}", file=sys.stderr)
        return EXIT_DECODE
    _write(args.out, data)
    return EXIT_OK


def cmd_audit(args) -> int:
    run_all = args.all or not (args.prop1 or args.lemmas)
    report: dict = {}
    failed = False
    if run_all:
        rows, mismatches = audit.reproduce_tables()
        report["tables"] = rows
        if mismatches:
            report["mismatches"] = mismatches
            failed = True
    if args.prop1:
        p = setup(**_PROP1_TOY)
        rep = audit.demonstrate_original_flaw(p, _rng(args), args.trials)
        report["prop1"] = dataclasses.asdict(rep)
        if rep.circulant_s_found:
            failed = True
    if args.lemmas:
        rep = audit.verify_structure_lemmas(_rng(args), trials=args.trials)
        report["lemmas"] = rep.as_dict()
        if not rep.all_passed:
            failed = True
    _emit(report, args.format, args.out)
    return EXIT_AUDIT if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gabkron",
        description="Gabidulin-Kronecker product code encryption tool",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--set", required=True, help="named parameter set")
    kg.add_argument("--seed", type=_seed_type, help="32 hex-encoded bytes")
    kg.add_argument("--pk", required=True, help="public key output path")
    kg.add_argument("--sk", required=True, help="secret key output path")
    kg.add_argument("--format", choices=("text", "json"), default="text")
    kg.set_defaults(func=cmd_keygen)

    en = sub.add_parser("encrypt", help="encrypt a message file")
    en.add_argument("--pk", required=True, help="public key path")
    en.add_argument("--in", dest="infile", required=True, help="message path")
    en.add_argument("--out", required=True, help="ciphertext output path")
    en.add_argument("--seed", type=_seed_type, help="32 hex-encoded bytes")
    en.set_defaults(func=cmd_encrypt)

    de = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    de.add_argument("--sk", required=True, help="secret key path")
    de.add_argument("--in", dest="infile", required=True, help="ciphertext path")
    de.add_argument("--out", required=True, help="plaintext output path")
    de.set_defaults(func=cmd_decrypt)

    au = sub.add_parser("audit", help="reproduce the published analysis")
    au.add_argument("--all", action="store_true", help="regenerate every table")
    au.add_argument("--prop1", action="store_true",
                    help="hunt for circulant scramblers over the original pipeline")
    au.add_argument("--lemmas", action="store_true", help="run the structure suites")
    au.add_argument("--trials", type=_trials_type, default=100)
    au.add_argument("--seed", type=_seed_type, help="32 hex-encoded bytes")
    au.add_argument("--format", choices=("text", "json"), default="text")
    au.add_argument("--out", help="also write the report to this path")
    au.set_defaults(func=cmd_audit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
