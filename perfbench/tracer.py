"""Spans and counts recorded from outside the program, and the per-layer
metrics derived from them.

`instrument(tracer)` wraps the public functions and methods named in
SPANS and COUNTS wherever their callers look them up: a module-level
function is replaced in every `gabkron` module that bound it by import
(``scheme`` calls ``scheme.circulant_block_invert``), a method on its
class together with any alias in the class body.  Spans measure time;
counted functions (field arithmetic, the packed-row kernel) are only
counted, because a decrypt makes tens of thousands of such calls.

Every event is keyed by the nearest enclosing span, so retry counts come
from where the work happens: construct_P attempts are the invert calls
whose parent span is construct_P.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (span name, module, attribute path); one name may cover several functions
SPANS = [
    ("cli.main", "cli", "main"),
    ("keyio.parse_public_key", "keyio", "parse_public_key"),
    ("keyio.parse_secret_key", "keyio", "parse_secret_key"),
    ("keyio.parse_ciphertext", "keyio", "parse_ciphertext"),
    ("keyio.serialize_public_key", "keyio", "serialize_public_key"),
    ("keyio.serialize_secret_key", "keyio", "serialize_secret_key"),
    ("keyio.serialize_ciphertext", "keyio", "serialize_ciphertext"),
    ("keyio.pack_message", "keyio", "pack_message"),
    ("keyio.unpack_message", "keyio", "unpack_message"),
    ("params.setup", "params", "setup"),
    ("scheme.keygen", "scheme", "keygen"),
    ("scheme.construct_X", "scheme", "construct_X"),
    ("scheme.construct_P", "scheme", "construct_P"),
    ("scheme.decrypter_build", "scheme", "ImprovedSecretKey.decrypter"),
    ("scheme.decrypter_build", "scheme", "RepairedSecretKey.decrypter"),
    ("scheme.encrypt", "scheme", "encrypt"),
    ("scheme.sample_rank_error", "scheme", "sample_rank_error"),
    ("scheme.decrypt", "scheme", "decrypt"),
    ("gabcodes.block_decode", "gabcodes", "KroneckerCode.block_decode"),
    ("gabcodes.GabidulinCode.init", "gabcodes", "GabidulinCode.__init__"),
    ("gabcodes.KroneckerCode.init", "gabcodes", "KroneckerCode.__init__"),
    ("gabcodes.from_normal_orbit", "gabcodes", "from_normal_orbit"),
    ("ranklinalg.RankMatrix.mul", "ranklinalg", "RankMatrix.mul"),
    ("ranklinalg.RankMatrix.invert", "ranklinalg", "RankMatrix.invert"),
    ("ranklinalg.RankMatrix.init", "ranklinalg", "RankMatrix.__init__"),
    ("ranklinalg.circulant_block_invert", "ranklinalg", "circulant_block_invert"),
    ("ranklinalg.circulant_inverse", "ranklinalg", "circulant_inverse"),
    ("ranklinalg.circulant", "ranklinalg", "circulant"),
    ("ranklinalg.is_partial_circulant_block", "ranklinalg", "is_partial_circulant_block"),
    ("ranklinalg.column_rank_q", "ranklinalg", "column_rank_q"),
    ("gf2m.find_normal_element", "gf2m", "FieldCtx.find_normal_element"),
    ("audit.key_sizes", "audit", "key_sizes"),
] + [
    ("prng", "prng", f"SeededRng.{meth}")
    for meth in ("u64", "bits", "element", "nonzero_element", "bytes", "randrange", "sample")
]

COUNTS = [
    ("ranklinalg.kernel.scal", "ranklinalg", "_Packed.scal"),
    ("ranklinalg.kernel.fold", "ranklinalg", "_Packed.fold"),
    ("ranklinalg.kernel.rref", "ranklinalg", "_rref_packed"),
    ("gf2m.mul", "gf2m", "FieldCtx.mul"),
    ("gf2m.sqr", "gf2m", "FieldCtx.sqr"),
    ("gf2m.sqrt", "gf2m", "FieldCtx.sqrt"),
    ("gf2m.inv", "gf2m", "FieldCtx.inv"),
    ("gf2m.is_normal", "gf2m", "FieldCtx.is_normal"),
    ("gabcodes.syndromes", "gabcodes", "GabidulinCode.syndromes"),
]

# spans whose first argument is the bytes being parsed
_PARSERS = ("keyio.parse_public_key", "keyio.parse_secret_key", "keyio.parse_ciphertext")


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Span stack with per-name self and total time, and parent-keyed counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[_Frame] = []
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.events: dict[tuple, int] = {}  # (parent span or None, name) -> calls
        self.errors: dict[str, int] = {}  # span name -> exceptions raised through it
        self.parsed_bytes = 0

    def count(self, name):
        key = (self._stack[-1].name if self._stack else None, name)
        self.events[key] = self.events.get(key, 0) + 1

    def enter(self, name):
        self.count(name)
        self._stack.append(_Frame(name, self.clock()))

    def exit(self, failed=False):
        frame = self._stack.pop()
        dur = self.clock() - frame.start
        name = frame.name
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if failed:
            self.errors[name] = self.errors.get(name, 0) + 1
        if self._stack:
            self._stack[-1].child += dur

    def snapshot(self) -> "Snapshot":
        return Snapshot(dict(self.self_s), dict(self.total_s), dict(self.events),
                        dict(self.errors), self.parsed_bytes)


class Snapshot:
    """Frozen tracer totals; `b - a` gives the events between two snapshots."""

    def __init__(self, self_s, total_s, events, errors, parsed_bytes):
        self.self_s = self_s
        self.total_s = total_s
        self.events = events
        self.errors = errors
        self.parsed_bytes = parsed_bytes

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        def diff(a, b):
            return {k: v - b.get(k, 0) for k, v in a.items()}

        return Snapshot(diff(self.self_s, other.self_s), diff(self.total_s, other.total_s),
                        diff(self.events, other.events), diff(self.errors, other.errors),
                        self.parsed_bytes - other.parsed_bytes)

    def calls(self, name) -> int:
        return sum(v for (_, n), v in self.events.items() if n == name)

    def calls_under(self, parent, name) -> int:
        return self.events.get((parent, name), 0)

    def self_ms(self, *names) -> float:
        return 1000.0 * sum(self.self_s.get(n, 0.0) for n in names)

    def spanned_s(self) -> float:
        """Time inside any span: the sum of every span's self time."""
        return sum(self.self_s.values())


# ---------------------------------------------------------------------------
# patching


def _span_wrapper(tracer, name, fn):
    parser = name in _PARSERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if parser:
            tracer.parsed_bytes += len(args[0])
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(failed=True)
            raise
        tracer.exit()
        return result
    return wrapper


def _count_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span and count wrappers on the gabkron package; undo on exit."""
    modules = {n: importlib.import_module(f"gabkron.{n}") for n in
               ("audit", "cli", "gabcodes", "gf2m", "keyio", "params", "prng",
                "ranklinalg", "scheme")}
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for table, make in ((SPANS, _span_wrapper), (COUNTS, _count_wrapper)):
            for name, mod, path in table:
                owner = modules[mod]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                new = make(tracer, name, orig)
                # a method's aliases sit in its class; a function's in every
                # module that imported it by name
                for where in [owner] if cls_path else modules.values():
                    for alias in [a for a, v in vars(where).items() if v is orig]:
                        replace(where, alias, new)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(loop: Snapshot, counted: Snapshot, since_start: Snapshot,
                  verified: int, counted_verified: int, params) -> dict:
    """Per-layer metrics of one traced run.

    loop: every event of the timed loop; its times are divided by `verified`.
    counted: the fixed first operations of the loop, whose counts repeat
    exactly under a fixed seed; divided by `counted_verified`.
    since_start: set-up plus those operations, for per-keygen counts.
    """
    def per_msg(value):
        return value / verified if verified else 0.0

    def per_counted(value):
        return value / counted_verified if counted_verified else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(*names):
        return per_msg(loop.self_ms(*names))

    keygens = since_start.calls("scheme.keygen")
    decrypts = counted.calls("scheme.decrypt")
    blocks_tried = counted.calls("gabcodes.syndromes")
    x_calls = since_start.calls("scheme.construct_X")
    x_blocks = x_calls * (params.k1 if params.variant == "improved" else 1)
    parse_s = sum(loop.total_s.get(n, 0.0) for n in _PARSERS)
    out = {
        "cli.main.self_ms": ms("cli.main"),
        "keyio.parse_public_key.ms": ms("keyio.parse_public_key"),
        "keyio.parse_secret_key.ms": ms("keyio.parse_secret_key"),
        "keyio.serialize_public_key.ms": ms("keyio.serialize_public_key"),
        "keyio.serialize_secret_key.ms": ms("keyio.serialize_secret_key"),
        "keyio.ciphertext_io.ms": ms("keyio.serialize_ciphertext", "keyio.parse_ciphertext"),
        "keyio.message_io.ms": ms("keyio.pack_message", "keyio.unpack_message"),
        "keyio.parse_bytes_per_s": ratio(loop.parsed_bytes, parse_s),
        "params.setup.ms": ms("params.setup"),
        "params.setup.calls": per_counted(counted.calls("params.setup")),
        "scheme.keygen.self_ms": ms("scheme.keygen"),
        "scheme.construct_X.ms": ms("scheme.construct_X"),
        "scheme.construct_P.ms": ms("scheme.construct_P"),
        "scheme.construct_P.attempts_per_key": ratio(
            since_start.calls_under("scheme.construct_P", "ranklinalg.circulant_block_invert")
            + since_start.calls_under("scheme.construct_P", "ranklinalg.circulant_inverse"),
            keygens),
        "scheme.construct_X.attempts_per_block": ratio(
            since_start.calls_under("scheme.construct_X", "ranklinalg.column_rank_q"), x_blocks),
        "scheme.keygen.systematic_attempts_per_key": ratio(
            since_start.calls_under("scheme.keygen", "scheme.construct_X"), keygens),
        "scheme.decrypter_build.ms": ms("scheme.decrypter_build"),
        "scheme.encrypt.self_ms": ms("scheme.encrypt"),
        "scheme.sample_rank_error.ms": ms("scheme.sample_rank_error"),
        "scheme.decrypt.self_ms": ms("scheme.decrypt"),
        "gabcodes.block_decode.ms": ms("gabcodes.block_decode"),
        "gabcodes.blocks_per_decrypt": ratio(blocks_tried, decrypts),
        "gabcodes.block_decode.useful_ratio": ratio(
            params.k1 * counted.calls("gabcodes.block_decode"), blocks_tried),
        "gabcodes.decode_failures": float(counted.errors.get("gabcodes.block_decode", 0)),
        "gabcodes.GabidulinCode.init.ms": ms("gabcodes.GabidulinCode.init"),
        "gabcodes.KroneckerCode.init.ms": ms("gabcodes.KroneckerCode.init"),
        "gabcodes.from_normal_orbit.ms": ms("gabcodes.from_normal_orbit"),
        "ranklinalg.RankMatrix.mul.ms": ms("ranklinalg.RankMatrix.mul"),
        "ranklinalg.RankMatrix.mul.calls": per_counted(counted.calls("ranklinalg.RankMatrix.mul")),
        "ranklinalg.RankMatrix.invert.ms": ms("ranklinalg.RankMatrix.invert"),
        "ranklinalg.circulant_block_invert.ms": ms("ranklinalg.circulant_block_invert"),
        "ranklinalg.circulant_inverse.ms": ms("ranklinalg.circulant_inverse"),
        "ranklinalg.circulant.ms": ms("ranklinalg.circulant"),
        "ranklinalg.is_partial_circulant_block.ms": ms("ranklinalg.is_partial_circulant_block"),
        "ranklinalg.column_rank_q.ms": ms("ranklinalg.column_rank_q"),
        "ranklinalg.RankMatrix.init.ms": ms("ranklinalg.RankMatrix.init"),
        "ranklinalg.RankMatrix.init.calls": per_counted(counted.calls("ranklinalg.RankMatrix.init")),
        "ranklinalg.kernel.scal.calls": per_counted(counted.calls("ranklinalg.kernel.scal")),
        "ranklinalg.kernel.fold.calls": per_counted(counted.calls("ranklinalg.kernel.fold")),
        "ranklinalg.kernel.rref.calls": per_counted(counted.calls("ranklinalg.kernel.rref")),
        "gf2m.mul.calls": per_counted(counted.calls("gf2m.mul")),
        "gf2m.sqr.calls": per_counted(counted.calls("gf2m.sqr")),
        "gf2m.sqrt.calls": per_counted(counted.calls("gf2m.sqrt")),
        "gf2m.inv.calls": per_counted(counted.calls("gf2m.inv")),
        "gf2m.find_normal_element.ms": ms("gf2m.find_normal_element"),
        "gf2m.is_normal.calls_per_key": ratio(
            since_start.calls_under("gf2m.find_normal_element", "gf2m.is_normal"), keygens),
        "prng.ms": ms("prng"),
        "prng.draws": per_counted(counted.calls("prng")),
        "audit.key_sizes.ms": ms("audit.key_sizes"),
    }
    return out
