"""The benchmark's workloads and the closed loop that times them.

Each workload is one client in a closed loop: the next operation starts
only after the previous one returned.  Every key seed, `--seed` value and
message is derived from the workload seed, so a run repeats the same work
exactly, retries inside the randomized constructions included.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import os
import random
import resource
import shutil
import signal
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from gabkron import cli, keyio, params, scheme
from gabkron.prng import SeededRng

from tracer import Tracer, instrument, layer_metrics

# end-to-end metrics every workload reports and BENCHMARK.json gates, as
# (name, unit).  The `_ref` timings are in units of the reference kernel's
# time, measured next to each command (see HostSpeed).
E2E = [
    ("setup_s", "s"),
    ("encrypt_ref.p50", "ref"),
    ("decrypt_ref.p50", "ref"),
    ("op_ref.p50", "ref"),
    ("peak_rss_mb", "MB"),
]
# timed commands: raw metric name, unit and seconds-to-unit factor
COMMANDS = {"keygen": ("keygen_s", "s", 1.0), "encrypt": ("encrypt_ms", "ms", 1000.0),
            "decrypt": ("decrypt_ms", "ms", 1000.0)}

_MASK90 = (1 << 90) - 1


def _reference_kernel() -> int:
    """Fixed pure-Python work in the style of the field arithmetic: windowed
    carry-less products of 90-bit integers, reduced.  It calls no gabkron
    code, so its time follows the host's speed and not the program's."""
    a = 0x2F3A5B7C9D1E2F3A5B7C9D1
    for i in range(500):  # about 2.5 ms on an idle core
        b = (a * 0x9E3779B97F4A7C15 + i) & _MASK90
        t2, t4, t8 = a << 1, a << 2, a << 3
        tab = [0, a, t2, t2 ^ a, t4, t4 ^ a, t4 ^ t2, t4 ^ t2 ^ a]
        tab += [x ^ t8 for x in tab]
        r = sh = 0
        while b:
            r ^= tab[b & 15] << sh
            sh += 4
            b >>= 4
        hi = r >> 90
        while hi:
            r = (r & _MASK90) ^ (hi << 11) ^ (hi << 10) ^ hi
            hi = r >> 90
        a = r | 1
    return a


class HostSpeed:
    """Reference-kernel timings sampled all through a run.

    A shared host changes speed by up to 2x in phases of seconds to minutes,
    which moves every wall-clock statistic of a run.  While `sampling()` is
    active, a SIGALRM handler runs the kernel every INTERVAL seconds in the
    main thread, between bytecodes of whatever command is running.  A
    command's time, less the handler time inside it, divided by the mean
    kernel time over the command (and the samples either side) is its time
    in reference units, which the host's phase cancels out of.
    """

    INTERVAL = 0.1  # seconds between kernel samples

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds), in start order

    def probe(self, *_signal_args):
        t0 = time.perf_counter()
        _reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()  # a sample after the last command

    def _window(self, start: float, end: float):
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return lo, hi

    def net(self, start: float, end: float) -> float:
        """Seconds in [start, end] not spent in the sampling handler."""
        lo, hi = self._window(start, end)
        return (end - start) - sum(d for _, d in self.samples[lo:hi])

    def ratio(self, start: float, end: float) -> float:
        lo, hi = self._window(start, end)
        ref = [d for _, d in self.samples[max(lo - 1, 0):hi + 1]]
        return self.net(start, end) / (sum(ref) / len(ref))


def derive(seed: int, *labels) -> bytes:
    """32 bytes determined by the workload seed and a label path."""
    text = "/".join(["gabkron-bench", str(seed), *map(str, labels)])
    return hashlib.sha256(text.encode()).digest()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    ok: bool
    timings: dict = field(default_factory=dict)  # command -> (start, end) perf_counter
    files: dict = field(default_factory=dict)  # key and ciphertext files produced
    error: str | None = None


class SessionWorkload:
    """One key pair in memory; each operation is scheme.encrypt then
    scheme.decrypt of a random message, the library caller's traffic."""

    def __init__(self, name: str, set_name: str, count_ops: int):
        self.name = name
        self.set_name = set_name
        self.count_ops = count_ops

    def setup(self, seed: int, workdir: str):
        self.p = params.setup(self.set_name)
        kp = scheme.keygen(self.p, SeededRng(derive(seed, "key")))
        self.pk, self.sk = kp.pk, kp.sk
        res = self.op(seed, "warmup")
        if not res.ok:
            raise RuntimeError(f"warm-up cycle failed: {res.error}")

    def op(self, seed, i, tamper=None) -> OpResult:
        p = self.p
        rnd = random.Random(derive(seed, "msg", i))
        msg = [rnd.getrandbits(p.m) for _ in range(p.k)]
        timings, files = {}, {}
        try:
            t0 = time.perf_counter()
            ct = scheme.encrypt(msg, self.pk, p, SeededRng(derive(seed, "enc", i)))
            timings["encrypt"] = (t0, time.perf_counter())
            files["ct"] = ct
            if tamper is not None:
                ct = tamper(ct)
            t0 = time.perf_counter()
            out = scheme.decrypt(ct, self.sk, p)
            timings["decrypt"] = (t0, time.perf_counter())
        except Exception as exc:  # a failed operation counts; the run goes on
            return OpResult(False, timings, files, _describe(exc))
        if out.values != msg:
            return OpResult(False, timings, files, "wrong plaintext")
        return OpResult(True, timings, files)

    def key_files(self) -> dict:
        return {"pk": keyio.serialize_public_key(self.pk),
                "sk": keyio.serialize_secret_key(self.sk)}

    def file_bytes(self, files: dict) -> dict:
        return {k: keyio.serialize_ciphertext(v) for k, v in files.items()}


class CliWorkload:
    """In-process `gabkron` commands on files, the CLI user's session:
    encrypt then decrypt of a full-capacity message, optionally preceded
    by a keygen with a fresh seed on every cycle."""

    def __init__(self, name: str, set_name: str, keygen_per_op: bool, count_ops: int):
        self.name = name
        self.set_name = set_name
        self.keygen_per_op = keygen_per_op
        self.count_ops = count_ops

    def setup(self, seed: int, workdir: str):
        self.dir = workdir
        self.p = params.setup(self.set_name)
        self.capacity = keyio.message_capacity(self.p)
        self.keys = {}
        if not self.keygen_per_op:
            rc, _, err = self._keygen(seed, "key")
            if rc:
                raise RuntimeError(f"set-up keygen exited {rc}: {err}")
            self.keys = self._read_keys()
        res = self.op(seed, "warmup")
        if not res.ok:
            raise RuntimeError(f"warm-up cycle failed: {res.error}")

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, (t0, time.perf_counter()), err.getvalue().strip()

    def _keygen(self, seed, i):
        return self._cli(["keygen", "--set", self.set_name, "--seed", derive(seed, "key", i).hex(),
                          "--pk", self._path("pk.bin"), "--sk", self._path("sk.bin")])

    def _read_keys(self) -> dict:
        with open(self._path("pk.bin"), "rb") as fh:
            pk = fh.read()
        with open(self._path("sk.bin"), "rb") as fh:
            sk = fh.read()
        return {"pk": pk, "sk": sk}

    def op(self, seed, i, tamper=None) -> OpResult:
        timings, files = {}, {}
        try:
            if self.keygen_per_op:
                rc, timings["keygen"], err = self._keygen(seed, i)
                if rc:
                    return OpResult(False, timings, files, f"keygen exited {rc}: {err}")
                files.update(self._read_keys())
            msg = random.Random(derive(seed, "msg", i)).randbytes(self.capacity)
            msg_path, ct_path, out_path = map(self._path, ("msg.bin", "ct.bin", "out.bin"))
            with open(msg_path, "wb") as fh:
                fh.write(msg)
            rc, timings["encrypt"], err = self._cli(
                ["encrypt", "--pk", self._path("pk.bin"), "--in", msg_path, "--out", ct_path,
                 "--seed", derive(seed, "enc", i).hex()])
            if rc:
                return OpResult(False, timings, files, f"encrypt exited {rc}: {err}")
            with open(ct_path, "rb") as fh:
                files["ct"] = fh.read()
            if tamper is not None:
                with open(ct_path, "wb") as fh:
                    fh.write(tamper(files["ct"]))
            rc, timings["decrypt"], err = self._cli(
                ["decrypt", "--sk", self._path("sk.bin"), "--in", ct_path, "--out", out_path])
            if rc:
                return OpResult(False, timings, files, f"decrypt exited {rc}: {err}")
            with open(out_path, "rb") as fh:
                out = fh.read()
        except Exception as exc:  # a crashing command counts as a failure
            return OpResult(False, timings, files, _describe(exc))
        if out != msg:
            return OpResult(False, timings, files, "wrong plaintext")
        return OpResult(True, timings, files)

    def key_files(self) -> dict:
        return self.keys

    def file_bytes(self, files: dict) -> dict:
        return files


def _describe(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


WORKLOADS = {
    "session-new128": lambda: SessionWorkload("session-new128", "new-gabkron-128", count_ops=8),
    "cli-new128": lambda: CliWorkload("cli-new128", "new-gabkron-128", True, count_ops=2),
    "cli-rep128": lambda: CliWorkload("cli-rep128", "rep-gabkron-128", False, count_ops=2),
}


# ---------------------------------------------------------------------------
# the timed loop


def _key_identity_failures(files: dict) -> int:
    """Key files whose parse/serialize round trip does not reproduce them."""
    bad = 0
    for label, data in files.items():
        if label.split(".")[0] == "pk":
            again = keyio.serialize_public_key(keyio.parse_public_key(data))
        else:
            again = keyio.serialize_secret_key(keyio.parse_secret_key(data))
        bad += again != data
    return bad


def _stat(samples, unit):
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def run_workload(workload, seed: int, seconds: float, trace: bool, setups: int,
                 workdir_root: str | None = None, tamper=None) -> dict:
    """Set up `setups` times, then run operations for `seconds`, and for at
    least the workload's count window, and check every output.

    Returns the report: end-to-end metrics with their sample counts, the
    work fingerprint, exact counts, and with `trace` the per-layer metrics.
    `tamper(i, ciphertext)` corrupts operation i's ciphertext (tests only).
    """
    count_ops = workload.count_ops
    # a traced run records spans; an untraced one samples the host's speed
    tracer = Tracer() if trace else None
    host = None if trace else HostSpeed()
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir_root)
    try:
        with instrument(tracer) if trace else host.sampling():
            setup_times = []
            for _ in range(setups):
                t0 = time.perf_counter()
                workload.setup(seed, workdir)
                t1 = time.perf_counter()
                setup_times.append(host.net(t0, t1) if host else t1 - t0)
            snap_setup = tracer.snapshot() if trace else None
            snap_counted = snap_setup
            ops = []
            t_start = time.perf_counter()
            deadline = t_start + seconds
            while len(ops) < count_ops or time.perf_counter() < deadline:
                i = len(ops)
                hook = None if tamper is None else (lambda ct, i=i: tamper(i, ct))
                ops.append(workload.op(seed, i, hook))
                if trace and len(ops) == count_ops:
                    snap_counted = tracer.snapshot()
            loop_s = time.perf_counter() - t_start
            snap_end = tracer.snapshot() if trace else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_keys = workload.key_files()
        key_files = dict(setup_keys)
        op_prints = []
        for n, op in enumerate(ops):
            produced = workload.file_bytes(op.files)
            for label in ("pk", "sk"):
                if label in produced:
                    key_files[f"{label}.{n}"] = produced[label]
            op_prints.append(sha(b"".join(sha(produced[k]).encode() for k in sorted(produced))))
        identity_failures = _key_identity_failures(key_files)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verified = sum(op.ok for op in ops)
    failed = len(ops) - verified
    e2e = {"setup_s": _stat(setup_times, "s")}
    good = [op for op in ops if op.ok]
    for command, (key, unit, scale) in COMMANDS.items():
        spans = [op.timings[command] for op in good if command in op.timings]
        if not spans:
            continue
        samples = [scale * (host.net(*span) if host else span[1] - span[0])
                   for span in spans]
        e2e[f"{key}.p50"] = _stat(samples, unit)
        if len(samples) >= 100:  # at least ten samples above the p90
            e2e[f"{key}.p90"] = {"value": statistics.quantiles(samples, n=10)[-1],
                                 "unit": unit, "samples": len(samples)}
        if host:
            e2e[f"{command}_ref.p50"] = _stat([host.ratio(*span) for span in spans], "ref")
    if host:
        e2e["op_ref.p50"] = _stat([sum(host.ratio(*span) for span in op.timings.values())
                                   for op in good], "ref")
    e2e["messages_per_s"] = {"value": verified / loop_s, "unit": "1/s", "samples": len(ops)}
    e2e["fail_ratio"] = {"value": failed / len(ops), "unit": "ratio", "samples": len(ops)}
    e2e["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "samples": 1}

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and identity_failures == 0,
        "attempted": len(ops),
        "failed": failed,
        "e2e": e2e,
        "checks": {"plaintexts_verified": verified, "key_files_round_tripped": len(key_files),
                   "key_identity_failures": identity_failures},
        "failures": [f"op {n}: {op.error}" for n, op in enumerate(ops) if not op.ok][:10],
        "fingerprint": {
            "keys": {k: sha(v) for k, v in setup_keys.items()},
            "ops": op_prints,
        },
        "timings": {"setup_s": setup_times, "ops": [op.timings for op in ops],
                    "reference_kernel": host.samples if host else []},
        "counts": {"attempted": len(ops), "failed": failed, "verified": verified,
                   "setups": setups},
    }
    if trace:
        loop = snap_end - snap_setup
        counted = snap_counted - snap_setup
        counted_verified = sum(op.ok for op in ops[:count_ops])
        report["layers"] = layer_metrics(loop, counted, snap_counted, verified,
                                         counted_verified, workload.p)
        report["unaccounted_share"] = (loop_s - loop.spanned_s()) / loop_s
        report["counts"]["counted_ops"] = count_ops
        report["counts"]["calls"] = {
            name: counted.calls(name)
            for name in sorted({n for (_, n) in counted.events})
        }
    return report
