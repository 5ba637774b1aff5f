"""The benchmark's own tests, on toy parameter sets through the same code
path as the full-size workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os

import pytest

import compare
import run
import tracer
import workloads
from gabkron import params, scheme
from gabkron.ranklinalg import RankVector

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TOY_SETS = {
    "toy-new": dict(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
                    t=1, t1=1, lam=3, lam_p=2),
    "toy-rep": dict(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2),
}
TOY_WORKLOADS = {
    "session-new128": lambda: workloads.SessionWorkload("session-new128", "toy-new", count_ops=3),
    "cli-new128": lambda: workloads.CliWorkload("cli-new128", "toy-new", True, count_ops=3),
    "cli-rep128": lambda: workloads.CliWorkload("cli-rep128", "toy-rep", False, count_ops=3),
}


@pytest.fixture(autouse=True)
def toy_registry(monkeypatch):
    for name, fields in TOY_SETS.items():
        monkeypatch.setitem(params.REGISTRY, name, fields)
    for name, factory in TOY_WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)


def _run(name, seed=1, trace=False, tmp_path=None, tamper=None):
    return workloads.run_workload(TOY_WORKLOADS[name](), seed, seconds=0, trace=trace,
                                  setups=2, workdir_root=str(tmp_path),
                                  tamper=tamper)


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(TOY_WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in workloads.E2E]
    empty = tracer.Tracer().snapshot()
    layers = tracer.layer_metrics(empty, empty, empty, 0, 0, params.setup("toy-new"))
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers)


@pytest.mark.parametrize("name", list(TOY_WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(name, trace, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--out", str(out)])
    assert rc == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    report = json.loads(out.read_text())
    assert report["e2e"]["fail_ratio"]["value"] == 0
    assert report["checks"]["key_identity_failures"] == 0
    assert set(report["env"]) >= {"nproc", "cpu_model", "python", "git_commit", "workload_seed"}
    assert all(m["samples"] >= 1 for m in report["e2e"].values())
    if trace:
        assert report["layers"]["scheme.construct_P.attempts_per_key"] >= 1
        assert report["layers"]["gabcodes.blocks_per_decrypt"] >= 2


@pytest.mark.parametrize("name", list(TOY_WORKLOADS))
def test_counts_repeat_exactly_under_a_fixed_seed(name, tmp_path):
    a = _run(name, seed=5, trace=True, tmp_path=tmp_path)
    b = _run(name, seed=5, trace=True, tmp_path=tmp_path)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [n for n, u in units.items() if u == "count"]
    assert {n: a["layers"][n] for n in counts} == {n: b["layers"][n] for n in counts}
    assert a["counts"]["calls"] == b["counts"]["calls"]
    assert compare.same_work(a, b)
    assert "  count metrics: identical" in compare.compare(a, b, units)


def test_different_seeds_are_different_work(tmp_path):
    a = _run("cli-new128", seed=1, tmp_path=tmp_path)
    b = _run("cli-new128", seed=2, tmp_path=tmp_path)
    lines = compare.compare(a, b)
    assert len(lines) == 1 and "different work" in lines[0]


def test_corrupted_ciphertext_counts_as_failed_session(tmp_path):
    def tamper(i, ct):
        if i != 1:
            return ct
        ctx = ct.values.ctx
        noise = [(v * 2654435761 + 12345) & ctx.mask for v in range(len(ct.values))]
        return scheme.Ciphertext(ct.params, RankVector(ctx, noise))

    report = _run("session-new128", tmp_path=tmp_path, tamper=tamper)
    assert report["attempted"] == 3 and report["failed"] == 1
    assert report["correct"] is False
    assert report["failures"][0].startswith("op 1:")
    assert report["e2e"]["fail_ratio"]["value"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("name", ["cli-new128", "cli-rep128"])
def test_corrupted_ciphertext_counts_as_failed_cli(name, tmp_path):
    def tamper(i, data):
        return b"XXXX" + data[4:] if i == 1 else data

    report = _run(name, tmp_path=tmp_path, tamper=tamper)
    assert report["attempted"] == 3 and report["failed"] == 1
    assert "decrypt exited 4" in report["failures"][0]


def test_self_time_on_nested_spans():
    ticks = iter([0, 1, 4, 5, 6, 8, 9, 10])
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("a")        # 0
    t.enter("b")        # 1
    t.exit()            # 4: b = 3
    t.enter("c")        # 5
    t.enter("d")        # 6
    t.exit()            # 8: d = 2
    t.exit()            # 9: c = 4, of which d covers 2
    t.exit()            # 10: a = 10, children cover 3 + 4
    snap = t.snapshot()
    assert snap.self_s == {"a": 3, "b": 3, "c": 2, "d": 2}
    assert snap.total_s == {"a": 10, "b": 3, "c": 4, "d": 2}
    assert snap.spanned_s() == 10
    assert snap.calls_under("a", "c") == 1 and snap.calls_under("c", "d") == 1
    assert snap.calls("d") == 1


def test_snapshot_difference_and_errors():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("a")
    t.exit()
    before = t.snapshot()
    t.enter("a")
    t.count("k")
    t.exit(failed=True)
    diff = t.snapshot() - before
    assert diff.calls("a") == 1 and diff.calls_under("a", "k") == 1
    assert diff.errors == {"a": 1}


def test_instrument_restores_every_binding():
    keygen, inv = scheme.keygen, scheme.circulant_block_invert
    mul = scheme.RankMatrix.mul
    with tracer.instrument(tracer.Tracer()):
        assert scheme.keygen is not keygen
        assert scheme.circulant_block_invert is not inv
        assert scheme.RankMatrix.__matmul__ is scheme.RankMatrix.mul
    assert scheme.keygen is keygen and scheme.circulant_block_invert is inv
    assert scheme.RankMatrix.mul is mul and scheme.RankMatrix.__matmul__ is mul


def test_host_speed_ratio_on_synthetic_samples():
    host = workloads.HostSpeed()
    host.samples = [(0.0, 0.01), (1.0, 0.01), (1.5, 0.02), (3.0, 0.01)]
    # the command spans the samples at 1.0 and 1.5; its neighbours are 0.0 and 3.0
    assert host.net(0.5, 2.0) == pytest.approx(1.5 - 0.03)
    assert host.ratio(0.5, 2.0) == pytest.approx(1.47 / 0.0125)
    # no sample inside: only the neighbours count
    assert host.ratio(0.2, 0.7) == pytest.approx(0.5 / 0.01)
