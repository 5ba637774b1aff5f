import pytest

from gabkron import audit, cli
from gabkron.gf2m import FieldCtx
from gabkron.params import REGISTRY, setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import (
    RankMatrix,
    RankVector,
    circulant,
    is_circulant,
)

from conftest import fresh_rng


def test_key_sizes_original_claimed():
    for name, want in [("gabkron-128", 288), ("gabkron-192", 722), ("gabkron-256", 1352)]:
        rep = audit.key_sizes(REGISTRY[f"{name}-original"], "original-claimed", name)
        assert rep.size_pk_bytes == want
        assert rep.size_sk_bits is None


def test_key_sizes_repaired():
    rep = audit.key_sizes(REGISTRY["rep-gabkron-128"], "repaired")
    assert rep.size_pk_bytes == 258475  # displayed as 258.5K
    assert rep.size_sk_bits == 211 * (1 + 105 + 3 + 70 * 70) + 3 * 210
    assert audit.key_sizes(REGISTRY["rep-gabkron-192"], "repaired").size_pk_bytes == 767500
    assert audit.key_sizes(REGISTRY["rep-gabkron-256"], "repaired").size_pk_bytes == 1001275


def test_key_sizes_improved():
    assert audit.key_sizes(REGISTRY["new-gabkron-128"], "improved").size_pk_bytes == 4050
    assert audit.key_sizes(REGISTRY["new-gabkron-192"], "improved").size_pk_bytes == 7200
    rep = audit.key_sizes(REGISTRY["new-gabkron-256"], "improved")
    assert rep.size_pk_bytes == 2 * 2 * 128 * 128 // 8 == 8192
    # sk bits are exact even when bytes are fractional
    rep128 = audit.key_sizes(REGISTRY["new-gabkron-128"], "improved")
    assert rep128.size_sk_bits == 90 + 4 * 3 * 180 + 4 * 90 == 2610
    assert rep128.size_sk_bytes == 2610 / 8


def test_key_sizes_accepts_paramset():
    p = setup("new-gabkron-128")
    assert audit.key_sizes(p, "improved").size_pk_bytes == 4050


def test_feasibility_table():
    rows = [
        ("gabkron-128-original", 12, 2),
        ("gabkron-192-original", 16, 3),
        ("gabkron-256-original", 24, 4),
    ]
    for name, t, bound in rows:
        rep = audit.feasibility(REGISTRY[name], name=name)
        assert rep.claimed_t == t
        assert rep.bound == bound
        assert not rep.feasible
        assert any("t <= floor((n2-k2)/(2*lambda))" in v for v in rep.violations)


def test_feasibility_accepts_valid_fields():
    rep = audit.feasibility(dict(REGISTRY["rep-gabkron-128"]))
    assert rep.feasible


def test_reproduce_tables_clean():
    rows, mismatches = audit.reproduce_tables()
    assert mismatches == []
    assert all(r["match"] for r in rows)


# -- the circulant scrambler criterion ------------------------------------------


def test_systematic_via_circulant_planted(ctx4):
    rng = fresh_rng(b"planted")
    while True:
        C = circulant(RankVector.random(ctx4, 3, rng))
        try:
            from gabkron.ranklinalg import circulant_inverse

            circulant_inverse(C)
            break
        except Exception:
            continue
    B = RankMatrix.random(ctx4, 3, 2, rng)
    M = RankMatrix(ctx4, [cr + br for cr, br in zip(C.rows, B.rows)])
    res = audit.systematic_via_circulant(M)
    assert res.found
    assert is_circulant(res.S)
    prod = res.S.mul(M)
    assert prod.submatrix(0, 0, 3, 3) == RankMatrix.identity(ctx4, 3)


def test_systematic_via_circulant_identity_lead(ctx4):
    rng = fresh_rng(b"idlead")
    B = RankMatrix.random(ctx4, 3, 2, rng)
    I = RankMatrix.identity(ctx4, 3)
    M = RankMatrix(ctx4, [ir + br for ir, br in zip(I.rows, B.rows)])
    res = audit.systematic_via_circulant(M)
    assert res.found and res.S == I


def test_systematic_via_circulant_rejects_non_circulant(ctx4):
    rng = fresh_rng(b"reject")
    while True:
        M = RankMatrix.random(ctx4, 3, 5, rng)
        lead = M.submatrix(0, 0, 3, 3)
        if is_circulant(lead):
            continue
        try:
            lead.invert()
            break
        except Exception:
            continue
    res = audit.systematic_via_circulant(M)
    assert not res.found
    assert "not circulant" in res.reason


def test_systematic_via_circulant_singular_lead(ctx4):
    Z = RankMatrix.zero(ctx4, 2, 4)
    res = audit.systematic_via_circulant(Z)
    assert not res.found
    assert "singular" in res.reason


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_brute_force_agreement(m, k):
    ctx = FieldCtx(m)
    rng = fresh_rng(b"brute%d%d" % (m, k))
    cases = 0
    while cases < 6:
        if cases % 2 == 0:
            M = RankMatrix.random(ctx, k, k + 1, rng)
        else:
            C = circulant(RankVector.random(ctx, k, rng))
            B = RankMatrix.random(ctx, k, 1, rng)
            M = RankMatrix(ctx, [cr + br for cr, br in zip(C.rows, B.rows)])
        fast = audit.systematic_via_circulant(M)
        slow = audit.brute_force_circulant_scrambler(M)
        assert fast.found == (slow is not None)
        if fast.found:
            assert fast.S.mul(M).submatrix(0, 0, k, k) == RankMatrix.identity(ctx, k)
        cases += 1


def test_demonstrate_original_flaw_toy():
    p = setup(variant="repaired", m=16, n1=2, n2=8, k1=2, k2=2, t1=1, lam=2)
    rep = audit.demonstrate_original_flaw(p, SeededRng(b"flaw"), trials=20)
    assert rep.trials == 20
    assert rep.circulant_s_found == 0


def test_demonstrate_original_flaw_empty():
    p = setup(variant="repaired", m=16, n1=2, n2=8, k1=2, k2=2, t1=1, lam=2)
    rep = audit.demonstrate_original_flaw(p, SeededRng(b"flaw0"), trials=0)
    assert rep.trials == 0 and rep.circulant_s_found == 0


def test_demonstrate_original_flaw_planted_control(ctx4):
    rng = fresh_rng(b"flawplant")
    p = setup(variant="repaired", m=16, n1=2, n2=8, k1=2, k2=2, t1=1, lam=2)
    while True:
        C = circulant(RankVector.random(ctx4, 3, rng))
        try:
            from gabkron.ranklinalg import circulant_inverse

            circulant_inverse(C)
            break
        except Exception:
            continue
    B = RankMatrix.random(ctx4, 3, 2, rng)
    planted = RankMatrix(ctx4, [cr + br for cr, br in zip(C.rows, B.rows)])
    rep = audit.demonstrate_original_flaw(
        p, SeededRng(b"flawp"), trials=5, planted=[planted]
    )
    assert rep.planted_found == 1 and rep.planted_total == 1
    assert rep.circulant_s_found == 0


def test_verify_structure_lemmas_counts():
    rep = audit.verify_structure_lemmas(SeededRng(b"suites"), trials=25)
    assert rep.all_passed
    assert set(rep.results) == {
        "factor-rank",
        "subcode",
        "block-inverse",
        "partial-product",
        "block-product",
        "circulant-inverse",
    }
    for passes, trials in rep.results.values():
        assert (passes, trials) == (25, 25)


def test_audit_draws_are_pinned():
    # the suites and the original-pipeline hunt consume a fixed stream of
    # draws: the word that follows them is pinned
    rng = SeededRng(b"lemma-draws")
    assert audit.verify_structure_lemmas(rng, trials=5).all_passed
    assert rng.u64() == 8478322586086898326
    rng = SeededRng(b"prop1-draws")
    rep = audit.demonstrate_original_flaw(setup(**cli._PROP1_TOY), rng, trials=5)
    assert rep.circulant_s_found == 0
    assert rng.u64() == 9048722373798879048
