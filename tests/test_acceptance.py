"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
criterion 3 works at full published scale and dominates the runtime.
"""

import time

from gabkron import audit, keyio, scheme as sc
from gabkron.gf2m import FieldCtx, _bit_rank
from gabkron.gabcodes import GabidulinCode
from gabkron.params import REGISTRY, setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankMatrix, RankVector, circulant
from gabkron.scheme import sample_rank_error

from conftest import brute_force_circulant_scrambler, fresh_rng, vec_add, vec_mat


def _line(n, desc):
    print(f"\nACCEPTANCE {n}: PASS - {desc}")


def test_criterion_1_infeasibility_reproduction():
    t0 = time.perf_counter()
    expected = {
        "gabkron-128-original": (12, 2),
        "gabkron-192-original": (16, 3),
        "gabkron-256-original": (24, 4),
    }
    for name, (t, bound) in expected.items():
        rep = audit.feasibility(REGISTRY[name], name=name)
        assert rep.claimed_t == t
        assert rep.bound == bound
        assert not rep.feasible
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, f"bounds 2/3/4 vs claimed t 12/16/24 reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_key_size_reproduction():
    t0 = time.perf_counter()
    for name, want in [("gabkron-128", 288), ("gabkron-192", 722), ("gabkron-256", 1352)]:
        rep = audit.key_sizes(REGISTRY[f"{name}-original"], "original-claimed")
        assert rep.size_pk_bytes == want
    for name, want in [
        ("rep-gabkron-128", 258475),
        ("rep-gabkron-192", 767500),
        ("rep-gabkron-256", 1001275),
    ]:
        assert audit.key_sizes(REGISTRY[name], "repaired").size_pk_bytes == want
    for name, want in [
        ("new-gabkron-128", 4050),
        ("new-gabkron-192", 7200),
        ("new-gabkron-256", 8192),
    ]:
        assert audit.key_sizes(REGISTRY[name], "improved").size_pk_bytes == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(2, f"all nine public-key sizes reproduced exactly ({elapsed:.3f}s)")


def _round_trip_batch(name, trials, seed):
    p = setup(name)
    rng = SeededRng(seed)
    kp = sc.keygen(p, rng)
    ctx = kp.pk.matrix.ctx
    t0 = time.perf_counter()
    good = 0
    for _ in range(trials):
        m = RankVector.random(ctx, p.k, rng)
        ct = sc.encrypt(m, kp.pk, p, rng)
        if sc.decrypt(ct, kp.sk, p) == m:
            good += 1
    return good, time.perf_counter() - t0


def test_criterion_3_paper_scale_round_trips():
    good, elapsed = _round_trip_batch("new-gabkron-128", 100, b"accept-3-128")
    assert good == 100
    msg128 = f"new-GabKron-128 {good}/100 in {elapsed:.1f}s (target < 60 s)"
    good192, t192 = _round_trip_batch("new-gabkron-192", 25, b"accept-3-192")
    assert good192 == 25
    good256, t256 = _round_trip_batch("new-gabkron-256", 25, b"accept-3-256")
    assert good256 == 25
    _line(3, f"{msg128}; -192 25/25 in {t192:.1f}s; -256 25/25 in {t256:.1f}s")


def test_criterion_4_decoder_oracle_equivalence():
    # [4, 2] Gabidulin over GF(2^4): every (codeword, rank <= 1 error) pair,
    # the decoder against literal exhaustive nearest-codeword search
    ctx = FieldCtx(4)
    rng = fresh_rng(b"accept-4")
    while True:
        g = RankVector.random(ctx, 4, rng)
        if g.rank_weight() == 4:
            break
    code = GabidulinCode(g, 2)
    assert code.radius == 1

    def key_of(vals):
        return vals[0] | vals[1] << 4 | vals[2] << 8 | vals[3] << 12

    def vals_of(key):
        return [key & 0xF, key >> 4 & 0xF, key >> 8 & 0xF, key >> 12 & 0xF]

    rank_table = [_bit_rank(vals_of(key)) for key in range(1 << 16)]
    messages = [[idx & 0xF, idx >> 4] for idx in range(256)]
    codeword_keys = [key_of(code.encode(u).values) for u in messages]

    errors = [[0, 0, 0, 0]]
    for beta in range(1, 16):
        for support in range(1, 16):
            errors.append([beta if support >> i & 1 else 0 for i in range(4)])
    assert len(errors) == 226

    t0 = time.perf_counter()
    checked = 0
    for ci, u in enumerate(messages):
        ckey = codeword_keys[ci]
        for e in errors:
            ykey = ckey ^ key_of(e)
            best_w, best_i, ties = 5, -1, 0
            for c2i, c2key in enumerate(codeword_keys):
                w = rank_table[ykey ^ c2key]
                if w < best_w:
                    best_w, best_i, ties = w, c2i, 1
                elif w == best_w:
                    ties += 1
            assert ties == 1 and best_i == ci and best_w == rank_table[key_of(e)]
            ud, ed = code.decode(vals_of(ykey))
            assert ud.values == u and ed.values == e
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 256 * 226
    _line(4, f"decoder matched exhaustive search on all {checked} pairs ({elapsed:.1f}s)")


def test_criterion_5_rank_budget_property():
    p = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
              t=1, t1=1, lam=3, lam_p=2)
    kp = sc.keygen(p, SeededRng(b"accept-5"))
    ctx = kp.pk.matrix.ctx
    rng = fresh_rng(b"accept-5-draws")
    budget = p.t1 + p.lam_p * p.t
    X, P = kp.x_witness.X.dense(), kp.sk.P.dense()
    violations = 0
    for _ in range(200):
        m = RankVector.random(ctx, p.k, rng)
        e = sample_rank_error(ctx, p.n, p.t, rng)
        for i in kp.code.I:
            X_ci = X.submatrix(0, i * p.n2, p.k, p.n2)
            P_ci = P.submatrix(0, i * p.n2, p.n, p.n2)
            eff = vec_add(vec_mat(m, X_ci), vec_mat(e, P_ci))
            if eff.rank_weight() > budget:
                violations += 1
    assert violations == 0
    _line(5, f"rank budget t1 + lam'*t = {budget} held for 200 draws, 0 violations")


def test_criterion_6_structure_lemma_suites():
    rep = audit.verify_structure_lemmas(SeededRng(b"accept-6"), trials=100)
    assert rep.all_passed, rep.as_dict()
    for lemma, (passes, trials) in rep.results.items():
        assert (passes, trials) == (100, 100), lemma
    _line(6, "six structure suites, 100/100 trials each, zero failures")


def test_criterion_7_circulant_scrambler_both_directions():
    ctx = FieldCtx(4)
    rng = fresh_rng(b"accept-7")
    # planted direction
    from gabkron.ranklinalg import SingularMatrixError, circulant_inverse

    while True:
        C = circulant(RankVector.random(ctx, 3, rng))
        try:
            circulant_inverse(C)
            break
        except SingularMatrixError:
            continue
    B = RankMatrix.random(ctx, 3, 3, rng)
    planted = RankMatrix(ctx, [cr + br for cr, br in zip(C.rows, B.rows)])
    res = audit.systematic_via_circulant(planted)
    assert res.found
    assert res.S.mul(planted).submatrix(0, 0, 3, 3) == RankMatrix.identity(ctx, 3)

    # random pipelines: zero circulant scramblers expected
    p = setup(variant="repaired", m=16, n1=2, n2=8, k1=2, k2=2, t1=1, lam=2)
    rep = audit.demonstrate_original_flaw(p, SeededRng(b"accept-7-pipe"), trials=100)
    assert rep.trials == 100
    assert rep.circulant_s_found == 0

    # brute-force agreement for k <= 3, m <= 3
    agreements = 0
    for m in (2, 3):
        fctx = FieldCtx(m)
        brng = fresh_rng(b"accept-7-brute%d" % m)
        for k in (2, 3):
            for style in range(4):
                if style % 2:
                    Cb = circulant(RankVector.random(fctx, k, brng))
                    Bb = RankMatrix.random(fctx, k, 1, brng)
                    M = RankMatrix(fctx, [cr + br for cr, br in zip(Cb.rows, Bb.rows)])
                else:
                    M = RankMatrix.random(fctx, k, k + 1, brng)
                fast = audit.systematic_via_circulant(M)
                slow = brute_force_circulant_scrambler(M)
                assert fast.found == (slow is not None)
                agreements += 1
    _line(7, f"planted S found, 0/100 pipeline successes, brute force agreed {agreements}/16")


def test_criterion_8_determinism_and_serialization():
    p_imp = setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
                  t=1, t1=1, lam=3, lam_p=2)
    p_rep = setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)

    # byte-identical regeneration under a fixed seed
    for p in (p_imp, p_rep):
        a = sc.keygen(p, SeededRng(b"accept-8"))
        b = sc.keygen(p, SeededRng(b"accept-8"))
        assert keyio.serialize_public_key(a.pk) == keyio.serialize_public_key(b.pk)
        assert keyio.serialize_secret_key(a.sk) == keyio.serialize_secret_key(b.sk)
        ctx = a.pk.matrix.ctx
        m = RankVector.random(ctx, p.k, SeededRng(b"accept-8-m"))
        c1 = sc.encrypt(m, a.pk, p, SeededRng(b"accept-8-e"))
        c2 = sc.encrypt(m, b.pk, p, SeededRng(b"accept-8-e"))
        assert keyio.serialize_ciphertext(c1) == keyio.serialize_ciphertext(c2)

    # parse(serialize(x)) identity over 100 fresh artifacts
    artifacts = 0
    rng = fresh_rng(b"accept-8-artifacts")
    for round_i in range(5):
        for p in (p_imp, p_rep):
            kp = sc.keygen(p, SeededRng(b"accept-8-%d" % round_i + p.variant.encode()))
            blob = keyio.serialize_public_key(kp.pk)
            assert keyio.serialize_public_key(keyio.parse_public_key(blob)) == blob
            artifacts += 1
            blob = keyio.serialize_secret_key(kp.sk)
            assert keyio.serialize_secret_key(keyio.parse_secret_key(blob)) == blob
            artifacts += 1
            ctx = kp.pk.matrix.ctx
            for _ in range(8):
                m = RankVector.random(ctx, p.k, rng)
                ct = sc.encrypt(m, kp.pk, p, rng)
                blob = keyio.serialize_ciphertext(ct)
                assert keyio.serialize_ciphertext(keyio.parse_ciphertext(blob)) == blob
                artifacts += 1
    assert artifacts == 100
    _line(8, f"fixed-seed bytes identical; parse/serialize identity on {artifacts} artifacts")
