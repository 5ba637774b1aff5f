"""Mechanical reproduction of the analytical results behind the scheme.

Covers the key-size formulas for all three accountings (the claimed
original sizes, the corrected systematic-form sizes, the block-structure
sizes), the infeasibility of the original parameter sets, the circulant
systematic-form criterion and its demonstration on the original key
pipeline, and randomized suites for the structural lemmas.  Everything
checks against a frozen table of expected values; a mismatch is a
mismatch of the implementation, not of the table.

The dense product-code helpers (kron, product_generator and its factors,
subcode_membership) live here: only the audit and the tests expand a
product code, and the ciphers never build its generator G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2m import ContextMismatchError, FieldCtx
from .gabcodes import GabidulinCode, KroneckerCode
from .params import REGISTRY, ParamSet, setup
from .ranklinalg import (
    CirculantGrid,
    RankMatrix,
    RankVector,
    SingularMatrixError,
    circulant,
    circulant_block_compose,
    circulant_block_invert,
    circulant_inverse,
    cyc_inv,
    is_circulant,
    is_partial_circulant_block,
    partial_circulant,
)
from .scheme import SubspaceSpec, construct_X, sample_subspace_basis

# Frozen expectations for the reproduction gate (sizes in bytes).
EXPECTED = {
    "original_pk_bytes": {"gabkron-128": 288, "gabkron-192": 722, "gabkron-256": 1352},
    "original_t_bound": {"gabkron-128": (12, 2), "gabkron-192": (16, 3), "gabkron-256": (24, 4)},
    "repaired_pk_bytes": {
        "rep-gabkron-128": 258475,
        "rep-gabkron-192": 767500,
        "rep-gabkron-256": 1001275,
    },
    "repaired_t": {"rep-gabkron-128": 9, "rep-gabkron-192": 13, "rep-gabkron-256": 14},
    "improved_pk_bytes": {
        "new-gabkron-128": 4050,
        "new-gabkron-192": 7200,
        "new-gabkron-256": 8192,
    },
}


@dataclass
class SizeReport:
    name: str
    formula: str  # "original-claimed" | "repaired" | "improved"
    size_pk_bits: int
    size_sk_bits: int | None
    inputs: dict

    @property
    def size_pk_bytes(self) -> int:
        if self.size_pk_bits % 8:
            raise ValueError("public key size is not a whole number of bytes")
        return self.size_pk_bits // 8

    @property
    def size_sk_bytes(self):
        """Exact int when the bit count is byte-aligned, else a float."""
        if self.size_sk_bits is None:
            return None
        if self.size_sk_bits % 8 == 0:
            return self.size_sk_bits // 8
        return self.size_sk_bits / 8

    def as_dict(self):
        return {
            "name": self.name,
            "formula": self.formula,
            "size_pk_bits": self.size_pk_bits,
            "size_pk_bytes": self.size_pk_bytes,
            "size_sk_bits": self.size_sk_bits,
            "size_sk_bytes": self.size_sk_bytes,
            "inputs": self.inputs,
        }


@dataclass
class FeasibilityReport:
    name: str
    claimed_t: int
    bound: int
    violations: list

    @property
    def feasible(self) -> bool:
        return not self.violations


def key_sizes(fields, formula: str, name: str = "") -> SizeReport:
    """Exact key sizes under the chosen accounting.

    original-claimed: one circulant row, m*n bits (reverse-engineered from
    the published table).  repaired: systematic pk m*k*(n-k) and sk
    m*(1+n2+lambda+k^2) + lambda*n.  improved: first-row-per-block pk
    k1*n1*n2*m and sk m + n1^2*lambda*(m+n2) + k1*n1*m.
    """
    f = dict(fields) if not isinstance(fields, ParamSet) else {
        "m": fields.m, "n": fields.n, "k": fields.k, "n1": fields.n1,
        "n2": fields.n2, "k1": fields.k1, "k2": fields.k2, "lam": fields.lam,
    }
    m, n = f["m"], f["n"]
    if formula == "original-claimed":
        pk_bits = m * n
        sk_bits = None
    elif formula == "repaired":
        k, n2, lam = f["k"], f["n2"], f["lam"]
        pk_bits = m * k * (n - k)
        sk_bits = m * (1 + n2 + lam + k * k) + lam * n
    elif formula == "improved":
        k1, n1, n2, lam = f["k1"], f["n1"], f["n2"], f["lam"]
        pk_bits = k1 * n1 * n2 * m
        sk_bits = m + n1 * n1 * lam * (m + n2) + k1 * n1 * m
    else:
        raise ValueError(f"unknown formula {formula!r}")
    return SizeReport(name=name, formula=formula, size_pk_bits=pk_bits,
                      size_sk_bits=sk_bits, inputs=f)


def feasibility(fields: dict, claimed_t: int | None = None, name: str = "") -> FeasibilityReport:
    """Check the published t against every bound it must satisfy."""
    f = dict(fields)
    t = claimed_t if claimed_t is not None else f["t"]
    n1, n2, k1, k2 = f["n1"], f["n2"], f["k1"], f["k2"]
    m, n, k, lam = f["m"], f["n"], f["k"], f["lam"]
    bound = (n2 - k2) // (2 * lam)
    violations = []
    if t > bound:
        violations.append(
            f"t <= floor((n2-k2)/(2*lambda)): t={t} exceeds bound {bound}"
        )
    if not k < n:
        violations.append(f"k < n: k={k}, n={n}")
    if not n <= m:
        violations.append(f"n <= m: n={n}, m={m}")
    if n != n1 * n2:
        violations.append(f"n = n1*n2: n={n}, n1*n2={n1 * n2}")
    if k != k1 * k2:
        violations.append(f"k = k1*k2: k={k}, k1*k2={k1 * k2}")
    if lam < 2:
        violations.append(f"lambda >= 2: lambda={lam}")
    return FeasibilityReport(name=name, claimed_t=t, bound=bound, violations=violations)


# ---------------------------------------------------------------------------
# the circulant systematic-form criterion


@dataclass
class CirculantSystematicResult:
    found: bool
    S: RankMatrix | None = None
    reason: str = ""


def systematic_via_circulant(M: RankMatrix) -> CirculantSystematicResult:
    """Circulant S with S*M systematic exists iff the leading block is
    an invertible circulant; returns that S or the reason there is none."""
    k = M.nrows
    if M.ncols < k:
        raise ValueError("need k <= n")
    lead = M.submatrix(0, 0, k, k)
    if not is_circulant(lead):
        return CirculantSystematicResult(False, reason="leading block is not circulant")
    try:
        S = circulant_inverse(lead)
    except SingularMatrixError:
        return CirculantSystematicResult(False, reason="leading block is singular")
    return CirculantSystematicResult(True, S=S)


@dataclass
class FlawReport:
    trials: int
    circulant_s_found: int
    planted_found: int = 0
    planted_total: int = 0


def _original_pipeline_matrix(p: ParamSet, rng, ctx) -> RankMatrix:
    """(G + X) P^{-1} as the original key generation would produce it.

    G1 comes from the normal-element orbit, G2 is a random full-rank inner
    generator, X is a low-column-rank partial circulant, P a circulant over
    a lambda-dimensional subspace; retried until the leading minor is
    invertible so the systematic-form question is well-posed.
    """
    if p.variant != "repaired":
        raise ValueError("the original pipeline uses repaired-shape parameters")
    while True:
        g1 = RankVector(ctx, ctx.find_normal_element(rng)[p.m - p.n1:])
        G1 = partial_circulant(g1, p.k1)
        if G1.rank() != p.k1:
            continue
        G2 = RankMatrix.random_full_rank(ctx, p.k2, p.n2, rng)
        G = kron(G1, G2)
        xw = construct_X(p, (), rng, ctx)
        basis = sample_subspace_basis(ctx, p.lam, rng)
        spec = SubspaceSpec(basis=basis, selections={})
        b = RankVector(ctx, [spec.member(basis, rng) for _ in range(p.n)])
        P = circulant(b)
        try:
            Pinv = circulant_inverse(P)
        except SingularMatrixError:
            continue
        GX = [[a ^ b for a, b in zip(g, x)] for g, x in zip(G.rows, xw.X.dense().rows)]
        M0 = RankMatrix(ctx, GX).mul(Pinv)
        if M0.submatrix(0, 0, p.k, p.k).rank() < p.k:
            continue
        return M0


def demonstrate_original_flaw(p: ParamSet, rng, trials: int, planted=()) -> FlawReport:
    """Count circulant-scrambler successes over original-KeyGen draws.

    The expected count is zero; `planted` matrices (e.g. with a circulant
    leading block) are appended to the tally as positive controls.
    """
    ctx = FieldCtx(p.m)
    found = 0
    for _ in range(trials):
        M0 = _original_pipeline_matrix(p, rng, ctx)
        if systematic_via_circulant(M0).found:
            found += 1
    planted_found = sum(1 for M in planted if systematic_via_circulant(M).found)
    return FlawReport(
        trials=trials,
        circulant_s_found=found,
        planted_found=planted_found,
        planted_total=len(planted),
    )


# ---------------------------------------------------------------------------
# structural lemma suites


@dataclass
class LemmaReport:
    results: dict = field(default_factory=dict)  # name -> (passes, trials)

    @property
    def all_passed(self) -> bool:
        return all(p == t for p, t in self.results.values())

    def as_dict(self):
        return {
            name: {"passes": p, "trials": t} for name, (p, t) in self.results.items()
        }


def kron(A: RankMatrix, B: RankMatrix) -> RankMatrix:
    """Kronecker product: block (i, j) is A[i][j] times B."""
    if A.ctx != B.ctx:
        raise ContextMismatchError("matrices from different field contexts")
    mul = A.ctx.mul
    return RankMatrix(A.ctx, [[mul(a, b) for a in arow for b in brow]
                              for arow in A.rows for brow in B.rows])


def product_generator(K: KroneckerCode) -> RankMatrix:
    """The dense k x n generator G = G1 (x) C2.generator of K."""
    return kron(K.G1, K.C2.generator)


def left_factor(K: KroneckerCode) -> RankMatrix:
    """Gbar1 = G1 (x) I_k2, the left factor of G = Gbar1 Gbar2."""
    return kron(K.G1, RankMatrix.identity(K.ctx, K.k2))


def right_factor(K: KroneckerCode) -> RankMatrix:
    """Gbar2 = I_n1 (x) C2.generator, the block-diagonal right factor."""
    return kron(RankMatrix.identity(K.ctx, K.n1), K.C2.generator)


def subcode_membership(K: KroneckerCode, vals) -> bool:
    """True iff every block of the word vals is a codeword of K's inner code."""
    n2 = K.n2
    return not any(any(K.C2.syndromes(vals[j * n2 : (j + 1) * n2])) for j in range(K.n1))


def is_circulant_block(M: RankMatrix, n1: int, n2: int) -> bool:
    """True iff M is an n1 x n1 grid of circulant n2 x n2 blocks."""
    if M.nrows != n1 * n2 or M.ncols != n1 * n2:
        return False
    return all(
        is_circulant(M.submatrix(i * n2, j * n2, n2, n2))
        for i in range(n1)
        for j in range(n1)
    )


def _random_invertible_circulant(ctx, n, rng):
    while True:
        gen = RankVector.random(ctx, n, rng)
        if cyc_inv(ctx, gen.values) is not None:
            return circulant(gen)


def _random_full_weight(ctx, n, rng) -> RankVector:
    while True:
        g = RankVector.random(ctx, n, rng)
        if g.rank_weight() == n:
            return g


def _random_grid(ctx, nrows, ncols, k, n, rng) -> CirculantGrid:
    gens = [[RankVector.random(ctx, n, rng).values for _ in range(ncols)] for _ in range(nrows)]
    return CirculantGrid(ctx, gens, k)


def _lemma_trials(rng):
    """(name, trial) for each suite in report order; trial() draws one case
    from rng and returns whether the lemma held for it.

    A generator, so that a suite's shared set-up draws follow the trials of
    the suites before it.
    """
    ctx4 = FieldCtx(4)
    ctx6 = FieldCtx(6)

    def factor_rank():
        G1 = RankMatrix.random_full_rank(ctx6, 2, 2, rng)
        K = KroneckerCode(G1, GabidulinCode(_random_full_weight(ctx6, 6, rng), 2))
        Gbar1 = left_factor(K)
        return Gbar1.rank() == K.k and product_generator(K) == Gbar1.mul(right_factor(K))

    def block_inverse():
        while True:
            A = _random_grid(ctx4, 2, 2, 3, 3, rng)
            try:
                Ainv = circulant_block_invert(A).dense()
                break
            except SingularMatrixError:
                continue
        return (is_circulant_block(Ainv, 2, 3)
                and A.dense().mul(Ainv) == RankMatrix.identity(ctx4, 6))

    def product(nb, k, n):
        # nb x nb blocks: Cir_k blocks times Cir blocks of size n
        B = _random_grid(ctx4, nb, nb, k, n, rng)
        A = _random_grid(ctx4, nb, nb, n, n, rng)
        prod = circulant_block_compose(B, A).dense()
        return (is_partial_circulant_block(prod, nb, nb, k, n)
                and prod == B.dense().mul(A.dense()))

    def inverse():
        C = _random_invertible_circulant(ctx4, 5, rng)
        Ci = circulant_inverse(C)
        return is_circulant(Ci) and C.mul(Ci) == RankMatrix.identity(ctx4, 5)

    yield "factor-rank", factor_rank
    g = _random_full_weight(ctx6, 6, rng)
    K = KroneckerCode(RankMatrix.random_full_rank(ctx6, 2, 2, rng), GabidulinCode(g, 2))
    G = product_generator(K)
    yield "subcode", lambda: subcode_membership(
        K, G.left_mul_values(RankVector.random(ctx6, K.k, rng).values))
    yield "block-inverse", block_inverse
    yield "partial-product", lambda: product(1, 2, 6)
    yield "block-product", lambda: product(2, 2, 3)
    yield "circulant-inverse", inverse


def verify_structure_lemmas(rng, trials: int = 100) -> LemmaReport:
    """Randomized checks of the product/inverse closure facts at toy scale.

    factor-rank: the left Kronecker factor of a full-rank outer matrix has
    rank k.  subcode: product codewords lie in the block-diagonal inner
    code.  block-inverse: circulant-block inverses stay circulant-block.
    partial-product: partial circulant times circulant stays partial
    circulant.  block-product: partial-circulant-block times
    circulant-block keeps its block shape.  circulant-inverse: circulant
    inverses stay circulant.
    """
    report = LemmaReport()
    for name, trial in _lemma_trials(rng):
        report.results[name] = (sum(trial() for _ in range(trials)), trials)
    return report


# ---------------------------------------------------------------------------
# the reproduction gate


def reproduce_tables() -> tuple[list, list]:
    """Regenerate every published number; returns (rows, mismatches)."""
    rows = []
    mismatches = []

    def check(label, got, want):
        rows.append({"item": label, "computed": got, "expected": want,
                     "match": got == want})
        if got != want:
            mismatches.append(f"{label}: computed {got}, expected {want}")

    for name, want in EXPECTED["original_pk_bytes"].items():
        f = REGISTRY[f"{name}-original"]
        check(f"{name} claimed pk bytes", key_sizes(f, "original-claimed", name).size_pk_bytes, want)
    for name, (t, bound) in EXPECTED["original_t_bound"].items():
        f = REGISTRY[f"{name}-original"]
        rep = feasibility(f, name=name)
        check(f"{name} error-rank bound", rep.bound, bound)
        check(f"{name} infeasible at t={t}", not rep.feasible, True)
    for name, want in EXPECTED["repaired_pk_bytes"].items():
        f = REGISTRY[name]
        check(f"{name} pk bytes", key_sizes(f, "repaired", name).size_pk_bytes, want)
    for name, want in EXPECTED["repaired_t"].items():
        f = REGISTRY[name]
        t_formula = (f["n2"] - f["k2"] - 2 * f["t1"]) // (2 * f["lam"])
        check(f"{name} t from formula", t_formula, want)
        check(f"{name} setup accepts", setup(name).t, want)
    for name, want in EXPECTED["improved_pk_bytes"].items():
        f = REGISTRY[name]
        check(f"{name} pk bytes", key_sizes(f, "improved", name).size_pk_bytes, want)
        setup(name)  # must validate
    return rows, mismatches
