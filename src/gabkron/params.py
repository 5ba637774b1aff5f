"""Parameter sets for the GabKron scheme.

Two supported variants: "repaired" (the original design with a general,
non-circulant left scrambler and workable numbers) and "improved" (the
partial-circulant-block construction, n_2 = m).  The three original
parameter sets are kept in the registry so setup() can reject them with
the violated inequality spelled out; the audit module reproduces that
table.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParameterError(ValueError):
    """A parameter set violates a setup constraint; .constraint names it."""

    def __init__(self, constraint: str, detail: str):
        super().__init__(f"constraint violated: {constraint} ({detail})")
        self.constraint = constraint
        self.detail = detail


@dataclass(frozen=True)
class ParamSet:
    variant: str  # "repaired" | "improved"
    m: int
    n: int
    k: int
    n1: int
    n2: int
    k1: int
    k2: int
    t: int
    t1: int
    t2: int
    lam: int
    lam_p: int | None = None
    name: str = ""
    security: int = 0


# Named sets.  The "original" entries reproduce the unusable proposal and
# exist only so setup() and the audit can point at the violated bound.
REGISTRY: dict[str, dict] = {
    "gabkron-128-original": dict(
        variant="original", n1=2, k1=2, n2=24, k2=12, m=48, n=48, k=24,
        t=12, lam=3, security=128,
    ),
    "gabkron-192-original": dict(
        variant="original", n1=2, k1=2, n2=38, k2=19, m=76, n=76, k=38,
        t=16, lam=3, security=192,
    ),
    "gabkron-256-original": dict(
        variant="original", n1=2, k1=2, n2=52, k2=26, m=104, n=104, k=52,
        t=24, lam=3, security=256,
    ),
    "rep-gabkron-128": dict(
        variant="repaired", n1=2, k1=2, n2=105, k2=35, m=211, n=210, k=70,
        t=9, t1=7, lam=3, security=128,
    ),
    "rep-gabkron-192": dict(
        variant="repaired", n1=2, k1=2, n2=150, k2=50, m=307, n=300, k=100,
        t=13, t1=10, lam=3, security=192,
    ),
    "rep-gabkron-256": dict(
        variant="repaired", n1=2, k1=2, n2=165, k2=55, m=331, n=330, k=110,
        t=14, t1=11, lam=3, security=256,
    ),
    # lam_p is forced to 2 by lam_p*t + t1 <= t2 at every listed size
    "new-gabkron-128": dict(
        variant="improved", n1=2, k1=2, n2=90, k2=18, m=90, n=180, k=36,
        t=12, t1=6, lam=3, lam_p=2, security=128,
    ),
    "new-gabkron-192": dict(
        variant="improved", n1=2, k1=2, n2=120, k2=32, m=120, n=240, k=64,
        t=14, t1=8, lam=3, lam_p=2, security=192,
    ),
    "new-gabkron-256": dict(
        variant="improved", n1=2, k1=2, n2=128, k2=40, m=128, n=256, k=80,
        t=14, t1=8, lam=3, lam_p=2, security=256,
    ),
}


def _check(cond: bool, constraint: str, detail: str):
    if not cond:
        raise ParameterError(constraint, detail)


def _validate_common(f: dict):
    _check(f.get("q", 2) == 2, "q = 2", f"q={f.get('q')}")
    n1, n2, k1, k2 = f["n1"], f["n2"], f["k1"], f["k2"]
    n = f.setdefault("n", n1 * n2)
    k = f.setdefault("k", k1 * k2)
    _check(n == n1 * n2, "n = n1*n2", f"n={n}, n1*n2={n1 * n2}")
    _check(k == k1 * k2, "k = k1*k2", f"k={k}, k1*k2={k1 * k2}")
    _check(1 <= k1 <= n1, "1 <= k1 <= n1", f"k1={k1}, n1={n1}")
    _check(f["lam"] >= 2, "lambda >= 2", f"lambda={f['lam']}")


def _validate_repaired(f: dict) -> dict:
    _validate_common(f)
    m, n, k = f["m"], f["n"], f["k"]
    n2, k2, t1, lam = f["n2"], f["k2"], f["t1"], f["lam"]
    _check(f.get("lam_p") is None, "no lambda' in the repaired variant",
           f"lambda'={f.get('lam_p')}")
    _check(k < n, "k < n", f"k={k}, n={n}")
    _check(n <= m, "n <= m", f"n={n}, m={m}")
    _check(1 <= k2 < n2, "1 <= k2 < n2", f"k2={k2}, n2={n2}")
    t2 = (n2 - k2) // 2
    f.setdefault("t2", t2)
    _check(f["t2"] == t2, "t2 = floor((n2-k2)/2)", f"t2={f['t2']}, expected {t2}")
    _check(0 < t1 <= t2, "0 < t1 <= floor((n2-k2)/2)", f"t1={t1}, bound={t2}")
    t_formula = (n2 - k2 - 2 * t1) // (2 * lam)
    f.setdefault("t", t_formula)
    _check(
        f["t"] == t_formula,
        "t = floor((n2-k2-2*t1)/(2*lambda))",
        f"t={f['t']}, formula gives {t_formula}",
    )
    _check(f["t"] >= 1, "t >= 1", f"t={f['t']}")
    _check(f["t"] <= f["n1"] * t2, "t <= n1*t2", f"t={f['t']}, n1*t2={f['n1'] * t2}")
    _check(n2 % t1 == 0, "t1 divides n2", f"t1={t1}, n2={n2}")
    return f


def _validate_improved(f: dict) -> dict:
    _validate_common(f)
    m, n2, k2, t, t1 = f["m"], f["n2"], f["k2"], f["t"], f["t1"]
    lam, lam_p = f["lam"], f.get("lam_p")
    _check(n2 == m, "n2 = m", f"n2={n2}, m={m}")
    _check(1 <= k2 <= n2, "1 <= k2 <= n2", f"k2={k2}, n2={n2}")
    _check(lam_p is not None and 2 <= lam_p <= lam, "2 <= lambda' <= lambda",
           f"lambda'={lam_p}, lambda={lam}")
    t2 = (n2 - k2) // 2
    f.setdefault("t2", t2)
    _check(f["t2"] == t2, "t2 = floor((n2-k2)/2)", f"t2={f['t2']}, expected {t2}")
    _check(t >= 1, "t >= 1", f"t={t}")
    _check(t1 >= 1, "t1 >= 1", f"t1={t1}")
    _check(
        lam_p * t + t1 <= t2,
        "lambda'*t + t1 <= t2",
        f"lambda'*t + t1 = {lam_p * t + t1}, t2 = {t2}",
    )
    _check(n2 % t1 == 0, "t1 divides n2", f"t1={t1}, n2={n2}")
    return f


def _validate_original(f: dict):
    # the published sets omit t1; t1 >= 0 already caps t at the bound below
    n2, k2, lam, t = f["n2"], f["k2"], f["lam"], f["t"]
    bound = (n2 - k2) // (2 * lam)
    _check(
        t <= bound,
        "t <= floor((n2-k2)/(2*lambda))",
        f"t={t}, bound={bound}",
    )
    raise ParameterError(
        "supported variant",
        "the original scheme is not a supported cipher (its circulant "
        "scrambler cannot exist; see the audit module)",
    )


def setup(name: str | None = None, variant: str | None = None, **fields) -> ParamSet:
    """Validate a named or explicit parameter set; raise ParameterError otherwise."""
    if name is not None:
        key = name.lower()
        if key not in REGISTRY:
            raise ParameterError("known parameter set", f"unknown set {name!r}")
        merged = dict(REGISTRY[key])
        merged.update(fields)
        fields = merged
        fields.setdefault("name", key)
    if variant is not None:
        fields["variant"] = variant
    var = fields.get("variant")
    if var == "repaired":
        f = _validate_repaired(dict(fields))
    elif var == "improved":
        f = _validate_improved(dict(fields))
    elif var == "original":
        _validate_original(dict(fields))
        raise AssertionError("unreachable")
    else:
        raise ParameterError("variant in {repaired, improved}", f"variant={var!r}")
    return ParamSet(
        variant=var,
        m=f["m"], n=f["n"], k=f["k"],
        n1=f["n1"], n2=f["n2"], k1=f["k1"], k2=f["k2"],
        t=f["t"], t1=f["t1"], t2=f["t2"],
        lam=f["lam"], lam_p=f.get("lam_p"),
        name=f.get("name", ""), security=f.get("security", 0),
    )
