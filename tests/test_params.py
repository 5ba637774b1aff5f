import pytest

from gabkron.params import REGISTRY, ParameterError, setup


@pytest.mark.parametrize("name,t,t2", [
    ("new-gabkron-128", 12, 36),
    ("new-gabkron-192", 14, 44),
    ("new-gabkron-256", 14, 44),
])
def test_improved_registry_accepted(name, t, t2):
    p = setup(name)
    assert p.variant == "improved"
    assert p.t == t
    assert p.t2 == t2
    assert p.lam_p == 2
    assert p.n2 == p.m
    assert p.lam_p * p.t + p.t1 <= p.t2


@pytest.mark.parametrize("name,t", [
    ("rep-gabkron-128", 9),
    ("rep-gabkron-192", 13),
    ("rep-gabkron-256", 14),
])
def test_repaired_registry_accepted(name, t):
    p = setup(name)
    assert p.variant == "repaired"
    assert p.t == t
    assert p.t == (p.n2 - p.k2 - 2 * p.t1) // (2 * p.lam)
    assert p.k < p.n <= p.m


@pytest.mark.parametrize("name,bound", [
    ("gabkron-128-original", 2),
    ("gabkron-192-original", 3),
    ("gabkron-256-original", 4),
])
def test_original_registry_rejected_citing_t_bound(name, bound):
    with pytest.raises(ParameterError) as exc:
        setup(name)
    assert exc.value.constraint == "t <= floor((n2-k2)/(2*lambda))"
    assert f"bound={bound}" in exc.value.detail


def test_unknown_set_rejected():
    with pytest.raises(ParameterError):
        setup("gabkron-512")


def test_explicit_improved_constraints():
    base = dict(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
                t=1, t1=1, lam=3, lam_p=2)
    setup(**base)
    bad = dict(base, n2=10, m=12)
    with pytest.raises(ParameterError) as exc:
        setup(**bad)
    assert exc.value.constraint == "n2 = m"
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, t=2))
    assert exc.value.constraint == "lambda'*t + t1 <= t2"
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, lam_p=1))
    assert exc.value.constraint == "2 <= lambda' <= lambda"
    with pytest.raises(ParameterError) as exc:
        setup(variant="improved", m=14, n1=2, k1=2, n2=14, k2=2,
              t=1, t1=3, lam=3, lam_p=2)
    assert exc.value.constraint == "t1 divides n2"
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, t1=0))
    assert exc.value.constraint == "t1 >= 1"


def test_explicit_repaired_constraints():
    base = dict(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4, t1=2, lam=2)
    p = setup(**base)
    assert p.t == 1 and p.t2 == 4
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, m=20))
    assert exc.value.constraint == "n <= m"
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, t=3))
    assert exc.value.constraint == "t = floor((n2-k2-2*t1)/(2*lambda))"
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, t1=4))  # formula gives t = 0
    assert exc.value.constraint == "t >= 1"
    with pytest.raises(ParameterError) as exc:
        setup(**dict(base, lam=1))
    assert exc.value.constraint == "lambda >= 2"


def test_lambda_prime_forced_to_two_at_registry_sizes():
    f = dict(REGISTRY["new-gabkron-128"])
    f["lam_p"] = 3
    with pytest.raises(ParameterError) as exc:
        setup(**f)
    assert exc.value.constraint == "lambda'*t + t1 <= t2"


def test_lambda_prime_rejected_on_repaired_set():
    # the repaired P draws every block from V, so a lambda' would be carried
    # in the header and ignored by key generation
    for lam_p in (0, 2, 3):
        with pytest.raises(ParameterError) as exc:
            setup("rep-gabkron-128", lam_p=lam_p)
        assert exc.value.constraint == "no lambda' in the repaired variant"
    assert setup("rep-gabkron-128").lam_p is None


def test_variant_required():
    with pytest.raises(ParameterError) as exc:
        setup(m=12, n1=2, k1=2, n2=12, k2=4, t=1, t1=1, lam=3)
    assert "variant" in exc.value.constraint
