from gabkron.prng import SeededRng, SystemRng


def test_system_rng_ranges():
    rng = SystemRng()
    assert isinstance(rng, SeededRng)
    for m in (1, 4, 64, 65, 211):
        for _ in range(50):
            assert 0 <= rng.element(m) < 1 << m
            assert 0 < rng.nonzero_element(m) < 1 << m
    for bound in (1, 2, 7, 1 << 70):
        assert all(0 <= rng.randrange(bound) < bound for _ in range(50))
    pool = list(range(10))
    for count in (0, 3, 10):
        drawn = rng.sample(pool, count)
        assert len(drawn) == len(set(drawn)) == count
        assert set(drawn) <= set(pool)
    assert len(rng.bytes(17)) == 17
    assert rng.bits(5) < 32
