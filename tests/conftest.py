import pytest

from gabkron.gf2m import FieldCtx
from gabkron.params import setup
from gabkron.prng import SeededRng
from gabkron.ranklinalg import RankVector


@pytest.fixture
def ctx4():
    return FieldCtx(4)


@pytest.fixture
def ctx6():
    return FieldCtx(6)


@pytest.fixture
def ctx8():
    return FieldCtx(8)


@pytest.fixture
def rng():
    return SeededRng(b"gabkron-tests")


def fresh_rng(label: bytes) -> SeededRng:
    return SeededRng(b"gabkron-tests/" + label)


def vec_mat(u, M):
    """The product u·M of a RankVector by a RankMatrix, as a RankVector."""
    if len(u) != M.nrows:
        raise ValueError("dimension mismatch")
    return RankVector(M.ctx, M.left_mul_values(u.values))


@pytest.fixture
def toy_improved():
    return setup(variant="improved", m=12, n1=2, k1=2, n2=12, k2=4,
                 t=1, t1=1, lam=3, lam_p=2)


@pytest.fixture
def toy_improved_wide():
    # n1 > k1 leaves spare blocks for information-set retries
    return setup(variant="improved", m=12, n1=3, k1=2, n2=12, k2=4,
                 t=1, t1=1, lam=3, lam_p=2)


@pytest.fixture
def toy_repaired():
    return setup(variant="repaired", m=24, n1=2, k1=2, n2=12, k2=4,
                 t1=2, lam=2)
