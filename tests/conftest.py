import numpy as np
import pytest

from kdwitness import SPIN1, basis
from kdwitness.linalg import projector


@pytest.fixture(autouse=True)
def fresh_basis_cache():
    # A test that patches a module can leave parts computed under the patch
    # in the shared per-basis cache; no other test may see them.
    basis.clear_cache()
    yield
    basis.clear_cache()


@pytest.fixture(scope="session")
def spin1_projectors():
    return [projector(s) for s in SPIN1.min_uncertainty_states]


def label_index(name: str) -> int:
    return SPIN1.state_labels.index(name)


def state(name: str) -> np.ndarray:
    return SPIN1.min_uncertainty_states[label_index(name)]
