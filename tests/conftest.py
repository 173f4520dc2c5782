import pytest
from hypothesis import settings

from plexalg import parsing

# deterministic property tests: the same examples on every run, no
# wall-clock deadline (peeling deep towers through the view-stack oracle is
# slow by design); tests that need fewer examples say so themselves
settings.register_profile("plexalg", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("plexalg")

# canonical spec text for every fixture used across the suite
SPECS = {
    "Z": "Z",
    "Q": "Q",
    "LZZ": "Lex(Z, Z)",
    "LZQ": "Lex(Z, Q)",
    "A": "II(Z, Q)",
    "B": "I(Q, idx 1, Q)",
    "C": "SLII(Z, Q, prodH(full, triv))",
    "G": "SLII(Z, Q, graphH(1/2))",
    "E": "I(II(Z, Q), full, Q)",
    "V3": "III(Q, idx 1, idx 2, Q)",
    "V3b": "III(Q, idx 1, idx 3, Q)",
    "V4": "IV(Z, idx 2, Q)",
    "V4b": "IV(Z, idx 3, Q)",
}


@pytest.fixture(scope="session")
def alg():
    return {name: parsing.parse_algebra(s) for name, s in SPECS.items()}


@pytest.fixture(scope="session")
def el():
    def parse(a, text):
        return parsing.parse_elem(a, text)

    return parse
