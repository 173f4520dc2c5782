import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers as _providers
from hypothesis.internal.constants_ast import Constants as _Constants

from plexalg import parsing

SRC = Path(__file__).resolve().parents[1] / "src"

# deterministic property tests: the same examples on every run, no
# wall-clock deadline (peeling deep towers through the view-stack oracle is
# slow by design); tests that need fewer examples say so themselves
settings.register_profile("plexalg", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("plexalg")

# Hypothesis replaces about 5% of its primitive draws with literals taken
# from every local module loaded so far, so the same derandomized test drew
# different examples depending on which other files the run had imported
# (perfbench/run.py, collected or not, moved them).  An empty pool makes the
# examples depend on the test alone.
_providers._get_local_constants = lambda: _Constants()

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


@pytest.fixture()
def fresh_python():
    """Run code in a new interpreter that imports the package from this
    checkout's src and nothing else yet; return what it prints."""
    def run(code, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
