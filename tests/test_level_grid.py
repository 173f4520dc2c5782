"""Every peel level pinned: its constants, operations, windows and laws.

For each spec and each level of its peel, tests/level_grid.json holds the
level's branch, description, step idempotent u and its complement nu,
unit and positive idempotents; digests of the level's operations over
seeded draws of the level, and of the step's classifier, invertibility
test and projection over seeded draws of its base; a digest of the
level's (1, 2) window where the input's ladder has at most three
entries; and the report line of every named law and product table at a
small budget (prop9.2, whose window is the input's, on the first level
of such a spec only), with one digest of all their check counts and
violation totals.  The file holds one line per level and is only read.
To print the grid of the code at hand, run this file with the package on
the path:

    PYTHONPATH=src python tests/test_level_grid.py > grid.json
"""

import hashlib
import json
import random
from pathlib import Path

from conftest import SPECS
from test_decompose import (LAW_FAILURE_SPECS, REGRESSION_SPECS, _outcome,
                            _peel_levels, case_spec)
from test_lawcheck import ALL_LAWS, _check

from plexalg import chains as ch
from plexalg import decompose as dec
from plexalg import lawcheck as lc
from plexalg import parsing as ps

GRID_CASES = (sorted(SPECS) + [f"tower{d}" for d in range(1, 6)]
              + REGRESSION_SPECS + LAW_FAILURE_SPECS)

DRAWS = 12  # seeded draws of a level and of its base
LAW_BUDGET = 3


def _digest(values) -> str:
    text = "\n".join(repr(_shown(v)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _shown(v):
    """A value, or the name of the PlexError type its call raised."""
    return v.__name__ if isinstance(v, type) else v


def _level_entry(a, level, index, small):
    show = lambda x: ps.print_elem(a, x)
    out = {"branch": level.branch, "describe": level.describe(),
           "u": show(level.u), "nu": show(level.nu),
           "unit": show(level.unit()),
           "pos_idems": [show(e) for e in level.pos_idems()]}
    xs = [level.sampler(random.Random(s))() for s in range(DRAWS)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    ops = {"mul": [_outcome(level.mul, p, q) for p, q in pairs]}
    for name in ("comp", "x_down", "x_up", "partial_vec", "validate", "tau"):
        ops[name] = [_outcome(getattr(level, name), x) for x in xs]
    if level.branch == dec.IDEM_BRANCH:
        for name in ("class_min", "class_max"):
            ops[name] = [_outcome(getattr(level, name), x) for x in xs]
    below = [level.base.sampler(random.Random(100 + s))()
             for s in range(DRAWS)]
    for name in ("kind", "grp", "project"):
        ops["base/" + name] = [_outcome(getattr(level, name), x)
                               for x in below]
    out["ops"] = {name: _digest(vals) for name, vals in sorted(ops.items())}
    if small:
        out["window"] = _digest(lc.window_elems(level, 1, 2))
    laws, counts = {}, []
    for law in ALL_LAWS:
        if law == "prop9.2" and (index > 1 or not small):
            continue
        r = _outcome(_check, level, law, LAW_BUDGET, 1)
        if isinstance(r, type):
            laws[law] = _shown(r)
        else:
            laws[law] = r.render()
            counts.append((law, r.counts, len(r.violations)))
    out["laws"], out["law_counts"] = laws, _digest(counts)
    return out


def level_grid(names=GRID_CASES) -> dict:
    grid = {}
    for name in names:
        a = ps.parse_algebra(case_spec(name))
        small = len(ch.ladder(a)[1]) <= 3
        levels = _peel_levels(dec.BaseChain(a))
        for index, level in enumerate(levels, start=1):
            grid[f"{name} L{index}"] = _level_entry(a, level, index, small)
    return grid


def test_every_peel_level_is_the_recorded_one():
    want = json.loads(
        (Path(__file__).resolve().parent / "level_grid.json").read_text())
    got = level_grid()
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


if __name__ == "__main__":
    grid = level_grid()
    print("{\n" + ",\n".join(
        "%s: %s" % (json.dumps(key), json.dumps(grid[key], sort_keys=True))
        for key in sorted(grid)) + "\n}")
