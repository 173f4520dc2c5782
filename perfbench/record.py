"""Record the benchmark's inputs and golden outputs.

    python3 perfbench/record.py

Writes perfbench/goldens/<workload>.json for every workload from the
program as it stands.  Run it only at a commit whose outputs are known
good: a later change that alters any output then shows up as failed
operations in run.py.  Every recorded operation must succeed
(expected-error CLI calls must exit with their documented codes), or
nothing is written.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import run as bench

SLOTS = 16

# the shallow acceptance fixtures (tests/conftest.py): Z-only and Q columns
FIXTURES = {
    "A": "II(Z, Q)",
    "B": "I(Q, idx 1, Q)",
    "C": "SLII(Z, Q, prodH(full, triv))",
    "G": "SLII(Z, Q, graphH(1/2))",
    "E": "I(II(Z, Q), full, Q)",
    "V3b": "III(Q, idx 1, idx 3, Q)",
    "V4b": "IV(Z, idx 3, Q)",
    "LZQ": "Lex(Z, Q)",
}
LAW_BUDGET = 50
DEPTHS = (1, 2, 3, 4, 5)
TOWER_ELEMS = 4
HOM_BUDGET = 1
TOWER_FLE_BUDGET = 20
EVAL_OPS = ("mul", "res", "comp", "tau", "le", "down", "up", "unit", "idems")
EXPR_ARITY = {"mul": 2, "res": 2, "le": 2, "comp": 1, "tau": 1, "down": 1,
              "up": 1, "unit": 0, "idems": 0}


def tower_spec(depth: int) -> str:
    spec = "II(Z, Q)"
    for _ in range(depth - 1):
        spec = f"I({spec}, full, Q)"
    return spec


def outcomes(ops):
    got = {}
    for key, out, _ in ops:
        if out.startswith("crash:") or key in got:
            raise SystemExit(f"cannot record {key}: {out}")
        got[key] = out
    return got


def record_check():
    from plexalg import lawcheck

    g = {"slots": SLOTS, "fixtures": FIXTURES, "budget": LAW_BUDGET,
         "laws": ["fle", *lawcheck.named_law_ids(),
                  "table1", "table2", "table3", "table4"],
         "smoke_fixtures": ["A", "B", "LZQ"], "expected": [{}] * SLOTS}
    expected = []
    for slot in range(SLOTS):
        st = bench.prepare_check(g, slot, False, None)
        timer = bench.OpTimer()
        bench.pass_check(st, timer, _no_span)
        expected.append(outcomes(timer.ops))
    return dict(g, expected=expected)


def record_tower():
    from plexalg import chains, parsing

    specs = {str(d): tower_spec(d) for d in DEPTHS}
    elements = []
    for slot in range(SLOTS):
        per_depth = {}
        for d in DEPTHS:
            a = parsing.parse_algebra(specs[str(d)])
            rng = random.Random(1000 + 10 * slot + d)
            texts = []
            for _ in range(TOWER_ELEMS):
                x = chains.sample_elem(a, rng)
                text = parsing.print_elem(a, x)
                if parsing.parse_elem(a, text) != x:
                    raise SystemExit(f"element {text} does not round-trip")
                texts.append(text)
            per_depth[str(d)] = texts
        elements.append(per_depth)
    g = {"slots": SLOTS, "depths": list(DEPTHS), "smoke_depths": [1, 2, 3],
         "specs": specs, "elements": elements, "hom_budget": HOM_BUDGET,
         "fle_budget": TOWER_FLE_BUDGET, "expected": [{}] * SLOTS}
    expected = []
    for slot in range(SLOTS):
        st = bench.prepare_tower(g, slot, False, None, sets=1)
        timer = bench.OpTimer()
        bench.pass_tower(st, timer, _no_span)
        expected.append(outcomes(timer.ops))
    return dict(g, expected=expected)


def cli_calls(slot, algs):
    """Per fixture build, decompose, represent and rebuild; each eval op
    once, on a fixture that rotates with the slot; two error calls."""
    from plexalg import chains, parsing

    names = list(algs)
    calls = []
    for name in names:
        spec = f"@{name}.alg"
        calls.append({"name": f"{name}/build", "args": ["build", "-f", spec]})
        if name != "LZQ":  # decompose on a bare group is an error call below
            calls.append({"name": f"{name}/decompose",
                          "args": ["decompose", "-f", spec]})
        calls.append({"name": f"{name}/represent",
                      "args": ["represent", "-f", spec]})
        calls.append({"name": f"{name}/rebuild",
                      "args": ["rebuild", "-f", f"@{name}.tree"]})
    for k, op in enumerate(EVAL_OPS):
        name = names[(k + slot) % len(names)]
        a = algs[name]
        rng = random.Random(5000 + 100 * slot + k)
        elems = [parsing.print_elem(a, chains.sample_elem(a, rng))
                 for _ in range(EXPR_ARITY[op])]
        calls.append({"name": f"{name}/eval/{op}",
                      "args": ["eval", "-f", f"@{name}.alg", "-e",
                               " ".join([op, *elems])]})
    calls.append({"name": "error/malformed",
                  "args": ["build", "-f", "@malformed.alg"]})
    calls.append({"name": "error/decompose-group",
                  "args": ["decompose", "-f", "@LZQ.alg"]})
    return calls


ERROR_EXITS = {"error/malformed": 1, "error/decompose-group": 2}


def record_cli():
    from plexalg import decompose, parsing

    algs = {n: parsing.parse_algebra(s) for n, s in FIXTURES.items()}
    files = {"malformed.alg": "II(Z, Q\n"}
    for name, spec in FIXTURES.items():
        files[f"{name}.alg"] = spec + "\n"
        files[f"{name}.tree"] = parsing.print_reptree(
            decompose.group_representation(algs[name])) + "\n"
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=bench.HERE))
    try:
        for fname, text in files.items():
            (workdir / fname).write_text(text)
        slots = []
        for slot in range(SLOTS):
            calls = cli_calls(slot, algs)
            for call in calls:
                out = bench.cli_call(call, workdir)
                code, stdout = out.split("\n", 1)
                call["exit"] = int(code[len("exit="):])
                call["stdout"] = stdout
                if call["exit"] != ERROR_EXITS.get(call["name"], 0):
                    raise SystemExit(f"cannot record {call['name']}: {out}")
            slots.append(calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"slots": SLOTS, "files": files, "smoke_prefixes": ["A", "error"],
            "calls": slots}


def _no_span(name):
    return nullcontext()


RECORDERS = {"check-fixtures": record_check, "tower-depth": record_tower,
             "cli-verbs": record_cli}


def main():
    bench.GOLDENS.mkdir(exist_ok=True)
    for name, record in RECORDERS.items():
        data = record()
        path = bench.GOLDENS / f"{name}.json"
        path.write_text(json.dumps(data, indent=0) + "\n")
        print(f"wrote {path.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
