"""Compare two benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric of both results with the relative change and, for
end-to-end metrics, whether the change stays within the metric's bound
in BENCHMARK.json.  Refuses (exit 2) to compare results whose kernel
implementation, workload or trace mode differ: those numbers do not
measure the same program.  Exits 1 when the new result has any failed
operation, whatever the bounds say: a wrong output is never "ok".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("kernel_impl", "workload", "trace")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in SAME:
        if old["env"][key] != new["env"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({old['env'][key]!r} vs {new['env'][key]!r})",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'metric':40} {'old':>12} {'new':>12} {'change':>8}")
    for name, m in new["result"]["metrics"].items():
        if name not in old["result"]["metrics"]:
            continue
        a = old["result"]["metrics"][name]["value"]
        b = m["value"]
        change = (b - a) / a if a else float("nan")
        line = f"{name:40} {a:12.6g} {b:12.6g} {change:+8.1%}"
        if name in e2e:
            worse = -change if e2e[name]["better"] == "higher" else change
            line += "  REGRESSION" if worse > e2e[name]["bound"] else "  ok"
        print(line + f" {m['unit']}")
    result = new["result"]
    if result["failed"] or not result["correct"]:
        print(f"FAILED: {result['failed']} of {result['attempted']} operations "
              "of the new result differ from the goldens", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
