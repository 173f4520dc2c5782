"""Layered benchmark for plexalg: law checking, tower depth, CLI start-up.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload is a closed loop with one client: the same
fixed work ("pass") is repeated until ``--seconds`` are used up, and
every output is checked against goldens recorded by ``record.py``.
``--seed`` picks one of the recorded input sets (seed modulo the slot
count; tower-depth also maps the elements of the next sets), so the
same seed always gives the same inputs.

``--trace 0`` prints the end-to-end metrics of untraced passes, with
times scaled to a reference machine speed (see OpTimer).
``--trace 1`` runs one untraced and one traced pass (plus fixed probes)
and prints the per-layer metrics; see README.md for their definitions.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402  (sibling module of this script)

WORKLOADS = ("check-fixtures", "tower-depth", "cli-verbs")
MIN_PASSES = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10
VERBS = ("build", "eval", "decompose", "represent", "rebuild")
CLI_ENTRY = "import sys; from plexalg.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import plexalg.cli; "
                "print(time.perf_counter() - t)")
SETUP_IMPORT = "plexalg.cli"  # imports every module of the package
HARNESS_MAX_SHARE = 0.05  # of a traced pass; above it a layer goes untraced
LAW_PROBE_FIXTURES = ("A", "B")  # one per decomposition branch
LAW_PROBE_BUDGET = 4
CAL_ITERS = 1000
CAL_REF = 250e-6  # seconds; about the loop's time on an idle 2-core x86 VM
TICK_S = 0.05
TOWER_SETS = 3  # input sets whose elements one tower-depth pass maps
clock = time.perf_counter


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:24]


def report_digest(report) -> str:
    return "report:" + digest((report.law, report.samples, report.counts,
                               report.violations))


def guarded(fn) -> str:
    """Outcome string of one operation; a raised error is an outcome too."""
    from plexalg.errors import PlexError

    try:
        return fn()
    except PlexError as e:
        return "raises:" + type(e).__name__
    except Exception as e:  # recorded as a mismatch, the run goes on
        return f"crash:{type(e).__name__}: {e}"


def load_goldens(workload):
    return json.loads((GOLDENS / f"{workload}.json").read_text())


def slot_of(goldens, seed: int) -> int:
    return seed % goldens["slots"]


def law_seed(slot: int, major: int, minor: int) -> int:
    return (slot << 16) | (major << 8) | minor


# ---------------------------------------------------------------------------
# check-fixtures: the `check --laws all` work on the shallow fixtures


def run_law(a, law, budget, seed):
    from plexalg import lawcheck

    if law == "fle":
        return lawcheck.check_fle_laws(a, budget=budget, seed=seed)
    if law.startswith("table"):
        return lawcheck.check_table(a, int(law[5:]), budget=budget, seed=seed)
    return lawcheck.check_named(a, law, budget=budget, seed=seed)


def prepare_check(g, slot, smoke, workdir):
    from plexalg import parsing

    names = g["smoke_fixtures"] if smoke else list(g["fixtures"])
    order = list(g["fixtures"])
    return {
        "slot": slot,
        "budget": g["budget"],
        "laws": g["laws"],
        "algs": [(order.index(n), n, parsing.parse_algebra(g["fixtures"][n]))
                 for n in names],
        "expected": g["expected"][slot],
    }


def pass_check(st, timer, span, tr=None):
    for fi, name, a in st["algs"]:
        for li, law in enumerate(st["laws"]):
            key = f"{name}/{law}"
            seed = law_seed(st["slot"], fi, li)
            with span(key):
                timer.run(key, lambda: report_digest(
                    run_law(a, law, st["budget"], seed)))


# ---------------------------------------------------------------------------
# tower-depth: II(Z, Q) wrapped d-1 times in I(., full, Q)


def prepare_tower(g, slot, smoke, workdir, sets=TOWER_SETS):
    """Inputs of a tower-depth pass: the elements of ``sets`` input sets
    from ``slot`` on are mapped, so that which elements a seed draws
    moves the per-operation latencies less (one set's depth-4 elements
    cost twice another's)."""
    from plexalg import parsing

    depths = g["smoke_depths"] if smoke else g["depths"]
    slots = [(slot + j) % g["slots"] for j in range(sets)]
    levels, expected = [], dict(g["expected"][slot])
    for d in depths:
        a = parsing.parse_algebra(g["specs"][str(d)])
        texts = [(s, i, t) for s in slots
                 for i, t in enumerate(g["elements"][s][str(d)])]
        levels.append((d, a, [parsing.parse_elem(a, t) for _, _, t in texts]))
        expected.update({f"d{d}/map{n}": g["expected"][s].get(f"d{d}/map{i}")
                         for n, (s, i, _) in enumerate(texts)})
    return {"slot": slot, "levels": levels, "hom_budget": g["hom_budget"],
            "fle_budget": g["fle_budget"], "expected": expected}


def pass_tower(st, timer, span, tr=None):
    from plexalg import decompose, lawcheck, parsing

    op = timer.run
    for d, a, xs in st["levels"]:
        held = {}

        def represent():
            held["tree"] = parsing.print_reptree(
                decompose.group_representation(a))
            return held["tree"]

        def round_trip():
            tree = parsing.parse_reptree(held["tree"])
            return parsing.print_algebra(decompose.rebuild(tree))

        def embedding():
            _, rebuilt, held["alpha"] = decompose.representation_embedding(a)
            return parsing.print_algebra(rebuilt)

        def embed_lex():
            # one seed for every input set: at budget 1 the cost hangs on
            # the two elements drawn (+-15%), and at depth 5 this check is
            # over half the pass
            monoid, emb = decompose.lex_embedding(a)
            return report_digest(lawcheck.check_hom(
                emb, a, monoid, budget=st["hom_budget"],
                seed=law_seed(0, d, 0), with_comp=False, law="embed-lex"))

        def fle():
            return report_digest(lawcheck.check_fle_laws(
                a, budget=st["fle_budget"], seed=law_seed(st["slot"], d, 1)))

        with span(f"d{d}"):
            op(f"d{d}/represent", represent)
            op(f"d{d}/rebuild", round_trip)
            op(f"d{d}/embedding", embedding)
            for i, x in enumerate(xs):
                op(f"d{d}/map{i}", lambda: digest(held["alpha"](x)))
            op(f"d{d}/embed-lex", embed_lex)
            op(f"d{d}/fle", fle)


def map_times(ops, depth):
    prefix = f"d{depth}/map"
    return [t for key, _, t in ops if key.startswith(prefix)]


# ---------------------------------------------------------------------------
# cli-verbs: sequential subprocess calls of the short verbs


def prepare_cli(g, slot, smoke, workdir):
    for name, text in g["files"].items():
        (workdir / name).write_text(text)
    calls = g["calls"][slot]
    if smoke:
        calls = [c for c in calls if c["name"].split("/")[0] in
                 g["smoke_prefixes"]]
    return {"calls": calls, "workdir": workdir, "child_rss_kb": [],
            "expected": {c["name"]: cli_outcome(c["exit"], c["stdout"])
                         for c in calls}}


def cli_outcome(code, stdout) -> str:
    return f"exit={code}\n{stdout}"


def cli_argv(call, workdir, trace_out=None):
    args = [str(workdir / a[1:]) if a.startswith("@") else a
            for a in call["args"]]
    if trace_out is not None:
        return [sys.executable, str(HERE / "cli_child.py"), str(trace_out)] + args
    return [sys.executable, "-c", CLI_ENTRY] + args


def cli_call(call, workdir, tr=None, rss_kb=None):
    """Outcome of one CLI invocation.

    The child is reaped with wait4 so that its own peak resident set
    can be appended to ``rss_kb``."""
    trace_out = workdir / "child-trace.json" if tr is not None else None
    argv = cli_argv(call, workdir, trace_out)
    t0 = clock()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT)
    with proc.stdout:
        stdout = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    call_s = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if tr is not None:
        tr.absorb(json.loads(trace_out.read_text()), call_s)
    if rss_kb is not None:
        rss_kb.append(usage.ru_maxrss)
    return cli_outcome(proc.returncode, stdout)


def pass_cli(st, timer, span, tr=None):
    for call in st["calls"]:
        with span(call["name"]):
            timer.run(call["name"], lambda: cli_call(
                call, st["workdir"], tr, st["child_rss_kb"]))


WORKLOAD_IMPL = {
    "check-fixtures": (prepare_check, pass_check),
    "tower-depth": (prepare_tower, pass_tower),
    "cli-verbs": (prepare_cli, pass_cli),
}


# ---------------------------------------------------------------------------
# checking and statistics


class Tally:
    """Operations checked against goldens, and the mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ops, expected):
        for key, out, _ in ops:
            self.attempted += 1
            if expected.get(key) != out:
                self.failed += 1
                if self.failed <= 5:
                    print(f"mismatch {key}: expected {expected.get(key)!r}, "
                          f"got {out!r}", file=sys.stderr)


def _calibration_step(i, acc):
    return acc + (i * 7 + (i >> 1)) % 13


def calibration() -> float:
    """Seconds taken by a fixed pure-Python loop (calls, tuples, ints,
    dict stores: the interpreter work the package does)."""
    t0 = clock()
    acc, seen = 0, {}
    for i in range(CAL_ITERS):
        pair = (i, i + 1)
        acc = _calibration_step(pair[0], acc) + pair[1]
        seen[i & 15] = pair
    return clock() - t0


class OpTimer:
    """Times the operations of a pass: (key, outcome, seconds) each.

    With ``calibrate``, each operation's time is scaled by CAL_REF over
    the mean time of the calibration loop run just before and after it
    and, from a SIGALRM timer, every TICK_S during it (the time of those
    runs is taken out of the operation's).  On a shared 2-core VM the
    speed of the same work changed by up to 2x within minutes, and
    between two speeds within seconds (other tenants), far beyond any
    useful bound on raw times; the loop slows down in step, so scaled
    times are "reference seconds" that stay put while a change to the
    program still moves them in proportion."""

    def __init__(self, calibrate=False):
        self.ops = []
        self.calibrate = calibrate
        self.raw_s = 0.0
        self.cals = [calibration()] if calibrate else []

    def run(self, key, fn, own_time=False):
        """Time fn() and record (key, outcome, seconds).

        With ``own_time``, fn returns (outcome, seconds): the seconds a
        child process timed around its own work stand for the call."""
        ticks = []
        if self.calibrate:
            old = signal.signal(signal.SIGALRM, lambda signum, frame:
                                ticks.append(calibration()))
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            t0 = clock()
            if own_time:
                out, dt = fn()
            else:
                out = guarded(fn)
                dt = clock() - t0 - sum(ticks)
        finally:
            if self.calibrate:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self.raw_s += dt
        if self.calibrate:
            self.cals += ticks
            loops = [self.cals[-1 - len(ticks)], calibration()] + ticks
            self.cals.append(loops[1])
            # a loop run that lost the processor says nothing about speed
            cap = 3 * statistics.median(loops)
            dt *= CAL_REF / statistics.fmean(t for t in loops if t <= cap)
        self.ops.append((key, out, dt))
        return out

    def speed(self) -> float:
        """Machine speed relative to the reference (1: loop takes CAL_REF)."""
        return CAL_REF / statistics.median(self.cals) if self.cals else 1.0


def tail_stats(times, passes=1):
    """(p50, tail value, tail percentile) of the operation times of a run.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    per pass beyond it (the maximum when a pass has fewer operations).
    Counting per pass fixes the percentile by the workload, so it does
    not move with the number of passes, that is with machine speed."""
    xs = sorted(times)
    n = len(xs)
    beyond = TAIL_BEYOND * passes
    if n > beyond:
        tail, pct = xs[n - beyond - 1], 100.0 * (n - beyond) / n
    else:
        tail, pct = xs[-1], 100.0
    return statistics.median(xs), tail, pct


def setup_probe(argv):
    """(outcome, seconds) of one set-up probe child: the seconds are its
    package import and input preparation, timed inside the child, so
    interpreter start and the harness's own imports and golden files
    stay out of them."""
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode:
        return f"exit={proc.returncode}", 0.0
    return "exit=0", float(proc.stdout)


# ---------------------------------------------------------------------------
# probes shared by every workload


def growth_probe(tally):
    """Per-element map time at depth 5 over depth 4 (untraced).

    Maps the elements of the fixed recorded input sets 0 to TOWER_SETS-1,
    whatever the seed and the workload, because the cost per element
    depends on the element (up to 2x at depth 5), so that a ratio taken
    from the seed's own sets moves with the seed.  The two depths
    alternate element by element, so that machine noise hits both
    alike."""
    from plexalg import decompose

    st = prepare_tower(dict(load_goldens("tower-depth"), depths=[4, 5]), 0,
                       False, None)
    maps = [(d, decompose.representation_embedding(a)[2], xs)
            for d, a, xs in st["levels"]]
    timer = OpTimer(calibrate=True)
    for i in range(len(maps[0][2])):
        for d, alpha, xs in maps:
            timer.run(f"d{d}/map{i}", lambda: digest(alpha(xs[i])))
    tally.check(timer.ops, st["expected"])
    return (statistics.median(map_times(timer.ops, 5))
            / statistics.median(map_times(timer.ops, 4)))


def depth_probe(slot, tally, pairs_per_depth=128, represent_repeats=3):
    """Per-depth op cost, map cost, chains fan-out and represent time."""
    from plexalg import chains, decompose

    g = load_goldens("tower-depth")
    st = prepare_tower(dict(g, depths=[1, 2, 3, 4, 5]), slot_of(g, slot),
                       False, None)
    out = {}
    for d, a, xs in st["levels"]:
        pairs = [(x, y) for x in xs for y in xs]
        times = []
        for k in range(pairs_per_depth):
            x, y = pairs[k % len(pairs)]
            t0 = clock()
            chains.mul(a, x, y)
            chains.comp(a, x)
            times.append(clock() - t0)
        out[f"chains.op_us.d{d}"] = statistics.median(times) * 1e6

        _, _, alpha = decompose.representation_embedding(a)
        timer = OpTimer()
        for i, x in enumerate(xs):
            timer.run(f"d{d}/map{i}", lambda: digest(alpha(x)))
        tally.check(timer.ops, st["expected"])
        out[f"decompose.alpha_ms.d{d}"] = statistics.median(
            t for _, _, t in timer.ops) * 1e3

        fan = tracing.Tracer(layers=("chains", "decompose"))
        with fan.installed():
            for x in xs:
                alpha(x)
        out[f"decompose.base_ops_per_elem.d{d}"] = fan.entries["chains"] / len(xs)

        times = []
        for _ in range(represent_repeats):
            t0 = clock()
            decompose.group_representation(a)
            times.append(clock() - t0)
        out[f"decompose.represent_s.d{d}"] = statistics.median(times)
    return out


def cli_probe(slot, workdir, tally, repeats=5, verb_repeats=3):
    """Interpreter start, package import and one call of each verb."""
    env = child_env()
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        times.append(clock() - t0)
    out = {"cli.python_ms": statistics.median(times) * 1e3}
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                              env=env, capture_output=True)
        times.append(float(proc.stdout))
    out["cli.import_ms"] = statistics.median(times) * 1e3

    g = load_goldens("cli-verbs")
    st = prepare_cli(g, slot % g["slots"], False, workdir)
    for verb in VERBS:
        call = next(c for c in st["calls"] if c["name"].startswith(f"E/{verb}"))
        timer = OpTimer()
        for _ in range(verb_repeats):
            timer.run(call["name"], lambda: cli_call(call, workdir))
        tally.check(timer.ops, st["expected"])
        out[f"cli.verb_ms.{verb}"] = statistics.median(
            t for _, _, t in timer.ops) * 1e3
    return out


def law_probe(laws, tally):
    """Every law once on a fixture of each branch, at a tiny budget.

    Only used to give law and sampling times a measured value in the
    traced runs of workloads that never reach those layers."""
    from plexalg import parsing

    fixtures = load_goldens("check-fixtures")["fixtures"]
    for name in LAW_PROBE_FIXTURES:
        a = parsing.parse_algebra(fixtures[name])
        for law in laws:
            tally.attempted += 1
            out = guarded(lambda: "pass" if run_law(
                a, law, LAW_PROBE_BUDGET, 0).passed else "violation")
            if out not in ("pass", "raises:WrongBranch"):
                tally.failed += 1


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(tr, laws):
    """Per-layer values of one tracer; None where the layer never ran."""
    e, s, f = tr.entries, tr.self_s, tr.family_calls

    def busy(layer):
        return s[layer] if e[layer] else None

    m = {
        "kernel.calls": e["kernel"],
        "kernel.self_s": busy("kernel"),
        "kernel.int_fast_frac": (tr.rat_int_fast / tr.rat_ops
                                 if tr.rat_ops else None),
        "groups.calls.g_member": f["g_member"],
        "groups.self_s": busy("groups"),
        "chains.calls.membership": f["membership"],
        "chains.calls.mul": f["mul"],
        "chains.calls.comp": f["comp"],
        "chains.calls.cmp_elems": f["cmp_elems"],
        "chains.calls.cover": f["cover"],
        "chains.self_s": busy("chains"),
        "sampling.draws": tr.draws,
        "sampling.rejects": tr.rejects,
        "sampling.accept_frac": ((tr.draws - tr.rejects) / tr.draws
                                 if tr.draws else None),
        "sampling.self_s": busy("sampling"),
        "lawcheck.reports": len(tr.reports),
        "lawcheck.samples": sum(r[1] for r in tr.reports),
        "lawcheck.vacuous_reports": sum(1 for r in tr.reports if r[2]),
        "lawcheck.self_s": busy("lawcheck"),
        "decompose.self_s": busy("decompose"),
        "parsing.self_s": busy("parsing"),
        "build.calls": e["build"],
        "build.self_s": busy("build"),
    }
    for law in laws:
        spent = [r[3] for r in tr.reports if r[0] == law]
        m[f"lawcheck.law_s.{law}"] = sum(spent) if spent else None
    return m


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# runs


def measure(workload, seed, seconds, smoke, workdir, tally, info):
    """End-to-end metrics from untraced passes.

    Every pass runs the recorded inputs of the seed's slot, so each
    operation's times over the passes are times of identical work.
    wall_s sums, over the operations of a pass, each operation's median
    time over the passes, so a burst of machine noise that hits one pass
    does not move it; the latency percentiles pool all operation times
    of the run.  One set-up probe runs before each pass, spreading them
    over the run."""
    g = load_goldens(workload)
    prepare, run_pass = WORKLOAD_IMPL[workload]
    probe = [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    if not smoke:
        setup_probe(probe)  # the first start also writes bytecode caches
    setup = OpTimer(calibrate=True)
    walls, speeds, passes, child_rss_kb = [], [], [], []
    begin = clock()
    while True:
        setup.run("setup", lambda: setup_probe(probe), own_time=True)
        st = prepare(g, slot_of(g, seed), smoke, workdir)
        timer = OpTimer(calibrate=True)
        run_pass(st, timer, lambda name: nullcontext())
        walls.append(timer.raw_s)
        speeds.append(timer.speed())
        tally.check(timer.ops, st["expected"])
        passes.append(timer.ops)
        child_rss_kb += st.get("child_rss_kb", [])
        if len(passes) >= (1 if smoke else MIN_PASSES) and \
                clock() - begin + statistics.median(walls) > seconds:
            break
    while len(setup.ops) < (1 if smoke else SETUP_REPEATS):
        setup.run("setup", lambda: setup_probe(probe), own_time=True)
    tally.check(setup.ops, {"setup": "exit=0"})

    # the CLI children alone (reaped one by one), or this process before
    # the growth probe maps its own towers
    rss_kb = (max(child_rss_kb) if child_rss_kb else
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    typical = [statistics.median(ops[i][2] for ops in passes)
               for i in range(len(passes[0]))]
    all_ops = [op for ops in passes for op in ops]
    p50, tail, pct = tail_stats([t for _, _, t in all_ops], len(passes))
    growth = growth_probe(tally)

    info["passes"] = len(passes)
    info["pass_wall_s"] = walls
    info["speed"] = statistics.median(speeds)
    info["ops_per_pass"] = len(typical)
    info["tail_percentile"] = pct
    return {
        "setup_s": statistics.median(t for _, _, t in setup.ops),
        "wall_s": sum(typical),
        "peak_rss_mb": rss_kb / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "depth_growth": growth,
        "call_p50_ms": p50 * 1e3,
        "call_tail_ms": tail * 1e3,
    }


def trace_layers(workload, seed, smoke, workdir, tally, info):
    """Per-layer metrics from one traced pass plus the shared probes."""
    g = load_goldens(workload)
    slot = slot_of(g, seed)
    prepare, run_pass = WORKLOAD_IMPL[workload]
    laws = load_goldens("check-fixtures")["laws"]

    t0 = clock()
    st = prepare(g, slot, smoke, workdir)
    timer = OpTimer()
    run_pass(st, timer, lambda name: nullcontext())
    untraced = clock() - t0
    tally.check(timer.ops, st["expected"])

    tr = tracing.Tracer()
    timer = OpTimer()
    with tr.installed():
        with tr.span(workload):
            st = prepare(g, slot, smoke, workdir)
            run_pass(st, timer, tr.span, tr)
    tally.check(timer.ops, st["expected"])
    harness = tr.self_s[tracing.BENCH] / tr.wall_s
    if harness > HARNESS_MAX_SHARE:
        raise RuntimeError(f"{harness:.1%} of the traced wall time is outside "
                           "the package layers and CLI start-up; the tracer "
                           "misses a layer")

    metrics = layer_metrics(tr, laws)
    if any(v is None for v in metrics.values()):
        fill = tracing.Tracer()
        with fill.installed():
            law_probe(laws, tally)
        for key, value in layer_metrics(fill, laws).items():
            if metrics[key] is None:
                metrics[key] = value
    metrics.update(depth_probe(slot, tally))
    metrics.update(cli_probe(slot, workdir, tally))
    metrics["trace.overhead"] = tr.wall_s / untraced
    metrics["trace.attributed_frac"] = sum(
        tr.self_s[layer] for layer in tracing.LAYERS) / tr.wall_s
    info["spans"] = tr.spans
    info["untraced_s"] = untraced
    info["traced_s"] = tr.wall_s
    info["harness_frac"] = harness
    return metrics


def run(workload, seed, seconds, trace, smoke=False):
    """(result line, info) of one benchmark run."""
    from plexalg import kernel

    e2e_units, layer_units = metric_units()
    tally = Tally()
    info = {"env": {"kernel_impl": kernel.KERNEL_IMPL,
                    "python": platform.python_version(),
                    "nproc": os.cpu_count(), "seed": seed,
                    "workload": workload, "trace": trace,
                    "seconds": seconds, "smoke": smoke}}
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if trace:
            values = trace_layers(workload, seed, smoke, workdir, tally, info)
            units = layer_units
        else:
            values = measure(workload, seed, seconds, smoke, workdir, tally,
                             info)
            units = e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    unmeasured = sorted(k for k in units if values[k] is None)
    if unmeasured:
        raise RuntimeError(f"metrics without a value: {unmeasured}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, info


def smoke():
    """Each workload once at minimal size, untraced and traced; every
    metric named in BENCHMARK.json must be present with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(w["name"], 0, 0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            fine = got == want and result["failed"] == 0 and \
                result["correct"] and (trace or
                                       result["metrics"]["ok_frac"]["value"] == 1)
            ok = ok and fine
            print(f"smoke {w['name']} trace={trace}: "
                  f"{'ok' if fine else 'FAILED'} "
                  f"({result['attempted']} checked, {result['failed']} failed)")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result, environment and "
                    "spans to this JSON file (input of compare.py)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at minimal size and check "
                    "that every metric is emitted")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "plexalg").is_dir():
        print(f"error: no package source at {SRC / 'plexalg'}; run from a "
              "plexalg source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        g = load_goldens(args.workload)
        prepare = WORKLOAD_IMPL[args.workload][0]
        workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
        try:
            t0 = clock()
            importlib.import_module(SETUP_IMPORT)
            prepare(g, slot_of(g, args.seed), False, workdir)
            print(clock() - t0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    print("# env " + json.dumps(info["env"]))
    if args.trace:
        print(f"# traced pass {info['traced_s']:.3f} s, untraced "
              f"{info['untraced_s']:.3f} s, {len(info['spans'])} spans, "
              f"{info['harness_frac']:.2%} of it harness time")
    else:
        print(f"# machine speed {info['speed']:.3f} of the reference; times "
              "are reference seconds (see OpTimer)")
        print(f"# {info['passes']} passes of {info['ops_per_pass']} "
              f"operations; call_tail_ms is p{info['tail_percentile']:.1f} "
              f"(the highest percentile with >= {TAIL_BEYOND} operations "
              f"per pass beyond it) of all operations of the run")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": info["env"], "result": result,
             "info": {k: v for k, v in info.items() if k != "env"}}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
