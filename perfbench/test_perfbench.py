"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

from plexalg import chains, decompose, kernel, lawcheck, parsing  # noqa: E402


def no_span(name):
    return nullcontext()


def test_smoke_emits_every_metric_without_failures():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=bench.ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 6


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-fixtures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_goldens_key_on_the_seed():
    g = bench.load_goldens("check-fixtures")
    st = bench.prepare_check(g, 1, True, None)
    timer = bench.OpTimer()
    bench.pass_check(st, timer, no_span)
    own, other = bench.Tally(), bench.Tally()
    own.check(timer.ops, g["expected"][1])
    other.check(timer.ops, g["expected"][2])
    assert own.failed == 0 and own.attempted == len(timer.ops)
    assert other.failed > 0


def test_tower_goldens_match_and_differ_between_seeds():
    g = bench.load_goldens("tower-depth")
    assert g["elements"][0] != g["elements"][1]
    st = bench.prepare_tower(g, 15, True, None)
    timer, tally = bench.OpTimer(), bench.Tally()
    bench.pass_tower(st, timer, no_span)
    tally.check(timer.ops, st["expected"])
    assert tally.attempted > 0 and tally.failed == 0
    # a pass maps the elements of the seed's set and the next ones
    maps = [key for key, _, _ in timer.ops if key.startswith("d1/map")]
    assert len(maps) == bench.TOWER_SETS * len(g["elements"][15]["1"])
    assert st["expected"]["d1/map0"] == g["expected"][15]["d1/map0"]
    assert st["expected"]["d1/map4"] == g["expected"][0]["d1/map0"]


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (chains.mul, lawcheck.mul, decompose.mul, kernel.radd,
                 lawcheck.SampleStream.draw)
    tr = tracer.Tracer()
    with tr.installed():
        wrapped = (chains.mul, lawcheck.mul, decompose.mul, kernel.radd,
                   lawcheck.SampleStream.draw)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert lawcheck.mul is chains.mul is decompose.mul
    assert (chains.mul, lawcheck.mul, decompose.mul, kernel.radd,
            lawcheck.SampleStream.draw) == originals


def test_recursion_counts_once_and_self_times_add_up():
    a = parsing.parse_algebra("I(I(II(Z, Q), full, Q), full, Q)")
    x = chains.unit(a)
    tr = tracer.Tracer()
    with tr.installed():
        report = lawcheck.check_fle_laws(a, budget=5, seed=1)
        before = tr.family_calls["mul"]
        chains.mul(a, x, x)  # recurses once per level
        assert tr.family_calls["mul"] == before + 1
        chains.res(a, x, x)  # mul and comp inside res count too
        assert tr.family_calls["mul"] == before + 2
    assert tr.reports == [("fle", report.samples, len(report.vacuous),
                           report.elapsed)]
    assert tr.entries["lawcheck"] == 1
    assert abs(sum(tr.self_s.values()) - tr.wall_s) < 1e-6 * max(1, tr.wall_s)


def test_traced_results_equal_untraced():
    a = parsing.parse_algebra("I(II(Z, Q), full, Q)")
    plain = lawcheck.check_named(a, "prop7.2.eqs", budget=10, seed=3)
    tr = tracer.Tracer()
    with tr.installed():
        traced = lawcheck.check_named(a, "prop7.2.eqs", budget=10, seed=3)
    assert traced == plain
    assert tr.draws > 0 and tr.rejects >= 0


def test_calibrated_times_scale_with_the_loop():
    timer = bench.OpTimer(calibrate=True)
    timer.run("op", lambda: "done")
    (key, out, seconds), = timer.ops
    assert (key, out) == ("op", "done")
    assert seconds == pytest.approx(
        timer.raw_s * 2 * bench.CAL_REF / (timer.cals[0] + timer.cals[1]))

    def slow():
        end = bench.clock() + 0.3
        while bench.clock() < end:
            pass
        return "slow"

    timer.run("slow", slow)
    assert len(timer.cals) > 5  # loop runs during the long operation
    assert timer.ops[-1][1] == "slow"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("n,passes,want_pct", [
    (5, 1, 100.0), (11, 1, 100 / 11), (40, 1, 75.0), (80, 2, 75.0)])
def test_tail_is_highest_percentile_with_ten_per_pass_beyond(n, passes,
                                                             want_pct):
    times = list(range(n))
    _, tail, pct = bench.tail_stats(times, passes)
    assert pct == pytest.approx(want_pct)
    beyond = sum(1 for t in times if t > tail)
    assert beyond == (10 * passes if n > 10 * passes else 0)


def test_compare_refuses_different_kernels(tmp_path):
    result = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    for name, impl in (("a.json", "py"), ("b.json", "c")):
        (tmp_path / name).write_text(json.dumps({
            "env": {"kernel_impl": impl, "workload": "tower-depth",
                    "trace": 0}, "result": result}))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           str(tmp_path / "a.json"), str(tmp_path / "b.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "kernel_impl" in proc.stderr


def test_compare_fails_on_one_failed_operation(tmp_path):
    env = {"kernel_impl": "py", "workload": "check-fixtures", "trace": 0}
    for name, failed in (("old.json", 0), ("new.json", 1)):
        (tmp_path / name).write_text(json.dumps({"env": env, "result": {
            "correct": failed == 0, "attempted": 2000, "failed": failed,
            "metrics": {"ok_frac": {"value": 1 - failed / 2000,
                                    "unit": "frac"}}}}))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           str(tmp_path / "old.json"),
                           str(tmp_path / "new.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "1 of 2000 operations" in proc.stderr


def test_absorb_moves_child_layers_and_startup_out_of_the_harness():
    tr = tracer.Tracer()
    tr.self_s[tracer.BENCH] = 1.0  # the parent waited 1 s on the child
    child = tracer.Tracer().snapshot()
    child["self_s"].update({tracer.BENCH: 0.01, "cli": 0.2, "chains": 0.09})
    tr.absorb(child, call_s=0.9)
    assert tr.self_s["cli"] == pytest.approx(0.2)
    assert tr.self_s["chains"] == pytest.approx(0.09)
    assert tr.self_s[tracer.STARTUP] == pytest.approx(0.6)
    assert tr.self_s[tracer.BENCH] == pytest.approx(0.11)
    assert sum(tr.self_s.values()) == pytest.approx(1.0)
