"""Self-test of the benchmark: every workload passes its oracle at a tiny
size, every oracle rejects a deliberately wrong answer, and the tracer and
BENCHMARK.json agree with the metrics the runner prints.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from curveatlas import search  # noqa: E402
from curveatlas.fixedreal import FixedReal  # noqa: E402
from curveatlas.maps import MapDomainError  # noqa: E402
from perfbench import run, tracing, workloads as W  # noqa: E402


def tiny(name, tmp_path):
    return W.make(name, tmp_path, ROOT / "src", jobs=2, tiny=True)


def first_output(wl, traced=False):
    inp = wl.round(random.Random(7))[0]
    return inp, wl.op(inp, traced=traced)


@pytest.mark.parametrize("name", W.NAMES)
def test_tiny_round_passes_oracle(name, tmp_path):
    wl = tiny(name, tmp_path)
    inputs = wl.round(random.Random(3))
    assert inputs
    for inp in inputs:
        wl.check(inp, wl.op(inp))


@pytest.mark.parametrize("name", W.NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    wl = W.make(name, tmp_path, ROOT / "src", jobs=1)
    assert wl.round(random.Random("x:1")) == wl.round(random.Random("x:1"))
    assert wl.round(random.Random("x:1")) != wl.round(random.Random("x:2"))


# -- each oracle rejects a wrong answer ---------------------------------------


def rejects(wl, inp, out):
    with pytest.raises(W.OracleError):
        wl.check(inp, out)


def test_tower_oracle_rejects_perturbed_pair_j_and_residual(tmp_path):
    wl = W.TowerPrecision(tiny=True)
    inp = (43, None)
    out = wl.op(inp)
    a3, b3 = out["pair"]
    rejects(wl, inp, {**out, "pair": (a3 + 1, b3)})
    rejects(wl, inp, {**out, "j": out["j"] + 1})
    rep = copy.copy(out["tower"])
    rep.residuals = dict(rep.residuals, **{"eq2.2": FixedReal.from_int(1, rep.prec)})
    rejects(wl, inp, {**out, "tower": rep})
    rejects(wl, inp, {**out, "selftest": FixedReal.from_int(1, out["prec"])})


def test_search_oracle_rejects_dropped_point_and_wrong_count(tmp_path):
    wl = tiny("search-sweep", tmp_path)
    inp, out = first_output(wl)
    (ks, rec), *rest = out
    dropped = copy.copy(ks)
    dropped.found = [r for r in ks.found if r.pt != (Fraction(2), Fraction(14))]
    assert len(dropped.found) == len(ks.found) - 1
    rejects(wl, inp, [(dropped, search.reconcile(dropped, []))] + rest)
    miscounted = copy.copy(ks)
    miscounted.scanned += 1
    rejects(wl, inp, [(miscounted, rec)] + rest)
    unclean = copy.copy(rec)
    unclean.search_only = [(Fraction(5), Fraction(0))]
    rejects(wl, inp, [(ks, unclean)] + rest)


def test_ks_scanned_formula_matches_enumeration():
    wl = W.SearchSweep(jobs=1)
    for h in range(1, 15):
        brute = sum(1 for p in range(-h, h + 1) for q in range(1, h + 1)
                    if gcd(abs(p), q) == 1)
        assert wl.ks_scanned(h) == brute == search.search_ks(h).scanned


def test_maps_oracle_rejects_broken_identity_pairing_and_chain(tmp_path):
    wl = tiny("maps-batch", tmp_path)
    inp, (rows, table) = first_output(wl)
    lhs, rhs, *others = rows[0]
    rejects(wl, inp, ([(lhs, (rhs[0] + 1, rhs[1]), *others)] + rows[1:], table))
    lhs, rhs, euler, cover, pell, chain = rows[1]
    rejects(wl, inp, (rows[:1] + [(lhs, rhs, False, cover, pell, chain)] + rows[2:], table))
    ok = next(i for i, (p, r) in enumerate(zip(inp[1], rows)) if p[0] != 0)
    lhs, rhs, euler, cover, pell, chain = rows[ok]
    broken = rows[:ok] + [(lhs, rhs, euler, cover, pell, [MapDomainError("k1_to_ks", ["al3"])])]
    rejects(wl, inp, (broken + rows[ok + 1:], table))
    zw = (Fraction(2), Fraction(14))
    ks = dict(table["ks"])
    ks[zw] = ((Fraction(-17), Fraction(151)), zw)
    rejects(wl, inp, (rows, {**table, "ks": ks}))
    ks = dict(table["ks"])
    del ks[zw]
    rejects(wl, inp, (rows, {**table, "ks": ks}))


def test_report_oracle_rejects_exit_code_failed_check_and_schema(tmp_path):
    wl = tiny("report", tmp_path)
    inp, code = first_output(wl)
    wl.check(inp, code)
    rejects(wl, inp, 1)
    good = json.loads(wl.out.read_text())

    def with_data(data):
        wl.out.write_text(json.dumps(data))
        rejects(wl, inp, 0)

    bad = copy.deepcopy(good)
    bad["checks"][0]["status"] = "fail"
    with_data(bad)
    bad = copy.deepcopy(good)
    bad["checks"][0]["extra"] = "x"
    with_data(bad)
    bad = copy.deepcopy(good)
    bad["checks"] = [c for c in bad["checks"] if not c["id"].startswith("search:Ks:point:(2,14)")]
    with_data(bad)


# -- tracing and the metric contract -------------------------------------------


def test_tracer_records_layers_and_restores_originals(tmp_path):
    from curveatlas import kernel, modular
    originals = (search.rational_sqrt, kernel.BivarPoly.evaluate,
                 FixedReal.__mul__, FixedReal.__rmul__,
                 modular.ModularContext.__dict__["create"])
    tracer = tracing.Tracer().install()
    try:
        assert search.rational_sqrt is not originals[0]
        assert FixedReal.__mul__ is FixedReal.__rmul__
        wl_s = tiny("search-sweep", tmp_path)
        wl_t = W.TowerPrecision(tiny=True)
        tracer.op = 1
        wl_s.op(wl_s.round(random.Random(1))[0], traced=True)
        tracer.op = 2
        wl_t.op((67, 256))
        tracer.op = None
        wl_t.op((67, 256))  # paused: records nothing
    finally:
        tracer.uninstall()
    assert (search.rational_sqrt, kernel.BivarPoly.evaluate, FixedReal.__mul__,
            FixedReal.__rmul__, modular.ModularContext.__dict__["create"]) == originals
    values = tracing.layer_values(tracer, n_ops=2)
    assert values["kernel.rational_sqrt.calls"] > 0
    assert 0 < values["kernel.rational_sqrt.square_ratio"] < 1
    assert values["search.search_integral.calls"] == 1.0  # two calls over two ops
    # three per tower op: its own context, and a boosted one in j_invariant,
    # which runs once directly and once more inside verify_tower
    assert values["modular.ModularContext.create.calls"] == 1.5
    assert values["fixedreal.FixedReal.mul.calls"] > 0
    assert values["modular.j_invariant.s"] > 0
    filled_by_runner = {"search.child_cpu_s", "bench.failed_ratio", "trace.ops_per_s_untraced",
                        "trace.ops_per_s_traced", "trace.overhead_ops_per_s"}
    missing = [n for n, _, _ in tracing.PER_LAYER if n not in values and n not in filled_by_runner]
    assert not missing


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(W.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    value, _ = run.tail([float(i) for i in range(1, 9)])
    assert value == 5.0  # too few samples: never below the median


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
