"""Fast checks of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import votingpower  # noqa: E402
from votingpower import cli, divisor, fixedpoint, indices  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)
    assert len(make(3)) == len(make(4))  # same stratum sizes on every seed


def test_probes_are_deterministic_per_seed():
    assert workloads.index_probes(5) == workloads.index_probes(5)
    assert workloads.index_probes(5) != workloads.index_probes(6)


def test_interleave_keeps_every_prefix_proportional():
    a = [workloads.Op(("a", str(i)), 1) for i in range(30)]
    b = [workloads.Op(("b", str(i)), 2) for i in range(10)]
    merged = workloads._interleave([a, b])
    assert sorted(merged, key=str) == sorted(a + b, key=str)
    for k in range(1, len(merged) + 1):
        count = Counter(op.argv[0] for op in merged[:k])
        assert abs(count["b"] - k / 4) <= 1


def _references(fn):
    """Every (module, attribute) in the package that holds ``fn``."""
    return sorted(
        (name, attr)
        for name, module in list(sys.modules.items())
        if name == "votingpower" or name.startswith("votingpower.")
        for attr, value in vars(module).items()
        if value is fn
    )


def test_patched_reaches_callers_and_restores_originals():
    originals = {
        (layer, fn): spans.package_function(layer, fn) for layer, fn in spans.TRACED
    }
    before = {key: _references(fn) for key, fn in originals.items()}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.patched(tracer.replacements()):
            assert divisor.ss_dp is not originals[("indices", "ss_dp")]
            assert fixedpoint.ss_dp is not originals[("indices", "ss_dp")]
            assert indices.scale_to_integers is not originals[("core", "scale_to_integers")]
            with redirect_stdout(io.StringIO()):
                assert cli.main([*workloads.WARMUP["divisor-scan"]]) == 0
            raise RuntimeError("leave the block by an exception")
    for key, fn in originals.items():
        assert _references(fn) == before[key], key
    names = Counter(s.name for s in tracer.spans)
    assert names["cli.main"] == 1 and names["indices.ss_dp"] >= 1
    assert votingpower.ss_dp is originals[("indices", "ss_dp")]


def test_spans_nest_and_summarize_to_every_metric():
    tracer = spans.Tracer()
    with spans.patched(tracer.replacements()), redirect_stdout(io.StringIO()):
        cli.main(["fixedpoint", "--weights", "3,2,2,1", "--index", "ss", "--format", "json"])
    by_id = {s.id: s for s in tracer.spans}
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["cli.main"]
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    metrics = spans.summarize(tracer.spans, votingpower.scale_to_integers)
    assert set(metrics) == {name for name, _ in spans.per_layer_names()}
    assert metrics["fixedpoint.iterate.calls"] == 1
    assert metrics["fixedpoint.denominator_bits.max"] > 0
    assert 0 <= metrics["cli.main.self_s"] <= metrics["cli.main.busy_s"]


def test_metrics_stay_within_what_json_readers_hold():
    # 1/p weights over twelve primes scale to a total past 2^53.
    primes = [p for p in range(11, 60) if all(p % q for q in range(2, p))]
    weights = ",".join(f"1/{p}" for p in primes)
    tracer = spans.Tracer()
    with spans.patched(tracer.replacements()), redirect_stdout(io.StringIO()):
        cli.main(["index", "--quota", "1/11", "--weights", weights, "--format", "json"])
    metrics = spans.summarize(tracer.spans, votingpower.scale_to_integers)
    assert metrics["core.scaled_total.max"] > 2**53
    for name, value in metrics.items():  # a double, or an integer a double holds exactly
        assert isinstance(value, float) and math.isfinite(value) or abs(value) < 2**53, name


def test_oracle_reproduces_engine_output():
    argv = ["index", "--quota", "7", "--weights", "4,3,2,2,1", "--format", "json"]
    plain, checked = io.StringIO(), io.StringIO()
    with redirect_stdout(plain):
        cli.main(argv)
    calls = [0]
    with spans.patched(spans.oracle_replacements(calls)), redirect_stdout(checked):
        cli.main(argv)
    assert calls[0] >= 3 and checked.getvalue() == plain.getvalue()


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_traced_child_emits_every_per_layer_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "index-mix", "--seed", "0",
         "--seconds", "0.3", "--trace"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0] == "ready"
    result = json.loads(out[-1])
    assert set(result["per_layer"]) == {name for name, _ in spans.per_layer_names()}
    assert result["check"]["correct"]
    assert {p["kind"] for p in result["probes"]} == {"MemoryError", "OverflowError"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "orbit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
