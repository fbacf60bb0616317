"""Benchmark of the votingpower CLI: one workload, one seed, one result line.

    python3 bench/run.py --workload divisor-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --record          # rewrite bench/reference.json

Each measured run is a fresh child process (`child.py`) that calls
``votingpower.cli.main(argv)`` in a closed loop, one call at a time, over a
seeded pool of invocations (`workloads.py`).  With ``--trace 0`` this script
also starts `SETUP_REPEATS` set-up-only children and prints the end-to-end
metrics; with ``--trace 1`` the child runs every op untraced and traced, in
turn, and this script prints the per-layer metrics, the tracing overhead and
the known-defect probes.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, ``meta {...}``, records the interpreter, CPU count, source revision, seed
and sample counts.  The exit code is 1 when an output is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "votingpower"

sys.path.insert(0, str(HERE))
from spans import DERIVED, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

TRACE_ONLY = (
    ("trace.ops_per_s.untraced", "1/s"),
    ("trace.ops_per_s.traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.cli_main.coverage", "ratio"),
)

#: Known-defect probes: the failure kinds a probe can end in at this commit.
PROBE_KINDS = ("MemoryError", "OverflowError", "deadline", "other")
PROBE_METRICS = (
    ("probe.attempted", "count"),
    ("probe.failed_ratio", "ratio"),
) + tuple((f"probe.failed.{kind}", "count") for kind in PROBE_KINDS)

#: Set-up-only children per untraced run; the measuring child adds one more sample.
SETUP_REPEATS = 9
#: Seeds whose per-call output digests are recorded in reference.json.
DEFAULT_SEEDS = range(5)
CHILD_TIMEOUT_S = 150
#: Top-level cli.main spans should cover at least this share of the traced time.
MIN_COVERAGE = 0.95
#: Tail latency is read where at least this many samples lie beyond it.
TAIL_BEYOND = 10


def per_layer_metrics() -> list[tuple[str, str]]:
    return per_layer_names() + list(TRACE_ONLY) + list(PROBE_METRICS)


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str, seconds: float = 0.0) -> tuple[float, dict | None]:
    """Start one child, wait for it to end; return (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S + seconds)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(cmd[1:])} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies, reverse=True)
    k = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[k], 100.0 * (1 - k / len(ordered))


def source_revision() -> dict:
    files = sorted(PACKAGE_DIR.glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def run_untraced(args) -> tuple[dict, dict]:
    setups = [spawn(args.workload, args.seed, "--setup-only")[0] for _ in range(SETUP_REPEATS)]
    setup, res = spawn(args.workload, args.seed, seconds=args.seconds)
    setups.append(setup)
    lat = res["latencies"]
    tail, pct = tail_latency(lat)
    metrics = {
        "ops_per_s": len(lat) / res["wall_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    meta = {"samples": len(lat), "tail_pct": round(pct, 3), "setup_samples": len(setups)}
    return metrics, dict(meta, **summary(res))


def run_traced(args) -> tuple[dict, dict]:
    _, res = spawn(args.workload, args.seed, "--trace", seconds=args.seconds)
    metrics = dict(res["per_layer"])
    untraced, traced = sum(res["latencies"]), sum(res["traced_latencies"])
    metrics["trace.ops_per_s.untraced"] = len(res["latencies"]) / untraced
    metrics["trace.ops_per_s.traced"] = len(res["traced_latencies"]) / traced
    metrics["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    metrics["trace.cli_main.coverage"] = res["top_level_busy_s"] / traced
    if metrics["trace.cli_main.coverage"] < MIN_COVERAGE:
        print(f"warning: cli.main spans cover only {metrics['trace.cli_main.coverage']:.3f} "
              "of the traced calls' time", file=sys.stderr)
    probes = res["probes"]
    kinds = [p["kind"] if p["kind"] in PROBE_KINDS else "other" for p in probes if p["kind"]]
    metrics["probe.attempted"] = len(probes)
    metrics["probe.failed_ratio"] = len(kinds) / len(probes) if probes else 0
    for kind in PROBE_KINDS:
        metrics[f"probe.failed.{kind}"] = kinds.count(kind)
    meta = {"samples": len(res["latencies"]), "probes": probes}
    return metrics, dict(meta, **summary(res))


def summary(res: dict) -> dict:
    return {
        "attempted": len(res["latencies"]) + len(res["traced_latencies"]),
        "failed": sum(res["failures"].values()),
        "failures": res["failures"],
        "pool": res["pool"],
        "passes": round(len(res["latencies"]) / res["pool"], 3),
        "address_space_cap": res["address_space_cap"],
        "check": res["check"],
    }


def record(workloads: list[str]) -> int:
    """Run every pool of the default seeds once and store its output digests."""
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in workloads:
        reference[workload] = {}
        for seed in DEFAULT_SEEDS:
            _, res = spawn(workload, seed, "--record")
            failed = [i for i, op in enumerate(res["ops"]) if op["kind"]]
            if failed:  # recorded as "-": a later success is checked by the oracle
                print(f"warning: {workload} seed {seed}: pool ops {failed} fail", file=sys.stderr)
            reference[workload][str(seed)] = " ".join(op["digest"] or "-" for op in res["ops"])
            cost = sum(op["s"] for op in res["ops"])
            print(f"{workload} seed {seed}: {len(res['ops'])} ops, {cost:.2f} s", file=sys.stderr)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json for the default seeds and exit")
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: package sources not found under {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.record:
        return record([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")

    try:
        metrics, meta = (run_traced if args.trace else run_untraced)(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = per_layer_metrics() if args.trace else list(END_TO_END)
    check = meta["check"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    computed = {name for name, _ in DERIVED}
    for name, unit in names:
        label = "  (computed)" if name in computed else ""
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit}{label}")
    print(f"  check: {'ok' if check['correct'] else 'MISMATCH'}; digests {check['digest_checked']} "
          f"({'reference' if check['reference'] else 'no reference for this seed'}), "
          f"oracle {check['oracle_checked']}, "
          f"mismatched {check['digest_mismatched'] + check['oracle_mismatched']}, "
          f"unstable {check['unstable']}, unverified {check['unverified']}")
    for p in meta.get("probes", []):
        print(f"  probe ({p['n']} players): {p['kind'] or 'ok'}"
              + (f" in {p['where']}" if p["where"] else ""))
    info = dict(python=platform.python_version(), cpus=os.cpu_count(), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace, **source_revision(), **meta)
    print("meta " + json.dumps(info, sort_keys=True))
    result = {
        "correct": check["correct"],
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if check["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
