"""One measured process of the benchmark: set up, run a workload, check it.

Started by `run.py`, never imported by it.  The child caps its own address
space, imports the package from ``src/`` of the checkout, builds the seeded
pool, runs a warm-up call and prints ``ready``; the parent times set-up up to
that line.  With ``--setup-only`` it stops there.  Otherwise it calls
``votingpower.cli.main(argv)`` on the pool, in order and cycling, for
``--seconds`` of wall time, one call at a time, and prints one JSON object:
per-call latencies, failures by kind, the correctness verdict and, with
``--trace`` (each op then runs untraced and traced), the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import signal
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Address-space ceiling: a DP table that would not fit raises MemoryError
#: in this process instead of pushing the machine into the OOM killer.
ADDRESS_SPACE_CAP = 1 << 30
OP_DEADLINE_S = 10.0
ORACLE_DEADLINE_S = 60.0
ORACLE_SAMPLE = 3
ORACLE_MAX_PLAYERS = 16  # subset enumeration is affordable up to here

sys.path.insert(0, str(HERE))
from spans import Tracer, oracle_replacements, patched, summarize, top_level_busy  # noqa: E402
from workloads import PROBES, WARMUP, WORKLOADS  # noqa: E402


class Deadline(BaseException):
    """Raised by SIGALRM when one call outlives its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def cap_address_space() -> int:
    """Cap this process below half the machine's available memory; return the cap."""
    available = None
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    available = int(line.split()[1]) * 1024
    except OSError:
        pass
    cap = ADDRESS_SPACE_CAP if available is None else min(ADDRESS_SPACE_CAP, available // 2)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def invoke(cli, argv: tuple[str, ...], deadline: float) -> tuple[str | None, str]:
    """Run ``cli.main(argv)`` with stdout captured.

    Returns ``(failure kind or None, stdout)``.  A failure is a non-zero exit
    (``exit<code>``), an exception escaping ``main`` (its type name) or the
    deadline passing (``deadline``).
    """
    out, err = io.StringIO(), io.StringIO()
    kind = None
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            kind = f"exit{code}"
    except Deadline:
        kind = "deadline"
    except Exception as exc:  # every escaping exception is a counted failure
        kind = type(exc).__name__
    return kind, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def timed_loop(cli, pool, seconds: float, keep: set[int], tracer=None) -> dict:
    """Closed loop over the pool for ``seconds`` of wall time (at least one op).

    With a tracer every op runs twice, untraced and traced, in alternating
    order, so that the tracing overhead is measured on the same calls
    moments apart; the traced latencies go to ``traced_latencies``.
    """
    replacements = tracer.replacements() if tracer is not None else None
    latencies: list[float] = []
    traced_latencies: list[float] = []
    failures: Counter = Counter()
    digests: dict[int, str] = {}
    unstable: set[int] = set()
    kept: dict[int, str] = {}
    i = 0
    start = perf_counter()
    while i == 0 or perf_counter() - start < seconds:
        idx = i % len(pool)
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.op = i
                with patched(replacements):
                    t0 = perf_counter()
                    kind, out = invoke(cli, pool[idx].argv, OP_DEADLINE_S)
                    traced_latencies.append(perf_counter() - t0)
            else:
                t0 = perf_counter()
                kind, out = invoke(cli, pool[idx].argv, OP_DEADLINE_S)
                latencies.append(perf_counter() - t0)
            if kind is not None:
                failures[kind] += 1
                continue
            if digests.setdefault(idx, digest(out)) != digest(out):
                unstable.add(idx)
            if idx in keep:
                kept.setdefault(idx, out)
        i += 1
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "failures": dict(failures),
        "digests": digests,
        "unstable": sorted(unstable),
        "kept": kept,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def load_reference(workload: str, seed: int) -> list[str | None] | None:
    """Recorded stdout digest of every pool op (None where the op failed)."""
    if not REFERENCE.exists():
        return None
    line = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    return None if line is None else [None if d == "-" else d for d in line.split()]


def oracle_check(cli, pool, indices: list[int], kept: dict[int, str]) -> list[int]:
    """Re-run each op with every engine routed to an enumeration oracle;
    return the indices whose stdout differs (or that never reach an oracle)."""
    bad = []
    for idx in indices:
        if idx not in kept:
            kind, out = invoke(cli, pool[idx].argv, ORACLE_DEADLINE_S)
            if kind is not None:
                bad.append(idx)
                continue
            kept[idx] = out
        calls = [0]
        with patched(oracle_replacements(calls)):
            kind, out = invoke(cli, pool[idx].argv, ORACLE_DEADLINE_S)
        if kind is not None or calls[0] == 0 or out != kept[idx]:
            bad.append(idx)
    return bad


def check(workload: str, seed: int, cli, pool, loop: dict, oracle_sample: list[int]) -> dict:
    """The correctness gate: reference digests where recorded, oracles on a sample."""
    reference = load_reference(workload, seed)
    mismatched, recovered = [], []
    if reference is not None and len(reference) != len(pool):
        mismatched = sorted(loop["digests"])  # the pool changed since it was recorded
    elif reference is not None:
        for idx, d in loop["digests"].items():
            if reference[idx] is None:
                recovered.append(idx)  # failed when recorded, succeeds now
            elif reference[idx] != d:
                mismatched.append(idx)
    oracle = sorted(set(oracle_sample) | {i for i in recovered if pool[i].n <= ORACLE_MAX_PLAYERS})
    oracle_bad = oracle_check(cli, pool, oracle, loop["kept"])
    unverified = [i for i in recovered if pool[i].n > ORACLE_MAX_PLAYERS]
    return {
        "reference": reference is not None,
        "digest_checked": len(loop["digests"]) if reference is not None else 0,
        "digest_mismatched": mismatched,
        "oracle_checked": len(oracle),
        "oracle_mismatched": oracle_bad,
        "unstable": loop["unstable"],
        "unverified": unverified,
        "correct": not (mismatched or oracle_bad or loop["unstable"]),
    }


def run_probes(cli, probes) -> list[dict]:
    """Run the known-defect inputs once each, traced, and name where each failed."""
    results = []
    for op in probes:
        tracer = Tracer()
        with patched(tracer.replacements()):
            kind, _ = invoke(cli, op.argv, OP_DEADLINE_S)
        where = next((s.name for s in tracer.spans if s.failed), None)
        results.append({"n": op.n, "kind": kind, "where": where})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true", help="run the whole pool once")
    args = parser.parse_args(argv)

    cap = cap_address_space()
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, str(ROOT / "src"))
    import votingpower.cli as cli
    import votingpower.core as core

    pool = WORKLOADS[args.workload](args.seed)
    invoke(cli, WARMUP[args.workload], OP_DEADLINE_S)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.record:
        ops = []
        for op in pool:
            t0 = perf_counter()
            kind, out = invoke(cli, op.argv, OP_DEADLINE_S)
            ops.append({"s": perf_counter() - t0, "kind": kind, "digest": None if kind else digest(out)})
        print(json.dumps({"ops": ops}))
        return 0

    rng = random.Random(f"oracle:{args.workload}:{args.seed}")
    eligible = [i for i, op in enumerate(pool) if op.n <= ORACLE_MAX_PLAYERS]
    sample = rng.sample(eligible, min(ORACLE_SAMPLE, len(eligible)))

    result: dict = {"pool": len(pool), "address_space_cap": cap}
    if args.trace:
        tracer = Tracer()
        loop = timed_loop(cli, pool, args.seconds, set(sample), tracer)
        result["per_layer"] = summarize(tracer.spans, core.scale_to_integers)
        result["top_level_busy_s"] = top_level_busy(tracer.spans)
        probes = PROBES.get(args.workload)
        result["probes"] = run_probes(cli, probes(args.seed)) if probes else []
    else:
        loop = timed_loop(cli, pool, args.seconds, set(sample))
    result["check"] = check(args.workload, args.seed, cli, pool, loop, sample)
    del loop["kept"], loop["digests"]
    result.update(loop)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
