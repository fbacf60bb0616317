"""Span recording and oracle substitution by patching the package's functions.

Both work the same way: a public function of the package is replaced, for the
duration of a ``with patched(...)`` block, in every ``votingpower`` module
namespace that holds it, so that the callers' own global lookups (for
example ``votingpower.divisor.ss_dp``) reach the replacement.  The package
itself is not modified.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from time import perf_counter
from typing import Callable, NamedTuple

PACKAGE = "votingpower"

#: (layer, function) pairs that the traced run wraps, in reporting order.
TRACED = (
    ("cli", "main"),
    ("divisor", "disagreement_report"),
    ("divisor", "divisor_system"),
    ("fixedpoint", "iterate"),
    ("fixedpoint", "apply_index_map"),
    ("indices", "banzhaf"),
    ("indices", "shapley_shubik"),
    ("indices", "count_winning"),
    ("indices", "banzhaf_dp"),
    ("indices", "ss_dp"),
    ("indices", "banzhaf_enum"),
    ("indices", "ss_enum_subsets"),
    ("core", "scale_to_integers"),
    ("core", "normalize"),
)

SPAN_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("failed", "count"))

#: Counts derived from the spans' arguments and results; computed, not timed.
DERIVED = (
    ("core.scaled_total.max", "count"),
    ("core.scaled_total.sum", "count"),
    ("indices.ss_dp.nominal_cells", "count"),
    ("indices.ss_dp.ns_per_cell", "ns"),
    ("indices.enum.masks", "count"),
    ("indices.enum.ns_per_mask", "ns"),
    ("indices.auto.dp_share", "ratio"),
    ("divisor.disagreement_report.per_op", "count"),
    ("fixedpoint.denominator_bits.max", "bits"),
)


def package_function(layer: str, name: str) -> Callable:
    return getattr(sys.modules[f"{PACKAGE}.{layer}"], name)


@contextmanager
def patched(replacements: dict[Callable, Callable]):
    """Swap each original function for its replacement wherever the package
    holds a reference to it; restore every reference on exit."""
    by_id = {id(original): new for original, new in replacements.items()}
    undo = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                new = by_id.get(id(value))
                if new is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    failed: bool
    args: tuple
    kwargs: dict
    result: object


class Tracer:
    """Records one span per call of every function in `TRACED`.

    Spans are kept in memory; the caller sets `op` before each invocation so
    that the spans of one CLI call share that identifier.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, failed = None, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, self.op, name, start, end, failed, args, kwargs, result))

        return wrapper

    def replacements(self) -> dict[Callable, Callable]:
        return {
            package_function(layer, fn): self._wrap(f"{layer}.{fn}", package_function(layer, fn))
            for layer, fn in TRACED
        }


def per_layer_names() -> list[tuple[str, str]]:
    """Every span-derived per-layer metric name with its unit."""
    names = [
        (f"{layer}.{fn}.{field}", unit) for layer, fn in TRACED for field, unit in SPAN_FIELDS
    ]
    return names + list(DERIVED)


def summarize(spans: list[Span], scale_to_integers: Callable) -> dict[str, float]:
    """Per-layer metrics from a list of spans.

    ``self_s`` is a span's duration minus that of its direct children.
    ``scale_to_integers`` must be the original function: the derived cell
    counts re-scale each DP input after the timed region.
    """
    out = {name: 0 for name, _ in per_layer_names()}
    child_time: dict[int, float] = {}
    children: dict[int, list[str]] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
            children.setdefault(s.parent, []).append(s.name)

    scaled_totals: list[int] = []
    cells = masks = auto_calls = auto_dp = 0
    denominator_bits = 0
    for s in spans:
        duration = s.end - s.start
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += duration
        out[f"{s.name}.self_s"] += duration - child_time.get(s.id, 0.0)
        out[f"{s.name}.failed"] += s.failed
        if s.failed:
            continue
        if s.name == "core.scale_to_integers":
            scaled_totals.append(sum(s.result.weights))
        elif s.name == "indices.ss_dp":
            system = s.args[0]
            cells += (system.n + 1) * (sum(scale_to_integers(system).weights) + 1)
        elif s.name in ("indices.banzhaf_enum", "indices.ss_enum_subsets"):
            masks += 1 << s.args[0].n
        elif s.name in ("indices.banzhaf", "indices.shapley_shubik"):
            engine = s.args[1] if len(s.args) > 1 else s.kwargs.get("engine", "auto")
            if engine == "auto":
                auto_calls += 1
                reached = children.get(s.id, ())
                auto_dp += "indices.banzhaf_dp" in reached or "indices.ss_dp" in reached
        elif s.name == "fixedpoint.apply_index_map":
            den = lcm(*(Fraction(w).denominator for w in s.result))
            denominator_bits = max(denominator_bits, den.bit_length())

    # Rational games scale to totals past 10^29; floats keep them JSON numbers
    # that every reader can hold, with 16 significant digits.
    out["core.scaled_total.max"] = float(max(scaled_totals, default=0))
    out["core.scaled_total.sum"] = float(sum(scaled_totals))
    out["indices.ss_dp.nominal_cells"] = cells
    out["indices.ss_dp.ns_per_cell"] = out["indices.ss_dp.busy_s"] * 1e9 / cells if cells else 0
    out["indices.enum.masks"] = masks
    enum_busy = out["indices.banzhaf_enum.busy_s"] + out["indices.ss_enum_subsets.busy_s"]
    out["indices.enum.ns_per_mask"] = enum_busy * 1e9 / masks if masks else 0
    out["indices.auto.dp_share"] = auto_dp / auto_calls if auto_calls else 0
    top = out["cli.main.calls"]
    out["divisor.disagreement_report.per_op"] = (
        out["divisor.disagreement_report.calls"] / top if top else 0
    )
    out["fixedpoint.denominator_bits.max"] = denominator_bits
    return out


def top_level_busy(spans: list[Span]) -> float:
    """Time covered by spans that have no parent (the CLI calls themselves)."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def oracle_replacements(calls: list[int]) -> dict[Callable, Callable]:
    """Route every public engine entry point to an enumeration oracle.

    Banzhaf indices and winning counts come from subset enumeration; the
    Shapley-Shubik index from the permutation walk up to `PERM_CAP` players
    and from subset enumeration above.  ``calls[0]`` counts oracle calls, so
    a check can tell that the oracle was reached at all.
    """
    from votingpower import indices

    def ss_oracle(system):
        calls[0] += 1
        if system.n <= indices.PERM_CAP:
            return indices.ss_enum_perms(system)[1]
        return indices.ss_enum_subsets(system, cap=system.n)

    def banzhaf_oracle(system, engine="auto", *, cap=indices.DEFAULT_ENUM_CAP):
        calls[0] += 1
        return indices.banzhaf_enum(system, cap=max(cap, system.n))

    def count_oracle(system, engine="auto", *, cap=indices.DEFAULT_ENUM_CAP):
        calls[0] += 1
        return count_winning(system, "enum", cap=max(cap, system.n))

    def ss_oracle_dispatch(system, engine="auto", *, cap=indices.DEFAULT_ENUM_CAP):
        return ss_oracle(system)

    count_winning = indices.count_winning
    return {
        indices.banzhaf: banzhaf_oracle,
        indices.banzhaf_dp: lambda system: banzhaf_oracle(system),
        indices.shapley_shubik: ss_oracle_dispatch,
        indices.ss_dp: ss_oracle,
        indices.count_winning: count_oracle,
    }
