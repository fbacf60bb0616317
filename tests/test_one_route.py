"""Every engine choice goes through `indices`: no other module calls an engine
directly, each engine call scales its game once (a reused pass not at all),
and no engine re-enters a public engine name."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import votingpower
from votingpower import cli, core, fixedpoint, indices
from votingpower.core import IndexKind, QuotaMode, VotingSystem
from votingpower.errors import VotingPowerError

PACKAGE_DIR = Path(votingpower.__file__).resolve().parent
ENGINES = {"banzhaf_dp", "ss_dp", "banzhaf_enum", "ss_enum_subsets"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_indices_calls_an_engine():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert PACKAGE_DIR / "fixedpoint.py" in paths
    found = [
        f"{path.name}:{node.lineno} {_called_name(node)}"
        for path in paths
        if path.name != "indices.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _called_name(node) in ENGINES
    ]
    assert found == []


# auto takes the DP for the first under both indices, whose tables have no
# more cells than the 2**12 masks; and enumerates the second under both
AUTO_DP = VotingSystem(quota=7, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(4,) * 6 + (0,) * 6)
AUTO_ENUM = VotingSystem(quota=1200, mode=QuotaMode.MEETS_OR_EXCEEDS, weights=(300, 700, 999))
ROUTES = [("enum", AUTO_DP), ("dp", AUTO_DP), ("auto", AUTO_ENUM), ("auto", AUTO_DP)]
ROUTE_IDS = ["enum", "dp", "auto-enum", "auto-dp"]
DISPATCHERS = (indices.banzhaf, indices.shapley_shubik, indices.count_winning)
NAMED_ENGINES = (indices.banzhaf_enum, indices.banzhaf_dp, indices.ss_enum_subsets, indices.ss_dp)


@pytest.fixture(autouse=True)
def no_last_pass(monkeypatch):
    """Each test starts with no pass to reuse, so a dispatcher call computes."""
    monkeypatch.setattr(indices, "_last_pass", indices._Pass(None, "", 0, False, [], 0, 0, 0))


@pytest.fixture
def scalings(monkeypatch):
    """The systems `core.scale_to_integers` is called on, from `indices` and `cli`."""
    calls = []
    original = core.scale_to_integers

    def counted(system):
        calls.append(system)
        return original(system)

    for module in (indices, cli):
        monkeypatch.setattr(module, "scale_to_integers", counted)
    return calls


def test_routes_reach_the_engine_they_name():
    for by_size in (False, True):
        assert indices._route(AUTO_DP, "auto", indices.DEFAULT_ENUM_CAP, by_size)[0] == "dp"
        assert indices._route(AUTO_ENUM, "auto", indices.DEFAULT_ENUM_CAP, by_size)[0] == "enum"


def _auto_pick(system: VotingSystem, cap: int, by_size: bool):
    """The engine auto picks, or the type of the refusal its route raised."""
    try:
        return indices._route(system, "auto", cap, by_size)[0]
    except VotingPowerError as exc:
        return type(exc)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=10).filter(any),
    st.integers(1, 5000),
    st.sampled_from(tuple(QuotaMode)),
    st.booleans(),
)
@example([300, 700, 999], 1200, QuotaMode.MEETS_OR_EXCEEDS, False)  # a table wider than 2**3
def test_auto_reads_the_game_alone(weights, quota, mode, by_size):
    # the enumeration cap bounds engine="enum" only: no cap moves auto's pick
    system = VotingSystem(quota=quota, mode=mode, weights=tuple(weights))
    picks = {_auto_pick(system, cap, by_size) for cap in range(system.n + 2)}
    assert len(picks) == 1


@pytest.mark.parametrize("engine, system", ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("dispatcher", DISPATCHERS, ids=lambda f: f.__name__)
def test_each_engine_call_scales_once(scalings, dispatcher, engine, system):
    dispatcher(system, engine)
    assert scalings == [system]


@pytest.mark.parametrize("engine, system", ROUTES, ids=ROUTE_IDS)
def test_a_reused_pass_scales_nothing(scalings, engine, system):
    indices.shapley_shubik(system, engine)
    scalings.clear()
    for dispatcher in DISPATCHERS:
        dispatcher(system, engine)
    assert scalings == []


@pytest.mark.parametrize("engine, system", ROUTES, ids=ROUTE_IDS)
def test_an_equal_system_built_later_is_computed_again(scalings, engine, system):
    # the pass is kept for one object, never for its value
    for dispatcher in DISPATCHERS:
        indices.shapley_shubik(system, engine)
        scalings.clear()
        equal = replace(system)
        dispatcher(equal, engine)
        assert len(scalings) == 1 and scalings[0] is equal


def test_index_command_scales_twice(scalings, capsys):
    # the printed scaled weights, and the one pass that serves all three quantities
    argv = ["index", "--quota", "7", "--weights", "4,4,4,4,4,4,0", "--index", "both"]
    assert cli.main(argv) == 0
    assert len(scalings) == 2


@pytest.mark.parametrize("kind", tuple(IndexKind))
def test_one_index_map_step_scales_once(scalings, kind):
    fixedpoint.apply_index_map((3, 2, 2, 1, 1), kind)
    assert len(scalings) == 1


def test_engines_never_reenter_the_public_names(monkeypatch):
    # the benchmark's oracle gate swaps these names inside `indices`, and its
    # Banzhaf oracle calls `banzhaf_enum`: a re-entry would never end there
    def refused(*args, **kwargs):
        raise AssertionError("an engine called a public engine name")

    for engine in DISPATCHERS + NAMED_ENGINES:
        monkeypatch.setattr(indices, engine.__name__, refused)
    for engine, system in ROUTES:
        for dispatcher in DISPATCHERS:
            dispatcher(system, engine)
    for engine in NAMED_ENGINES:
        engine(AUTO_DP)
