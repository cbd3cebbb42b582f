"""``report.dumps`` writes the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)`` plus a newline, and fails where it fails."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitsampler import cli
from orbitsampler.orbits import orbit_table
from orbitsampler.report import dumps

from test_golden import CASES, _graph_files, _run


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# A row break of a table at depth 1 in a string must not be re-indented.
_STRINGS = st.sampled_from(
    ["", "},\n    {", "\n", '"', "\\", "\x00", "é", "☃"]
) | st.text(max_size=6)
_NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(2**100), 2**100),  # beyond 64 bits
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05]),
    st.floats(),
    st.floats().map(np.float64),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, _STRINGS)
# Keys of one type per dict: json.dumps cannot sort mixed str and int keys.
_KEYS = st.sampled_from([_STRINGS, st.integers(), st.floats(), st.booleans(), st.none()])


def _dicts(values, min_size: int = 0):
    return _KEYS.flatmap(
        lambda keys: st.dictionaries(keys, values, min_size=min_size, max_size=5)
    )


_TABLES = st.lists(_dicts(_SCALARS, min_size=1), min_size=1, max_size=4)
_TREES = st.recursive(
    _SCALARS | _TABLES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.tuples(kids, kids), _dicts(kids)
    ),
    max_leaves=16,
)


@given(_TREES)
def test_dumps_matches_json_dumps(payload):
    assert dumps(payload) == _reference(payload)


@given(_TABLES, st.integers(0, 3))
def test_tables_at_any_depth(rows, depth):
    payload = rows
    for _ in range(depth):
        payload = {"rows": payload, "n": len(rows)}
    assert dumps(payload) == _reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {1, 2},
        {"a": {1, 2}},
        [np.int64(3)],
        {"a": [1.0, np.int64(2)]},
        [{"i": 1, "value": np.int64(2)}],
        {(1, 2): 1},
        {"a": [1], (1, 2): 1},
        [{"a": 1, 2: "b"}],
        {"a": 1, 2: "b"},
        {"a": [{"a": 1, 2: [3]}]},
    ],
)
def test_type_errors_match_json_dumps(payload):
    with pytest.raises(TypeError) as want:
        _reference(payload)
    with pytest.raises(TypeError) as got:
        dumps(payload)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("payload", [{np.int64(1): "a"}, {np.int64(1): ["a"]}])
def test_numpy_key_is_a_type_error(payload):
    # Where the C encoder raises, it names the key's type with its module.
    with pytest.raises(TypeError):
        _reference(payload)
    with pytest.raises(TypeError):
        dumps(payload)


def test_cli_payloads_match_json_dumps(tmp_path, monkeypatch):
    payloads = []

    def recorded(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli, "dumps", recorded)
    graphs = _graph_files(tmp_path)
    json_cases = sorted(case for case in CASES if case.endswith(".json"))
    for case in json_cases:
        _run(case, graphs, tmp_path / case)
    exact_directed = ["exact", "--graph", str(graphs["digraph"]), "--directed"]
    exact_directed += ["--mode", "directed3", "--max-degree-node", "--format", "json"]
    assert cli.main([*exact_directed, "--output", str(tmp_path / "x.json")]) == 0
    assert len(payloads) == len(json_cases) + 1
    modes = {p.get("mode") for p in payloads if isinstance(p, dict)}
    assert modes == {"undirected", "directed3"}
    for payload in [*payloads, orbit_table()]:
        assert dumps(payload) == _reference(payload)
