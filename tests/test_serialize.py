"""File-format round trips and parse errors."""

import json
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit import serialize as se
from mediankit.boundary import ubs_graph, validate_system
from mediankit.errors import InvalidInput
from mediankit.pocset import points, validate


def test_pocset_round_trip(grid):
    data = se.dump_pocset(grid)
    back = se.load_pocset(data)
    assert back.ids == grid.ids
    assert validate(back).ok
    assert back.up == grid.up
    assert back.weight == grid.weight
    for a, b in zip(points(back), points(grid)):
        assert a.mask == b.mask


def test_pocset_json_is_serializable(square):
    blob = json.dumps(se.dump_pocset(square), sort_keys=True)
    assert '"weight": "1"' in blob


def test_fraction_weights_round_trip():
    from mediankit.pocset import WeightedPocset
    P = WeightedPocset([("a", "a*", Fraction(3, 7))])
    back = se.load_pocset(se.dump_pocset(P))
    assert back.weight[back.idx("a")] == Fraction(3, 7)


def test_missing_field_is_named():
    with pytest.raises(InvalidInput) as err:
        se.load_pocset({"walls": [{"id": "w", "pos": "a", "neg": "a*"}]})
    assert "weight" in str(err.value)


def test_bad_rational_is_named():
    with pytest.raises(InvalidInput) as err:
        se.load_pocset({"walls": [
            {"id": "w", "pos": "a", "neg": "a*", "weight": "x/y"}]})
    assert "walls[0].weight" in str(err.value)


def test_automorphism_round_trip(square):
    g = fx.named_automorphisms("SQUARE")["rot"]
    back = se.load_automorphism(
        square, {"name": "rot", "map": {"a": "b", "b": "a*"}})
    assert back.perm == g.perm


def test_window_action_round_trip():
    W = fx.line_window()
    data = se.dump_window_action(W)
    back = se.load_window_action(data, fx.WINDOW_BUDGETS)
    assert back.pocset.ids == W.pocset.ids
    assert back.gens.keys() == W.gens.keys()
    assert back.gens["s"].perm == W.gens["s"].perm


def test_chain_system_round_trip():
    S = fx.stairflap()
    data = se.dump_chain_system(S)
    back = se.load_chain_system(data)
    assert validate_system(back).ok
    G1, G2 = ubs_graph(S), ubs_graph(back)
    assert G1.vertex_labels() == G2.vertex_labels()
    assert G1.edges == G2.edges


def test_shift_map_round_trip():
    g = fx.corner_translation("PP", "x")
    back = se.load_shift_map(json.loads(json.dumps(g.to_json())))
    assert back == g


def test_file_parse_error_names_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(InvalidInput) as err:
        se.read_json(str(bad))
    assert "line 2" in str(err.value)
