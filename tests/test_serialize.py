"""File-format round trips and parse errors."""

import json
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit import serialize as se
from mediankit.cli import main
from mediankit.boundary import ubs_graph, validate_system
from mediankit.errors import InvalidInput
from mediankit.pocset import WeightedPocset, points, validate


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


def _pocset_file(tmp_path, order) -> str:
    path = tmp_path / "pocset.json"
    path.write_text(json.dumps({"walls": [
        {"id": h, "pos": h, "neg": h + "*", "weight": "1"} for h in "abc"], "order": order}))
    return str(path)


@pytest.mark.parametrize("order, message", [
    ([["a", "b"], "ab"], "order[1] must be a pair of halfspace ids"),
    ([["a", "b"], ["a", "b", "c"]], "order[1] must be a pair of halfspace ids"),
    ([["a", "b"], {"a": "b"}], "order[1] must be a pair of halfspace ids"),
    ([["a", "b"], ["b", "c"], ["a", "zz"]], "order pair ('a', 'zz') names unknown halfspace"),
    ([["a", "b"], ["a", 5]], "order[1] must be a pair of halfspace ids"),
    ([["a", "zz"], ["b", None]], "order[1] must be a pair of halfspace ids"),
    ([["a", "zz"], ["b", {"c": 1}]], "order[1] must be a pair of halfspace ids"),
], ids=["string", "triple", "object", "unknown id", "integer member",
        "unknown id before a null member", "unknown id before an object member"])
def test_bad_order_pair_exits_65_naming_the_first(order, message, tmp_path, capsys):
    code = main(["rank", "--pocset", _pocset_file(tmp_path, order)])
    report = json.loads(capsys.readouterr().out)
    assert code == 65
    assert report["error"] == {"code": "INVALID_INPUT", "message": message, "data": {}}


def test_an_unknown_id_late_in_a_long_order_names_the_first_bad_pair():
    """F2BALL's 25,440 pairs with two bad ones near the end: the file
    loader and the pair constructor both name the first."""
    data = se.dump_pocset(fx.pocset("F2BALL"))
    order = data["order"]
    order.insert(24_000, ["zz", "wb+"])
    order.insert(20_000, ["wa+", "zz"])
    message = "order pair ('wa+', 'zz') names unknown halfspace"
    with pytest.raises(InvalidInput) as err:
        se.load_pocset(data)
    assert str(err.value) == message
    walls = [(w["pos"], w["neg"], Fraction(w["weight"])) for w in data["walls"]]
    with pytest.raises(InvalidInput) as err:
        WeightedPocset(walls, order)
    assert str(err.value) == message


_WINDOW = {"window": {"walls": [{"id": "a", "pos": "a", "neg": "a*", "weight": "1"}]},
           "maps": [{"name": "s", "map": {"a": "a"}, "domain": ["a"]}]}
_SYSTEM = {"chains": [{"id": "H", "period": 1, "weights": ["1"]}],
           "rel": {"head": [["H", 0, "H", 1, "sub"]],
                   "periodic": [{"from": "H", "to": "H", "rule": "sub"}]}}


_NONSTRING_IDS = [
    (se.load_pocset, _WINDOW["window"], ["walls", 0, "id"], 7, "walls[0].id"),
    (se.load_pocset, _WINDOW["window"], ["walls", 0, "neg"], None, "walls[0].neg"),
    (se.load_window_action, _WINDOW, ["maps", 0, "domain", 0], ["a"], "maps[0].domain"),
    (se.load_window_action, _WINDOW, ["maps", 0, "name"], ["s"], "maps[0].name"),
    (se.load_chain_system, _SYSTEM, ["rel", "head", 0, 2], ["H"], "rel.head[0]"),
    (se.load_chain_system, _SYSTEM, ["rel", "periodic", 0, "from"], 1, "rel.periodic[0].from"),
    (se.load_shift_map, {"tau": {"H": "H"}, "shift": {"H": 1}}, ["tau", "H"], ["H"], "tau"),
]


@pytest.mark.parametrize("load, data, path, value, field", _NONSTRING_IDS,
                         ids=[case[-1] for case in _NONSTRING_IDS])
def test_every_nonstring_id_is_named(load, data, path, value, field):
    data = json.loads(json.dumps(data))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(InvalidInput) as err:
        load(data)
    assert str(err.value).startswith(field + " must ")
