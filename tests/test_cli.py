"""CLI behavior: reports, exit codes, determinism, DOT export."""

import json

import pytest

from mediankit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


def test_rank_square(capsys):
    code, report, err = run_cli(capsys, "rank", "--fixture", "SQUARE")
    assert code == 0
    assert report["verdict"]["rank"] == 2
    assert "rank = 2" in err


def test_points_path3(capsys):
    code, report, _ = run_cli(capsys, "points", "--fixture", "PATH3")
    assert code == 0
    assert report["verdict"]["count"] == 4


def test_median_and_distance(capsys):
    code, report, _ = run_cli(
        capsys, "median", "--fixture", "SQUARE",
        "--x", "a,b", "--y", "a,b*", "--z", "a*,b")
    assert code == 0
    assert report["verdict"]["median"] == ["a", "b"]
    code, report, _ = run_cli(
        capsys, "distance", "--fixture", "SQUARE", "--x", "a,b", "--y", "a*,b*")
    assert code == 0
    assert report["verdict"]["distance"] == "2"


def test_decompose_grid(capsys):
    code, report, _ = run_cli(capsys, "decompose", "--fixture", "GRID")
    assert code == 0
    assert len(report["verdict"]["factors"]) == 2
    assert report["verdict"]["irreducible"] is False


def test_validate_fixture_and_exit_codes(capsys):
    code, report, _ = run_cli(capsys, "validate", "--fixture", "TRIPOD")
    assert code == 0 and report["verdict"]["ok"]


def test_subdivide_emits_pocset_file(capsys):
    code, report, _ = run_cli(capsys, "subdivide", "--fixture", "SQUARE", "-n", "1")
    assert code == 0
    out = report["verdict"]
    assert len(out["pocset"]["walls"]) == 4
    assert out["atomMass"] == "1/2"
    assert out["projection"]["a-"] == "a"


def test_orbits(capsys):
    code, report, _ = run_cli(
        capsys, "orbits", "--fixture", "SQUARE", "--gens", "rot,swap")
    assert code == 0
    assert report["verdict"]["minOrbit"]["size"] == 4
    assert report["verdict"]["withinBound"] is True


def test_flip_inconclusive_exit_code(capsys):
    code, report, _ = run_cli(
        capsys, "flip", "--fixture", "LINE", "--halfspace", "w10+",
        "--max-word-len", "3")
    assert code == 3
    assert report["verdict"]["kind"] == "INCONCLUSIVE"


def test_skewer_f2ball_with_verify(capsys):
    code, report, _ = run_cli(
        capsys, "skewer", "--fixture", "F2BALL", "--pair", "waa+,wa+",
        "--max-word-len", "3", "--verify")
    assert code == 0
    assert report["verdict"]["word"] == "a a"
    assert report["verify"]["properlyContained"] is True
    assert report["verify"]["gapPositive"] is True


def test_facing_negative_exit_code(capsys):
    code, report, _ = run_cli(
        capsys, "facing", "--fixture", "SQUARE", "--tuple-size", "3")
    assert code == 2
    assert report["verdict"]["kind"] == "NOT_FOUND"


def test_facing_tripod_with_verify(capsys):
    code, report, _ = run_cli(
        capsys, "facing", "--fixture", "TRIPOD", "--tuple-size", "3",
        "--strong", "--verify")
    assert code == 0
    assert report["verdict"]["tuple"] == ["h1", "h2", "h3"]
    assert report["verify"]["pairwiseDisjoint"] is True
    assert report["verify"]["noCommonTransversal"] is True


def test_sectors(capsys):
    code, report, _ = run_cli(
        capsys, "sectors", "--fixture", "SQUARE", "--pair", "a,b")
    assert code == 0
    assert report["verdict"]["kind"] == "PRODUCT"


def test_free_cert(capsys):
    code, report, _ = run_cli(
        capsys, "free-cert", "--fixture", "F2BALL", "--a", "a", "--b", "b",
        "--h", "wA+", "--k", "wB+", "--max-word-len", "4")
    assert code == 0
    v = report["verdict"]
    assert v["verified"] is True
    assert v["wordsChecked"] == 160
    assert v["checksPerformed"] == 972


def test_free_cert_not_facing_is_negative(capsys):
    code, report, _ = run_cli(
        capsys, "free-cert", "--fixture", "F2BALL", "--a", "a", "--b", "b",
        "--h", "wa+", "--k", "wb+", "--max-word-len", "2")
    assert code == 2
    assert report["error"]["code"] == "NOT_FACING"


def test_lineal(capsys):
    code, report, _ = run_cli(capsys, "lineal", "--fixture", "PATH3")
    assert code == 0
    assert report["verdict"]["lineal"] is True
    code, report, _ = run_cli(capsys, "lineal", "--fixture", "TRIPOD")
    assert code == 2


def test_classify_window(capsys):
    code, report, _ = run_cli(
        capsys, "classify", "--fixture", "F2BALL", "--max-word-len", "3")
    assert code == 0
    assert report["verdict"]["kind"] == "FREE_SUBGROUP"


def test_inversions(capsys):
    code, report, _ = run_cli(
        capsys, "inversions", "--fixture", "SQUARE", "--gens", "flipa",
        "--word", "flipa")
    assert code == 0
    assert report["verdict"]["inverted"] == ["a"]


def test_ubs_commands(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "ubs-validate", "--system", "STAIRFLAP")
    assert code == 0 and report["verdict"]["ok"]
    dot = tmp_path / "g.dot"
    code, report, _ = run_cli(
        capsys, "ubs-graph", "--system", "STAIRFLAP", "--dot", str(dot))
    assert code == 0
    assert len(report["verdict"]["vertices"]) == 2
    assert report["verdict"]["edges"] == [["H[1:]", "K[0:]"]]
    text = dot.read_text()
    assert '"H[1:]" -> "K[0:]"' in text


def test_ubs_chi(capsys, tmp_path):
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps(
        {"tau": {"H": "H", "K": "K"}, "shift": {"H": 1, "K": 1},
         "minIndex": 0}))
    code, report, _ = run_cli(
        capsys, "ubs-chi", "--system", "STAIRFLAP", "--shift", str(shift))
    assert code == 0
    assert report["verdict"]["chi"] == ["1", "1"]
    assert report["verdict"]["kernel"] is False


NON_PARTITION_SYSTEM = {
    "chains": [{"id": "H", "period": 1, "weights": ["1"]},
               {"id": "K", "period": 1, "weights": ["1"]}],
    "rel": {"periodic": [
        {"from": "H", "to": "K", "rule": "sub", "offsetRange": [None, -3]},
        {"from": "H", "to": "K", "rule": "trans", "offsetRange": [0, None]},
    ]},
}


def run_ubs_command(capsys, tmp_path, command, system_data):
    """``command`` on a system file; ``ubs-chi`` gets the unit shift of H, K."""
    system = tmp_path / "system.json"
    system.write_text(json.dumps(system_data))
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps(
        {"tau": {"H": "H", "K": "K"}, "shift": {"H": 1, "K": 1},
         "minIndex": 0}))
    extra = ["--shift", str(shift)] if command == "ubs-chi" else []
    return run_cli(capsys, command, "--system-file", str(system), *extra)


@pytest.mark.parametrize("command", ["ubs-graph", "ubs-chi"])
def test_ubs_commands_reject_invalid_systems(capsys, tmp_path, command):
    code, report, err = run_ubs_command(
        capsys, tmp_path, command, NON_PARTITION_SYSTEM)
    assert code == 65
    assert report["verdict"]["ok"] is False
    assert [f["code"] for f in report["verdict"]["failures"]] == \
        ["ZONES_NOT_PARTITION"]
    assert f"{command}: INVALID" in err


def head_entry_system(*head):
    return {"chains": [{"id": "H", "period": 1, "weights": ["1"]},
                       {"id": "K", "period": 1, "weights": ["1"]}],
            "rel": {"head": list(head)}}


@pytest.mark.parametrize("command", ["ubs-validate", "ubs-graph", "ubs-chi"])
def test_head_entry_naming_an_unknown_chain_is_rejected(capsys, tmp_path, command):
    code, report, err = run_ubs_command(
        capsys, tmp_path, command, head_entry_system(["Z", 0, "H", 1, "sup"]))
    assert code == 65
    assert report["verdict"]["failures"] == [
        {"code": "UNKNOWN_CHAIN", "detail": "head entry (Z, 0, H, 1)"}]
    assert f"{command}: INVALID" in err


@pytest.mark.parametrize("command", ["ubs-validate", "ubs-graph", "ubs-chi"])
def test_mirrored_head_entries_must_be_inverse(capsys, tmp_path, command):
    code, report, err = run_ubs_command(
        capsys, tmp_path, command, head_entry_system(
            ["H", 0, "K", 2, "sub"], ["K", 2, "H", 0, "sub"]))
    assert code == 65
    assert report["verdict"]["failures"] == [
        {"code": "HEAD_CONFLICT", "detail": "(H, 0) vs (K, 2)"}]
    assert f"{command}: INVALID" in err


@pytest.mark.parametrize("command", ["ubs-validate", "ubs-graph", "ubs-chi"])
def test_head_entries_within_one_chain_are_rejected(capsys, tmp_path, command):
    # rel never reads a head entry within one chain: the chain order decides
    code, report, err = run_ubs_command(
        capsys, tmp_path, command, head_entry_system(["H", 0, "H", 3, "trans"]))
    assert code == 65
    assert report["verdict"]["failures"] == [
        {"code": "SAME_CHAIN_HEAD", "detail": "head entry (H, 0, H, 3)"}]
    assert f"{command}: INVALID" in err


@pytest.mark.parametrize("command", ["ubs-validate", "ubs-graph", "ubs-chi"])
def test_rules_within_one_chain_are_rejected(capsys, tmp_path, command):
    # rel never reads a row rule or zone list within one chain either
    system = head_entry_system()
    system["rel"]["periodic"] = [
        {"from": "H", "fromIndex": 0, "to": "H", "rule": "trans",
         "toRange": [3, None]},
        {"from": "K", "to": "K", "rule": "trans", "offsetRange": [None, None]}]
    code, report, err = run_ubs_command(capsys, tmp_path, command, system)
    assert code == 65
    assert report["verdict"]["failures"] == [
        {"code": "SAME_CHAIN_RULE", "detail": "zone rule (K, K)"},
        {"code": "SAME_CHAIN_RULE", "detail": "row rule RowRule(chain='H', "
         "index=0, other='H', rel='trans', lo=3, hi=None)"}]
    assert f"{command}: INVALID" in err


def test_ubs_chi_rejects_the_unshifted_stairflap_swap(capsys, tmp_path):
    # h_n lies inside k_m for m < n, while k_n never lies inside h_m
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps(
        {"tau": {"H": "K", "K": "H"}, "shift": {"H": 0, "K": 0}}))
    code, report, _ = run_cli(
        capsys, "ubs-chi", "--system", "STAIRFLAP", "--shift", str(shift))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == \
        "shift map does not preserve the relation on (H, K)"


def test_dump_fixture_round_trip(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "dump-fixture", "SQUARE")
    assert code == 0
    pocset_file = tmp_path / "square.json"
    pocset_file.write_text(json.dumps(report["verdict"]["pocset"]))
    code, report, _ = run_cli(capsys, "rank", "--pocset", str(pocset_file))
    assert code == 0
    assert report["verdict"]["rank"] == 2


def test_dump_window_and_system(capsys):
    code, report, _ = run_cli(capsys, "dump-fixture", "F2BALL")
    assert code == 0 and report["verdict"]["kind"] == "pocset"
    code, report, _ = run_cli(capsys, "dump-fixture", "STAIRFLAP")
    assert code == 0 and report["verdict"]["kind"] == "chainSystem"


def test_reports_are_deterministic_modulo_timing(capsys):
    _, r1, _ = run_cli(capsys, "rank", "--fixture", "GRID")
    _, r2, _ = run_cli(capsys, "rank", "--fixture", "GRID")
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_invalid_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, report, _ = run_cli(capsys, "rank", "--pocset", str(bad))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"


def test_pocset_file_naming_a_halfspace_twice_is_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"walls": [
        {"id": "w0", "pos": "a", "neg": "b", "weight": "1"},
        {"id": "w1", "pos": "a", "neg": "a", "weight": "1"}]}))
    code, report, _ = run_cli(capsys, "rank", "--pocset", str(bad))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == "duplicate halfspace id 'a'"


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 64


def test_env_budget_override(capsys, monkeypatch, tmp_path):
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    grid_file = tmp_path / "grid.json"  # fresh object, no cached points
    grid_file.write_text(json.dumps(se.dump_pocset(fx.grid())))
    monkeypatch.setenv("MEDIANKIT_BUDGET", "point_walls:4")
    code, report, _ = run_cli(capsys, "points", "--pocset", str(grid_file))
    assert code == 3
    assert report["error"]["code"] == "WALL_BUDGET_EXCEEDED"


@pytest.mark.parametrize("argv", [
    ["rank", "--fixture", "SQUARE"],
    ["median", "--fixture", "SQUARE", "--x", "a,b", "--y", "a,b*", "--z", "a*,b"],
    ["ubs-validate", "--system", "STAIRFLAP"],
    ["dump-fixture", "F2BALL"],
])
@pytest.mark.parametrize("budget, part", [
    ("word_lenght:1,point_walls:abc", "'word_lenght:1'"),
    ("point_walls:abc", "'point_walls:abc'"),
    ("point_walls:-1", "'point_walls:-1'"),
    ("4,", "''"),
    ("4,point_walls:30", "'point_walls:30'"),
    ("point_walls:4,point_walls:8", "'point_walls:8'"),
])
def test_env_budget_typos_are_rejected(capsys, monkeypatch, argv, budget, part):
    monkeypatch.setenv("MEDIANKIT_BUDGET", budget)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert f"part {part} " in report["error"]["message"]


def test_env_budget_forms(monkeypatch):
    from mediankit.config import budget_overrides
    monkeypatch.setenv("MEDIANKIT_BUDGET", " 24 , word_length : 6 ")
    assert budget_overrides() == {"point_walls": 24, "word_length": 6}
    monkeypatch.setenv("MEDIANKIT_BUDGET", " ")
    assert budget_overrides() == {}


@pytest.mark.parametrize("source, budget", [
    ("gens", "group_order:2"), ("auto-file", "group_order:2"),
    ("window", "point_walls:10")])
def test_env_budget_applies_to_fixture_and_file_actions(
        capsys, monkeypatch, tmp_path, source, budget):
    from mediankit import fixtures as fx
    auto = tmp_path / "rot.json"
    auto.write_text(json.dumps({"name": "rot", "map": {
        "h1": "h2", "h2": "h3", "h3": "h1"}}))
    argv = {"gens": ["flip", "--fixture", "TRIPOD", "--gens", "rot",
                     "--halfspace", "h1*"],
            "auto-file": ["flip", "--fixture", "TRIPOD", "--auto-file",
                          str(auto), "--halfspace", "h1*"],
            "window": ["skewer", "--fixture", "F2BALL", "--pair", "waa+,wa+",
                       "--max-word-len", "3"]}[source]
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("MEDIANKIT_BUDGET", budget)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 3
    assert report["error"]["code"] == "WALL_BUDGET_EXCEEDED"
    # the cached fixture keeps its own budgets
    assert fx.window("F2BALL").budgets == fx.WINDOW_BUDGETS


def test_a_total_map_must_cover_every_wall(capsys, tmp_path):
    auto = tmp_path / "holes.json"
    auto.write_text(json.dumps({"map": {"a": "b"}}))
    code, report, _ = run_cli(
        capsys, "orbits", "--fixture", "SQUARE", "--auto-file", str(auto))
    assert code == 65
    assert report["error"]["code"] == "NOT_AN_AUTOMORPHISM"


@pytest.mark.parametrize("argv, depth", [
    (["free-cert", "--fixture", "F2BALL", "--a", "a", "--b", "b", "--h", "wA+",
      "--k", "wB+", "--max-word-len", "-1"], None),
    (["flip", "--fixture", "LINE", "--halfspace", "w03+", "--max-word-len", "-2"],
     None),
    (["subdivide", "--fixture", "SQUARE", "-n", "-1"], None),
    (["facing", "--fixture", "LINE", "--tuple-size", "3", "--max-word-len", "0"],
     0),
], ids=["free-cert", "flip", "subdivide", "facing"])
def test_search_depths_are_checked(capsys, argv, depth):
    """A negative depth is invalid input; a zero depth is reported as 0."""
    code, report, _ = run_cli(capsys, *argv)
    if depth is None:
        assert code == 65
        assert report["error"]["code"] == "INVALID_INPUT"
        assert "negative" in report["error"]["message"]
    else:
        assert code == 3
        assert report["verdict"]["depth"] == depth


def test_automorphism_file_ingestion(capsys, tmp_path):
    auto = tmp_path / "rot.json"
    auto.write_text(json.dumps({"name": "rot", "map": {"a": "b", "b": "a*"}}))
    code, report, _ = run_cli(
        capsys, "orbits", "--fixture", "SQUARE", "--auto-file", str(auto))
    assert code == 0
    assert report["verdict"]["minOrbit"]["size"] == 4


def test_dump_fixture_kind_disambiguation(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, "dump-fixture", "F2BALL", "--kind", "window")
    assert code == 0 and report["verdict"]["kind"] == "window"
    window_file = tmp_path / "f2.json"
    window_file.write_text(json.dumps(report["verdict"]["window"]))
    code, report, _ = run_cli(
        capsys, "skewer", "--window", str(window_file),
        "--pair", "waa+,wa+", "--max-word-len", "3")
    assert code == 0 and report["verdict"]["word"] == "a a"
    code, report, _ = run_cli(capsys, "dump-fixture", "LINE", "--kind", "system")
    assert code == 0 and report["verdict"]["kind"] == "chainSystem"


@pytest.mark.parametrize("bad_map, reason", [
    ({"w00+": "w02+", "w01+": "w02+"}, "not injective"),
    ({"w00+": "w01+", "w01+": "w00+"}, "does not preserve order"),
    ({"w00+": "w01+", "w00-": "w03-"}, "star images conflict"),
])
def test_window_maps_are_checked_on_load(capsys, tmp_path, bad_map, reason):
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    data = se.dump_window_action(fx.line_window())
    data["maps"] = [{"name": "s", "map": bad_map}]
    window_file = tmp_path / "bad.json"
    window_file.write_text(json.dumps(data))
    code, report, _ = run_cli(
        capsys, "flip", "--window", str(window_file), "--halfspace", "w10+")
    assert code == 65
    assert report["error"]["code"] == "NOT_AN_AUTOMORPHISM"
    assert reason in report["error"]["message"]


COMPARABLE_WITH_COMPLEMENT = {
    "walls": [{"id": "a", "pos": "a", "neg": "a*", "weight": "1"}],
    "order": [["a", "a*"]],
}
CYCLIC_ORDER = {
    "walls": [{"id": "a", "pos": "a", "neg": "a*", "weight": "1"},
              {"id": "b", "pos": "b", "neg": "b*", "weight": "1"}],
    "order": [["a", "b"], ["b", "a"]],
}


@pytest.mark.parametrize("data, failure", [
    (COMPARABLE_WITH_COMPLEMENT, "COMPARABLE_WITH_COMPLEMENT"),
    (CYCLIC_ORDER, "NOT_ANTISYMMETRIC"),
], ids=["comparable-with-complement", "cyclic-order"])
def test_invalid_pocset_files_are_rejected_before_computing(
        capsys, tmp_path, data, failure):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ("points", "rank"):
        code, report, _ = run_cli(capsys, command, "--pocset", str(bad))
        assert code == 65
        assert report["error"]["code"] == "INVALID_INPUT"
        assert "verdict" not in report
        assert failure in [
            f["code"] for f in report["error"]["data"]["report"]["failures"]]
    code, report, err = run_cli(capsys, "validate", "--pocset", str(bad))
    assert code == 65
    assert report["verdict"]["ok"] is False
    assert failure in [f["code"] for f in report["verdict"]["failures"]]
    assert "validate: INVALID" in err


def test_window_flip_with_verify(capsys):
    code, report, _ = run_cli(
        capsys, "flip", "--fixture", "F2BALL", "--halfspace", "wa-",
        "--max-word-len", "2", "--verify")
    assert code == 0
    assert report["verdict"]["kind"] == "FLIPPED"
    assert report["verdict"]["word"] == "b"
    assert report["verify"] == {"disjointFromComplement": True,
                                "notEqualToHalfspace": True}


def test_free_cert_with_verify(capsys):
    code, report, _ = run_cli(
        capsys, "free-cert", "--fixture", "F2BALL", "--a", "a", "--b", "b",
        "--h", "wA+", "--k", "wB+", "--max-word-len", "2", "--verify")
    assert code == 0
    assert report["verdict"]["verified"] is True
    assert report["verify"] == {"pairwiseDisjoint": True}


def test_facing_on_a_pocset_file_needs_no_action(capsys, tmp_path):
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    tripod = tmp_path / "tripod.json"
    tripod.write_text(json.dumps(se.dump_pocset(fx.tripod())))
    code, report, _ = run_cli(
        capsys, "facing", "--pocset", str(tripod), "--strong", "--verify")
    assert code == 0
    assert report["inputs"]["file"] == str(tripod)
    assert report["verdict"]["tuple"] == ["h1", "h2", "h3"]
    assert report["verify"] == {"pairwiseDisjoint": True,
                                "noCommonTransversal": True}


@pytest.mark.parametrize("source", [["--pocset", "tripod.json"],
                                    ["--fixture", "LINE"]],
                         ids=["no action", "window action"])
def test_facing_checks_the_depth_with_or_without_an_action(
        capsys, tmp_path, monkeypatch, source):
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tripod.json").write_text(json.dumps(se.dump_pocset(fx.tripod())))
    code, report, _ = run_cli(capsys, "facing", *source, "--tuple-size", "3",
                              "--max-word-len", "-1")
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert "negative" in report["error"]["message"]


def test_orbits_of_a_window_action_is_invalid_input(capsys):
    code, report, _ = run_cli(capsys, "orbits", "--fixture", "LINE")
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert "total action" in report["error"]["message"]


# Each valid invocation, then the option slot it does not read.
REMOVED_OPTIONS = [
    (["validate", "--fixture", "TRIPOD"], ["--verify"]),
    (["points", "--fixture", "PATH3"], ["--verify"]),
    (["median", "--fixture", "SQUARE", "--x", "a,b", "--y", "a,b*", "--z", "a*,b"],
     ["--verify"]),
    (["distance", "--fixture", "SQUARE", "--x", "a,b", "--y", "a*,b*"], ["--verify"]),
    (["rank", "--fixture", "SQUARE"], ["--verify"]),
    (["decompose", "--fixture", "GRID"], ["--verify"]),
    (["subdivide", "--fixture", "SQUARE", "-n", "1"], ["--verify"]),
    (["orbits", "--fixture", "SQUARE", "--gens", "rot,swap"], ["--verify"]),
    (["sectors", "--fixture", "SQUARE", "--pair", "a,b"], ["--verify"]),
    (["lineal", "--fixture", "PATH3"], ["--verify"]),
    (["classify", "--fixture", "F2BALL", "--max-word-len", "3"], ["--verify"]),
    (["inversions", "--fixture", "SQUARE", "--gens", "flipa", "--word", "flipa"],
     ["--verify"]),
    (["inversions", "--fixture", "SQUARE", "--gens", "flipa", "--word", "flipa"],
     ["--max-word-len", "2"]),
    (["ubs-validate"], ["--fixture", "STAIRFLAP"]),
    (["ubs-graph"], ["--fixture", "STAIRFLAP"]),
    (["ubs-chi", "--shift", "shift.json"], ["--fixture", "STAIRFLAP"]),
    (["orbits", "--fixture", "SQUARE", "--gens", "rot,swap"],
     ["--window", "f2ball.json"]),
]


@pytest.mark.parametrize("argv, option", REMOVED_OPTIONS,
                         ids=[f"{a[0]} {o[0]}" for a, o in REMOVED_OPTIONS])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv, option):
    from mediankit.cli import build_parser
    if argv[0].startswith("ubs-"):  # --fixture stood for --system
        build_parser().parse_args(argv + ["--system", "STAIRFLAP"])
    else:
        build_parser().parse_args(argv)
    assert main(argv + option) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["rank"],
    ["rank", "--fixture", "SQUARE", "--pocset", "square.json"],
    ["flip", "--halfspace", "h1*"],
    ["flip", "--fixture", "TRIPOD", "--window", "line.json", "--halfspace", "h1*"],
    ["facing", "--pocset", "tripod.json", "--window", "line.json"],
    ["ubs-validate"],
    ["ubs-validate", "--system", "STAIRFLAP", "--system-file", "system.json"],
], ids=["rank none", "rank two", "flip none", "flip two", "facing two",
        "ubs-validate none", "ubs-validate two"])
def test_each_run_names_exactly_one_source(capsys, argv):
    assert main(argv) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["facing", "--fixture", "TRIPOD", "--auto-file", "missing.json",
      "--tuple-size", "3"], "cannot read missing.json"),
    (["facing", "--fixture", "SQUARE", "--gens", "bogus", "--tuple-size", "3"],
     "no automorphism 'bogus'"),
    (["flip", "--fixture", "F2BALL", "--gens", "a", "--halfspace", "wa-",
      "--max-word-len", "2"], "--gens needs a total-action fixture"),
    (["flip", "--fixture", "TRIPOD", "--gens", "rot", "--auto-file", "rot.json",
      "--halfspace", "h1*"], "--gens needs a total-action fixture"),
    (["facing", "--pocset", "tripod.json", "--gens", "rot"],
     "--gens needs a total-action fixture"),
    (["flip", "--window", "line.json", "--auto-file", "rot.json",
      "--halfspace", "w10+"], "--auto-file needs --fixture or --pocset"),
    (["flip", "--pocset", "tripod.json", "--halfspace", "h1*"],
     "--pocset needs --auto-file"),
], ids=["facing missing auto-file", "facing bogus gens", "gens on a window",
        "gens with auto-file", "gens on a pocset file", "auto-file on a window",
        "pocset without auto-file"])
def test_action_inputs_are_checked_not_dropped(capsys, tmp_path, monkeypatch,
                                               argv, message):
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tripod.json").write_text(json.dumps(se.dump_pocset(fx.tripod())))
    (tmp_path / "line.json").write_text(
        json.dumps(se.dump_window_action(fx.line_window())))
    (tmp_path / "rot.json").write_text(json.dumps({"name": "rot", "map": {
        "h1": "h2", "h2": "h3", "h3": "h1"}}))
    code, report, _ = run_cli(capsys, *argv)
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert message in report["error"]["message"]


def malformed_input(kind):
    """(file contents, the command that reads the file as ``F``, the field
    the error names) of a file with one malformed field."""
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    system = head_entry_system()
    system_argv = ["ubs-validate", "--system-file", "F"]
    shift = {"tau": {"H": "H", "K": "K"}, "shift": {"H": 1, "K": 1}}
    shift_argv = ["ubs-chi", "--system", "STAIRFLAP", "--shift", "F"]
    if kind == "chains-array":
        return {"chains": 5}, system_argv, "chains"
    if kind == "weights-array":
        system["chains"][0].update(period=2, weights="12")
        return system, system_argv, "chains[0].weights"
    if kind == "period":
        system["chains"][0]["period"] = "x"
        return system, system_argv, "chains[0].period"
    if kind == "periodic-from":
        system["rel"]["periodic"] = [
            {"to": "K", "rule": "sub", "offsetRange": [None, None]}]
        return system, system_argv, "rel.periodic[0] is missing 'from'"
    if kind == "head-index":
        system["rel"]["head"] = [["H", "x", "K", 1, "sup"]]
        return system, system_argv, "rel.head[0]"
    if kind == "to-range":
        system["rel"]["periodic"] = [{"from": "H", "fromIndex": 0, "to": "K",
                                      "rule": "sup", "toRange": ["a", None]}]
        return system, system_argv, "rel.periodic[0].toRange"
    if kind == "shift-value":
        shift["shift"]["H"] = "x"
        return shift, shift_argv, "shift.H"
    if kind == "min-index":
        shift["minIndex"] = "z"
        return shift, shift_argv, "minIndex"
    if kind == "order-array":
        return ({"walls": [{"id": "a", "pos": "a", "neg": "a*", "weight": "1"}],
                 "order": 3}, ["rank", "--pocset", "F"], "order")
    if kind == "wall-entry":
        return {"walls": [5]}, ["rank", "--pocset", "F"], "walls[0]"
    if kind == "automorphism-map":
        return ({"name": "rot", "map": [1, 2]},
                ["orbits", "--fixture", "SQUARE", "--auto-file", "F"], "map")
    if kind == "domain-array":
        window = se.dump_window_action(fx.line_window())
        window["maps"] = [{"name": "s", "map": {"w00+": "w01+"}, "domain": "w00+"}]
        return window, ["flip", "--window", "F", "--halfspace", "w10+"], \
            "maps[0].domain"
    window = se.dump_window_action(fx.line_window())
    window["maps"] = [{"name": "s", "map": [1]}]
    return window, ["flip", "--window", "F", "--halfspace", "w10+"], "maps[0].map"


@pytest.mark.parametrize("kind", [
    "period", "periodic-from", "head-index", "to-range", "shift-value",
    "min-index", "wall-entry", "automorphism-map", "window-map", "chains-array",
    "order-array", "weights-array", "domain-array"])
def test_malformed_fields_are_invalid_input(capsys, tmp_path, kind):
    data, argv, field = malformed_input(kind)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_cli(
        capsys, *[str(path) if a == "F" else a for a in argv])
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert field in report["error"]["message"]
