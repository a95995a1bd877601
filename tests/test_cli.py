"""CLI behavior: reports, exit codes, determinism, DOT export."""

import json
import time

import pytest

from mediankit import errors
from mediankit import fixtures as fx
from mediankit.cli import main
from mediankit.serialize import dump_chain_system, dump_pocset

import seeded_cases as sc
from references import dot_strings


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


@pytest.mark.parametrize("argv", [
    ["skewer", "--fixture", "F2BALL", "--pair", "waa+"],
    ["sectors", "--fixture", "SQUARE", "--pair", "a,b,c"],
], ids=["skewer one id", "sectors three ids"])
def test_pair_needs_exactly_two_ids(capsys, argv):
    code, report, _ = run_cli(capsys, *argv)
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == \
        f"--pair needs two ids h,k, got {argv[-1]!r}"


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


@pytest.mark.parametrize("word", ["rot^100001", "rot^99999999999", "rot^60000 rot^-40001"])
def test_a_word_past_the_letter_bound_is_invalid_input(capsys, word):
    """The exponent is checked before the token is expanded, so even
    10^11 letters answer at once."""
    start = time.perf_counter()
    code, report, _ = run_cli(
        capsys, "inversions", "--fixture", "SQUARE", "--gens", "rot", "--word", word)
    assert time.perf_counter() - start < 1
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == \
        f"word token {word.split()[-1]!r} expands past 100000 letters"


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


def test_ubs_graph_dot_to_an_unwritable_path_is_invalid_input(capsys, tmp_path):
    dot = tmp_path / "missing" / "g.dot"
    code, report, _ = run_cli(
        capsys, "ubs-graph", "--system", "STAIRFLAP", "--dot", str(dot))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"].startswith(f"cannot write {dot}: ")
    assert not dot.parent.exists()


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


def test_ubs_chi_of_a_long_shift_answers_at_once(capsys, tmp_path):
    """Interval masses are computed in closed form, not index by index."""
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps(
        {"tau": {"H": "H", "K": "K"}, "shift": {"H": 10 ** 6, "K": 10 ** 6}}))
    start = time.perf_counter()
    code, report, _ = run_cli(
        capsys, "ubs-chi", "--system", "STAIRFLAP", "--shift", str(shift))
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert report["verdict"]["chi"] == ["1000000", "1000000"]


# two period-1 chains and no rules: every cross pair is transverse
FREE2_SYSTEM = {"chains": [{"id": "H", "period": 1, "weights": ["1"]},
                           {"id": "K", "period": 1, "weights": ["1"]}]}
HUGE_K_SHIFT = {"tau": {"H": "H", "K": "K"}, "shift": {"H": 0, "K": 10 ** 9}}


def test_ubs_chi_of_a_huge_shift_answers_at_once(capsys, tmp_path):
    """Shift maps are checked at the columns where a relation can change,
    so the cost does not grow with the spread of the shifts."""
    system, shift = tmp_path / "free2.json", tmp_path / "shift.json"
    system.write_text(json.dumps(FREE2_SYSTEM))
    shift.write_text(json.dumps(HUGE_K_SHIFT))
    start = time.perf_counter()
    code, report, _ = run_cli(
        capsys, "ubs-chi", "--system-file", str(system), "--shift", str(shift))
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert report["verdict"]["chi"] == ["0", "1000000000"]


def test_ubs_chi_rejects_a_shift_below_index_zero(capsys, tmp_path):
    shift = tmp_path / "shift.json"
    shift.write_text(json.dumps({"tau": {"H": "H", "K": "K"}, "shift": {"H": -5, "K": -5}}))
    code, report, _ = run_cli(
        capsys, "ubs-chi", "--system", "STAIRFLAP", "--shift", str(shift))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == "shift map reads a negative index on chain H"


# a shift map whose shift misses chain K of its tau
SHIFT_WITHOUT_K = {"tau": {"H": "H", "K": "K"}, "shift": {"H": 1}}


@pytest.mark.parametrize("shift, message", [
    (SHIFT_WITHOUT_K, "shift map has no shift for chain K"),
    ({"tau": {"H": "H", "K": "K"}, "shift": {"H": 1, "K": 1, "Z": 4}},
     "shift map shifts chain Z, which tau does not map")])
def test_ubs_chi_rejects_a_shift_of_other_chains_than_tau(capsys, tmp_path, shift, message):
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(shift))
    code, report, _ = run_cli(
        capsys, "ubs-chi", "--system", "STAIRFLAP", "--shift", str(path))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == message


# the STAIRFLAP file with a head entry of negative index, and with its row
# rule at a negative index
STAIRFLAP_SYSTEM = dump_chain_system(fx.stairflap())
NEGATIVE_HEAD_SYSTEM = {**STAIRFLAP_SYSTEM, "rel": {
    **STAIRFLAP_SYSTEM["rel"], "head": [["H", -1, "K", 0, "sub"]]}}
NEGATIVE_ROW_SYSTEM = {**STAIRFLAP_SYSTEM, "rel": {
    **STAIRFLAP_SYSTEM["rel"], "periodic": [
        {**entry, "fromIndex": -3} if "fromIndex" in entry else entry
        for entry in STAIRFLAP_SYSTEM["rel"]["periodic"]]}}


@pytest.mark.parametrize("system, detail", [
    (NEGATIVE_HEAD_SYSTEM, "head entry (H, -1, K, 0)"),
    (NEGATIVE_ROW_SYSTEM, "row rule RowRule(chain='H', index=-3, other='K', rel='sup', "
     "lo=0, hi=None)")])
def test_ubs_validate_rejects_a_negative_rule_index(capsys, tmp_path, system, detail):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, report, err = run_cli(capsys, "ubs-validate", "--system-file", str(path))
    assert code == 65
    assert report["verdict"]["failures"] == [{"code": "NEGATIVE_INDEX", "detail": detail}]
    assert "ubs-validate: INVALID" in err


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


# a_0 in b_0 in c_0 in a_0: every rule check passes, transitivity fails
HEAD_CYCLE_SYSTEM = dump_chain_system(sc.edge_systems()["head cycle"])


@pytest.mark.parametrize("command", ["ubs-validate", "ubs-graph", "ubs-chi"])
def test_ubs_commands_reject_a_head_cycle(capsys, tmp_path, command):
    code, report, err = run_ubs_command(capsys, tmp_path, command, HEAD_CYCLE_SYSTEM)
    assert code == 65
    assert [f["code"] for f in report["verdict"]["failures"]] == ["REL_NOT_TRANSITIVE"] * 3
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


def test_an_unknown_fixture_name_is_invalid_input(capsys):
    code, report, _ = run_cli(capsys, "dump-fixture", "NOPE")
    assert code == 65
    assert report["error"] == {"code": "INVALID_INPUT", "data": {},
                               "message": "unknown fixture 'NOPE' (kind any)"}


EXIT_CODES = {
    "MedianKitError": 65, "EmptyInput": 65, "InvalidInput": 65, "NotAnAutomorphism": 65,
    "NotANewPoint": 65, "OutOfWindow": 3, "WallBudgetExceeded": 3, "HorizonExceeded": 3,
    "NotFacing": 2, "NotTransverse": 2, "InclusionFailed": 2, "ClassNotPreserved": 2,
    "ClassPermuted": 2}


@pytest.mark.parametrize("error", [errors.MedianKitError, *errors.MedianKitError.__subclasses__()],
                         ids=lambda error: error.__name__)
def test_an_error_exits_with_the_exit_code_of_its_class(capsys, monkeypatch, error):
    """65 by default, 3 for an inconclusive search, 2 for a definitive
    negative; a class missing from ``EXIT_CODES`` fails here."""
    def raising():
        raise error("raised")

    monkeypatch.setattr("mediankit.cli.budget_overrides", raising)
    code, report, _ = run_cli(capsys, "rank", "--fixture", "SQUARE")
    assert (code, report["error"]["code"]) == (EXIT_CODES[error.__name__], error.code)


def test_pocset_file_naming_a_halfspace_twice_is_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"walls": [
        {"id": "w0", "pos": "a", "neg": "b", "weight": "1"},
        {"id": "w1", "pos": "a", "neg": "a", "weight": "1"}]}))
    code, report, _ = run_cli(capsys, "rank", "--pocset", str(bad))
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == "duplicate halfspace id 'a'"


# TRIPOD's file with its second wall given the first one's id
DUPLICATE_WALL_ID = dump_pocset(fx.pocset("TRIPOD"))
DUPLICATE_WALL_ID["walls"][1]["id"] = DUPLICATE_WALL_ID["walls"][0]["id"]


@pytest.mark.parametrize("argv", [
    ["validate"], ["points"], ["rank"], ["decompose"], ["subdivide", "-n", "1"]])
def test_a_pocset_file_giving_two_walls_one_id_is_rejected(capsys, tmp_path, argv):
    """Reports name walls by id, so two walls with one id would be one."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(DUPLICATE_WALL_ID))
    code, report, _ = run_cli(capsys, argv[0], "--pocset", str(bad), *argv[1:])
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert report["error"]["message"] == "walls[1].id 'h1' repeats walls[0].id"


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
    if budget == "group_order:2":  # the rotation's group has 3 elements
        assert report["error"]["data"] == {"budget": "group_order", "limit": 2, "reached": 3}
    # the cached fixture keeps its own budgets
    assert fx.window("F2BALL").budgets == fx.WINDOW_BUDGETS


def _budget_cli(budget, *argv):
    """A run of ``argv`` under ``MEDIANKIT_BUDGET=budget``, ``{grid}`` a
    file of the GRID pocset, loaded afresh: its error's message and data."""
    def run(capsys, monkeypatch, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(dump_pocset(fx.grid())))
        monkeypatch.setenv("MEDIANKIT_BUDGET", budget)
        code, report, _ = run_cli(capsys, *[a.format(grid=grid) for a in argv])
        assert code == 3
        return report["error"]["message"], report["error"]["data"]
    return run


def _budget_library(call):
    """The message and data of the error that ``call(monkeypatch)`` raises."""
    def run(capsys, monkeypatch, tmp_path):
        with pytest.raises((errors.WallBudgetExceeded, errors.HorizonExceeded)) as exc:
            call(monkeypatch)
        return str(exc.value), exc.value.data
    return run


def _kept_points_over_max(monkeypatch):
    from mediankit.config import Budgets
    from mediankit.pocset import points
    from mediankit.serialize import load_pocset
    P = load_pocset(dump_pocset(fx.grid()))  # its 16 points not yet kept
    points(P)
    points(P, Budgets(max_points=3))


def _automorphisms_over_cap(monkeypatch):
    from mediankit.config import Budgets
    from mediankit.structure import automorphisms
    automorphisms(fx.grid(), Budgets(aut_walls=5))


def _closure_past_the_horizon(monkeypatch):
    """Twice, so that the error read is the kept one, raised afresh."""
    from mediankit.boundary import closure, tail
    S = fx.line_system()
    with pytest.raises(errors.HorizonExceeded):
        closure(S, tail("H", S.horizon + 1))
    closure(S, tail("H", S.horizon + 1))


def _poset_without_representative(monkeypatch):
    from mediankit import boundary as bd
    S = fx.stairflap()
    bd.ubs_graph(S)  # kept, so only the poset's candidates read the patch
    monkeypatch.setattr(bd, "_read_closure", lambda S, reads, R: bd.UBS({}))
    bd.ubs_poset(S)


@pytest.mark.parametrize("run, message, data", [
    (_budget_cli("point_walls:4", "points", "--fixture", "GRID"),
     "6 walls exceed enumeration cap 4", ("point_walls", 4, 6)),
    (_budget_cli("max_points:3", "points", "--pocset", "{grid}"),
     "point enumeration exceeded max_points cap", ("max_points", 3, 4)),
    (_budget_library(_kept_points_over_max),
     "point enumeration exceeded max_points cap", ("max_points", 3, 16)),
    (_budget_cli("clique_walls:4", "rank", "--pocset", "{grid}"),
     "6 mutually transverse-capable walls exceed clique cap", ("clique_walls", 4, 6)),
    (_budget_library(_automorphisms_over_cap),
     "6 walls exceed automorphism cap 5", ("aut_walls", 5, 6)),
    (_budget_cli("group_order:2", "flip", "--fixture", "TRIPOD", "--gens", "rot",
                 "--halfspace", "h1*"),
     "generated group exceeds budget group_order 2: 3 elements found", ("group_order", 2, 3)),
    (_budget_cli("", "subdivide", "--fixture", "SQUARE", "-n", "12"),
     "2 walls at depth 12 exceed the tower budget", ("tower_walls", 4096, 8192)),
    (_budget_library(_closure_past_the_horizon),
     "seed interval on chain H leaves the window of horizon 9", ("horizon", 9, 10)),
    (_budget_library(_poset_without_representative),
     "no representative for vertex set [0] within horizon", ("horizon", 10, 4)),
], ids=["point_walls", "max_points", "max_points kept", "clique_walls", "aut_walls",
        "group_order", "tower_walls", "closure horizon", "ubs_poset horizon"])
def test_every_budget_error_says_how_far_it_got(capsys, monkeypatch, tmp_path, run, message, data):
    """Each budget and horizon raise names the budget, its limit and what
    it reached, through the CLI where a command reaches it; the messages
    are unchanged."""
    got_message, got_data = run(capsys, monkeypatch, tmp_path)
    assert got_message == message
    assert got_data == dict(zip(("budget", "limit", "reached"), data))


# a path of 1,500 walls from its generating pairs, whose point search goes
# one level deeper per wall, and a pocset without walls
PATH_1500 = sc.long_path(1500)
NO_WALLS = {"walls": [], "order": []}


def test_a_path_of_1500_walls_validates(capsys, monkeypatch, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(PATH_1500))
    monkeypatch.setenv("MEDIANKIT_BUDGET", "point_walls:2000")
    code, report, _ = run_cli(capsys, "validate", "--pocset", str(path))
    assert code == 0
    assert report["verdict"]["notes"] == ["1501 points enumerated; separation holds"]


def test_a_pocset_without_walls_does_not_subdivide_without_end(capsys, tmp_path):
    """The tower budget counts a wall-free pocset as one wall, so a depth
    of 10^9 exits 3 at once; depth 12 stays within the budget."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(NO_WALLS))
    start = time.perf_counter()
    code, report, _ = run_cli(capsys, "subdivide", "--pocset", str(empty), "-n", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert report["error"]["data"] == {"budget": "tower_walls", "limit": 4096, "reached": 8192}
    code, report, _ = run_cli(capsys, "subdivide", "--pocset", str(empty), "-n", "12")
    assert code == 0
    assert report["verdict"]["depth"] == 12


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


def _walls(*names):
    return [{"id": h, "pos": h, "neg": h + "*", "weight": "1"} for h in names]


# a window whose pocset has a <= a*, and an irreducible pocset in which h0
# and h3 are transverse with no halfspace inside a sector
BAD_WINDOW = {"window": {"walls": _walls("a", "b"), "order": [["a", "a*"]]},
              "maps": [{"name": "s", "map": {"b": "b", "b*": "b*"}}]}
# an invalid window whose map the order check would reject first
UNORDERED_WINDOW = {"window": {"walls": _walls("a", "b"), "order": [["a", "a*"]]},
                    "maps": [{"name": "s", "map": {"a": "b", "a*": "b*"}}]}
NEITHER_POCSET = {"walls": _walls("h0", "h1", "h2", "h3"),
                  "order": [["h2", "h0"], ["h2", "h1"], ["h3", "h1"]]}


def test_invalid_window_files_are_rejected_before_computing(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_WINDOW))
    code, report, _ = run_cli(capsys, "inversions", "--window", str(bad), "--word", "s")
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT" and "verdict" not in report
    assert [f["code"] for f in report["error"]["data"]["report"]["failures"]] == \
        ["COMPARABLE_WITH_COMPLEMENT", "COMPARABLE_WITH_COMPLEMENT"]


def test_window_pocset_is_validated_before_its_maps(capsys, tmp_path):
    path = tmp_path / "unordered.json"
    path.write_text(json.dumps(UNORDERED_WINDOW))
    code, report, _ = run_cli(capsys, "inversions", "--window", str(path), "--word", "s")
    assert code == 65
    assert report["error"]["code"] == "INVALID_INPUT"
    assert [f["code"] for f in report["error"]["data"]["report"]["failures"]] == \
        ["COMPARABLE_WITH_COMPLEMENT", "COMPARABLE_WITH_COMPLEMENT"]


# ids that are not strings, each in a different file kind
NONSTRING_ID_POCSET = {"walls": _walls("a", "b"), "order": [["a", ["b"]]]}
NONSTRING_ID_FILES = [
    ("rank --pocset", NONSTRING_ID_POCSET, "order[0] must be a pair of halfspace ids"),
    ("rank --pocset", {"walls": [{"id": "a", "pos": 5, "neg": "a*", "weight": "1"}]},
     "walls[0].pos must be a string id, not 5"),
    ("inversions --word s --window",
     {"window": {"walls": _walls("a")}, "maps": [{"name": "s", "map": {"a": ["a"]}}]},
     "maps[0].map must map string ids to string ids, not 'a' to ['a']"),
    ("ubs-validate --system-file",
     {"chains": [{"id": ["H"], "period": 1, "weights": ["1"]}]},
     "chains[0].id must be a string id, not ['H']"),
]


@pytest.mark.parametrize("command, data, message", NONSTRING_ID_FILES,
                         ids=["order pair", "wall side", "map value", "chain id"])
def test_nonstring_ids_exit_65_naming_the_field(command, data, message, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_cli(capsys, *command.split(), str(path))
    assert code == 65
    assert report["error"] == {"code": "INVALID_INPUT", "message": message, "data": {}}


def test_sectors_answers_neither_with_exit_2(capsys, tmp_path):
    path = tmp_path / "neither.json"
    path.write_text(json.dumps(NEITHER_POCSET))
    code, report, err = run_cli(capsys, "sectors", "--pocset", str(path), "--pair", "h0,h3")
    assert code == 2
    assert report["verdict"] == {"kind": "NEITHER"}
    assert "sectors: NEITHER" in err


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


# -- loader defects: names, duplicate generators, rule codes, empty sources ---

SQUARE_ROT_G = {"name": "g", "map": {"a": "b", "b": "a*"}}
SQUARE_SWAP_G = {"name": "g", "map": {"a": "b", "b": "a"}}


def test_an_automorphism_name_must_be_a_string(capsys, tmp_path):
    auto = tmp_path / "a.json"
    auto.write_text(json.dumps({**SQUARE_ROT_G, "name": 7}))
    code, report, _ = run_cli(capsys, "inversions", "--fixture", "SQUARE",
                              "--auto-file", str(auto), "--word", "g")
    assert code == 65
    assert report["error"]["message"] == "name must be a string id, not 7"


def test_auto_files_must_name_their_generators_apart(capsys, tmp_path):
    """A rotation and a swap of SQUARE, both named g: the second used to
    replace the first, giving minimum orbit size 1 instead of 4."""
    paths = []
    for k, data in enumerate((SQUARE_ROT_G, SQUARE_SWAP_G)):
        paths += ["--auto-file", str(tmp_path / f"{k}.json")]
        (tmp_path / f"{k}.json").write_text(json.dumps(data))
    code, report, _ = run_cli(capsys, "orbits", "--fixture", "SQUARE", *paths)
    assert code == 65
    assert report["error"]["message"] == "generator name 'g' is used twice"


@pytest.mark.parametrize("command", [["orbits"], ["flip", "--halfspace", "a"]])
def test_gens_must_not_repeat_a_name(capsys, command):
    """``--gens rot,rot`` used to run the action of a single rot while the
    report named two."""
    code, report, _ = run_cli(capsys, *command, "--fixture", "SQUARE", "--gens", "rot,rot")
    assert code == 65
    assert report["error"]["message"] == "generator name 'rot' is used twice"


def test_window_maps_must_be_named_apart(capsys, tmp_path):
    from mediankit import fixtures as fx
    from mediankit import serialize as se
    data = se.dump_window_action(fx.line_window())
    data["maps"] = data["maps"] * 2
    window_file = tmp_path / "twice.json"
    window_file.write_text(json.dumps(data))
    code, report, _ = run_cli(
        capsys, "flip", "--window", str(window_file), "--halfspace", "w10+")
    assert code == 65
    assert report["error"]["message"] == "generator name 's' is used twice"


@pytest.mark.parametrize("rule", [["sub"], {"sub": 1}])
def test_a_rule_code_that_is_not_a_string_is_invalid_input(capsys, tmp_path, rule):
    data = dump_chain_system(fx.stairflap())
    data["rel"]["periodic"][0]["rule"] = rule
    code, report, _ = run_ubs_command(capsys, tmp_path, "ubs-validate", data)
    assert code == 65
    assert report["error"]["message"] == f"bad relation code {rule!r} at rel.periodic[0]"


@pytest.mark.parametrize("argv", [["points", "--fixture", ""],
                                  ["ubs-graph", "--system", ""],
                                  ["ubs-validate", "--system-file", ""],
                                  ["inversions", "--window", "", "--word", "s"]])
def test_an_empty_source_is_a_usage_error(capsys, argv):
    assert main(argv) == 64
    assert "must not be empty" in capsys.readouterr().err


# -- systems sized by the head extent, not by the periods --------------------

def periods_system(*periods, unit: bool = False) -> dict:
    """Rule-free chains A, B, ... of the given periods, weights 1 to p, or
    all 1 when ``unit``."""
    return {"name": "PERIODS", "chains": [
        {"id": c, "period": p, "weights": ["1" if unit else str(k + 1) for k in range(p)]}
        for c, p in zip("ABCDEFGH", periods)]}


def unit_shift(system: dict) -> dict:
    """Every chain of the system shifted by 1 onto itself."""
    ids = [c["id"] for c in system["chains"]]
    return {"tau": {c: c for c in ids}, "shift": {c: 1 for c in ids}}


PERIODS_3 = periods_system(7, 11, 13)
PERIODS_4 = periods_system(7, 11, 13, 17)
PERIODS_5_UNIT = periods_system(7, 11, 13, 17, 19, unit=True)
GAP_12 = dump_chain_system(sc.gap_system(12))


def zone_system(bound: int) -> dict:
    """Two period-1 chains H and K: H_n and K_m transverse for offsets
    m - n up to ``bound`` - 1, K_m in H_n from ``bound`` on, so the head
    extent, and every table, grows with the bound."""
    return {"name": f"ZONE{bound}", "chains": [
        {"id": c, "period": 1, "weights": ["1"]} for c in "HK"], "rel": {"periodic": [
            {"from": "H", "to": "K", "rule": "trans", "offsetRange": [None, bound - 1]},
            {"from": "H", "to": "K", "rule": "sup", "offsetRange": [bound, None]}]}}


# the console script's memory step in CI reads this file
ZONE_4000 = zone_system(4000)
# STAIRFLAP with chain ids that DOT must escape; its DOT step in CI reads this file
QUOTED_IDS_SYSTEM = dump_chain_system(
    sc._renamed(fx.stairflap(), {"H": 'say "hi"', "K": "back\\slash"}))


def test_ubs_graph_writes_dot_for_chain_ids_holding_quotes(capsys, tmp_path):
    """Every quoted string of the DOT file is well formed and reads back
    as a label or a chain id of the report."""
    dot = tmp_path / "quoted.dot"
    (tmp_path / "quoted.json").write_text(json.dumps(QUOTED_IDS_SYSTEM))
    code, report, _ = run_cli(capsys, "ubs-graph", "--system-file", str(tmp_path / "quoted.json"),
                              "--dot", str(dot))
    assert code == 0
    skeleton, strings = dot_strings(dot.read_text(encoding="utf-8"))
    assert skeleton == ("digraph ubs {\n  ID [label=ID chain=ID];\n"
                        "  ID [label=ID chain=ID];\n  ID -> ID;\n}\n")
    vertices = report["verdict"]["vertices"]
    assert set(strings) == {v["label"] for v in vertices} | {v["chain"] for v in vertices} \
        == {'say "hi"', 'say "hi"[1:]', "back\\slash", "back\\slash[0:]"}


@pytest.mark.parametrize("periods, seconds, chi_seconds",
                         [((7, 11, 13), 0.2, 0.1), ((7, 11, 13, 17), 0.5, 0.5),
                          ((11, 13, 17), 0.2, 0.1), ((7, 11, 13, 17, 19), 1, 1)],
                         ids=["lcm 1001", "lcm 17017", "lcm 2431", "lcm 323323"])
def test_lcm_sized_systems_answer_at_once(capsys, tmp_path, periods, seconds, chi_seconds):
    """Validation and the graph on weights 1..p; the transfer characters on
    unit weights under the unit shift, which weights 1..p do not keep:
    one unit of mass per class, its shift checked at the heads, not over a
    period block of lcm rows."""
    system, unit = periods_system(*periods), periods_system(*periods, unit=True)
    for command in ("ubs-validate", "ubs-graph"):
        code, report, _ = run_ubs_command(capsys, tmp_path, command, system)
        assert code == 0 and report["timing"]["seconds"] < seconds
    (tmp_path / "unit.json").write_text(json.dumps(unit))
    (tmp_path / "unit-shift.json").write_text(json.dumps(unit_shift(unit)))
    code, report, _ = run_cli(capsys, "ubs-chi", "--system-file", str(tmp_path / "unit.json"),
                              "--shift", str(tmp_path / "unit-shift.json"))
    assert code == 0 and report["verdict"]["chi"] == ["1"] * len(periods)
    assert report["timing"]["seconds"] < chi_seconds


@pytest.mark.parametrize("source,word,runs", [
    (["--fixture", "SQUARE", "--gens", "rot,swap"], "rot", [["rot", "swap"], []]),
    (["--fixture", "SQUARE", "--auto-file", "{rot}"], "rot", [["rot"], ["rot"]]),
    (["--window", "{window}"], "a", [["a", "b"], ["a", "b"]]),
    (["--fixture", "F2BALL"], "a", [["a", "b"], []]),
], ids=["total fixture", "auto-file", "window file", "window fixture"])
def test_each_load_path_checks_each_map_once(capsys, tmp_path, checks_run, source, word, runs):
    """Counting only the checks that run, not the calls that return a
    recorded pass: a file's maps are loaded afresh and checked once per
    run; a fixture's maps are cached, so the second run checks none, and
    the action the CLI rebuilds under the run's budgets checks none again."""
    from mediankit import serialize as se
    (tmp_path / "rot.json").write_text(json.dumps({**SQUARE_ROT_G, "name": "rot"}))
    (tmp_path / "window.json").write_text(json.dumps(se.dump_window_action(fx.f2ball_window())))
    fx.named_automorphisms.cache_clear()
    fx.f2ball_window.cache_clear()
    argv = [a.format(rot=tmp_path / "rot.json", window=tmp_path / "window.json") for a in source]
    for names in runs:
        checks_run.clear()
        code, _, _ = run_cli(capsys, "inversions", *argv, "--word", word)
        assert code == 0
        assert sorted(g.name for g in checks_run) == names
        assert len(set(map(id, checks_run))) == len(checks_run)
