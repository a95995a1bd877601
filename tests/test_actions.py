"""Words, windows, flipping, skewering, facing tuples, ping-pong, classify."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mediankit import fixtures as fx
from mediankit.actions import (
    TotalAction,
    WindowAction,
    WordImages,
    classify,
    double_skewer,
    enumerate_words,
    facing_tuple,
    find_flip,
    is_lineal,
    min_orbit,
    parse_word,
    pingpong,
    reduce_word,
    sector_halfspace,
    strongly_separated,
    wall_inversions,
    word_str,
)
from mediankit.config import Budgets
from mediankit.errors import (
    InvalidInput,
    NotAnAutomorphism,
    NotFacing,
    NotTransverse,
    OutOfWindow,
    WallBudgetExceeded,
)
from mediankit.pocset import (
    WeightedPocset,
    points,
)
from mediankit.structure import Automorphism, pocset_product
from references import composed_map, evaluate, expand_letters

ONE = Fraction(1)
SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- words -------------------------------------------------------------------

def test_word_parsing_forms():
    names = ("a", "b")
    assert parse_word("a", names) == (("a", 1),)
    assert parse_word("a b^-1", names) == (("a", 1), ("b", -1))
    assert parse_word("ab", names) == (("a", 1), ("b", 1))
    assert parse_word("a^2", names) == (("a", 1), ("a", 1))
    assert parse_word("a^-2", names) == (("a", -1), ("a", -1))
    with pytest.raises(InvalidInput):
        parse_word("c", names)


def test_reduce_word():
    w = (("a", 1), ("a", -1), ("b", 1))
    assert reduce_word(w) == (("b", 1),)


def test_word_enumeration_is_reduced_and_ordered():
    words = list(enumerate_words(("a", "b"), 2))
    assert words[0] == (("a", 1),)
    assert len(words) == 4 + 12
    for w in words:
        assert reduce_word(w) == w


def test_word_evaluation_is_multiplicative(square):
    named = fx.named_automorphisms("SQUARE")
    act = TotalAction(square, {"r": named["rot"], "s": named["swap"]})
    rs = evaluate(act, parse_word("r s", act.gen_names()))
    assert rs.perm == named["rot"].compose(named["swap"]).perm


# -- the search engine -------------------------------------------------------------

def test_search_maps_match_evaluate():
    """Every word's halfspace images in the engine are those of the map
    ``evaluate`` builds and of the composed reference, which passes the
    structure check that only loading runs."""
    for action in (fx.line_window(), fx.f2ball_window()):
        images = WordImages(action, range(action.pocset.n))
        for word in enumerate_words(action.gen_names(), 3):
            g = composed_map(action, word)
            assert images(word) == g.perm == evaluate(action, word).perm
            g.check()


def test_pingpong_letter_maps_match_evaluate():
    """Letter words of a ping-pong search, with expansions that cancel
    where two letters meet."""
    W = fx.f2ball_window()
    letters = {"A": parse_word("a b", W.gen_names()),
               "B": parse_word("b^-1 a", W.gen_names())}
    assert expand_letters((("A", 1), ("B", 1)), letters) == \
        parse_word("a a", W.gen_names())
    images = WordImages(W, range(W.pocset.n))
    for u in enumerate_words(("A", "B"), 3):
        word = expand_letters(u, letters)
        g = composed_map(W, word)
        assert images(word) == g.perm == evaluate(W, word).perm
        g.check()


def test_long_generator_words_leave_the_window_without_recursing():
    """Images are read along a trie of suffixes, so a ping-pong generator of
    5,000 letters walks its word, where a recursion over suffixes would
    pass Python's recursion limit."""
    W = fx.f2ball_window()
    a, b = (parse_word(x, W.gen_names()) for x in ("a^5000", "b"))
    with pytest.raises(OutOfWindow, match="not visible in the window"):
        pingpong(W, a, b, "wA+", "wB+", max_len=2)


def test_four_cube_flip_searches_the_whole_group():
    """The hyperoctahedral group of the 4-cube, |G| = 384, from a 4-cycle of
    axes, one axis swap and one sign flip."""
    axes = ("x", "y", "z", "w")
    P = WeightedPocset([(f"{a}+", f"{a}-", ONE) for a in axes], wall_ids=axes)
    fixed = {f"{a}+": f"{a}+" for a in axes}
    maps = {
        "c": {f"{a}+": f"{axes[(i + 1) % 4]}+" for i, a in enumerate(axes)},
        "s": dict(fixed, **{"x+": "y+", "y+": "x+"}),
        "f": dict(fixed, **{"x+": "x-"}),
    }
    act = TotalAction(P, {n: Automorphism.from_mapping(P, m, n)
                          for n, m in maps.items()})
    group = act.group()
    assert len(group) == 384
    res = find_flip(act, "w+")
    assert res.kind == "INVARIANT_SET"
    wm = P.idx("w-")
    want = [p.mask for p in points(P)
            if all(p.mask >> g.apply_idx(wm) & 1 for g in group)]
    assert [p.mask for p in res.invariant_set] == want


def test_flip_searches_share_one_group_computation(monkeypatch):
    """The first flip search computes the group; later searches and
    ``group()`` compose no maps."""
    calls = []
    compose = Automorphism.compose
    monkeypatch.setattr(Automorphism, "compose",
                        lambda g, other: calls.append(1) or compose(g, other))
    act = fx.total_action("GRID")
    first = find_flip(act, "x.h1")
    assert calls
    calls.clear()
    assert find_flip(act, "x.h1") == first
    for h in act.pocset.ids:
        find_flip(act, h)
    assert len(act.group()) == 8
    assert calls == []


def test_total_searches_read_permutations(monkeypatch):
    """With the group computed, total flip searches and the minimum orbit
    read the elements' permutations and the generators' set images: no
    halfspace, order or point call per element."""
    act = fx.total_action("GRID")
    assert len(act.elements) == 8
    calls = []
    for cls, name in ((Automorphism, "apply_idx"), (Automorphism, "apply_point"),
                      (Automorphism, "image_point"), (WeightedPocset, "leq_idx")):
        monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
    kinds = [find_flip(act, h).kind for h in act.pocset.ids]
    assert min_orbit(act).size == 4
    assert calls == [] and {"FLIPPED", "INVARIANT_SET"} <= set(kinds)


def test_group_over_budget_raises_on_every_call():
    """The error names the budget, its limit and the elements found: GRID's
    group has 8, and the fifth passes a limit of 4."""
    grid = fx.total_action("GRID")
    act = TotalAction(grid.pocset, grid.gens, Budgets(group_order=4))
    for _ in range(2):
        with pytest.raises(WallBudgetExceeded) as exc:
            find_flip(act, "x.h1")
        assert exc.value.data == {"budget": "group_order", "limit": 4, "reached": 5}
        assert str(exc.value) == "generated group exceeds budget group_order 4: 5 elements found"
        with pytest.raises(WallBudgetExceeded):
            act.group()


# the flip re-verification of a search, on point sets that a corrupted
# table makes overlap, from a process that strips assert statements
DOCTORED_FLIP = """
from mediankit import fixtures as fx
from mediankit.actions import find_flip
assert False, "assert statements run"
act = fx.total_action("GRID")
act.pocset._hmasks = ((1 << len(act.points())) - 1,) * act.pocset.n
find_flip(act, "x.h1")
"""


def test_flip_reverification_raises_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-O", "-c", DOCTORED_FLIP], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 1
    assert res.stderr.strip().endswith("AssertionError: the flip's image meets h* on points")


# -- wall inversions ----------------------------------------------------------

def test_wall_inversions_identity(square):
    act = fx.total_action("SQUARE")
    inv, undecided = wall_inversions(act, ())
    assert inv == () and undecided == 0


def test_point_swap_inverts_its_wall():
    P = WeightedPocset([("a", "a*", ONE)])
    swap = Automorphism.from_mapping(P, {"a": "a*"}, "swap")
    act = TotalAction(P, {"swap": swap})
    inv, _ = wall_inversions(act, (("swap", 1),))
    assert inv == ("a",)


def test_lifted_point_swap_has_no_inversions():
    from mediankit.subdivision import lift, subdivide
    P = WeightedPocset([("a", "a*", ONE)])
    S = subdivide(P)
    swap = Automorphism.from_mapping(P, {"a": "a*"}, "swap")
    act = TotalAction(S.child, {"swap": lift(S, swap)})
    inv, _ = wall_inversions(act, (("swap", 1),))
    assert inv == ()


# -- orbits ----------------------------------------------------------------------

def test_identity_action_has_singleton_orbit(square):
    act = TotalAction(square, {})
    assert min_orbit(act).size == 1


def test_square_dihedral_orbit_is_tight(square):
    act = fx.total_action("SQUARE")
    orb = min_orbit(act)
    assert orb.size == 4


def test_tripod_rotation_fixes_center(tripod):
    act = fx.total_action("TRIPOD", ("rot",))
    orb = min_orbit(act)
    assert orb.size == 1
    assert sorted(orb.orbit[0].ids) == ["h1*", "h2*", "h3*"]


# -- flipping -------------------------------------------------------------------

def test_tripod_rotation_flips_center_side(tripod):
    act = fx.total_action("TRIPOD", ("rot",))
    res = find_flip(act, "h1*")
    assert res.kind == "FLIPPED"
    g = evaluate(act, res.word)
    P = tripod
    img = g.apply_idx(P.idx("h1"))
    assert P.leq_idx(img, P.star[P.idx("h1")])  # disjoint from h1


def test_tripod_rotation_leaf_side_has_invariant_set(tripod):
    act = fx.total_action("TRIPOD", ("rot",))
    res = find_flip(act, "h1")
    assert res.kind == "INVARIANT_SET"
    assert [sorted(p.ids) for p in res.invariant_set] == [["h1*", "h2*", "h3*"]]


def test_identity_group_flip_gives_complement_side(square):
    act = TotalAction(square, {})
    res = find_flip(act, "a")
    assert res.kind == "INVARIANT_SET"
    assert {sorted(p.ids)[0] for p in res.invariant_set} == {"a*"}
    assert len(res.invariant_set) == 2


def test_line_window_flip_is_inconclusive_both_ways():
    """A translation never flips a halfspace of a line (all translates of a
    ray overlap it), and a window cannot certify absence, so both
    orientations come back inconclusive."""
    LINE = fx.line_window()
    up = find_flip(LINE, "w10+", max_len=4)
    down = find_flip(LINE, "w10-", max_len=4)
    assert up.kind == "INCONCLUSIVE" and down.kind == "INCONCLUSIVE"


# -- skewering -------------------------------------------------------------------

def test_line_skewer_both_orientations():
    LINE = fx.line_window()
    res = double_skewer(LINE, "w10+", "w10+", max_len=2)
    assert res.kind == "SKEWERED" and word_str(res.word) == "s"
    res = double_skewer(LINE, "w10-", "w10-", max_len=2)
    assert res.kind == "SKEWERED" and word_str(res.word) == "s^-1"


def test_identity_group_skewer_inconclusive(square):
    act = TotalAction(square, {})
    res = double_skewer(act, "a", "a", max_len=3)
    assert res.kind == "INCONCLUSIVE"


def test_f2ball_skewer_returns_a_squared():
    W = fx.f2ball_window()
    res = double_skewer(W, "waa+", "wa+", max_len=3)
    assert res.kind == "SKEWERED"
    assert res.word == (("a", 1), ("a", 1))
    assert res.gap and res.gap > 0


def test_skewer_requires_nested_pair(square):
    with pytest.raises(InvalidInput):
        double_skewer(TotalAction(square, {}), "a", "b")


# -- separation and facing tuples ----------------------------------------------------

def test_tripod_strong_separation(tripod):
    assert strongly_separated(tripod, "h1", "h2")


def test_square_sides_not_strongly_separated(square):
    assert not strongly_separated(square, "a", "b*")


def test_grid_parallel_walls_not_strongly_separated(grid):
    # disjoint walls of one factor: the other factor's walls are transverse
    # to both
    assert grid.leq("x.h3", "x.h1")
    assert not strongly_separated(grid, "x.h3", "x.h1*")


def test_tripod_facing_triple(tripod):
    res = facing_tuple(tripod, 3)
    assert res.kind == "FOUND"
    assert res.tuple_ids == ("h1", "h2", "h3")


def test_square_has_no_facing_triple(square):
    res = facing_tuple(square, 3)
    assert res.kind == "NOT_FOUND"


def test_f2ball_facing_four_tuple_with_upgrade():
    W = fx.f2ball_window()
    res = facing_tuple(W.pocset, 4, action=W, max_len=3, strong=True)
    assert res.kind == "FOUND"
    P = W.pocset
    for i, a in enumerate(res.tuple_ids):
        for b in res.tuple_ids[i + 1:]:
            assert P.leq(a, P.star_of(b))
            assert strongly_separated(P, a, b)


# -- sectors ---------------------------------------------------------------------

def test_square_sector_gives_product_witness(square):
    res = sector_halfspace(square, "a", "b")
    assert res.kind == "PRODUCT"
    assert sorted(len(p) for p in res.partition) == [2, 2]


def test_two_by_three_grid_product_witness():
    short = WeightedPocset([("v", "v*", ONE)])
    long = fx.path3()
    P = pocset_product([short, long], prefixes=["x.", "y."])
    res = sector_halfspace(P, "x.v", "y.h2")
    assert res.kind == "PRODUCT"


def test_sector_requires_transverse_pair():
    W = fx.f2ball()
    with pytest.raises(NotTransverse):
        sector_halfspace(W, "wa+", "wb+")


def test_sector_halfspace_found_when_a_wall_sits_inside():
    # two transverse walls plus a third wall inside one sector
    P = WeightedPocset(
        [("a", "a*", ONE), ("b", "b*", ONE), ("c", "c*", ONE)],
        [("c", "a"), ("c", "b")])
    res = sector_halfspace(P, "a", "b")
    assert res.kind == "HALFSPACE"
    assert res.halfspace == "c"
    assert res.sector == ("a", "b")


# -- ping-pong -------------------------------------------------------------------

def test_f2ball_certificate():
    W = fx.f2ball_window()
    a = parse_word("a", W.gen_names())
    b = parse_word("b", W.gen_names())
    cert = pingpong(W, a, b, "wA+", "wB+", max_len=3)
    assert cert.verified and cert.stabilizer_trivial
    assert cert.words_checked == 52  # reduced nontrivial words to length 3
    assert cert.base_inclusions == 12


def test_pingpong_rejects_non_facing_data(square):
    act = fx.total_action("SQUARE", ("rot",))
    r = parse_word("rot", act.gen_names())
    with pytest.raises(NotFacing):
        pingpong(act, r, r, "a", "b")


def test_pingpong_rejects_equal_walls():
    W = fx.f2ball_window()
    a = parse_word("a", W.gen_names())
    b = parse_word("b", W.gen_names())
    with pytest.raises(NotFacing):
        pingpong(W, a, b, "wA+", "wA+")


def _f2ball_editing_a(sides: dict) -> WindowAction:
    """F2BALL with generator a sending each halfspace of ``sides`` to the
    named one instead (None: undefined); the action checks the new map."""
    W = fx.f2ball_window()
    P, perm = W.pocset, list(W.gens["a"].perm)
    for side, image in sides.items():
        perm[P.idx(side)] = None if image is None else P.idx(image)
    return WindowAction(P, {**W.gens, "a": Automorphism(P, perm, "a")}, budgets=W.budgets)


PINGPONG_EXITS = [
    # (window, a, b, h, k, depth, error, message, data)
    (fx.f2ball_window, "a", "b", "wA+", "wA-", 2, NotFacing,
     "h and k must be sides of distinct walls", {}),
    (fx.f2ball_window, "a", "a", "wA+", "wB+", 2, NotFacing,
     "the two generator words must be distinct and nontrivial", {}),
    (fx.f2ball_window, "a^5", "b", "wA+", "wB+", 2, OutOfWindow,
     "a𝔥* or b𝔨* is not visible in the window", {}),
    (fx.f2ball_window, "a", "a^-1", "wA+", "wB+", 2, NotFacing,
     "the four halfspaces h, a h*, k, b k* are not pairwise disjoint",
     {"tuple": ["wA+", "wa+", "wB+", "wAB-"]}),
    # a restricted to every wall but wa: a h* = wa+ is defined, a·wa+ is not
    (lambda: _f2ball_editing_a({"wa+": None, "wa-": None}), "a", "b", "wA+", "wB+", 2,
     OutOfWindow, "inclusion source wa+ not visible under a", {}),
    (fx.f2ball_window, "b", "a a", "wB+", "wA+", 4, OutOfWindow,
     "word a a a a a a a a leaves the window on Ω", {}),
]


@pytest.mark.parametrize("window,a,b,h,k,depth,error,message,data", PINGPONG_EXITS,
                         ids=[case[7] for case in PINGPONG_EXITS])
def test_pingpong_exits(window, a, b, h, k, depth, error, message, data):
    """Each way ``pingpong`` rejects a configuration, by error class,
    message and data.  The claim failure "escapes" is reached by no window
    here."""
    W = window()
    words = (parse_word(x, W.gen_names()) for x in (a, b))
    with pytest.raises(error) as exc:
        pingpong(W, *words, h, k, max_len=depth)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.data == data


UNCHECKED_EDITS = [
    # (id, edit of a, check message); each comment names the exit the map reached
    # "a𝔥 or b𝔨 is not visible in the window"
    ("a h or b k not visible", {"wA+": None}, "a: does not commute with star"),
    # "the central region Ω is empty"
    ("omega empty", {"wA+": "wA+"}, "a: not injective"),
    # "a·wa+ is not contained in wa+"
    ("base inclusion fails", {"wa+": "wB+", "wa-": "wB-"}, "a: not injective"),
]


@pytest.mark.parametrize("edit,message", [row[1:] for row in UNCHECKED_EDITS],
                         ids=[row[0] for row in UNCHECKED_EDITS])
def test_action_rejects_maps_of_removed_pingpong_exits(edit, message):
    """Only such maps reached three exits that ``pingpong`` has no more: one
    defined on h* but not on h, and two that send a second halfspace onto
    the image of another, wA+ onto itself and wa+ onto wB+.  Building the
    action checks its maps, so none gets that far."""
    with pytest.raises(NotAnAutomorphism) as exc:
        _f2ball_editing_a(edit)
    assert str(exc.value) == message


# -- classification ----------------------------------------------------------------

def test_classify_square_dihedral(square):
    rep = classify(fx.total_action("SQUARE"))
    assert rep.kind == "ROLLER_ELEMENTARY"
    assert rep.stage == 1
    assert rep.witness and "finiteOrbit" in rep.witness
    assert rep.witness["finiteOrbit"]["size"] == 4


def test_classify_identity_on_tripod(tripod):
    rep = classify(TotalAction(tripod, {}))
    assert rep.kind == "ROLLER_ELEMENTARY"
    assert "fixedPoint" in rep.witness


def test_classify_total_actions_never_inconclusive(rng):
    from mediankit import randomgen as rg
    from mediankit.structure import automorphisms
    for _ in range(5):
        P = rg.random_pocset(rng, max_walls=5, max_points=10)
        auts = automorphisms(P)
        act = TotalAction(P, {f"g{i}": g for i, g in enumerate(auts[:3])})
        rep = classify(act)
        assert rep.kind != "INCONCLUSIVE"
        assert rep.stage <= 2


@pytest.mark.parametrize("depth", [2, 3, 4, 8, 16])
def test_classify_f2ball_finds_free_subgroup(depth):
    """The first configuration at every depth.  Its words of length 4 leave
    the window on Ω, so from depth 4 on the witness is that of depth 3 but
    for ``depth`` and ``windowDepth``."""
    W = fx.f2ball_window()
    rep = classify(W, max_len=depth)
    assert rep.kind == "FREE_SUBGROUP"
    w = rep.witness
    assert (w["a"], w["b"], w["h"], w["k"]) == ("b^-1 a", "b a^-1", "wA+", "wa+")
    assert w["verified"]
    if depth >= 4:
        assert w == dict(classify(W, max_len=3).witness, depth=depth, windowDepth=3)
        assert rep.log[-1] == ("stage3: word b^-1 a b^-1 a b^-1 a b^-1 a leaves the window "
                               "on Ω, so words are checked to length 3")
    else:
        assert "windowDepth" not in w


def test_classify_accepts_only_verified_certificates(monkeypatch):
    """A configuration whose checked words fail the stabilizer check is
    passed over, as ``free-cert`` exits 3 on it."""
    monkeypatch.setattr("mediankit.actions._stabilizer_excluded", lambda *args: False)
    W = fx.f2ball_window()
    a, b = (parse_word(x, W.gen_names()) for x in ("b^-1 a", "b a^-1"))
    assert not pingpong(W, a, b, "wA+", "wa+", max_len=3).verified
    rep = classify(W, max_len=3)
    assert rep.kind == "INCONCLUSIVE"


def test_classify_tries_the_combinatorial_facing_tuple_alone(monkeypatch):
    """Stage 3 reads the first facing 4-tuple of the window and grows none
    by skewering: ``facing_tuple`` keeps that route."""
    def no_upgrade(*args):
        raise AssertionError("classify grew a facing tuple by skewering")

    monkeypatch.setattr("mediankit.actions._upgrade_route", no_upgrade)
    rep = classify(fx.f2ball_window(), max_len=2)
    assert rep.kind == "FREE_SUBGROUP"


def test_classify_line_is_inconclusive():
    rep = classify(fx.line_window(), max_len=3)
    assert rep.kind == "INCONCLUSIVE"
    assert rep.stage == 3


# -- lineality ---------------------------------------------------------------------

def test_path3_is_lineal(path3):
    res = is_lineal(path3)
    assert res.found and len(res.pairs) == 1
    x, y = res.pairs[0]
    assert {tuple(sorted(x.ids)), tuple(sorted(y.ids))} == {
        ("h1", "h2", "h3"), ("h1*", "h2*", "h3*")}


def test_square_has_two_diagonals(square):
    res = is_lineal(square)
    assert res.found and len(res.pairs) == 2


def test_tripod_not_lineal(tripod):
    assert not is_lineal(tripod).found
