"""``pocset.MaskMap`` beyond its rows in the oracle table (each user
of a mask map against a per-bit reference): the inputs those rows share,
and memos that survive pickling; the form each pocset's star map takes,
and pocsets that pickle in either form."""

import pickle

from mediankit import fixtures as fx
from mediankit.actions import find_flip, parse_word, pingpong
from mediankit.pocset import Point, points
from mediankit.subdivision import subdivide

import seeded_cases as sc


def test_random_inputs_mix_weights():
    assert sum(len({P.weight[i] for i, _ in P.walls}) > 1
               for P in sc.mixed_pocsets()) >= 20


def test_values_with_filled_memos_still_pickle():
    action = fx.window("LINE")
    S = subdivide(action.pocset)
    pts = action.points()
    images = [(g.apply_point(p), S.embed(p)) for g in action.gens.values() for p in pts]
    action2, S2 = pickle.loads(pickle.dumps((action, S)))
    images2 = [(g.apply_point(Point(action2.pocset, p.mask)),
                S2.embed(Point(S2.parent, p.mask)))
               for g in action2.gens.values() for p in pts]
    assert [(q and q.mask, e.mask) for q, e in images] == \
        [(q and q.mask, e.mask) for q, e in images2]
    total = fx.total_action("GRID")
    words = [(w, g.perm) for w, g in total.elements]
    total2 = pickle.loads(pickle.dumps(total))
    assert "elements" in vars(total2)
    assert [(w, g.perm) for w, g in total2.elements] == words
    # after a ping-pong and a flip search the letter table is cached and its
    # maps' set-image memos are filled; a copy gives the same answers
    W = fx.window("F2BALL")
    a, b = (parse_word(x, W.gen_names()) for x in "ab")
    cert = pingpong(W, a, b, "wA+", "wB+", max_len=3).to_json()
    flip = find_flip(W, "wa+", 2).to_json()
    assert "letters" in vars(W) and all(any(g.image.memos) for g in W.letters.values())
    W2 = pickle.loads(pickle.dumps(W))
    assert "letters" in vars(W2) and all(any(g.image.memos) for g in W2.letters.values())
    assert pingpong(W2, a, b, "wA+", "wB+", max_len=3).to_json() == cert
    assert find_flip(W2, "wa+", 2).to_json() == flip


def _offsets(P) -> set:
    return {j - i for i, j in enumerate(P.star)}


def test_each_pocset_gets_the_star_form_its_offsets_select():
    """Shifts when the star's offsets are no more than the bytes of a
    mask, the byte walk otherwise."""
    F = fx.window("F2BALL").pocset
    child = subdivide(F).child
    renamed = sc.renamed_pocsets()
    assert _offsets(F) == {1, -1} and F.star_map.shifts
    assert _offsets(child) == {1, -1, 3, -3} and child.star_map.shifts
    assert F.n == renamed[-3].n and len(_offsets(renamed[-3])) > F.n // 8
    assert not renamed[-3].star_map.shifts and renamed[-3].star_map.memos
    assert _offsets(renamed[-1]) == {160, -160} and renamed[-1].star_map.shifts
    for P in [F, child] + renamed + sc.mixed_pocsets():
        assert bool(P.star_map.shifts) == (len(_offsets(P)) <= (P.n + 7) // 8)


def test_a_pocset_pickles_in_either_star_form():
    F = fx.window("F2BALL").pocset
    for P in (F, sc.renamed_pocsets()[-3]):
        masks = [p.mask for p in points(P, fx.WINDOW_BUDGETS)]
        images = [P.star_map(m) for m in masks]
        P2 = pickle.loads(pickle.dumps(P))
        assert P2.star_map.shifts == P.star_map.shifts
        assert [P2.star_map(m) for m in masks] == images
        assert [p.mask for p in points(P2, fx.WINDOW_BUDGETS)] == masks
