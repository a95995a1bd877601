"""Workload ``search``: word searches of the actions layer, on window
actions and on total actions.  Subdivision and boundary do no work here.

Anchor jobs, run once at the start of every run: the F2BALL ping-pong
certificate to depth 4 (the acceptance configuration, with its exact
counts), one to depth 3 on a seed-chosen configuration, and the
elementary-or-free classification of F2BALL to depth 2.

Pool jobs, window actions: ping-pong to depth 2, flip searches and double
skewering on F2BALL, and one LINE job (skewering, a flip search and the
classification).  Total actions: hyperoctahedral actions on the 3-cube,
the SQUARE, TRIPOD and GRID fixture actions and tree products with factor
swaps; each job runs a flip search for every halfspace, the minimum orbit,
the group and the wall inversions of a few words.  Over a run, neither
kind takes less than about a third of the actions layer's time.
"""

from __future__ import annotations

import random

import harness
import inputs

A, B = (("a", 1),), (("b", 1),)
AI, BI = (("a", -1),), (("b", -1),)
# (a, b, h, k) with h, a h*, k, b k* facing in the F2BALL window
PINGPONG_CONFIGS = (
    (A, B, "wA+", "wB+"), (AI, BI, "wa+", "wb+"), (A, BI, "wA+", "wb+"),
    (AI, B, "wa+", "wB+"), (B, A, "wB+", "wA+"), (BI, AI, "wb+", "wa+"),
    (B, AI, "wB+", "wa+"), (BI, A, "wb+", "wA+"),
)
F2_LETTERS = ("a", "b", "A", "B")
INVERSE_LETTER = {"a": "A", "A": "a", "b": "B", "B": "b"}
FIXTURE_GENERATORS = {
    "SQUARE": ("rot", "swap", "flipa", "flipb"),
    "TRIPOD": ("rot", "swap12"),
    "GRID": ("swapxy", "flipx"),
}
# generator types of the cube jobs in one pass; with the other jobs this
# puts the median inside the 50-250 ms jobs and the 90th percentile inside
# the slowest flip searches, rather than at the edge of a cluster
CUBE_JOBS = (0, 0, 1, 1, 2, 3, 4)
INVERSION_WORDS = 4


def words_up_to(depth: int) -> int:
    """Nontrivial reduced words of length <= depth in a free group of
    rank 2."""
    return sum(4 * 3 ** (n - 1) for n in range(1, depth + 1))


def apply_word(gens: dict, word, i):
    """Image of halfspace index ``i`` under ``word``, read as a product
    whose rightmost letter acts first; ``gens`` maps a generator name to
    (forward, backward) index dicts.  None when it leaves a window."""
    for name, sign in reversed(word):
        i = gens[name][0 if sign > 0 else 1].get(i)
        if i is None:
            return None
    return i


def index_maps(action) -> dict:
    """Generator name -> (forward, backward) halfspace index dicts, read
    from the generators' own tables."""
    out = {}
    for name, g in action.gens.items():
        fwd = dict(g.hmap) if hasattr(g, "hmap") else dict(enumerate(g.perm))
        out[name] = (fwd, {v: k for k, v in fwd.items()})
    return out


def setup(lib, seed: int, workdir) -> harness.Workload:
    rng = random.Random(f"search/{seed}")
    harness.clear_fixture_caches(lib)
    f2 = lib.fixtures.window("F2BALL")
    line = lib.fixtures.window("LINE")
    for w in (f2, line):
        lib.pocset.halfspace_point_masks(w.pocset, w.budgets)
    anchors = [
        pingpong_job(lib, f2, PINGPONG_CONFIGS[0], 4),
        pingpong_job(lib, f2, rng.choice(PINGPONG_CONFIGS), 3),
        classify_job(lib, f2, 2, "FREE_SUBGROUP"),
    ]
    i = rng.randint(5, 15)
    window = [
        pingpong_job(lib, f2, rng.choice(PINGPONG_CONFIGS), 2),
        flip_job(lib, f2, f"w{rng.choice(F2_LETTERS)}+", 2),
        flip_job(lib, f2, f"w{rng.choice(F2_LETTERS)}-", 2),
        line_job(lib, line, f"w{i:02d}+", rng.randint(2, 3)),
    ]
    for x in F2_LETTERS:  # the search's cost depends on the first letter
        y = rng.choice([c for c in F2_LETTERS if c != INVERSE_LETTER[x]])
        window.append(skewer_job(lib, f2, f"w{x}{y}+", f"w{x}+", 3))

    total = [total_job(lib, action, rng) for action in total_actions(lib, rng)]
    pool = []
    for pos in range(max(len(window), len(total))):
        pool += total[pos:pos + 1] + window[pos:pos + 1]
    return harness.Workload(anchors=anchors, pool=pool)


def total_actions(lib, rng: random.Random) -> list:
    """Cube actions, fixture actions with seed-chosen generators, and
    tree products with a cyclic factor swap."""
    ac, st, pc = lib.actions, lib.structure, lib.pocset
    cube = inputs.cube_spec()
    P = pc.WeightedPocset(cube.walls, cube.order, cube.wall_ids)
    out = []
    for type_index in CUBE_JOBS:
        label, gens = inputs.cube_action(rng, type_index)
        action = ac.TotalAction(P, {n: st.Automorphism.from_mapping(P, m, n)
                                    for n, m in gens.items()})
        out.append((f"cube {label}", action))
    for name, names in FIXTURE_GENERATORS.items():
        chosen = tuple(sorted(rng.sample(names, rng.randint(1, len(names)))))
        out.append((f"{name} {','.join(chosen)}",
                    lib.fixtures.total_action(name, chosen)))
    for size, copies in ((rng.randint(3, 5), 2), (rng.randint(2, 3), 3)):
        spec, shift = inputs.swap_product(rng, "swap", size, copies)
        Q = pc.WeightedPocset(spec.walls, spec.order, spec.wall_ids)
        g = st.Automorphism.from_mapping(Q, shift, "s")
        out.append((f"swap {copies}x{size}", ac.TotalAction(Q, {"s": g})))
    for _, action in out:  # points and masks are cached set-up work
        lib.pocset.halfspace_point_masks(action.pocset, action.budgets)
    return out


# -- window jobs ---------------------------------------------------------------

def pingpong_job(lib, action, config, depth: int) -> harness.Job:
    a, b, h, k = config
    ver = lib.verification

    def run(tr):
        return tr.call("actions.pingpong", lib.actions.pingpong, action,
                       a, b, h, k, max_len=depth, tag="window")

    def check(cert):
        problems = []
        words = words_up_to(depth)
        if not (cert.verified and cert.stabilizer_trivial):
            problems.append("certificate not verified")
        if (cert.words_checked, cert.checks_performed, cert.base_inclusions) \
                != (words, 6 * words + 12, 12):
            problems.append(
                f"counts {cert.words_checked}/{cert.checks_performed}/"
                f"{cert.base_inclusions}, expected {words}/{6 * words + 12}/12")
        facing = ver.verify_facing(action.pocset, cert.facing_tuple, strong=False)
        if not facing["pairwiseDisjoint"]:
            problems.append("facing tuple not pairwise disjoint")
        counts = {"actions.words_checked": cert.words_checked,
                  "actions.checks_performed": cert.checks_performed}
        return problems, counts, cert.to_json()

    return harness.Job("window", f"pingpong {h},{k} depth {depth}", run, check)


def classify_job(lib, action, depth: int, expected: str) -> harness.Job:
    ver = lib.verification

    def run(tr):
        return tr.call("actions.classify", lib.actions.classify, action,
                       depth, tag="window")

    def check(rep):
        problems = []
        counts = {}
        if rep.kind != expected:
            problems.append(f"classified {rep.kind}, expected {expected}")
        if rep.kind == "FREE_SUBGROUP":
            w = rep.witness
            facing = ver.verify_facing(action.pocset, w["facingTuple"], strong=False)
            if not (w["verified"] and facing["pairwiseDisjoint"]):
                problems.append("free-subgroup witness does not verify")
            counts = {"actions.words_checked": w["wordsChecked"],
                      "actions.checks_performed": w["checksPerformed"]}
        return problems, counts, rep.to_json()

    return harness.Job("window", f"classify depth {depth}", run, check)


def line_job(lib, line, h: str, depth: int) -> harness.Job:
    """LINE: skewering ``h`` into itself, a flip search for it and the
    classification, which stays inconclusive on a window."""
    skewer = skewer_job(lib, line, h, h, depth)
    flip = flip_job(lib, line, h, depth)
    classify = classify_job(lib, line, depth, "INCONCLUSIVE")
    parts = (skewer, flip, classify)

    def run(tr):
        return [job.run(tr) for job in parts]

    def check(results):
        problems, counts, views = [], {}, []
        for job, res in zip(parts, results):
            p, c, v = job.check(res)
            problems += p
            for key, value in c.items():
                counts[key] = counts.get(key, 0) + value
            views.append(v)
        return problems, counts, views

    return harness.Job("window", f"LINE {h} depth {depth}", run, check)


def flip_job(lib, action, h: str, depth: int) -> harness.Job:
    P = action.pocset
    maps = index_maps(action)
    ver = lib.verification

    def run(tr):
        return tr.call("actions.find_flip", lib.actions.find_flip, action, h,
                       depth, tag="window")

    def check(res):
        problems = []
        if res.kind == "FLIPPED":
            img = apply_word(maps, res.word, P.star[P.idx(h)])
            if img is None or not all(ver.verify_flip(
                    P, h, P.ids[img], action.budgets).values()):
                problems.append(f"flip of {h} does not verify")
        elif res.kind != "INCONCLUSIVE":
            problems.append(f"window flip search said {res.kind}")
        counts = {"actions.searches": 1,
                  "actions.witnesses": int(res.kind == "FLIPPED")}
        return problems, counts, res.to_json()

    return harness.Job("window", f"flip {h} depth {depth}", run, check)


def skewer_job(lib, action, h: str, k: str, depth: int) -> harness.Job:
    P = action.pocset
    maps = index_maps(action)
    ver = lib.verification

    def run(tr):
        return tr.call("actions.double_skewer", lib.actions.double_skewer,
                       action, h, k, depth, tag="window")

    def check(res):
        problems = []
        if res.kind == "SKEWERED":
            img = apply_word(maps, res.word, P.idx(k))
            checked = {} if img is None or P.ids[img] != res.image else \
                ver.verify_skewer(P, h, k, res.image, action.budgets)
            if not (checked.get("properlyContained") and checked["hInsideK"]
                    and checked["gapPositive"]):
                problems.append(f"skewer of {h},{k} does not verify")
        counts = {"actions.searches": 1,
                  "actions.witnesses": int(res.kind == "SKEWERED")}
        return problems, counts, res.to_json()

    return harness.Job("window", f"skewer {h},{k}", run, check)


# -- total-action jobs ---------------------------------------------------------

def total_job(lib, labelled, rng: random.Random) -> harness.Job:
    label, action = labelled
    ac, ver = lib.actions, lib.verification
    P = action.pocset
    maps = index_maps(action)
    names = action.gen_names()
    words = [tuple((rng.choice(names), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 4)))
             for _ in range(INVERSION_WORDS)]
    group = closure(maps, P.n)
    pts = lib.pocset.points(P, action.budgets)

    def run(tr):
        flips = tr.each("actions.find_flip", ac.find_flip,
                        [(action, h) for h in P.ids], tag="total")
        orbit = tr.call("actions.min_orbit", ac.min_orbit, action, tag="total")
        order = len(tr.call("actions.group", action.group, tag="total"))
        inversions = tr.each("actions.wall_inversions", ac.wall_inversions,
                             [(action, w) for w in words], tag="total")
        return flips, orbit, order, inversions

    def check(result):
        flips, orbit, order, inversions = result
        problems = []
        if order != len(group):
            problems.append(f"{label}: group order {order}, expected {len(group)}")
        for h, res in zip(P.ids, flips):
            hs = P.star[P.idx(h)]
            if res.kind == "FLIPPED":
                img = apply_word(maps, res.word, hs)
                if not all(ver.verify_flip(P, h, P.ids[img]).values()):
                    problems.append(f"{label}: flip of {h} does not verify")
            elif res.kind == "INVARIANT_SET":
                want = {p.mask for p in pts
                        if all(p.mask >> g[hs] & 1 for g in group)}
                if {p.mask for p in res.invariant_set} != want:
                    problems.append(f"{label}: wrong invariant set for {h}")
            else:
                problems.append(f"{label}: total flip search said {res.kind}")
        sizes = orbit_sizes(group, pts)
        if orbit.size != min(sizes.values()) or \
                sizes[orbit.orbit[0].mask] != orbit.size:
            problems.append(f"{label}: minimum orbit {orbit.size}")
        for w, (inverted, undecided) in zip(words, inversions):
            want = tuple(P.wall_ids[pos] for pos, (i, _) in enumerate(P.walls)
                         if apply_word(maps, w, i) == P.star[i])
            if inverted != want or undecided:
                problems.append(f"{label}: wall inversions of {w}")
        counts = {"actions.group_order_sum": order,
                  "actions.searches": len(flips),
                  "actions.witnesses": sum(r.kind == "FLIPPED" for r in flips)}
        view = {"flips": [r.to_json() for r in flips], "orbit": orbit.to_json(),
                "order": order, "inversions": inversions}
        return problems, counts, view

    return harness.Job("total", label, run, check)


def closure(maps: dict, n: int) -> list:
    """The generated group, as halfspace permutation tuples, by BFS."""
    gens = [tuple(m[d][i] for i in range(n)) for m in maps.values() for d in (0, 1)]
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[g[i]] for i in range(n))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def orbit_sizes(group: list, pts) -> dict:
    """Point mask -> size of its orbit, moving masks bit by bit."""
    def image(g, mask):
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= 1 << g[i]
            mask >>= 1
            i += 1
        return out
    return {p.mask: len({image(g, p.mask) for g in group}) for p in pts}
