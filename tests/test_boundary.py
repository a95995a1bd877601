"""Chain systems: closures, almost containment, the graph, characters."""

import random
import time
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from mediankit import boundary as bd
from mediankit import fixtures as fx
from mediankit import randomgen as rg
from mediankit.boundary import (
    SUB, SUP, TRANS, Chain, ChainSystem, RowRule, ShiftMap, Zone, almost_contained,
    chi_vector, closure, dot_export, equivalent, identity_shift, min_chain_cover,
    minimal_tail, tail, transfer_character, truncation_antichain_bound, ubs_graph,
    ubs_poset, validate_system)
from mediankit.errors import ClassNotPreserved, ClassPermuted, HorizonExceeded, InvalidInput

import seeded_cases as sc
from references import rel_up_rows, resolve

ONE = Fraction(1)


# -- validation -------------------------------------------------------------

def test_fixture_systems_validate():
    for name in ("LINE", "STAIRFLAP", "CORNER4_PP"):
        assert validate_system(fx.chain_system(name)).ok


def test_antisymmetry_violation_is_flagged():
    S = ChainSystem(
        [Chain("H", 1, (ONE,)), Chain("K", 1, (ONE,))],
        head={("H", 5, "K", 0): SUB, ("K", 0, "H", 5): SUB})
    rep = validate_system(S)
    assert not rep.ok


def test_transitivity_violation_names_the_first_missing_element():
    S = ChainSystem(
        [Chain("H", 1, (ONE,)), Chain("K", 1, (ONE,)), Chain("M", 1, (ONE,))],
        head={("H", 0, "K", 0): SUB, ("K", 0, "M", 0): SUB})
    assert validate_system(S).failures == [
        {"code": "REL_NOT_TRANSITIVE", "detail": "('K', 0) should contain ('H', 1)"},
        {"code": "REL_NOT_TRANSITIVE", "detail": "('M', 0) should contain ('H', 0)"},
    ]


def test_zero_weight_rejected():
    S = ChainSystem([Chain("H", 1, (Fraction(0),))])
    assert any(f["code"] == "NONPOSITIVE_WEIGHT"
               for f in validate_system(S).failures)


def test_random_systems_validate(rng):
    for _ in range(30):
        assert validate_system(rg.random_system(rng)).ok


# -- closures ---------------------------------------------------------------

def test_line_closure_of_tail_is_itself():
    L = fx.line_system()
    assert closure(L, tail("H", 3)) == bd.UBS({"H": (3, None)})


def test_stairflap_closure_of_full_tail_contains_all_k():
    S = fx.stairflap()
    cl = closure(S, tail("H", 0))
    assert cl.intervals["K"] == (0, None)


def test_stairflap_closure_of_index_one_tail_contains_no_k():
    S = fx.stairflap()
    cl = closure(S, tail("H", 1))
    assert "K" not in cl.intervals
    assert cl.intervals["H"] == (1, None)


def test_head_entry_overrides_row_rule_in_closure():
    S = sc.edge_systems()["conflict"]
    assert validate_system(S).ok
    assert S.rel("a", 0, "b", 3) == TRANS
    # a_0 is not contained in b_3, so it is not between a seed pair
    assert closure(S, {"b": (3, 3), "a": (1, 1)}) == \
        bd.UBS({"a": (1, 1), "b": (3, 3)})


# -- the closure engine: suffix tables and the per-system memo ---------------

@pytest.mark.parametrize("name, seed, expected", [
    ("LINE", {"H": (11, None)}, "H"),
    ("LINE", {"H": (8, 10)}, "H"),
    ("STAIRFLAP", {"K": (1, 3), "H": (16, None)}, "H"),
    ("STAIRFLAP", {"K": (0, None), "H": (4, 2)}, bd.UBS({"K": (0, None)}))])
def test_closure_answers_only_inside_the_horizon_window(name, seed, expected):
    """A tail starting past the horizon, or a finite interval ending at or
    past it, raises naming its chain; an empty interval is dropped."""
    S = fx.chain_system(name)
    if isinstance(expected, str):
        with pytest.raises(HorizonExceeded, match=f"on chain {expected} "):
            closure(S, seed)
    else:
        assert closure(S, seed) == expected == closure(S, bd.UBS(seed))


def test_one_index_and_one_suffix_table_pair_per_chain_pair():
    """Once the closure row's seeds are closed, each system caches one
    index table pair per ordered pair of distinct chains, as deep as the
    least closure depth 2 head_extent at least, and at most one suffix pair, each
    table the ORs of the index tails of a fresh system at its depth; no
    index entry is both SUB and SUP.  A deeper request rebuilds a pair's
    tables to exactly that depth, and a shallower one reads them as they
    are."""
    systems = {}
    for S, seed in sc.closure_cases():
        systems[id(S)] = S
        try:
            closure(S, seed)
        except HorizonExceeded:
            pass
    for S in systems.values():
        E = S.head_extent
        fresh = ChainSystem([S.chains[c] for c in S.chain_order], zones=S.zones,
                            rows=S.rows, head=S.head)
        pairs = {(c, d) for c in S.chain_order for d in S.chain_order if c != d}
        assert set(S._index) == pairs and set(S._suffix) <= pairs
        for (c, d), tables in S._suffix.items():
            assert tables == tuple(
                [reduce(or_, masks[lo:], 0) for lo in range(len(masks))]
                for masks in fresh.index(c, d, len(tables[0]) - E - 1))
        for sub, sup in S._index.values():
            assert len(sub) == len(sup) > 3 * E
            assert not any(s & p for s, p in zip(sub, sup))
        for c, d in sorted(pairs)[:1]:
            depth = len(S._index[c, d][0]) - E + 5
            tables = S.index(c, d, depth)
            assert len(tables[0]) == depth + E + 1 and S.index(c, d, depth - 3) is tables


def test_zone_tables_cost_no_range_per_column(monkeypatch):
    """``_build_index`` turns each zone range into one offset mask, so its
    ``_range_mask`` calls are the same for tables several times longer,
    here of a head extent 21 against 2."""
    calls, inner = [], bd._range_mask
    monkeypatch.setattr(bd, "_range_mask", lambda lo, hi: calls.append(hi) or inner(lo, hi))
    counts = []
    for head in (0, 21):
        S = ChainSystem([Chain("H", 1, (ONE,), (ONE,) * head), Chain("K", 1, (ONE,))],
                        zones=fx.stairflap().zones)
        calls.clear()
        counts.append((len(S.index("H", "K", 2 * S.head_extent)[0]), len(calls)))
    assert counts[0][0] * 5 < counts[1][0] and counts[0][1] == counts[1][1]


def _count_close(monkeypatch):
    """Patch ``_close`` to record the seed of each call, which it takes as
    the memo key, sorted (chain, interval) pairs, as a dict."""
    calls, inner = [], bd._close

    def counting(S, seed):
        calls.append(dict(seed))
        return inner(S, seed)

    monkeypatch.setattr(bd, "_close", counting)
    return calls


def test_closure_memo_closes_each_seed_once(monkeypatch):
    calls = _count_close(monkeypatch)
    S = fx.stairflap()
    first = closure(S, tail("H", 1))
    assert closure(S, tail("H", 1)) is first
    assert len(calls) == 1


def test_closure_memo_shares_ubs_and_dict_seeds(monkeypatch):
    calls = _count_close(monkeypatch)
    S = fx.stairflap()
    U = bd.UBS({"H": (1, None), "K": (0, 2)})
    first = closure(S, U)
    assert closure(S, {"K": (0, 2), "H": (1, None)}) is first
    assert closure(S, dict(U.intervals)) is first
    assert len(calls) == 1


def test_closure_memo_is_per_system(monkeypatch):
    calls = _count_close(monkeypatch)
    twins = [fx.stairflap() for _ in range(2)]
    assert closure(twins[0], tail("H", 0)) == closure(twins[1], tail("H", 0))
    assert len(calls) == 2


def test_closure_memo_replays_horizon_errors(monkeypatch):
    """A tail past the horizon window: the error is kept and raised afresh,
    from one ``_close`` call."""
    S = fx.line_system()
    calls = _count_close(monkeypatch)
    raised = []
    for _ in range(2):
        with pytest.raises(HorizonExceeded) as exc:
            closure(S, tail("H", S.horizon + 1))
        raised.append(exc.value)
    assert [str(e) for e in raised] == \
        [f"seed interval on chain H leaves the window of horizon {S.horizon}"] * 2
    assert raised[0] is not raised[1]
    assert len(calls) == 1


def test_a_long_head_closure_reads_past_the_horizon():
    """In the gap-12 system (head extent 13, horizon 21), C_n lies in D_m
    exactly for m <= n - 12: the closure of D's tail from 15 holds C's tail
    from 27, past the horizon, which reads at the horizon missed."""
    S = sc.gap_system(12)
    assert validate_system(S).ok and S.horizon == 21
    assert closure(S, tail("D", 15)) == bd.UBS({"C": (27, None), "D": (15, None)})
    assert [closure(S, tail("D", n)).intervals["C"] for n in (10, 21)] == \
        [(22, None), (33, None)]


def test_rel_reads_past_a_shallower_table():
    """The antichain bound of the gap-12 system reads its tables to depth
    15, its ``tail_depth``, short of the 2 head_extent = 26 that ``rel``
    reads: ``rel`` builds them deeper."""
    S = sc.gap_system(12)
    truncation_antichain_bound(S)
    assert len(S._index["D", "C"][0]) == 15 + 13 + 1
    idx = range(3 * S.head_extent + 1)
    assert [S.rel(c, n, d, m) for c, d in ("CD", "DC") for n in idx for m in idx] == \
        [resolve(S, c, n, d, m) for c, d in ("CD", "DC") for n in idx for m in idx]


def test_spread_triples_fail_transitivity_past_the_head():
    assert [validate_system(S).failures[0] for S in sc.spread_triples()] == [
        {"code": "REL_NOT_TRANSITIVE", "detail": "('A', 0) should contain ('C', 10)"},
        {"code": "REL_NOT_TRANSITIVE", "detail": "('A', 6) should contain ('C', 12)"}]


def test_head_cycle_fails_transitivity():
    assert [f["code"] for f in validate_system(sc.edge_systems()["head cycle"]).failures] \
        == ["REL_NOT_TRANSITIVE"] * 3


def test_zone_gap_fails_only_the_partition_check():
    assert {f["code"] for f in validate_system(sc.edge_systems()["zone gap"]).failures} \
        == {"ZONES_NOT_PARTITION"}


@pytest.mark.parametrize("rules, detail", [
    ({"head": {("H", -1, "K", 0): SUB}}, "head entry (H, -1, K, 0)"),
    ({"head": {("H", 0, "K", -2): TRANS}}, "head entry (H, 0, K, -2)"),
    ({"rows": [RowRule("H", -3, "K", SUP)]}, "row rule RowRule(chain='H', index=-3, "
     "other='K', rel='sup', lo=0, hi=None)"),
    ({"rows": [RowRule("K", 0, "H", SUB, -1, 4)]}, "row rule RowRule(chain='K', index=0, "
     "other='H', rel='sub', lo=-1, hi=4)"),
    ({"rows": [RowRule("K", 0, "H", SUB, 0, -1)]}, "row rule RowRule(chain='K', index=0, "
     "other='H', rel='sub', lo=0, hi=-1)")])
def test_rules_of_negative_index_are_rejected(rules, detail):
    S = ChainSystem([Chain("H", 1, (ONE,)), Chain("K", 1, (ONE,))], **rules)
    assert validate_system(S).failures == [{"code": "NEGATIVE_INDEX", "detail": detail}]


class _NoPairReads(ChainSystem):
    def rel(self, *args):
        raise AssertionError("the relation was read pair by pair")


def test_validation_and_the_antichain_bound_read_only_the_index(rng):
    edges = sc.edge_systems()
    systems = [fx.stairflap(), edges["conflict"], edges["head cycle"]]
    systems += sc.random_systems(rng, 5, max_chains=3, tries=4)
    for S in systems:
        T = _NoPairReads([S.chains[c] for c in S.chain_order], zones=S.zones,
                         rows=S.rows, head=S.head)
        assert validate_system(T).failures == validate_system(S).failures
        assert truncation_antichain_bound(T) == truncation_antichain_bound(S)


@pytest.mark.parametrize("code", ["HEAD_CONFLICT", "ZONES_NOT_PARTITION", "ZONE_CONFLICT"])
def test_each_asymmetric_resolver_fails_a_rule_check(code):
    """The three rule checks that make the relation antisymmetric, each
    on a system whose resolver is not."""
    S = sc.edge_systems()[code]
    T = S.horizon
    assert any(resolve(S, "H", n, "K", m) != bd._INVERSE[resolve(S, "K", m, "H", n)]
               for n in range(T + 1) for m in range(T + 1))
    assert {f["code"] for f in validate_system(S).failures} == {code}


def test_zone_lists_of_a_pair_must_be_inverse():
    S = sc.edge_systems()["ZONE_CONFLICT"]
    assert resolve(S, "H", 0, "K", 5) == SUP and resolve(S, "K", 5, "H", 0) == TRANS
    assert validate_system(S).failures == [
        {"code": "ZONE_CONFLICT", "detail": "(H, K) at offset -10"},
        {"code": "ZONE_CONFLICT", "detail": "(K, H) at offset -10"}]


# -- almost containment ---------------------------------------------------------

def test_almost_containment_is_reflexive():
    S = fx.stairflap()
    U = closure(S, tail("H", 1))
    res = almost_contained(S, U, U)
    assert res.holds and res.measure == 0


def test_line_tails_are_equivalent():
    L = fx.line_system()
    t5, t3 = closure(L, tail("H", 5)), closure(L, tail("H", 3))
    a = almost_contained(L, t5, t3)
    b = almost_contained(L, t3, t5)
    assert a.holds and a.measure == 0
    assert b.holds and b.measure == 2  # indices 3 and 4, unit weights


def test_stairflap_tails_not_mutually_almost_contained():
    S = fx.stairflap()
    big = closure(S, tail("H", 0))
    small = closure(S, tail("H", 1))
    assert almost_contained(S, small, big).holds
    assert not almost_contained(S, big, small).holds  # all k_n escape


# -- Dilworth ---------------------------------------------------------------------

def test_dilworth_chain_and_antichain_examples():
    S = fx.stairflap()
    assert min_chain_cover(rel_up_rows(S, [("H", i) for i in range(5)])) == 1
    assert min_chain_cover(rel_up_rows(S, [("H", 1), ("K", 0), ("K", 1)])) == 2
    # three pairwise transverse elements
    assert min_chain_cover(rel_up_rows(S, [("H", 1), ("H", 2), ("K", 2)])) == 2


def _matrix_poset(rng, size):
    """random_poset as it was: a boolean matrix closed by Floyd–Warshall."""
    less = [[False] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.3:
                less[i][j] = True
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if less[i][k] and less[k][j]:
                    less[i][j] = True
    return less


def test_random_poset_rows_match_the_matrix_closure():
    for seed in range(40):
        size = 1 + seed % 13
        rows = rg.random_poset(random.Random(seed), size)
        less = _matrix_poset(random.Random(seed), size)
        assert rows == [sum(1 << j for j in range(size) if less[i][j])
                        for i in range(size)]


# -- minimal tails ------------------------------------------------------------------

def test_line_minimal_tail_is_zero():
    assert minimal_tail(fx.line_system(), "H")[0] == 0


def test_stairflap_minimal_tails():
    S = fx.stairflap()
    n_h, rep_h = minimal_tail(S, "H")
    assert n_h == 1
    assert "K" not in rep_h.intervals
    # the K-chain closure is already minimal at index 0: the index-1 tail
    # is equivalent to it
    n_k, rep_k = minimal_tail(S, "K")
    assert n_k == 0
    assert equivalent(S, closure(S, tail("K", 1)), rep_k)


def test_minimal_tail_closes_the_deepest_pair_and_the_probes(monkeypatch):
    """Start 0 costs three closures: ``tail_depth``, one past it and 0.
    A deep flap's start k > 1 is found by bisecting [1, tail_depth]."""
    calls = _count_close(monkeypatch)
    S = fx.line_system()
    assert minimal_tail(S, "H")[0] == 0
    assert [seed["H"][0] for seed in calls] == [S.tail_depth, S.tail_depth + 1, 0]
    for k, probes in ((2, [4, 5, 0, 2, 1]), (5, [7, 8, 0, 4, 6, 5])):
        S = sc.deep_flap(k, (1, 1))
        calls.clear()
        assert validate_system(S).ok
        assert minimal_tail(S, "H")[0] == k
        assert [seed["H"][0] for seed in calls] == probes


def test_minimal_tail_raises_when_the_deepest_pair_differs(monkeypatch):
    S = fx.stairflap()
    real = bd.closure

    def emptied_past_the_depth(S, seed):
        return bd.UBS({}) if seed == tail("H", S.tail_depth + 1) else real(S, seed)

    monkeypatch.setattr(bd, "closure", emptied_past_the_depth)
    with pytest.raises(HorizonExceeded, match="^tail closures of H do not stabilize$"):
        minimal_tail(S, "H")


def test_ubs_poset_reuses_the_graph_minimal_tails(monkeypatch):
    calls = []
    counted = bd.minimal_tail

    def counting(S, cid):
        calls.append(cid)
        return counted(S, cid)

    monkeypatch.setattr(bd, "minimal_tail", counting)
    ubs_poset(fx.stairflap())
    assert calls == ["H", "K"]


def test_ubs_poset_closes_no_vertex_set(monkeypatch):
    """A vertex set's candidate is the OR of its vertices' reads: the only
    ``closure`` calls are those of ``ubs_graph``."""
    calls, inner = [], bd.closure
    monkeypatch.setattr(bd, "closure", lambda S, seed: calls.append(seed) or inner(S, seed))
    ubs_graph(fx.corner_system("PP"))
    graph_calls = list(calls)
    calls.clear()
    assert len(ubs_poset(fx.corner_system("PP"))) == 3
    assert calls == graph_calls


# -- the graph ----------------------------------------------------------------------

def test_line_graph():
    G = ubs_graph(fx.line_system())
    assert len(G.vertices) == 1 and G.edges == ()


def test_stairflap_graph():
    G = ubs_graph(fx.stairflap())
    assert G.vertex_labels() == ("H[1:]", "K[0:]")
    assert G.edges == ((0, 1),)


def test_independent_chains_have_no_edges():
    C = fx.corner_system("PP")
    G = ubs_graph(C)
    assert len(G.vertices) == 2 and G.edges == ()


def test_graph_laws_on_random_systems(rng):
    for _ in range(40):
        S = rg.random_system(rng)
        G = ubs_graph(S)  # internal law assertions must not fire
        assert len(G.vertices) <= truncation_antichain_bound(S)
        edges = set(G.edges)
        for i, j in edges:
            for j2, k in edges:
                if j2 == j and i != k:
                    assert (i, k) in edges


@pytest.mark.parametrize("succ, message", [
    ((0b010, 0b100, 0b010), "UBS graph reachability without an edge"),
    ((0b110, 0b100, 0b010), "UBS graph has a directed cycle"),
    ((0b110, 0b100, 0), "UBS graph has 3 vertices over antichain bound 2"),
], ids=["reach before a later cycle", "cycle", "antichain bound"])
def test_graph_laws_name_the_first_broken_law(succ, message):
    """Vertex by vertex, a cycle through it, then a vertex reached without
    an edge; the antichain bound only once every vertex passes."""
    S = fx.stairflap()
    G = bd.UBSGraph(tuple((f"v{i}", None, "H") for i in range(3)), (0, 0, 0), succ)
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        bd._assert_graph_laws(S, G)


def test_a_system_builds_its_graph_once(monkeypatch):
    """``chi_vector`` and ``ubs_poset`` read the graph ``ubs_graph`` built:
    the laws are checked once per system, and again on a new one."""
    checked, inner = [], bd._assert_graph_laws
    monkeypatch.setattr(bd, "_assert_graph_laws",
                        lambda S, G: checked.append(S) or inner(S, G))
    S = fx.stairflap()
    G = ubs_graph(S)
    assert chi_vector(S, ShiftMap({"H": "H", "K": "K"}, {"H": 1, "K": 1})) == (1, 1)
    assert len(ubs_poset(S)) == 3
    assert ubs_graph(S) is G and checked == [S]
    T = fx.stairflap()
    assert ubs_graph(T).to_json() == G.to_json() and checked == [S, T]


def test_a_graph_that_breaks_its_laws_raises_on_every_call(monkeypatch):
    """The kept error is raised afresh, with its message, by ``ubs_graph``
    and by its readers, and the graph is not built again."""
    built, inner = [], bd._build_graph
    monkeypatch.setattr(bd, "_build_graph", lambda S: built.append(S) or inner(S))
    monkeypatch.setattr(bd, "truncation_antichain_bound", lambda S: 1)
    S = fx.stairflap()
    raised = []
    for call in (ubs_graph, ubs_graph, ubs_poset,
                 lambda S: chi_vector(S, identity_shift(S))):
        with pytest.raises(InvalidInput, match="^UBS graph has 2 vertices over antichain bound 1$") \
                as exc:
            call(S)
        raised.append(exc.value)
    assert len({id(e) for e in raised}) == 4 and built == [S]


def test_dot_export():
    G = ubs_graph(fx.stairflap())
    dot = dot_export(G)
    assert dot.startswith("digraph")
    assert '"H[1:]" -> "K[0:]"' in dot


# -- the poset ---------------------------------------------------------------------

def test_line_poset_has_single_class():
    assert len(ubs_poset(fx.line_system())) == 1


def test_stairflap_poset_has_three_classes():
    out = ubs_poset(fx.stairflap())
    assert sorted(labs for labs, _ in out) == [
        ("H[1:]",), ("H[1:]", "K[0:]"), ("K[0:]",)]
    vertices = ubs_graph(fx.stairflap()).vertices
    for labs, rep in out:
        assert labs == tuple(lab for lab, v, _ in vertices
                             if v.tails() <= rep.tails())


def test_two_incomparable_vertices_give_three_classes():
    out = ubs_poset(fx.corner_system("PP"))
    assert len(out) == 3


def test_ubs_poset_keeps_the_vertex_sets_no_outside_vertex_splits(rng):
    """A vertex set is kept unless an edge path u -> z -> w joins two of its
    members through a vertex z outside it; 4 of the 20 graphs hold a path
    of two edges."""
    for S in sc.random_systems(rng, 20, max_chains=4):
        G = ubs_graph(S)
        n, edges = len(G.vertices), set(G.edges)
        expected = {tuple(G.vertex_labels()[i] for i in range(n) if mask >> i & 1)
                    for mask in range(1, 1 << n)
                    if not any((u, z) in edges and (z, w) in edges
                               for z in range(n) if not mask >> z & 1
                               for u in range(n) if mask >> u & 1
                               for w in range(n) if mask >> w & 1)}
        assert {labs for labs, _ in ubs_poset(S)} == expected


# -- shift maps and characters --------------------------------------------------------

def test_identity_character_is_zero():
    S = fx.stairflap()
    assert chi_vector(S, identity_shift(S)) == (0, 0)


def test_line_shift_character():
    L = fx.line_system()
    g = ShiftMap({"H": "H"}, {"H": 1}, 0)
    U = closure(L, tail("H", 0))
    assert transfer_character(L, U, g) == 1
    assert chi_vector(L, g) == (1,)


def test_stairflap_shift_character():
    S = fx.stairflap()
    g = ShiftMap({"H": "H", "K": "K"}, {"H": 1, "K": 1}, 0)
    G = ubs_graph(S)
    assert transfer_character(S, G.vertices[0][1], g) == 1
    assert chi_vector(S, g) == (1, 1)


def test_character_invariant_under_equivalent_representatives():
    S = fx.stairflap()
    g = ShiftMap({"H": "H", "K": "K"}, {"H": 1, "K": 1}, 0)
    for shift in (0, 1, 2, 3):
        U = closure(S, tail("H", 1 + shift))
        assert transfer_character(S, U, g) == 1


def test_character_additive_over_minimal_classes():
    S = fx.stairflap()
    g = ShiftMap({"H": "H", "K": "K"}, {"H": 2, "K": 2}, 0)
    big = closure(S, tail("H", 0))
    parts = [transfer_character(S, rep, g) for _, rep, _ in ubs_graph(S).vertices]
    assert transfer_character(S, big, g) == sum(parts) == 4
    # h_n is inside k_m exactly for m < n, so H and K must shift alike
    uneven = ShiftMap({"H": "H", "K": "K"}, {"H": 2, "K": 3}, 0)
    with pytest.raises(InvalidInput, match=r"relation on \(K, H\)"):
        transfer_character(S, big, uneven)


def test_negative_shift_character():
    C = fx.corner_system("MP")
    tx = fx.corner_translation("MP", "x")
    assert chi_vector(C, tx) == (-1, 0)


def test_class_permuted_is_reported():
    C = fx.corner_system("PP")
    rot = ShiftMap({"X": "Y", "Y": "X"}, {"X": 0, "Y": 0}, 0)
    with pytest.raises(ClassPermuted):
        chi_vector(C, rot)


def test_shift_must_preserve_weights():
    S = ChainSystem([Chain("H", 2, (ONE, Fraction(2)))])
    g = ShiftMap({"H": "H"}, {"H": 1}, 0)
    with pytest.raises(InvalidInput):
        transfer_character(S, closure(S, tail("H", 0)), g)


def test_weighted_character_value():
    S = ChainSystem([Chain("H", 2, (Fraction(1, 2), Fraction(3, 2)))])
    g = ShiftMap({"H": "H"}, {"H": 2}, 0)  # shift by a full period
    U = closure(S, tail("H", 0))
    assert transfer_character(S, U, g) == 2  # one period block of mass 2


def test_swapping_stairflap_chains_is_not_a_system_map():
    S = fx.stairflap()
    assert bd.verify_system_map(S, S, identity_shift(S))
    swap = ShiftMap({"H": "K", "K": "H"}, {"H": 0, "K": 0})
    assert not bd.verify_system_map(S, S, swap)


def test_verify_system_map_compares_the_relation_only_past_both_heads():
    """STAIRFLAP and its copy without the row rule H_0 ⊇ K_m differ only
    in H's head row, which the relation check does not read: the identity
    relates them, though their graphs start H's class at 1 and at 0."""
    S = fx.stairflap()
    T = ChainSystem([S.chains[c] for c in S.chain_order], zones=S.zones)
    assert validate_system(T).ok
    assert bd.verify_system_map(S, T, identity_shift(S))
    assert ubs_graph(S).vertex_labels() == ("H[1:]", "K[0:]")
    assert ubs_graph(T).vertex_labels() == ("H[0:]", "K[0:]")


def test_shift_must_preserve_the_relation():
    # one period block of STAIRFLAP is its diagonal, where h_n and k_n are
    # transverse both ways; shifting K by one moves the pair off it
    swap = ShiftMap({"H": "K", "K": "H"}, {"H": 0, "K": 1})
    with pytest.raises(InvalidInput,
                       match=r"does not preserve the relation on \(H, K\)"):
        bd.validate_shift(fx.stairflap(), swap)


def test_maps_compare_offsets_past_every_zone_bound():
    # h_n and k_m are transverse up to offset 2 and nested from 3 on; the
    # swap turns offset 3 around, beyond one period block of either check
    S = ChainSystem([Chain("H", 1, (ONE,)), Chain("K", 1, (ONE,))],
                    zones={("H", "K"): (Zone(None, 2, TRANS), Zone(3, None, SUP))})
    assert S.rel("H", 4, "K", 7) == SUP and S.rel("K", 4, "H", 7) == TRANS
    swap = ShiftMap({"H": "K", "K": "H"}, {"H": 0, "K": 0})
    assert not bd.verify_system_map(S, S, swap)
    with pytest.raises(InvalidInput, match="does not preserve the relation"):
        bd.validate_shift(S, swap)


def test_translations_and_uniform_shifts_are_shift_maps(rng):
    for corner in fx.CORNERS:
        for axis in ("x", "y"):
            bd.validate_shift(fx.corner_system(corner),
                              fx.corner_translation(corner, axis))
    for S in [fx.line_system(), fx.stairflap()] + \
            [rg.random_system(rng) for _ in range(10)]:
        L = S.lcm_period
        bd.validate_shift(S, ShiftMap({c: c for c in S.chain_order},
                                      {c: L for c in S.chain_order}))


def test_shift_must_permute_the_chains():
    g = ShiftMap({"H": "H", "K": "H"}, {"H": 0, "K": 0})
    with pytest.raises(InvalidInput, match="must permute the chains"):
        bd.validate_shift(fx.stairflap(), g)


@pytest.mark.parametrize("shift, message", [
    ({"H": 0}, "has no shift for chain K"), ({"H": 0, "K": 0, "Z": 1, "Y": 2},
                                             "shifts chain Z, which tau does not map"),
    ({"K": 0, "Z": 1}, "shifts chain Z, which tau does not map")])
def test_shift_maps_shift_the_chains_of_tau(shift, message):
    """The first shifted chain that tau does not map, else the first chain
    of tau without a shift, is named."""
    with pytest.raises(InvalidInput, match=f"^shift map {message}$"):
        ShiftMap({"H": "H", "K": "K"}, shift)


def test_system_map_of_a_huge_uniform_shift_answers_at_once():
    """Weights are compared up to two lcm blocks past both heads, whatever
    the shift."""
    S = fx.stairflap()
    start = time.perf_counter()
    assert bd.verify_system_map(S, S, ShiftMap({"H": "H", "K": "K"}, {"H": 10 ** 9, "K": 10 ** 9}))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("min_index, shift, chain",
                         [(-1, 0, "H"), (-1, 3, "H"), (0, -1, "K"), (2, -3, "K")])
def test_shift_maps_reading_a_negative_index_are_rejected(min_index, shift, chain):
    """The first chain, in shift order, that min_index or its image there
    takes below 0 is named."""
    with pytest.raises(InvalidInput, match=f"negative index on chain {chain}$"):
        ShiftMap({"H": "H", "K": "K"}, {"H": 0, "K": shift}, min_index)


def test_composition_keeps_shift_images_nonnegative():
    tx = fx.corner_translation("MP", "x")
    assert tx.compose(tx) == ShiftMap({"X": "X", "Y": "Y"}, {"X": -2, "Y": 0}, 2)


def test_chain_weights_start_at_index_zero():
    for c in (Chain("H", 1, (ONE,)), Chain("A", 2, (ONE, ONE), (ONE, Fraction(2)))):
        assert c.weight(0) == ONE
        with pytest.raises(InvalidInput, match=f"chain {c.id} has no index -1"):
            c.weight(-1)
        with pytest.raises(InvalidInput, match="no index -1"):
            c.mass(-1, len(c.head_weights))


def test_corner_rotation_cycle():
    cur = "PP"
    seen, maps = [cur], []
    for _ in range(4):
        nxt, m = fx.corner_rotation(cur)
        assert bd.verify_system_map(
            fx.corner_system(cur), fx.corner_system(nxt), m)
        maps.append(m)
        cur = nxt
        seen.append(cur)
    assert seen == ["PP", "MP", "MM", "PM", "PP"]
    assert not maps[0].is_identity()
    assert maps[3].compose(maps[2]).compose(maps[1]).compose(maps[0]).is_identity()


def test_closure_with_bounded_cross_chain_interval():
    """A head-region configuration where the closure of one chain's tail
    picks up exactly one exceptional element of the other chain."""
    rows = tuple(
        [RowRule("H", m, "K", SUP, 3, None) for m in (0, 1, 2)]  # h_m ⊇ k_{≥3}
        + [RowRule("K", n, "H", SUP, 8, None) for n in (0, 1, 2, 3)]  # k_n ⊇ h_{≥8}
    )
    S = ChainSystem([Chain("H", 1, (ONE,)), Chain("K", 1, (ONE,))], rows=rows)
    assert validate_system(S).ok
    cl = closure(S, tail("H", 0))
    assert cl.intervals["H"] == (0, None)
    assert cl.intervals["K"] == (3, 3)  # k_3 alone sits between h_8 and h_2
    # deeper tails drop the exceptional element: nothing above k_3 remains
    assert "K" not in closure(S, tail("H", 3)).intervals


def test_class_not_preserved_is_reported():
    C = fx.corner_system("PP")
    rot = ShiftMap({"X": "Y", "Y": "X"}, {"X": 0, "Y": 0}, 0)
    x_class = closure(C, tail("X", 0))
    with pytest.raises(ClassNotPreserved):
        transfer_character(C, x_class, rot)
