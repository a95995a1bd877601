"""The acceptance suite, one test per criterion.

Every criterion runs at its stated tolerance (exact rational or structural
equality) and prints one pass/fail line.  ``mediankit acceptance`` runs the
same functions from the command line.
"""

from mediankit import acceptance as acc


def _run(fn):
    res = fn()
    state = "PASS" if res.passed else "FAIL"
    print(f"{state}  criterion {res.index:2d}  {res.name}  {res.details}")
    assert res.passed, res.details
    return res


def test_criterion_01_median_oracle():
    _run(acc.criterion_1)


def test_criterion_02_metric_measure_identity():
    _run(acc.criterion_2)


def test_criterion_03_gate_law():
    res = _run(acc.criterion_3)
    assert res.details["instances"] == 1000


def test_criterion_04_product_round_trip():
    res = _run(acc.criterion_4)
    assert res.details["randomProductsRecovered"] == 100


def test_criterion_05_subdivision_suite():
    res = _run(acc.criterion_5)
    assert res.details["squarePrimePoints"] == 9


def test_criterion_06_orbit_bound():
    res = _run(acc.criterion_6)
    assert res.details["squareMinOrbit"] == 4


def test_criterion_07_strong_separation_irreducibility():
    res = _run(acc.criterion_7)
    assert res.details["tripodPairs"] > 0
    assert res.details["gridPairs"] == 0


def test_criterion_08_pingpong():
    res = _run(acc.criterion_8)
    assert res.details["wordsChecked"] == 160
    assert res.details["checksPerformed"] == 972


def test_criterion_09_stairflap_fidelity():
    res = _run(acc.criterion_9)
    assert res.details["closureTail0ContainsAllK"]
    assert res.details["indexOneTailsMinimal"]


def test_criterion_10_ubs_graph_laws():
    _run(acc.criterion_10)


def test_criterion_11_transfer_characters():
    res = _run(acc.criterion_11)
    assert res.details["lineChi"] == "1"
    assert res.details["cornerChi"] == ["1", "0"]


def test_criterion_12_four_corners():
    res = _run(acc.criterion_12)
    assert res.details["cycle"] == ["PP", "MP", "MM", "PM", "PP"]


def test_criterion_13_skewering():
    res = _run(acc.criterion_13)
    assert res.details["f2ball"] == "a a"


def test_no_map_is_checked_twice(checks_run):
    """Across the whole suite each map's check runs at most once; later
    calls return its recorded pass."""
    acc.run_all()
    assert checks_run and len(set(map(id, checks_run))) == len(checks_run)
