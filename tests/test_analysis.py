import random

import pytest

from omq.analysis import (
    CONP_HARD, PTIME_DEFINITIVE, Budget, DisjunctionViolation,
    brute_2p2_satisfiable, classify, gen_2p2sat_reduction, gen_kcolor_tbox,
    minimize_witness, refute_disjunction_property,
)
from omq.syntax import Atom, parse_abox, parse_tbox
from omq.types import entails_eliq

B, C = Atom("B"), Atom("C")
SMALL = Budget(max_individuals=2)


# -- classify -----------------------------------------------------------------

@pytest.mark.parametrize("tbox, expected", [
    (parse_tbox("A sub some r.B\nB sub some r.A"), {"verdict": PTIME_DEFINITIVE}),
    (parse_tbox("A sub B or C"), {"verdict": CONP_HARD}),
    (parse_tbox("top sub A or B\nA and some r.A sub bot"), {"verdict": CONP_HARD}),
    (gen_kcolor_tbox(2), {"verdict": CONP_HARD, "unraveling_tolerant": "refuted"}),
], ids=["horn_cycle", "or", "cover_irreflexive", "kcolor2"])
def test_classify_verdicts(tbox, expected):
    report = classify(tbox, SMALL)
    got = {"verdict": report.verdict,
           "unraveling_tolerant": report.unraveling_tolerant[0]}
    assert {k: got[k] for k in expected} == expected
    # every refutation comes with a witness that re-verifies
    for status, witness in (report.materializable, report.unraveling_tolerant):
        if status == "refuted":
            assert witness.verify(tbox)


# -- the 2+2-SAT reduction ----------------------------------------------------

def rand_2p2_formula(rng, nvars, planted):
    """Random clauses (p1 or p2 or not n1 or not n2), a tenth of the
    literals truth constants.  A planted formula adds four clauses that
    force x or y, not x or not y, and x = y, so it is unsatisfiable."""
    def lit():
        return rng.random() < 0.5 if rng.random() < 0.1 else rng.randrange(nvars)

    clauses = [tuple(lit() for _ in range(4)) for _ in range(nvars)]
    if planted:
        x, y = rng.sample(range(nvars), 2)
        clauses += [(x, y, True, True), (False, False, x, y),
                    (x, False, y, True), (y, False, x, True)]
        rng.shuffle(clauses)
    return clauses


def test_2p2sat_reduction_contract():
    # the formula is unsatisfiable iff the query is certain at f
    tbox = parse_tbox("A sub B or C")
    witness = DisjunctionViolation(parse_abox("A(a)"), ((B, "a"), (C, "a")))
    rng = random.Random(17)
    unsat = 0
    for k in range(40):
        formula = rand_2p2_formula(rng, rng.randint(2, 4), planted=k % 2 == 0)
        abox, query, f = gen_2p2sat_reduction(tbox, witness, formula)
        want = not brute_2p2_satisfiable(formula)
        assert entails_eliq(tbox, abox, query.concept, f) == want, formula
        unsat += want
    assert 20 <= unsat < 40


# -- disjunction refuter and witness minimization -----------------------------

def test_three_way_disjunction_needs_three_disjuncts():
    tbox = parse_tbox("A sub B or C or D")
    two = refute_disjunction_property(tbox, Budget(max_individuals=2, max_disjuncts=2))
    assert (two.status, two.checked_aboxes) == ("none-found", 135)
    three = refute_disjunction_property(tbox, Budget(max_individuals=2, max_disjuncts=3))
    assert three.status == "refuted"
    assert len(three.witness.disjuncts) == 3
    assert three.witness.verify(tbox)
    assert minimize_witness(tbox, three.witness) == three.witness
