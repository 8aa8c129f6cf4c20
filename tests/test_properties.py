"""Property tests, with shrinking: the monadic rewriting is arc
consistency over the type structure."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from omq.datalog import build_rewriting, evaluate
from omq.syntax import ELIQ, TBox

from genutil import rand_abox, rand_eli_concept, rand_role, rand_tbox
from oracles import type_structure_answers


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rewriting_is_arc_consistency(rng):
    # two depth-1 inclusions, a functional role on a quarter of the draws
    # (u is in no inclusion: only the goal rule reads it), a depth-2 ELI
    # query, and ABoxes that also use names outside the signature
    tbox = rand_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"), roles=("r", "s"))
    if rng.random() < 0.25:
        tbox = TBox(tbox.inclusions, frozenset({rand_role(rng, ("r", "s", "u"))}))
    q = ELIQ(rand_eli_concept(rng, depth=2, concepts=("A", "B"), roles=("r", "s")), "x")
    program = build_rewriting(tbox, q)
    for _ in range(3):
        abox = rand_abox(rng, n_individuals=4, n_assertions=7, concepts=("A", "B", "C"),
                         roles=("r", "s", "u"))
        got = {a for (a,) in evaluate(program, abox)}
        assert got == type_structure_answers(tbox, q, abox), (tbox, q, abox)
