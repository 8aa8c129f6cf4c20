"""Ontology-mediated query answering over ALC / ALCI / ALCF / ALCFI.

The package computes certain answers, builds and evaluates monadic
Datalog(!=) rewritings, bridges to constraint satisfaction (templates and
homomorphism solving), and analyzes TBoxes for materializability and
unraveling tolerance.
"""

from .syntax import (
    ABox, And, Atom, Bot, CQ, Concept, ELIQ, ELQ, Exists, Forall, Implies,
    Not, Or, PAnd, PAtom, PEQ, PExists, POr, ParseError, Query, Role, TBox,
    Top, UCQ, dialect, eliq_to_cq, is_depth_one, is_horn_alcfi, parse_abox,
    parse_concept, parse_query, parse_tbox, peq_to_ucq, print_abox,
    print_concept, print_query, print_tbox,
)
from .semantics import (
    Interpretation, eval_concept, find_homomorphism, is_model, match_query,
)

__version__ = "0.1.0"
