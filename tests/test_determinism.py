"""The tableau's search, the rewriting, the unraveling-tolerance refuter
and the chase's order of additions do not depend on the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# Prints (result, nodes created, decisions) for the first 200 knowledge
# bases of the tableau's random corpus, then the rewriting of each of the
# rewriting tests' TBoxes, then the unraveling-tolerance refuter's outcome
# on the non-Horn TBoxes of the analysis tests, then the chase's traces on
# the KBs whose digest the chase tests pin.
SCRIPT = """
from omq import tableau
from omq.analysis import refute_unraveling_tolerance
from omq.datalog import build_rewriting, print_program
from omq.syntax import Atom, ELIQ, print_abox, print_concept
from test_analysis import NON_HORN, SMALL
from test_chase import traced_completions
from test_datalog import rewriting_tboxes
from test_tableau import outcome, tableau_corpus

for tbox, abox, extra, budget in tableau_corpus(200):
    print(outcome(tableau._Tableau, tbox, abox, extra, budget))
for t in rewriting_tboxes():
    print(print_program(build_rewriting(t, ELIQ(Atom("A"), "x"))))
for name, t in NON_HORN.items():
    r = refute_unraveling_tolerance(t, SMALL)
    w = r.witness and (print_abox(r.witness.abox), print_concept(r.witness.concept),
                       r.witness.individual)
    print(name, r.status, r.checked_aboxes, w)
for c in traced_completions():
    print(c.trace)
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=TESTS,
                          capture_output=True, text=True, check=True).stdout


def test_search_and_rewriting_ignore_the_hash_seed():
    first = _run("1")
    assert first.count("\n") > 200
    assert first == _run("2")
