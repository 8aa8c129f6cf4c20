import random
import sys
from contextlib import contextmanager

import pytest

from omq import tableau
from omq.syntax import ABox, Not, Or, concept_sort_key, parse_tbox
from omq.tableau import BudgetExceededError, abox_consistent

from genutil import rand_abox, rand_concept, rand_tbox


class _RefState(tableau._State):
    """A branch state that copies every node at every decision."""
    __slots__ = ()

    def copy(self):
        nodes = {nid: tableau._Node(n.nid, dict(n.label), n.parent, n.parent_role,
                                    n.is_root, n.edge_deps, n.children)
                 for nid, n in self.nodes.items()}
        return _RefState(nodes, set(nodes))


class RefTableau(tableau._Tableau):
    """The search without its shortcuts: each decision sorts every node's
    whole label and takes the first open disjunction, each neighbour query
    scans every edge between individuals, and each decision copies every
    node.  It must make the same decisions as the real tableau."""

    def seed(self, individuals, labels, role_edges):
        state = super().seed(individuals, labels, role_edges)
        index = {name: i for i, name in enumerate(sorted(individuals))}
        self.root_edges = {}
        for name, a, b in sorted(role_edges):
            self.root_edges.setdefault((index[a], index[b]), set()).add(name)
        return _RefState(state.nodes, set(state.nodes))

    def neighbours(self, state, x, role):
        node = state.nodes[x]
        out = [(cid, state.nodes[cid].edge_deps) for cid in node.children
               if state.nodes[cid].parent_role == role]
        if node.parent is not None and node.parent_role == role.inverse():
            out.append((node.parent, node.edge_deps))
        for (a, b), names in self.root_edges.items() if node.is_root else ():
            if role.name in names and (b if role.inverted else a) == x:
                out.append((a if role.inverted else b, tableau._NO_DEPS))
        return sorted(out, key=lambda p: p[0])

    def _find_or(self, state):
        for x in sorted(state.nodes):
            label = state.nodes[x].label
            open_or = next((c for c in sorted(label, key=concept_sort_key)
                            if isinstance(c, Or) and c.left not in label
                            and c.right not in label), None)
            if open_or is not None and not self.blocked(state, x):
                return x, open_or
        return None


@contextmanager
def recorded(cls):
    """Make ``abox_consistent`` use ``cls``; yields the tableaux it makes."""
    made = []

    class Recorded(cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau, "_Tableau", Recorded)
        yield made


def outcome(cls, tbox, abox, extra, budget):
    """(result or "budget", nodes created, decisions made)."""
    with recorded(cls) as made:
        try:
            result = tableau.abox_consistent(tbox, abox, extra, budget)
        except BudgetExceededError:
            result = "budget"
    return result, made[0].created, made[0].decisions


def _snapshot(state):
    return {nid: (dict(n.label), n.parent, n.parent_role, n.edge_deps,
                  tuple(n.children)) for nid, n in state.nodes.items()}


def _check_right_branch_start(before, after):
    """The state kept for a right branch is as it was when made, plus the
    right disjunct of one open disjunction."""
    assert after.keys() == before.keys()
    changed = [nid for nid in before if after[nid] != before[nid]]
    assert len(changed) == 1
    (lb, *rest_before), (la, *rest_after) = before[changed[0]], after[changed[0]]
    assert rest_after == rest_before and lb.items() <= la.items()
    (new,) = la.keys() - lb.keys()
    assert any(isinstance(c, Or) and c.right == new and c.left not in lb
               for c in lb)


def tableau_corpus(n=540):
    """The first n of a seeded run of (TBox, ABox, extra labels, budget)
    knowledge bases: ALCFI TBoxes, labels seeded at every other KB, and
    node budgets of 50, 400 and 5,000 in turn."""
    rng = random.Random(57)
    for i in range(n):
        tbox = rand_tbox(rng, allow_functional=True)
        abox = rand_abox(rng)
        extra = None
        if i % 2:
            extra = {rng.choice(sorted(abox.individuals())): [Not(rand_concept(rng, 2))]}
        yield tbox, abox, extra, (50, 400, 5000)[i % 3]


def test_search_matches_reference_tableau_random(monkeypatch):
    snapshots = {}      # id(state) -> (state, its snapshot when made)
    real_copy = tableau._State.copy
    real_saturate = tableau._Tableau._saturate

    def copy(state):
        alt = real_copy(state)
        snapshots[id(alt)] = (alt, _snapshot(alt))
        return alt

    def saturate(tab, state, dirty=None):
        entry = snapshots.pop(id(state), None)
        if entry is not None:
            _check_right_branch_start(entry[1], _snapshot(state))
            checked.append(1)
        return real_saturate(tab, state, dirty)

    monkeypatch.setattr(tableau._State, "copy", copy)
    monkeypatch.setattr(tableau._Tableau, "_saturate", saturate)
    checked, seen = [], set()
    for tbox, abox, extra, budget in tableau_corpus():
        got = outcome(tableau._Tableau, tbox, abox, extra, budget)
        snapshots.clear()
        assert got == outcome(RefTableau, tbox, abox, extra, budget), (tbox, abox, extra)
        seen.add(got[0])
    assert seen == {True, False, "budget"}
    assert len(checked) > 100


def test_deep_search_needs_no_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the tableau changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1100
    abox = ABox(frozenset(("A", f"a{i}") for i in range(n)),
                frozenset(("r", f"a{i}", f"a{i + 1}") for i in range(n - 1)))
    with recorded(tableau._Tableau) as made:
        assert abox_consistent(parse_tbox("A sub B or C"), abox)
    assert made[0].decisions == n
