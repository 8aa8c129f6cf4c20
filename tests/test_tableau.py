import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from omq import tableau
from omq.syntax import ABox, Not, Or, Role, TBox, concept_sort_key, parse_tbox
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
    """The search without its shortcuts, on concepts and roles decoded
    through the run's table: each decision sorts every node's whole label
    by ``concept_sort_key`` and takes the first open disjunction, each
    neighbour query scans every edge between individuals, and each
    decision copies every node.  It must make the same decisions as the
    real tableau."""

    def seed(self, individuals, labels, role_edges):
        state = super().seed(individuals, labels, role_edges)
        self.concepts = {i: c for c, i in self.table.ids.items()}
        self.roles = {i + inv: Role(name, bool(inv))
                      for name, i in self.table.role_ids.items() for inv in (0, 1)}
        index = {name: i for i, name in enumerate(sorted(individuals))}
        self.root_edges = {}
        for name, a, b in sorted(role_edges):
            self.root_edges.setdefault((index[a], index[b]), set()).add(name)
        return _RefState(state.nodes, set(state.nodes))

    def neighbours(self, state, x, role_id):
        role, roles = self.roles[role_id], self.roles
        node = state.nodes[x]
        out = [(cid, state.nodes[cid].edge_deps) for cid in node.children
               if roles[state.nodes[cid].parent_role] == role]
        if node.parent is not None and roles[node.parent_role] == role.inverse():
            out.append((node.parent, node.edge_deps))
        for (a, b), names in self.root_edges.items() if node.is_root else ():
            if role.name in names and (b if role.inverted else a) == x:
                out.append((a if role.inverted else b, tableau._NO_DEPS))
        return sorted(out, key=lambda p: p[0])

    def _find_or(self, state):
        ids = self.table.ids
        for x in sorted(state.nodes):
            label = state.nodes[x].label
            open_or = next((c for c in sorted(map(self.concepts.__getitem__, label),
                                              key=concept_sort_key)
                            if isinstance(c, Or) and ids[c.left] not in label
                            and ids[c.right] not in label), None)
            if open_or is not None and not self.blocked(state, x):
                return x, ids[open_or]
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


def _check_right_branch_start(before, after, table):
    """The state kept for a right branch is as it was when made, plus the
    right disjunct of one open disjunction; the run's table decodes the
    concept ids."""
    assert after.keys() == before.keys()
    changed = [nid for nid in before if after[nid] != before[nid]]
    assert len(changed) == 1
    (lb, *rest_before), (la, *rest_after) = before[changed[0]], after[changed[0]]
    assert rest_after == rest_before and lb.items() <= la.items()
    (new,) = la.keys() - lb.keys()
    concepts = {i: c for c, i in table.ids.items()}
    held, new = {concepts[c] for c in lb}, concepts[new]
    assert any(isinstance(c, Or) and c.right == new and c.left not in held
               for c in held)


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
            _check_right_branch_start(entry[1], _snapshot(state), tab.table)
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


def test_search_on_the_corpus_is_pinned():
    # the search's own totals on the first 200 corpus KBs, apart from
    # RefTableau: a change that moves the search and the reference alike
    # still shows here
    results, created, decisions = Counter(), 0, 0
    for tbox, abox, extra, budget in tableau_corpus(200):
        result, made, decided = outcome(tableau._Tableau, tbox, abox, extra, budget)
        results[result] += 1
        created += made
        decisions += decided
    assert dict(results) == {True: 115, False: 84, "budget": 1}
    assert (created, decisions) == (914, 1391)


def test_compiled_tbox_keeps_nothing_of_a_knowledge_base():
    # KBs with concept and role names of their own, asked in turn on one
    # TBox value, each give what they give on a fresh equal TBox value, and
    # the TBox's table ends as a fresh compile of it
    rng = random.Random(61)
    seen = set()
    for _ in range(30):
        tbox = rand_tbox(rng, allow_functional=True)
        kbs = []
        for k in range(3):
            names, roles = ("A", f"E{k}", f"F{k}"), ("r", f"s{k}")
            abox = rand_abox(rng, concepts=names, roles=roles)
            extra = {rng.choice(sorted(abox.individuals())):
                     [Not(rand_concept(rng, 2, names, roles))]}
            kbs.append((abox, extra))
        shared = TBox(tbox.inclusions, tbox.functional)
        for abox, extra in kbs + kbs[::-1]:
            got = outcome(tableau._Tableau, shared, abox, extra, 400)
            fresh = TBox(tbox.inclusions, tbox.functional)
            assert got == outcome(tableau._Tableau, fresh, abox, extra, 400), (tbox, abox)
            seen.add(got[0])
        assert vars(shared._tableau) == vars(tableau._Compiled(tbox))
    assert {True, False} <= seen


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
