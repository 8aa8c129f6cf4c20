"""Tableau satisfiability for ALC / ALCI / ALCF / ALCFI.

Completion-graph tableau with lazy TBox internalization and blocking
selected by dialect: subset blocking for ALC, equality blocking for ALCI,
pairwise (ancestor-pair) blocking whenever functionality is present.
Functional roles are handled by merging extra successors; distinct root
individuals are never merged (standard name assumption, hence unique
names), so a forced root merge is a clash.

The search over disjunction choices uses dependency-directed
backjumping: every derived label entry carries the set of branch
decisions it depends on, a clash reports the union of its premises'
decision sets, and alternatives at decisions outside that set are never
explored.  Without it, unsatisfiable inputs whose clash is independent
of most choices (the common case for the hiding encodings) blow up
exponentially.

The search is a loop over an explicit stack of open decisions, not a
recursion, so its depth is bounded by memory alone.  A decision copies
and sorts only what it changes (Horrocks & Patel-Schneider, "Optimizing
description logic subsumption", 1999):

* branch states are copy-on-write: the state kept for the right branch
  shares every node with the left one, and each state copies a node
  before its first write to it (``_State.own``);
* each node memoizes its least open disjunction, keyed by its label
  size: labels only grow, and every write adds a new key, so a label of
  unchanged size holds the same concepts;
* edges between individuals are read from an adjacency index.

The node budget bounds the total number of nodes created across all
branches; exhausting it raises BudgetExceededError, which is distinct
from both outcomes of the decision.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .syntax import (
    ABox, And, Atom, Bot, Concept, Exists, Forall, Implies, Not, Or, Role,
    TBox, Top, concept_sort_key,
)

DEFAULT_NODE_BUDGET = 10**6

_NO_DEPS: frozenset = frozenset()


class BudgetExceededError(RuntimeError):
    """Resource cap hit; the reported question remains undecided."""


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

def _mk_and(l: Concept, r: Concept) -> Concept:
    if isinstance(l, Bot) or isinstance(r, Bot):
        return Bot()
    if isinstance(l, Top):
        return r
    if isinstance(r, Top):
        return l
    return And(l, r)


def _mk_or(l: Concept, r: Concept) -> Concept:
    if isinstance(l, Top) or isinstance(r, Top):
        return Top()
    if isinstance(l, Bot):
        return r
    if isinstance(r, Bot):
        return l
    return Or(l, r)


def nnf(c: Concept) -> Concept:
    """Negation normal form with top/bottom units simplified away."""
    if isinstance(c, (Top, Bot, Atom)):
        return c
    if isinstance(c, And):
        return _mk_and(nnf(c.left), nnf(c.right))
    if isinstance(c, Or):
        return _mk_or(nnf(c.left), nnf(c.right))
    if isinstance(c, Implies):
        return _mk_or(nnf_not(c.left), nnf(c.right))
    if isinstance(c, Exists):
        return Exists(c.role, nnf(c.filler))
    if isinstance(c, Forall):
        return Forall(c.role, nnf(c.filler))
    if isinstance(c, Not):
        return nnf_not(c.sub)
    raise TypeError(f"not a concept: {c!r}")


def nnf_not(c: Concept) -> Concept:
    if isinstance(c, Top):
        return Bot()
    if isinstance(c, Bot):
        return Top()
    if isinstance(c, Atom):
        return Not(c)
    if isinstance(c, Not):
        return nnf(c.sub)
    if isinstance(c, And):
        return _mk_or(nnf_not(c.left), nnf_not(c.right))
    if isinstance(c, Or):
        return _mk_and(nnf_not(c.left), nnf_not(c.right))
    if isinstance(c, Implies):
        return _mk_and(nnf(c.left), nnf_not(c.right))
    if isinstance(c, Exists):
        return Forall(c.role, nnf_not(c.filler))
    if isinstance(c, Forall):
        return Exists(c.role, nnf_not(c.filler))
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# Completion graph
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("nid", "label", "parent", "parent_role", "is_root", "edge_deps",
                 "children", "or_memo")

    def __init__(self, nid, label, parent, parent_role, is_root,
                 edge_deps=_NO_DEPS, children=(), or_memo=(-1, None)):
        self.nid = nid
        self.label = label          # Concept -> frozenset of decision ids
        self.parent = parent        # nid or None
        self.parent_role = parent_role  # Role: (parent, this) in role^I
        self.is_root = is_root
        self.edge_deps = edge_deps  # decisions the parent edge depends on
        self.children = list(children)  # child nids
        self.or_memo = or_memo      # (label size, least open Or or None)

    def copy(self):
        return _Node(self.nid, dict(self.label), self.parent, self.parent_role,
                     self.is_root, self.edge_deps, self.children, self.or_memo)


class _State:
    __slots__ = ("nodes", "owned")

    def __init__(self, nodes, owned):
        self.nodes = nodes          # nid -> _Node, possibly shared
        self.owned = owned          # nids whose _Node no other state holds

    def copy(self):
        """The other branch's state; both now share every node."""
        self.owned = set()
        return _State(dict(self.nodes), set())

    def own(self, x) -> _Node:
        """Node ``x``, copied first if another state may hold it; every
        write to a node goes through here."""
        if x in self.owned:
            return self.nodes[x]
        self.owned.add(x)
        node = self.nodes[x] = self.nodes[x].copy()
        return node


class _Clash(Exception):
    def __init__(self, deps):
        self.deps = deps


class _Tableau:
    def __init__(self, tbox: TBox, budget: int):
        self.global_concepts = tuple(
            sorted({nnf(Or(Not(l), r)) for l, r in tbox.inclusions} - {Top()},
                   key=concept_sort_key))
        self.functional = tuple(sorted(tbox.functional))
        from .syntax import dialect
        has_inverse = "I" in dialect(tbox)
        if self.functional:
            self.blocking = "pair"
        elif has_inverse:
            self.blocking = "equality"
        else:
            self.blocking = "subset"
        self.budget = budget
        self.created = 0
        self.decisions = 0
        self.root_adj = {}     # root nid -> {(role name, inverted, root nid)}

    # -- construction -------------------------------------------------------

    def seed(self, individuals, labels, role_edges) -> _State:
        nodes = {}
        index = {}
        for i, name in enumerate(sorted(individuals)):
            label = {c: _NO_DEPS for c in labels.get(name, ())}
            for c in self.global_concepts:
                label.setdefault(c, _NO_DEPS)
            nodes[i] = _Node(i, label, None, None, True)
            index[name] = i
            self.created += 1
        for name, a, b in role_edges:
            a, b = index[a], index[b]
            self.root_adj.setdefault(a, set()).add((name, False, b))
            self.root_adj.setdefault(b, set()).add((name, True, a))
        return _State(nodes, set(nodes))

    def _new_child(self, state: _State, parent: int, role: Role, concept,
                   deps) -> int:
        self.created += 1
        if self.created > self.budget:
            raise BudgetExceededError(f"tableau node budget exceeded ({self.budget})")
        nid = max(state.nodes) + 1
        label = {concept: deps}
        for c in self.global_concepts:
            label.setdefault(c, _NO_DEPS)
        state.nodes[nid] = _Node(nid, label, parent, role, False, deps)
        state.owned.add(nid)
        state.own(parent).children.append(nid)
        return nid

    # -- structure queries ----------------------------------------------------

    def neighbours(self, state: _State, x: int, role: Role):
        """All (y, edge deps) with (x, y) in role^I."""
        nodes = state.nodes
        node = nodes[x]
        out = [(cid, nodes[cid].edge_deps) for cid in node.children
               if nodes[cid].parent_role == role]
        up = node.parent_role
        if up is not None and up.name == role.name and up.inverted != role.inverted:
            out.append((node.parent, node.edge_deps))
        if node.is_root:  # roots are never merged away: the index stays valid
            out.extend((y, _NO_DEPS) for name, inv, y in self.root_adj.get(x, ())
                       if name == role.name and inv == role.inverted)
        if len(out) > 1:
            out.sort(key=itemgetter(0))
        return out

    def _ancestors(self, state: _State, x: int):
        node = state.nodes[x]
        while node.parent is not None:
            node = state.nodes[node.parent]
            yield node

    def _directly_blocked(self, state: _State, x: int) -> bool:
        node = state.nodes[x]
        if node.is_root or node.parent is None:
            return False
        lab = node.label.keys()
        if self.blocking in ("subset", "equality"):
            # anywhere blocking: any older node may serve as the blocker
            for y in sorted(state.nodes):
                if y >= x:
                    break
                other = state.nodes[y].label.keys()
                if self.blocking == "subset":
                    if lab <= other:
                        return True
                elif lab == other:
                    return True
            return False
        for anc in self._ancestors(state, x):  # pairwise: ancestors only
            if anc.is_root or anc.parent is None:
                continue
            if (lab == anc.label.keys()
                    and node.parent_role == anc.parent_role
                    and state.nodes[node.parent].label.keys()
                    == state.nodes[anc.parent].label.keys()):
                return True
        return False

    def blocked(self, state: _State, x: int) -> bool:
        node = state.nodes[x]
        while True:
            if self._directly_blocked(state, node.nid):
                return True
            if node.parent is None:
                return False
            node = state.nodes[node.parent]

    # -- rules ----------------------------------------------------------------

    @staticmethod
    def _add(state: _State, x: int, c, deps) -> bool:
        if c in state.nodes[x].label:
            return False
        state.own(x).label[c] = deps
        return True

    @staticmethod
    def _check_node_clash(node: _Node):
        label = node.label
        for c, deps in label.items():
            if isinstance(c, Bot):
                raise _Clash(deps)
            if isinstance(c, Not):
                other = label.get(c.sub)
                if other is not None:
                    raise _Clash(deps | other)

    def _merge(self, state: _State, source: int, target: int, trigger):
        """Merge tree node ``source`` into ``target``; every transferred
        fact additionally depends on the merge trigger."""
        snode = state.nodes[source]
        tnode = state.own(target)
        extra = trigger | snode.edge_deps
        for c, deps in snode.label.items():
            # keep existing justifications: any one valid dep set suffices
            if c not in tnode.label:
                tnode.label[c] = deps | extra
        for cid in snode.children:
            child = state.own(cid)
            child.parent = target
            child.edge_deps = child.edge_deps | extra
            tnode.children.append(cid)
        if snode.parent is not None:
            state.own(snode.parent).children.remove(source)
        del state.nodes[source]

    def _apply_functional(self, state: _State) -> bool:
        for role in self.functional:
            for x in sorted(state.nodes):
                node = state.nodes[x]
                if len(node.children) + (node.parent is not None) < 2 \
                        and x not in self.root_adj:
                    continue    # fewer than two neighbours of any role
                ns = self.neighbours(state, x, role)
                if len(ns) < 2:
                    continue
                (y, ydeps), (z, zdeps) = ns[0], ns[1]
                trigger = ydeps | zdeps
                ynode, znode = state.nodes[y], state.nodes[z]
                if ynode.is_root and znode.is_root:
                    # distinct individual names denote distinct elements
                    raise _Clash(trigger)
                if ynode.is_root:
                    self._merge(state, z, y, trigger)
                elif znode.is_root:
                    self._merge(state, y, z, trigger)
                else:
                    self._merge(state, max(y, z), min(y, z), trigger)
                return True
        return False

    @staticmethod
    def _dead_literal(c, label) -> Optional[frozenset]:
        """Deps of the contradiction when the concept clashes with a
        present literal, else None."""
        if isinstance(c, Atom):
            deps = label.get(Not(c))
            return deps
        if isinstance(c, Not):
            return label.get(c.sub)
        if isinstance(c, Bot):
            return _NO_DEPS
        return None

    def _saturate(self, state: _State, dirty=None):
        """Conjunction, value restriction, literal unit propagation and
        functional merging to fixpoint; raises _Clash on contradiction.

        ``dirty`` seeds the worklist; None reprocesses the whole graph.
        """
        from collections import deque
        if dirty is None:
            queue = deque(sorted(state.nodes))
        else:
            queue = deque(x for x in dirty if x in state.nodes)
        queued = set(queue)

        def enqueue(x):
            if x not in queued and x in state.nodes:
                queue.append(x)
                queued.add(x)

        while True:
            while queue:
                x = queue.popleft()
                queued.discard(x)
                if x not in state.nodes:
                    continue
                changed_self = False
                for c in list(state.nodes[x].label):
                    label = state.nodes[x].label  # own() may have replaced it
                    deps = label[c]
                    if isinstance(c, And):
                        if self._add(state, x, c.left, deps):
                            changed_self = True
                        if self._add(state, x, c.right, deps):
                            changed_self = True
                    elif isinstance(c, Or):
                        if c.left in label or c.right in label:
                            continue
                        dead = self._dead_literal(c.left, label)
                        if dead is not None:
                            if self._add(state, x, c.right, deps | dead):
                                changed_self = True
                            continue
                        dead = self._dead_literal(c.right, label)
                        if dead is not None:
                            if self._add(state, x, c.left, deps | dead):
                                changed_self = True
                    elif isinstance(c, Forall):
                        for y, edeps in self.neighbours(state, x, c.role):
                            if self._add(state, y, c.filler, deps | edeps):
                                enqueue(y)
                self._check_node_clash(state.nodes[x])
                if changed_self:
                    enqueue(x)
            merged = False
            while self._apply_functional(state):
                merged = True
                for node in state.nodes.values():
                    self._check_node_clash(node)
            if not merged:
                return
            for x in sorted(state.nodes):
                enqueue(x)

    def _find_or(self, state: _State):
        for x in sorted(state.nodes):
            node = state.nodes[x]
            label = node.label
            size, open_or = node.or_memo
            if size != len(label):
                open_or = min((c for c in label if isinstance(c, Or)
                               and c.left not in label and c.right not in label),
                              key=concept_sort_key, default=None)
                # a cache of the keys only, so shared nodes may hold it too
                node.or_memo = (len(label), open_or)
            # blocked nodes never appear in the constructed model, so
            # their disjunctions need no resolution
            if open_or is not None and not self.blocked(state, x):
                return x, open_or
        return None

    def _apply_exists(self, state: _State):
        """Satisfy one open existential; returns the dirty node set, or
        None when no existential is applicable."""
        for x in sorted(state.nodes):
            node = state.nodes[x]
            label = node.label
            existentials = sorted((c for c in label if isinstance(c, Exists)),
                                  key=concept_sort_key)
            blocked = None
            for c in existentials:
                ns = self.neighbours(state, x, c.role)
                if any(c.filler in state.nodes[y].label for y, _d in ns):
                    continue
                deps = label[c]
                if c.role in self.functional and ns:
                    y, edeps = ns[0]
                    if self._add(state, y, c.filler, deps | edeps):
                        return {y}
                    continue
                if blocked is None:
                    blocked = self.blocked(state, x)
                if blocked:
                    continue
                child = self._new_child(state, x, c.role, c.filler, deps)
                return {x, child}
        return None

    # -- search ----------------------------------------------------------------

    def run(self, state: _State) -> bool:
        """True iff a complete clash-free completion graph exists."""
        # open decisions: (right-branch state, node, disjunction, decision,
        # base deps, deps of the failed left branch or None while in it)
        stack = []
        dirty = None
        while True:
            try:
                self._saturate(state, dirty)
                branch = self._find_or(state)
                if branch is None:
                    dirty = self._apply_exists(state)
                    if dirty is None:
                        return True
                    continue
            except _Clash as clash:
                deps = clash.deps
                while True:
                    if not stack:
                        return False
                    alt, x, c, decision, base, left = stack.pop()
                    if left is not None:
                        deps = (left | deps | base) - {decision}
                    elif decision in deps:
                        stack.append((None, x, c, decision, base, deps))
                        state, dirty = alt, {x}
                        state.own(x).label[c.right] = base | {decision}
                        break
                    # else the clash does not involve this choice: the
                    # right branch would fail for the same reason
                continue
            x, c = branch
            decision = self.decisions
            self.decisions += 1
            base = state.nodes[x].label[c]
            stack.append((state.copy(), x, c, decision, base, None))
            dirty = {x}
            state.own(x).label[c.left] = base | {decision}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def satisfiable(concept: Concept, tbox: TBox,
                budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff some model of the TBox has a non-empty extension for
    ``concept``."""
    tab = _Tableau(tbox, budget)
    state = tab.seed(["_root"], {"_root": [nnf(concept)]}, [])
    return tab.run(state)


def abox_consistent(tbox: TBox, abox: ABox, extra_labels=None,
                    budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Joint-model existence for TBox and ABox under standard names.

    ``extra_labels`` maps individuals to additional concept constraints;
    seeding a negated query concept this way decides entailment.
    """
    labels = {}
    for name, a in abox.concept_assertions:
        labels.setdefault(a, []).append(Atom(name))
    for ind, cs in (extra_labels or {}).items():
        labels.setdefault(ind, []).extend(cs)
    individuals = set(abox.individuals()) | set(labels)
    if not individuals:
        individuals = {"_root"}
    labels = {k: [nnf(c) for c in v] for k, v in labels.items()}
    tab = _Tableau(tbox, budget)
    state = tab.seed(individuals, labels, abox.role_assertions)
    return tab.run(state)
