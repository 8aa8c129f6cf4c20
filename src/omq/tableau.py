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

The search reads concepts and roles as ints (that paper's encoding
step).  Each TBox value is compiled once and keeps the result: its
internalized inclusions, functional roles and blocking mode, and a table
giving each concept of their closure an id with its class, parts,
complementary literal and sort key.  Labels map ids to dependency sets.
A knowledge base numbers the concepts and role names only it brings in a
copy of the table, for its own run.

The node budget bounds the total number of nodes created across all
branches; exhausting it raises BudgetExceededError, which is distinct
from both outcomes of the decision.
"""

from __future__ import annotations

import copy
from collections import deque
from operator import itemgetter

from .syntax import (
    ABox, And, Atom, Bot, Concept, Exists, Forall, Implies, Not, Or, TBox,
    Top, concept_sort_key, dialect, subconcepts,
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
# The compiled TBox
# ---------------------------------------------------------------------------

class ConceptTable:
    """Concepts numbered in ``concept_sort_key`` order, as an engine reads
    them.  ``ids`` numbers from 0 the given concepts and their parts, and
    ``concepts`` lists them by id.  An id indexes ``kind`` (the class),
    ``parts`` ((left, right) ids of a conjunction or disjunction, (filler,
    role) ids of a restriction), ``neg`` (the complementary literal's id,
    or -1) and ``rank`` (its ``concept_sort_key``).  Role name r has an
    even id i, and inv(r) the id i ^ 1."""

    def __init__(self, concepts, role_names):
        self.concepts, self.kind, self.parts, self.neg, self.rank = [], [], [], [], []
        self.ids, self.role_ids = {}, {}    # concept -> id; role name -> id
        self._number(concepts, role_names)

    def _number(self, concepts, role_names):
        """Give ids to the concepts, their parts and the role names that
        have none yet."""
        ids, role_ids = self.ids, self.role_ids
        new = sorted({s for c in concepts if c not in ids for s in subconcepts(c)
                      if s not in ids}, key=concept_sort_key)
        for name in sorted(set(role_names).union(
                s.role.name for s in new if isinstance(s, (Exists, Forall))) - role_ids.keys()):
            role_ids[name] = 2 * len(role_ids)
        ids.update((c, i) for i, c in enumerate(new, len(ids)))
        self.concepts += new
        self.kind += map(type, new)
        self.rank += map(concept_sort_key, new)
        self.neg += [-1] * len(new)
        for c in new:
            if isinstance(c, (And, Or)):
                self.parts.append((ids[c.left], ids[c.right]))
            elif isinstance(c, (Exists, Forall)):
                self.parts.append((ids[c.filler], role_ids[c.role.name] + c.role.inverted))
            else:
                self.parts.append(())
                if isinstance(c, Not):      # a negated concept name
                    self.neg[ids[c]], self.neg[ids[c.sub]] = ids[c.sub], ids[c]

    def extended(self, concepts, role_names) -> "ConceptTable":
        """This table if it numbers the concepts and role names already,
        else a copy that numbers them too, sharing all but ``role_ids`` when
        only role names are new; this table stays as it is."""
        numbered = all(c in self.ids for c in concepts)
        if numbered and self.role_ids.keys() >= role_names:
            return self
        out = copy.copy(self)
        out.__dict__.update((k, v.copy()) for k, v in vars(self).items()
                            if k == "role_ids" or (not numbered and isinstance(v, (list, dict))))
        out._number(concepts, role_names)
        return out


class _Compiled(ConceptTable):
    """A TBox as the search reads it: its internalized inclusions, and ``not A``
    for each concept name A, which a negated query seeds."""

    def __init__(self, tbox: TBox):
        gcis = {nnf(Or(Not(l), r)) for l, r in tbox.inclusions} - {Top()}
        super().__init__(gcis | {Not(Atom(a)) for a in tbox.concept_names()}, tbox.role_names())
        # the internalized inclusions in sort order, as a label to seed
        self.globals = dict.fromkeys(
            sorted((self.ids[c] for c in gcis), key=self.rank.__getitem__), _NO_DEPS)
        self.functional = tuple(self.role_ids[r.name] + r.inverted
                                for r in sorted(tbox.functional))
        self.blocking = ("pair" if self.functional
                         else "equality" if "I" in dialect(tbox) else "subset")


# ---------------------------------------------------------------------------
# Completion graph
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("nid", "label", "parent", "parent_role", "is_root", "edge_deps",
                 "children", "or_memo")

    def __init__(self, nid, label, parent, parent_role, is_root,
                 edge_deps=_NO_DEPS, children=(), or_memo=(-1, None)):
        self.nid = nid
        self.label = label          # concept id -> frozenset of decision ids
        self.parent = parent        # nid or None
        self.parent_role = parent_role  # role id: (parent, this) in role^I
        self.is_root = is_root
        self.edge_deps = edge_deps  # decisions the parent edge depends on
        self.children = list(children)  # child nids
        self.or_memo = or_memo      # (label size, least open Or id or None)

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
    """One search: a knowledge base over its TBox's compiled table."""

    def __init__(self, tbox: TBox, budget: int):
        try:    # compiled once per TBox value and kept on it, like a sort key
            self.table = tbox._tableau
        except AttributeError:
            self.table = _Compiled(tbox)
            object.__setattr__(tbox, "_tableau", self.table)
        self.budget = budget
        self.created = 0
        self.decisions = 0
        self.root_adj = {}     # root nid -> {(role id, root nid)}

    # -- construction -------------------------------------------------------

    def seed(self, individuals, labels, role_edges) -> _State:
        t = self.table = self.table.extended(
            [c for cs in labels.values() for c in cs], {name for name, _a, _b in role_edges})
        nodes, index = {}, {}
        for i, name in enumerate(sorted(individuals)):
            label = dict.fromkeys([t.ids[c] for c in labels.get(name, ())], _NO_DEPS)
            label.update(t.globals)
            nodes[i] = _Node(i, label, None, None, True)
            index[name] = i
            self.created += 1
        for name, a, b in role_edges:
            r, a, b = t.role_ids[name], index[a], index[b]
            self.root_adj.setdefault(a, set()).add((r, b))
            self.root_adj.setdefault(b, set()).add((r ^ 1, a))
        return _State(nodes, set(nodes))

    def _new_child(self, state: _State, parent: int, role: int, concept: int,
                   deps) -> int:
        self.created += 1
        if self.created > self.budget:
            raise BudgetExceededError(f"tableau node budget exceeded ({self.budget})")
        nid = max(state.nodes) + 1
        label = {concept: deps}
        for c in self.table.globals:
            label.setdefault(c, _NO_DEPS)
        state.nodes[nid] = _Node(nid, label, parent, role, False, deps)
        state.owned.add(nid)
        state.own(parent).children.append(nid)
        return nid

    # -- structure queries ----------------------------------------------------

    def neighbours(self, state: _State, x: int, role: int):
        """All (y, edge deps) with (x, y) in role^I."""
        nodes = state.nodes
        node = nodes[x]
        out = [(cid, nodes[cid].edge_deps) for cid in node.children
               if nodes[cid].parent_role == role]
        if node.parent_role == role ^ 1:
            out.append((node.parent, node.edge_deps))
        if node.is_root:  # roots are never merged away: the index stays valid
            out.extend((y, _NO_DEPS) for r, y in self.root_adj.get(x, ()) if r == role)
        if len(out) > 1:
            out.sort(key=itemgetter(0))
        return out

    def _directly_blocked(self, state: _State, x: int) -> bool:
        node = state.nodes[x]
        if node.is_root or node.parent is None:
            return False
        lab = node.label.keys()
        # anywhere blocking: any older node may serve as the blocker
        if self.table.blocking == "subset":
            return any(y < x and lab <= n.label.keys() for y, n in state.nodes.items())
        if self.table.blocking == "equality":
            return any(y < x and lab == n.label.keys() for y, n in state.nodes.items())
        anc = node
        while anc.parent is not None:       # pairwise: tree ancestors only
            anc = state.nodes[anc.parent]
            if (anc.parent is not None and lab == anc.label.keys()
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
    def _add(state: _State, x: int, c: int, deps) -> bool:
        if c in state.nodes[x].label:
            return False
        state.own(x).label[c] = deps
        return True

    def _check_node_clash(self, node: _Node):
        kind, neg = self.table.kind, self.table.neg
        label = node.label
        for c, deps in label.items():
            if kind[c] is Not and neg[c] in label:
                raise _Clash(deps | label[neg[c]])
            if kind[c] is Bot:
                raise _Clash(deps)

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
        for role in self.table.functional:
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

    def _saturate(self, state: _State, dirty=None):
        """Conjunction, value restriction, literal unit propagation and
        functional merging to fixpoint; raises _Clash on contradiction.

        ``dirty`` seeds the worklist; None reprocesses the whole graph.
        """
        kind, parts, neg = self.table.kind, self.table.parts, self.table.neg
        nodes = state.nodes
        if dirty is None:
            queue = deque(sorted(nodes))
        else:
            queue = deque(x for x in dirty if x in nodes)
        queued = set(queue)

        def enqueue(x):
            if x not in queued and x in nodes:
                queue.append(x)
                queued.add(x)

        while True:
            while queue:
                x = queue.popleft()
                queued.discard(x)
                if x not in nodes:
                    continue
                changed_self = False
                for c in list(nodes[x].label):
                    label = nodes[x].label  # own() may have replaced it
                    k, deps = kind[c], label[c]
                    if k is And:
                        for part in parts[c]:
                            changed_self |= self._add(state, x, part, deps)
                    elif k is Or:
                        left, right = parts[c]
                        if left in label or right in label:
                            continue
                        # a disjunct whose complement is present is dead
                        dead = label.get(neg[left])
                        if dead is not None:
                            changed_self |= self._add(state, x, right, deps | dead)
                            continue
                        dead = label.get(neg[right])
                        if dead is not None:
                            changed_self |= self._add(state, x, left, deps | dead)
                    elif k is Forall:
                        filler, role = parts[c]
                        for y, edeps in self.neighbours(state, x, role):
                            if self._add(state, y, filler, deps | edeps):
                                enqueue(y)
                self._check_node_clash(nodes[x])
                if changed_self:
                    enqueue(x)
            merged = False
            while self._apply_functional(state):
                merged = True
                for node in nodes.values():
                    self._check_node_clash(node)
            if not merged:
                return
            for x in sorted(nodes):
                enqueue(x)

    def _find_or(self, state: _State):
        kind, parts, rank = self.table.kind, self.table.parts, self.table.rank
        for x in sorted(state.nodes):
            node = state.nodes[x]
            label = node.label
            size, open_or = node.or_memo
            if size != len(label):
                keys = label.keys()
                open_or = min((c for c in label if kind[c] is Or
                               and keys.isdisjoint(parts[c])),
                              key=rank.__getitem__, default=None)
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
        kind, parts, rank = self.table.kind, self.table.parts, self.table.rank
        for x in sorted(state.nodes):
            node = state.nodes[x]
            label = node.label
            existentials = sorted((c for c in label if kind[c] is Exists),
                                  key=rank.__getitem__)
            blocked = None
            for c in existentials:
                filler, role = parts[c]
                ns = self.neighbours(state, x, role)
                if any(filler in state.nodes[y].label for y, _d in ns):
                    continue
                deps = label[c]
                if role in self.table.functional and ns:
                    y, edeps = ns[0]
                    if self._add(state, y, filler, deps | edeps):
                        return {y}
                    continue
                if blocked is None:
                    blocked = self.blocked(state, x)
                if blocked:
                    continue
                child = self._new_child(state, x, role, filler, deps)
                return {x, child}
        return None

    # -- search ----------------------------------------------------------------

    def run(self, state: _State) -> bool:
        """True iff a complete clash-free completion graph exists."""
        # open decisions: (right-branch state, node, disjunction, decision,
        # base deps, deps of the failed left branch or None while in it)
        parts = self.table.parts
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
                        state.own(x).label[parts[c][1]] = base | {decision}
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
            state.own(x).label[parts[c][0]] = base | {decision}


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
