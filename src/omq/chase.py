"""Horn-ALCFI completion (chase), syntactic matching, canonical-model
extraction, and exact Horn query answering.

The completion applies rules R1-R7 in fair deterministic rounds after
normalizing the TBox to a single inclusion top sub C_T.  The untamed
completion can be infinite, so compound individuals whose full concept
label equals that of a strict ancestor on the same branch are not
expanded (ancestor-label blocking); all other rules still reach blocked
individuals.  A node's subtree is determined by its label, so a blocked
individual behaves exactly like the root of a copy of its blocker's
subtree; matching and model extraction follow that redirection.

An extra clash rule backs the standard name assumption: two distinct
r-successors of the same individual with func(r) derive bottom, matching
the inequality rule of the functionality rewriting.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .syntax import (
    ABox, And, Atom, Bot, Concept, ELIQ, ELQ, Exists, Forall, Implies,
    Not, Or, Role, TBox, Top, UCQ, concept_sort_key, conjoin, is_eliu_bot,
    is_horn_alcfi, print_concept,
)
from .semantics import Interpretation, match_query


class InconclusiveError(RuntimeError):
    """The completion hit its budget before the question was settled."""


@dataclass(frozen=True)
class ChaseInd:
    """Compound individual a r1 C1 ... rk Ck."""
    base: str
    path: tuple  # of (Role, Concept)

    def parent(self):
        if len(self.path) == 1:
            return self.base
        return ChaseInd(self.base, self.path[:-1])

    def extend(self, role: Role, concept: Concept) -> "ChaseInd":
        return ChaseInd(self.base, self.path + ((role, concept),))

    def mangled(self) -> str:
        parts = [self.base]
        for role, concept in self.path:
            parts.append(role.name + ("_inv" if role.inverted else ""))
            parts.append(re.sub(r"[^A-Za-z0-9_]+", "_", print_concept(concept)).strip("_"))
        return ".".join(parts)


def _ind_key(x):
    if isinstance(x, ChaseInd):
        return (1, x.base, len(x.path),
                tuple((r.name, r.inverted, concept_sort_key(c)) for r, c in x.path))
    return (0, str(x), 0, ())


def _extend(x, role, concept):
    if isinstance(x, ChaseInd):
        return x.extend(role, concept)
    return ChaseInd(x, ((role, concept),))


def _mangle(x):
    return x.mangled() if isinstance(x, ChaseInd) else str(x)


def normalize_horn(tbox: TBox) -> Concept:
    """The single-inclusion form: C_T conjoining L -> R over all CIs."""
    parts = [Implies(l, r) for l, r in tbox.sorted_inclusions()]
    return conjoin(parts)


# ---------------------------------------------------------------------------
# The extended-ABox structure shared by the run and the result
# ---------------------------------------------------------------------------

class _Structure:
    """Labels, edges and blocking bookkeeping over chase individuals.

    Blocking compares full concept labels with a strict ancestor.  Without
    functional roles a node's subtree is determined by its label alone;
    with functionality it also depends on the incoming edge, so blocking
    additionally requires equal incoming steps and equal parent labels
    (the pairwise condition), mirroring the tableau's blocking choice.
    """

    def __init__(self, labels, edges, bottom, pair_blocking=False):
        self.labels = labels   # individual -> set/frozenset of concepts
        self.edges = set()     # of (role name, x, y)
        self.adj = {}          # x -> {(role, y)}: y is a role-successor of x
        self.bottom = bottom
        self.pair_blocking = pair_blocking
        for e in edges:
            self.add_edge(e)

    def add_edge(self, e) -> bool:
        """Adds the edge (role name, x, y); False if it was there."""
        if e in self.edges:
            return False
        n, a, b = e
        self.edges.add(e)
        self.adj.setdefault(a, set()).add((Role(n), b))
        self.adj.setdefault(b, set()).add((Role(n, True), a))
        return True

    def successors(self, x, role: Role):
        return sorted((y for r, y in self.adj.get(x, ()) if r == role), key=_ind_key)

    def blocker_of(self, x):
        """The nearest strict ancestor qualifying as a blocker, if any."""
        if not isinstance(x, ChaseInd):
            return None
        label = self.labels[x]
        anc = x
        while isinstance(anc, ChaseInd):
            anc = anc.parent()
            if not self.pair_blocking:
                if anc in self.labels and self.labels[anc] == label:
                    return anc
                continue
            if not isinstance(anc, ChaseInd):
                break
            if (anc in self.labels and self.labels[anc] == label
                    and anc.path[-1] == x.path[-1]
                    and self.labels.get(anc.parent()) == self.labels.get(x.parent())):
                return anc
        return None

    def child_edges(self, x):
        """Tree-child edges of x: (role, child) with child = x.(role,C)."""
        out = [(r, y) for r, y in self.adj.get(x, ())
               if isinstance(y, ChaseInd) and y.path and y.parent() == x
               and y.path[-1][0].inverted == r.inverted]
        return sorted(out, key=lambda p: (p[0], _ind_key(p[1])))

    def virtual_edges(self, x):
        """Outgoing edges of x in the virtual completed ABox: x's own
        edges, plus the blocker's child edges when x is blocked."""
        out = list(self.adj.get(x, ()))
        blocker = self.blocker_of(x)
        if blocker is not None:
            out.extend(self.child_edges(blocker))
        return sorted(set(out), key=lambda p: (p[0], _ind_key(p[1])))

    def match(self, concept: Concept, x, virtual: bool) -> bool:
        if isinstance(concept, Top):
            return True
        if isinstance(concept, Bot):
            return self.bottom
        if isinstance(concept, Atom):
            return concept in self.labels.get(x, frozenset())
        if isinstance(concept, And):
            return self.match(concept.left, x, virtual) and \
                self.match(concept.right, x, virtual)
        if isinstance(concept, Or):
            return self.match(concept.left, x, virtual) or \
                self.match(concept.right, x, virtual)
        if isinstance(concept, Exists):
            if virtual:
                edges = self.virtual_edges(x)
            else:
                edges = [(concept.role, b) for b in self.successors(x, concept.role)]
            return any(role == concept.role and self.match(concept.filler, b, virtual)
                       for role, b in edges)
        raise ValueError(f"not an ELIU-bottom constructor: {type(concept).__name__}")


def syntactic_match(state, concept: Concept, x, follow_blockers: bool = False) -> bool:
    """The has-a-syntactic-match relation for ELIU-bottom concepts.

    ``state`` is a Completion (or compatible structure); bottom anywhere
    matches bot at every individual.  With ``follow_blockers`` the virtual
    completed structure is matched instead of the raw slice.
    """
    if not is_eliu_bot(concept):
        raise ValueError("syntactic match is defined for ELIU-bottom concepts only")
    return state._structure.match(concept, x, follow_blockers)


@dataclass
class Completion:
    """Result of a completion run: a finite slice of the extended ABox.

    ``status`` is 'complete' when no rule is applicable (given blocking),
    'budget-exhausted' when depth or assertion caps cut the run short.
    """
    tbox: TBox
    abox: ABox
    c_t: Concept
    labels: dict            # individual -> frozenset of concepts
    edges: frozenset        # (role name, individual, individual)
    status: str
    bottom: bool
    trace: tuple = ()

    @cached_property
    def _structure(self) -> _Structure:
        return _Structure(self.labels, self.edges, self.bottom,
                          pair_blocking=bool(self.tbox.functional))

    def individuals(self):
        return sorted(self.labels, key=_ind_key)

    def matches(self, concept: Concept, x) -> bool:
        """Blocking-aware syntactic match on the virtual completed ABox."""
        return syntactic_match(self, concept, x, follow_blockers=True)

    def interpretation(self) -> Interpretation:
        """The canonical interpretation of the (raw) slice; refuses when
        bottom was derived, as an inconsistent KB has no materialization."""
        if self.bottom:
            raise ValueError("inconsistent knowledge base has no canonical model")
        cext = {}
        for x, label in self.labels.items():
            for c in label:
                if isinstance(c, Atom):
                    cext.setdefault(c.name, set()).add(x)
        rext = {}
        for n, a, b in self.edges:
            rext.setdefault(n, set()).add((a, b))
        named = frozenset(self.abox.individuals())
        return Interpretation(frozenset(self.labels), named,
                              {k: frozenset(v) for k, v in cext.items()},
                              {k: frozenset(v) for k, v in rext.items()})

    def unrolled_interpretation(self, extra_depth: int) -> Interpretation:
        """Materialize the virtual completed ABox, unrolling blocked loops
        to tree depth (deepest real node + extra_depth)."""
        s = self._structure
        max_real = max((len(x.path) for x in self.labels if isinstance(x, ChaseInd)),
                       default=0)
        limit = max_real + extra_depth
        bases = sorted(self.abox.individuals())
        cext = {}
        rext = {}

        def add_labels(elem, x):
            for c in self.labels[x]:
                if isinstance(c, Atom):
                    cext.setdefault(c.name, set()).add(elem)

        for a in bases:
            add_labels(a, a)
        for n, a, b in self.abox.role_assertions:
            rext.setdefault(n, set()).add((a, b))

        frontier = [(a, a) for a in bases]
        domain = set(bases)
        depth = 0
        while frontier and depth < limit:
            depth += 1
            new_frontier = []
            for elem, x in frontier:
                blocker = s.blocker_of(x)
                rep = blocker if blocker is not None else x
                for role, child in s.child_edges(rep):
                    step = child.path[-1]
                    celem = elem + (step,) if isinstance(elem, tuple) else (elem, step)
                    if role.inverted:
                        rext.setdefault(role.name, set()).add((celem, elem))
                    else:
                        rext.setdefault(role.name, set()).add((elem, celem))
                    add_labels(celem, child)
                    domain.add(celem)
                    new_frontier.append((celem, child))
            frontier = new_frontier
        return Interpretation(frozenset(domain), frozenset(bases),
                              {k: frozenset(v) for k, v in cext.items()},
                              {k: frozenset(v) for k, v in rext.items()})

# ---------------------------------------------------------------------------
# The completion procedure
# ---------------------------------------------------------------------------

def complete(tbox: TBox, abox: ABox, max_depth: int = 20,
             max_assertions: int = 50000, order_seed: Optional[int] = None,
             keep_trace: bool = False) -> Completion:
    """Exhaustive fair application of R1-R7 with ancestor-label blocking.

    Rules are applied in rounds until no rule adds anything, which is fair:
    every applicable rule instance is reconsidered each round.  With an
    ``order_seed`` the per-round processing order is shuffled; the Boolean
    outputs (bottom, entailed queries) are insensitive to it.
    """
    if not is_horn_alcfi(tbox):
        raise ValueError("completion requires a Horn-ALCFI TBox")
    c_t = normalize_horn(tbox)
    functional = tbox.functional

    labels = {}
    for name, a in abox.concept_assertions:
        labels.setdefault(a, set()).add(Atom(name))
    for a in abox.individuals():
        labels.setdefault(a, set())
    struct = _Structure(labels, abox.role_assertions, False, pair_blocking=bool(functional))
    assertions = sum(len(v) for v in labels.values()) + len(struct.edges)
    rng = random.Random(order_seed) if order_seed is not None else None
    trace = []
    bottom = False
    truncated = False

    def add_concept(x, c, rule, premise):
        nonlocal bottom, assertions
        label = labels[x]
        if c in label:
            return False
        label.add(c)
        assertions += 1
        if keep_trace:
            trace.append((rule, premise, f"{print_concept(c)}({_mangle(x)})"))
        # complementary literals clash: the right-hand grammar admits
        # negated names, and A with not A is as inconsistent as bot
        if isinstance(c, Bot) or \
                (isinstance(c, Not) and isinstance(c.sub, Atom) and c.sub in label) or \
                (isinstance(c, Atom) and Not(c) in label):
            bottom = struct.bottom = True
            if Bot() not in label:
                label.add(Bot())
                assertions += 1
        return True

    def add_edge(x, role, y, rule, premise):
        nonlocal assertions
        e = (role.name, y, x) if role.inverted else (role.name, x, y)
        if not struct.add_edge(e):
            return False
        assertions += 1
        if keep_trace:
            trace.append((rule, premise, f"{e[0]}({_mangle(e[1])},{_mangle(e[2])})"))
        return True

    def expandable(x):
        # R4/R6 are suppressed at blocked individuals and below them
        node = x
        while True:
            if struct.blocker_of(node) is not None:
                return False
            if not isinstance(node, ChaseInd):
                return True
            node = node.parent()

    changed = True
    while changed and not bottom:
        changed = False
        inds = sorted(labels, key=_ind_key)
        if rng is not None:
            rng.shuffle(inds)
        for x in inds:
            if add_concept(x, c_t, "R1", _mangle(x) if keep_trace else None):
                changed = True
        for x in inds:
            for c in sorted(labels[x], key=concept_sort_key):
                prem = f"{print_concept(c)}({_mangle(x)})" if keep_trace else None
                if isinstance(c, And):
                    if add_concept(x, c.left, "R2", prem):
                        changed = True
                    if add_concept(x, c.right, "R2", prem):
                        changed = True
                elif isinstance(c, Implies):
                    # the premise match follows blockers: a deep match may
                    # run through a blocked individual's virtual subtree
                    if struct.match(c.left, x, True):
                        if add_concept(x, c.right, "R3", prem):
                            changed = True
                elif isinstance(c, Forall):
                    for y in struct.successors(x, c.role):
                        if add_concept(y, c.filler, "R7", prem):
                            changed = True
                elif isinstance(c, Exists):
                    if c.role in functional:
                        existing = struct.successors(x, c.role)
                        if existing:
                            for y in existing:  # R5
                                if add_concept(y, c.filler, "R5", prem):
                                    changed = True
                            continue
                        if not expandable(x):  # R6
                            continue
                        y = _extend(x, c.role, c.filler)
                        if len(y.path) > max_depth:
                            truncated = True
                            continue
                        if y not in labels:
                            labels[y] = set()
                        if add_edge(x, c.role, y, "R6", prem):
                            changed = True
                        if add_concept(y, c.filler, "R6", prem):
                            changed = True
                    else:
                        if not expandable(x):  # R4
                            continue
                        y = _extend(x, c.role, c.filler)
                        if len(y.path) > max_depth:
                            truncated = True
                            continue
                        if y not in labels:
                            labels[y] = set()
                        if add_edge(x, c.role, y, "R4", prem):
                            changed = True
                        if add_concept(y, c.filler, "R4", prem):
                            changed = True
            if bottom:
                break
            if assertions > max_assertions:
                truncated = True
                changed = False
                break
        if bottom:
            break
        # unique names: a functional role with two distinct successors clashes
        for role in sorted(functional):
            for x in sorted(labels, key=_ind_key):
                ys = set(struct.successors(x, role))
                if len(ys) >= 2:
                    if add_concept(x, Bot(), "Rf",
                                   f"{role}({_mangle(x)}) has two successors"):
                        changed = True

    status = "complete" if (bottom or not truncated) else "budget-exhausted"
    return Completion(tbox, abox, c_t,
                      {k: frozenset(v) for k, v in labels.items()},
                      frozenset(struct.edges), status, bottom, tuple(trace))


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------

def horn_entails_eliq(tbox: TBox, abox: ABox, q, individual,
                      completion: Optional[Completion] = None) -> bool:
    """Certain answer of the ELIQ at the individual under a Horn TBox:
    the completion syntactically matches the query concept, or derived
    bottom.  Raises InconclusiveError when the budget ran out without a
    positive answer."""
    concept = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    c = completion if completion is not None else complete(tbox, abox)
    if c.bottom:
        return True
    if c.matches(concept, individual):
        return True
    if c.status != "complete":
        raise InconclusiveError("completion budget exhausted before a fixpoint")
    return False


def horn_certain_answer_cq(tbox: TBox, abox: ABox, q, answers: tuple,
                           completion: Optional[Completion] = None) -> bool:
    """Certain answer for a CQ/UCQ under a Horn TBox, evaluated on the
    canonical interpretation with the blocked frontier unrolled to the
    query's variable count."""
    c = completion if completion is not None else complete(tbox, abox)
    if c.bottom:
        return True
    if isinstance(q, (ELIQ, ELQ)):
        return horn_entails_eliq(tbox, abox, q, answers[0], completion=c)
    if isinstance(q, UCQ):
        nvars = max((len(d.variables()) for d in q.disjuncts), default=0)
    else:
        nvars = len(q.variables())
    i = c.unrolled_interpretation(2 * nvars + 1)
    got = match_query(i, q, answers)
    if not got and c.status != "complete":
        raise InconclusiveError("completion budget exhausted before a fixpoint")
    return got
