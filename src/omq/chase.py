"""Horn-ALCFI completion (chase), syntactic matching, canonical-model
extraction, and exact Horn query answering.

The completion applies rules R1-R7 in fair deterministic rounds after
normalizing the TBox to a single inclusion top sub C_T.  A round skips
the individuals whose inputs did not change in the round before: those
farther from every new assertion, in ABox edges, than the premises of
C_T can see (the chase form of semi-naive evaluation).  ABox individuals
keep their names; the anonymous ones, the words a r1 C1 ... rk Ck of the
canonical model, are numbered in creation order, and ``origin`` maps each
to the (parent, role, concept) step that made it.  The untamed completion
can be infinite, so anonymous individuals whose full concept label equals
that of a strict ancestor are not expanded (ancestor-label blocking); all
other rules still reach blocked individuals.  A node's subtree is
determined by its label, so a blocked individual behaves exactly like the
root of a copy of its blocker's subtree; matching and model extraction
follow that redirection.  The TBox is numbered once (``_Table``), labels
are int masks, and each premise is matched by a matcher compiled once.

An extra clash rule backs the standard name assumption: two distinct
r-successors of the same individual with func(r) derive bottom, matching
the inequality rule of the functionality rewriting.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    ABox, And, Atom, Bot, Concept, ELIQ, ELQ, Exists, Forall, Implies,
    Or, TBox, Top, UCQ, concept_depth, conjoin,
    is_eliu_bot, is_horn_alcfi, print_concept,
)
from .semantics import Interpretation, match_query
from .tableau import ConceptTable


class InconclusiveError(RuntimeError):
    """The completion hit its budget before the question was settled."""


def normalize_horn(tbox: TBox) -> Concept:
    """The single-inclusion form: C_T conjoining L -> R over all CIs."""
    parts = [Implies(l, r) for l, r in tbox.sorted_inclusions()]
    return conjoin(parts)


# ---------------------------------------------------------------------------
# The numbered TBox and the extended-ABox structure of the run and result
# ---------------------------------------------------------------------------

class _Table(ConceptTable):
    """C_T and bot with their parts, numbered in sort order: a label mask's
    bits run in that order from low to high.  An Implies' parts are its
    premise's matcher and its conclusion's id."""

    def __init__(self, tbox: TBox):
        self.c_t = normalize_horn(tbox)
        super().__init__({self.c_t, Bot()}, tbox.role_names())
        self.functional = {self.role_ids[r.name] + r.inverted for r in tbox.functional}
        self.parts = [(self.matcher(c.left), self.ids[c.right]) if isinstance(c, Implies)
                      else p for c, p in zip(self.concepts, self.parts)]

    def matcher(self, c: Concept, bottom: bool = False):
        """The ELIU-bottom concept as (mask, exists, ors), which holds at x if
        x's label has mask, each (role id, matcher) of exists holds at a role
        successor, and each tuple of ors has a matcher that holds at x."""
        if isinstance(c, And):
            (m, e, o), (m2, e2, o2) = self.matcher(c.left, bottom), self.matcher(c.right, bottom)
            return m | m2, e + e2, o + o2
        if isinstance(c, Or):
            return 0, (), ((self.matcher(c.left, bottom), self.matcher(c.right, bottom)),)
        if isinstance(c, Exists) and c.role.name in self.role_ids:
            role = self.role_ids[c.role.name] + c.role.inverted
            return 0, ((role, self.matcher(c.filler, bottom)),), ()
        if isinstance(c, Top) or (isinstance(c, Bot) and bottom):
            return 0, (), ()
        if isinstance(c, Atom) and c in self.ids:
            return 1 << self.ids[c], (), ()
        return 0, (), ((),)     # never (a name outside the table, or bot)


class _Structure:
    """Labels, edges and blocking bookkeeping over chase individuals.

    ``labels`` maps each individual to its mask over ``table``, and
    ``origin`` each anonymous individual y to (parent, Exists id); beside
    it ``children`` maps x to {Exists id: y} and ``adj`` maps x to {role
    id: the successors of x, in the order their edges came}.

    Blocking compares full concept labels with a strict ancestor.  Without
    functional roles a node's subtree is determined by its label alone;
    with functionality it also depends on the incoming edge, so blocking
    additionally requires equal incoming steps and equal parent labels
    (the pairwise condition), mirroring the tableau's blocking choice.
    """

    def __init__(self, table: _Table, labels, edges):
        self.table = table
        self.labels = labels   # individual -> int mask
        self.origin = {}       # anonymous individual -> (parent, Exists id)
        self.children = {}     # x -> {Exists id: y}
        self.edges = set()     # of (role name, x, y)
        self.adj = {}          # x -> {role id: list of role-successors of x}
        self.bottom = False
        self.matchers = {}     # query concept -> its matcher, once the run is over
        self.pair_blocking = bool(table.functional)
        for e in edges:
            self.add_edge(e)

    def add_edge(self, e) -> bool:
        """Adds the edge (role name, x, y); False if it was there."""
        if e in self.edges:
            return False
        n, a, b = e
        role = self.table.role_ids[n]
        self.edges.add(e)
        self.adj.setdefault(a, {}).setdefault(role, []).append(b)
        self.adj.setdefault(b, {}).setdefault(role + 1, []).append(a)
        return True

    def child(self, x, c: int, max_depth: int):
        """x's child for the Exists with id c, numbered on first use; None past max_depth."""
        kids = self.children.setdefault(x, {})
        y = kids.get(c)
        if y is None and len(self.path(x)) < max_depth:
            y = kids[c] = len(self.origin)
            self.origin[y] = (x, c)
            self.labels[y] = 0
        return y

    def successors(self, x, role: int):
        return self.adj.get(x, {}).get(role, ())

    def path(self, x) -> list:
        """The origin steps (parent, Exists id) from x up to its root."""
        steps = []
        while x in self.origin:
            steps.append(self.origin[x])
            x = steps[-1][0]
        return steps

    def name(self, x) -> str:
        """The printed name: an anonymous individual is a.r1.C1...rk.Ck."""
        steps = self.path(x)
        parts = [str(steps[-1][0] if steps else x)]
        for ex in (self.table.concepts[c] for _, c in reversed(steps)):
            f = re.sub(r"[^A-Za-z0-9_]+", "_", print_concept(ex.filler)).strip("_")
            parts.append(f"{ex.role.name}{'_inv' if ex.role.inverted else ''}.{f}")
        return ".".join(parts)

    def blocker_of(self, x):
        """The nearest strict ancestor qualifying as a blocker, if any."""
        step = up = self.origin.get(x)
        while up is not None:
            anc = up[0]
            up = self.origin.get(anc)
            if self.labels[anc] == self.labels[x] and (not self.pair_blocking or (
                    up is not None and up[1] == step[1]
                    and self.labels[up[0]] == self.labels[step[0]])):
                return anc
        return None

    def holds(self, m, x) -> bool:
        """The matcher m holds at x on the virtual completed ABox: a blocked
        individual also has its blocker's children."""
        mask, exists, ors = m
        if self.labels.get(x, 0) & mask != mask:
            return False
        for role, sub in exists:
            if not any(self.holds(sub, y) for y in self.successors(x, role)) and not any(
                    self.holds(sub, y) for c, y in self.children.get(self.blocker_of(x), {}).items()
                    if self.table.parts[c][1] == role):
                return False
        return not ors or all(any(self.holds(n, x) for n in alts) for alts in ors)

    def match(self, concept: Concept, x) -> bool:
        """Syntactic match of an ELIU-bottom concept at x."""
        if concept not in self.matchers:
            self.matchers[concept] = self.table.matcher(concept, self.bottom)
        return self.holds(self.matchers[concept], x)


@dataclass
class Completion:
    """Result of a completion run: a finite slice of the extended ABox.

    The keys of ``labels`` are the ABox individuals, by name, and the
    anonymous individuals, numbered from 0; ``origin`` maps each number
    to the (parent, role, concept) step that made it.
    ``status`` is 'complete' when no rule is applicable (given blocking),
    'budget-exhausted' when depth or assertion caps cut the run short.
    ``structure`` is the run's own structure over the label masks: the
    matching and the model extraction read it, and nothing rebuilds it.
    """
    tbox: TBox
    abox: ABox
    c_t: Concept
    labels: dict            # individual -> frozenset of concepts
    origin: dict            # anonymous individual -> (parent, role, concept)
    edges: frozenset        # (role name, individual, individual)
    status: str
    bottom: bool
    trace: tuple = ()
    structure: _Structure = field(kw_only=True, repr=False, compare=False)

    def _check_named(self, individuals) -> None:
        for a in individuals:
            if a not in self.labels or a in self.origin:
                raise ValueError(f"{a!r} is not an ABox individual")

    def matches(self, concept: Concept, x) -> bool:
        """The has-a-syntactic-match relation for ELIU-bottom concepts,
        blocking-aware, on the virtual completed ABox; bottom derived
        anywhere matches bot at every individual."""
        if not is_eliu_bot(concept):
            raise ValueError("syntactic match is defined for ELIU-bottom concepts only")
        return self.structure.match(concept, x)

    def unrolled_interpretation(self, extra_depth: int) -> Interpretation:
        """Materialize the virtual completed ABox, unrolling blocked loops
        to tree depth (deepest real node + extra_depth) below every ABox
        individual, by ``_unroll``."""
        s = self.structure
        limit = max((len(s.path(y)) for y in self.origin), default=0) + extra_depth
        return self._unroll(dict.fromkeys(self.abox.individuals(), limit))

    def _unroll(self, depth: dict) -> Interpretation:
        """The virtual completed ABox on the ABox individuals a in ``depth``,
        each with its tree unrolled to depth[a], and the ABox edges between
        them.  ABox individuals keep their names; the unrolled elements are
        numbered 0, 1, 2, ... in creation order, breadth first."""
        s = self.structure
        cext, rext = {}, {}
        atoms = {}      # label mask -> its concept names

        def add_labels(elem, x):
            m = s.labels[x]
            if m not in atoms:
                atoms[m] = [c.name for i, c in enumerate(s.table.concepts)
                            if m >> i & 1 and isinstance(c, Atom)]
            for n in atoms[m]:
                cext.setdefault(n, set()).add(elem)

        for a in depth:
            add_labels(a, a)
        for n, a, b in self.abox.role_assertions:
            if a in depth and b in depth:
                rext.setdefault(n, set()).add((a, b))

        frontier = [(a, a, k) for a, k in depth.items() if k > 0]
        unrolled = 0
        while frontier:
            new_frontier = []
            for elem, x, left in frontier:
                blocker = s.blocker_of(x)
                rep = blocker if blocker is not None else x
                for c, child in s.children.get(rep, {}).items():
                    role = s.table.concepts[c].role
                    edge = (unrolled, elem) if role.inverted else (elem, unrolled)
                    rext.setdefault(role.name, set()).add(edge)
                    add_labels(unrolled, child)
                    if left > 1:
                        new_frontier.append((unrolled, child, left - 1))
                    unrolled += 1
            frontier = new_frontier
        named = frozenset(depth)
        return Interpretation(named | frozenset(range(unrolled)), named,
                              {k: frozenset(v) for k, v in cext.items()},
                              {k: frozenset(v) for k, v in rext.items()})

# ---------------------------------------------------------------------------
# The completion procedure
# ---------------------------------------------------------------------------

def complete(tbox: TBox, abox: ABox, max_depth: int = 20,
             max_assertions: Optional[int] = None, order_seed: Optional[int] = None,
             keep_trace: bool = False) -> Completion:
    """Exhaustive fair application of R1-R7 with ancestor-label blocking.

    Rules are applied in rounds until a round adds nothing.  A round
    visits only the individuals whose inputs may have changed.  Call an
    ABox individual together with its anonymous tree a group.  Applying
    the rules at x reads x's own group and, through premise matches, the
    groups at most ``concept_depth(C_T)`` ABox edges away: blocking, R4
    and R6 edges and ``path`` stay inside a group, and only ABox edges
    join groups.  So a round visits the individuals whose group lies that
    close to a group that gained an assertion in the round before; any
    other individual saw the same inputs when it was last visited and
    would add nothing.  A visit processes only the concepts of x's label
    that are not yet settled, then again the concepts the label gained,
    while it grows.  A concept settles once processing it again could
    only repeat a no-op: an And once decomposed, an Implies once its
    conclusion is in the label, an Exists over a non-functional role once
    its child exists, and an atom, negation, top or bottom at once.  A
    Forall or a functional Exists never settles, since later edges can
    give it new successors.  The visits follow the ABox individuals by
    name, then the anonymous ones by number; with an ``order_seed`` each
    round's visits are shuffled, and the Boolean outputs (bottom,
    entailed queries) are insensitive to that.  A Forall or R5 reaches
    the successors in the order their edges came, the ABox's sorted.

    The run stops at ``budget-exhausted`` when a new individual would lie
    deeper than ``max_depth`` or the assertions exceed ``max_assertions``,
    which defaults to 20 per ABox assertion and never less than 50,000.
    """
    try:    # numbered once per TBox value and kept on it, like a sort key
        table = tbox._chase
    except AttributeError:
        if not is_horn_alcfi(tbox):
            raise ValueError("completion requires a Horn-ALCFI TBox")
        table = _Table(tbox)
        object.__setattr__(tbox, "_chase", table)
    table = table.extended([Atom(n) for n in abox.concept_names()], abox.role_names())
    concepts, kind, parts, neg = table.concepts, table.kind, table.parts, table.neg
    c_t, bot = table.ids[table.c_t], table.ids[Bot()]
    radius = concept_depth(table.c_t)
    if max_assertions is None:
        max_assertions = max(50000, 20 * (len(abox.concept_assertions)
                                          + len(abox.role_assertions)))

    labels = {a: 0 for a in sorted(abox.individuals())}
    for name, a in abox.concept_assertions:
        labels[a] |= 1 << table.ids[Atom(name)]
    struct = _Structure(table, labels, sorted(abox.role_assertions))
    assertions = sum(m.bit_count() for m in labels.values()) + len(struct.edges)
    rng = random.Random(order_seed) if order_seed is not None else None
    trace = []
    bottom = False
    truncated = False
    group = {a: a for a in labels}   # individual -> the ABox individual of its group
    neighbours = {a: set() for a in labels}
    for _, a, b in abox.role_assertions:
        neighbours[a].add(b)
        neighbours[b].add(a)
    touched = set(labels)            # groups that gained an assertion; at first all
    settled = {}                     # individual -> the mask of concepts a visit skips
    unchecked = sorted(tbox.functional)  # the roles the Rf scan below has not yet checked

    def add_concept(x, c, rule, premise):
        nonlocal bottom, assertions
        label = labels[x]
        if label >> c & 1:
            return
        labels[x] = label = label | 1 << c
        assertions += 1
        touched.add(group[x])
        if keep_trace:
            trace.append((rule, premise, f"{print_concept(concepts[c])}({struct.name(x)})"))
        # complementary literals clash: the right-hand grammar admits
        # negated names, and A with not A is as inconsistent as bot
        if c == bot or (neg[c] >= 0 and label >> neg[c] & 1):
            bottom = struct.bottom = True
            if not label >> bot & 1:
                labels[x] = label | 1 << bot
                assertions += 1

    def add_edge(x, c, y, rule, premise):
        nonlocal assertions
        role = concepts[c].role
        e = (role.name, y, x) if role.inverted else (role.name, x, y)
        if not struct.add_edge(e):
            return
        assertions += 1
        touched.add(group[x])
        if keep_trace:
            trace.append((rule, premise,
                          f"{e[0]}({struct.name(e[1])},{struct.name(e[2])})"))

    def expandable(x):
        # R4/R6 are suppressed at blocked individuals and below them
        return all(struct.blocker_of(y) is None
                   for y in [x, *(parent for parent, _ in struct.path(x))])

    while touched and not bottom:
        region = frontier = touched
        for _ in range(radius):
            frontier = {b for a in frontier for b in neighbours[a]} - region
            region = region | frontier
        touched = set()
        inds = [x for x in labels if group[x] in region]
        if rng is not None:
            rng.shuffle(inds)
        for x in inds:
            add_concept(x, c_t, "R1", struct.name(x) if keep_trace else None)
        for x in inds:
            done = settled.get(x, 0)
            todo = labels[x] & ~done
            while todo and not bottom:
                seen = labels[x]
                while todo:     # the bits from low to high: in sort order
                    c = (todo & -todo).bit_length() - 1
                    todo ^= 1 << c
                    k = kind[c]
                    prem = f"{print_concept(concepts[c])}({struct.name(x)})" if keep_trace else None
                    if k is And:
                        add_concept(x, parts[c][0], "R2", prem)
                        add_concept(x, parts[c][1], "R2", prem)
                    elif k is Implies:
                        # the premise match follows blockers: a deep match may
                        # run through a blocked individual's virtual subtree
                        premise, right = parts[c]
                        if not labels[x] >> right & 1:
                            if not struct.holds(premise, x):
                                continue
                            add_concept(x, right, "R3", prem)
                    elif k is Forall:
                        filler, role = parts[c]
                        for y in struct.successors(x, role):
                            add_concept(y, filler, "R7", prem)
                        continue    # later edges give it new successors
                    elif k is Exists:
                        filler, role = parts[c]
                        existing = role in table.functional and struct.successors(x, role)
                        if existing:
                            for y in existing:  # R5
                                add_concept(y, filler, "R5", prem)
                        elif expandable(x):  # R4, or R6 for a functional role
                            y = struct.child(x, c, max_depth)
                            if y is None:
                                truncated = True
                                continue
                            group[y] = group[x]
                            rule = "R6" if role in table.functional else "R4"
                            add_edge(x, c, y, rule, prem)
                            add_concept(y, filler, rule, prem)
                        if role in table.functional or c not in struct.children.get(x, ()):
                            continue
                    done |= 1 << c
                todo = labels[x] & ~seen
            settled[x] = done
            if bottom:
                break
            if assertions > max_assertions:
                truncated = True
                touched = set()
                break
        if bottom:
            break
        # unique names: a functional role with two distinct successors
        # clashes.  Only the ABox's edges give two (R5 fires instead of R6
        # at a successor, R4 and R6 edges lead to a new child): scan once.
        for role in unchecked:
            for x in labels:
                if len(struct.successors(x, table.role_ids[role.name] + role.inverted)) >= 2:
                    add_concept(x, bot, "Rf", f"{role}({struct.name(x)}) has two successors")
        unchecked = ()

    status = "complete" if (bottom or not truncated) else "budget-exhausted"
    decoded = {m: frozenset(c for i, c in enumerate(concepts) if m >> i & 1)
               for m in set(labels.values())}
    origin = {y: (x, concepts[c].role, concepts[c].filler) for y, (x, c) in struct.origin.items()}
    return Completion(tbox, abox, table.c_t, {x: decoded[m] for x, m in labels.items()},
                      origin, frozenset(struct.edges), status, bottom, tuple(trace),
                      structure=struct)


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------

def horn_entails_eliq(tbox: TBox, abox: ABox, q, individual,
                      completion: Optional[Completion] = None) -> bool:
    """Certain answer of the ELIQ at the individual under a Horn TBox:
    the completion syntactically matches the query concept, or derived
    bottom.  Raises ValueError when the individual is not in the ABox, and
    InconclusiveError when the budget ran out without a positive answer."""
    concept = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    c = completion if completion is not None else complete(tbox, abox)
    c._check_named((individual,))
    if c.bottom:
        return True
    if c.matches(concept, individual):
        return True
    if c.status != "complete":
        raise InconclusiveError("completion budget exhausted before a fixpoint")
    return False


def _distances(sources, role_atoms, radius: int) -> dict:
    """Each node within ``radius`` steps of a source along the role atoms
    (name, a, b), read in both directions, with its distance from the
    nearest source."""
    dist = dict.fromkeys(sources, 0)
    for k in range(1, radius + 1):
        dist.update({b: k for _, x, y in role_atoms for a, b in ((x, y), (y, x))
                     if a in dist and b not in dist})
    return dist


def horn_certain_answer_cq(tbox: TBox, abox: ABox, q, answers: tuple,
                           completion: Optional[Completion] = None) -> bool:
    """Certain answer for a CQ/UCQ under a Horn TBox, evaluated on the
    canonical interpretation with the blocked frontier unrolled to the
    query's variable count n: to tree depth (deepest real node + 2n + 1).
    When every connected part of every disjunct holds an answer variable,
    and r is the largest distance of a variable from an answer variable,
    only the ball of radius r around the answers is built: each ABox
    individual at distance d <= r from them, along role assertions, with
    its tree unrolled to depth r - d.  A match cannot increase distances,
    so the ball, an induced substructure, holds every match.  Raises
    ValueError when an answer is not an ABox individual."""
    c = completion if completion is not None else complete(tbox, abox)
    c._check_named(answers)
    if c.bottom:
        return True
    if isinstance(q, (ELIQ, ELQ)):
        return horn_entails_eliq(tbox, abox, q, answers[0], completion=c)
    disjuncts = q.disjuncts if isinstance(q, UCQ) else (q,)
    nvars = max((len(d.variables()) for d in disjuncts), default=0)
    reach = [_distances(d.answer_vars, d.role_atoms, nvars) for d in disjuncts]
    if all(len(dist) == len(d.variables()) for dist, d in zip(reach, disjuncts)):
        r = max((k for dist in reach for k in dist.values()), default=0)
        ball = _distances(answers, c.abox.role_assertions, r)
        i = c._unroll({a: r - k for a, k in ball.items()})
    else:
        i = c.unrolled_interpretation(2 * nvars + 1)
    got = match_query(i, q, answers)
    if not got and c.status != "complete":
        raise InconclusiveError("completion budget exhausted before a fixpoint")
    return got
