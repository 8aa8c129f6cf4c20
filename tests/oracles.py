"""Reference implementations that the tests compare the library against.

None of these is used by an engine: each is the plain, slow or bounded
form of a question that ``omq`` decides another way.
"""

import itertools
from dataclasses import dataclass

from omq.chase import Completion, normalize_horn
from omq.semantics import (
    Interpretation, _ekey, _watchers, arc_consistency, eval_concept, hom_problem, is_model,
    match_query,
)
from omq.syntax import (
    ABox, And, Atom, Bot, CQ, Concept, ELIQ, ELQ, Exists, Forall, Implies, Not, Or,
    PAnd, PAtom, PEQ, POr, Query, Role, TBox, Top, UCQ, concept_names, concept_sort_key,
    conjoin, is_horn_alcfi,
)
from omq.tableau import BudgetExceededError, satisfiable
from omq.types import MAX_TYPE_DECISIONS, compute_types, succ_relation


# ---------------------------------------------------------------------------
# Bounded countermodel search
# ---------------------------------------------------------------------------

def enumerate_interpretations(domain, concepts, roles, fixed_edges=frozenset(),
                              named=None):
    """All interpretations over ``domain`` whose role extensions extend
    ``fixed_edges`` by nothing (edges fixed) and whose concept extensions
    range over all subsets.  Deterministic order."""
    domain = sorted(domain, key=str)
    named = frozenset(domain if named is None else named)
    rext = {}
    for name, a, b in fixed_edges:
        rext.setdefault(name, set()).add((a, b))
    for name in roles:
        rext.setdefault(name, set())
    concepts = sorted(concepts)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(domain, k) for k in range(len(domain) + 1)))
    for assignment in itertools.product(subsets, repeat=len(concepts)):
        cext = {c: frozenset(s) for c, s in zip(concepts, assignment)}
        yield Interpretation(frozenset(domain), named, cext,
                             {k: frozenset(v) for k, v in rext.items()})


def bruteforce_certain_answer(t: TBox, abox: ABox, q: Query, answers: tuple) -> tuple:
    """Search for a countermodel among interpretations whose domain is
    Ind(A) and whose role edges are exactly those of A, with concept
    extensions ranging over all subsets.

    Returns (holds, complete): a found countermodel refutes soundly
    (holds=False is exact); holds=True only exhausts the searched class,
    so it comes flagged with complete=False unless the class is empty.
    """
    sig_concepts = sorted(t.concept_names() |
                          _query_concept_names(q) | abox.concept_names())
    base = Interpretation.from_abox(abox)
    for i in enumerate_interpretations(base.domain, sig_concepts, base.role_ext.keys(),
                                       fixed_edges=abox.role_assertions):
        # concept assertions of A must hold
        if not all(a in i.concept(n) for n, a in abox.concept_assertions):
            continue
        if not is_model(i, t):
            continue
        if not match_query(i, q, answers):
            return (False, True)
    return (True, False)


def _query_concept_names(q: Query) -> set[str]:
    if isinstance(q, (ELIQ, ELQ)):
        return concept_names(q.concept)
    if isinstance(q, CQ):
        return {n for n, _ in q.concept_atoms}
    if isinstance(q, UCQ):
        out = set()
        for d in q.disjuncts:
            out |= _query_concept_names(d)
        return out
    if isinstance(q, PEQ):
        out = set()

        def walk(f):
            if isinstance(f, PAtom):
                if len(f.args) == 1:
                    out.add(f.pred)
            elif isinstance(f, (PAnd, POr)):
                walk(f.left)
                walk(f.right)
            else:
                walk(f.body)

        walk(q.formula)
        return out
    raise TypeError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# ABox unraveling (bounded slices)
# ---------------------------------------------------------------------------

def _tail(word):
    return word[-1] if isinstance(word, tuple) else word


@dataclass(frozen=True)
class UnravelingSlice:
    """All unraveling individuals of length <= depth with the induced
    assertions.  Words are the base individual (length 0) or tuples
    ``(b0, r0, b1, ...)`` with Role objects at odd positions."""
    base: ABox
    depth: int
    individuals: frozenset
    concept_assertions: frozenset  # (name, word)
    role_assertions: frozenset     # (name, word, word)

    def tail(self, word):
        return _tail(word)


def unravel_abox(abox: ABox, depth: int) -> UnravelingSlice:
    """The depth-bounded slice of the unraveling: non-backtracking
    role-or-inverse walks through the data, concept labels copied to every
    word with the same tail, and one role assertion per word extension."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    roles = sorted({Role(n) for n in abox.role_names()} |
                   {Role(n, True) for n in abox.role_names()})
    succ = {}
    for name, a, b in abox.role_assertions:
        succ.setdefault((a, Role(name)), set()).add(b)
        succ.setdefault((b, Role(name, True)), set()).add(a)

    inds = sorted(abox.individuals())
    words = list(inds)
    role_assertions = set()
    frontier = list(inds)
    for _ in range(depth):
        new_frontier = []
        for w in frontier:
            b = _tail(w)
            prev = None
            if isinstance(w, tuple) and len(w) >= 3:
                prev = (w[-3], w[-2])
            for role in roles:
                for b2 in sorted(succ.get((b, role), ()), key=str):
                    if prev is not None and b2 == prev[0] and role == prev[1].inverse():
                        continue  # (b_{i-1}, r_{i-1}^-) != (b_{i+1}, r_i)
                    w2 = w + (role, b2) if isinstance(w, tuple) else (w, role, b2)
                    if role.inverted:
                        role_assertions.add((role.name, w2, w))
                    else:
                        role_assertions.add((role.name, w, w2))
                    new_frontier.append(w2)
        words.extend(new_frontier)
        frontier = new_frontier
        if not frontier:
            break

    by_tail = {}
    for w in words:
        by_tail.setdefault(_tail(w), []).append(w)
    concept_assertions = set()
    for name, b in abox.concept_assertions:
        for w in by_tail.get(b, ()):
            concept_assertions.add((name, w))
    return UnravelingSlice(abox, depth, frozenset(words),
                           frozenset(concept_assertions), frozenset(role_assertions))


# ---------------------------------------------------------------------------
# The reference propagation kernel: candidate sets revised value by value
# ---------------------------------------------------------------------------

def successor_sets(i: Interpretation) -> dict:
    """Per role name and its inverse, each element's frozenset of
    role-successors; an inverse role walks the edges backwards.  The
    reference's own index, apart from the library's ``numbering``."""
    index = {}
    for name, pairs in i.role_ext.items():
        forward, backward = {}, {}
        for a, b in pairs:
            forward.setdefault(a, set()).add(b)
            backward.setdefault(b, set()).add(a)
        for role, moves in ((Role(name), forward), (Role(name, True), backward)):
            index[role] = {d: frozenset(es) for d, es in moves.items()}
    return index


def decode(fixpoint: dict, target: Interpretation) -> dict:
    """A fixpoint of ``semantics.arc_consistency`` over the positions of
    ``target.numbering``, read back as frozensets of target elements."""
    elements = target.numbering.elements
    return {x: frozenset(elements[k] for k in range(mask.bit_length()) if mask >> k & 1)
            for x, mask in fixpoint.items()}


def reference_hom_problem(s: Interpretation, g: Interpretation, preserve=()) -> tuple:
    """``semantics.hom_problem`` over frozensets: each source element's
    candidate set, and per source edge an arc each way whose moves map a
    value to its role-successors (or predecessors) in the target."""
    cand = {d: g.domain.intersection(*(g.concept(n) for n, ds in s.concept_ext.items()
                                       if d in ds))
            for d in s.domain}
    for d in preserve:
        cand[d] = cand[d] & {d}
    arcs = {d: [] for d in s.domain}
    index = successor_sets(g)
    for name, pairs in s.role_ext.items():
        forward = index.get(Role(name), {})
        backward = index.get(Role(name, True), {})
        for a, b in pairs:
            arcs[a].append((b, forward))
            arcs[b].append((a, backward))
    return cand, arcs


def _reference_propagate(cand: dict, arcs: dict, watch: dict, queue) -> dict:
    """AC-3 that keeps a value d of x while, for each arc ``(y, moves)``,
    ``moves[d]`` meets y's candidates; replaces sets, never mutates them."""
    queue = list(queue)
    queued = set(queue)
    while queue:
        x = queue.pop()
        queued.discard(x)
        old = keep = cand[x]
        for y, moves in arcs[x]:
            ys = cand[y]
            keep = {d for d in keep if not moves.get(d, frozenset()).isdisjoint(ys)}
            if not keep:
                break
        if len(keep) < len(old):
            cand[x] = keep
            for w in watch.get(x, ()):
                if w not in queued:
                    queued.add(w)
                    queue.append(w)
    return cand


def reference_arc_consistency(cand: dict, arcs: dict) -> dict:
    return _reference_propagate(dict(cand), arcs, _watchers(arcs), cand)


def reference_solve(cand: dict, arcs: dict):
    """The search of ``semantics.solve`` over sets: fewest candidates
    first, ties and values in ``_ekey`` order; a map of values or None."""
    watch = _watchers(arcs)
    stack = [iter([_reference_propagate(dict(cand), arcs, watch, cand)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        if not all(node.values()):
            continue
        open_vars = [x for x, values in node.items() if len(values) > 1]
        if not open_vars:
            return {x: next(iter(values)) for x, values in node.items()}
        x = min(open_vars, key=lambda v: (len(node[v]), _ekey(v)))
        stack.append(_reference_branches(node, arcs, watch, x))
    return None


def _reference_branches(cand: dict, arcs: dict, watch: dict, x):
    for d in sorted(cand[x], key=_ekey):
        trial = dict(cand)
        trial[x] = {d}
        yield _reference_propagate(trial, arcs, watch, watch.get(x, ()))


# ---------------------------------------------------------------------------
# Types, ABox isomorphism and tree-shaped CQs
# ---------------------------------------------------------------------------

def _negate(c: Concept) -> Concept:
    return c.sub if isinstance(c, Not) else Not(c)


def compatible(t, role: Role, t2) -> bool:
    """Necessary and (without functionality) sufficient condition for an
    edge (d, e) in role^I between realizations of t and t2, checked by
    scanning both types."""
    for c in t:
        if isinstance(c, Forall) and c.role == role:
            if c.filler not in t2:
                return False
        elif isinstance(c, Not) and isinstance(c.sub, Exists) and c.sub.role == role:
            if _negate(c.sub.filler) not in t2:
                return False
    inv = role.inverse()
    for c in t2:
        if isinstance(c, Forall) and c.role == inv:
            if c.filler not in t:
                return False
        elif isinstance(c, Not) and isinstance(c.sub, Exists) and c.sub.role == inv:
            if _negate(c.sub.filler) not in t:
                return False
    return True


def _conjunction(t) -> Concept:
    return conjoin(sorted(t, key=concept_sort_key))


def reference_candidates(models: TBox, cl) -> list:
    """All Boolean-coherent sign assignments over the closure that satisfy
    the TBox inclusions type-locally, one assignment at a time, as
    frozensets of true members in the canonical order of their sorted
    members."""
    decisions = [c for c in cl if isinstance(c, (Atom, Exists, Forall))]
    if len(decisions) > MAX_TYPE_DECISIONS:
        raise BudgetExceededError(
            f"type space too large: {len(decisions)} independent decisions")

    def val(c, sign) -> bool:
        if isinstance(c, Top):
            return True
        if isinstance(c, Bot):
            return False
        if isinstance(c, Not):
            return not val(c.sub, sign)
        if isinstance(c, And):
            return val(c.left, sign) and val(c.right, sign)
        if isinstance(c, Or):
            return val(c.left, sign) or val(c.right, sign)
        if isinstance(c, Implies):
            return (not val(c.left, sign)) or val(c.right, sign)
        return sign[c]

    out = []
    n = len(decisions)
    for bits in range(1 << n):
        sign = {decisions[i]: bool(bits >> i & 1) for i in range(n)}
        if all(not val(lhs, sign) or val(rhs, sign) for lhs, rhs in models.inclusions):
            # distinct sign assignments differ on a decision, itself a member
            out.append(frozenset(c for c in cl if val(c, sign)))
    return sorted(out, key=lambda t: sorted(map(concept_sort_key, t)))


def reference_types(cl, models: TBox) -> tuple:
    """The types over the closure ``cl`` realized in models of ``models``,
    in canonical order: with functional roles one tableau call per
    candidate, else type elimination that rescans the survivors pair by
    pair until every existential and negated universal of each has a
    compatible witness."""
    candidates = reference_candidates(models, cl)
    if models.functional:
        return tuple(t for t in candidates if satisfiable(_conjunction(t), models))
    obligations = {}
    for t in candidates:
        obligations[t] = [(c.role, c.filler) for c in t if isinstance(c, Exists)] + [
            (c.sub.role, _negate(c.sub.filler)) for c in t
            if isinstance(c, Not) and isinstance(c.sub, Forall)]
    survivors = list(candidates)
    changed = True
    while changed:
        alive = set(survivors)
        keep = [t for t in survivors
                if all(any(need in t2 and compatible(t, role, t2) for t2 in alive)
                       for role, need in obligations[t])]
        changed = len(keep) < len(survivors)
        survivors = keep
    return tuple(survivors)


def reference_successors(types, roles, tbox: TBox) -> frozenset:
    """Every triple (t, r, t') with r in ``roles`` and t -> t' compatible
    along r; with functional roles each triple, inverse roles included,
    is also checked on its own by the tableau."""
    return frozenset(
        (t, role, t2) for t in types for t2 in types for role in roles
        if compatible(t, role, t2) and (not tbox.functional or satisfiable(
            And(_conjunction(t), Exists(role, _conjunction(t2))), tbox)))


def structure_triples(types, structure: Interpretation) -> frozenset:
    """The triples (t, r, t') of a type structure whose point at position
    i of its ``numbering`` stands for ``types[i]``, r ranging over its
    role names and their inverses."""
    point = dict(zip(structure.numbering.elements, types))
    return frozenset((point[d], role, point[e])
                     for role, moves in successor_sets(structure).items()
                     for d, es in moves.items() for e in es)


def realized_type(cl, interpretation, element) -> frozenset:
    """The set of closure members true at the element: the semantic
    counterpart of ``types.compute_types``."""
    return frozenset(c for c in cl if element in eval_concept(interpretation, c))


def type_structure_answers(tbox: TBox, q, abox: ABox) -> frozenset:
    """The answers of the monadic rewriting, read off arc consistency of
    the ABox against the type structure of ``succ_relation``.

    The ABox keeps only the structure's concept and role names, and all
    its individuals.  Every individual answers when some candidate set
    empties or when a functional role, read on the whole ABox, has two
    successors; otherwise an individual answers when all its candidate
    types hold the query."""
    concept = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    types = compute_types(tbox, concept)
    structure = succ_relation(tbox, concept, types)
    inds = abox.individuals()
    data = Interpretation.of(
        inds, inds,
        {n: {a for m, a in abox.concept_assertions if m == n} for n in structure.concept_ext},
        {n: {(a, b) for m, a, b in abox.role_assertions if m == n}
         for n in structure.role_ext})
    cand = decode(arc_consistency(*hom_problem(data, structure)), structure)
    whole = successor_sets(Interpretation.from_abox(abox))
    if not all(cand.values()) or any(len(ys) > 1 for role in tbox.functional
                                     for ys in whole.get(role, {}).values()):
        return frozenset(inds)
    holds = {d for d, t in zip(structure.numbering.elements, types) if concept in t}
    return frozenset(a for a in inds if cand[a] <= holds)


def abox_isomorphic(a: ABox, b: ABox) -> bool:
    """Exact isomorphism of ABoxes (bijective, assertion-preserving both
    ways); backtracking over degree-compatible bijections."""
    ia, ib = sorted(a.individuals()), sorted(b.individuals())
    if len(ia) != len(ib):
        return False
    if len(a.concept_assertions) != len(b.concept_assertions):
        return False
    if len(a.role_assertions) != len(b.role_assertions):
        return False

    def signature(abox, x):
        labels = frozenset(n for n, y in abox.concept_assertions if y == x)
        out = sorted(n for n, y, _ in abox.role_assertions if y == x)
        inc = sorted(n for n, _, y in abox.role_assertions if y == x)
        return (labels, tuple(out), tuple(inc))

    sig_a = {x: signature(a, x) for x in ia}
    sig_b = {x: signature(b, x) for x in ib}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False
    candidates = {x: [y for y in ib if sig_b[y] == sig_a[x]] for x in ia}

    def check(mapping):
        for n, x in a.concept_assertions:
            if (n, mapping[x]) not in b.concept_assertions:
                return False
        for n, x, y in a.role_assertions:
            if (n, mapping[x], mapping[y]) not in b.role_assertions:
                return False
        return True

    def search(k, mapping, taken):
        if k == len(ia):
            return check(mapping)
        x = ia[k]
        for y in candidates[x]:
            if y in taken:
                continue
            mapping[x] = y
            taken.add(y)
            if search(k + 1, mapping, taken):
                return True
            taken.discard(y)
            del mapping[x]
        return False

    return search(0, {}, set())


def cq_to_eli_concept(q: CQ) -> Concept:
    """Inverse of eliq_to_cq for tree-shaped single-answer-variable CQs.

    Raises ValueError when the CQ is not tree-shaped from its answer
    variable (cycles, disconnected parts, or multiple answer variables).
    """
    if len(q.answer_vars) != 1:
        raise ValueError("need exactly one answer variable")
    root = q.answer_vars[0]
    adj = {}
    for name, x, y in q.role_atoms:
        adj.setdefault(x, []).append((Role(name), y, (name, x, y)))
        adj.setdefault(y, []).append((Role(name, True), x, (name, x, y)))
    labels = {}
    for name, v in q.concept_atoms:
        labels.setdefault(v, []).append(name)
    used_edges = set()
    visited = set()

    def build(var) -> Concept:
        visited.add(var)
        parts = [Atom(n) for n in sorted(labels.get(var, []))]
        for role, other, edge in sorted(adj.get(var, []), key=lambda t: (t[0], t[1])):
            if edge in used_edges:
                continue
            if other in visited:
                raise ValueError("CQ is not tree-shaped (cycle)")
            used_edges.add(edge)
            parts.append(Exists(role, build(other)))
        return conjoin(parts)

    c = build(root)
    if visited != q.variables():
        raise ValueError("CQ is not connected to the answer variable")
    return c


# ---------------------------------------------------------------------------
# The chase by full rounds
# ---------------------------------------------------------------------------

class _Structure:
    """The chase's structure over concept-labelled individuals: labels
    are sets of concepts, and ``match`` recurses over the concept.

    ``origin`` maps each anonymous individual y to (parent, role,
    concept); two indexes are kept beside it: ``children`` maps x to
    {(role, concept): y} and ``adj`` maps x to {role: set of successors}.

    Blocking compares full concept labels with a strict ancestor.  Without
    functional roles a node's subtree is determined by its label alone;
    with functionality it also depends on the incoming edge, so blocking
    additionally requires equal incoming steps and equal parent labels
    (the pairwise condition), mirroring the tableau's blocking choice.
    """

    def __init__(self, labels, edges, pair_blocking=False):
        self.labels = labels   # individual -> set/frozenset of concepts
        self.origin = {}       # anonymous individual -> (parent, role, concept)
        self.children = {}     # x -> {(role, concept): y}
        self.edges = set()     # of (role name, x, y)
        self.adj = {}          # x -> {role: set of role-successors of x}
        self.bottom = False
        self.pair_blocking = pair_blocking
        for e in edges:
            self.add_edge(e)

    def add_edge(self, e) -> bool:
        """Adds the edge (role name, x, y); False if it was there."""
        if e in self.edges:
            return False
        n, a, b = e
        self.edges.add(e)
        self.adj.setdefault(a, {}).setdefault(Role(n), set()).add(b)
        self.adj.setdefault(b, {}).setdefault(Role(n, True), set()).add(a)
        return True

    def child(self, x, role: Role, concept: Concept, max_depth: int):
        """x's (role, concept)-child, numbered on first use; None when a
        new child would lie deeper than max_depth."""
        kids = self.children.setdefault(x, {})
        y = kids.get((role, concept))
        if y is None and len(self.path(x)) < max_depth:
            y = kids[(role, concept)] = len(self.origin)
            self.origin[y] = (x, role, concept)
            self.labels[y] = set()
        return y

    def successors(self, x, role: Role):
        return self.adj.get(x, {}).get(role, ())

    def path(self, x) -> list:
        """The origin steps (parent, role, concept) from x up to its root."""
        steps = []
        while x in self.origin:
            steps.append(self.origin[x])
            x = steps[-1][0]
        return steps

    def blocker_of(self, x):
        """The nearest strict ancestor qualifying as a blocker, if any."""
        step = up = self.origin.get(x)
        while up is not None:
            anc = up[0]
            up = self.origin.get(anc)
            if self.labels[anc] == self.labels[x] and (not self.pair_blocking or (
                    up is not None and up[1:] == step[1:]
                    and self.labels[up[0]] == self.labels[step[0]])):
                return anc
        return None

    def match(self, concept: Concept, x) -> bool:
        """Syntactic match on the virtual completed ABox: a blocked
        individual also has its blocker's children."""
        if isinstance(concept, Top):
            return True
        if isinstance(concept, Bot):
            return self.bottom
        if isinstance(concept, Atom):
            return concept in self.labels.get(x, frozenset())
        if isinstance(concept, And):
            return self.match(concept.left, x) and self.match(concept.right, x)
        if isinstance(concept, Or):
            return self.match(concept.left, x) or self.match(concept.right, x)
        if isinstance(concept, Exists):
            ys = list(self.successors(x, concept.role))
            blocker = self.blocker_of(x)
            if blocker is not None:
                ys += [y for (role, _), y in self.children.get(blocker, {}).items()
                       if role == concept.role]
            return any(self.match(concept.filler, y) for y in ys)
        raise ValueError(f"not an ELIU-bottom constructor: {type(concept).__name__}")


def complete_by_rounds(tbox: TBox, abox: ABox, max_depth: int = 20,
                       max_assertions: int = 50000) -> Completion:
    """``chase.complete`` as plain fair rounds, without a trace, over
    concept-set labels (``_Structure`` above) instead of a numbered TBox:
    every round applies every rule at every individual, in the same order,
    until a round adds nothing.  Same rules, caps, blocking and result
    type; it only skips no individual."""
    if not is_horn_alcfi(tbox):
        raise ValueError("completion requires a Horn-ALCFI TBox")
    c_t = normalize_horn(tbox)
    functional = tbox.functional

    labels = {a: set() for a in sorted(abox.individuals())}
    for name, a in abox.concept_assertions:
        labels[a].add(Atom(name))
    struct = _Structure(labels, abox.role_assertions, pair_blocking=bool(functional))
    assertions = sum(len(v) for v in labels.values()) + len(struct.edges)
    bottom = False
    truncated = False

    def add_concept(x, c):
        nonlocal bottom, assertions
        label = labels[x]
        if c in label:
            return False
        label.add(c)
        assertions += 1
        if isinstance(c, Bot) or \
                (isinstance(c, Not) and isinstance(c.sub, Atom) and c.sub in label) or \
                (isinstance(c, Atom) and Not(c) in label):
            bottom = struct.bottom = True
            if Bot() not in label:
                label.add(Bot())
                assertions += 1
        return True

    def add_edge(x, role, y):
        nonlocal assertions
        e = (role.name, y, x) if role.inverted else (role.name, x, y)
        if not struct.add_edge(e):
            return False
        assertions += 1
        return True

    def expandable(x):
        return all(struct.blocker_of(y) is None
                   for y in [x, *(parent for parent, _, _ in struct.path(x))])

    changed = True
    while changed and not bottom:
        changed = False
        inds = list(labels)
        for x in inds:
            changed |= add_concept(x, c_t)
        for x in inds:
            for c in sorted(labels[x], key=concept_sort_key):
                if isinstance(c, And):
                    changed |= add_concept(x, c.left)
                    changed |= add_concept(x, c.right)
                elif isinstance(c, Implies):
                    if struct.match(c.left, x):
                        changed |= add_concept(x, c.right)
                elif isinstance(c, Forall):
                    for y in struct.successors(x, c.role):
                        changed |= add_concept(y, c.filler)
                elif isinstance(c, Exists):
                    existing = c.role in functional and struct.successors(x, c.role)
                    if existing:
                        for y in existing:
                            changed |= add_concept(y, c.filler)
                    elif expandable(x):
                        y = struct.child(x, c.role, c.filler, max_depth)
                        if y is None:
                            truncated = True
                            continue
                        changed |= add_edge(x, c.role, y)
                        changed |= add_concept(y, c.filler)
            if bottom:
                break
            if assertions > max_assertions:
                truncated = True
                changed = False
                break
        if bottom:
            break
        for role in sorted(functional):
            for x in labels:
                if len(struct.successors(x, role)) >= 2:
                    changed |= add_concept(x, Bot())

    status = "complete" if (bottom or not truncated) else "budget-exhausted"
    struct.labels = {k: frozenset(v) for k, v in labels.items()}
    return Completion(tbox, abox, c_t, struct.labels, struct.origin,
                      frozenset(struct.edges), status, bottom, structure=struct)
