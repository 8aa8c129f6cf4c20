"""Finite interpretations and the model-theoretic toolbox: concept
evaluation, model checking, query matching and the homomorphism solver.

One propagation kernel serves every mapping question here and in the csp
module: an ``Interpretation`` numbers its domain once (``numbering``,
built on first use and shared by every later call), ``hom_problem``
states a homomorphism question as candidate masks (ints) over those
positions and arcs, ``arc_consistency`` refines the masks to their
greatest arc-consistent subsets (AC-3, bitwise), and ``solve`` searches
while keeping arc consistency.  Homomorphisms, simulations and CQ matches
all run on it, and so does type elimination in the types module.

Domain elements are arbitrary hashable values; named individuals are the
subset of the domain interpreted under the standard name assumption (the
same name denotes the same element across structures).

Every operation is a pure function over immutable inputs; solvers keep
their working state per call, so concurrent use needs no coordination.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .syntax import (
    ABox, And, Atom, Bot, CQ, Concept, ELIQ, ELQ, Exists, Forall, Implies,
    Not, Or, PAnd, PAtom, PEQ, PExists, POr, Query, Role, TBox, Top, UCQ,
)


def _ekey(e):
    """Deterministic sort key for domain elements mixing strings, ints
    and tuples (the test oracles' unraveling words)."""
    if isinstance(e, tuple):
        return (1, tuple(str(x) for x in e))
    return (0, str(e))


# elements by position, position by element, masks by concept name and by role
Numbering = namedtuple("Numbering", "elements position concepts moves")


@dataclass(frozen=True)
class Interpretation:
    domain: frozenset
    named: frozenset
    concept_ext: Mapping[str, frozenset]
    role_ext: Mapping[str, frozenset]

    def __post_init__(self):
        if not self.named <= self.domain:
            raise ValueError("named individuals must belong to the domain")

    @staticmethod
    def of(domain, named=None, concept_ext=None, role_ext=None) -> "Interpretation":
        domain = frozenset(domain)
        named = frozenset(domain if named is None else named)
        cext = {k: frozenset(v) for k, v in (concept_ext or {}).items()}
        rext = {k: frozenset(tuple(p) for p in v) for k, v in (role_ext or {}).items()}
        return Interpretation(domain, named, cext, rext)

    @staticmethod
    def from_abox(abox: ABox) -> "Interpretation":
        """Read an ABox as a finite interpretation over its individuals."""
        cext = {}
        for name, a in abox.concept_assertions:
            cext.setdefault(name, set()).add(a)
        rext = {}
        for name, a, b in abox.role_assertions:
            rext.setdefault(name, set()).add((a, b))
        inds = frozenset(abox.individuals())
        return Interpretation(inds, inds,
                              {k: frozenset(v) for k, v in cext.items()},
                              {k: frozenset(v) for k, v in rext.items()})

    def concept(self, name: str) -> frozenset:
        return self.concept_ext.get(name, frozenset())

    @cached_property
    def numbering(self) -> Numbering:
        """The domain numbered in ``_ekey`` order, with each concept name's
        mask and, per role name and its inverse, each position's mask of
        role-successors: the target side of ``hom_problem``."""
        # ``_ekey`` order: elements other than tuples compare by str alone
        elements = (*sorted((d for d in self.domain if not isinstance(d, tuple)), key=str),
                    *sorted((d for d in self.domain if isinstance(d, tuple)), key=_ekey))
        position = {d: k for k, d in enumerate(elements)}
        concepts = {name: sum(1 << position[d] for d in ds & self.domain)
                    for name, ds in self.concept_ext.items()}
        moves = {}
        for name, pairs in self.role_ext.items():
            forward, backward = [0] * len(elements), [0] * len(elements)
            for a, b in pairs:
                i, j = position.get(a), position.get(b)
                if i is not None and j is not None:
                    forward[i] |= 1 << j
                    backward[j] |= 1 << i
            moves[Role(name)], moves[Role(name, True)] = forward, backward
        return Numbering(elements, position, concepts, moves)

    def role(self, role: Role) -> frozenset:
        pairs = self.role_ext.get(role.name, frozenset())
        if role.inverted:
            return frozenset((b, a) for a, b in pairs)
        return pairs


# ---------------------------------------------------------------------------
# Concept evaluation and model checking
# ---------------------------------------------------------------------------

def eval_concept(i: Interpretation, c: Concept) -> frozenset:
    """The standard extension C^I; absent names have empty extension."""
    if isinstance(c, Top):
        return i.domain
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Atom):
        return i.concept(c.name) & i.domain
    if isinstance(c, Not):
        return i.domain - eval_concept(i, c.sub)
    if isinstance(c, And):
        return eval_concept(i, c.left) & eval_concept(i, c.right)
    if isinstance(c, Or):
        return eval_concept(i, c.left) | eval_concept(i, c.right)
    if isinstance(c, Implies):
        return (i.domain - eval_concept(i, c.left)) | eval_concept(i, c.right)
    if isinstance(c, Exists):
        filler = eval_concept(i, c.filler)
        return frozenset(d for d, e in i.role(c.role) if e in filler and d in i.domain)
    if isinstance(c, Forall):
        filler = eval_concept(i, c.filler)
        bad = frozenset(d for d, e in i.role(c.role) if e not in filler)
        return i.domain - bad
    raise TypeError(f"not a concept: {c!r}")


def respects_functionality(i: Interpretation, role: Role) -> bool:
    seen = set()
    for d, _e in i.role(role):
        if d in seen:
            return False
        seen.add(d)
    return True


def is_model(i: Interpretation, t: TBox, abox: Optional[ABox] = None) -> bool:
    """True iff I satisfies every CI, functionality assertion and, when an
    ABox is given, every assertion (standard name assumption)."""
    for lhs, rhs in t.inclusions:
        if not eval_concept(i, lhs) <= eval_concept(i, rhs):
            return False
    for role in t.functional:
        if not respects_functionality(i, role):
            return False
    if abox is not None:
        if not frozenset(abox.individuals()) <= i.named:
            return False
        for name, a in abox.concept_assertions:
            if a not in i.concept(name):
                return False
        for name, a, b in abox.role_assertions:
            if (a, b) not in i.role_ext.get(name, frozenset()):
                return False
    return True


# ---------------------------------------------------------------------------
# Query matching
# ---------------------------------------------------------------------------

def _match_cq(i: Interpretation, q: CQ, binding: dict) -> bool:
    """A homomorphism from the query's variables into I that extends
    ``binding``; an answer outside the domain never matches."""
    cext, rext = {}, {}
    for name, v in q.concept_atoms:
        cext.setdefault(name, set()).add(v)
    for name, x, y in q.role_atoms:
        rext.setdefault(name, set()).add((x, y))
    cand, arcs = hom_problem(Interpretation.of(q.variables(), (), cext, rext), i)
    for v, d in binding.items():
        cand[v] &= 1 << i.numbering.position[d] if d in i.domain else 0
    return solve(cand, arcs) is not None


def _match_peq(i: Interpretation, f, binding: dict) -> bool:
    if isinstance(f, PAtom):
        if len(f.args) == 1:
            return binding[f.args[0]] in i.concept(f.pred)
        return (binding[f.args[0]], binding[f.args[1]]) in i.role_ext.get(f.pred, frozenset())
    if isinstance(f, PAnd):
        return _match_peq(i, f.left, binding) and _match_peq(i, f.right, binding)
    if isinstance(f, POr):
        return _match_peq(i, f.left, binding) or _match_peq(i, f.right, binding)
    if isinstance(f, PExists):
        # the quantifier shadows an outer binding of its variable only
        # within its body
        return any(_match_peq(i, f.body, {**binding, f.var: d})
                   for d in sorted(i.domain, key=_ekey))
    raise TypeError(f"not a PEQ formula: {f!r}")


def match_query(i: Interpretation, q: Query, answers: tuple) -> bool:
    """True iff some assignment sends the answer variables to ``answers``
    and satisfies the query matrix in I."""
    if isinstance(q, (ELIQ, ELQ)):
        if len(answers) != 1:
            raise ValueError("ELIQ/ELQ take exactly one answer")
        return answers[0] in eval_concept(i, q.concept)
    if isinstance(q, CQ):
        if len(answers) != len(q.answer_vars):
            raise ValueError("answer arity mismatch")
        binding = dict(zip(q.answer_vars, answers))
        return _match_cq(i, q, binding)
    if isinstance(q, UCQ):
        return any(match_query(i, d, answers) for d in q.disjuncts)
    if isinstance(q, PEQ):
        if len(answers) != len(q.answer_vars):
            raise ValueError("answer arity mismatch")
        binding = dict(zip(q.answer_vars, answers))
        # free answer variables that do not occur in the formula are
        # unconstrained, matching first-order semantics
        return _match_peq(i, q.formula, binding)
    raise TypeError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# The propagation kernel: homomorphisms and simulations
# ---------------------------------------------------------------------------

def hom_problem(s: Interpretation, g: Interpretation, preserve: Iterable = ()) -> tuple:
    """The homomorphism problem from S to G as ``(cand, arcs)`` over the
    positions of ``g.numbering``: each source element may take the target
    elements that carry its concept names, one of ``preserve`` only itself.
    An edge r(a, b) gives a the arc ``(b, rows)``, row e the mask of e's
    r-predecessors, and b the arc ``(a, rows)`` of the r-successors.  Its
    greatest arc-consistent refinement is the greatest i-simulation."""
    index = g.numbering
    cand = dict.fromkeys(s.domain, (1 << len(index.elements)) - 1)
    for name, ds in s.concept_ext.items():
        for d in ds & s.domain:
            cand[d] &= index.concepts.get(name, 0)
    for d in preserve:
        cand[d] &= 1 << index.position[d] if d in g.domain else 0
    none = [0] * len(index.elements)
    arcs = {d: [] for d in s.domain}
    for name, pairs in s.role_ext.items():
        forward, backward = (index.moves.get(r, none) for r in (Role(name), Role(name, True)))
        for a, b in pairs:
            arcs[a].append((b, backward))
            arcs[b].append((a, forward))
    return cand, arcs


def _watchers(arcs: dict) -> dict:
    """For each variable, the variables that have an arc into it."""
    watch = {}
    for x, out in arcs.items():
        for y, _rows in out:
            watch.setdefault(y, set()).add(x)
    return watch


def _propagate(cand: dict, arcs: dict, watch: dict, queue, supports: dict) -> dict:
    """AC-3 worklist: revise the variables in ``queue`` and, whenever a
    variable loses values, every variable watching it.  Revising x along
    ``(y, rows)`` keeps the union of ``rows[e]`` over y's candidates e,
    memoized in ``supports`` under ``(id(rows), mask)``.  Refines ``cand`` in place."""
    queue = list(queue)
    queued = set(queue)
    while queue:
        x = queue.pop()
        queued.discard(x)
        old = keep = cand[x]
        for y, rows in arcs[x]:
            key = (id(rows), cand[y])
            union = supports.get(key)
            if union is None:
                union, rest = 0, cand[y]
                while rest:
                    low = rest & -rest
                    union |= rows[low.bit_length() - 1]
                    rest ^= low
                supports[key] = union
            keep &= union
            if not keep:
                break
        if keep != old:
            cand[x] = keep
            for w in watch.get(x, ()):
                if w not in queued:
                    queued.add(w)
                    queue.append(w)
    return cand


def arc_consistency(cand: dict, arcs: dict) -> dict:
    """The greatest refinement of the candidate masks ``cand`` (variable ->
    int mask of value positions) in which each value d of a variable x has,
    for each arc ``(y, rows)`` in ``arcs[x]``, a candidate e of y with d in
    ``rows[e]`` (AC-3, Mackworth 1977).  The given dict is left unchanged."""
    return _propagate(dict(cand), arcs, _watchers(arcs), cand, {})


def _branches(cand: dict, arcs: dict, watch: dict, x, supports: dict):
    """The children of a search node: x fixed to each value, lowest first."""
    for k in range(cand[x].bit_length()):
        if cand[x] >> k & 1:
            yield _propagate({**cand, x: 1 << k}, arcs, watch, watch.get(x, ()), supports)


def solve(cand: dict, arcs: dict) -> Optional[dict]:
    """One value position per variable such that every arc holds, or None.

    Depth-first search that keeps arc consistency: it branches on the open
    variable with the fewest candidates, ties broken by ``_ekey``, and
    tries its values lowest position first.  Once every mask is a single
    bit, arc consistency makes the values a solution.
    """
    watch = _watchers(arcs)
    supports = {}
    rank = {x: k for k, x in enumerate(sorted(cand, key=_ekey))}
    stack = [iter([_propagate(dict(cand), arcs, watch, cand, supports)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        if not all(node.values()):
            continue
        open_vars = [x for x, values in node.items() if values & (values - 1)]
        if not open_vars:
            return {x: values.bit_length() - 1 for x, values in node.items()}
        x = min(open_vars, key=lambda v: (node[v].bit_count(), rank[v]))
        stack.append(_branches(node, arcs, watch, x, supports))
    return None


def _hom_ok(s: Interpretation, g: Interpretation, h: dict) -> bool:
    return (all(h[d] in g.concept(name) for name, ds in s.concept_ext.items() for d in ds)
            and all((h[a], h[b]) in g.role_ext.get(name, ())
                    for name, pairs in s.role_ext.items() for a, b in pairs))


def find_homomorphism(s: Interpretation, g: Interpretation,
                      preserve: Iterable = ()) -> Optional[dict]:
    """A map preserving concept memberships and role edges, fixing
    ``preserve`` pointwise; None when provably absent.

    ``solve`` on ``hom_problem``, read back through ``g.numbering``.
    """
    preserve = set(preserve)
    if not preserve <= s.named:
        raise ValueError("preserve must be a subset of the source's named individuals")
    found = solve(*hom_problem(s, g, preserve))
    h = None if found is None else {d: g.numbering.elements[k] for d, k in found.items()}
    if h is not None and not _hom_ok(s, g, h):
        raise RuntimeError("the homomorphism search returned a map that "
                           "is not a homomorphism")
    return h
