"""Finite interpretations and the model-theoretic toolbox: concept
evaluation, model checking, query matching and the homomorphism solver.

One propagation kernel serves every mapping question here and in the csp
module: an ``Interpretation`` indexes itself once (``labels`` and
``successors``, built on first use and shared by every later call),
``hom_problem`` states a homomorphism question as candidate sets and
arcs, ``arc_consistency`` refines candidate sets to their greatest
arc-consistent subsets (AC-3), and ``solve`` searches while keeping arc
consistency.  Homomorphisms, simulations and CQ matches all run on it,
and so does type elimination in the types module.

Domain elements are arbitrary hashable values; named individuals are the
subset of the domain interpreted under the standard name assumption (the
same name denotes the same element across structures).

Every operation is a pure function over immutable inputs; solvers keep
their working state per call, so concurrent use needs no coordination.
"""

from __future__ import annotations

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
    def labels(self) -> dict:
        """Each domain element's set of concept names.  Like ``successors``,
        built on first use and shared by every caller, who only reads it."""
        labels = {d: set() for d in self.domain}
        for name, ds in self.concept_ext.items():
            for d in ds & self.domain:
                labels[d].add(name)
        return {d: frozenset(names) for d, names in labels.items()}

    @cached_property
    def successors(self) -> dict:
        """Per role name and its inverse, each element's set of
        role-successors; an inverse role walks the edges backwards."""
        index = {}
        for name, pairs in self.role_ext.items():
            forward, backward = {}, {}
            for a, b in pairs:
                forward.setdefault(a, set()).add(b)
                backward.setdefault(b, set()).add(a)
            for role, moves in ((Role(name), forward), (Role(name, True), backward)):
                index[role] = {d: frozenset(es) for d, es in moves.items()}
        return index

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
        cand[v] = cand[v] & {d}
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

_NO_MOVES = frozenset()


def hom_problem(s: Interpretation, g: Interpretation, preserve: Iterable = ()) -> tuple:
    """The homomorphism problem from S to G as ``(cand, arcs)`` for
    ``arc_consistency``: each source element may take the target elements
    that carry its concept names, an element of ``preserve`` only itself,
    and every source edge gives an arc in both directions.  Its greatest
    arc-consistent refinement is the greatest i-simulation."""
    cand = {d: g.domain.intersection(*map(g.concept, need))
            for d, need in s.labels.items()}
    for d in preserve:
        cand[d] = cand[d] & {d}
    arcs = {d: [] for d in s.domain}
    for name, pairs in s.role_ext.items():
        forward = g.successors.get(Role(name), {})
        backward = g.successors.get(Role(name, True), {})
        for a, b in pairs:
            arcs[a].append((b, forward))
            arcs[b].append((a, backward))
    return cand, arcs


def _watchers(arcs: dict) -> dict:
    """For each variable, the variables that have an arc into it."""
    watch = {}
    for x, out in arcs.items():
        for y, _moves in out:
            watch.setdefault(y, set()).add(x)
    return watch


def _propagate(cand: dict, arcs: dict, watch: dict, queue) -> dict:
    """AC-3 worklist: revise the variables in ``queue`` and, whenever a
    variable loses values, every variable watching it.  Refines ``cand``
    in place by replacing its sets, never mutating them, so that a shallow
    copy of ``cand`` is a snapshot."""
    queue = list(queue)
    queued = set(queue)
    while queue:
        x = queue.pop()
        queued.discard(x)
        old = keep = cand[x]
        for y, moves in arcs[x]:
            ys = cand[y]
            keep = {d for d in keep if not moves.get(d, _NO_MOVES).isdisjoint(ys)}
            if not keep:
                break
        if len(keep) < len(old):
            cand[x] = keep
            for w in watch.get(x, ()):
                if w not in queued:
                    queued.add(w)
                    queue.append(w)
    return cand


def arc_consistency(cand: dict, arcs: dict) -> dict:
    """The greatest refinement of the candidate sets ``cand`` (variable ->
    set of values) in which each value d of a variable x has, for each arc
    ``(y, moves)`` in ``arcs[x]``, a candidate of y in ``moves[d]``
    (AC-3, Mackworth 1977).  The given sets are left unchanged."""
    return _propagate(dict(cand), arcs, _watchers(arcs), cand)


def _branches(cand: dict, arcs: dict, watch: dict, x):
    """The children of a search node: x fixed to each of its values."""
    for d in sorted(cand[x], key=_ekey):
        trial = dict(cand)
        trial[x] = {d}
        yield _propagate(trial, arcs, watch, watch.get(x, ()))


def solve(cand: dict, arcs: dict) -> Optional[dict]:
    """One candidate per variable such that every arc holds, or None.

    Depth-first search that keeps arc consistency: it branches on the open
    variable with the fewest candidates, ties broken by ``_ekey``, and
    tries its values in ``_ekey`` order.  Once every set is a singleton,
    arc consistency makes the values a solution.
    """
    watch = _watchers(arcs)
    stack = [iter([_propagate(dict(cand), arcs, watch, cand)])]
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
        stack.append(_branches(node, arcs, watch, x))
    return None


def _hom_ok(s: Interpretation, g: Interpretation, h: dict) -> bool:
    for name, ds in s.concept_ext.items():
        target = g.concept(name)
        for d in ds:
            if h[d] not in target:
                return False
    for name, pairs in s.role_ext.items():
        target = g.role_ext.get(name, frozenset())
        for a, b in pairs:
            if (h[a], h[b]) not in target:
                return False
    return True


def find_homomorphism(s: Interpretation, g: Interpretation,
                      preserve: Iterable = ()) -> Optional[dict]:
    """A map preserving concept memberships and role edges, fixing
    ``preserve`` pointwise; None when provably absent.

    ``solve`` on ``hom_problem``.
    """
    preserve = set(preserve)
    if not preserve <= s.named:
        raise ValueError("preserve must be a subset of the source's named individuals")
    h = solve(*hom_problem(s, g, preserve))
    if h is not None and not _hom_ok(s, g, h):
        raise RuntimeError("the homomorphism search returned a map that "
                           "is not a homomorphism")
    return h
