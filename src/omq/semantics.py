"""Finite interpretations and the model-theoretic toolbox: concept
evaluation, model checking, query matching, homomorphism and simulation
solvers, bounded unfoldings and ABox unravelings.

One propagation kernel serves every mapping question here and in the csp
module: ``element_labels`` and ``role_moves`` index an interpretation,
``hom_problem`` states a homomorphism question as candidate sets and
arcs, ``arc_consistency`` refines candidate sets to their greatest
arc-consistent subsets (AC-3), and ``_solve`` searches while keeping arc
consistency.  Homomorphisms, simulations and CQ matches all run on it.

Domain elements are arbitrary hashable values; named individuals are the
subset of the domain interpreted under the standard name assumption (the
same name denotes the same element across structures).  Unfoldings and
unraveling slices use word elements: the base element for words of length
zero and tuples ``(d0, r1, d1, ...)`` with Role objects at odd positions
for longer words.

Every operation is a pure function over immutable inputs; solvers keep
their working state per call, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .syntax import (
    ABox, And, Atom, Bot, CQ, Concept, ELIQ, ELQ, Exists, Forall, Implies,
    Not, Or, PAnd, PAtom, PEQ, PExists, POr, Query, Role, TBox, Top, UCQ,
)


def _ekey(e):
    """Deterministic sort key for mixed string/word domain elements."""
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

    def role(self, role: Role) -> frozenset:
        pairs = self.role_ext.get(role.name, frozenset())
        if role.inverted:
            return frozenset((b, a) for a, b in pairs)
        return pairs

    def to_abox(self, mangle=None) -> ABox:
        """Forget namedness and render as an ABox; ``mangle`` maps elements
        to identifier strings (defaults to str)."""
        mangle = mangle or _default_mangle
        cas = {(n, mangle(d)) for n, ds in self.concept_ext.items() for d in ds}
        ras = {(n, mangle(a), mangle(b)) for n, ps in self.role_ext.items() for a, b in ps}
        return ABox(frozenset(cas), frozenset(ras))


def _default_mangle(e) -> str:
    if isinstance(e, tuple):
        parts = []
        for x in e:
            if isinstance(x, Role):
                parts.append(x.name + ("_inv" if x.inverted else ""))
            else:
                parts.append(str(x))
        return ".".join(parts)
    return str(e)


def interpretation_to_text(i: Interpretation) -> str:
    """ABox text format extended with a ``named:`` header line."""
    mangle = _default_mangle
    named = " ".join(sorted(mangle(d) for d in i.named))
    body = i.to_abox().__str__()
    # elements outside every extension still need to exist: list them too
    extra = sorted(mangle(d) for d in i.domain)
    return f"named: {named}\ndomain: {' '.join(extra)}\n{body}"


def interpretation_from_text(text: str) -> Interpretation:
    named = []
    domain = []
    lines = []
    for raw in text.splitlines():
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        if stmt.startswith("named:"):
            named = stmt[len("named:"):].split()
        elif stmt.startswith("domain:"):
            domain = stmt[len("domain:"):].split()
        else:
            lines.append(stmt)
    from .syntax import parse_abox
    if lines:
        abox = parse_abox("\n".join(lines))
        base = Interpretation.from_abox(abox)
    else:
        base = Interpretation.of(frozenset(domain or named), frozenset())
    all_domain = frozenset(domain) | base.domain | frozenset(named)
    return Interpretation(all_domain, frozenset(named), base.concept_ext, base.role_ext)


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
    return _solve(cand, arcs) is not None


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
        for d in sorted(i.domain, key=_ekey):
            binding[f.var] = d
            if _match_peq(i, f.body, binding):
                del binding[f.var]
                return True
        binding.pop(f.var, None)
        return False
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


def element_labels(i: Interpretation) -> dict:
    """Each domain element's set of concept names."""
    labels = {d: set() for d in i.domain}
    for name, ds in i.concept_ext.items():
        for d in ds:
            if d in labels:
                labels[d].add(name)
    return labels


def role_moves(i: Interpretation, role: Role) -> dict:
    """Each element's set of role-successors; an inverse role walks the
    edges of its role name backwards."""
    moves = {}
    for a, b in i.role_ext.get(role.name, ()):
        if role.inverted:
            a, b = b, a
        moves.setdefault(a, set()).add(b)
    return moves


def _problem(s: Interpretation, g: Interpretation, inverse: bool) -> tuple:
    """Candidate sets and arcs for mapping S into G: each source element
    may take the target elements that carry its concept names, and each
    source edge is an arc from its start, and with ``inverse`` also one
    from its end."""
    cand = {d: g.domain.intersection(*map(g.concept, need))
            for d, need in element_labels(s).items()}
    arcs = {d: [] for d in s.domain}
    for name, pairs in s.role_ext.items():
        forward = role_moves(g, Role(name))
        backward = role_moves(g, Role(name, True)) if inverse else None
        for a, b in pairs:
            arcs[a].append((b, forward))
            if inverse:
                arcs[b].append((a, backward))
    return cand, arcs


def hom_problem(s: Interpretation, g: Interpretation, preserve: Iterable = ()) -> tuple:
    """The homomorphism problem from S to G as ``(cand, arcs)`` for
    ``arc_consistency``: every source edge gives an arc in both directions,
    and an element of ``preserve`` may only map to itself."""
    cand, arcs = _problem(s, g, inverse=True)
    for d in preserve:
        cand[d] = cand[d] & {d}
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


def _solve(cand: dict, arcs: dict) -> Optional[dict]:
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

    ``_solve`` on ``hom_problem``.
    """
    preserve = set(preserve)
    if not preserve <= s.named:
        raise ValueError("preserve must be a subset of the source's named individuals")
    h = _solve(*hom_problem(s, g, preserve))
    if h is not None and not _hom_ok(s, g, h):
        raise RuntimeError("the homomorphism search returned a map that "
                           "is not a homomorphism")
    return h


def find_simulation(s: Interpretation, g: Interpretation,
                    variant: str = "plain") -> Optional[frozenset]:
    """The greatest (i-)simulation containing (a, a) for every named
    individual of the source, or None when no simulation exists.

    The greatest simulation is the arc-consistent refinement of the
    concept-compatible relation, with one arc per source edge along role
    names (and along their inverses for the i-variant).
    """
    if variant not in ("plain", "i"):
        raise ValueError("variant must be 'plain' or 'i'")
    sim = arc_consistency(*_problem(s, g, inverse=variant == "i"))
    if not all(a in g.named and a in sim[a] for a in s.named):
        return None
    return frozenset((d, e) for d, es in sim.items() for e in es)


# ---------------------------------------------------------------------------
# Unfolding (bounded slices)
# ---------------------------------------------------------------------------

def _tail(word):
    return word[-1] if isinstance(word, tuple) else word


def unfold(i: Interpretation, depth: int, variant: str = "i") -> Interpretation:
    """The depth-bounded prefix of the (i-)unfolding.

    Words start at named individuals and continue through anonymous
    elements only; length-0 words are the named elements themselves, and
    edges among them are kept as in I.  The i-variant walks role names and
    inverses with the non-backtracking condition; the plain variant walks
    role names only.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if variant not in ("plain", "i"):
        raise ValueError("variant must be 'plain' or 'i'")
    roles = sorted({Role(n) for n in i.role_ext} |
                   ({Role(n, True) for n in i.role_ext} if variant == "i" else set()))
    moves = {role: role_moves(i, role) for role in roles}
    words = [d for d in sorted(i.named, key=_ekey)]
    frontier = list(words)
    edges = set()  # (word, Role, word), role as stored edge direction d -r-> e
    for step in range(depth):
        new_frontier = []
        for w in frontier:
            d = _tail(w)
            prev = None
            if isinstance(w, tuple) and len(w) >= 3:
                prev = (w[-3], w[-2])  # (element, role used to reach tail)
            for role in roles:
                for e in sorted(moves[role].get(d, ()), key=_ekey):
                    if e in i.named:
                        continue  # words pass through anonymous elements only
                    if variant == "i" and prev is not None:
                        prev_elem, prev_role = prev
                        if e == prev_elem and role == prev_role.inverse():
                            continue
                    w2 = w + (role, e) if isinstance(w, tuple) else (w, role, e)
                    edges.add((w, role, w2))
                    new_frontier.append(w2)
        words.extend(new_frontier)
        frontier = new_frontier
        if not frontier:
            break

    domain = frozenset(words)
    named = frozenset(i.named)
    cext = {}
    for name, ds in i.concept_ext.items():
        cext[name] = frozenset(w for w in domain if _tail(w) in ds)
    rext = {name: set() for name in i.role_ext}
    for name, pairs in i.role_ext.items():
        for a, b in pairs:
            if a in named and b in named:
                rext[name].add((a, b))
    for w, role, w2 in edges:
        if role.inverted:
            rext.setdefault(role.name, set()).add((w2, w))
        else:
            rext.setdefault(role.name, set()).add((w, w2))
    return Interpretation(domain, named, cext,
                          {k: frozenset(v) for k, v in rext.items()})


def unfold_tail_map(j: Interpretation) -> dict:
    """The tail map of an unfolding slice, a homomorphism onto the source."""
    return {w: _tail(w) for w in j.domain}


# ---------------------------------------------------------------------------
# ABox unraveling (bounded slices)
# ---------------------------------------------------------------------------

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

    def interpretation(self) -> Interpretation:
        cext = {}
        for n, w in self.concept_assertions:
            cext.setdefault(n, set()).add(w)
        rext = {}
        for n, w1, w2 in self.role_assertions:
            rext.setdefault(n, set()).add((w1, w2))
        named = frozenset(w for w in self.individuals if not isinstance(w, tuple))
        return Interpretation(self.individuals, named,
                              {k: frozenset(v) for k, v in cext.items()},
                              {k: frozenset(v) for k, v in rext.items()})

    def to_abox(self) -> ABox:
        m = _default_mangle
        return ABox(frozenset((n, m(w)) for n, w in self.concept_assertions),
                    frozenset((n, m(a), m(b)) for n, a, b in self.role_assertions))


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
# Bounded countermodel search (the "bruteforce" engine's core)
# ---------------------------------------------------------------------------

def enumerate_interpretations(domain, concepts, roles, fixed_edges=frozenset(),
                              named=None):
    """All interpretations over ``domain`` whose role extensions extend
    ``fixed_edges`` by nothing (edges fixed) and whose concept extensions
    range over all subsets.  Deterministic order."""
    import itertools
    domain = sorted(domain, key=_ekey)
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
    from .syntax import concept_names
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
