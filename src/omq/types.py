"""The type machinery: negation closure, the set of TBox/query types,
the type structure over them, and certain answers to tree queries by the
tableau.

A type is the set of closure members true at some element of some model
of the TBox.  The closure is a tuple in ``concept_sort_key`` order, and a
type is an int mask over its positions; ``compute_types`` and
``types_omitting`` decode the masks to frozensets of concepts.  Candidate
types are found bit-parallel, from one truth table per closure member
over a block of sign assignments to the decisions.

One compatibility index serves type elimination and the type structure.
Along a role r, a type requires the fillers of its ``all r.C`` members
and the negated fillers of its ``not some r.C`` members; along a
functional role it also requires what it is obliged to have some
neighbour hold (``some r.C``, ``not C`` for ``not all r.C``), since its
one neighbour must witness all of it.  t -> t' is compatible along r
when t' holds every r-requirement of t and t every inverse-r requirement
of t'.  The index keeps per closure position the bit set of types holding
its member and, per role, each type's bit set of compatible successors.
Type elimination (Pratt 1979) is the greatest fixpoint of arc consistency
on these bit sets, and compatibility is the successor relation.  Both are
exact for ALCFI by its tree-model property: from the surviving types a
tree model is unravelled in which a node gets a fresh r-child only when
its parent is not already its r-neighbour.
"""

from __future__ import annotations

from .semantics import Interpretation, arc_consistency
from .syntax import (
    ABox, And, Atom, Concept, ELIQ, ELQ, Exists, Forall, Implies, Not, Or,
    Role, TBox, Top, concept_sort_key, subconcepts,
)
from .tableau import BudgetExceededError, DEFAULT_NODE_BUDGET, abox_consistent

MAX_TYPE_DECISIONS = 20
BLOCK_DECISIONS = 12        # truth tables of 2^12 bits: 512 bytes per int


def _negate(c: Concept) -> Concept:
    return c.sub if isinstance(c, Not) else Not(c)


def closure(tbox: TBox, *concepts: Concept) -> tuple:
    """All subconcepts of the TBox and of the ``concepts``, closed under
    single negation, in ``concept_sort_key`` order.  Idempotent: closing
    the closure adds nothing."""
    subs = {s for c in concepts for s in subconcepts(c)}
    for lhs, rhs in tbox.inclusions:
        subs |= set(subconcepts(lhs)) | set(subconcepts(rhs))
    full = subs | {_negate(c) for c in subs}
    return tuple(sorted(full, key=concept_sort_key))


def closure_roles(cl) -> tuple:
    """Role names occurring in the closure, as roles plus their inverses."""
    names = sorted({c.role.name for c in cl if isinstance(c, (Exists, Forall))})
    return tuple(Role(n, inverted) for n in names for inverted in (False, True))


def omitting_tbox(tbox: TBox, c0: Concept) -> TBox:
    """The TBox extended so that its models leave ``c0`` empty."""
    return TBox(tbox.inclusions | {(Top(), Not(c0))}, tbox.functional)


def _bits(mask: int) -> list:
    """The positions of the set bits of ``mask``, ascending."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


# ---------------------------------------------------------------------------
# Candidate generation: Boolean-coherent sign assignments, bit-parallel
# ---------------------------------------------------------------------------

def _candidates(models: TBox, cl) -> list:
    """The masks of all Boolean-coherent sign assignments over the closure
    that satisfy the inclusions of ``models`` type-locally, in canonical
    order: at the lowest position where two differ, the one holding that
    member first.  A member's truth table over a block of assignments has
    bit k set when assignment k makes it true; the first ``BLOCK_DECISIONS``
    decisions vary inside a block, the others are fixed per block."""
    # the closure holds the unnegated form of each member, so these are
    # its independent decisions
    decisions = [c for c in cl if isinstance(c, (Atom, Exists, Forall))]
    if len(decisions) > MAX_TYPE_DECISIONS:
        raise BudgetExceededError(
            f"type space too large: {len(decisions)} independent decisions")
    inner = min(len(decisions), BLOCK_DECISIONS)
    full = (1 << (1 << inner)) - 1
    # bit k of the table of decision j < inner is bit j of k
    tables = [full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
              for j in range(inner)]

    def table(c, value):
        """The truth table of ``c`` over the block, memoized in ``value``."""
        if c not in value:
            if isinstance(c, Not):
                value[c] = full ^ table(c.sub, value)
            elif isinstance(c, And):
                value[c] = table(c.left, value) & table(c.right, value)
            elif isinstance(c, Or):
                value[c] = table(c.left, value) | table(c.right, value)
            elif isinstance(c, Implies):
                value[c] = (full ^ table(c.left, value)) | table(c.right, value)
            else:
                value[c] = full if isinstance(c, Top) else 0
        return value[c]

    found = []
    for block in range(1 << (len(decisions) - inner)):
        fixed = [-(block >> j & 1) & full for j in range(len(decisions) - inner)]
        value = dict(zip(decisions, tables + fixed))
        columns = [table(c, value) for c in cl]
        ok = full
        for lhs, rhs in models.inclusions:
            ok &= (full ^ table(lhs, value)) | table(rhs, value)
        while ok:
            low = ok & -ok
            ok ^= low
            found.append(sum(1 << p for p, column in enumerate(columns) if column & low))
    # read from position 0 on, the holder of the first differing member is larger
    return sorted(found, key=lambda t: format(t, f"0{len(cl)}b")[::-1], reverse=True)


# ---------------------------------------------------------------------------
# The compatibility index
# ---------------------------------------------------------------------------

def _links(cl, functional) -> tuple:
    """``(requirements, obligations)`` of the closure as ``(role, filler
    position, member position)`` triples: what every neighbour along the
    role must hold (``all r.C``, and ``not C`` for ``not some r.C``), and
    what some neighbour must hold (``some r.C``, ``not C`` for ``not all r.C``).
    Along a role of ``functional`` an obligation is a requirement too."""
    position = {c: p for p, c in enumerate(cl)}
    links = [], []
    for p, c in enumerate(cl):
        r = c.sub if isinstance(c, Not) else c
        if isinstance(r, (Exists, Forall)):
            filler = r.filler if r is c else _negate(r.filler)
            link = r.role, position[filler], p
            obliged = isinstance(r, Forall) != (r is c)
            links[obliged].append(link)
            if obliged and r.role in functional:
                links[0].append(link)
    return links


def _index(masks, size: int, requirements, roles) -> tuple:
    """``(holders, compat)``: per closure position the bit set of the
    types among ``masks`` holding its member, and per role of ``roles``
    the list whose i-th entry is the bit set of the j with types i -> j
    compatible along the role."""
    holders = [0] * size
    for i, mask in enumerate(masks):
        for p in _bits(mask):
            holders[p] |= 1 << i
    everything = (1 << len(masks)) - 1
    compat = {role: [everything] * len(masks) for role in roles}
    for r, filler, p in requirements:
        if r in compat:             # t -> t' along r: t' holds what t requires along r
            for i in _bits(holders[p]):
                compat[r][i] &= holders[filler]
        if r.inverse() in compat:   # t -> t' along inv(r): t holds what t' requires along r
            for i in _bits(everything & ~holders[filler]):
                compat[r.inverse()][i] &= ~holders[p]
    return holders, compat


def _types(cl, models: TBox, links) -> list:
    """The masks of the types over the closure ``cl`` that some model of
    ``models`` realizes, in canonical order, by type elimination: one
    variable over the candidates and one self-arc per obligation (role,
    filler), a positive existential or a negated universal of some type.
    The arc's row for a type j is the mask of the types it supports: every
    type without the obligation and, when j holds the filler, the types
    with it that are compatible with j along the role.
    """
    candidates = _candidates(models, cl)
    requirements, obligations = links
    holders, compat = _index(candidates, len(cl), requirements, closure_roles(cl))
    having = {}         # obligation -> bit set of the types having it
    for role, filler, p in obligations:
        having[role, filler] = having.get((role, filler), 0) | holders[p]
    everyone = (1 << len(candidates)) - 1
    arcs = []
    for (role, filler), haves in having.items():
        back, fill = compat[role.inverse()], holders[filler]
        arcs.append((0, [everyone & ~haves | (back[j] & haves if fill >> j & 1 else 0)
                         for j in range(len(candidates))]))
    alive = arc_consistency({0: everyone}, {0: arcs})
    return [candidates[i] for i in _bits(alive[0])]


def _structure(cl, masks, links) -> tuple:
    """The type structure of the types ``masks`` over ``cl`` (see
    ``succ_relation``), and per closure position the mask of the types
    holding the member: bit i is type i, which is also position i in the
    structure's ``numbering``."""
    # zero-padded names sort in type order: t0 ... t9, or t00 ... t19 for 20 types
    width = len(str(len(masks) - 1))
    points = [f"t{i:0{width}d}" for i in range(len(masks))]
    roles = closure_roles(cl)[::2]      # the role names; inverses walk their edges back
    holders, compat = _index(masks, len(cl), links[0], roles)
    cext = {c.name: frozenset(points[i] for i in _bits(holders[p]))
            for p, c in enumerate(cl) if isinstance(c, Atom)}
    rext = {role.name: frozenset((points[i], points[j]) for i, ok in enumerate(compat[role])
                                 for j in _bits(ok))
            for role in roles}
    return Interpretation(frozenset(points), frozenset(), cext, rext), holders


def type_structure(tbox: TBox, cl) -> tuple:
    """The type structure of all types over the closure ``cl``, a tuple
    in ``concept_sort_key`` order, and per closure position the mask of
    the types holding the member, over the structure's ``numbering``
    positions (position i is type i)."""
    links = _links(cl, tbox.functional)
    return _structure(cl, _types(cl, tbox, links), links)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def entails_eliq(tbox: TBox, abox: ABox, concept: Concept, individual: str,
                 budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Certain answer for the query concept at the individual, decided as
    inconsistency of the knowledge base with the negated concept seeded at
    the individual."""
    if individual not in abox.individuals():
        raise ValueError(f"{individual!r} is not an ABox individual")
    return not abox_consistent(tbox, abox, extra_labels={individual: [Not(concept)]},
                               budget=budget)


def entails_eliq_disjunction(tbox: TBox, abox: ABox, disjuncts,
                             budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Disjunctive entailment T,A |= C_0(a_0) or ... or C_k(a_k), decided
    as inconsistency of the KB with every negated disjunct seeded."""
    extra = {}
    inds = abox.individuals()
    for concept, individual in disjuncts:
        if individual not in inds:
            raise ValueError(f"{individual!r} is not an ABox individual")
        extra.setdefault(individual, []).append(Not(concept))
    return not abox_consistent(tbox, abox, extra_labels=extra, budget=budget)


def _decoded(cl, masks) -> tuple:
    return tuple(frozenset(cl[p] for p in _bits(t)) for t in masks)


def compute_types(tbox: TBox, q) -> tuple:
    """All types, in canonical order: maximal Boolean-coherent subsets of
    the closure that some model of the TBox realizes at an element."""
    cl = closure(tbox, q.concept if isinstance(q, (ELIQ, ELQ)) else q)
    return _decoded(cl, _types(cl, tbox, _links(cl, tbox.functional)))


def types_omitting(tbox: TBox, q) -> tuple:
    """Types satisfiable in a model of the TBox whose extension of the
    query concept is empty, in canonical order; the Boolean query
    ``exists x C(x)`` omits exactly when every element avoids C.  The
    omitting TBox's inclusion top sub not C leaves out, type-locally,
    every candidate holding C."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    cl = closure(tbox, c0)
    return _decoded(cl, _types(cl, omitting_tbox(tbox, c0), _links(cl, tbox.functional)))


def succ_relation(tbox: TBox, q, types) -> Interpretation:
    """The type structure of ``types``, which ``compute_types`` or
    ``types_omitting`` gave for the query: its points are t0, ...,
    t{n-1}, standing for the types in the given order and zero-padded to
    one width (t00 ... t19 for 20 types), so that position i of its
    ``numbering`` is type i; every closure concept name has the points
    whose type holds it, and every closure role name the pairs (t, t') that
    some model of the TBox realizes at the endpoints of an edge of that
    role, read off the compatibility index over the query's closure.  An
    inverse role is the same edge read backwards.
    """
    cl = closure(tbox, q.concept if isinstance(q, (ELIQ, ELQ)) else q)
    position = {c: p for p, c in enumerate(cl)}
    masks = [sum(1 << position[c] for c in t) for t in types]
    return _structure(cl, masks, _links(cl, tbox.functional))[0]
