"""The type machinery: negation closure, the set of TBox/query types,
the type structure over them, and certain answers to tree queries by the
tableau.

A type is the set of closure members true at some element of some model
of the TBox; it is represented as a frozenset of concepts containing, for
every closure member, either the member or its (single) negation.

One compatibility index serves type elimination and the type structure.
Along a role r, a type requires the fillers of its ``all r.C`` members
and the negated fillers of its ``not some r.C`` members; t -> t' is
compatible along r when t' holds every r-requirement of t and t every
inverse-r requirement of t'.  The index keeps one bit set of types per
closure member and, per role, each type's bit set of compatible
successors.  Without functionality assertions, type elimination is the
greatest fixpoint of arc consistency on the index's own bit sets and
compatibility is the successor relation; with functional roles, the
tableau confirms each candidate type and each compatible pair instead.
"""

from __future__ import annotations

from .semantics import Interpretation, arc_consistency
from .syntax import (
    ABox, And, Atom, Bot, Concept, ELIQ, ELQ, Exists, Forall, Implies, Not,
    Or, Role, TBox, Top, concept_sort_key, conjoin, subconcepts,
)
from .tableau import BudgetExceededError, DEFAULT_NODE_BUDGET, abox_consistent, satisfiable

MAX_TYPE_DECISIONS = 20


def _negate(c: Concept) -> Concept:
    return c.sub if isinstance(c, Not) else Not(c)


def closure(tbox: TBox, c0: Concept) -> tuple:
    """All subconcepts of the TBox and of ``c0``, closed under single
    negation; deterministic order.  Idempotent: closing the closure adds
    nothing."""
    subs = set(subconcepts(c0))
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


# ---------------------------------------------------------------------------
# Candidate generation: Boolean-coherent subsets of the closure
# ---------------------------------------------------------------------------

def _candidates(tbox: TBox, cl) -> list:
    """All Boolean-coherent sign assignments over the closure that satisfy
    the TBox inclusions type-locally, as frozensets of true members, in
    the canonical order of their sorted members."""
    # the closure holds the unnegated form of each member, so these are
    # its independent decisions
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
        if all(not val(lhs, sign) or val(rhs, sign) for lhs, rhs in tbox.inclusions):
            # distinct sign assignments differ on a decision, itself a member
            out.append(frozenset(c for c in cl if val(c, sign)))
    return sorted(out, key=lambda t: sorted(map(concept_sort_key, t)))


# ---------------------------------------------------------------------------
# The compatibility index
# ---------------------------------------------------------------------------

def _bits(mask: int) -> list:
    """The positions of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _index(types, roles) -> tuple:
    """``(holders, compat)``: each closure member's bit set of the
    positions of the types holding it, and per role of ``roles`` the list
    whose i-th entry is the bit set of the positions j with types[i] ->
    types[j] compatible along the role."""
    holders = {}
    requirers = {}      # (role, requirement) -> bit set of the types requiring it
    for i, t in enumerate(types):
        for c in t:
            holders[c] = holders.get(c, 0) | 1 << i
            if isinstance(c, Forall):
                need = (c.role, c.filler)
            elif isinstance(c, Not) and isinstance(c.sub, Exists):
                need = (c.sub.role, _negate(c.sub.filler))
            else:
                continue
            requirers[need] = requirers.get(need, 0) | 1 << i
    everything = (1 << len(types)) - 1
    compat = {}
    for role in roles:
        forward = [(c, bits) for (r, c), bits in requirers.items() if r == role]
        backward = [(c, bits) for (r, c), bits in requirers.items() if r == role.inverse()]
        row = []
        for i, t in enumerate(types):
            ok = everything
            for c, bits in forward:
                if bits >> i & 1:
                    ok &= holders.get(c, 0)
            for c, bits in backward:
                if c not in t:
                    ok &= ~bits
            row.append(ok)
        compat[role] = row
    return holders, compat


def _types(cl, models: TBox, budget: int) -> tuple:
    """The types over the closure ``cl`` that some model of ``models``
    realizes, in canonical order.

    Without functional roles this is type elimination: one variable over
    the candidates and one self-arc per obligation (role, filler), a
    positive existential or a negated universal of some type.  The arc's
    row for a type j is the mask of the types it supports: every type
    without the obligation and, when j holds the filler, the types with
    it that are compatible with j along the role.
    """
    candidates = _candidates(models, cl)
    if models.functional:
        return tuple(t for t in candidates
                     if satisfiable(conjoin(sorted(t, key=concept_sort_key)), models, budget))
    holders, compat = _index(candidates, closure_roles(cl))
    having = {}         # obligation -> bit set of the types having it
    for i, t in enumerate(candidates):
        for c in t:
            if isinstance(c, Exists):
                need = (c.role, c.filler)
            elif isinstance(c, Not) and isinstance(c.sub, Forall):
                need = (c.sub.role, _negate(c.sub.filler))
            else:
                continue
            having[need] = having.get(need, 0) | 1 << i
    everyone = (1 << len(candidates)) - 1
    arcs = []
    for (role, filler), haves in having.items():
        back, fill = compat[role.inverse()], holders.get(filler, 0)
        arcs.append((0, [everyone & ~haves | (back[j] & haves if fill >> j & 1 else 0)
                         for j in range(len(candidates))]))
    alive = arc_consistency({0: everyone}, {0: arcs})
    return tuple(candidates[i] for i in _bits(alive[0]))


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


def compute_types(tbox: TBox, q, budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """All types, in canonical order: maximal Boolean-coherent subsets of
    the closure whose conjunction is satisfiable w.r.t. the TBox."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    return _types(closure(tbox, c0), tbox, budget)


def types_omitting(tbox: TBox, q, budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """Types satisfiable in a model of the TBox whose extension of the
    query concept is empty, in canonical order; the Boolean query
    ``exists x C(x)`` omits exactly when every element avoids C.  The
    omitting TBox's inclusion top sub not C leaves out, type-locally,
    every candidate holding C."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    return _types(closure(tbox, c0), omitting_tbox(tbox, c0), budget)


def succ_relation(tbox: TBox, q, types, budget: int = DEFAULT_NODE_BUDGET) -> Interpretation:
    """The type structure of ``types``, which ``compute_types`` or
    ``types_omitting`` gave for the query: its points are t0, ...,
    t{n-1}, standing for the types in the given order; every closure
    concept name has the points whose type holds it, and every closure
    role name the pairs (t, t') that some model of the TBox realizes at
    the endpoints of an edge of that role.  Its ``successors`` index walks
    the inverse roles as well.

    With functional roles each compatible pair along a role name is
    confirmed by the tableau; its inverse is the same edge read backwards.
    """
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    # a type holds each closure member or its negation, so any type
    # spells out the closure
    cl = types[0] | {_negate(c) for c in types[0]} if types else closure(tbox, c0)
    roles = closure_roles(cl)[::2]      # the role names; inverses walk their edges back
    holders, compat = _index(types, roles)
    if tbox.functional:
        conj = [conjoin(sorted(t, key=concept_sort_key)) for t in types]
        for role in roles:
            row = compat[role]
            for i, ok in enumerate(row):
                for j in _bits(ok):
                    if not satisfiable(And(conj[i], Exists(role, conj[j])), tbox, budget):
                        row[i] &= ~(1 << j)
    points = [f"t{i}" for i in range(len(types))]
    cext = {c.name: [points[i] for i in _bits(holders.get(c, 0))]
            for c in cl if isinstance(c, Atom)}
    rext = {role.name: [(points[i], points[j]) for i, ok in enumerate(compat[role])
                        for j in _bits(ok)]
            for role in roles}
    return Interpretation.of(points, (), cext, rext)
