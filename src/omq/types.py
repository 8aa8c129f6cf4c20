"""The type machinery: negation closure, the set of TBox/query types,
the role successor relation between types, and certain answers to tree
queries by the tableau.

A type is the set of closure members true at some element of some model
of the TBox; it is represented as a frozenset of concepts containing, for
every closure member, either the member or its (single) negation.

Type-set computation has a type-elimination fast path used when the
TBox has no functionality assertions (where elimination is sound and
complete and computes the successor relation as a byproduct); with
functional roles each candidate is checked by the tableau instead.
"""

from __future__ import annotations

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
    out = []
    for n in names:
        out.append(Role(n))
        out.append(Role(n, True))
    return tuple(out)


# ---------------------------------------------------------------------------
# Candidate generation: Boolean-coherent subsets of the closure
# ---------------------------------------------------------------------------

def _base_of(cl) -> tuple:
    seen = []
    got = set()
    for c in cl:
        b = c.sub if isinstance(c, Not) else c
        if b not in got:
            got.add(b)
            seen.append(b)
    return tuple(seen)


def _candidates(tbox: TBox, cl) -> list:
    """All Boolean-coherent sign assignments over the closure that satisfy
    the TBox inclusions type-locally, as frozensets of true members."""
    base = _base_of(cl)
    decisions = [b for b in base
                 if isinstance(b, (Atom, Exists, Forall))]
    if len(decisions) > MAX_TYPE_DECISIONS:
        raise BudgetExceededError(
            f"type space too large: {len(decisions)} independent decisions")

    cl_set = set(cl)
    out = []

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

    n = len(decisions)
    for bits in range(1 << n):
        sign = {decisions[i]: bool(bits >> i & 1) for i in range(n)}
        ok = True
        for lhs, rhs in tbox.inclusions:
            if val(lhs, sign) and not val(rhs, sign):
                ok = False
                break
        if not ok:
            continue
        members = frozenset(c for c in cl_set if val(c, sign))
        out.append(members)
    return sorted(set(out), key=lambda t: sorted(map(concept_sort_key, t)))


# ---------------------------------------------------------------------------
# Type elimination (no functional roles)
# ---------------------------------------------------------------------------

def _obligations(t):
    """(role, required-member) pairs: positive existentials and negated
    universals both demand a witness successor."""
    out = []
    for c in t:
        if isinstance(c, Exists):
            out.append((c.role, c.filler))
        elif isinstance(c, Not) and isinstance(c.sub, Forall):
            out.append((c.sub.role, _negate(c.sub.filler)))
    return out


def _compatible(t, role: Role, t2) -> bool:
    """Necessary and (without functionality) sufficient condition for an
    edge (d, e) in role^I between realizations of t and t2."""
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


def _eliminate(candidates, cl) -> list:
    survivors = list(candidates)
    obligations = {t: _obligations(t) for t in survivors}
    changed = True
    while changed:
        changed = False
        keep = []
        alive = set(survivors)
        for t in survivors:
            ok = True
            for role, need in obligations[t]:
                if not any(need in t2 and _compatible(t, role, t2) for t2 in alive):
                    ok = False
                    break
            if ok:
                keep.append(t)
            else:
                alive.discard(t)
                changed = True
        survivors = keep
    return survivors


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
    for concept, individual in disjuncts:
        extra.setdefault(individual, []).append(Not(concept))
    return not abox_consistent(tbox, abox, extra_labels=extra, budget=budget)


def _types(tbox: TBox, c0: Concept, models: TBox, budget: int) -> frozenset:
    """The types over the closure of the TBox and ``c0`` that some model
    of ``models`` realizes; ``models`` is the TBox itself or extends it."""
    cl = closure(tbox, c0)
    candidates = _candidates(models, cl)
    if not models.functional:
        return frozenset(_eliminate(candidates, cl))
    return frozenset(t for t in candidates
                     if satisfiable(conjoin(sorted(t, key=concept_sort_key)), models, budget))


def _omitting(tbox: TBox, c0: Concept) -> TBox:
    """The TBox extended so that its models leave ``c0`` empty."""
    return TBox(tbox.inclusions | {(Top(), Not(c0))}, tbox.functional)


def compute_types(tbox: TBox, q, budget: int = DEFAULT_NODE_BUDGET) -> frozenset:
    """All types: maximal Boolean-coherent subsets of the closure whose
    conjunction is satisfiable w.r.t. the TBox."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    return _types(tbox, c0, tbox, budget)


def succ_relation(tbox: TBox, q, types: frozenset,
                  budget: int = DEFAULT_NODE_BUDGET) -> frozenset:
    """All triples (t, r, t') such that some model of the TBox realizes t
    and t' at the endpoints of an r-edge; r ranges over the closure's role
    names and their inverses."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    cl = closure(tbox, c0)
    roles = closure_roles(cl)
    ordered = sorted(types, key=lambda t: sorted(map(concept_sort_key, t)))
    # without functional roles the necessary conditions of _compatible are
    # sufficient; with them they pre-filter the tableau's witness check
    conj = {t: conjoin(sorted(t, key=concept_sort_key))
            for t in ordered} if tbox.functional else {}
    return frozenset(
        (t, role, t2) for t in ordered for t2 in ordered for role in roles
        if _compatible(t, role, t2) and (not tbox.functional or satisfiable(
            And(conj[t], Exists(role, conj[t2])), tbox, budget)))


def types_omitting(tbox: TBox, q, budget: int = DEFAULT_NODE_BUDGET) -> frozenset:
    """Types satisfiable in a model of the TBox whose extension of the
    query concept is empty; the Boolean query ``exists x C(x)`` omits
    exactly when every element avoids C.  The extended TBox's inclusion
    top sub not C leaves out, type-locally, every candidate holding C."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    return _types(tbox, c0, _omitting(tbox, c0), budget)


def omitting_succ_relation(tbox: TBox, q, types: frozenset,
                           budget: int = DEFAULT_NODE_BUDGET) -> frozenset:
    """Successor relation among q-omitting types, relativized to models
    where the query concept is empty (the world the template lives in)."""
    c0 = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    return succ_relation(_omitting(tbox, c0), c0, types, budget)
