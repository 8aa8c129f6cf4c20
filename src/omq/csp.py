"""The CSP bridge: templates built from ontology-mediated queries,
homomorphism solving against them, exact unraveling-entailment, the
CSP-to-TBox encoding, and enriched signature abstraction.

Homomorphisms and unraveling entailment both run on the propagation
kernel of the semantics module (``hom_problem``, ``arc_consistency``,
``find_homomorphism``).  A template is an ``Interpretation`` plus its
signature, built once by ``template_from_omq``; the kernel reads the
interpretation's ``numbering``, built on first use and then shared by
every call on the same template.

The central contract is homomorphism duality: for an ALC/ALCI TBox and a
Boolean tree query, the certain answer holds exactly when the data's
signature restriction has no homomorphism into the template whose points
are the query-omitting types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    ABox, And, Atom, Bot, Concept, ELIQ, ELQ, Exists, Forall, Implies, Not,
    Or, Role, TBox, Top, concept_names, disjoin,
    roles_of_concept,
)
from .semantics import (
    Interpretation, arc_consistency, find_homomorphism, hom_problem, is_model,
)
from .tableau import abox_consistent
from .types import omitting_tbox, succ_relation, types_omitting


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset
    role_names: frozenset

    @staticmethod
    def of(concepts=(), roles=()) -> "Signature":
        return Signature(frozenset(concepts), frozenset(roles))

    @staticmethod
    def of_tbox(tbox: TBox) -> "Signature":
        return Signature(frozenset(tbox.concept_names()),
                         frozenset(tbox.role_names()))

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.concept_names | other.concept_names,
                         self.role_names | other.role_names)


def sig_of_query_concept(c: Concept) -> Signature:
    return Signature(frozenset(concept_names(c)),
                     frozenset(r.name for r in roles_of_concept(c)))


@dataclass(frozen=True)
class Template:
    """A finite structure over a signature, with no individual-name
    significance.  Its points are the structure's domain, so a point that
    satisfies no positive atom (for example the all-negative type) is
    kept."""
    structure: Interpretation
    signature: Signature

    @property
    def points(self) -> frozenset:
        return self.structure.domain

    def interpretation(self) -> Interpretation:
        return self.structure


def restrict_abox(abox: ABox, sigma: Signature) -> ABox:
    """The restriction A|_Sigma; the result may be empty (the explicit
    empty-restriction value)."""
    return ABox(
        frozenset((n, a) for n, a in abox.concept_assertions
                  if n in sigma.concept_names),
        frozenset((n, a, b) for n, a, b in abox.role_assertions
                  if n in sigma.role_names))


# ---------------------------------------------------------------------------
# Homomorphism solving
# ---------------------------------------------------------------------------

def csp_hom(abox: ABox, template: Template) -> Optional[dict]:
    """A homomorphism from the ABox into the template, or None.

    No individual names are preserved.  The empty ABox (an empty
    signature restriction) maps vacuously: the empty map is returned.
    """
    return find_homomorphism(Interpretation.from_abox(abox), template.interpretation())


# ---------------------------------------------------------------------------
# Templates from OMQs
# ---------------------------------------------------------------------------

def template_from_omq(tbox: TBox, q) -> Template:
    """The homomorphism-duality template of the Boolean tree query w.r.t.
    the TBox: the type structure (``types.succ_relation``) of the
    query-omitting types, relativized to query-omitting models.

    Requires an ALC/ALCI TBox (functional roles break the CSP bridge).
    """
    if tbox.functional:
        raise ValueError("template construction requires an ALC/ALCI TBox")
    concept = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    sigma = Signature.of_tbox(tbox).union(sig_of_query_concept(concept))
    structure = succ_relation(omitting_tbox(tbox, concept), concept,
                              types_omitting(tbox, concept))
    return Template(structure, sigma)


def certain_boolean_eliq_csp(tbox: TBox, abox: ABox, q,
                             template: Optional[Template] = None) -> bool:
    """Certain answer of the Boolean tree query via homomorphism duality.

    An empty template (no omitting type) means no model can avoid the
    query, so every ABox entails it; an empty signature restriction maps
    vacuously otherwise.
    """
    tmpl = template if template is not None else template_from_omq(tbox, q)
    if not tmpl.points:
        return True
    return csp_hom(restrict_abox(abox, tmpl.signature), tmpl) is None


def booleanize_eliq(tbox: TBox, abox: ABox, concept: Concept,
                    individual: str) -> tuple:
    """Reduce answering C(x) at an individual to a Boolean query: mark the
    individual with a fresh concept name P and ask for exists x (P and C).

    Returns (tbox, marked ABox, Boolean query) with the marker name
    recoverable from the query concept.
    """
    if individual not in abox.individuals():
        raise ValueError(f"{individual!r} is not an ABox individual")
    used = tbox.concept_names() | abox.concept_names() | concept_names(concept)
    p = _fresh("P_mark", used)
    marked = ABox(abox.concept_assertions | {(p, individual)},
                  abox.role_assertions)
    return tbox, marked, ELIQ(And(Atom(p), concept), "x")


def certain_answer_eliq_csp(tbox: TBox, abox: ABox, concept: Concept,
                            individual: str) -> bool:
    """Certain answer of the (non-Boolean) tree query at an individual via
    booleanization and homomorphism duality."""
    _, marked, q = booleanize_eliq(tbox, abox, concept, individual)
    return certain_boolean_eliq_csp(tbox, marked, q)


# ---------------------------------------------------------------------------
# Exact unraveling entailment
# ---------------------------------------------------------------------------

def unraveling_entails(tbox: TBox, q, abox: ABox,
                       template: Optional[Template] = None) -> bool:
    """Whether the TBox and the *unraveling* of the ABox entail the Boolean
    tree query: arc consistency cannot tell an ABox from its unraveling and
    is exact on trees, so the query is entailed exactly when AC of the
    signature restriction against the template empties a candidate set."""
    tmpl = template if template is not None else template_from_omq(tbox, q)
    if not tmpl.points:
        return True
    src = Interpretation.from_abox(restrict_abox(abox, tmpl.signature))
    return not all(arc_consistency(*hom_problem(src, tmpl.interpretation())).values())


# ---------------------------------------------------------------------------
# Enriched signature abstraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractionMap:
    """Per hidden concept name: the fresh symbols (Z, r, s) and the hiding
    concept all r.some s.not Z replacing it."""
    hidden: tuple  # of (name, z name, r name, s name, Concept)

    def hiding_concept(self, name: str) -> Concept:
        for n, _z, _r, _s, h in self.hidden:
            if n == name:
                return h
        raise KeyError(name)

def _substitute_atoms(c: Concept, mapping: dict) -> Concept:
    if isinstance(c, Atom):
        return mapping.get(c.name, c)
    if isinstance(c, Not):
        return Not(_substitute_atoms(c.sub, mapping))
    if isinstance(c, And):
        return And(_substitute_atoms(c.left, mapping),
                   _substitute_atoms(c.right, mapping))
    if isinstance(c, Or):
        return Or(_substitute_atoms(c.left, mapping),
                  _substitute_atoms(c.right, mapping))
    if isinstance(c, Exists):
        return Exists(c.role, _substitute_atoms(c.filler, mapping))
    if isinstance(c, Forall):
        return Forall(c.role, _substitute_atoms(c.filler, mapping))
    if isinstance(c, Implies):
        return Implies(_substitute_atoms(c.left, mapping),
                       _substitute_atoms(c.right, mapping))
    return c


def _fresh(base: str, used: set) -> str:
    name = base
    i = 0
    while name in used:
        i += 1
        name = f"{base}{i}"
    used.add(name)
    return name


def enriched_abstraction(tbox: TBox, sigma: Signature) -> tuple:
    """Replace every concept name outside the signature by its hiding
    concept and append the witness axioms top sub some r_B.top and
    top sub some s_B.Z_B per hidden name.

    The signature must contain all role names of the TBox.  Returns the
    enriched TBox and the abstraction map.
    """
    if not tbox.role_names() <= sigma.role_names:
        raise ValueError("the signature must contain all role names of the TBox")
    hidden_names = sorted(tbox.concept_names() - sigma.concept_names)
    used = set(tbox.concept_names()) | set(tbox.role_names()) | \
        set(sigma.concept_names) | set(sigma.role_names)
    entries = []
    mapping = {}
    extra = []
    for b in hidden_names:
        z = _fresh(f"Z_{b}", used)
        rb = _fresh(f"r_{b}", used)
        sb = _fresh(f"s_{b}", used)
        h = Forall(Role(rb), Exists(Role(sb), Not(Atom(z))))
        entries.append((b, z, rb, sb, h))
        mapping[b] = h
        extra.append((Top(), Exists(Role(rb), Top())))
        extra.append((Top(), Exists(Role(sb), Atom(z))))
    inclusions = {( _substitute_atoms(l, mapping), _substitute_atoms(r, mapping))
                  for l, r in tbox.inclusions}
    enriched = TBox(frozenset(inclusions) | frozenset(extra), tbox.functional)
    return enriched, AbstractionMap(tuple(entries))


def admits_trivial_models(tbox: TBox) -> bool:
    """Checks the singleton interpretation with all extensions empty."""
    trivial = Interpretation.of({"point"}, set())
    return is_model(trivial, tbox)


# ---------------------------------------------------------------------------
# CSP -> TBox encoding
# ---------------------------------------------------------------------------

MARKER = "__M"


@dataclass(frozen=True)
class TemplateEncoding:
    """The materializable TBox encoding a CSP template.

    ``core`` is the pre-abstraction TBox over the template-point names
    (it admits trivial models); ``tbox`` is its enriched abstraction plus
    the witness axioms.  The marker concept occurs in no inclusion, so
    its Boolean query is entailed exactly by inconsistency.
    """
    tbox: TBox
    core: TBox
    marker: str
    sigma: Signature
    abstraction: AbstractionMap
    point_names: tuple

def tbox_from_template(template: Template) -> TemplateEncoding:
    """Build the hiding encoding: point concepts A_d with a dom-guarded
    covering disjunction, pairwise disjointness, forbidden-edge and
    forbidden-label bottom rules; then hide the point concepts behind the
    enriched signature abstraction."""
    sigma = template.signature
    structure = template.interpretation()
    points = sorted(template.points)
    if not points:
        raise ValueError("the template must have at least one point")
    used = set(sigma.concept_names) | set(sigma.role_names) | {MARKER}
    point_name = {}
    for d in points:
        point_name[d] = _fresh(f"A_{d}", used)
    atoms = {d: Atom(point_name[d]) for d in points}
    cover = disjoin([atoms[d] for d in points])

    inclusions = set()
    # dom sub cover, expanded into its three guarded families
    for r in sorted(sigma.role_names):
        inclusions.add((Exists(Role(r), Top()), cover))
        inclusions.add((Top(), Forall(Role(r), cover)))
    for a in sorted(sigma.concept_names):
        inclusions.add((Atom(a), cover))
    # pairwise disjointness
    for i, d in enumerate(points):
        for e in points[i + 1:]:
            inclusions.add((And(atoms[d], atoms[e]), Bot()))
    # forbidden edges and labels
    for r in sorted(sigma.role_names):
        edges = structure.successors.get(Role(r), {})
        for d in points:
            for e in points:
                if e not in edges.get(d, ()):
                    inclusions.add((And(atoms[d], Exists(Role(r), atoms[e])), Bot()))
    for a in sorted(sigma.concept_names):
        for d in points:
            if d not in structure.concept(a):
                inclusions.add((And(atoms[d], Atom(a)), Bot()))

    core = TBox(frozenset(inclusions), frozenset())
    enriched, amap = enriched_abstraction(core, sigma)
    return TemplateEncoding(enriched, core, MARKER, sigma, amap,
                            tuple(point_name[d] for d in points))


def template_entails_marker(encoding: TemplateEncoding, abox: ABox,
                            budget: int = 10**6) -> bool:
    """Certain answer of exists x M(x) w.r.t. the encoding TBox.

    The marker occurs in no inclusion, so entailment coincides with
    inconsistency of the knowledge base; the input must not mention the
    marker itself.
    """
    if encoding.marker in abox.concept_names():
        raise ValueError(f"input ABox must not use the marker {encoding.marker}")
    return not abox_consistent(encoding.tbox, abox, budget=budget)
