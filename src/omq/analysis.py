"""TBox property analysis: disjunction-property refutation (witnessing
non-materializability), unraveling-tolerance refutation, dichotomy-style
classification, and the k-colouring and 2+2-SAT constructions.

Refuters enumerate small ABoxes over the TBox signature up to
isomorphism and bounded tree queries; every emitted witness re-verifies
against the tableau at report time.  Budgets make the searches
semi-decisions: a refutation is definitive, exhaustion is only evidence.

For ALC/ALCI both refuters decide facts on the type structure of all
types over the union of closure(T, C) for their queries C, built once per
union closure and ``classify`` call.  The escape test: T, A does not
entail C_1(a_1) or ... or C_k(a_k) iff some homomorphism sends A into the
structure with each a_i on a type lacking C_i (Feder & Vardi 1998),
searched from one arc-consistent (AC) fixpoint per ABox and structure.
The tableau re-verifies witnesses and, under functional roles, where type
structures are not exact, decides the disjunction refuter's facts.

Unraveling tolerance (Lutz & Wolter, KR 2012): T, A |= C(a) implies
T, U_A |= C(a), a read as its root copy in the unraveling U_A.  AC cannot
tell A from U_A, so the root copy escapes C when the AC fixpoint keeps a
type lacking C for a.  A forest-shaped ABox is its own unraveling, and
AC decides homomorphisms from it exactly (Freuder 1982): it is skipped.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    ABox, And, Atom, Concept, ELIQ, Exists, Or, Role, TBox, Top, concept_sort_key,
    conjoin, dialect, eliq_to_cq, is_depth_one, is_horn_alcfi,
)
from .semantics import Interpretation, arc_consistency, hom_problem, solve
from .types import closure, entails_eliq, entails_eliq_disjunction, type_structure
from .csp import Signature, restrict_abox

_IND_NAMES = "abcdefgh"


@dataclass(frozen=True)
class Budget:
    max_individuals: int = 3
    max_eliq_depth: int = 1
    max_disjuncts: int = 2


@dataclass(frozen=True)
class DisjunctionViolation:
    """A disjunction of tree-query facts entailed though no disjunct is."""
    abox: ABox
    disjuncts: tuple  # of (Concept, individual)

    def verify(self, tbox: TBox) -> bool:
        pairs = list(self.disjuncts)
        if not entails_eliq_disjunction(tbox, self.abox, pairs):
            return False
        return all(not entails_eliq(tbox, self.abox, c, a) for c, a in pairs)


@dataclass(frozen=True)
class UnravelingViolation:
    """A certain answer that the root copy loses in the unraveled data."""
    abox: ABox
    concept: Concept
    individual: str

    def verify(self, tbox: TBox) -> bool:
        """Entailment by the tableau, the root copy's escape by AC."""
        if not entails_eliq(tbox, self.abox, self.concept, self.individual):
            return False
        structure, avoids = _type_structure(tbox, (self.concept,), {})
        sigma = Signature.of(structure.concept_ext, structure.role_ext)
        names = Interpretation.from_abox(restrict_abox(self.abox, sigma))
        data = Interpretation.of(self.abox.individuals(), None, names.concept_ext, names.role_ext)
        return _escape_test(data)((structure, avoids), (self.individual,), unraveled=True)


def _type_structure(tbox: TBox, concepts: tuple, structures: dict) -> tuple:
    """The type structure over the union of closure(T, C) for the C in
    ``concepts``, and per C the mask of its points whose type lacks C.
    ``structures`` memoizes, for one analysis of ``tbox``: under None, a
    bit for each closure member that query concepts add, 0 for the TBox's
    own; under the mask of those bits that a union closure sets, its
    structure, which queries with one closure share; and under
    ``concepts``, the answer."""
    found = structures.get(concepts)
    if found is None:
        if tbox.functional:
            raise ValueError("the type structure decides ALC/ALCI TBoxes only")
        if None not in structures:
            structures[None] = dict.fromkeys(closure(tbox), 0)
        bit = structures[None]
        key = 0
        for m in closure(TBox.of(), *concepts):
            key |= bit.setdefault(m, 1 << len(bit))
        if key not in structures:
            cl = tuple(sorted((m for m, b in bit.items() if not b or b & key),
                              key=concept_sort_key))
            structure, holders = type_structure(tbox, cl)
            structures[key] = structure, holders, {c: p for p, c in enumerate(cl)}
        structure, holders, position = structures[key]
        everything = (1 << len(structure.domain)) - 1
        found = structures[concepts] = structure, tuple(everything & ~holders[position[c]]
                                                        for c in concepts)
    return found


def _escape_test(data: Interpretation):
    """The escape test on the data A (over names every structure has) for a
    ``_type_structure`` query and its individuals a_i, searched from one AC
    fixpoint per structure; an empty AC set means T, A is inconsistent.
    ``unraveled``: the a_i's root copies in U_A, decided by AC alone."""
    fixpoints = {}

    def escapes(query, individuals, unraveled=False):
        structure, avoids = query
        if id(structure) not in fixpoints:
            cand, arcs = hom_problem(data, structure)
            fixpoints[id(structure)] = arc_consistency(cand, arcs), arcs
        fix, arcs = fixpoints[id(structure)]
        narrowed = dict(fix)
        for a, avoid in zip(individuals, avoids):
            narrowed[a] = narrowed[a] & avoid
        return all(narrowed.values()) and (unraveled or solve(narrowed, arcs) is not None)
    return escapes


def _is_forest(abox: ABox) -> bool:
    """Whether the role assertions, read as undirected edges, form a
    forest: no self-loop, at most one assertion per pair of individuals,
    and no cycle (union-find; ``parent`` holds the non-roots)."""
    parent = {}
    for _, a, b in abox.role_assertions:
        while a in parent:
            a = parent[a]
        while b in parent:
            b = parent[b]
        if a == b:
            return False
        parent[a] = b
    return True


@dataclass(frozen=True)
class RefutationResult:
    status: str  # 'refuted' | 'none-found' | 'unsupported-dialect'
    witness: Optional[object]
    checked_aboxes: int
    budget: Budget


# ---------------------------------------------------------------------------
# Canonical ABox enumeration
# ---------------------------------------------------------------------------

def _slots(concepts, roles, n):
    names = list(_IND_NAMES[:n])
    slots = [("c", cn, i) for cn in sorted(concepts) for i in range(n)]
    slots += [("r", rn, i, j) for rn in sorted(roles)
              for i in range(n) for j in range(n)]
    return names, slots


def _apply_perm(slot, perm):
    if slot[0] == "c":
        return ("c", slot[1], perm[slot[2]])
    return ("r", slot[1], perm[slot[2]], perm[slot[3]])


def enumerate_aboxes(concepts, roles, max_individuals):
    """All non-empty ABoxes over the signature with at most the given
    number of individuals, one per isomorphism class, every individual
    occurring in some assertion.  Deterministic order: by individual
    count, then by assertion bitmask."""
    for n in range(1, max_individuals + 1):
        names, slots = _slots(concepts, roles, n)
        index = {s: k for k, s in enumerate(slots)}
        perms = []
        for perm in itertools.permutations(range(n)):
            perms.append(tuple(index[_apply_perm(s, perm)] for s in slots))
        nslots = len(slots)
        for mask in range(1, 1 << nslots):
            bits = [k for k in range(nslots) if mask >> k & 1]
            used = set()
            for k in bits:
                s = slots[k]
                used.add(s[2])
                if s[0] == "r":
                    used.add(s[3])
            if len(used) != n:
                continue
            canonical = True
            for pm in perms[1:]:
                pmask = 0
                for k in bits:
                    pmask |= 1 << pm[k]
                if pmask < mask:
                    canonical = False
                    break
            if not canonical:
                continue
            cas = []
            ras = []
            for k in bits:
                s = slots[k]
                if s[0] == "c":
                    cas.append((s[1], names[s[2]]))
                else:
                    ras.append((s[1], names[s[2]], names[s[3]]))
            yield ABox.of(cas, ras)


# ---------------------------------------------------------------------------
# Tree-query candidates
# ---------------------------------------------------------------------------

def _eliq_candidates(sigma: Signature, depth: int, allow_inverse: bool):
    level = [Atom(n) for n in sorted(sigma.concept_names)]
    out = list(level)
    roles = [Role(r) for r in sorted(sigma.role_names)]
    if allow_inverse:
        roles += [Role(r, True) for r in sorted(sigma.role_names)]
    for _ in range(depth):
        level = [Exists(role, c) for role in roles for c in level]
        out.extend(level)
    return out


# ---------------------------------------------------------------------------
# Refuters
# ---------------------------------------------------------------------------

def refute_disjunction_property(tbox: TBox,
                                budget: Budget = Budget()) -> RefutationResult:
    """Search for an entailed disjunction of tree-query facts none of
    whose disjuncts is entailed.  Queries are ELQs for ALC/ALCF (where the
    disjunction property is characterized over ELQs) and ELIQs otherwise.
    For ALC/ALCI the escape test decides each fact and disjunction on type
    structures, so a type space too large raises ``BudgetExceededError``;
    under functional roles the tableau decides.  The tableau re-verifies
    the witness."""
    return _refute_disjunction_property(tbox, budget, {})


def _refute_disjunction_property(tbox: TBox, budget: Budget,
                                 structures: dict) -> RefutationResult:
    dl = dialect(tbox)
    allow_inverse = dl in ("ALCI", "ALCFI")
    sigma = Signature.of_tbox(tbox)
    eliqs = _eliq_candidates(sigma, budget.max_eliq_depth, allow_inverse)
    checked = 0
    for abox in enumerate_aboxes(sorted(sigma.concept_names),
                                 sorted(sigma.role_names),
                                 budget.max_individuals):
        checked += 1
        inds = sorted(abox.individuals())
        entails = _entailment(tbox, abox, structures)
        open_facts = [(c, a) for c in eliqs for a in inds if not entails(((c, a),))]
        for k in range(2, budget.max_disjuncts + 1):
            found = next((combo for combo in itertools.combinations(open_facts, k)
                          if entails(combo)), None)
            if found is not None:
                witness = DisjunctionViolation(abox, tuple(found))
                if not witness.verify(tbox):
                    raise RuntimeError(f"witness fails to re-verify: {witness!r}")
                return RefutationResult("refuted", witness, checked, budget)
    return RefutationResult("none-found", None, checked, budget)


def _entailment(tbox: TBox, abox: ABox, structures: dict):
    """T, A |= C_1(a_1) or ... or C_k(a_k) as a test on the facts
    (C_i, a_i): the escape test, or the tableau under functional roles."""
    if tbox.functional:
        return functools.partial(entails_eliq_disjunction, tbox, abox)
    escapes = _escape_test(Interpretation.from_abox(abox))

    def entails(facts):
        concepts, individuals = zip(*facts)
        return not escapes(_type_structure(tbox, concepts, structures), individuals)
    return entails


def refute_unraveling_tolerance(tbox: TBox,
                                budget: Budget = Budget()) -> RefutationResult:
    """Search for a tree-query fact C(a) that the ABox entails but its
    unraveling does not at the root copy of a: A fails the escape test for
    C(a), its AC fixpoint passes it.  A forest-shaped ABox is counted, not
    searched: it is its own unraveling.  The tableau re-verifies the
    witness.  Exact only for ALC/ALCI, else unsupported-dialect."""
    return _refute_unraveling_tolerance(tbox, budget, {})


def _refute_unraveling_tolerance(tbox: TBox, budget: Budget,
                                 structures: dict) -> RefutationResult:
    if dialect(tbox) not in ("ALC", "ALCI"):
        return RefutationResult("unsupported-dialect", None, 0, budget)
    sigma = Signature.of_tbox(tbox)
    eliqs = _eliq_candidates(sigma, budget.max_eliq_depth, True)
    checked = 0
    for abox in enumerate_aboxes(sorted(sigma.concept_names),
                                 sorted(sigma.role_names),
                                 budget.max_individuals):
        checked += 1
        # a forest is its own unraveling, and AC decides homomorphisms
        # from it exactly (Freuder 1982), so no fact can separate the two
        if _is_forest(abox):
            continue
        escapes = _escape_test(Interpretation.from_abox(abox))
        for c in eliqs:
            query = _type_structure(tbox, (c,), structures)
            for a in sorted(abox.individuals()):
                if escapes(query, (a,), unraveled=True) and not escapes(query, (a,)):
                    witness = UnravelingViolation(abox, c, a)
                    if not witness.verify(tbox):
                        raise RuntimeError(f"witness fails to re-verify: {witness!r}")
                    return RefutationResult("refuted", witness, checked, budget)
    return RefutationResult("none-found", None, checked, budget)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

PTIME_DEFINITIVE = "PTime + monadic Datalog!=-rewritable"
PTIME_CANDIDATE = "PTime candidate (evidence only, not proof)"
CONP_HARD = "coNP-hard"


@dataclass(frozen=True)
class ClassificationReport:
    dialect: str
    depth_one: bool
    horn: bool
    materializable: tuple       # (status, detail)
    unraveling_tolerant: tuple  # (status, detail)
    verdict: Optional[str]
    caveats: tuple
    budget: Budget


def classify(tbox: TBox, budget: Budget = Budget()) -> ClassificationReport:
    """Run both refuters and assemble the dichotomy-style report.

    A definitive PTime verdict needs the Horn certificate; refuted
    materializability on a depth-one TBox yields the coNP-hard verdict;
    everything else stays evidence with explicit caveats.
    """
    dl = dialect(tbox)
    horn = is_horn_alcfi(tbox)
    depth_one = is_depth_one(tbox)
    caveats = []

    if horn:
        materializable = ("yes-evidence", "Horn TBoxes are materializable")
        ut = ("yes-evidence", "Horn TBoxes are unraveling tolerant")
        return ClassificationReport(dl, depth_one, True, materializable, ut,
                                    PTIME_DEFINITIVE, tuple(caveats), budget)

    structures = {}     # closures, and type structures by union closure, for both refuters
    mat_result = _refute_disjunction_property(tbox, budget, structures)
    if mat_result.status == "refuted":
        materializable = ("refuted", mat_result.witness)
    else:
        materializable = ("unknown", f"no violation on {mat_result.checked_aboxes} "
                                     f"canonical ABoxes")

    ut_result = _refute_unraveling_tolerance(tbox, budget, structures)
    if ut_result.status == "refuted":
        ut = ("refuted", ut_result.witness)
    elif ut_result.status == "unsupported-dialect":
        ut = ("unsupported-dialect",
              "the type-structure refutation needs ALC/ALCI")
    else:
        ut = ("unknown", f"no violation on {ut_result.checked_aboxes} "
                         f"canonical ABoxes")

    verdict = None
    if depth_one and materializable[0] == "refuted":
        verdict = CONP_HARD
    elif depth_one and materializable[0] == "unknown" and ut[0] == "unknown":
        verdict = PTIME_CANDIDATE
        caveats.append("refutation budgets exhausted; materializability "
                       "is only evidenced, not proved")
    elif depth_one and ut[0] == "refuted":
        caveats.append("not unraveling tolerant; the materializability "
                       "refuter outcome governs the dichotomy verdict")
    return ClassificationReport(dl, depth_one, horn, materializable, ut,
                                verdict, tuple(caveats), budget)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def gen_kcolor_tbox(k: int) -> TBox:
    """The k-coloring TBox: monochromatic edges or shared colors derive
    the marker M, and every element wears some color."""
    if k < 2:
        raise ValueError("k must be at least 2")
    colors = [Atom(f"A{i}") for i in range(1, k + 1)]
    m = Atom("M")
    inclusions = set()
    for i in range(k):
        for j in range(i + 1, k):
            inclusions.add((And(colors[i], colors[j]), m))
    for i in range(k):
        inclusions.add((And(colors[i], Exists(Role("r"), colors[i])), m))
    cover = colors[0]
    for c in colors[1:]:
        cover = Or(cover, c)
    inclusions.add((Top(), cover))
    return TBox(frozenset(inclusions), frozenset())


def minimize_witness(tbox: TBox, witness: DisjunctionViolation) -> DisjunctionViolation:
    """Prune disjuncts while the disjunction stays entailed."""
    pairs = list(witness.disjuncts)
    changed = True
    while changed and len(pairs) > 2:
        changed = False
        for i in range(len(pairs)):
            rest = pairs[:i] + pairs[i + 1:]
            if entails_eliq_disjunction(tbox, witness.abox, rest):
                pairs = rest
                changed = True
                break
    return DisjunctionViolation(witness.abox, tuple(pairs))


def _concept_as_abox(concept: Concept, root: str, prefix: str):
    """View a tree query concept as an ABox with the given root name."""
    cq = eliq_to_cq(ELIQ(concept, "x"))
    rename = {"x": root}
    for v in sorted(cq.variables() - {"x"}):
        rename[v] = f"{prefix}_{v}"
    cas = {(n, rename[v]) for n, v in cq.concept_atoms}
    ras = {(n, rename[x], rename[y]) for n, x, y in cq.role_atoms}
    return cas, ras


def gen_2p2sat_reduction(tbox: TBox, witness: DisjunctionViolation,
                         formula) -> tuple:
    """Encode a 2+2 formula against a minimal disjunction violation.

    ``formula`` is a sequence of clauses (p1, p2, n1, n2); a literal is a
    variable index (int) or a truth constant (bool).  Returns the ABox,
    the tree query, and the distinguished individual f; the contract is:
    the formula is unsatisfiable iff the query is certain at f.
    """
    witness = minimize_witness(tbox, witness)
    pairs = list(witness.disjuncts)
    k = len(pairs) - 1
    if k < 1:
        raise ValueError("a violation needs at least two disjuncts")
    used_roles = set(tbox.role_names()) | set(witness.abox.role_names())

    def fresh_role(base):
        name = base
        i = 0
        while name in used_roles:
            i += 1
            name = f"{base}_{i}"
        used_roles.add(name)
        return name

    role_c = fresh_role("c")
    role_h = fresh_role("h")
    roles_p = [fresh_role("p1"), fresh_role("p2")]
    roles_n = [fresh_role("n1"), fresh_role("n2")]
    roles_r = [fresh_role(f"r{j}") for j in range(k + 1)]

    nvars = 0
    for clause in formula:
        for lit in clause:
            if isinstance(lit, bool):
                continue
            nvars = max(nvars, lit + 1)

    cas = set()
    ras = set()

    def lit_ind(lit):
        if lit is True:
            return "const1"
        if lit is False:
            return "const0"
        return f"z{lit}"

    # clause scaffolding
    for ci, clause in enumerate(formula):
        c_name = f"cl{ci}"
        ras.add((role_c, "f", c_name))
        p1, p2, n1, n2 = clause
        ras.add((roles_p[0], c_name, lit_ind(p1)))
        ras.add((roles_p[1], c_name, lit_ind(p2)))
        ras.add((roles_n[0], c_name, lit_ind(n1)))
        ras.add((roles_n[1], c_name, lit_ind(n2)))

    # per-variable copies of the violation ABox, wired through the h-gadget
    def copy_violation(i):
        def rn(x):
            return f"{x}__copy{i}"
        for n, x in witness.abox.concept_assertions:
            cas.add((n, rn(x)))
        for n, x, y in witness.abox.role_assertions:
            ras.add((n, rn(x), rn(y)))
        return rn

    # shared satisfied-by-construction copies of each disjunct concept
    droots = {}
    for j in range(1, k + 1):
        droots[j] = f"d{j}"
        c, r = _concept_as_abox(pairs[j][0], f"d{j}", f"d{j}")
        cas |= c
        ras |= r

    for i in range(nvars):
        rn = copy_violation(i)
        z = f"z{i}"
        ras.add((roles_r[0], z, rn(pairs[0][1])))
        for j in range(1, k + 1):
            b = f"b{i}_{j}"
            ras.add((role_h, z, b))
            ras.add((roles_r[j], b, rn(pairs[j][1])))
            for l in range(1, k + 1):
                if l != j:
                    ras.add((roles_r[l], b, droots[l]))

    # truth constants: const1 is true by construction, const0 false
    troot = "t0"
    c, r = _concept_as_abox(pairs[0][0], troot, troot)
    cas |= c
    ras |= r
    ras.add((roles_r[0], "const1", troot))
    b0 = "b_const0"
    ras.add((role_h, "const0", b0))
    for j in range(1, k + 1):
        ras.add((roles_r[j], b0, droots[j]))

    tt = Exists(Role(roles_r[0]), pairs[0][0])
    ff = Exists(Role(role_h),
                conjoin([Exists(Role(roles_r[j]), pairs[j][0])
                         for j in range(1, k + 1)]))
    query = Exists(Role(role_c),
                   conjoin([Exists(Role(roles_p[0]), ff),
                            Exists(Role(roles_p[1]), ff),
                            Exists(Role(roles_n[0]), tt),
                            Exists(Role(roles_n[1]), tt)]))
    return ABox.of(cas, ras), ELIQ(query, "x"), "f"


def brute_2p2_satisfiable(formula, nvars: Optional[int] = None) -> bool:
    """Propositional oracle: try all assignments."""
    if nvars is None:
        nvars = 0
        for clause in formula:
            for lit in clause:
                if not isinstance(lit, bool):
                    nvars = max(nvars, lit + 1)
    for bits in range(1 << nvars):
        def val(lit):
            if isinstance(lit, bool):
                return lit
            return bool(bits >> lit & 1)
        ok = True
        for p1, p2, n1, n2 in formula:
            if not (val(p1) or val(p2) or not val(n1) or not val(n2)):
                ok = False
                break
        if ok:
            return True
    return False
