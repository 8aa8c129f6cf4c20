"""Datalog(!=) programs: representation, bottom-up evaluation, and the
monadic rewriting built from a TBox and an ELIQ.

A program comes from ``build_rewriting`` or is built as a value of
``DAtom``, ``DRule`` and ``Program``.  ``print_program`` (and
``str(program)``) writes the ``.dl`` text, a ``goal/arity.`` header and
one rule per line; the library does not read that text back.

Programs evaluate over ABoxes with inequality read as distinctness of
individual names.  The unary relation ``dom`` is built in and always
holds the active domain Ind(A); the rewriting uses it to seed the
trivial type-set fact at assertion-poor individuals and to keep the
paper's domain-independent goal rules safe.  An ABox is input to the
relations a program reads only: assertions of a relation the program
defines by its rules are left out.

Evaluation is semi-naive, with joins through hash indexes on the bound
argument positions.  Round one joins only the rules whose body relations
all hold facts; the others fire from their deltas, so no join reads an
empty relation.  What evaluation reads of the program itself is compiled
once per program (``Program.compiled``) and shared by every call.  A join
plan depends on a rule's variables, not on its relation names, so the
rules of one shape share their plans.

The rewriting is arc consistency of the ABox against the type structure
written as rules (Feder & Vardi, SIAM J. Comput. 1998): seed, propagation
and intersection rules over sets of types, where revise(S, S') along a
role is S ∩ pre(S'), one propagation and one intersection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .syntax import ABox, ELIQ, ELQ, Role, TBox
from .types import compute_types, succ_relation

DOM = "dom"


class SizeGuardError(RuntimeError):
    """The rewriting would need an impractical number of IDB relations."""


@dataclass(frozen=True)
class DAtom:
    pred: str
    args: tuple

    def __str__(self):
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class DRule:
    head: DAtom
    body: tuple            # of DAtom
    neq: tuple = ()        # of (var, var) pairs

    def __str__(self):
        parts = [str(a) for a in self.body]
        parts += [f"{x} != {y}" for x, y in self.neq]
        return f"{self.head} :- {', '.join(parts)}." if parts else f"{self.head}."


@dataclass(frozen=True)
class Program:
    rules: tuple
    goal: str = "goal"
    goal_arity: int = 1

    def __post_init__(self):
        body_vars_ok = all(
            set(r.head.args) | {v for p in r.neq for v in p}
            <= {v for a in r.body for v in a.args}
            for r in self.rules)
        if not body_vars_ok:
            raise ValueError("unsafe rule: head/inequality variable not in body")
        for r in self.rules:
            for a in r.body:
                if a.pred == self.goal:
                    raise ValueError("the goal relation must not occur in bodies")

    def idb(self) -> frozenset:
        return frozenset(r.head.pred for r in self.rules)

    @cached_property
    def uses(self) -> dict:
        """Each body relation, keyed by (pred, arity), with the (rule
        number, body position) pairs that read it: built on first use and
        shared by every evaluation of the program, which only reads it."""
        uses = {}
        for r, rule in enumerate(self.rules):
            for i, a in enumerate(rule.body):
                uses.setdefault((a.pred, len(a.args)), []).append((r, i))
        return {key: tuple(pairs) for key, pairs in uses.items()}

    @cached_property
    def compiled(self) -> tuple:
        """What evaluation reads of the program, built on first use and
        shared like ``uses``: the relations the program defines (the goal
        included), the numbers of the rules round one may join (bodyless,
        or reading no defined relation), and per rule its plans by first
        body position, one tuple shared by the rules of a shape."""
        defined = self.idb() | {self.goal}
        shapes = {}     # (body argument tuples, head arguments, inequalities) -> plans
        plans = []
        for rule in self.rules:
            shape = (tuple(a.args for a in rule.body), rule.head.args, rule.neq)
            if shape not in shapes:
                shapes[shape] = tuple(_plan(rule, i) for i in range(len(rule.body)))
            plans.append(shapes[shape])
        first = tuple(r for r, rule in enumerate(self.rules)
                      if defined.isdisjoint(a.pred for a in rule.body))
        return defined, first, tuple(plans)

    def __str__(self):
        return print_program(self)


def print_program(p: Program) -> str:
    lines = [f"{p.goal}/{p.goal_arity}."]
    lines += [str(r) for r in sorted(p.rules, key=str)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _edb_facts(abox: ABox, program: Program) -> dict:
    """The ABox as the program's input.  Assertions of a relation that
    the program defines by its rules (the goal included) are not input
    and are left out."""
    defined = program.compiled[0]
    facts = {}
    for name, a in abox.concept_assertions:
        if name not in defined:
            facts.setdefault(name, set()).add((a,))
    for name, a, b in abox.role_assertions:
        if name not in defined:
            facts.setdefault(name, set()).add((a, b))
    facts[DOM] = {(a,) for a in abox.individuals()}
    return facts


def _key_getter(positions):
    """Reads a key off a tuple: the value at one position, the tuple of
    values at several, ``()`` at none."""
    return itemgetter(*positions) if positions else (lambda _: ())


def _plan(rule: DRule, first: int):
    """The rule's join plan: the body atom at ``first``, then repeatedly
    the atom with the most bound argument positions.  Variables are
    numbered as they get bound; a binding maps the numbers to values.  A
    step is (body position, bound positions, key getter, binds,
    equalities): it names no relation, so rules of one shape share it."""
    body = rule.body
    slots = {}
    steps = []
    rest = [i for i in range(len(body)) if i != first]
    i = first
    while True:
        atom = body[i]
        bound = tuple(p for p, v in enumerate(atom.args) if v in slots)
        key = _key_getter(tuple(slots[atom.args[p]] for p in bound))
        binds, eqs = [], []
        for p, v in enumerate(atom.args):
            if v not in slots:
                slots[v] = len(slots)
                binds.append((p, slots[v]))
            elif p not in bound:
                eqs.append((p, atom.args.index(v)))
        steps.append((i, bound, key, tuple(binds), tuple(eqs)))
        if not rest:
            break
        i = max(rest, key=lambda j: sum(v in slots for v in body[j].args))
        rest.remove(i)
    head = tuple(slots[v] for v in rule.head.args)
    return tuple(steps), head, tuple((slots[x], slots[y]) for x, y in rule.neq)


def _join(plan, sources, k, rows, env, out):
    """Adds to ``out`` the head tuple of every extension of the binding
    ``env`` through steps k, k+1, ..., with step k ranging over ``rows``
    and each later step j over ``sources[j - 1]``, the hash index of its
    atom on its bound positions."""
    steps, head, neqs = plan
    binds, eqs = steps[k][3:]
    last = k + 1 == len(steps)
    if not last:
        index, key = sources[k], steps[k + 1][2]
    for t in rows:
        if eqs and any(t[p] != t[q] for p, q in eqs):
            continue
        for p, s in binds:
            env[s] = t[p]
        if not last:
            _join(plan, sources, k + 1, index.get(key(env), ()), env, out)
        elif not any(env[a] == env[b] for a, b in neqs):
            out.add(tuple([env[s] for s in head]))


def evaluate(program: Program, abox: ABox) -> frozenset:
    """Least-fixpoint answers of the goal relation on the ABox.

    Semi-naive evaluation (Abiteboul, Hull & Vianu, *Foundations of
    Databases*, ch. 13): round one joins in full only the rules whose
    body relations all hold facts; each later round joins a rule once per
    body atom whose relation grew, that atom ranging over the new facts
    only, so a rule skipped in round one fires from its delta once its
    last empty relation gains facts.  The other atoms are read from hash
    indexes on their bound argument positions, kept up to date as facts
    are added, and a join with an empty index is not entered.  The join
    plans, the rules round one may join and the rules a delta feeds come
    from ``Program.compiled`` and ``Program.uses``, built once per
    program; a call builds only its facts and their indexes.
    """
    facts = _edb_facts(abox, program)
    indexes = {}    # (pred, arity) -> {positions: (key getter, {key: [tuple]})}

    def index(pred, arity, positions):
        by_positions = indexes.setdefault((pred, arity), {})
        if positions not in by_positions:
            get = _key_getter(positions)
            idx = {}
            for t in facts.setdefault(pred, set()):
                if len(t) == arity:
                    idx.setdefault(get(t), []).append(t)
            by_positions[positions] = (get, idx)
        return by_positions[positions][1]

    rules, uses, (_, first, plans) = program.rules, program.uses, program.compiled

    def derive(r, i, rows, new):
        body, head = rules[r].body, rules[r].head
        plan = plans[r][i]
        sources = [index(body[j].pred, len(body[j].args), bound)
                   for j, bound, *_ in plan[0][1:]]
        if all(sources):    # an empty index joins to nothing
            _join(plan, sources, 0, rows, {}, new.setdefault((head.pred, len(head.args)), set()))

    new = {}
    for r in first:
        rule = rules[r]
        if not rule.body:
            new.setdefault((rule.head.pred, 0), set()).add(())
        elif all(facts.get(a.pred) for a in rule.body):
            a = rule.body[0]
            derive(r, 0, [t for t in facts[a.pred] if len(t) == len(a.args)], new)
    while new:
        delta = {}
        for (pred, arity), ts in new.items():
            ts -= facts.setdefault(pred, set())
            if ts:
                delta[pred, arity] = ts
                facts[pred] |= ts
                for get, idx in indexes.get((pred, arity), {}).values():
                    for t in ts:
                        idx.setdefault(get(t), []).append(t)
        new = {}
        for key, ts in delta.items():
            for r, i in uses.get(key, ()):
                derive(r, i, ts, new)
    return frozenset(facts.get(program.goal, ()))


# ---------------------------------------------------------------------------
# The monadic rewriting
# ---------------------------------------------------------------------------

def build_rewriting(tbox: TBox, q, max_idbs: int = 4096) -> Program:
    """The monadic Datalog(!=) program for the OMQ (TBox, ELIQ).

    IDB relations stand for sets of types, written as bit masks over the
    types of ``compute_types`` in its order, and the program reads the
    type structure of ``succ_relation``.  Its rules have three shapes:
    seeds ``P_S(x) :- A(x)``, S the types holding A, and
    ``P_full(x) :- dom(x)``; one propagation ``P_pre(S)(x) :- r(x,y),
    P_S(y)`` per set S and role or inverse role r, pre(S) being the types
    with an r-successor in S (none when pre(S) is full); and one
    intersection ``P_S∩S'(x) :- P_S(x), P_S'(x)`` per unordered pair whose
    meet is neither set.  The revision revise(S, S') = S ∩ pre(S') is
    thus derived, and the meet of the sets derived at an individual is its
    arc-consistent candidate set.  Only sets reachable from the seeds
    become relations.  The goal holds where that set lies inside the types
    holding the query, everywhere once some set is empty or a functional
    role has two successors: those two facts derive a 0-ary ``clash``
    relation, and ``goal(x) :- dom(x), clash()`` reads it, so that no rule
    joins ``dom`` with a body it shares no variable with.  Relation names
    are kept apart from the TBox's and query's names.  Exceeding
    ``max_idbs`` reachable sets raises SizeGuardError; a TBox or query
    using the built-in name ``dom`` raises ValueError.
    """
    concept = q.concept if isinstance(q, (ELIQ, ELQ)) else q
    types = compute_types(tbox, concept)
    structure = succ_relation(tbox, concept, types)
    concept_names = sorted(structure.concept_ext)
    roles = sorted(structure.role_ext)
    names = {*concept_names, *roles, *(r.name for r in tbox.functional)}
    if DOM in names:
        raise ValueError(f"{DOM!r} names the built-in active-domain relation")
    # the program's own names, kept apart from the TBox's and query's names
    prefix, goal, clash = "P", "goal", "clash"
    while any(re.fullmatch(prefix + "[0-9a-f]+", n) for n in names):
        prefix += "_"
    while goal in names:
        goal += "_"
    while clash in names:
        clash += "_"
    bit = {f"t{i}": 1 << i for i in range(len(types))}
    full = (1 << len(types)) - 1

    def mask(points) -> int:
        return sum(bit[p] for p in points)

    moves = {role: [mask(structure.successors[role].get(p, ())) for p in bit]
             for name in roles for role in (Role(name), Role(name, True))}
    atoms = {}      # (relation, arguments) -> the one DAtom that the rules share

    def edge(role: Role, a: str, b: str) -> DAtom:
        args = (b, a) if role.inverted else (a, b)
        return atoms.setdefault((role.name, args), DAtom(role.name, args))

    family = []                     # type-set masks in discovery order
    known = set()

    def rel(s: int, var: str = "x") -> DAtom:
        """The atom of the type set's relation; adds the set to the family."""
        if s not in known:
            if len(known) == max_idbs:
                raise SizeGuardError(f"more than {max_idbs} reachable type-set relations")
            known.add(s)
            family.append(s)
        return atoms.setdefault((s, var), DAtom(f"{prefix}{s:x}", (var,)))

    x = ("x",)
    seed_rules = [DRule(rel(full), (DAtom(DOM, x),))]
    for a in concept_names:
        seed_rules.append(DRule(rel(mask(structure.concept(a))), (DAtom(a, x),)))
    inter_rules, prop_rules = [], []
    for k, s in enumerate(family):      # the family grows while it is walked
        for s2 in family[:k]:
            meet = s & s2
            if meet != s and meet != s2:
                inter_rules.append(DRule(rel(meet), (rel(s), rel(s2))))
        for role, succ in moves.items():
            pre = sum(1 << i for i, out in enumerate(succ) if out & s)
            if pre != full:
                prop_rules.append(DRule(rel(pre), (edge(role, "x", "y"), rel(s, "y"))))

    holds = sum(1 << i for i, t in enumerate(types) if concept in t)
    goal_rules = [DRule(DAtom(goal, x), (rel(s),)) for s in family if s & ~holds == 0]
    clash_rules = [DRule(DAtom(clash, ()), (rel(0, "y"),))] if 0 in known else []
    for role in sorted(tbox.functional):
        clash_rules.append(DRule(DAtom(clash, ()), (edge(role, "y", "z1"),
                                                    edge(role, "y", "z2")), (("z1", "z2"),)))
    if clash_rules:
        goal_rules.append(DRule(DAtom(goal, x), (DAtom(DOM, x), DAtom(clash, ()))))
    rules = tuple(seed_rules + inter_rules + prop_rules + clash_rules + goal_rules)
    return Program(rules, goal, 1)
