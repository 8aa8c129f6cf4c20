"""Abstract syntax for concepts, TBoxes, ABoxes and queries, plus the
plain-text surface formats.

Concept constructors cover ALC with inverse roles (ALCI); functionality
assertions on the TBox lift this to ALCF/ALCFI.  All values are immutable
(frozen dataclasses) and hashable, so they can live in sets and serve as
dictionary keys throughout the package.

Surface grammar (one statement per line, ``#`` starts a comment):

    concept   := or_expr
    or_expr   := impl_expr ('or' impl_expr)*
    impl_expr := and_expr ('implies' and_expr)?      -- right assoc
    and_expr  := unary ('and' unary)*
    unary     := 'not' unary | 'some' role '.' unary | 'all' role '.' unary
               | 'top' | 'bot' | NAME | '(' concept ')'
    role      := NAME | 'inv(' NAME ')'

TBox statements are ``C sub D`` or ``func(r)``; ABox statements are
``A(a)`` or ``r(a,b)``.  Queries are either a concept applied to a
variable (``some r.A (x)`` -- an ELIQ, or an ELQ when inverse-free), a
rule-shaped CQ ``q(x,y) :- A(x), r(x,y)`` (several such lines form a
UCQ), or a PEQ ``peq(x): exists y. (A(x) and r(x,y))``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

KEYWORDS = frozenset({"top", "bot", "not", "and", "or", "implies", "some", "all",
                      "inv", "sub", "func", "exists"})


class ParseError(ValueError):
    """Syntax error with 1-based line/column information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# Roles and concepts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Role:
    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self):
        return f"inv({self.name})" if self.inverted else self.name


@dataclass(frozen=True)
class Top:
    def __str__(self):
        return "top"


@dataclass(frozen=True)
class Bot:
    def __str__(self):
        return "bot"


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    sub: "Concept"

    def __str__(self):
        return print_concept(self)


@dataclass(frozen=True)
class And:
    left: "Concept"
    right: "Concept"

    def __str__(self):
        return print_concept(self)


@dataclass(frozen=True)
class Or:
    left: "Concept"
    right: "Concept"

    def __str__(self):
        return print_concept(self)


@dataclass(frozen=True)
class Implies:
    """Material implication kept as a primitive connective.

    The Horn right-hand grammar treats it as a connective of its own, so
    Horn recognition stays purely syntactic; semantically it abbreviates
    ``not left or right``.
    """
    left: "Concept"
    right: "Concept"

    def __str__(self):
        return print_concept(self)


@dataclass(frozen=True)
class Exists:
    role: Role
    filler: "Concept"

    def __str__(self):
        return print_concept(self)


@dataclass(frozen=True)
class Forall:
    role: Role
    filler: "Concept"

    def __str__(self):
        return print_concept(self)


Concept = Union[Top, Bot, Atom, Not, And, Or, Implies, Exists, Forall]


def _install_cached_hash(cls, fields):
    """Replace the generated recursive dataclass hash with a per-instance
    cached one; concepts are immutable, deeply nested, and hashed hot."""
    def cached_hash(self, _name=cls.__name__, _fields=fields):
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            value = hash((_name,) + tuple(getattr(self, f) for f in _fields))
            object.__setattr__(self, "_hash_cache", value)
            return value
    cls.__hash__ = cached_hash


for _cls, _fields in ((Role, ("name", "inverted")), (Top, ()), (Bot, ()),
                      (Atom, ("name",)), (Not, ("sub",)),
                      (And, ("left", "right")), (Or, ("left", "right")),
                      (Implies, ("left", "right")),
                      (Exists, ("role", "filler")), (Forall, ("role", "filler"))):
    _install_cached_hash(_cls, _fields)

TOP = Top()
BOT = Bot()


def conjoin(concepts) -> Concept:
    """Left-associated conjunction of a sequence; TOP when empty."""
    concepts = list(concepts)
    if not concepts:
        return TOP
    out = concepts[0]
    for c in concepts[1:]:
        out = And(out, c)
    return out


def disjoin(concepts) -> Concept:
    concepts = list(concepts)
    if not concepts:
        return BOT
    out = concepts[0]
    for c in concepts[1:]:
        out = Or(out, c)
    return out


def subconcepts(c: Concept) -> Iterator[Concept]:
    """All subconcepts of ``c`` including ``c`` itself, preorder."""
    yield c
    if isinstance(c, Not):
        yield from subconcepts(c.sub)
    elif isinstance(c, (And, Or, Implies)):
        yield from subconcepts(c.left)
        yield from subconcepts(c.right)
    elif isinstance(c, (Exists, Forall)):
        yield from subconcepts(c.filler)


def concept_depth(c: Concept) -> int:
    """Maximum nesting of Exists/Forall along any path."""
    if isinstance(c, Not):
        return concept_depth(c.sub)
    if isinstance(c, (And, Or, Implies)):
        return max(concept_depth(c.left), concept_depth(c.right))
    if isinstance(c, (Exists, Forall)):
        return 1 + concept_depth(c.filler)
    return 0


def concept_names(c: Concept) -> set[str]:
    return {s.name for s in subconcepts(c) if isinstance(s, Atom)}


def roles_of_concept(c: Concept) -> set[Role]:
    return {s.role for s in subconcepts(c) if isinstance(s, (Exists, Forall))}


def concept_sort_key(c: Concept):
    """A total, deterministic order on concepts (structural); kept on the
    concept like its hash, concepts being immutable."""
    try:
        return c._sort_key
    except AttributeError:
        pass
    if isinstance(c, Top):
        key = (0,)
    elif isinstance(c, Bot):
        key = (1,)
    elif isinstance(c, Atom):
        key = (2, c.name)
    elif isinstance(c, Not):
        key = (3, concept_sort_key(c.sub))
    elif isinstance(c, And):
        key = (4, concept_sort_key(c.left), concept_sort_key(c.right))
    elif isinstance(c, Or):
        key = (5, concept_sort_key(c.left), concept_sort_key(c.right))
    elif isinstance(c, Implies):
        key = (6, concept_sort_key(c.left), concept_sort_key(c.right))
    elif isinstance(c, Exists):
        key = (7, (c.role.name, c.role.inverted), concept_sort_key(c.filler))
    elif isinstance(c, Forall):
        key = (8, (c.role.name, c.role.inverted), concept_sort_key(c.filler))
    else:
        raise TypeError(f"not a concept: {c!r}")
    object.__setattr__(c, "_sort_key", key)
    return key


# ---------------------------------------------------------------------------
# TBox / ABox
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TBox:
    inclusions: frozenset  # of (Concept, Concept) pairs, lhs sub rhs
    functional: frozenset = frozenset()  # of Role

    @staticmethod
    def of(*inclusions, functional=()) -> "TBox":
        return TBox(frozenset(inclusions), frozenset(functional))

    def concept_names(self) -> set[str]:
        out = set()
        for lhs, rhs in self.inclusions:
            out |= concept_names(lhs) | concept_names(rhs)
        return out

    def role_names(self) -> set[str]:
        out = {r.name for r in self.functional}
        for lhs, rhs in self.inclusions:
            out |= {r.name for r in roles_of_concept(lhs) | roles_of_concept(rhs)}
        return out

    def sorted_inclusions(self):
        return sorted(self.inclusions,
                      key=lambda p: (concept_sort_key(p[0]), concept_sort_key(p[1])))

    def __str__(self):
        return print_tbox(self)


@dataclass(frozen=True)
class ABox:
    """A finite set of assertions A(a) / r(a,b).

    Parsed ABoxes are non-empty as the file format requires, but empty
    in-memory values are allowed: they arise as signature restrictions
    (see the csp module) and stand for "no Sigma-assertions".
    """
    concept_assertions: frozenset  # of (concept name, individual)
    role_assertions: frozenset     # of (role name, individual, individual)

    @staticmethod
    def of(concept_assertions=(), role_assertions=()) -> "ABox":
        return ABox(frozenset(concept_assertions), frozenset(role_assertions))

    def individuals(self) -> set[str]:
        out = {a for _, a in self.concept_assertions}
        for _, a, b in self.role_assertions:
            out.add(a)
            out.add(b)
        return out

    def concept_names(self) -> set[str]:
        return {n for n, _ in self.concept_assertions}

    def role_names(self) -> set[str]:
        return {n for n, _, _ in self.role_assertions}

    def __str__(self):
        return print_abox(self)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ELIQ:
    """A tree-shaped query C(x) with C an ELI-concept (top, names, and, some)."""
    concept: Concept
    var: str = "x"

    def __post_init__(self):
        _check_eli(self.concept, allow_inverse=True)


@dataclass(frozen=True)
class ELQ:
    """Like ELIQ but inverse-free."""
    concept: Concept
    var: str = "x"

    def __post_init__(self):
        _check_eli(self.concept, allow_inverse=False)


def _check_eli(c: Concept, allow_inverse: bool):
    for s in subconcepts(c):
        if isinstance(s, (Bot, Not, Or, Implies, Forall)):
            raise ValueError(f"not an EL(I)-concept: uses {type(s).__name__}")
        if isinstance(s, Exists) and s.role.inverted and not allow_inverse:
            raise ValueError("ELQ concept contains an inverse role")


@dataclass(frozen=True)
class CQ:
    """Conjunctive query: unary/binary atoms over variables.

    Answer variables that occur in no atom are permitted (the degenerate
    top(x) query translates to an atom-free CQ) and range over all named
    individuals.
    """
    concept_atoms: frozenset  # of (concept name, var)
    role_atoms: frozenset     # of (role name, var, var)
    answer_vars: tuple

    @staticmethod
    def of(concept_atoms=(), role_atoms=(), answer_vars=()) -> "CQ":
        return CQ(frozenset(concept_atoms), frozenset(role_atoms), tuple(answer_vars))

    def variables(self) -> set[str]:
        out = set(self.answer_vars)
        out |= {v for _, v in self.concept_atoms}
        for _, x, y in self.role_atoms:
            out.add(x)
            out.add(y)
        return out


@dataclass(frozen=True)
class UCQ:
    disjuncts: tuple  # of CQ, all with the same answer arity
    answer_vars: tuple

    def __post_init__(self):
        for d in self.disjuncts:
            if len(d.answer_vars) != len(self.answer_vars):
                raise ValueError("UCQ disjuncts disagree on answer arity")


@dataclass(frozen=True)
class PAtom:
    pred: str
    args: tuple  # 1 or 2 variables


@dataclass(frozen=True)
class PAnd:
    left: "PFormula"
    right: "PFormula"


@dataclass(frozen=True)
class POr:
    left: "PFormula"
    right: "PFormula"


@dataclass(frozen=True)
class PExists:
    var: str
    body: "PFormula"


PFormula = Union[PAtom, PAnd, POr, PExists]


@dataclass(frozen=True)
class PEQ:
    formula: PFormula
    answer_vars: tuple


Query = Union[ELIQ, ELQ, CQ, UCQ, PEQ]


def free_vars(f: PFormula) -> set[str]:
    if isinstance(f, PAtom):
        return set(f.args)
    if isinstance(f, (PAnd, POr)):
        return free_vars(f.left) | free_vars(f.right)
    return free_vars(f.body) - {f.var}


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[().,]|:-|!=|:))")


class _Tokens:
    def __init__(self, text, line):
        self.line = line
        self.items = []   # (kind, value, column)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                     line, pos + 1)
                break
            if m.group("name"):
                self.items.append(("name", m.group("name"), m.start("name") + 1))
            else:
                self.items.append(("punct", m.group("punct"), m.start("punct") + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else ("eof", "", -1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of line'!r}",
                             self.line, col)
        return val

    def at_end(self):
        return self.i >= len(self.items)


def _parse_role(toks: _Tokens) -> Role:
    kind, val, col = toks.next()
    if kind != "name":
        raise ParseError("expected a role", toks.line, col)
    if val == "inv":
        toks.expect("(")
        _, inner, col2 = toks.next()
        if not IDENT_RE.fullmatch(inner) or inner in KEYWORDS:
            raise ParseError("expected a role name inside inv(...)", toks.line, col2)
        toks.expect(")")
        return Role(inner, True)
    if val in KEYWORDS:
        raise ParseError(f"keyword {val!r} cannot be a role name", toks.line, col)
    return Role(val)


def _parse_unary(toks: _Tokens) -> Concept:
    kind, val, col = toks.peek()
    if val == "(":
        toks.next()
        c = _parse_or(toks)
        toks.expect(")")
        return c
    if val == "not":
        toks.next()
        return Not(_parse_unary(toks))
    if val in ("some", "all"):
        toks.next()
        role = _parse_role(toks)
        toks.expect(".")
        filler = _parse_unary(toks)
        return Exists(role, filler) if val == "some" else Forall(role, filler)
    if val == "top":
        toks.next()
        return TOP
    if val == "bot":
        toks.next()
        return BOT
    if kind == "name" and val not in KEYWORDS:
        toks.next()
        return Atom(val)
    raise ParseError(f"expected a concept, found {val or 'end of line'!r}", toks.line, col)


def _parse_and(toks: _Tokens) -> Concept:
    c = _parse_unary(toks)
    while toks.peek()[1] == "and":
        toks.next()
        c = And(c, _parse_unary(toks))
    return c


def _parse_impl(toks: _Tokens) -> Concept:
    c = _parse_and(toks)
    if toks.peek()[1] == "implies":
        toks.next()
        return Implies(c, _parse_impl(toks))
    return c


def _parse_or(toks: _Tokens) -> Concept:
    c = _parse_impl(toks)
    while toks.peek()[1] == "or":
        toks.next()
        c = Or(c, _parse_impl(toks))
    return c


def parse_concept(text: str, line=1) -> Concept:
    toks = _Tokens(text, line)
    c = _parse_or(toks)
    if not toks.at_end():
        kind, val, col = toks.peek()
        raise ParseError(f"trailing input {val!r}", line, col)
    return c


def _statements(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if stmt:
            yield lineno, stmt


def parse_tbox(text: str) -> TBox:
    """Parse the ``.tbox`` format: ``C sub D`` / ``func(r)`` statements."""
    inclusions = []
    functional = []
    saw_any = False
    for lineno, stmt in _statements(text):
        saw_any = True
        m = re.fullmatch(r"func\s*\(\s*(.*?)\s*\)", stmt)
        if m:
            inner = m.group(1)
            toks = _Tokens(inner, lineno)
            functional.append(_parse_role(toks))
            if not toks.at_end():
                raise ParseError("trailing input in func(...)", lineno)
            continue
        toks = _Tokens(stmt, lineno)
        lhs = _parse_or(toks)
        toks.expect("sub")
        rhs = _parse_or(toks)
        if not toks.at_end():
            raise ParseError("trailing input after inclusion", lineno)
        inclusions.append((lhs, rhs))
    if not saw_any:
        raise ParseError("no inclusions", 1)
    return TBox(frozenset(inclusions), frozenset(functional))


# individuals may carry dots: the chase renders compound names like a.r.C
_ASSERTION_RE = re.compile(
    r"(?P<pred>[A-Za-z_][A-Za-z0-9_.]*)\s*\(\s*(?P<a>[A-Za-z_][A-Za-z0-9_.]*)\s*"
    r"(?:,\s*(?P<b>[A-Za-z_][A-Za-z0-9_.]*)\s*)?\)")


def parse_abox(text: str) -> ABox:
    """Parse the ``.abox`` format: one ``A(a)`` or ``r(a,b)`` per line."""
    concepts = []
    roles = []
    saw_any = False
    for lineno, stmt in _statements(text):
        saw_any = True
        m = _ASSERTION_RE.fullmatch(stmt)
        if not m:
            raise ParseError(f"not an assertion: {stmt!r}", lineno)
        if m.group("b") is None:
            concepts.append((m.group("pred"), m.group("a")))
        else:
            roles.append((m.group("pred"), m.group("a"), m.group("b")))
    if not saw_any:
        raise ParseError("no assertions", 1)
    return ABox.of(concepts, roles)


def _parse_cq_rule(stmt: str, lineno: int) -> CQ:
    head, _, body = stmt.partition(":-")
    m = re.fullmatch(r"\s*q\s*\(\s*([^)]*)\s*\)\s*", head)
    if not m:
        raise ParseError("CQ head must look like q(x, y, ...)", lineno)
    answer_vars = tuple(v.strip() for v in m.group(1).split(",") if v.strip())
    concept_atoms = []
    role_atoms = []
    body = body.strip().rstrip(".")
    if body:
        for part in re.split(r",(?![^()]*\))", body):
            part = part.strip()
            am = _ASSERTION_RE.fullmatch(part)
            if not am:
                raise ParseError(f"not an atom: {part!r}", lineno)
            if am.group("b") is None:
                concept_atoms.append((am.group("pred"), am.group("a")))
            else:
                role_atoms.append((am.group("pred"), am.group("a"), am.group("b")))
    cq = CQ.of(concept_atoms, role_atoms, answer_vars)
    bound = {v for _, v in cq.concept_atoms}
    for _, x, y in cq.role_atoms:
        bound |= {x, y}
    for v in answer_vars:
        if v not in bound and (concept_atoms or role_atoms):
            raise ParseError(f"answer variable {v!r} occurs in no atom", lineno)
    return cq


def _parse_peq_formula(toks: _Tokens) -> PFormula:
    def parse_or_f():
        f = parse_and_f()
        while toks.peek()[1] == "or":
            toks.next()
            f = POr(f, parse_and_f())
        return f

    def parse_and_f():
        f = parse_unary_f()
        while toks.peek()[1] == "and":
            toks.next()
            f = PAnd(f, parse_unary_f())
        return f

    def parse_unary_f():
        kind, val, col = toks.peek()
        if val == "(":
            toks.next()
            f = parse_or_f()
            toks.expect(")")
            return f
        if val == "exists":
            toks.next()
            _, var, vcol = toks.next()
            if not IDENT_RE.fullmatch(var or ""):
                raise ParseError("expected a variable after exists", toks.line, vcol)
            toks.expect(".")
            return PExists(var, parse_unary_f())
        if kind == "name":
            toks.next()
            toks.expect("(")
            _, a, _ = toks.next()
            args = [a]
            if toks.peek()[1] == ",":
                toks.next()
                _, b, _ = toks.next()
                args.append(b)
            toks.expect(")")
            return PAtom(val, tuple(args))
        raise ParseError(f"expected a formula, found {val!r}", toks.line, col)

    return parse_or_f()


def parse_query(text: str) -> Query:
    """Parse the ``.q`` format.

    ``q(...) :- ...`` lines make a CQ (several lines: a UCQ); a single
    ``peq(vars): formula`` line makes a PEQ; otherwise the line must be
    ``CONCEPT (x)`` and yields an ELQ when inverse-free, else an ELIQ.
    """
    stmts = list(_statements(text))
    if not stmts:
        raise ParseError("empty query", 1)
    if all(":-" in s for _, s in stmts):
        cqs = tuple(_parse_cq_rule(s, ln) for ln, s in stmts)
        if len(cqs) == 1:
            return cqs[0]
        return UCQ(cqs, cqs[0].answer_vars)
    if len(stmts) > 1:
        raise ParseError("a non-CQ query must be a single statement", stmts[1][0])
    lineno, stmt = stmts[0]
    m = re.fullmatch(r"peq\s*\(\s*([^)]*)\)\s*:\s*(.*)", stmt)
    if m:
        answer_vars = tuple(v.strip() for v in m.group(1).split(",") if v.strip())
        toks = _Tokens(m.group(2), lineno)
        f = _parse_peq_formula(toks)
        if not toks.at_end():
            raise ParseError("trailing input after PEQ", lineno)
        missing = set(answer_vars) - free_vars(f)
        if missing and free_vars(f):
            raise ParseError(f"answer variables {sorted(missing)} not free in formula", lineno)
        return PEQ(f, answer_vars)
    m = re.fullmatch(r"(.*)\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)\s*", stmt, re.DOTALL)
    if not m or not m.group(1).strip():
        raise ParseError("expected CONCEPT (var)", lineno)
    concept = parse_concept(m.group(1).strip(), lineno)
    var = m.group(2)
    try:
        return ELQ(concept, var)
    except ValueError:
        pass
    try:
        return ELIQ(concept, var)
    except ValueError as exc:
        raise ParseError(f"query concept is not an ELI-concept: {exc}", lineno)


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

_PREC_OR, _PREC_IMPL, _PREC_AND, _PREC_UNARY = 0, 1, 2, 3


def _print_prec(c: Concept, prec: int) -> str:
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bot):
        return "bot"
    if isinstance(c, Atom):
        return c.name
    if isinstance(c, Not):
        return "not " + _print_prec(c.sub, _PREC_UNARY)
    if isinstance(c, Exists):
        return f"some {c.role}." + _print_prec(c.filler, _PREC_UNARY)
    if isinstance(c, Forall):
        return f"all {c.role}." + _print_prec(c.filler, _PREC_UNARY)
    if isinstance(c, And):
        s = _print_prec(c.left, _PREC_AND) + " and " + _print_prec(c.right, _PREC_AND + 1)
        return f"({s})" if prec > _PREC_AND else s
    if isinstance(c, Implies):
        s = _print_prec(c.left, _PREC_IMPL + 1) + " implies " + _print_prec(c.right, _PREC_IMPL)
        return f"({s})" if prec > _PREC_IMPL else s
    if isinstance(c, Or):
        s = _print_prec(c.left, _PREC_OR) + " or " + _print_prec(c.right, _PREC_OR + 1)
        return f"({s})" if prec > _PREC_OR else s
    raise TypeError(f"not a concept: {c!r}")


def print_concept(c: Concept) -> str:
    return _print_prec(c, _PREC_OR)


def print_tbox(t: TBox) -> str:
    lines = [f"{print_concept(l)} sub {print_concept(r)}" for l, r in t.sorted_inclusions()]
    lines += [f"func({r})" for r in sorted(t.functional)]
    return "\n".join(lines) + ("\n" if lines else "")


def print_abox(a: ABox) -> str:
    lines = [f"{n}({i})" for n, i in sorted(a.concept_assertions)]
    lines += [f"{n}({x},{y})" for n, x, y in sorted(a.role_assertions)]
    return "\n".join(lines) + ("\n" if lines else "")


def _print_peq_formula(f: PFormula, prec=0) -> str:
    if isinstance(f, PAtom):
        return f"{f.pred}({','.join(f.args)})"
    if isinstance(f, PExists):
        s = f"exists {f.var}. " + _print_peq_formula(f.body, 2)
        return f"({s})" if prec > 1 else s
    if isinstance(f, PAnd):
        s = _print_peq_formula(f.left, 1) + " and " + _print_peq_formula(f.right, 2)
        return f"({s})" if prec > 1 else s
    if isinstance(f, POr):
        s = _print_peq_formula(f.left, 0) + " or " + _print_peq_formula(f.right, 1)
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a PEQ formula: {f!r}")


def print_query(q: Query) -> str:
    if isinstance(q, (ELIQ, ELQ)):
        return f"{print_concept(q.concept)} ({q.var})\n"
    if isinstance(q, CQ):
        atoms = [f"{n}({v})" for n, v in sorted(q.concept_atoms)]
        atoms += [f"{n}({x},{y})" for n, x, y in sorted(q.role_atoms)]
        return f"q({','.join(q.answer_vars)}) :- {', '.join(atoms)}\n"
    if isinstance(q, UCQ):
        return "".join(print_query(d) for d in q.disjuncts)
    if isinstance(q, PEQ):
        return f"peq({','.join(q.answer_vars)}): {_print_peq_formula(q.formula)}\n"
    raise TypeError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------

def dialect(t: TBox) -> str:
    """Minimal dialect containing the TBox: one of ALC, ALCI, ALCF, ALCFI."""
    has_inv = any(r.inverted for r in t.functional)
    for lhs, rhs in t.inclusions:
        if has_inv:
            break
        has_inv = any(r.inverted for r in roles_of_concept(lhs) | roles_of_concept(rhs))
    has_func = bool(t.functional)
    return "ALC" + ("F" if has_func else "") + ("I" if has_inv else "")


def is_depth_one(t: TBox) -> bool:
    """True iff no Exists/Forall occurs in the scope of another one."""
    for lhs, rhs in t.inclusions:
        for side in (lhs, rhs):
            for s in subconcepts(side):
                if isinstance(s, (Exists, Forall)) and concept_depth(s.filler) > 0:
                    return False
    return True


def _is_horn_l(c: Concept) -> bool:
    if isinstance(c, (Top, Bot, Atom)):
        return True
    if isinstance(c, (And, Or)):
        return _is_horn_l(c.left) and _is_horn_l(c.right)
    if isinstance(c, Exists):
        return _is_horn_l(c.filler)
    return False


def _is_horn_r(c: Concept) -> bool:
    if isinstance(c, (Top, Bot, Atom)):
        return True
    if isinstance(c, Not):
        return isinstance(c.sub, Atom)
    if isinstance(c, And):
        return _is_horn_r(c.left) and _is_horn_r(c.right)
    if isinstance(c, Implies):
        return _is_horn_l(c.left) and _is_horn_r(c.right)
    if isinstance(c, (Exists, Forall)):
        return _is_horn_r(c.filler)
    return False


def is_horn_alcfi(t: TBox) -> bool:
    """True iff every inclusion is L sub R per the two-level Horn grammar."""
    return all(_is_horn_l(l) and _is_horn_r(r) for l, r in t.inclusions)


def is_eliu_bot(c: Concept) -> bool:
    """True iff ``c`` is built by the L-grammar (top, bot, names, and, or, some)."""
    return _is_horn_l(c)


# ---------------------------------------------------------------------------
# Query conversions
# ---------------------------------------------------------------------------

class DisjunctBlowupError(RuntimeError):
    """peq_to_ucq exceeded its cap on the number of disjuncts."""


def _rectify(f: PFormula, taken: set[str], renaming: dict) -> PFormula:
    if isinstance(f, PAtom):
        return PAtom(f.pred, tuple(renaming.get(a, a) for a in f.args))
    if isinstance(f, PAnd):
        return PAnd(_rectify(f.left, taken, renaming), _rectify(f.right, taken, renaming))
    if isinstance(f, POr):
        return POr(_rectify(f.left, taken, renaming), _rectify(f.right, taken, renaming))
    fresh = f.var
    i = 0
    while fresh in taken:
        i += 1
        fresh = f"{f.var}_{i}"
    taken.add(fresh)
    inner = dict(renaming)
    inner[f.var] = fresh
    return PExists(fresh, _rectify(f.body, taken, inner))


def peq_to_ucq(q: PEQ, max_disjuncts: int = 4096) -> UCQ:
    """Distribute disjunction outward; semantics-preserving on every
    interpretation.  Raises DisjunctBlowupError past ``max_disjuncts``."""
    f = _rectify(q.formula, set(q.answer_vars), {})

    def go(g) -> list[tuple]:
        # each result: (frozenset concept atoms, frozenset role atoms)
        if isinstance(g, PAtom):
            if len(g.args) == 1:
                return [(frozenset([(g.pred, g.args[0])]), frozenset())]
            return [(frozenset(), frozenset([(g.pred, g.args[0], g.args[1])]))]
        if isinstance(g, POr):
            return go(g.left) + go(g.right)
        if isinstance(g, PAnd):
            out = []
            rights = go(g.right)
            for cl, rl in go(g.left):
                for cr, rr in rights:
                    out.append((cl | cr, rl | rr))
                    if len(out) > max_disjuncts:
                        raise DisjunctBlowupError(f"more than {max_disjuncts} disjuncts")
            return out
        return go(g.body)  # PExists: the variable stays existential in the CQ

    disjuncts = []
    seen = set()
    for ca, ra in go(f):
        if (ca, ra) in seen:
            continue
        seen.add((ca, ra))
        disjuncts.append(CQ(ca, ra, tuple(q.answer_vars)))
        if len(disjuncts) > max_disjuncts:
            raise DisjunctBlowupError(f"more than {max_disjuncts} disjuncts")
    return UCQ(tuple(disjuncts), tuple(q.answer_vars))


def eliq_to_cq(q) -> CQ:
    """Translate an ELIQ/ELQ into its acyclic CQ; fresh variables are
    y1, y2, ... in preorder, inverse edges emit swapped argument order."""
    concept_atoms = []
    role_atoms = []
    counter = [0]

    def walk(c: Concept, var: str):
        if isinstance(c, Top):
            return
        if isinstance(c, Atom):
            concept_atoms.append((c.name, var))
        elif isinstance(c, And):
            walk(c.left, var)
            walk(c.right, var)
        elif isinstance(c, Exists):
            counter[0] += 1
            fresh = f"y{counter[0]}"
            if c.role.inverted:
                role_atoms.append((c.role.name, fresh, var))
            else:
                role_atoms.append((c.role.name, var, fresh))
            walk(c.filler, fresh)
        else:
            raise ValueError(f"not an ELI-concept constructor: {type(c).__name__}")

    walk(q.concept, q.var)
    return CQ.of(concept_atoms, role_atoms, (q.var,))
