import importlib
import pkgutil
import random

import pytest

from omq.syntax import (
    ABox, And, Atom, Bot, CQ, ELIQ, ELQ, Exists, Forall, Implies, Not, Or,
    PAnd, PAtom, PEQ, PExists, POr, ParseError, Role, TBox, Top, UCQ,
    concept_depth, concept_sort_key, dialect, eliq_to_cq, is_depth_one,
    is_horn_alcfi, parse_abox, parse_concept, parse_query, parse_tbox,
    peq_to_ucq, print_abox, print_query, print_tbox, DisjunctBlowupError,
)
from omq.semantics import Interpretation, match_query

from genutil import rand_abox, rand_concept, rand_eli_concept, rand_interpretation, rand_peq, rand_tbox
from oracles import cq_to_eli_concept

A, B, C = Atom("A"), Atom("B"), Atom("C")
r, s = Role("r"), Role("s")


def test_role_double_inversion():
    assert r.inverse().inverse() == r
    assert Role("r", True).inverse() == r


def test_parse_tbox_basic():
    t = parse_tbox("A sub some r.A")
    assert t == TBox.of((A, Exists(r, A)))


def test_parse_tbox_empty_is_error():
    with pytest.raises(ParseError, match="no inclusions"):
        parse_tbox("")
    with pytest.raises(ParseError, match="no inclusions"):
        parse_tbox("# only a comment\n\n")


def test_parse_tbox_functional():
    t = parse_tbox("func(r)\nA sub top")
    assert t.functional == frozenset({r})
    t = parse_tbox("func(inv(s))\ntop sub top")
    assert t.functional == frozenset({Role("s", True)})


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_tbox("A sub some r.")
    assert exc.value.line == 1


def test_concept_precedence():
    c = parse_concept("some r.A and B")
    assert c == And(Exists(r, A), B)
    c = parse_concept("A and B or C")
    assert c == Or(And(A, B), C)
    c = parse_concept("not A and B")
    assert c == And(Not(A), B)
    c = parse_concept("A implies B or C")
    assert c == Or(Implies(A, B), C)
    c = parse_concept("some inv(r).(A or B)")
    assert c == Exists(Role("r", True), Or(A, B))


def test_parse_abox():
    a = parse_abox("A(a)\nr(a,b)\n# comment\n")
    assert a == ABox.of([("A", "a")], [("r", "a", "b")])
    assert a.individuals() == {"a", "b"}
    with pytest.raises(ParseError):
        parse_abox("")


def test_dialect():
    assert dialect(parse_tbox("A sub some inv(r).B")) == "ALCI"
    assert dialect(parse_tbox("A sub some r.A")) == "ALC"
    assert dialect(parse_tbox("func(r)\nA sub all r.B")) == "ALCF"
    assert dialect(parse_tbox("func(inv(r))\nA sub all r.B")) == "ALCFI"
    assert dialect(parse_tbox("func(r)\nA sub some inv(s).B")) == "ALCFI"


def test_is_depth_one():
    assert is_depth_one(parse_tbox("A sub some r.A"))
    assert is_depth_one(parse_tbox(
        "some r.(A and not B1 and not B2) sub some r.(not A and not B1 and not B2)"))
    # nested quantifiers as in the hiding gadget all rB.some sB.not ZB
    t = parse_tbox("A sub all rB.some sB.not ZB")
    assert not is_depth_one(t)
    (lhs, rhs), = t.inclusions
    assert concept_depth(rhs) == 2


def test_is_horn_alcfi():
    assert is_horn_alcfi(parse_tbox("some r.A sub A"))
    assert not is_horn_alcfi(parse_tbox("A sub A1 or A2"))
    assert is_horn_alcfi(parse_tbox("top sub top"))
    assert is_horn_alcfi(parse_tbox("A or B sub some r.(B implies A)"))
    assert not is_horn_alcfi(parse_tbox("not A sub B"))
    assert not is_horn_alcfi(parse_tbox("A sub not some r.A"))


def test_horn_closed_under_union():
    rng = random.Random(7)
    from genutil import rand_horn_tbox
    for _ in range(50):
        t1 = rand_horn_tbox(rng)
        t2 = rand_horn_tbox(rng)
        assert is_horn_alcfi(t1) and is_horn_alcfi(t2)
        union = TBox(t1.inclusions | t2.inclusions, t1.functional | t2.functional)
        assert is_horn_alcfi(union)


def test_peq_to_ucq_no_disjunction_is_singleton():
    q = PEQ(PExists("y", PAnd(PAtom("A", ("x",)), PAtom("r", ("x", "y")))), ("x",))
    u = peq_to_ucq(q)
    assert len(u.disjuncts) == 1
    assert u.disjuncts[0] == CQ.of([("A", "x")], [("r", "x", "y")], ("x",))


def test_peq_to_ucq_distributes():
    q = PEQ(PExists("y", PAnd(PAtom("A", ("x",)),
                              POr(PAtom("B", ("y",)), PAtom("C", ("y",))))), ("x",))
    u = peq_to_ucq(q)
    assert len(u.disjuncts) == 2
    bodies = {frozenset(d.concept_atoms) for d in u.disjuncts}
    assert bodies == {frozenset({("A", "x"), ("B", "y")}),
                      frozenset({("A", "x"), ("C", "y")})}


def test_peq_to_ucq_four_disjuncts():
    # (p or q) and (r or s) distributes into 4 disjuncts
    f = PAnd(POr(PAtom("P", ("x",)), PAtom("Q", ("x",))),
             POr(PAtom("R", ("x",)), PAtom("S", ("x",))))
    u = peq_to_ucq(PEQ(f, ("x",)))
    assert len(u.disjuncts) == 4


def test_peq_to_ucq_size_guard():
    f = PAtom("A", ("x",))
    big = f
    for i in range(14):
        big = PAnd(big, POr(PAtom(f"B{i}", ("x",)), PAtom(f"C{i}", ("x",))))
    with pytest.raises(DisjunctBlowupError):
        peq_to_ucq(PEQ(big, ("x",)), max_disjuncts=1000)


def test_peq_to_ucq_preserves_answers():
    rng = random.Random(20240)
    for _ in range(300):
        q = rand_peq(rng, max_nodes=6)
        i = rand_interpretation(rng, size=4)
        u = peq_to_ucq(q)
        for d in sorted(i.domain):
            assert match_query(i, q, (d,)) == match_query(i, u, (d,))


def test_eliq_to_cq_paper_translation():
    # some r.(A and some inv(s).B) (x) -> r(x,y1), A(y1), s(y2,y1), B(y2)
    q = ELIQ(Exists(r, And(A, Exists(Role("s", True), B))), "x")
    cq = eliq_to_cq(q)
    assert cq.answer_vars == ("x",)
    assert cq.role_atoms == frozenset({("r", "x", "y1"), ("s", "y2", "y1")})
    assert cq.concept_atoms == frozenset({("A", "y1"), ("B", "y2")})


def test_eliq_to_cq_atomic_and_top():
    assert eliq_to_cq(ELIQ(A, "x")) == CQ.of([("A", "x")], [], ("x",))
    top_cq = eliq_to_cq(ELIQ(Top(), "x"))
    assert top_cq == CQ.of([], [], ("x",))
    # the atom-free CQ answers every named individual
    i = Interpretation.of({"a", "b"}, {"a", "b"})
    assert match_query(i, top_cq, ("a",)) and match_query(i, top_cq, ("b",))


def test_cq_to_eli_concept_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        c = rand_eli_concept(rng, depth=3)
        q = ELIQ(c, "x")
        back = cq_to_eli_concept(eliq_to_cq(q))
        # not syntactically identical (associativity), but same translation again
        assert eliq_to_cq(ELIQ(back, "x")) == eliq_to_cq(q)


def test_elq_rejects_inverse():
    with pytest.raises(ValueError):
        ELQ(Exists(Role("r", True), A), "x")
    with pytest.raises(ValueError):
        ELIQ(Or(A, B), "x")


def test_parse_query_forms():
    q = parse_query("some r.A (x)")
    assert isinstance(q, ELQ) and q.concept == Exists(r, A)
    q = parse_query("some inv(r).A (x)")
    assert isinstance(q, ELIQ)
    q = parse_query("q(x,y) :- A(x), r(x,y)")
    assert q == CQ.of([("A", "x")], [("r", "x", "y")], ("x", "y"))
    q = parse_query("q(x) :- A(x)\nq(x) :- B(x)")
    assert isinstance(q, UCQ) and len(q.disjuncts) == 2
    q = parse_query("peq(x): exists y. (A(x) and (B(y) or C(y)))")
    assert isinstance(q, PEQ)
    with pytest.raises(ParseError):
        parse_query("q(x) :- A(y)")  # answer var in no atom


def test_printer_parser_roundtrip_tbox():
    rng = random.Random(99)
    for _ in range(200):
        t = rand_tbox(rng, n_inclusions=rng.randint(1, 4), depth=rng.randint(0, 4),
                      allow_functional=True)
        if not t.inclusions and not t.functional:
            continue
        assert parse_tbox(print_tbox(t)) == t


def test_printer_parser_roundtrip_concepts_with_implies():
    rng = random.Random(123)
    from omq.syntax import print_concept
    for _ in range(300):
        c = rand_concept(rng, depth=4, allow_implies=True)
        assert parse_concept(print_concept(c)) == c


def test_printer_parser_roundtrip_abox():
    rng = random.Random(4)
    for _ in range(100):
        a = rand_abox(rng)
        assert parse_abox(print_abox(a)) == a


def test_printer_parser_roundtrip_queries():
    rng = random.Random(17)
    for _ in range(150):
        kind = rng.choice(["eliq", "cq", "ucq", "peq"])
        if kind == "eliq":
            q = ELIQ(rand_eli_concept(rng, depth=3), "x")
            back = parse_query(print_query(q))
            assert isinstance(back, (ELIQ, ELQ))
            assert back.concept == q.concept and back.var == q.var
        elif kind == "cq":
            q = eliq_to_cq(ELIQ(rand_eli_concept(rng, depth=3), "x"))
            if not q.concept_atoms and not q.role_atoms:
                continue
            assert parse_query(print_query(q)) == q
        elif kind == "ucq":
            ds = [eliq_to_cq(ELIQ(rand_eli_concept(rng, depth=2), "x")) for _ in range(2)]
            ds = [d for d in ds if d.concept_atoms or d.role_atoms]
            if len(ds) < 2:
                continue
            q = UCQ(tuple(ds), ("x",))
            assert parse_query(print_query(q)) == q
        else:
            q = rand_peq(rng, max_nodes=5)
            assert parse_query(print_query(q)) == q


def _structural_key(c):
    """concept_sort_key computed afresh, without any cache."""
    if isinstance(c, (Top, Bot)):
        return (0,) if isinstance(c, Top) else (1,)
    if isinstance(c, Atom):
        return (2, c.name)
    if isinstance(c, Not):
        return (3, _structural_key(c.sub))
    if isinstance(c, (And, Or, Implies)):
        tag = {And: 4, Or: 5, Implies: 6}[type(c)]
        return (tag, _structural_key(c.left), _structural_key(c.right))
    tag = 7 if isinstance(c, Exists) else 8
    return (tag, (c.role.name, c.role.inverted), _structural_key(c.filler))


def test_concept_sort_key_is_structural_random():
    rng = random.Random(23)
    by_key = {}
    for _ in range(2000):
        c = rand_concept(rng, depth=3, allow_implies=True)
        key = concept_sort_key(c)
        assert key == _structural_key(c)
        assert concept_sort_key(c) is key
        # a total order: equal keys only for equal concepts
        assert by_key.setdefault(key, c) == c


def test_concept_sort_key_keeps_no_module_cache():
    # no module-level dict of any omq module grows with use
    import omq
    from omq.tableau import satisfiable

    modules = [importlib.import_module(f"omq.{m.name}")
               for m in pkgutil.iter_modules(omq.__path__)]

    def dict_sizes():
        return {(m.__name__, name): len(v) for m in modules
                for name, v in vars(m).items()
                if isinstance(v, dict) and not name.startswith("__")}

    before = dict_sizes()
    rng = random.Random(29)
    for _ in range(200):
        concept_sort_key(rand_concept(rng, depth=3))
    # the tableau numbers the concepts of a functional TBox
    satisfiable(And(A, Exists(r, A)), parse_tbox("func(r)\nA sub some r.B\nB sub some r.A"))
    assert dict_sizes() == before
