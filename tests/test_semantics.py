import itertools
import random

import pytest

from omq.syntax import (
    ABox, And, Atom, Bot, CQ, ELIQ, ELQ, Exists, Forall, Not, Or, Role, TBox,
    Top, eliq_to_cq, parse_abox, parse_query, parse_tbox, peq_to_ucq,
)
from omq.semantics import (
    Interpretation, arc_consistency, eval_concept, find_homomorphism,
    hom_problem, is_model, match_query,
)

from genutil import (
    rand_abox, rand_eli_concept, rand_interpretation, rand_peq,
)
from oracles import (
    bruteforce_certain_answer, decode, reference_arc_consistency, reference_hom_problem,
    reference_solve, unravel_abox,
)

A, B = Atom("A"), Atom("B")
r, s = Role("r"), Role("s")
rinv = Role("r", True)


def brute_homomorphism_exists(src, tgt):
    """Oracle: exhaustive search over all |tgt|^|src| maps."""
    sdom = sorted(src.domain)
    for image in itertools.product(sorted(tgt.domain), repeat=len(sdom)):
        h = dict(zip(sdom, image))
        ok = True
        for name, ds in src.concept_ext.items():
            if any(h[d] not in tgt.concept(name) for d in ds):
                ok = False
                break
        if ok:
            for name, pairs in src.role_ext.items():
                t = tgt.role_ext.get(name, frozenset())
                if any((h[a], h[b]) not in t for a, b in pairs):
                    ok = False
                    break
        if ok:
            return True
    return False


def cycle_interp(n, names=True):
    dom = [f"c{i}" for i in range(n)]
    edges = {(dom[i], dom[(i + 1) % n]) for i in range(n)}
    return Interpretation.of(dom, dom if names else [dom[0]], {}, {"r": edges})


def clique2():
    return Interpretation.of({"1", "2"}, set(), {}, {"r": {("1", "2"), ("2", "1")}})


# -- eval_concept -----------------------------------------------------------

def test_eval_top_is_domain():
    i = Interpretation.of({"d", "e"})
    assert eval_concept(i, Top()) == i.domain


def test_eval_exists():
    i = Interpretation.of({"d", "e"}, concept_ext={"A": {"e"}}, role_ext={"r": {("d", "e")}})
    assert eval_concept(i, Exists(r, A)) == {"d"}


def test_eval_vacuous_forall():
    i = Interpretation.of({"d"})
    got = eval_concept(i, Forall(r, Bot()))
    assert got == i.domain
    # cross-check with the not-exists-top equivalence
    assert got == eval_concept(i, Not(Exists(r, Top())))


def test_eval_inverse_role():
    i = Interpretation.of({"d", "e"}, concept_ext={"A": {"d"}}, role_ext={"r": {("d", "e")}})
    assert eval_concept(i, Exists(rinv, A)) == {"e"}


# -- is_model ---------------------------------------------------------------

def test_singleton_trivial_model():
    i = Interpretation.of({"d"})
    t = parse_tbox("A sub B\nsome r.top sub A")
    assert is_model(i, t)


def test_functionality_violation():
    i = Interpretation.from_abox(parse_abox("r(a,b1)\nr(a,b2)"))
    assert not is_model(i, TBox.of(functional=[r]))


def test_abox_as_model():
    a = parse_abox("A(a)\nr(a,b)")
    i = Interpretation.from_abox(a)
    assert is_model(i, parse_tbox("A sub some r.top"), a)
    assert not is_model(i, parse_tbox("A sub B"), a)


def test_inverse_functionality():
    # func(inv(r)) means every element has at most one r-predecessor
    i = Interpretation.from_abox(parse_abox("r(a,c)\nr(b,c)"))
    assert not is_model(i, TBox.of(functional=[rinv]))
    assert is_model(i, TBox.of(functional=[r]))


# -- match_query ------------------------------------------------------------

def test_boolean_cq_empty_extension():
    i = Interpretation.of({"d"})
    q = CQ.of([("B", "x")], [], ())
    assert not match_query(i, q, ())


def test_eliq_match():
    i = Interpretation.from_abox(parse_abox("r(a,b)\nA(b)"))
    q = ELIQ(Exists(r, A), "x")
    assert match_query(i, q, ("a",))
    assert not match_query(i, q, ("b",))


def test_cyclic_cq_on_acyclic():
    i = Interpretation.from_abox(parse_abox("r(a,b)"))
    q = CQ.of([], [("r", "x", "x")], ())
    assert not match_query(i, q, ())
    j = Interpretation.from_abox(parse_abox("r(a,a)"))
    assert match_query(j, q, ())


def test_eliq_and_its_cq_match_alike_random():
    # eval_concept and the CQ's homomorphism search agree, also on an answer
    # outside the domain
    rng = random.Random(21)
    for _ in range(200):
        i = rand_interpretation(rng, size=4)
        c = rng.choice([Top(), rand_eli_concept(rng, depth=3)])
        eliq = ELIQ(c, "x")
        for a in sorted(i.domain) + ["outside"]:
            assert match_query(i, eliq, (a,)) == match_query(i, eliq_to_cq(eliq), (a,))


# -- find_homomorphism ------------------------------------------------------

def test_hom_identity():
    i = Interpretation.from_abox(parse_abox("A(a)\nr(a,b)"))
    h = find_homomorphism(i, i, preserve=i.named)
    assert h == {d: d for d in i.domain}


def test_hom_odd_cycle_to_clique_absent():
    for n in (3, 5, 7):
        src = cycle_interp(n)
        assert find_homomorphism(src, clique2()) is None
        assert not brute_homomorphism_exists(src, clique2())


def test_hom_even_cycle_to_clique_present():
    for n in (2, 4, 6):
        src = cycle_interp(n)
        h = find_homomorphism(src, clique2())
        assert h is not None
        assert brute_homomorphism_exists(src, clique2())


def test_hom_matches_bruteforce_on_random():
    rng = random.Random(81)
    for _ in range(200):
        src = rand_interpretation(rng, size=4, named_fraction=0.0)
        tgt = rand_interpretation(rng, size=3, named_fraction=0.0)
        got = find_homomorphism(src, tgt)
        assert (got is not None) == brute_homomorphism_exists(src, tgt)
        if got is not None:
            # verify it is a homomorphism
            for name, ds in src.concept_ext.items():
                assert all(got[d] in tgt.concept(name) for d in ds)
            for name, pairs in src.role_ext.items():
                t = tgt.role_ext.get(name, frozenset())
                assert all((got[a], got[b]) in t for a, b in pairs)


# -- simulations on the kernel ----------------------------------------------

def greatest_i_simulation(s, g):
    """The greatest i-simulation from S to G, or None when it misses (a, a)
    for some named a of S: the arc-consistent refinement of the
    homomorphism problem."""
    sim = decode(arc_consistency(*hom_problem(s, g)), g)
    if not all(a in g.named and a in sim[a] for a in s.named):
        return None
    return frozenset((d, e) for d, es in sim.items() for e in es)


def test_simulation_identity():
    i = Interpretation.from_abox(parse_abox("A(a)\nr(a,b)"))
    rel = greatest_i_simulation(i, i)
    assert rel is not None
    assert all((a, a) in rel for a in i.named)


def test_simulation_monotone_under_extension():
    rng = random.Random(3)
    for _ in range(50):
        i = rand_interpretation(rng, size=4)
        extra = dict(i.role_ext)
        extra["r"] = extra.get("r", frozenset()) | {(d, d) for d in i.domain}
        j = Interpretation(i.domain, i.named, i.concept_ext, extra)
        assert greatest_i_simulation(i, j) is not None


def greatest_simulation_reference(s, g):
    """Oracle: refine the concept-compatible relation pair by pair until
    every pair's role obligations have a matching move."""
    slabels = {d: set() for d in s.domain}
    for name, ds in s.concept_ext.items():
        for d in ds:
            slabels[d].add(name)
    glabels = {d: set() for d in g.domain}
    for name, ds in g.concept_ext.items():
        for d in ds:
            if d in glabels:
                glabels[d].add(name)
    rel = {(d, e) for d in s.domain for e in g.domain if slabels[d] <= glabels[e]}
    roles = sorted({Role(n) for n in s.role_ext} | {Role(n, True) for n in s.role_ext})
    moves_s = {}
    moves_g = {}
    for role in roles:
        for d, d2 in s.role(role):
            moves_s.setdefault((d, role), set()).add(d2)
        for e, e2 in g.role(role):
            moves_g.setdefault((e, role), set()).add(e2)
    changed = True
    while changed:
        changed = False
        for d, e in sorted(rel):
            if not all(any((d2, e2) in rel for e2 in moves_g.get((e, role), ()))
                       for role in roles for d2 in moves_s.get((d, role), ())):
                rel.discard((d, e))
                changed = True
    for a in s.named:
        if a not in g.named or (a, a) not in rel:
            return None
    return frozenset(rel)


def test_simulation_is_greatest_random():
    rng = random.Random(12)
    found = 0
    for _ in range(600):
        src = rand_interpretation(rng, size=4, named_fraction=rng.random())
        tgt = rand_interpretation(rng, size=4, named_fraction=rng.random())
        if rng.random() < 0.5:
            tgt = Interpretation(tgt.domain | src.domain, tgt.named | src.named,
                                 tgt.concept_ext, tgt.role_ext)
        got = greatest_i_simulation(src, tgt)
        assert got == greatest_simulation_reference(src, tgt)
        found += got is not None
    assert found > 50


def ex5b_loop_model():
    # ELQ-materialization of T = {A sub some r.A} and
    # A = {B1(a), B2(b), A(a), A(b)}: one extra looping witness d
    return Interpretation.of(
        {"a", "b", "d"}, {"a", "b"},
        {"A": {"a", "b", "d"}, "B1": {"a"}, "B2": {"b"}},
        {"r": {("a", "d"), ("b", "d"), ("d", "d")}})


def ex5b_path_model(depth):
    # the looping witness unfolded into one r-path of A-elements below each
    # named individual
    paths = {x: [x] + [f"{x}{k}" for k in range(1, depth + 1)] for x in "ab"}
    return Interpretation.of(
        {e for path in paths.values() for e in path}, {"a", "b"},
        {"A": {e for path in paths.values() for e in path},
         "B1": {"a"}, "B2": {"b"}},
        {"r": {(path[k], path[k + 1]) for path in paths.values()
               for k in range(depth)}})


def test_ex5b_slice_simulation_directionality():
    loop = ex5b_loop_model()
    slice3 = ex5b_path_model(3)
    # the unfolded path model i-simulates into the looped model ...
    assert greatest_i_simulation(slice3, loop) is not None
    # ... but not conversely: the loop cannot i-simulate into a finite slice
    assert greatest_i_simulation(loop, slice3) is None
    # and the ELIQ difference witnesses the directionality
    q = ELIQ(And(Atom("B1"), Exists(r, Exists(rinv, Atom("B2")))), "x")
    assert match_query(loop, q, ("a",))
    assert not match_query(slice3, q, ("a",))


def test_simulation_soundness_random():
    # if an i-simulation exists then every ELIQ true at a named individual
    # of S holds at it in G
    rng = random.Random(55)
    checked = 0
    for _ in range(400):
        src = rand_interpretation(rng, size=3)
        tgt = rand_interpretation(rng, size=4)
        if greatest_i_simulation(src, tgt) is None:
            continue
        checked += 1
        for _k in range(5):
            c = rand_eli_concept(rng, depth=2)
            for a in sorted(src.named):
                if a in eval_concept(src, c):
                    assert a in eval_concept(tgt, c)
    assert checked > 20


def test_hom_soundness_peq_random():
    # hom from S to G preserving named => every PEQ answer transfers
    rng = random.Random(77)
    checked = 0
    for _ in range(300):
        src = rand_interpretation(rng, size=3)
        tgt = rand_interpretation(rng, size=4)
        shared = src.named & tgt.named
        if not shared <= tgt.named:
            continue
        try:
            h = find_homomorphism(src, tgt, preserve=src.named & tgt.domain & src.named)
        except ValueError:
            continue
        if h is None:
            continue
        preserved = {a for a in src.named if h.get(a) == a}
        if not preserved:
            continue
        checked += 1
        for _k in range(4):
            q = rand_peq(rng, max_nodes=5)
            for a in sorted(preserved):
                if match_query(src, q, (a,)):
                    assert match_query(tgt, q, (a,))
    assert checked > 20


# -- the kernel against the reference kernel ----------------------------------

def reference_match_cq(i, q, answers):
    """``match_query`` on a CQ, by the reference kernel."""
    cext, rext = {}, {}
    for name, v in q.concept_atoms:
        cext.setdefault(name, set()).add(v)
    for name, x, y in q.role_atoms:
        rext.setdefault(name, set()).add((x, y))
    cand, arcs = reference_hom_problem(Interpretation.of(q.variables(), (), cext, rext), i)
    for v, d in zip(q.answer_vars, answers):
        cand[v] = cand[v] & {d}
    return reference_solve(cand, arcs) is not None


def test_kernel_matches_reference_kernel_on_random_pairs():
    # elements mix strings, ints and tuples with distinct str keys; domains
    # may be empty, edges may be self-loops, and half the pairs preserve
    # some named individuals, present in the target or not
    rng = random.Random(18)
    pool = ("d0", "d1", "d2", 3, 4, ("w", 0), ("w", 1))

    def interpretation(n):
        domain = rng.sample(pool, n)
        return Interpretation.of(
            domain, {d for d in domain if rng.random() < 0.5},
            {c: {d for d in domain if rng.random() < 0.5} for c in ("A", "B")},
            {r: {(d, e) for d in domain for e in domain if rng.random() < 0.3}
             for r in ("r", "s")})

    found = outside = 0
    for k in range(500):
        src, tgt = interpretation(rng.randint(0, 5)), interpretation(rng.randint(0, 5))
        preserve = {d for d in src.named if rng.random() < 0.5} if k % 2 else set()
        assert decode(arc_consistency(*hom_problem(src, tgt, preserve)), tgt) == \
            reference_arc_consistency(*reference_hom_problem(src, tgt, preserve))
        h = find_homomorphism(src, tgt, preserve)
        assert h == reference_solve(*reference_hom_problem(src, tgt, preserve)), (src, tgt)
        found += h is not None
        q = eliq_to_cq(ELIQ(rand_eli_concept(rng, depth=2, concepts=("A", "B"),
                                             roles=("r", "s")), "x"))
        answer = rng.choice(pool)
        outside += answer not in tgt.domain
        assert match_query(tgt, q, (answer,)) == reference_match_cq(tgt, q, (answer,))
    assert 100 < found < 400 and outside > 100


# -- unravel_abox -----------------------------------------------------------

def test_unravel_example():
    a = parse_abox("r(a,b)\nA(a)")
    u = unravel_abox(a, 1)
    wab = ("a", r, "b")
    wba = ("b", rinv, "a")
    assert u.individuals == {"a", "b", wab, wba}
    assert ("A", "a") in u.concept_assertions
    assert ("A", wba) in u.concept_assertions  # tail is a
    assert ("r", "a", wab) in u.role_assertions
    assert ("r", wba, "b") in u.role_assertions
    assert len(u.role_assertions) == 2


def test_unravel_no_edges_is_identity():
    a = parse_abox("A(a)")
    for depth in (0, 1, 3):
        u = unravel_abox(a, depth)
        assert u.individuals == {"a"}
        assert u.concept_assertions == {("A", "a")}
        assert not u.role_assertions


def test_unravel_non_backtracking():
    a = parse_abox("r(a,a)")
    u = unravel_abox(a, 2)
    assert ("a", r, "a", r, "a") in u.individuals
    assert ("a", r, "a", rinv, "a") not in u.individuals
    assert ("a", rinv, "a", rinv, "a") in u.individuals


def test_unravel_monotone_and_tail_hom():
    rng = random.Random(31)
    for _ in range(60):
        a = rand_abox(rng, n_individuals=3, n_assertions=5)
        k = rng.randint(0, 2)
        u1 = unravel_abox(a, k)
        u2 = unravel_abox(a, k + 1)
        # induced sub-ABox
        assert u1.individuals <= u2.individuals
        assert u1.concept_assertions <= u2.concept_assertions
        assert u1.role_assertions <= u2.role_assertions
        for n, w1, w2 in u2.role_assertions:
            if w1 in u1.individuals and w2 in u1.individuals:
                assert (n, w1, w2) in u1.role_assertions
        # tail is a homomorphism onto A preserving Ind(A)
        for n, w in u2.concept_assertions:
            assert (n, u2.tail(w)) in a.concept_assertions
        for n, w1, w2 in u2.role_assertions:
            assert (n, u2.tail(w1), u2.tail(w2)) in a.role_assertions
        for b in a.individuals():
            assert u2.tail(b) == b


# -- bruteforce engine ------------------------------------------------------

def test_bruteforce_case_split():
    # T2 of the unraveling example: 1-element case split certifies B(a)
    t = parse_tbox("A and some r.A sub B\nnot A and some r.not A sub B")
    a = parse_abox("r(a,a)")
    holds, complete = bruteforce_certain_answer(t, a, ELIQ(B, "x"), ("a",))
    assert holds and not complete
    holds2, complete2 = bruteforce_certain_answer(t, a, ELIQ(A, "x"), ("a",))
    assert not holds2 and complete2  # countermodel found: refutation is exact


@pytest.mark.parametrize("text", [
    "peq(x): exists y. (r(x,y) and exists y. {name}(y))",
    "peq(x): exists y. ((exists y. {name}(y)) and r(x,y))",
], ids=["inner_after", "inner_before"])
def test_peq_match_restores_a_shadowed_variable(text):
    # an inner quantifier reusing a variable name binds it only in its body
    i = Interpretation.from_abox(parse_abox("r(a,b)\nB(c)"))
    for name, expected in (("B", True), ("D", False)):
        q = parse_query(text.format(name=name))
        assert match_query(i, q, ("a",)) == match_query(i, peq_to_ucq(q), ("a",)) == expected
