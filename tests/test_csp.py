import itertools
import random

import pytest

from omq.syntax import (
    ABox, And, Atom, Bot, ELIQ, Exists, Forall, Not, Or, Role, TBox, Top,
    concept_depth, is_depth_one, parse_abox, parse_tbox,
)
from omq.semantics import (
    Interpretation, arc_consistency, find_homomorphism, hom_problem, is_model,
)
from omq.tableau import abox_consistent
from omq.types import entails_eliq
from omq.csp import (
    AbstractionMap, Signature, Template, admits_trivial_models,
    booleanize_eliq, certain_answer_eliq_csp, certain_boolean_eliq_csp,
    csp_hom, enriched_abstraction, restrict_abox,
    tbox_from_template, template_entails_marker, template_from_omq,
    unraveling_entails,
)
from omq.analysis import _escape_test, _type_structure, gen_kcolor_tbox
from omq.chase import horn_entails_eliq

from genutil import (
    gen_cycle_abox, rand_abox, rand_eli_concept, rand_horn_tbox, rand_tbox,
)
from oracles import (
    abox_isomorphic, decode, reference_arc_consistency, reference_hom_problem,
    reference_solve, unravel_abox,
)

A, B = Atom("A"), Atom("B")
r = Role("r")

def abox_template(abox, signature):
    return Template(Interpretation.from_abox(abox), signature)


def template_abox(tmpl):
    """The template's structure written out as an ABox."""
    i = tmpl.interpretation()
    return ABox(frozenset((n, d) for n, ds in i.concept_ext.items() for d in ds),
                frozenset((n, d, e) for n, es in i.role_ext.items() for d, e in es))


C2 = abox_template(parse_abox("r(x1,x2)\nr(x2,x1)"), Signature.of((), ("r",)))


def brute_hom_exists(abox, template):
    src_inds = sorted(abox.individuals())
    if not src_inds:
        return True
    tgt = sorted(template.points)
    t_abox = template_abox(template)
    for image in itertools.product(tgt, repeat=len(src_inds)):
        h = dict(zip(src_inds, image))
        ok = all((n, h[a]) in t_abox.concept_assertions
                 for n, a in abox.concept_assertions)
        ok = ok and all((n, h[a], h[b]) in t_abox.role_assertions
                        for n, a, b in abox.role_assertions)
        if ok:
            return True
    return False


def arc_consistent(abox, template):
    """Plain arc consistency of the homomorphism problem: False means
    provably no homomorphism; True is only a maybe on cyclic inputs."""
    target = template.interpretation()
    problem = hom_problem(Interpretation.from_abox(abox), target)
    return all(decode(arc_consistency(*problem), target).values())


def brute_colorable(abox, k):
    inds = sorted(abox.individuals())
    edges = [(a, b) for _, a, b in abox.role_assertions]
    for image in itertools.product(range(k), repeat=len(inds)):
        col = dict(zip(inds, image))
        if all(col[a] != col[b] for a, b in edges):
            return True
    return False


# -- restrict_abox ------------------------------------------------------------

def test_restrict_full_signature_keeps_all():
    a = parse_abox("A(a)\nB(a)\nr(a,b)")
    sigma = Signature.of(("A", "B"), ("r",))
    assert restrict_abox(a, sigma) == a


def test_restrict_empty_signature():
    a = parse_abox("A(a)\nr(a,b)")
    out = restrict_abox(a, Signature.of((), ()))
    assert out == ABox.of()


def test_restrict_partial():
    a = parse_abox("A(a)\nB(a)\nr(a,b)")
    out = restrict_abox(a, Signature.of(("A",), ("r",)))
    assert out == parse_abox("A(a)\nr(a,b)")


# -- csp_hom ------------------------------------------------------------------

def test_cycle_coloring():
    for n in (2, 4, 6):
        assert csp_hom(gen_cycle_abox(n), C2) is not None
    for n in (3, 5, 7):
        assert csp_hom(gen_cycle_abox(n), C2) is None


def test_reflexive_point_accepts_everything():
    univ = abox_template(parse_abox("A(u)\nB(u)\nr(u,u)\ns(u,u)"),
                         Signature.of(("A", "B"), ("r", "s")))
    rng = random.Random(1)
    for _ in range(30):
        a = rand_abox(rng, concepts=("A", "B"), roles=("r", "s"))
        assert csp_hom(a, univ) is not None


def test_unmatched_concept_name_absent():
    t = abox_template(parse_abox("A(u)\nr(u,u)"), Signature.of(("A", "B"), ("r",)))
    assert csp_hom(parse_abox("B(a)"), t) is None


def test_empty_restriction_maps():
    assert csp_hom(ABox.of(), C2) == {}


def test_csp_hom_matches_bruteforce():
    rng = random.Random(9)
    for _ in range(200):
        a = rand_abox(rng, n_individuals=4, n_assertions=5,
                      concepts=("A",), roles=("r",))
        t_abox = rand_abox(rng, n_individuals=3, n_assertions=5,
                           concepts=("A",), roles=("r",))
        tmpl = abox_template(t_abox, Signature.of(("A",), ("r",)))
        got = csp_hom(a, tmpl)
        assert (got is not None) == brute_hom_exists(a, tmpl)


def test_arc_consistency_exact_on_trees():
    rng = random.Random(13)
    for _ in range(100):
        # a random tree-shaped ABox
        n = rng.randint(1, 5)
        ras = set()
        for i in range(1, n):
            parent = rng.randrange(i)
            ras.add(("r", f"a{parent}", f"a{i}"))
        cas = {("A", f"a{i}") for i in range(n) if rng.random() < 0.4}
        a = ABox(frozenset(cas), frozenset(ras))
        t_abox = rand_abox(rng, n_individuals=3, n_assertions=5,
                           concepts=("A",), roles=("r",))
        tmpl = abox_template(t_abox, Signature.of(("A",), ("r",)))
        assert arc_consistent(a, tmpl) == (csp_hom(a, tmpl) is not None)


def test_arc_consistency_sound_on_cycles():
    assert arc_consistent(gen_cycle_abox(4), C2)
    # odd cycles slip past plain AC (the classic incompleteness)
    assert arc_consistent(gen_cycle_abox(3), C2)
    assert csp_hom(gen_cycle_abox(3), C2) is None


# -- template_from_omq --------------------------------------------------------

def test_template_value_restriction_example():
    t = parse_tbox("A sub all r.B")
    tmpl = template_from_omq(t, ELIQ(B, "x"))
    expected = parse_abox("r(a,a)\nr(a,b)\nA(b)\nr(a,c)")
    assert abox_isomorphic(template_abox(tmpl), expected)
    assert len(tmpl.points) == 3


def test_template_empty_tbox_single_point():
    tmpl = template_from_omq(TBox.of(), ELIQ(A, "x"))
    # the only A-omitting type carries no positive atom
    assert len(tmpl.points) == 1
    assert not template_abox(tmpl).concept_assertions
    # every A-free ABox maps into it
    assert certain_boolean_eliq_csp(TBox.of(), parse_abox("B(b)"), ELIQ(A, "x")) \
        is False
    assert certain_boolean_eliq_csp(TBox.of(), parse_abox("A(a)"), ELIQ(A, "x"))


def test_template_requires_alc_alci():
    t = parse_tbox("func(r)\nA sub B")
    with pytest.raises(ValueError):
        template_from_omq(t, ELIQ(A, "x"))


def test_template_globally_forced_query():
    # no omitting type: every ABox entails the query
    t = parse_tbox("top sub B")
    tmpl = template_from_omq(t, ELIQ(B, "x"))
    assert not tmpl.points
    assert certain_boolean_eliq_csp(t, parse_abox("X(a)"), ELIQ(B, "x"))


def test_homdual_against_chase_on_horn():
    rng = random.Random(271)
    pairs = 0
    for _ in range(25):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=True)
        if t.functional:
            continue
        q = ELIQ(rand_eli_concept(rng, depth=1, concepts=("A", "B"),
                                  roles=("r",)), "x")
        try:
            tmpl = template_from_omq(t, q)
        except Exception:
            continue
        pairs += 1
        for _k in range(4):
            a = rand_abox(rng, n_individuals=3, n_assertions=4,
                          concepts=("A", "B"), roles=("r",))
            got = certain_boolean_eliq_csp(t, a, q, template=tmpl)
            # chase oracle for the Boolean query: entailed iff inconsistent
            # or some individual matches in the completion
            from omq.chase import complete
            comp = complete(t, a)
            want = comp.bottom or any(comp.matches(q.concept, x)
                                      for x in a.individuals())
            assert got == want, (t, a, q)
    assert pairs > 10


def test_template_index_is_shared_and_unchanged_by_calls():
    # one template answers every call as a fresh one does, and leaves its
    # structure's index as it was built
    rng = random.Random(17)
    for _ in range(30):
        t = rand_tbox(rng, n_inclusions=2, depth=1, roles=("r", "s"))
        q = ELIQ(rand_eli_concept(rng, depth=2, roles=("r", "s")), "x")
        shared = template_from_omq(t, q)
        assert shared.interpretation() is shared.interpretation()
        for _k in range(4):
            a = rand_abox(rng, n_individuals=3, n_assertions=5, roles=("r", "s"))
            restricted = restrict_abox(a, shared.signature)
            assert unraveling_entails(t, q, a, template=shared) == \
                unraveling_entails(t, q, a, template=template_from_omq(t, q))
            assert (csp_hom(restricted, shared) is None) == \
                (csp_hom(restricted, template_from_omq(t, q)) is None)
        fresh = template_from_omq(t, q).interpretation()
        used = shared.interpretation()
        assert used.numbering is used.numbering
        assert used.numbering == fresh.numbering
        # the escape tests of classify read the type structure's numbering
        structure, avoids = _type_structure(t, (q.concept,), {})
        numbering = structure.numbering
        for _k in range(4):
            a = rand_abox(rng, n_individuals=3, n_assertions=5, roles=("r", "s"))
            escapes = _escape_test(Interpretation.from_abox(restrict_abox(a, shared.signature)))
            for ind in sorted(restrict_abox(a, shared.signature).individuals()):
                escapes((structure, avoids), (ind,))
        assert structure.numbering is numbering
        assert numbering == Interpretation(structure.domain, structure.named,
                                           structure.concept_ext, structure.role_ext).numbering


@pytest.mark.parametrize("shape,sizes", [("cycle", (21, 33, 45, 57, 69, 81)),
                                         ("path", (20, 30, 40))])
def test_kernel_matches_reference_kernel_on_kcolor_shapes(shape, sizes):
    # the CSP route of k-colouring questions: symmetric cycles and paths,
    # uncoloured or with the asked node and a neighbour both coloured A1
    tbox, m = gen_kcolor_tbox(2), Atom("M")
    templates = {}
    for n in sizes:
        last = n if shape == "cycle" else n - 1
        roles = frozenset(("r", f"a{a}", f"a{b}") for k in range(last)
                          for a, b in ((k, (k + 1) % n), ((k + 1) % n, k)))
        asked = n // 3
        for colours in (frozenset(), frozenset({("A1", f"a{asked}"), ("A1", f"a{asked + 1}")})):
            _, marked, q = booleanize_eliq(tbox, ABox(colours, roles), m, f"a{asked}")
            if q not in templates:
                templates[q] = template_from_omq(tbox, q)
            tmpl = templates[q]
            src = Interpretation.from_abox(restrict_abox(marked, tmpl.signature))
            tgt = tmpl.interpretation()
            assert decode(arc_consistency(*hom_problem(src, tgt)), tgt) == \
                reference_arc_consistency(*reference_hom_problem(src, tgt))
            h = find_homomorphism(src, tgt)
            assert h == reference_solve(*reference_hom_problem(src, tgt))
            assert (h is None) == bool(colours)


# -- booleanize ---------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 21, 22, 121])
def test_kcolor_csp_route_agrees_with_tableau(n):
    # an odd cycle has a monochromatic edge somewhere, but a model can put
    # it away from a0; colouring a0 and a1 alike puts it at a0
    tbox = gen_kcolor_tbox(2)
    cycle = gen_cycle_abox(n, symmetric=True)
    coloured = ABox(frozenset({("A1", "a0"), ("A1", "a1")}), cycle.role_assertions)
    m = Atom("M")
    for abox, expected in ((cycle, False), (coloured, True)):
        assert certain_answer_eliq_csp(tbox, abox, m, "a0") == expected
        assert entails_eliq(tbox, abox, m, "a0") == expected


def test_booleanize_rejects_unknown_individual():
    with pytest.raises(ValueError):
        booleanize_eliq(TBox.of(), parse_abox("A(a)"), A, "zz")


def test_booleanize_simple():
    t = TBox.of()
    a = parse_abox("A(a)")
    assert certain_answer_eliq_csp(t, a, A, "a")
    assert not certain_answer_eliq_csp(t, a, B, "a")


def test_booleanize_agrees_with_chase():
    rng = random.Random(37)
    checked = 0
    for _ in range(20):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=True)
        q = rand_eli_concept(rng, depth=1, concepts=("A", "B"), roles=("r",))
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=("r",))
        for ind in sorted(a.individuals()):
            want = horn_entails_eliq(t, a, ELIQ(q, "x"), ind)
            got = certain_answer_eliq_csp(t, a, q, ind)
            assert got == want, (t, a, q, ind)
            checked += 1
    assert checked > 30


# -- unraveling_entails -------------------------------------------------------

T2_UNRAV = parse_tbox("A and some r.A sub B\nnot A and some r.not A sub B")


def test_unraveling_example_loop():
    a = parse_abox("r(a,a)")
    # plainly entailed ...
    assert entails_eliq(T2_UNRAV, a, B, "a")
    # ... but not over the unraveling
    _, marked, q = booleanize_eliq(T2_UNRAV, a, B, "a")
    assert not unraveling_entails(T2_UNRAV, q, marked)


def test_unraveling_agrees_with_plain_on_horn():
    rng = random.Random(4422)
    checked = 0
    for _ in range(30):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=False)
        q_concept = rand_eli_concept(rng, depth=1, concepts=("A", "B"),
                                     roles=("r",), allow_inverse=False)
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=("r",))
        for ind in sorted(a.individuals()):
            _, marked, q = booleanize_eliq(t, a, q_concept, ind)
            want = horn_entails_eliq(t, a, ELIQ(q_concept, "x"), ind)
            assert unraveling_entails(t, q, marked) == want, (t, a, q_concept, ind)
            checked += 1
    assert checked > 30


def test_unraveling_edge_free_equals_unary_check():
    t = parse_tbox("A sub B")
    a = parse_abox("A(a)\nA(b)")
    _, marked, q = booleanize_eliq(t, a, B, "a")
    assert unraveling_entails(t, q, marked)
    _, marked2, q2 = booleanize_eliq(t, a, Atom("C"), "a")
    assert not unraveling_entails(t, q2, marked2)


def test_unraveling_sound_for_entailment():
    # true implies the plain certain answer is true
    rng = random.Random(5150)
    for _ in range(40):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=True)
        if t.functional:
            continue
        q_concept = rand_eli_concept(rng, depth=1, concepts=("A", "B"),
                                     roles=("r",))
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=("r",))
        for ind in sorted(a.individuals()):
            _, marked, q = booleanize_eliq(t, a, q_concept, ind)
            if unraveling_entails(t, q, marked):
                assert entails_eliq(t, a, q_concept, ind)


def test_unraveling_entails_agrees_with_explicit_slices():
    # the depth-k slices are finite parts of the unraveling: their answers
    # grow with k, never exceed the exact one, and reach it by depth 3 here
    rng = random.Random(5)
    entailed = 0
    for _ in range(150):
        t = rand_tbox(rng, n_inclusions=3, depth=1, roles=("r", "s"))
        a = rand_abox(rng, n_individuals=3, n_assertions=5, roles=("r", "s"))
        c = rand_eli_concept(rng, depth=2, roles=("r", "s"))
        _, marked, q = booleanize_eliq(t, a, c, sorted(a.individuals())[0])
        tmpl = template_from_omq(t, q)
        exact = unraveling_entails(t, q, marked, template=tmpl)
        sliced = []
        for k in range(4):
            u = unravel_abox(restrict_abox(marked, tmpl.signature), k)
            sliced.append(certain_boolean_eliq_csp(
                t, ABox(u.concept_assertions, u.role_assertions), q, template=tmpl))
        assert sliced == sorted(sliced), (t, a, c)
        assert sliced[-1] == exact, (t, a, c)
        entailed += exact
    assert 0 < entailed < 150


def test_csp_route_agrees_with_tableau_random():
    # homomorphism duality against the tableau on ALC and ALCI TBoxes
    rng = random.Random(2026)
    entailed = 0
    for k in range(400):
        inverse = k % 2 == 0
        t = rand_tbox(rng, n_inclusions=2, depth=1, allow_inverse=inverse)
        a = rand_abox(rng, n_individuals=3, n_assertions=5)
        c = rand_eli_concept(rng, depth=2, allow_inverse=inverse)
        ind = rng.choice(sorted(a.individuals()))
        expected = entails_eliq(t, a, c, ind)
        assert certain_answer_eliq_csp(t, a, c, ind) == expected, (t, a, c, ind)
        entailed += expected
    assert 40 < entailed < 360


# -- enriched abstraction -----------------------------------------------------

def test_abstraction_no_hidden_names():
    t = parse_tbox("A sub some r.B")
    enriched, amap = enriched_abstraction(t, Signature.of(("A", "B"), ("r",)))
    assert enriched == t
    assert not amap.hidden


def test_abstraction_example():
    t = parse_tbox("A sub not B1 or not B2")
    enriched, amap = enriched_abstraction(t, Signature.of(("A",), ("r",)))
    names = [e[0] for e in amap.hidden]
    assert names == ["B1", "B2"]
    h1 = amap.hiding_concept("B1")
    h2 = amap.hiding_concept("B2")
    assert (A, Or(Not(h1), Not(h2))) in enriched.inclusions
    # the witness axioms
    for _n, z, rb, sb, _h in amap.hidden:
        assert (Top(), Exists(Role(rb), Top())) in enriched.inclusions
        assert (Top(), Exists(Role(sb), Atom(z))) in enriched.inclusions
    assert len(enriched.inclusions) == 5


def test_abstraction_requires_role_cover():
    t = parse_tbox("A sub some r.B")
    with pytest.raises(ValueError):
        enriched_abstraction(t, Signature.of(("A",), ()))


def test_abstraction_consistency_transfer():
    # Lemma-style check on the worked example: with A = {A(a)}, entailment
    # under the enriched abstraction equals entailment under the witness
    # axioms alone
    t = parse_tbox("A sub not B1 or not B2")
    enriched, amap = enriched_abstraction(t, Signature.of(("A",), ()))
    t_exists = TBox(frozenset((l, rr) for l, rr in enriched.inclusions
                              if l == Top()), frozenset())
    a = parse_abox("A(a)")
    probes = [A]
    for _n, z, rb, sb, _h in amap.hidden:
        probes += [Exists(Role(rb), Top()), Exists(Role(sb), Atom(z)),
                   Exists(Role(rb), Exists(Role(sb), Atom(z)))]
    for c in probes:
        assert entails_eliq(enriched, a, c, "a") == entails_eliq(t_exists, a, c, "a")


def test_admits_trivial_models():
    assert not admits_trivial_models(parse_tbox("top sub A"))
    assert admits_trivial_models(TBox.of())
    # dom-guarded covering disjunctions admit the empty singleton
    guard = parse_tbox("some r.top sub A1 or A2\nA1 and A2 sub bot\ntop sub all r.(A1 or A2)")
    assert admits_trivial_models(guard)


# -- tbox_from_template -------------------------------------------------------

def test_encoding_core_admits_trivial_models():
    enc = tbox_from_template(C2)
    assert admits_trivial_models(enc.core)
    assert not is_depth_one(enc.tbox)
    depth = max(max(concept_depth(l), concept_depth(rr))
                for l, rr in enc.tbox.inclusions)
    assert depth == 3


def test_encoding_two_coloring():
    enc = tbox_from_template(C2)
    # odd cycle: no homomorphism, marker entailed; even cycle: consistent
    assert template_entails_marker(enc, gen_cycle_abox(3))
    assert not template_entails_marker(enc, gen_cycle_abox(4))
    assert not template_entails_marker(enc, gen_cycle_abox(2))


def test_encoding_universal_point():
    univ = abox_template(parse_abox("A(u)\nr(u,u)"), Signature.of(("A",), ("r",)))
    enc = tbox_from_template(univ)
    rng = random.Random(3)
    for _ in range(10):
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A",), roles=("r",))
        assert not template_entails_marker(enc, a)


def test_encoding_rejects_marker_in_input():
    enc = tbox_from_template(C2)
    with pytest.raises(ValueError):
        template_entails_marker(enc, ABox.of([("__M", "a")]))


def test_encoding_size_polynomial():
    for template, nroles in ((C2, 1),):
        enc = tbox_from_template(template)
        n = len(template.points)
        sig_size = (len(template.signature.concept_names) +
                    len(template.signature.role_names))
        # |core| is at most c * |Ind(B)|^2 * |Sigma| for a small constant
        assert len(enc.core.inclusions) <= 8 * n * n * max(sig_size, 1)


# one directed edge: an encoding that reads its edges backwards answers wrongly
EDGE_A = abox_template(parse_abox("A(x1)\nr(x1,x2)"), Signature.of(("A",), ("r",)))


def test_encoding_three_way_equivalence_small():
    for template, concepts in ((C2, ()), (EDGE_A, ("A",))):
        enc = tbox_from_template(template)
        rng = random.Random(31)
        outcomes = set()
        for _ in range(25):
            a = rand_abox(rng, n_individuals=3, n_assertions=4,
                          concepts=concepts, roles=("r",))
            restricted = restrict_abox(a, enc.sigma)
            hom = csp_hom(restricted, template) is not None
            consistent = abox_consistent(enc.tbox, a)
            entailed = template_entails_marker(enc, a)
            assert hom == brute_hom_exists(restricted, template), a
            assert hom == consistent == (not entailed), a
            outcomes.add(hom)
        # both an ABox that maps to the template and one that does not were drawn
        assert outcomes == {True, False}, template
