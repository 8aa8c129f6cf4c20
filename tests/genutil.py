"""Seeded random generators shared by the test suite.

Everything is driven by an explicit random.Random so that every test run
is reproducible from its seed.
"""

import random

from omq.syntax import (
    ABox, And, Atom, Bot, CQ, Concept, ELIQ, ELQ, Exists, Forall, Implies,
    Not, Or, PAnd, PAtom, PEQ, PExists, POr, Role, TBox, Top, UCQ,
)
from omq.semantics import Interpretation


DEFAULT_CONCEPTS = ("A", "B", "C")
DEFAULT_ROLES = ("r", "s")


def rand_role(rng, roles=DEFAULT_ROLES, allow_inverse=True):
    return Role(rng.choice(roles), allow_inverse and rng.random() < 0.3)


def rand_concept(rng, depth=3, concepts=DEFAULT_CONCEPTS, roles=DEFAULT_ROLES,
                 allow_inverse=True, allow_implies=False):
    choices = ["atom", "atom", "top", "bot", "not"]
    if depth > 0:
        choices += ["and", "or", "some", "all", "some", "and"]
        if allow_implies:
            choices.append("implies")
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(concepts))
    if kind == "top":
        return Top()
    if kind == "bot":
        return Bot()
    if kind == "not":
        return Not(rand_concept(rng, depth - 1 if depth else 0, concepts, roles,
                                allow_inverse, allow_implies))
    sub = lambda: rand_concept(rng, depth - 1, concepts, roles, allow_inverse, allow_implies)
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    role = rand_role(rng, roles, allow_inverse)
    return Exists(role, sub()) if kind == "some" else Forall(role, sub())


def rand_eli_concept(rng, depth=2, concepts=DEFAULT_CONCEPTS, roles=DEFAULT_ROLES,
                     allow_inverse=True):
    choices = ["atom", "atom", "top"]
    if depth > 0:
        choices += ["and", "some", "some"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(concepts))
    if kind == "top":
        return Top()
    if kind == "and":
        return And(rand_eli_concept(rng, depth - 1, concepts, roles, allow_inverse),
                   rand_eli_concept(rng, depth - 1, concepts, roles, allow_inverse))
    return Exists(rand_role(rng, roles, allow_inverse),
                  rand_eli_concept(rng, depth - 1, concepts, roles, allow_inverse))


def rand_tbox(rng, n_inclusions=3, depth=2, concepts=DEFAULT_CONCEPTS,
              roles=DEFAULT_ROLES, allow_inverse=True, allow_functional=False):
    inclusions = set()
    for _ in range(n_inclusions):
        inclusions.add((rand_concept(rng, depth, concepts, roles, allow_inverse),
                        rand_concept(rng, depth, concepts, roles, allow_inverse)))
    functional = set()
    if allow_functional and rng.random() < 0.5:
        functional.add(rand_role(rng, roles, allow_inverse))
    return TBox(frozenset(inclusions), frozenset(functional))


def _rand_horn_l(rng, depth, concepts, roles, allow_inverse):
    choices = ["atom", "atom", "top"]
    if depth > 0:
        choices += ["and", "or", "some"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(concepts))
    if kind == "top":
        return Top()
    sub = lambda: _rand_horn_l(rng, depth - 1, concepts, roles, allow_inverse)
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    return Exists(rand_role(rng, roles, allow_inverse), sub())


def _rand_horn_r(rng, depth, concepts, roles, allow_inverse):
    choices = ["atom", "atom", "top", "nota"]
    if depth > 0:
        choices += ["and", "implies", "some", "all"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(concepts))
    if kind == "top":
        return Top()
    if kind == "nota":
        return Not(Atom(rng.choice(concepts)))
    sub = lambda: _rand_horn_r(rng, depth - 1, concepts, roles, allow_inverse)
    if kind == "and":
        return And(sub(), sub())
    if kind == "implies":
        return Implies(_rand_horn_l(rng, depth - 1, concepts, roles, allow_inverse), sub())
    role = rand_role(rng, roles, allow_inverse)
    return Exists(role, sub()) if kind == "some" else Forall(role, sub())


def rand_horn_tbox(rng, n_inclusions=3, depth=2, concepts=("A", "B"),
                   roles=("r",), allow_inverse=True):
    """A random Horn-ALCFI TBox without functionality (Horn cap ALCI)."""
    inclusions = set()
    for _ in range(rng.randint(1, n_inclusions)):
        inclusions.add((_rand_horn_l(rng, rng.randint(0, depth), concepts, roles, allow_inverse),
                        _rand_horn_r(rng, rng.randint(0, depth), concepts, roles, allow_inverse)))
    return TBox(frozenset(inclusions), frozenset())


def rand_abox(rng, n_individuals=4, n_assertions=6, concepts=DEFAULT_CONCEPTS,
              roles=DEFAULT_ROLES):
    """A random ABox over `concepts` and `roles`.

    Each assertion is a concept assertion with probability 0.4 and a role
    assertion otherwise. An empty vocabulary means no assertions of that
    kind: with `concepts=()` only role assertions are drawn, and with
    `roles=()` only concept assertions. Both empty raises ValueError. When
    both are non-empty, the draws from `rng` do not depend on this rule.
    """
    if not concepts and not roles:
        raise ValueError("rand_abox needs a concept or a role name")
    inds = [f"a{i}" for i in range(rng.randint(1, n_individuals))]
    cas, ras = set(), set()
    for _ in range(rng.randint(1, n_assertions)):
        if concepts and (not roles or rng.random() < 0.4):
            cas.add((rng.choice(concepts), rng.choice(inds)))
        else:
            ras.add((rng.choice(roles), rng.choice(inds), rng.choice(inds)))
    return ABox(frozenset(cas), frozenset(ras))


def gen_cycle_abox(n: int, symmetric: bool = False) -> ABox:
    """An n-cycle over role r; symmetric adds both edge directions."""
    if n < 1:
        raise ValueError("n must be at least 1")
    names = [f"a{i}" for i in range(n)]
    ras = {("r", names[i], names[(i + 1) % n]) for i in range(n)}
    if symmetric:
        ras |= {("r", names[(i + 1) % n], names[i]) for i in range(n)}
    return ABox(frozenset(), frozenset(ras))


def rand_interpretation(rng, size=4, concepts=DEFAULT_CONCEPTS, roles=DEFAULT_ROLES,
                        named_fraction=1.0):
    n = rng.randint(1, size)
    domain = [f"d{i}" for i in range(n)]
    named = {d for d in domain if rng.random() < named_fraction}
    if not named:
        named = {domain[0]}
    cext = {c: frozenset(d for d in domain if rng.random() < 0.4) for c in concepts}
    rext = {r: frozenset((d, e) for d in domain for e in domain if rng.random() < 0.3)
            for r in roles}
    return Interpretation(frozenset(domain), frozenset(named), cext, rext)


def rand_peq(rng, max_nodes=6, concepts=DEFAULT_CONCEPTS, roles=DEFAULT_ROLES,
             answer_vars=("x",)):
    """A random PEQ over the given answer variables; bound variables get
    fresh names so rectification is exercised but not required."""
    counter = [0]
    budget = [rng.randint(1, max_nodes)]
    all_vars = list(answer_vars)

    def atom():
        if rng.random() < 0.5 or len(all_vars) < 2:
            return PAtom(rng.choice(concepts), (rng.choice(all_vars),))
        return PAtom(rng.choice(roles), (rng.choice(all_vars), rng.choice(all_vars)))

    def go():
        budget[0] -= 1
        if budget[0] <= 0:
            return atom()
        kind = rng.choice(["atom", "and", "or", "exists", "and"])
        if kind == "atom":
            return atom()
        if kind == "exists":
            counter[0] += 1
            v = f"z{counter[0]}"
            all_vars.append(v)
            body = PAnd(atom(), go()) if rng.random() < 0.7 else go()
            all_vars.remove(v)
            return PExists(v, body)
        left, right = go(), go()
        return PAnd(left, right) if kind == "and" else POr(left, right)

    f = go()
    # ensure answer variables occur somewhere
    for v in answer_vars:
        f = PAnd(f, PAtom(rng.choice(concepts), (v,)))
    return PEQ(f, tuple(answer_vars))
