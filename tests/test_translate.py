"""Formula-to-automaton compilation: exact on the inf side, correct up to
cost equivalence on the sup side."""

import hashlib
import random

import pytest

from costltl import (
    END,
    INF,
    And,
    Atom,
    Next,
    Or,
    ReleaseGeq,
    Until,
    dualize,
    dumps_automaton,
    eval_b,
    eval_s,
    ltl_to_b,
    nltl_to_s,
    parse,
    rename_states,
    render,
    sem_inf,
    sem_sup,
    validate,
)
from costltl.formula import size, subformulas
from costltl.translate import _universe
from conftest import AB, all_words, corpus


def test_universe_is_numbered_in_size_then_render_order():
    # bit i of a pseudo-state stands for the i-th node, so the compiled
    # output depends on this order; render breaks only ties in size
    for phi in corpus():
        for f in (phi, dualize(phi, AB)):
            nodes = _universe(subformulas(f))
            assert len(set(nodes)) == len(nodes), render(f)
            assert nodes == sorted(nodes, key=lambda n: (size(n), render(n))), render(f)


def test_inf_side_exact_on_sample():
    words = all_words(5)
    for phi in corpus()[:10]:
        aut = ltl_to_b(phi, AB)
        assert validate(aut) == []
        for u in words:
            assert eval_b(aut, u) == sem_inf(phi, u), (render(phi), u)


def test_sup_side_within_one_on_sample():
    words = all_words(5)
    for phi in corpus()[:10]:
        psi = dualize(phi, AB)
        aut = nltl_to_s(psi, AB)
        assert validate(aut) == []
        for u in words:
            want = sem_sup(psi, u)
            got = eval_s(aut, u)
            if want == INF or got == INF:
                assert got == want, (render(psi), u)
            else:
                assert abs(got - want) <= 1, (render(psi), u, got, want)


def test_empty_word_values_match():
    for phi in corpus():
        aut = ltl_to_b(phi, AB)
        assert eval_b(aut, "") == sem_inf(phi, ""), render(phi)
        psi = dualize(phi, AB)
        s_aut = nltl_to_s(psi, AB)
        assert eval_s(s_aut, "") == sem_sup(psi, ""), render(psi)


def test_compiled_automata_are_well_formed():
    for phi in corpus():
        aut = ltl_to_b(phi, AB)
        assert aut.kind == "B"
        assert validate(aut) == []
        s_aut = nltl_to_s(dualize(phi, AB), AB)
        assert s_aut.kind == "S"
        assert validate(s_aut) == []


def test_fragment_mismatch_rejected():
    with pytest.raises(ValueError):
        ltl_to_b(parse("a R# b", AB), AB)
    with pytest.raises(ValueError):
        nltl_to_s(parse("a U# b", AB), AB)



def _criterion9_distinct(count):
    """The first `count` distinct formulae of criterion 9's seed-90 draw."""
    from test_acceptance import _random_formula

    rng = random.Random(90)
    out, seen = [], set()
    while len(out) < count:
        phi = _random_formula(rng, 4)
        # criterion 9 draws a word after each formula
        "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        if phi not in seen:
            seen.add(phi)
            out.append(phi)
    return out


def _random_nltl(rng, depth):
    """A random nLTL<= formula that uses R# directly, not through dualize."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), END])
    kind = rng.choice([And, Or, Next, Until, ReleaseGeq, ReleaseGeq])
    if kind is Next:
        return Next(_random_nltl(rng, depth - 1))
    return kind(_random_nltl(rng, depth - 1), _random_nltl(rng, depth - 1))


def _nltl_distinct(count):
    """The first `count` distinct formulae of a seed-91 depth-4 draw."""
    rng = random.Random(91)
    out, seen = [], set()
    while len(out) < count:
        phi = _random_nltl(rng, 4)
        if phi not in seen:
            seen.add(phi)
            out.append(phi)
    return out


def _renamed_dump(aut):
    # a translation names its states q0, q1, ... as it builds them, so it
    # writes as it is
    assert rename_states(aut) == aut
    return dumps_automaton(aut).encode()


def _dumps_digest(formulas):
    digest = hashlib.sha256()
    for phi in formulas:
        digest.update(_renamed_dump(ltl_to_b(phi, AB)))
        digest.update(_renamed_dump(nltl_to_s(dualize(phi, AB), AB)))
    return digest.hexdigest()


def _s_dumps_digest(formulas):
    digest = hashlib.sha256()
    for phi in formulas:
        digest.update(_renamed_dump(nltl_to_s(phi, AB)))
    return digest.hexdigest()


# sha256 of the renamed dumps of ltl_to_b(phi) and nltl_to_s(dualize(phi)),
# recorded before formula nodes were interned: any change to the translation
# must leave every compiled automaton byte-identical.
@pytest.mark.parametrize("formulas, expected", [
    pytest.param(corpus,
                 "d73604146f8090c240e7da033bc3f53fb36a130a56d613850cda663c9a649242",
                 id="corpus"),
    pytest.param(lambda: _criterion9_distinct(60),
                 "fd19fa265cda1613aa2ec500e8e84307a1ac078a84855b20594cdc514a37032c",
                 id="criterion9"),
])
def test_compiled_automata_are_byte_identical(formulas, expected):
    assert _dumps_digest(formulas()) == expected


# the same digest over a larger criterion 9 pool, and the digest of the
# renamed dumps of nltl_to_s(phi) on formulae that use R# directly, where
# R# members surface inside the end-of-word resolution in shapes that dual
# formulae do not take; both recorded before pseudo-states became bit masks
def test_compiled_automata_are_byte_identical_on_larger_pool():
    assert _dumps_digest(_criterion9_distinct(300)) == "79104e9d8428552c9e29c1a0d6e99d5a68ccc668cf493893de51d8884b08995e"


def test_direct_release_automata_are_byte_identical():
    formulas = _nltl_distinct(200)
    assert sum(isinstance(s, ReleaseGeq) for phi in formulas for s in subformulas(phi)) > 200
    assert _s_dumps_digest(formulas) == "4e8d5f6e30612eb9737c4477edc1287a341ee8663da9c1d174fe285603c1a337"
