"""Counter-action algebras: the B-side valuation and the 7-element S-side
stabilization semigroup (checked exhaustively against its axioms, and
bit-exactly against the shipped fixture table)."""

import itertools
import random

import pytest

from costltl import Alphabet, CostAutomaton, contract_b, load_semigroup, validate_axioms
from costltl.actions import (
    S_ELEMS,
    contract_max,
    s_leq,
    s_product,
    s_sharp,
    vec_product,
    vec_sharp,
    vec_sharp_defined,
)
from costltl.semigroup import make_semigroup
from conftest import fixture


def test_associativity_all_triples():
    for x, y, z in itertools.product(S_ELEMS, repeat=3):
        assert s_product(s_product(x, y), z) == s_product(x, s_product(y, z))


def test_sharp_axioms_on_idempotents():
    idems = [x for x in S_ELEMS if s_product(x, x) == x]
    assert set(idems) == {"w", "i", "e", "r", "crw", "bot"}
    for e in idems:
        es = s_sharp(e)
        assert s_product(es, e) == es
        assert s_product(e, es) == es
        assert s_product(es, es) == es
        assert s_sharp(es) == es
        assert s_leq(es, e)


def test_sharp_undefined_on_cr():
    assert s_product("cr", "cr") == "bot"
    with pytest.raises(ValueError):
        s_sharp("cr")


def test_order_compatibility():
    for x, y in itertools.product(S_ELEMS, repeat=2):
        if not s_leq(x, y):
            continue
        for z in S_ELEMS:
            assert s_leq(s_product(z, x), s_product(z, y))
            assert s_leq(s_product(x, z), s_product(y, z))


def test_order_is_partial_order():
    for x in S_ELEMS:
        assert s_leq(x, x)
    for x, y in itertools.product(S_ELEMS, repeat=2):
        if x != y:
            assert not (s_leq(x, y) and s_leq(y, x))


def test_fixture_table_matches_code_tables():
    sg, rec = load_semigroup(fixture("saction.sg"))
    assert rec is None
    assert tuple(sg.elements) == S_ELEMS
    for x, y in itertools.product(S_ELEMS, repeat=2):
        assert sg.mul(x, y) == s_product(x, y), (x, y)
        assert sg.le(x, y) == s_leq(x, y), (x, y)
    for e in sg.idempotents():
        assert sg.sharp[e] == s_sharp(e)
    errors = validate_axioms(sg)
    assert errors == []


def test_random_single_entry_mutations_rejected():
    sg, _ = load_semigroup(fixture("saction.sg"))
    rng = random.Random(20260823)
    rejected = 0
    tried = 0
    while rejected < 20 and tried < 200:
        tried += 1
        product = dict(sg.product)
        key = rng.choice(sorted(product))
        new = rng.choice(sg.elements)
        if new == product[key]:
            continue
        product[key] = new
        mutant = make_semigroup(sg.elements, product,
                                [p for p in sg.leq], sg.sharp, sg.neutral)
        if validate_axioms(mutant):
            rejected += 1
    assert rejected == 20, "only %d/%d mutations were rejected" % (rejected, tried)


def test_b_sequence_valuation():
    # contract_b's K is the greatest value one sequence checks from 0, on a
    # transition or on an exit
    for seq, value in [((), 0), (("ic", "ic", "ic"), 3), (("ic", "r", "ic"), 1),
                       (("e", "ic", "e"), 1)]:
        on_transition = CostAutomaton("B", Alphabet("a"), ("q",), frozenset("q"),
                                      frozenset("q"), 1, (("q", "a", (seq,), "q"),))
        on_exit = CostAutomaton("B", Alphabet("a"), ("q",), frozenset("q"),
                                frozenset("q"), 1, (), {"q": ((seq,),)})
        assert contract_b(on_transition)[1] == value
        assert contract_b(on_exit)[1] == value


def test_contract_max_picks_dominant_action():
    assert contract_max(()) == "e"
    assert contract_max(("e", "e")) == "e"
    assert contract_max(("e", "ic")) == "ic"
    assert contract_max(("ic", "r")) == "r"


def test_vector_actions_componentwise():
    x = ("i", "cr")
    y = ("e", "i")
    assert vec_product(x, y) == (s_product("i", "e"), s_product("cr", "i"))
    assert not vec_sharp_defined(x)
    assert vec_sharp_defined(("i", "e"))
    assert vec_sharp(("i", "e")) == ("w", "e")
