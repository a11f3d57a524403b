"""Counter-action algebras: the B-side valuation and the 7-element S-side
stabilization semigroup (checked exhaustively against its axioms, and
bit-exactly against the shipped fixture table)."""

import itertools
import random

from costltl import Alphabet, CostAutomaton, contract_b, load_semigroup, validate_axioms
from costltl.actions import S_ACTIONS, S_ELEMS, contract_max, vec_product
from costltl.semigroup import make_semigroup, omega_sharp
from conftest import fixture

mul, le = S_ACTIONS.mul, S_ACTIONS.le


def test_associativity_all_triples():
    for x, y, z in itertools.product(S_ELEMS, repeat=3):
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_sharp_axioms_on_idempotents():
    idems = S_ACTIONS.idempotents()
    assert set(idems) == {"w", "i", "e", "r", "crw", "bot"}
    assert S_ACTIONS.sharp.keys() == set(idems)
    for e in idems:
        es = S_ACTIONS.sharp[e]
        assert mul(es, e) == es
        assert mul(e, es) == es
        assert mul(es, es) == es
        assert S_ACTIONS.sharp[es] == es
        assert le(es, e)


def test_sharp_undefined_on_cr():
    assert mul("cr", "cr") == "bot"
    assert "cr" not in S_ACTIONS.sharp


def test_omega_sharp_stabilizes_every_action():
    # a loop action is stabilized as (x^omega)#: cr, whose square is bot,
    # stabilizes to bot
    assert tuple(omega_sharp(S_ACTIONS, x) for x in S_ELEMS) == (
        "w", "w", "e", "r", "crw", "bot", "bot")


def test_order_compatibility():
    for x, y in itertools.product(S_ELEMS, repeat=2):
        if not le(x, y):
            continue
        for z in S_ELEMS:
            assert le(mul(z, x), mul(z, y))
            assert le(mul(x, z), mul(y, z))


def test_order_is_partial_order():
    for x in S_ELEMS:
        assert le(x, x)
    for x, y in itertools.product(S_ELEMS, repeat=2):
        if x != y:
            assert not (le(x, y) and le(y, x))
        for z in S_ELEMS:
            if le(x, y) and le(y, z):
                assert le(x, z)


def test_fixture_table_matches_code_tables():
    sg, rec = load_semigroup(fixture("saction.sg"))
    assert rec is None
    # dataclass equality: elements, product table, order, sharp and neutral
    assert sg == S_ACTIONS
    assert S_ACTIONS.neutral == "e"
    assert validate_axioms(S_ACTIONS) == []


def test_random_single_entry_mutations_rejected():
    sg, _ = load_semigroup(fixture("saction.sg"))
    rng = random.Random(20260823)
    rejected = 0
    tried = 0
    while rejected < 20 and tried < 200:
        tried += 1
        product = {(x, y): sg.mul(x, y) for x in sg.elements for y in sg.elements}
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
    assert vec_product(x, y) == (mul("i", "e"), mul("cr", "i"))
    assert vec_product((), ()) == ()
