"""Syntactic-congruence minimization, aperiodicity, and definability."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings

from costltl import (
    CostAutomaton,
    Recognizer,
    dumps_semigroup,
    is_aperiodic,
    is_ltl_definable,
    language_recognizer,
    load_semigroup,
    loads_semigroup,
    ltl_to_b,
    make_semigroup,
    parse,
    syntactic_quotient,
    validate_axioms,
)
from costltl.actions import S_ACTIONS, S_ELEMS
from costltl.core import saturate
from costltl.minimize import _induced_order, congruence_classes
from conftest import (AB, all_words, assert_matches_scan, assert_order_closed,
                      assert_quotient_well_defined, fixture)
from test_classical import LANGUAGES, _counterless_automata


@pytest.fixture(scope="module")
def counting_rec():
    return load_semigroup(fixture("counting.sg"))[1]


@pytest.fixture(scope="module")
def parity_rec():
    return load_semigroup(fixture("parity.sg"))[1]


def test_parity_minimizes_to_four_classes(parity_rec):
    q = syntactic_quotient(parity_rec)
    assert len(q.classes) == 4
    sg = q.recognizer.semigroup
    a, aa = q.class_of["a"], q.class_of["aa"]
    z, za = q.class_of["z"], q.class_of["za"]
    # stated identities of the minimal semigroup
    assert sg.mul(aa, a) == a
    assert sg.mul(za, a) == z
    assert sg.sharp[aa] == z


def test_counting_minimizes_to_three_classes(counting_rec):
    q = syntactic_quotient(counting_rec)
    assert len(q.classes) == 3
    assert validate_axioms(q.recognizer.semigroup) == []


def _padded_counting(counting_rec):
    """The counting semigroup with a fourth element behaving exactly like a
    (same rows, same ideal side); its classes must collapse back to three."""
    sg = counting_rec.semigroup
    elems = list(sg.elements) + ["a2"]

    def lift(x):
        return "a" if x == "a2" else x

    # every product involving the duplicate collapses into the original
    # elements, so associativity is inherited and a2 is never generated
    product = {(x, y): sg.mul(lift(x), lift(y)) for x in elems for y in elems}
    order = [(x, y) for x in elems for y in elems
             if x != y and sg.le(lift(x), lift(y)) and (x, y) != ("a2", "a")
             and (x, y) != ("a", "a2")]
    sharp = {e: sg.sharp[e] for e in sg.sharp}
    padded = make_semigroup(elems, product, order, sharp, None)
    return Recognizer(padded, dict(counting_rec.h), counting_rec.ideal,
                      counting_rec.height)


def test_padded_variant_reminimizes_to_three(counting_rec):
    rec = _padded_counting(counting_rec)
    assert validate_axioms(rec.semigroup) == []
    q = syntactic_quotient(rec)
    assert len(q.classes) == 3


def test_quotient_stays_in_generated_part():
    # contexts and escapes come from the generated part only: without an
    # image of c no word satisfies the formula, so one class remains (a
    # context built from c's elements would leave the generated part)
    rec = language_recognizer(ltl_to_b(parse("F (c & X a)", "abc"), "abc"))
    assert len(rec.semigroup.elements) == 8
    assert len(syntactic_quotient(rec).classes) == 5
    no_c = replace(rec, h={a: x for a, x in rec.h.items() if a != "c"})
    assert len(syntactic_quotient(no_c).classes) == 1


def test_minimization_is_idempotent(parity_rec, counting_rec):
    for rec in (parity_rec, counting_rec):
        q = syntactic_quotient(rec)
        q2 = syntactic_quotient(q.recognizer)
        assert len(q2.classes) == len(q.classes)


def test_aperiodicity(counting_rec, parity_rec):
    ok, k = is_aperiodic(counting_rec.semigroup)
    assert ok and k <= len(counting_rec.semigroup.elements)
    bad, witness = is_aperiodic(parity_rec.semigroup)
    assert not bad
    assert witness in parity_rec.semigroup.elements


def test_definability(counting_rec, parity_rec):
    assert is_ltl_definable(counting_rec)
    assert not is_ltl_definable(parity_rec)


def test_quotients_recognize_like_scan(counting_rec, parity_rec):
    # the quotients above, checked against the per-threshold scan
    q = syntactic_quotient(counting_rec)
    quotients = [q.recognizer, syntactic_quotient(q.recognizer).recognizer,
                 syntactic_quotient(parity_rec).recognizer,
                 syntactic_quotient(_padded_counting(counting_rec)).recognizer]
    for rec in quotients:
        for u in all_words(5, min_len=1):
            if set(u) <= rec.h.keys():
                assert_matches_scan(rec, u)


# The quotients of the fixtures, as dumps_semigroup wrote them when contexts
# multiplied by every generated element: classes, order and sharp.
_FIXTURE_QUOTIENTS = {
    "counting.sg": ((("bot",), ("a",), ("b",)), """costltl-format 1
semigroup
elements bot a b
neutral b
product bot : bot bot bot
product a : bot a a
product b : bot a b
order bot a
sharp bot bot
sharp a bot
sharp b b
h a a
h b b
ideal bot
height 9
"""),
    "parity.sg": ((("a",), ("aa",), ("z",), ("za",)), """costltl-format 1
semigroup
elements a aa z za
product a : aa a za z
product aa : a aa z za
product z : za z z za
product za : z za za z
order z aa
order za a
sharp aa z
sharp z z
h a a
ideal a z za
height 12
"""),
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_QUOTIENTS))
def test_fixture_quotients_are_pinned(name):
    q = syntactic_quotient(load_semigroup(fixture(name))[1])
    classes, text = _FIXTURE_QUOTIENTS[name]
    assert q.classes == classes
    assert dumps_semigroup(q.recognizer.semigroup, q.recognizer) == text
    assert loads_semigroup(text) == (q.recognizer.semigroup, q.recognizer)


def _assert_generators_suffice(rec):
    # the classes and the order of the quotient, closed over the generators
    # that saturation hands back, are those closed over every generated
    # element and over every class, and the quotient passes its axioms; its
    # table and sharp hold for every member, and both orders are closed
    sg = rec.semigroup
    generated = set(saturate(rec.h.values(), sg.mul, sg.sharp.__getitem__, []))
    elems = tuple(x for x in sg.elements if x in generated)
    q = syntactic_quotient(rec)
    assert list(q.classes) == congruence_classes(sg, rec.ideal, elems, elems)
    qsg = q.recognizer.semigroup
    assert qsg.leq == _induced_order(qsg.elements, qsg.mul, qsg.sharp, qsg.elements)
    assert validate_axioms(qsg) == []
    assert_quotient_well_defined(rec, q)
    assert_order_closed(sg)
    assert_order_closed(qsg)


def test_generators_suffice_on_fixtures_and_languages(counting_rec, parity_rec):
    recs = [counting_rec, parity_rec, _padded_counting(counting_rec)]
    recs += [language_recognizer(ltl_to_b(parse(text, AB), AB)) for text, _ in LANGUAGES]
    recs.append(language_recognizer(ltl_to_b(parse("F (c & X a)", "abc"), "abc")))
    for rec in recs:
        _assert_generators_suffice(rec)


@settings(max_examples=60, deadline=None)
@given(_counterless_automata())
def test_generators_suffice_on_random_language_recognizers(aut):
    _assert_generators_suffice(language_recognizer(aut))


def test_generators_suffice_on_action_recognizers():
    # every image of a and b in the action semigroup, under every
    # downward-closed ideal: on some of these the sharps are needed as
    # generators, the letter images alone give other classes and orders
    ideals = {frozenset(x for x in S_ELEMS if any(S_ACTIONS.le(x, t) for t in tops))
              for r in range(len(S_ELEMS) + 1) for tops in itertools.combinations(S_ELEMS, r)}
    for ha, hb in itertools.product(S_ELEMS, repeat=2):
        for ideal in ideals:
            _assert_generators_suffice(Recognizer(S_ACTIONS, {"a": ha, "b": hb}, ideal, 3))


def test_orders_are_reflexive_and_transitive_by_construction():
    # validate_axioms leaves the closure of the order out: every constructor
    # makes it, make_semigroup and the quotient by order_closure and
    # language_recognizer by taking the discrete order
    loaded = [load_semigroup(fixture(name)) for name in ("counting.sg", "parity.sg", "saction.sg")]
    recs = [rec for _, rec in loaded if rec is not None]
    recs += [language_recognizer(ltl_to_b(parse(text, AB), AB)) for text, _ in LANGUAGES]
    sgs = [sg for sg, _ in loaded] + [S_ACTIONS] + [rec.semigroup for rec in recs]
    sgs += [syntactic_quotient(rec).recognizer.semigroup for rec in recs]
    for sg in sgs:
        assert_order_closed(sg)


def _random_counterless_automaton(rng):
    """A seeded draw of the _counterless_automata shape: B or S, 1-4 states,
    up to 8 distinct transitions over {a, b}, any initial and final states."""
    states = tuple("q%d" % i for i in range(rng.randint(1, 4)))
    edges = [(p, a, (), q) for p in states for a in "ab" for q in states]
    transitions = rng.sample(edges, rng.randint(0, min(8, len(edges))))
    return CostAutomaton(kind=rng.choice("BS"), alphabet=AB, states=states,
                         initial=frozenset(q for q in states if rng.random() < 0.5),
                         final=frozenset(q for q in states if rng.random() < 0.5),
                         counters=0, transitions=tuple(transitions))


def _quotient_inputs(count, seed):
    """(label, recognizer) pairs: the fixtures, the padded counting
    semigroup, the LANGUAGES recognizers, then count seeded draws of
    counter-free automata."""
    rng = random.Random(seed)
    inputs = [(name, load_semigroup(fixture(name))[1]) for name in ("counting.sg", "parity.sg")]
    inputs.append(("padded counting", _padded_counting(inputs[0][1])))
    inputs += [(text, language_recognizer(ltl_to_b(parse(text, AB), AB)))
               for text, _ in LANGUAGES]
    for k in range(count):
        aut = _random_counterless_automaton(rng)
        inputs.append(("draw %d" % k, language_recognizer(aut)))
    return inputs


def test_quotient_outputs_are_pinned():
    """sha256 of each quotient's dump, classes and class map and of each
    definability verdict, pinned when the class table multiplied every
    member pair: a table filled from one member per class must agree."""
    lines = []
    for label, rec in _quotient_inputs(1500, 32):
        q = syntactic_quotient(rec)
        lines += [label, dumps_semigroup(q.recognizer.semigroup, q.recognizer), repr(q.classes),
                  repr(sorted(q.class_of.items())), str(is_ltl_definable(rec))]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d4368fe9c2c629395f89b161b29ad5cc8b9ca3fd110e3685b825da429cc96fbb"
