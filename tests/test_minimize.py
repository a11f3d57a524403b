"""Syntactic-congruence minimization, aperiodicity, and definability."""

from dataclasses import replace

import pytest

from costltl import (
    Recognizer,
    is_aperiodic,
    is_ltl_definable,
    language_recognizer,
    load_semigroup,
    ltl_to_b,
    make_semigroup,
    parse,
    syntactic_quotient,
    validate_axioms,
)
from conftest import all_words, assert_matches_scan, fixture


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
