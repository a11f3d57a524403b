"""Reference semantics: satisfaction and the inf/sup valuations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from costltl import INF, dualize, models, parse, sem_inf, sem_sup
from costltl.formula import (END, And, Atom, Next, Or, ReleaseGeq, Until,
                             UntilLeq, false_formula, true_formula)
from conftest import AB, all_words, corpus, scan_sem_inf, scan_sem_sup


def formulas(depth, counted):
    """Formulae over {a, b} of depth at most `depth` whose bounded operator
    is `counted`: UntilLeq gives LTL<=, ReleaseGeq gives nLTL<=."""
    leaves = st.sampled_from([Atom("a"), Atom("b"), END])
    if depth == 0:
        return leaves
    sub = formulas(depth - 1, counted)
    binary = st.sampled_from([And, Or, Until, counted])
    return st.one_of(leaves, st.builds(Next, sub),
                     st.builds(lambda op, left, right: op(left, right), binary, sub, sub))


def test_counting_formula_counts_letters():
    phi = parse("!a U# END", AB)
    for u in all_words(6):
        assert sem_inf(phi, u) == u.count("a"), u


def test_end_marker():
    phi = parse("END", AB)
    assert sem_inf(phi, "") == 0
    assert sem_inf(phi, "ab") == INF
    assert models("ab", 0, phi, i=2)


def test_boolean_constants():
    assert sem_inf(true_formula(AB), "abba") == 0
    assert sem_inf(false_formula(AB), "abba") == INF
    assert sem_inf(false_formula(AB), "") == INF


def test_until_leq_budget_zero_is_plain_until():
    phi = parse("a U# b", AB)
    plain = parse("a U b", AB)
    for u in all_words(5):
        assert models(u, 0, phi) == models(u, 0, plain), u


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab", max_size=6), st.integers(0, 6))
def test_until_leq_monotone_in_budget(u, n):
    phi = parse("(b | X a) U# END", AB)
    if models(u, n, phi):
        assert models(u, n + 1, phi)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab", max_size=6), st.integers(0, 6))
def test_release_geq_antitone_in_budget(u, n):
    phi = parse("a R# b", AB)
    if models(u, n + 1, phi):
        assert models(u, n, phi)


def test_sem_inf_is_least_satisfying_budget():
    phi = parse("(b | X F a) U# END", AB)
    for u in all_words(5):
        v = sem_inf(phi, u)
        if v != INF:
            assert models(u, v, phi)
            assert v == 0 or not models(u, v - 1, phi)


def test_sem_sup_is_greatest_satisfying_budget():
    phi = parse("a R# b", AB)
    for u in all_words(5):
        v = sem_sup(phi, u)
        if v == INF:
            assert models(u, len(u) + 5, phi)
        else:
            assert not models(u, v + 1, phi)
            assert v == 0 or models(u, v, phi)


def test_release_geq_counts_on_letter_words():
    # sup-counterpart of letter counting: the dual of !a U# END
    phi = dualize(parse("!a U# END", AB), AB)
    for u in all_words(6):
        assert sem_sup(phi, u) == u.count("a"), u


def test_valuations_reject_wrong_fragment():
    with pytest.raises(ValueError):
        sem_inf(parse("a R# b", AB), "ab")
    with pytest.raises(ValueError):
        sem_sup(parse("a U# b", AB), "ab")


def test_position_out_of_range():
    with pytest.raises(ValueError):
        models("ab", 0, parse("a", AB), i=3)


@settings(max_examples=400, deadline=None)
@given(formulas(5, UntilLeq), formulas(5, ReleaseGeq), st.text(alphabet="ab", max_size=8))
def test_value_table_matches_per_budget_scan(phi, chi, u):
    # an LTL<= formula, its dual and an nLTL<= formula, so that U, U# and
    # R# all meet the oracle; a dual's R# always sits beside its target's
    # refutation at the start, which a direct R# need not
    psi = dualize(phi, AB)
    for w in (u, ""):
        assert sem_inf(phi, w) == scan_sem_inf(phi, w), (phi, w)
        assert sem_sup(psi, w) == scan_sem_sup(psi, w), (psi, w)
        assert sem_sup(chi, w) == scan_sem_sup(chi, w), (chi, w)


def test_value_table_matches_scan_on_corpus():
    for phi in corpus():
        psi = dualize(phi, AB)
        for u in all_words(6):
            assert sem_inf(phi, u) == scan_sem_inf(phi, u), (phi, u)
            assert sem_sup(psi, u) == scan_sem_sup(psi, u), (psi, u)


def test_letter_counting_on_a_long_word():
    # every start walks to the end of the word: the quadratic worst case
    u = "".join(random.Random(13).choice("ab") for _ in range(1200))
    phi = parse("!a U# END", AB)
    assert sem_inf(phi, u) == u.count("a")
    assert sem_sup(dualize(phi, AB), u) == u.count("a")
