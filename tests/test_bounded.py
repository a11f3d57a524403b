"""Boundedness of S-automata: the on-the-fly memory-machine search and the
run-semigroup closure, plus witness pumping."""

import pytest
from hypothesis import given, settings, strategies as st

from costltl import (
    INF,
    CostAutomaton,
    bounded_closure,
    bounded_formula,
    bounded_onthefly,
    dualize,
    eval_s,
    load_automaton,
    loads_automaton,
    nltl_to_s,
    parse,
    render,
    witness_word,
)
from costltl.automata import S_TOKENS
from costltl.bounded import BoundednessResult, compose_actions
from conftest import AB, EXIT_ON_EMPTY_WORD, corpus, fixture


def test_fixture_s_automata_unbounded():
    # both counting-style S-automata take unboundedly large values
    for name in ("count-letter-s.aut", "blocks-s.aut"):
        aut = load_automaton(fixture(name))
        r1 = bounded_onthefly(aut)
        r2 = bounded_closure(aut)
        assert not r1.bounded, name
        assert not r2.bounded, name


def test_example_formulas():
    phi_bounded = parse("(b | X a | X F a) U# END", AB)
    phi_unbounded = parse("(a | X a | X F a) U# END", AB)
    assert bounded_formula(phi_bounded, AB).bounded
    assert not bounded_formula(phi_unbounded, AB).bounded


def test_methods_agree_on_dualized_corpus_sample():
    for phi in corpus()[:15]:
        aut = nltl_to_s(dualize(phi, AB), AB)
        r1 = bounded_onthefly(aut)
        r2 = bounded_closure(aut)
        assert r1.bounded == r2.bounded, render(phi)


def test_witness_pumping():
    for name in ("count-letter-s.aut", "blocks-s.aut"):
        aut = load_automaton(fixture(name))
        result = bounded_onthefly(aut)
        assert not result.bounded and result.script is not None, name
        for n in range(1, 7):
            u = "".join(witness_word(result.script, n))
            assert eval_s(aut, u) >= n, (name, n, u)


def test_witness_pumping_from_formula():
    phi = parse("(a | X a | X F a) U# END", AB)
    aut = nltl_to_s(dualize(phi, AB), AB)
    result = bounded_onthefly(aut)
    assert not result.bounded
    for n in range(1, 7):
        u = "".join(witness_word(result.script, n))
        assert eval_s(aut, u) >= n, (n, u)


def test_unbounded_verdicts_have_growing_samples():
    # every unbounded verdict on the corpus sample is certified by pumping
    for phi in corpus()[:15]:
        aut = nltl_to_s(dualize(phi, AB), AB)
        result = bounded_onthefly(aut)
        if result.bounded:
            continue
        assert result.script is not None, render(phi)
        for n in (1, 4):
            u = "".join(witness_word(result.script, n))
            assert eval_s(aut, u) >= n, (render(phi), n, u)


def test_compose_actions_per_counter():
    # input is one transition's per-counter token sequences
    assert compose_actions(((), ())) == ("e", "e")
    assert compose_actions((("i", "e"), ("i", "i"))) == ("i", "i")
    assert compose_actions((("cr", "cr"), ("r",))) == ("bot", "r")


def test_checked_everywhere_automaton_is_bounded():
    from costltl import Alphabet, CostAutomaton

    # every letter checks a counter that is never incremented: value 0 on
    # nonempty words, and the empty word is rejected (so not worth infinity)
    aut = CostAutomaton(
        kind="S",
        alphabet=Alphabet("ab"),
        states=("q0", "qf"),
        initial=frozenset({"q0"}),
        final=frozenset({"qf"}),
        counters=1,
        transitions=(
            ("q0", "a", (("cr",),), "q0"),
            ("q0", "b", (("cr",),), "q0"),
            ("q0", "a", (("cr",),), "qf"),
            ("q0", "b", (("cr",),), "qf"),
        ),
    )
    assert eval_s(aut, "abab") == 0
    assert eval_s(aut, "") == 0
    assert bounded_onthefly(aut).bounded
    assert bounded_closure(aut).bounded


def test_unreachable_final_automaton_is_bounded():
    from costltl import Alphabet, CostAutomaton

    # empty language: the value is sup over no runs, 0 everywhere
    aut = CostAutomaton(
        kind="S",
        alphabet=Alphabet("ab"),
        states=("q0", "qf"),
        initial=frozenset({"q0"}),
        final=frozenset({"qf"}),
        counters=1,
        transitions=(("q0", "a", (("i",),), "q0"), ("q0", "b", (("i",),), "q0")),
    )
    assert eval_s(aut, "ab") == 0
    assert bounded_onthefly(aut).bounded
    assert bounded_closure(aut).bounded


def test_empty_word_checked_by_its_exit_is_bounded():
    # the one run on the empty word checks 0 on its exit, and there is no
    # other word
    aut = loads_automaton(EXIT_ON_EMPTY_WORD["S"])
    assert eval_s(aut, "") == 0
    assert bounded_onthefly(aut) == bounded_closure(aut) == BoundednessResult(True, None)


@st.composite
def _one_counter_s_automata(draw):
    """S-automata over {a, b} with 1-3 states, one counter, sequences of
    every S token, and 1-2 exit options on each final state."""
    states = tuple("q%d" % i for i in range(draw(st.integers(1, 3))))
    state = st.sampled_from(states)
    actions = st.tuples(st.lists(st.sampled_from(S_TOKENS), max_size=3).map(tuple))
    final = draw(st.frozensets(state, min_size=1))
    return CostAutomaton(
        kind="S",
        alphabet=AB,
        states=states,
        initial=draw(st.frozensets(state, min_size=1)),
        final=final,
        counters=1,
        transitions=tuple(draw(st.lists(st.tuples(state, st.sampled_from("ab"), actions, state),
                                        min_size=1, max_size=6))),
        exits={q: tuple(draw(st.lists(actions, min_size=1, max_size=2))) for q in sorted(final)},
    )


@settings(max_examples=300, deadline=None)
@given(_one_counter_s_automata())
def test_random_automata_closure_agrees_and_witnesses_pump(aut):
    # the uncapped closure's verdict against the on-the-fly search, whose
    # unbounded verdicts are certified by pumping their witnesses
    result = bounded_onthefly(aut)
    assert bounded_closure(aut).bounded == result.bounded
    if not result.bounded:
        for n in (1, 2, 3):
            assert eval_s(aut, "".join(witness_word(result.script, n))) >= n, n


def test_mixed_fragment_rejected():
    from costltl import Atom, ReleaseGeq, UntilLeq

    mixed = UntilLeq(Atom("a"), ReleaseGeq(Atom("a"), Atom("b")))
    with pytest.raises(ValueError):
        bounded_formula(mixed, AB)
