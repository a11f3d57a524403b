"""Boundedness of S-automata: the on-the-fly memory-machine search and the
run-semigroup closure, plus witness pumping."""

import hashlib
import itertools
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from costltl import (
    INF,
    CostAutomaton,
    bounded_closure,
    bounded_formula,
    bounded_onthefly,
    classify,
    dualize,
    eval_s,
    formula_automaton,
    instantiate,
    load_automaton,
    load_semigroup,
    loads_automaton,
    ltl_to_b,
    nltl_to_s,
    parse,
    parse_expr,
    rename_states,
    render,
    render_expr,
    witness_word,
)
from costltl.automata import S_TOKENS
from costltl.actions import S_ACTIONS, S_ELEMS
from costltl.bounded import (GOOD, MAX_ONTHEFLY_CONFIGS, BoundednessResult, _Actions, _closure,
                             _elem_product, _elem_sharp, _elem_unbounded, _Rows, _run_effects,
                             compose_actions, run_semigroup_closure)
from costltl.core import saturate
from conftest import (AB, EXIT_ON_EMPTY_WORD, corpus, elem_triples, fixture, one_shot_elem_sharp,
                      pairwise_saturate, stack_bfs_onthefly, triple_elem_product)
from test_classical import LANGUAGES, _counterless_automata
from test_translate import _criterion9_distinct


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
            u = witness_word(result.script, n)
            assert eval_s(aut, u) >= n, (name, n, u)


def test_witness_pumping_from_formula():
    phi = parse("(a | X a | X F a) U# END", AB)
    aut = nltl_to_s(dualize(phi, AB), AB)
    result = bounded_onthefly(aut)
    assert not result.bounded
    for n in range(1, 7):
        u = witness_word(result.script, n)
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
            u = witness_word(result.script, n)
            assert eval_s(aut, u) >= n, (render(phi), n, u)


def _rendered(script):
    return "".join(map(render_expr, script))


def test_witnesses_are_sharp_expressions():
    # every witness reads back through parse_expr and pumps to the same words
    for phi in corpus():
        result = bounded_onthefly(nltl_to_s(dualize(phi, AB), AB))
        if result.bounded or result.script == ():
            continue
        expr = parse_expr(_rendered(result.script))
        for n in (1, 2, 3):
            assert instantiate(expr, 1, n) == witness_word(result.script, n), render(phi)


def test_witness_text_reads_back_unchanged():
    # keeping an omega apart from a following letter s leaves the
    # omega-sharp witnesses as they were, and they render back from a parse
    for text, witness in [("(a | X a | X F a) U# END", "bb^ws"),
                          ("(a U# END) | (b U# END)", "a(ab)^ws"),
                          ("(a U# END) & (b U# END)", "aa^ws")]:
        script = bounded_onthefly(nltl_to_s(dualize(parse(text, AB), AB), AB)).script
        assert _rendered(script) == witness, text
        assert render_expr(parse_expr(witness + "a^w s")) == witness + "a^w(s)"


def test_witnesses_classify_unbounded_on_counting_semigroup():
    _, counting = load_semigroup(fixture("counting.sg"))
    phi = parse("!a U# END", AB)
    for aut in (load_automaton(fixture("count-letter-s.aut")),
                nltl_to_s(dualize(phi, AB), AB)):
        text = _rendered(bounded_onthefly(aut).script)
        assert classify(counting, parse_expr(text)) == "F-infinity", text


def test_witness_over_digit_alphabet_reads_back():
    # parse_expr reads digits and other non-alphabetic letters too
    with open(fixture("count-letter-s.aut"), encoding="utf-8") as fh:
        text = fh.read().replace("alphabet ab", "alphabet 01")
    text = text.replace(" a ", " 0 ").replace(" b ", " 1 ")
    script = bounded_onthefly(loads_automaton(text)).script
    rendered = _rendered(script)
    assert rendered == "0^ws0"
    expr = parse_expr(rendered)
    for n in (1, 2, 3):
        assert instantiate(expr, 1, n) == witness_word(script, n) == "0" * (n + 1)


def test_compose_actions_per_counter():
    # input is one transition's per-counter token sequences
    assert compose_actions(((), ())) == ("e", "e")
    assert compose_actions((("i", "e"), ("i", "i"))) == ("i", "i")
    assert compose_actions((("cr", "cr"), ("r",))) == ("bot", "r")


def test_pumped_check_reset_loop_is_bounded():
    # counter 2, checked on exit, grows only on the a-loop that checks and
    # resets counter 1; pumping that loop checks counter 1 just after its
    # reset. cr is not idempotent (cr.cr = bot), so the loop stabilizes to
    # (cr^omega)# = bot; kept as cr it would compose with a block of
    # increments w to the good action w.cr = r, and the closure would
    # wrongly answer unbounded
    aut = CostAutomaton("S", AB, ("q",), frozenset("q"), frozenset("q"), 2,
                        (("q", "a", ((), ()), "q"), ("q", "b", (("i",), ("r",)), "q"),
                         ("q", "a", (("cr",), ("i",)), "q")),
                        {"q": (((), ("cr",)),)})
    assert bounded_onthefly(aut) == bounded_closure(aut) == BoundednessResult(True, None)


def test_compose_actions_rejects_non_atomic_token():
    # w is an element of the action semigroup but no atomic action
    with pytest.raises(ValueError, match="unknown atomic S action"):
        compose_actions((("w",),))


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


def _epsilon_automaton(loop):
    # fixtures/epsilon-s.aut with its cr loop on a replaced: one state, exit
    # e and an epsilon line of 3, which alone values the empty word
    with open(fixture("epsilon-s.aut"), encoding="utf-8") as fh:
        return loads_automaton(fh.read().replace("trans q a q : cr", "trans q a q : " + loop))


@pytest.mark.parametrize("loop, witness", [("cr", None), ("r", "a"), ("i", "a"), ("-", "a")])
def test_epsilon_line_alone_decides_the_empty_word(loop, witness):
    # the exit of the initial state checks nothing, so the empty word would
    # witness unboundedness if a search valued it by the exit; only words
    # with a letter are searched
    aut = _epsilon_automaton(loop)
    assert eval_s(aut, "") == 3
    result = bounded_onthefly(aut)
    assert (None if result.bounded else _rendered(result.script)) == witness
    assert bounded_closure(aut).bounded == result.bounded
    assert stack_bfs_onthefly(aut) == result
    if witness is None:
        assert all(eval_s(aut, "a" * n) == 0 for n in range(1, 6))
    else:
        for n in (1, 2, 3):
            assert eval_s(aut, witness_word(result.script, n)) >= n, n


@st.composite
def _s_automata(draw, counters, max_states=3, max_transitions=6, max_tokens=3):
    """S-automata over {a, b} with 1 to max_states states, the given number
    of counters, sequences of every S token, 1-2 exit options on each final
    state, and perhaps an epsilon value that overrides the exits on the
    empty word."""
    states = tuple("q%d" % i for i in range(draw(st.integers(1, max_states))))
    state = st.sampled_from(states)
    sequence = st.lists(st.sampled_from(S_TOKENS), max_size=max_tokens).map(tuple)
    actions = st.tuples(*[sequence] * counters)
    final = draw(st.frozensets(state, min_size=1))
    return CostAutomaton(
        kind="S",
        alphabet=AB,
        states=states,
        initial=draw(st.frozensets(state, min_size=1)),
        final=final,
        counters=counters,
        transitions=tuple(draw(st.lists(st.tuples(state, st.sampled_from("ab"), actions, state),
                                        min_size=1, max_size=max_transitions))),
        exits={q: tuple(draw(st.lists(actions, min_size=1, max_size=2))) for q in sorted(final)},
        epsilon_value=draw(st.sampled_from((None, 0, 1, 3, INF))),
    )


def _assert_closure_agrees_and_witness_pumps(aut):
    # the uncapped closure's verdict against the on-the-fly search, whose
    # unbounded verdicts are certified by pumping their witnesses
    result = bounded_onthefly(aut)
    assert bounded_closure(aut).bounded == result.bounded
    if not result.bounded:
        for n in (1, 2, 3):
            assert eval_s(aut, witness_word(result.script, n)) >= n, n


@settings(max_examples=300, deadline=None)
@given(_s_automata(1))
def test_random_automata_closure_agrees_and_witnesses_pump(aut):
    _assert_closure_agrees_and_witness_pumps(aut)


# A bounded draw on which the search ran out of its budget before it dropped
# the configurations whose bottom action is no longer good.
_BUDGET_DRAW = CostAutomaton(
    kind="S",
    alphabet=AB,
    states=("q0", "q1"),
    initial=frozenset({"q0"}),
    final=frozenset({"q0"}),
    counters=2,
    transitions=(
        ("q0", "a", (("i",), ("e", "cr")), "q1"),
        ("q0", "a", ((), ()), "q0"),
        ("q0", "a", (("cr", "e"), ("i",)), "q1"),
        ("q1", "a", ((), ()), "q0"),
    ),
    exits={"q0": ((("cr",), ()),)},
)


@settings(max_examples=200, deadline=None)
@given(_s_automata(2, max_states=2, max_transitions=5, max_tokens=2))
@example(_BUDGET_DRAW)
def test_random_two_counter_automata_closure_agrees_and_witnesses_pump(aut):
    _assert_closure_agrees_and_witness_pumps(aut)


# The search is exponential in the number of counters, and a few draws of
# this size still exhaust its budget (7 of 12,000 draws, variants of three
# automata); it must then fail with its budget error. Wherever it answers,
# it agrees with the closure. The closure once set the cost of a draw here
# (one draw in 6,000 took it 43 s when it multiplied every pair of
# elements), so the case runs fewer examples than the smaller ones.
@settings(max_examples=60, deadline=None)
@given(_s_automata(3))
def test_random_three_counter_automata_closure_agrees_and_witnesses_pump(aut):
    try:
        _assert_closure_agrees_and_witness_pumps(aut)
    except RuntimeError as e:
        assert str(e) == "on-the-fly search exceeded %d configurations" % MAX_ONTHEFLY_CONFIGS


# Seeded 3-counter draws on which the search over whole stacks
# (stack_bfs_onthefly) exhausts the budget: one bounded, one unbounded.
_THREE_COUNTER_DRAWS = [
    CostAutomaton(
        kind="S",
        alphabet=AB,
        states=("q0", "q1", "q2"),
        initial=frozenset({"q0", "q2"}),
        final=frozenset({"q1"}),
        counters=3,
        transitions=(
            ("q0", "b", (("r", "e"), (), ()), "q2"),
            ("q2", "b", (("i", "r", "cr"), ("cr", "cr"), ()), "q0"),
            ("q1", "a", ((), (), ("r",)), "q2"),
            ("q0", "a", (("r", "i", "r"), ("i",), ()), "q0"),
            ("q0", "a", (("e", "e"), ("e", "cr", "r"), ("r", "e", "e")), "q0"),
            ("q2", "a", ((), (), ("i", "cr", "cr")), "q2"),
        ),
        exits={"q1": ((("cr",), (), ("r", "cr", "i")), (("e", "e", "cr"), ("cr", "r"), ()))},
    ),
    CostAutomaton(
        kind="S",
        alphabet=AB,
        states=("q0",),
        initial=frozenset({"q0"}),
        final=frozenset({"q0"}),
        counters=3,
        transitions=(
            ("q0", "a", (("e", "cr"), ("r", "cr", "i"), ()), "q0"),
            ("q0", "a", (("e",), ("e",), ("cr", "cr")), "q0"),
            ("q0", "a", ((), ("i", "e", "i"), ()), "q0"),
            ("q0", "b", (("e", "i", "e"), ("cr",), ()), "q0"),
            ("q0", "a", (("i",), ("r",), ("r", "cr")), "q0"),
            ("q0", "a", (("cr", "i", "r"), ("e",), ("i",)), "q0"),
        ),
        exits={"q0": (((), ("e", "cr"), ("cr", "e")),)},
    ),
]


@pytest.mark.parametrize("aut, witness", zip(_THREE_COUNTER_DRAWS, [None, "a^ws((ba^ws)^wsa)^ws"]),
                         ids=["bounded", "unbounded"])
def test_three_counter_draws_decide_within_budget(aut, witness):
    result = bounded_onthefly(aut)
    assert (None if result.bounded else _rendered(result.script)) == witness
    _assert_closure_agrees_and_witness_pumps(aut)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(_s_automata))
def test_numbered_search_matches_whole_stack_search(aut):
    # the numbered search drops configurations that an admitted one covers
    # and frames that hold bot; the verdict and the breadth-first witness
    # stay those of the search over whole stacks
    try:
        expected = stack_bfs_onthefly(aut)
    except RuntimeError:  # the whole-stack search ran out of its budget
        _assert_closure_agrees_and_witness_pumps(aut)
    else:
        assert bounded_onthefly(aut) == expected


@pytest.mark.parametrize("counters", [1, 2])
def test_action_order_facts_behind_top_frame_subsumption(counters):
    # the on-the-fly search drops a configuration whose top action is above
    # an admitted one over the same frames below; every step, push, closing
    # and goal test must then treat the smaller action at least as well
    act = _Actions(counters)
    ids = [act.ids[v] for v in itertools.product(S_ELEMS, repeat=counters)]
    omega_sharp = act.omega_sharp
    for x, y in itertools.product(ids, repeat=2):
        if not act.leq[x, y]:
            continue
        assert act.good[x] or not act.good[y], (act.vecs[x], act.vecs[y])
        for z in ids:
            assert act.leq[act.mul[x, z], act.mul[y, z]], (act.vecs[x], act.vecs[y], act.vecs[z])
            assert act.leq[act.mul[z, x], act.mul[z, y]], (act.vecs[x], act.vecs[y], act.vecs[z])
        assert act.leq[omega_sharp[x], omega_sharp[y]], (act.vecs[x], act.vecs[y])
    # a cycle closes with omega-sharp; over an action with no plain sharp
    # (cr on some counter) the closed frame holds bot, so the search drops
    # it, as a search that closes only over plain sharps never admits it
    for x in ids:
        if all(a in S_ACTIONS.sharp for a in act.vecs[x]):
            continue
        for y in ids:
            assert not act.live[act.mul[y, omega_sharp[x]]], (act.vecs[x], act.vecs[y])
    # a frame holding bot on a counter is dead: it keeps bot there through
    # every product on either side and through its omega-sharp, so its
    # closing passes bot down to the bottom
    for x in ids:
        holds_bot = [c for c, a in enumerate(act.vecs[x]) if a == "bot"]
        for z in ids:
            for y in (act.mul[x, z], act.mul[z, x]):
                assert all(act.vecs[y][c] == "bot" for c in holds_bot), (act.vecs[x], act.vecs[z])
        assert all(act.vecs[omega_sharp[x]][c] == "bot" for c in holds_bot), act.vecs[x]


def test_actions_that_are_not_good_form_a_right_ideal():
    # the on-the-fly search drops a configuration whose bottom action is not
    # good: only right products reach that action, and they keep it bad
    bad = [x for x in S_ELEMS if x not in GOOD]
    assert bad == ["crw", "cr", "bot"]
    for x in bad:
        for y in S_ELEMS:
            assert S_ACTIONS.mul(x, y) not in GOOD, (x, y)


def _assert_sharp_matches_one_shot(aut):
    # each idempotent of the closure, up to the first element that
    # witnesses unboundedness (where run_semigroup_closure stops), stabilizes
    # by E·L·E to the very antichain of the one-shot formula
    rows = _Rows(_Actions(aut.counters), len(aut.states))
    images, initial, accept = _run_effects(aut, rows)
    for E in _closure(rows, images):
        if _elem_product(rows, E, E) == E:
            triples = elem_triples(rows.n, E)
            assert elem_triples(rows.n, _elem_sharp(rows, E)) == \
                one_shot_elem_sharp(rows.act, triples), sorted(triples)
        if _elem_unbounded(rows, initial, accept, E):
            break


@pytest.mark.parametrize("formulas", [
    pytest.param(corpus, id="corpus"),
    pytest.param(lambda: _criterion9_distinct(60), id="criterion9"),
])
def test_stabilization_matches_one_shot_formula(formulas):
    for phi in formulas():
        _assert_sharp_matches_one_shot(nltl_to_s(dualize(phi, AB), AB))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(_s_automata))
def test_stabilization_matches_one_shot_formula_on_random_automata(aut):
    _assert_sharp_matches_one_shot(aut)


def _assert_closure_matches_triple_oracle(aut):
    # every product and stabilization that the closure computes, up to the
    # element where run_semigroup_closure stops, is, read as (p, sigma, r)
    # triples, the triple-set product or the one-shot stabilization of its
    # factors read the same way. The closure multiplies on the right by
    # generators only, while language_recognizer and _elem_sharp multiply
    # any two elements, so on a small closure every pair is checked too
    rows = _Rows(_Actions(aut.counters), len(aut.states))
    act = rows.act
    images, initial, accept = _run_effects(aut, rows)
    decoded = {}

    def triples(E):
        if E not in decoded:
            decoded[E] = elem_triples(rows.n, E)
        return decoded[E]

    def product(E, F):
        EF = _elem_product(rows, E, F)
        assert triples(EF) == triple_elem_product(act, triples(E), triples(F)), (E, F)
        return EF

    def sharp(E):
        S = _elem_sharp(rows, E)
        assert triples(S) == one_shot_elem_sharp(act, triples(E)), E
        return S

    found = []
    for E in saturate(images.values(), product, sharp, []):
        found.append(E)
        if _elem_unbounded(rows, initial, accept, E):
            break
    if len(found) <= 30:
        for E, F in itertools.product(found, repeat=2):
            product(E, F)


@pytest.mark.parametrize("formulas", [
    pytest.param(corpus, id="corpus"),
    pytest.param(lambda: _criterion9_distinct(60), id="criterion9"),
])
def test_closure_products_match_triple_oracle(formulas):
    for phi in formulas():
        _assert_closure_matches_triple_oracle(nltl_to_s(dualize(phi, AB), AB))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(_s_automata))
def test_closure_products_match_triple_oracle_on_random_automata(aut):
    _assert_closure_matches_triple_oracle(aut)


def _decoded_closure(aut, closure):
    """The elements that closure(seeds, mul, sharp) finds from the letter
    images of aut (every letter's, for a counter-free aut), to exhaustion,
    each as a frozenset of (p, action vector, r) triples: each call numbers
    its actions in its own order."""
    rows = _Rows(_Actions(aut.counters), len(aut.states))
    images, _, _ = _run_effects(aut, rows, aut.alphabet if aut.counters == 0 else ())
    vecs = rows.act.vecs
    found = closure(images.values(), partial(_elem_product, rows), partial(_elem_sharp, rows))
    return {frozenset((p, vecs[sigma], r) for p, sigma, r in elem_triples(rows.n, E))
            for E in found}


def _assert_closure_matches_pairwise(aut):
    # the closure over generators finds the elements that multiplying every
    # pair of elements finds
    assert _decoded_closure(aut, lambda seeds, mul, sharp: list(saturate(seeds, mul, sharp, []))) \
        == _decoded_closure(aut, pairwise_saturate)


@pytest.mark.parametrize("automata", [
    pytest.param(lambda: [nltl_to_s(dualize(phi, AB), AB) for phi in corpus()], id="corpus"),
    pytest.param(lambda: [nltl_to_s(dualize(phi, AB), AB) for phi in _criterion9_distinct(60)],
                 id="criterion9"),
    pytest.param(lambda: [ltl_to_b(parse(text, AB), AB) for text, _ in LANGUAGES],
                 id="criterion10"),
])
def test_closure_matches_pairwise_saturation(automata):
    for aut in automata():
        _assert_closure_matches_pairwise(aut)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(_s_automata))
def test_closure_matches_pairwise_saturation_on_random_automata(aut):
    _assert_closure_matches_pairwise(aut)


@settings(max_examples=100, deadline=None)
@given(_counterless_automata())
def test_closure_matches_pairwise_saturation_on_language_recognizers(aut):
    _assert_closure_matches_pairwise(aut)


def _saturate_products(seeds, mul, sharp):
    """(elements, generators, products) of saturate, counting mul calls."""
    calls = []

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    gens = []
    elems = list(saturate(seeds, counted, sharp, gens))
    return elems, gens, len(calls)


def test_saturate_multiplies_by_generators_only():
    # each element times each generator, its square, and each later
    # generator times the elements taken before it: at most
    # |elements| * (2 |generators| + 1) products, where multiplying every
    # pair costs about 2 |elements|^2
    cases = []
    for phi in corpus() + _criterion9_distinct(20):
        aut = nltl_to_s(dualize(phi, AB), AB)
        rows = _Rows(_Actions(aut.counters), len(aut.states))
        images, _, _ = _run_effects(aut, rows)
        cases.append((images.values(), partial(_elem_product, rows), partial(_elem_sharp, rows)))
    for name in ("counting.sg", "parity.sg"):
        sg, rec = load_semigroup(fixture(name))
        cases.append((rec.h.values(), sg.mul, sg.sharp.__getitem__))
    largest = 0
    for seeds, mul, sharp in cases:
        elems, gens, products = _saturate_products(seeds, mul, sharp)
        assert products <= len(elems) * (2 * len(gens) + 1), (len(elems), len(gens), products)
        largest = max(largest, len(elems))
    assert largest >= 50


def test_closure_decides_85_state_criterion9_formula():
    # a criterion 9 formula whose S-automaton has 85 states, 4,099
    # transitions and 3 counters
    aut = formula_automaton(parse("(END U X (a & END)) U (a U# X b) U X b U# b U# END", AB), AB)
    assert (len(aut.states), len(aut.transitions), aut.counters) == (85, 4099, 3)
    elements, unbounded = run_semigroup_closure(aut)
    assert unbounded and len(elements) == 30


def _two_loop_automaton(declared):
    # both states initial and final, each pumping its own letter; only the
    # order in which the states are declared tells the two witnesses apart
    return loads_automaton(
        "costltl-format 1\nautomaton\nkind S\nalphabet ab\nstates %s\n"
        "initial p q\nfinal p q\ncounters 1\ntrans p a p : i\ntrans q b q : i\n"
        "exit p : cr\nexit q : cr\n" % declared)


def test_witness_follows_declared_state_order():
    # the search starts from the initial states in declaration order, not in
    # the hash order of the initial-state set
    for declared, witness in (("p q", "a^ws"), ("q p", "b^ws")):
        assert _rendered(bounded_onthefly(_two_loop_automaton(declared)).script) == witness


def _boundedness_digest(formulas):
    digest = hashlib.sha256()
    for phi in formulas:
        aut = rename_states(nltl_to_s(dualize(phi, AB), AB))
        try:
            result = bounded_onthefly(aut)
            fly = "bounded" if result.bounded else _rendered(result.script)
        except RuntimeError as e:
            fly = str(e)
        try:
            elements, unbounded = run_semigroup_closure(aut)
            closure = "%s %r" % (unbounded, sorted(sorted(E) for E in elements))
        except RuntimeError as e:
            closure = str(e)
        digest.update(("%s\n%s\n" % (fly, closure)).encode())
    return digest.hexdigest()


# sha256 of each on-the-fly verdict and witness (or budget error) and each
# closure verdict with its sorted element triples, on rename_states of
# nltl_to_s(dualize(phi)), recorded before composed actions were interned:
# a faster search must reach the same answers. The criterion 9 digest was
# re-pinned twice, each time on one line only. When the search began to drop
# configurations whose bottom action is not good, (END U# X b) U END U#
# (b U a) U# (END | a) went from the budget error to bounded, as the closure
# says. When it began to test acceptance as it admits a configuration, in
# place of exit edges into a virtual sink, (X (END U# a) & (END | b | (a |
# b))) U# (X a | (END U END) U a U# END) went from the budget error to
# abb^wsbb^ws, which pumps; the closure says unbounded. Both digests were
# re-pinned when the closure began to multiply by generators only: it finds
# its elements in another order, so it stops at the first unbounded one
# with another element set on 4 corpus and 2 criterion 9 lines; every
# verdict and every witness stayed the same.
@pytest.mark.parametrize("formulas, expected", [
    pytest.param(corpus,
                 "64a3ecffdf6a05389c72d227474ef9a2ce3f761a6fd42cb028197b528d63c231",
                 id="corpus"),
    pytest.param(lambda: _criterion9_distinct(60),
                 "b6828f6701080922a4d9aca3a6c736ee712709b76d9b236482de4c69a023d62e",
                 id="criterion9"),
])
def test_boundedness_outputs_are_pinned(formulas, expected):
    assert _boundedness_digest(formulas()) == expected


def test_mixed_fragment_rejected():
    from costltl import Atom, ReleaseGeq, UntilLeq

    mixed = UntilLeq(Atom("a"), ReleaseGeq(Atom("a"), Atom("b")))
    with pytest.raises(ValueError):
        bounded_formula(mixed, AB)
