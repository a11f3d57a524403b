"""Cost automata: evaluation (cross-checked against explicit run
enumeration), contraction, trimming, and the file format."""

import dataclasses
import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from costltl import (
    INF,
    CostAutomaton,
    contract_b,
    dualize,
    dumps_automaton,
    eval_b,
    eval_s,
    load_automaton,
    loads_automaton,
    loads_semigroup,
    ltl_to_b,
    nltl_to_s,
    parse,
    rename_states,
    render,
    sem_inf,
    sem_sup,
    trim,
    validate,
)
from costltl.automata import B_TOKENS, S_TOKENS
from conftest import (
    AB,
    EXIT_ON_EMPTY_WORD,
    all_configs_eval,
    all_words,
    corpus,
    enum_eval,
    fixture,
    min_block,
)

FIXTURE_AUTOMATA = [
    "count-letter-b.aut",
    "min-block-b.aut",
    "count-letter-s.aut",
    "blocks-s.aut",
    "epsilon-s.aut",
]


@pytest.fixture(scope="module")
def fixture_automata():
    return {name: load_automaton(fixture(name)) for name in FIXTURE_AUTOMATA}


def test_fixtures_validate(fixture_automata):
    for name, aut in fixture_automata.items():
        assert validate(aut) == [], name


def test_count_letter_b_is_exact(fixture_automata):
    aut = fixture_automata["count-letter-b.aut"]
    for u in all_words(7):
        assert eval_b(aut, u) == u.count("a"), u


def test_min_block_b_computes_smallest_block(fixture_automata):
    aut = fixture_automata["min-block-b.aut"]
    for u in all_words(7):
        assert eval_b(aut, u) == min_block(u), u


def test_count_letter_s_within_one(fixture_automata):
    aut = fixture_automata["count-letter-s.aut"]
    for u in all_words(7, min_len=1):
        got = eval_s(aut, u)
        assert u.count("a") - 1 <= got <= u.count("a"), (u, got)


def test_eval_matches_run_enumeration(fixture_automata):
    for name, aut in fixture_automata.items():
        ev = eval_b if aut.kind == "B" else eval_s
        for u in all_words(5):
            assert ev(aut, u) == enum_eval(aut, u), (name, u)


@st.composite
def _random_automata(draw):
    """Small B- and S-automata over {a, b}: 1-3 counters, sequences of every
    token of the kind, and 1-2 exit options on each final state."""
    kind = draw(st.sampled_from("BS"))
    counters = draw(st.integers(1, 3))
    states = tuple("q%d" % i for i in range(draw(st.integers(1, 3))))
    state = st.sampled_from(states)
    tokens = B_TOKENS if kind == "B" else S_TOKENS
    actions = st.tuples(*[st.lists(st.sampled_from(tokens), max_size=3).map(tuple)
                          for _ in range(counters)])
    transitions = draw(st.lists(st.tuples(state, st.sampled_from("ab"), actions, state),
                                min_size=1, max_size=6))
    final = draw(st.frozensets(state, min_size=1))
    return CostAutomaton(
        kind=kind,
        alphabet=AB,
        states=states,
        initial=draw(st.frozensets(state, min_size=1)),
        final=final,
        counters=counters,
        transitions=tuple(transitions),
        exits={q: tuple(draw(st.lists(actions, min_size=1, max_size=2))) for q in sorted(final)},
    )


@settings(max_examples=150, deadline=None)
@given(_random_automata())
def test_random_automata_match_run_enumeration(aut):
    assert validate(aut) == []
    ev = eval_b if aut.kind == "B" else eval_s
    for u in all_words(5):
        assert ev(aut, u) == enum_eval(aut, u), u


def _evaluate(aut, u):
    return (eval_b if aut.kind == "B" else eval_s)(aut, u)


@settings(max_examples=150, deadline=None)
@given(_random_automata(), st.lists(st.text("ab", max_size=10), min_size=1, max_size=8))
def test_random_automata_match_all_configurations(aut, words):
    for u in words:
        assert _evaluate(aut, u) == all_configs_eval(aut, u), u


@functools.lru_cache(maxsize=None)
def _corpus_automata():
    """B automaton of every corpus formula and S automaton of its dual."""
    out = []
    for phi in corpus():
        out += [ltl_to_b(phi, AB), nltl_to_s(dualize(phi, AB), AB)]
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corpus_automata_match_all_configurations(data):
    aut = data.draw(st.sampled_from(_corpus_automata()))
    for u in data.draw(st.lists(st.text("ab", max_size=16), min_size=1, max_size=4)):
        assert _evaluate(aut, u) == all_configs_eval(aut, u), u


def test_long_word_values_are_pinned():
    # sha256 of eval_b/eval_s of every corpus formula's B automaton and its
    # dual's S automaton on words of the long-words lengths, recorded before
    # the evaluator was compiled to step programs: a faster evaluator must
    # give the same values
    automata = _corpus_automata()
    rows = []
    for b_aut, s_aut in zip(automata[::2], automata[1::2]):
        for length in (40, 46, 52, 58):
            rng = random.Random(length)
            u = "".join(rng.choice("ab") for _ in range(length))
            rows.append((eval_b(b_aut, u), eval_s(s_aut, u)))
    assert (hashlib.sha256(repr(rows).encode()).hexdigest()
            == "6ed712d8cb1b9ac2d399eeacf36915f79738ce81a8d67d60e92bdfe3b1da8abb")


@pytest.mark.parametrize("text", [
    "(a U# END) & (b U# END) & (X a U# END) & (X b U# END)",
    "(a U# END) | (b U# END) | (X b U# END)",
    "((a U# b) U# END) & (b U# END)",
])
def test_multi_counter_formulae_on_long_words(text):
    phi = parse(text, AB)
    psi = dualize(phi, AB)
    b_aut, s_aut = ltl_to_b(phi, AB), nltl_to_s(psi, AB)
    for length in (40, 58):
        u = "".join(random.Random(length).choice("ab") for _ in range(length))
        assert eval_b(b_aut, u) == sem_inf(phi, u), (length, u)
        got, want = eval_s(s_aut, u), sem_sup(psi, u)
        if got == INF or want == INF:
            assert got == want, (length, u)
        else:
            assert abs(got - want) <= 1, (length, u, got, want)


def test_empty_word_takes_the_exits_of_the_initial_states():
    s_aut = loads_automaton(EXIT_ON_EMPTY_WORD["S"])
    b_aut = loads_automaton(EXIT_ON_EMPTY_WORD["B"])
    assert eval_s(s_aut, "") == enum_eval(s_aut, "") == 0
    assert eval_b(b_aut, "") == enum_eval(b_aut, "") == 1
    assert eval_b(b_aut, "aa") == 1
    # a stored value overrides the exits
    assert eval_s(loads_automaton(EXIT_ON_EMPTY_WORD["S"] + "epsilon 4\n"), "") == 4


def test_translated_automaton_matches_run_enumeration(corpus_formulas):
    cases = [(text, ltl_to_b(parse(text, AB), AB))
             for text in ["!a U# END", "(b | X a) U# END", "a U# b"]]
    cases += [("dual of " + render(phi), nltl_to_s(dualize(phi, AB), AB))
              for phi in corpus_formulas]
    for name, aut in cases:
        ev = eval_b if aut.kind == "B" else eval_s
        for u in all_words(4):
            assert ev(aut, u) == enum_eval(aut, u), (name, u)


def test_contract_bound_and_single_actions():
    phi = parse("(b | X a | X F a) U# END", AB)
    aut = ltl_to_b(phi, AB)
    cut, K = contract_b(aut)
    for _, _, actions, _ in cut.transitions:
        assert all(len(seq) <= 1 for seq in actions)
    for u in all_words(6):
        v, w = eval_b(aut, u), eval_b(cut, u)
        if v == INF or w == INF:
            assert v == w, u
        else:
            assert w <= v <= 2 * K * w + 2 * K, (u, v, w, K)


def test_serialization_roundtrip(fixture_automata):
    for name, aut in fixture_automata.items():
        text = dumps_automaton(aut)
        again = loads_automaton(text)
        assert again == aut, name
        assert dumps_automaton(again) == text, name


def test_serialization_roundtrip_translated():
    aut = rename_states(ltl_to_b(parse("(a | X b) U# (b & X END)", AB), AB))
    assert loads_automaton(dumps_automaton(aut)) == aut


def test_dumps_rejects_unwritable_state_names():
    # translated states are sets of formulae; str() of one has spaces
    aut = ltl_to_b(parse("!a U# END", AB), AB)
    with pytest.raises(ValueError, match="rename_states"):
        dumps_automaton(aut)
    renamed = rename_states(aut)
    assert loads_automaton(dumps_automaton(renamed)) == renamed
    with pytest.raises(ValueError, match="rename_states"):
        dumps_automaton(dataclasses.replace(renamed, states=renamed.states + ("",)))


def test_rename_and_trim_preserve_function(fixture_automata):
    for name, aut in fixture_automata.items():
        ev = eval_b if aut.kind == "B" else eval_s
        renamed = rename_states(aut)
        trimmed = trim(aut)
        for u in all_words(4):
            assert ev(renamed, u) == ev(aut, u), (name, "rename", u)
            assert ev(trimmed, u) == ev(aut, u), (name, "trim", u)


def test_trim_keeps_the_states_both_reachable_and_coreachable():
    # u reaches the final q but is unreachable; d and w are reachable but
    # reach no final state
    aut = loads_automaton("""costltl-format 1
automaton
kind B
alphabet ab
states p d q u w
initial p
final q
counters 1
trans p a d : e
trans p b q : ic
trans q a p : e
trans u a q : e
trans q b w : e
trans w a w : e
""")
    trimmed = trim(aut)
    assert trimmed.states == ("p", "q")
    assert trimmed.transitions == (("p", "b", (("ic",),), "q"), ("q", "a", (("e",),), "p"))
    for u in all_words(4):
        assert eval_b(trimmed, u) == eval_b(aut, u), u


def test_validate_rejects_bad_automata(fixture_automata):
    aut = fixture_automata["count-letter-b.aut"]

    bad_letter = dataclasses.replace(
        aut, transitions=aut.transitions + (("q0", "c", (("e",),), "q0"),)
    )
    assert validate(bad_letter)
    bad_state = dataclasses.replace(aut, initial=frozenset({"nope"}))
    assert validate(bad_state)
    bad_action = dataclasses.replace(
        aut, transitions=(("q0", "a", (("cr",),), "q0"),) + aut.transitions[1:]
    )
    assert validate(bad_action)


def test_loads_rejects_malformed_input():
    with pytest.raises(ValueError):
        loads_automaton("not a header\n")
    with pytest.raises(ValueError):
        loads_automaton("costltl-format 1\nsemigroup\n")
    with pytest.raises(ValueError, match="negative number of counters -1"):
        loads_automaton("costltl-format 1\nautomaton\nkind S\nalphabet ab\nstates q\n"
                        "initial q\nfinal\ncounters -1\n")


@pytest.mark.parametrize("name, extra, message", [
    ("count-letter-b.aut", "epsilom 5", "unknown field 'epsilom'"),
    ("count-letter-b.aut", "kind S", "repeated field 'kind'"),
    ("counting.sg", "height 3", "repeated field 'height'"),
    ("counting.sg", "elements bot a b", "repeated field 'elements'"),
    ("counting.sg", "product a : bot a a", "repeated product line for 'a'"),
    ("counting.sg", "h a b", "repeated h line for 'a'"),
    ("counting.sg", "sharp a bot", "repeated sharp line for 'a'"),
    # a pair (line, replacement) edits the file instead of extending it
    pytest.param("counting.sg", ("elements bot a b", "elements bot a b a"),
                 "repeated element 'a'", id="counting.sg-repeated element"),
    pytest.param("count-letter-b.aut", ("states q0", "states q0 q0"),
                 "repeated state 'q0'", id="count-letter-b.aut-repeated state"),
    pytest.param("count-letter-s.aut", ("kind S", "kind X"),
                 "unknown kind 'X'", id="count-letter-s.aut-unknown kind"),
    pytest.param("count-letter-s.aut", ("trans q0 a q0 : i", "trans q0 a q9 : i"),
                 "dangling transition 'q0' -> 'q9'",
                 id="count-letter-s.aut-dangling transition"),
    pytest.param("count-letter-s.aut", ("trans q0 a q0 : i", "trans q0 a q0 : i | e"),
                 r"expected 1 action sequences, got 'i \| e'",
                 id="count-letter-s.aut-wrong arity"),
    pytest.param("count-letter-s.aut", ("counters 1", "counters 0"),
                 "actions given for a counterless automaton",
                 id="count-letter-s.aut-counterless actions"),
    pytest.param("count-letter-s.aut", ("initial q0", "# no initial line"),
                 "missing field 'initial'", id="count-letter-s.aut-missing initial"),
    pytest.param("count-letter-s.aut", ("trans q0 a q0 : i", "trans q0 a : i"),
                 "bad transition 'q0 a : i'", id="count-letter-s.aut-bad transition"),
    ("count-letter-s.aut", "exit q0 : cr", "exit on non-final state 'q0'"),
    pytest.param("counting.sg", ("product b : bot a b", "product b : bot a"),
                 "bad product row 'b : bot a'", id="counting.sg-short product row"),
    pytest.param("counting.sg", ("ideal bot", "# no ideal line"),
                 "recognizer block needs both h and ideal", id="counting.sg-h without ideal"),
    ("counting.sg", "sharp a bot b", "bad sharp line 'a bot b'"),
])
def test_loaders_reject_unknown_and_repeated_fields(name, extra, message):
    with open(fixture(name), encoding="utf-8") as fh:
        text = fh.read()
    loads = loads_automaton if name.endswith(".aut") else loads_semigroup
    loads(text)
    if isinstance(extra, tuple):
        line, replacement = extra
        assert line + "\n" in text
        bad = text.replace(line + "\n", replacement + "\n")
    else:
        bad = text + extra + "\n"
    with pytest.raises(ValueError, match=message):
        loads(bad)
