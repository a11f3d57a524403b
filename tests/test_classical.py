"""Classical regular languages as characteristic cost functions, and the
syntactic-semigroup view of minimization.

The oracle here is independent of the library: it determinizes the automaton
by its own subset construction, minimizes the DFA by partition refinement and
generates the transition semigroup of the minimal machine, whose size is the
size of the syntactic semigroup of the language.
"""

import pytest
from hypothesis import given, settings, strategies as st

from costltl import (
    INF,
    CostAutomaton,
    language_recognizer,
    ltl_to_b,
    make_semigroup,
    parse,
    recognize,
    sem_inf,
    syntactic_quotient,
    validate_axioms,
)
from conftest import AB, all_words, enum_eval

# counter-free formulae and their membership predicates
LANGUAGES = [
    ("G b", lambda u: all(c == "b" for c in u)),
    ("F a", lambda u: "a" in u),
    ("a & X (G b)", lambda u: len(u) >= 1 and u[0] == "a"
     and all(c == "b" for c in u[1:])),
]


def _determinize(aut):
    """Subset construction: (number of subsets, accepting indices, delta)
    with delta[(index, letter)] = index; index 0 is the initial subset."""
    succ = {}
    for src, a, _, dst in aut.transitions:
        succ.setdefault((src, a), set()).add(dst)
    subsets = [frozenset(aut.initial)]
    index = {subsets[0]: 0}
    delta = {}
    i = 0
    while i < len(subsets):
        for a in aut.alphabet:
            nxt = frozenset(q for s in subsets[i] for q in succ.get((s, a), ()))
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            delta[(i, a)] = index[nxt]
        i += 1
    accepting = {i for i, subset in enumerate(subsets) if subset & aut.final}
    return len(subsets), accepting, delta


def _minimal_dfa(aut):
    n, accepting, delta = _determinize(aut)
    # Moore partition refinement
    block = [0 if i in accepting else 1 for i in range(n)]
    while True:
        sig = {i: (block[i],) + tuple(block[delta[(i, a)]] for a in aut.alphabet)
               for i in range(n)}
        names = {s: j for j, s in enumerate(sorted(set(sig.values())))}
        new = [names[sig[i]] for i in range(n)]
        if new == block:
            break
        block = new
    m = len(set(block))
    d = {(block[i], a): block[delta[(i, a)]] for i in range(n) for a in aut.alphabet}
    return m, block[0], {block[i] for i in accepting}, d, aut.alphabet


def _oracle_syntactic_size(aut):
    m, start, acc, d, alphabet = _minimal_dfa(aut)
    gens = {a: tuple(d[(i, a)] for i in range(m)) for a in alphabet}
    maps = set(gens.values())
    work = list(maps)
    while work:
        t = work.pop()
        for u in list(maps):
            for c in (tuple(u[i] for i in t), tuple(t[i] for i in u)):
                if c not in maps:
                    maps.add(c)
                    work.append(c)
    return len(maps)


@pytest.mark.parametrize("text,member", LANGUAGES, ids=[t for t, _ in LANGUAGES])
def test_characteristic_function_matches_membership(text, member):
    phi = parse(text, AB)
    aut = ltl_to_b(phi, AB)
    assert aut.counters == 0
    for u in all_words(6):
        want = 0 if member(u) else INF
        assert sem_inf(phi, u) == want, u


@pytest.mark.parametrize("text,member", LANGUAGES, ids=[t for t, _ in LANGUAGES])
def test_syntactic_class_count_matches_oracle(text, member):
    aut = ltl_to_b(parse(text, AB), AB)
    rec = language_recognizer(aut)
    q = syntactic_quotient(rec)
    assert len(q.classes) == _oracle_syntactic_size(aut), text


@pytest.mark.parametrize("text,member", LANGUAGES, ids=[t for t, _ in LANGUAGES])
def test_recognizer_decides_membership(text, member):
    aut = ltl_to_b(parse(text, AB), AB)
    rec = language_recognizer(aut)
    for u in all_words(5, min_len=1):
        want = 0 if member(u) else INF
        assert recognize(rec, u) == want, (text, u)


def test_language_recognizer_rejects_counters():
    aut = ltl_to_b(parse("!a U# END", AB), AB)
    with pytest.raises(ValueError, match="counter-free"):
        language_recognizer(aut)


@st.composite
def _counterless_automata(draw):
    """B- and S-automata over {a, b} with 1-4 states and no counters; any
    set of initial and final states, and letters may have no transition."""
    states = tuple("q%d" % i for i in range(draw(st.integers(1, 4))))
    state = st.sampled_from(states)
    transitions = draw(st.lists(st.tuples(state, st.sampled_from("ab"), st.just(()), state),
                                max_size=8, unique=True))
    return CostAutomaton(
        kind=draw(st.sampled_from("BS")),
        alphabet=AB,
        states=states,
        initial=draw(st.frozensets(state)),
        final=draw(st.frozensets(state)),
        counters=0,
        transitions=tuple(transitions),
    )


@settings(max_examples=150, deadline=None)
@given(_counterless_automata())
def test_recognizer_matches_run_enumeration(aut):
    rec = language_recognizer(aut)
    assert validate_axioms(rec.semigroup) == []
    for u in all_words(5, min_len=1):
        assert recognize(rec, u) == enum_eval(aut, u), u
    assert len(syntactic_quotient(rec).classes) == _oracle_syntactic_size(aut)


@settings(max_examples=60, deadline=None)
@given(_counterless_automata())
def test_make_semigroup_rebuilds_a_language_recognizer_from_its_products(aut):
    sg = language_recognizer(aut).semigroup
    product = {(x, y): sg.mul(x, y) for x in sg.elements for y in sg.elements}
    assert make_semigroup(sg.elements, product, sg.leq, sg.sharp, sg.neutral) == sg
