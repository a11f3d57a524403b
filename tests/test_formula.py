"""Formula parsing, rendering, dualization and node interning."""

import copy
import pickle
import string

import pytest
from hypothesis import given, settings, strategies as st

from costltl import (
    INF,
    And,
    Atom,
    END,
    End,
    Next,
    Or,
    ParseError,
    ReleaseGeq,
    Until,
    UntilLeq,
    dualize,
    is_ltl,
    is_nltl,
    parse,
    render,
    sem_inf,
    sem_sup,
)
from costltl.formula import children, size, subformulas
from conftest import AB, CORPUS_TEXTS, all_words, corpus
from test_translate import _criterion9_distinct


def _formulas(letters):
    leaves = st.sampled_from([Atom(a) for a in letters] + [END])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Next, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Until, sub, sub),
            st.builds(UntilLeq, sub, sub),
        ),
        max_leaves=8,
    )


def test_corpus_parses_and_is_ltl():
    for text, phi in zip(CORPUS_TEXTS, corpus()):
        assert is_ltl(phi), text
        assert not is_nltl(phi) or not any(
            isinstance(s, UntilLeq) for s in subformulas(phi)
        ), text


def test_render_parse_roundtrip_corpus():
    for phi in corpus():
        assert parse(render(phi), AB) == phi


@settings(max_examples=200, deadline=None)
@given(_formulas("ab"))
def test_render_parse_roundtrip_random(phi):
    assert parse(render(phi), AB) == phi


def test_parse_rejects_mixed_operators():
    with pytest.raises(ParseError):
        parse("(a U# b) & (a R# b)", AB)


@st.composite
def _lowercase_alphabet_and_formula(draw):
    letters = draw(st.lists(st.sampled_from(string.ascii_lowercase + "éßω"),
                            min_size=1, max_size=5, unique=True))
    return "".join(letters), draw(_formulas(letters))


@settings(max_examples=200, deadline=None)
@given(_lowercase_alphabet_and_formula())
def test_render_parse_roundtrip_over_lowercase_alphabets(alphabet_and_phi):
    # dualize writes each !a as a disjunction over the other letters, so
    # every letter of the alphabet is rendered
    alphabet, phi = alphabet_and_phi
    dual = dualize(phi, alphabet)
    assert parse(render(phi), alphabet) is phi
    assert parse(render(dual), alphabet) is dual


@pytest.mark.parametrize("alphabet, bad", [("aB", "B"), ("a1", "1"), ("(a", "("),
                                           ("ab_", "_"), ("ABc", "A")])
def test_parse_rejects_a_letter_it_cannot_read_back(alphabet, bad):
    # the alphabet refuses a reserved letter before the grammar sees it
    error, message = ((ValueError, "reserved letter %r in alphabet") if bad == "("
                      else (ParseError, "letter %r of the alphabet"))
    with pytest.raises(error) as exc:
        parse("a", alphabet)
    assert type(exc.value) is error
    assert str(exc.value).startswith(message % bad)


def test_parse_rejects_unknown_atom():
    with pytest.raises(ParseError):
        parse("c U# END", AB)


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse("a b", AB)


def test_derived_forms():
    from costltl.formula import true_formula

    assert parse("F a", AB) == Until(true_formula(AB), Atom("a"))
    assert parse("G a", AB) == Until(Atom("a"), END)
    assert parse("TRUE", AB) == true_formula(AB)


def _recursive_subformulas(node, seen):
    """Pre-order reference for subformulas: node, then each child's walk."""
    if node not in seen:
        seen[node] = None
        for child in children(node):
            _recursive_subformulas(child, seen)
    return list(seen)


def test_subformulas_match_recursive_preorder():
    for phi in corpus() + _criterion9_distinct(60):
        assert subformulas(phi) == _recursive_subformulas(phi, {}), render(phi)


@settings(max_examples=200, deadline=None)
@given(_formulas("ab"))
def test_subformulas_match_recursive_preorder_random(phi):
    assert subformulas(phi) == _recursive_subformulas(phi, {})


def test_dualize_produces_pure_nltl():
    for phi in corpus():
        assert is_nltl(dualize(phi, AB))


def test_dualize_exact_on_short_words():
    # the dual's sup-semantics matches the inf-semantics exactly, which is
    # stronger than the <= 1 correction the acceptance tolerance requires
    words = all_words(5)
    for phi in corpus()[:12]:
        psi = dualize(phi, AB)
        for u in words:
            assert sem_sup(psi, u) == sem_inf(phi, u), (render(phi), u)


@settings(max_examples=120, deadline=None)
@given(_formulas("ab"), st.text(alphabet="ab", max_size=5))
def test_dualize_within_correction_random(phi, u):
    lo = sem_inf(phi, u)
    hi = sem_sup(dualize(phi, AB), u)
    if lo == INF or hi == INF:
        assert lo == hi
    else:
        assert abs(hi - lo) <= 1


def _rebuilt(phi):
    """A structural copy of phi made through the constructors."""
    if isinstance(phi, Atom):
        return Atom(phi.letter)
    if phi is END:
        return End()
    if isinstance(phi, Next):
        return Next(_rebuilt(phi.operand))
    return type(phi)(_rebuilt(phi.left), _rebuilt(phi.right))


@settings(max_examples=100, deadline=None)
@given(_formulas("ab"))
def test_equal_formulae_are_one_object(phi):
    # hypothesis builds phi through the constructors; parse and a rebuild
    # must hand back the very same node
    assert parse(render(phi), AB) is phi
    assert _rebuilt(phi) is phi
    assert copy.copy(phi) is phi
    assert copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi


def test_parse_constructors_and_dualize_share_nodes():
    assert parse("a & X (b U# END)", AB) is And(Atom("a"), Next(UntilLeq(Atom("b"), End())))
    assert parse("F a", AB) is Until(Or(Atom("a"), Or(Atom("b"), END)), Atom("a"))
    # !a is b | END; the dual of X a is X !a | END
    assert dualize(Atom("a"), AB) is parse("!a", AB)
    assert dualize(parse("X a", AB), AB) is parse("X !a | END", AB)
    for phi in corpus():
        assert dualize(phi, AB) is dualize(_rebuilt(phi), AB)


def test_nodes_are_immutable():
    phi = parse("a U# b", AB)
    with pytest.raises(AttributeError):
        phi.left = Atom("b")
    with pytest.raises(AttributeError):
        del phi.right
    assert not hasattr(phi, "__dict__")
    assert phi.left is Atom("a")


@pytest.mark.parametrize("text, canonical, nodes, distinct", [
    ("X " * 3000 + "a", "X " * 3000 + "a", 3001, 3001),
    ("(" * 3000 + "a" + ")" * 3000, "a", 1, 1),
    (" U ".join(["a"] * 3000), " U ".join(["a"] * 3000), 5999, 3000),
    ("X (" * 1500 + "a" + ")" * 1500, "X " * 1500 + "a", 1501, 1501),
], ids=["next-chain", "parentheses", "until-chain", "next-parentheses"])
def test_deep_formulae_parse_and_render(text, canonical, nodes, distinct):
    # parse, render, size and subformulas use no recursion
    phi = parse(text, AB)
    assert render(phi) == canonical
    assert parse(canonical, AB) is phi
    assert size(phi) == nodes
    assert len(subformulas(phi)) == distinct


def test_dualize_and_node_arity_refuse_with_their_texts():
    with pytest.raises(ValueError, match="^dualize expects a pure LTL<= formula$"):
        dualize(parse("a R# b", "ab"), "ab")
    with pytest.raises(TypeError, match="^And takes 2 fields$"):
        And(Atom("a"))
