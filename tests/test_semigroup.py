"""Stabilization semigroups: axioms, recognition by factorization trees,
#-expressions, and the file format."""

import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from costltl import (
    INF,
    Recognizer,
    achievable_values,
    classify,
    dumps_semigroup,
    eval_expr,
    idempotent_power,
    instantiate,
    language_recognizer,
    load_semigroup,
    loads_semigroup,
    ltl_to_b,
    make_semigroup,
    parse,
    parse_expr,
    recognize,
    render_expr,
    save_semigroup,
    validate_axioms,
)
from costltl.actions import S_ACTIONS, S_ELEMS
from costltl.semigroup import ECat, ELetter, EOmega, EOmegaSharp, ESharp
from conftest import AB, all_words, assert_matches_scan, fixture


@pytest.fixture(scope="module")
def counting():
    return load_semigroup(fixture("counting.sg"))


@pytest.fixture(scope="module")
def parity():
    return load_semigroup(fixture("parity.sg"))


def test_fixture_axioms(counting, parity):
    for sg, _rec in (counting, parity):
        assert validate_axioms(sg) == []


def test_idempotent_power(counting):
    sg, _ = counting
    for s in sg.elements:
        e = idempotent_power(sg, s)
        assert sg.mul(e, e) == e
        # e is a power of s: reachable by repeated right-multiplication
        x, seen = s, set()
        while x not in seen:
            seen.add(x)
            x = sg.mul(x, s)
        assert e in seen


def test_recognize_counts_letters_exactly(counting):
    _, rec = counting
    for u in all_words(6, min_len=1):
        assert recognize(rec, u) == u.count("a"), u


def test_recognize_escape_threshold_is_tight(counting):
    _, rec = counting
    # recognize is the least threshold whose trees all avoid the ideal
    for u in ["a", "aa", "baab", "ababa"]:
        v = recognize(rec, u)
        values = achievable_values(rec, rec.image(u))
        assert not (values[v] & rec.ideal)
        if v > 0:
            assert values[v - 1] & rec.ideal


def test_achievable_values_monotone_shrinking(counting):
    # raising the threshold only removes stabilization opportunities
    _, rec = counting
    values = achievable_values(rec, rec.image("abaab"))
    for n in range(1, len(values)):
        assert values[n] <= values[n - 1], n


def test_expr_parse_render_roundtrip(counting):
    for text in ["a", "ab", "(ab)^#", "a^w", "a^ws", "((ab)^#a)^#", "a^w b",
                 "a^w s", "a^w s^w", "a^w sa", "a^ws s"]:
        e = parse_expr(text)
        assert parse_expr(render_expr(e)) == e, text


def test_render_keeps_omega_apart_from_letter_s():
    # an omega followed by the letter s must not read back as an omega-sharp
    e = ECat(EOmega(ELetter("a")), ELetter("s"))
    assert render_expr(e) == "a^w(s)"
    assert parse_expr(render_expr(e)) == e
    assert instantiate(parse_expr(render_expr(e)), 2, 3) == instantiate(e, 2, 3) == "aas"
    assert render_expr(EOmegaSharp(ELetter("a"))) == "a^ws"


@pytest.mark.parametrize("text, message", [
    ("", "empty expression at position 0"),
    ("()", "empty expression at position 1"),
    ("  ", "empty expression at position 2"),
    ("a(", "empty expression at position 2"),
    ("a)", "trailing input at position 1"),
    ("(a))", "trailing input at position 3"),
    ("^w", "unexpected character '^' at position 0"),
    ("a ^w", "unexpected character '^' at position 2"),
    ("a^x", "unknown superscript at position 1"),
    ("a^w^", "unknown superscript at position 3"),
    ("(a)^", "unknown superscript at position 3"),
    ("((a)", "unbalanced parenthesis at position 4"),
])
def test_parse_expr_errors(text, message):
    with pytest.raises(ValueError) as info:
        parse_expr(text)
    assert str(info.value) == message


def test_parse_expr_groups_and_superscripts():
    a, b, c, d = map(ELetter, "abcd")
    assert parse_expr(" (a (b c)^w)^# d^ws") == ECat(
        ESharp(ECat(a, EOmega(ECat(b, c)))), EOmegaSharp(d))
    assert parse_expr("((a^w)^ws)") == EOmegaSharp(EOmega(a))


def test_classify_counting(counting):
    sg, rec = counting
    # unboundedly many a-blocks: value escapes every threshold
    assert classify(rec, parse_expr("a^ws")) == "F-infinity"
    # pure b-words: value 0 everywhere
    assert classify(rec, parse_expr("b^w")) == "F-bounded"


def test_classify_parity(parity):
    _, rec = parity
    assert classify(rec, parse_expr("(aa)^#")) == "F-infinity"
    assert classify(rec, parse_expr("aa")) == "F-bounded"


def test_eval_expr_and_instantiate_agree(counting):
    sg, rec = counting
    for text in ["ab", "a^w", "(ab)^# b"]:
        e = parse_expr(text)
        val = eval_expr(sg, rec.h, e)
        word = instantiate(e, k=4, n=2)
        assert all(c in rec.h for c in word)
        assert val in sg.elements


def test_serialization_roundtrip(counting, parity):
    for sg, rec in (counting, parity):
        text = dumps_semigroup(sg, rec)
        sg2, rec2 = loads_semigroup(text)
        assert sg2 == sg
        assert rec2 == rec
        assert dumps_semigroup(sg2, rec2) == text


def test_save_keeps_old_file_when_dump_fails(tmp_path):
    path = tmp_path / "old.sg"
    path.write_text("old content\n", encoding="utf-8")
    spaced = make_semigroup(("a b",), {("a b", "a b"): "a b"}, [], {"a b": "a b"})
    with pytest.raises(ValueError, match="element name 'a b' cannot be written"):
        save_semigroup(spaced, str(path))
    assert path.read_text(encoding="utf-8") == "old content\n"


@pytest.mark.parametrize("name", ["x:y", "x y", ""])
def test_dumps_rejects_unwritable_element_names(name):
    # "product x:y : ..." and "elements x y" would not read back
    elems = ("b", name)
    sg = make_semigroup(elems, {(x, y): "b" for x in elems for y in elems}, [], {"b": "b"})
    message = "element name %s cannot be written" % re.escape(repr(name))
    with pytest.raises(ValueError, match=message):
        dumps_semigroup(sg)


def test_make_semigroup_rejects_a_partial_or_escaping_product():
    with pytest.raises(ValueError, match=re.escape("product undefined on (a, b)")):
        make_semigroup(("a", "b"), {("a", "a"): "a"}, [], {})
    full = {(x, y): "a" for x in "ab" for y in "ab"}
    with pytest.raises(ValueError, match="product names undeclared element 'c'"):
        make_semigroup(("a", "b"), {**full, ("b", "a"): "c"}, [], {})


ONE = {("a", "a"): "a"}


@pytest.mark.parametrize("args, message", [
    ((["a"], ONE, [], {"a": "a"}, "z"), "neutral names undeclared element 'z'"),
    ((["a"], {**ONE, ("a", "z"): "a"}, [], {"a": "a"}), "product names undeclared element 'z'"),
    ((["a"], {("a", "a"): "z"}, [], {"a": "a"}), "product names undeclared element 'z'"),
    ((["a"], ONE, [("a", "z")], {"a": "a"}), "order names undeclared element 'z'"),
    ((["a"], ONE, [], {"a": "a", "z": "a"}), "sharp names undeclared element 'z'"),
    ((["a"], ONE, [], {"a": "z"}), "sharp names undeclared element 'z'"),
    (([], {}, [], {}), "missing elements"),
    ((["a", "b", "a"], {(x, y): "a" for x in "ab" for y in "ab"}, [], {"a": "a"}),
     "repeated element 'a'"),
], ids=["neutral", "product key", "product value", "order", "sharp key", "sharp value",
        "empty", "repeated"])
def test_make_semigroup_rejects_names_that_are_not_elements(args, message):
    # unchecked, a foreign name reaches validate_axioms as a bare KeyError or
    # stays in the semigroup unseen, and a repeated element skews the table
    with pytest.raises(ValueError, match=re.escape(message)):
        make_semigroup(*args)


def product_dict(sg):
    return {(x, y): sg.mul(x, y) for x in sg.elements for y in sg.elements}


@pytest.mark.parametrize("name", ["saction.sg", "counting.sg", "parity.sg"])
def test_make_semigroup_rebuilds_a_fixture_from_its_products(name):
    sg, _ = load_semigroup(fixture(name))
    assert make_semigroup(sg.elements, product_dict(sg), sg.leq, sg.sharp, sg.neutral) == sg


def test_loads_rejects_malformed(counting):
    with pytest.raises(ValueError):
        loads_semigroup("costltl-format 1\nautomaton\n")
    sg, rec = counting
    text = dumps_semigroup(sg, rec).replace("ideal bot", "ideal b")
    with pytest.raises(ValueError):
        loads_semigroup(text)


@pytest.mark.parametrize("old, new", [
    ("h a a", "h a zz"),
    ("ideal bot", "ideal zz"),
    ("order a b", "order a b\norder q bot"),
    ("sharp a bot", "sharp a zz"),
    ("neutral b", "neutral zz"),
    ("product b : bot a b", "product zz : bot a b"),
    ("product b : bot a b", "product b : bot a zz"),
])
def test_loads_rejects_undeclared_names(old, new):
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with pytest.raises(ValueError, match="undeclared element"):
        loads_semigroup(text.replace(old, new))


def test_recognizer_rejects_zero_height_and_unmapped_letter(counting):
    sg, rec = counting
    with pytest.raises(ValueError, match="height"):
        Recognizer(sg, rec.h, rec.ideal, 0)
    with pytest.raises(ValueError, match="no image"):
        recognize(rec, "abc")


@pytest.mark.parametrize("letter, message", [("aa", "single symbols: 'aa'"),
                                             ("", "single symbols: ''"),
                                             (" ", "blank letter ' '")])
def test_recognizer_rejects_a_letter_that_is_not_one_symbol(counting, letter, message):
    # built recognizers follow the rule of every alphabet
    sg, rec = counting
    with pytest.raises(ValueError, match=message):
        Recognizer(sg, {**rec.h, letter: "a"}, rec.ideal)


def test_loaded_recognizer_rejects_a_letter_that_is_not_one_symbol():
    with open(fixture("counting.sg"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\nh a a\n" in text
    with pytest.raises(ValueError, match="single symbols: 'aa'"):
        loads_semigroup(text.replace("\nh a a\n", "\nh aa a\n"))


def test_recognizer_rejects_images_and_ideal_members_that_are_not_elements(counting):
    sg, rec = counting
    with pytest.raises(ValueError, match="h names undeclared element 'zz'"):
        Recognizer(sg, {**rec.h, "a": "zz"}, rec.ideal)
    with pytest.raises(ValueError, match="ideal names undeclared element 'ghost'"):
        Recognizer(sg, rec.h, rec.ideal | {"ghost"})


def test_recognize_empty_word_rejected(counting):
    _, rec = counting
    with pytest.raises(ValueError):
        recognize(rec, "")


def test_achievable_values_has_one_entry_per_threshold(counting):
    # entry n for each n in [0, |w|]; every larger n reads the last one
    _, rec = counting
    for u in ["a", "ab", "abaab"]:
        assert len(achievable_values(rec, rec.image(u))) == len(u) + 1
    with pytest.raises(ValueError, match="nonempty sequence"):
        achievable_values(rec, ())


def test_recognizer_rejects_an_ideal_that_is_not_downward_closed(counting):
    # bot <= a <= b in counting.sg, so an ideal holding a or b must hold bot;
    # the first member by name is named, whatever the hash order
    sg, rec = counting
    with pytest.raises(ValueError, match="^ideal not downward-closed: bot <= a$"):
        Recognizer(sg, rec.h, frozenset({"a", "b"}))


@pytest.mark.parametrize("name", ["counting.sg", "parity.sg"])
def test_recognize_matches_scan_on_fixtures(name):
    _, rec = load_semigroup(fixture(name))
    for u in all_words(6, min_len=1):
        if set(u) <= rec.h.keys():
            assert_matches_scan(rec, u)


@st.composite
def action_recognizers(draw):
    """Recognizers over S_ACTIONS: a random image of each letter, the
    downward closure of a random set of elements as ideal, height 1-6."""
    h = {a: draw(st.sampled_from(S_ELEMS)) for a in "ab"}
    tops = draw(st.sets(st.sampled_from(S_ELEMS)))
    ideal = frozenset(x for x in S_ELEMS if any(S_ACTIONS.le(x, t) for t in tops))
    return Recognizer(S_ACTIONS, h, ideal, draw(st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@given(action_recognizers(), st.text("ab", min_size=1, max_size=7))
def test_recognize_matches_scan_on_action_recognizers(rec, u):
    assert_matches_scan(rec, u)


def _with_height(rec, height):
    return Recognizer(rec.semigroup, rec.h, rec.ideal, height)


# counter-free formulae whose language recognizers have 22-30 elements
LONG_WORD_FORMULAS = ["X X X a", "(X a U b) U (X X b)", "(a U X b) U X X a"]


def test_recognize_matches_scan_on_long_words():
    """The semi-naive DP against the per-threshold scan on words longer than
    test_recognize_matches_scan_on_fixtures reaches, at each recognizer's
    height and at heights 1-3, where the height binds before the fixpoint."""
    rng = random.Random(25)
    _, counting = load_semigroup(fixture("counting.sg"))
    _, parity = load_semigroup(fixture("parity.sg"))
    words = []
    for length, a_share in zip(range(7, 13), (0, 1, 0.2, 0.8, 0.4, 0.6)):
        a_count = round(a_share * length)
        letters = list("a" * a_count + "b" * (length - a_count))
        rng.shuffle(letters)
        words.append((counting, "".join(letters)))
    words += [(parity, "a" * n) for n in range(1, 15)]
    for text in LONG_WORD_FORMULAS:
        rec = language_recognizer(ltl_to_b(parse(text, AB), AB))
        assert len(rec.semigroup.elements) >= 20, text
        words.append((rec, "".join(rng.choice("ab") for _ in range(5))))
    # here some trees join a left child built rounds ago to a right child
    # that only the last round built: only the vals·delta product finds them
    actions = Recognizer(S_ACTIONS, {"a": "cr", "b": "i"}, frozenset(), 6)
    words.append((actions, "ab" * 5))
    for rec, u in words:
        for height in (rec.height, 1, 2, 3):
            assert_matches_scan(_with_height(rec, height), u)


@pytest.mark.parametrize("image", S_ELEMS)
def test_one_letter_words_match_scan_on_every_action(image):
    """A word of one letter, at heights 1-3: at n = 0 its single part
    already counts as many, so an idempotent image also stabilizes there,
    a bit in the first block of the row that the DP must keep."""
    ideal = frozenset(x for x in S_ELEMS if S_ACTIONS.le(x, image))
    for height in (1, 2, 3):
        assert_matches_scan(Recognizer(S_ACTIONS, {"a": image}, ideal, height), "a")


def test_parity_word_of_thirteen_letters_matches_scan_at_height_twelve():
    """Thirteen letters at height 12, where the DP runs many rounds over
    14-bit end blocks: taking the block of one end must not carry bits of
    the next end's block."""
    _, parity = load_semigroup(fixture("parity.sg"))
    assert parity.height == 12
    assert_matches_scan(parity, "a" * 13)


def _recognition_inputs(seed):
    """2,000 seeded (label, recognizer, word) triples: parity on a^1..a^24
    and counting on words up to length 24, past the scan oracle's reach;
    recognizers of the action_recognizers shape over S_ACTIONS; the
    LONG_WORD_FORMULAS language recognizers. Each recognizer takes height
    1, 2, 3 or its own."""
    rng = random.Random(seed)
    _, counting = load_semigroup(fixture("counting.sg"))
    _, parity = load_semigroup(fixture("parity.sg"))
    languages = [(text, language_recognizer(ltl_to_b(parse(text, AB), AB)))
                 for text in LONG_WORD_FORMULAS]

    def word(length):
        return "".join(rng.choice("ab") for _ in range(length))

    def some_height(rec):
        return _with_height(rec, rng.choice((1, 2, 3, rec.height)))

    inputs = [("parity", _with_height(parity, h), "a" * n)
              for n in range(1, 25) for h in (1, 2, 3, parity.height)]
    inputs += [("counting", some_height(counting), word(n)) for n in range(13, 25)]
    inputs += [("counting", some_height(counting), word(rng.randint(1, 12)))
               for _ in range(700)]
    for _ in range(850):
        h = {a: rng.choice(S_ELEMS) for a in "ab"}
        tops = rng.sample(S_ELEMS, rng.randint(0, 3))
        ideal = frozenset(x for x in S_ELEMS if any(S_ACTIONS.le(x, t) for t in tops))
        label = "actions %s %s" % (sorted(h.items()), sorted(ideal))
        inputs.append((label, some_height(Recognizer(S_ACTIONS, h, ideal)),
                       word(rng.randint(1, 10))))
    while len(inputs) < 2000:
        text, rec = rng.choice(languages)
        inputs.append((text, some_height(rec), word(rng.randint(1, 9))))
    return inputs


def test_recognition_outputs_are_pinned():
    """sha256 of recognize and of achievable_values at every n in
    [0, |u| + 1] on 2,000 seeded inputs, pinned on the DP that kept one
    table per interval: any layout of the DP must reproduce every value.
    n = |u| + 1 reads the last entry, as every n >= |u| does."""
    lines = []
    for label, rec, u in _recognition_inputs(30):
        values = achievable_values(rec, rec.image(u))
        lines.append("%s h=%d %s -> %s" % (label, rec.height, u, recognize(rec, u)))
        lines += [" ".join(sorted(values[min(n, len(u))])) for n in range(len(u) + 2)]
    assert len(lines) > 2000 * 3
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "426fb6a68e1c8ae6dd7b4ed6424ab6fdf051ef0b1df2a0cfe35843658775ab74"


def test_validate_axioms_lists_each_bad_pair_once_in_order():
    """A hand-broken parity product: one associativity line per bad (x, y),
    naming its first bad z, in the order of the pairs, then the other laws."""
    text = open(fixture("parity.sg"), encoding="utf-8").read()
    sg, _ = loads_semigroup(text.replace("product aa : a aa z za", "product aa : a aa za z"))
    assert validate_axioms(sg) == [
        "associativity fails on (a, a, z)",
        "associativity fails on (a, aa, z)",
        "associativity fails on (aa, a, z)",
        "associativity fails on (aa, aa, z)",
        "associativity fails on (z, aa, z)",
        "associativity fails on (za, aa, z)",
        "order incompatible: z<=aa but aa.z !<= aa.aa",
        "order incompatible: z<=aa but z.z !<= aa.z",
        "order incompatible: z<=aa but z.za !<= aa.za",
        "order incompatible: za<=a but aa.za !<= aa.a",
        "derived identity e.e# fails at aa",
        "(ab)# != a(ba)#b on (aa, aa)",
    ]


def _mutant_diagnostics(count, seed):
    """Lines naming each of count seeded single-entry product mutants of the
    three fixture semigroups, each followed by its validate_axioms lines."""
    rng = random.Random(seed)
    names = ("saction.sg", "counting.sg", "parity.sg")
    loaded = {name: load_semigroup(fixture(name))[0] for name in names}
    lines = []
    for k in range(count):
        name = names[k % len(names)]
        sg = loaded[name]
        product = product_dict(sg)
        x, y = rng.choice(sg.elements), rng.choice(sg.elements)
        product[(x, y)] = z = rng.choice([v for v in sg.elements if v != product[(x, y)]])
        mutant = make_semigroup(sg.elements, product, sg.leq, sg.sharp, sg.neutral)
        lines.append("%s %s.%s=%s" % (name, x, y, z))
        lines += validate_axioms(mutant)
    return lines


def test_validate_axioms_diagnostics_on_mutants_are_pinned():
    """sha256 of the diagnostics of 400 product mutants, pinned when the
    product was still a dict of name pairs: the product table must report
    every law, and word it, as that dict did."""
    lines = _mutant_diagnostics(400, 28)
    assert sum(1 for ln in lines if " fails on " in ln) > 400
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a511c59e1d916137e2744774b548c5817746ef36c101a7099f9e5fa70118108c"
