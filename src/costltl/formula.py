"""AST, parser, printer, and dualization for LTL<= and nLTL<= formulae.

The AST keeps only the seven core constructors; TRUE, FALSE, F, G and !a are
expanded at parse time. U# stands for the bounded until (at most N mistakes),
R# for its dual release (at least N confirmations).
"""

from dataclasses import dataclass

from .core import Alphabet


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Atom(Node):
    letter: str


@dataclass(frozen=True)
class End(Node):
    pass


@dataclass(frozen=True)
class And(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Next(Node):
    operand: Node


@dataclass(frozen=True)
class Until(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class UntilLeq(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class ReleaseGeq(Node):
    left: Node
    right: Node


END = End()


def or_fold(parts):
    if not parts:
        raise ValueError("empty disjunction")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def neg_atom(a, alphabet):
    """!a expanded: disjunction of the other letters, or END."""
    return or_fold([Atom(b) for b in alphabet if b != a] + [END])


def true_formula(alphabet):
    a = alphabet.letters[0]
    return Or(Atom(a), neg_atom(a, alphabet))


def false_formula(alphabet):
    a = alphabet.letters[0]
    return And(Atom(a), neg_atom(a, alphabet))


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_KEYWORDS = {"END", "TRUE", "FALSE", "X", "F", "G", "U"}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()&|!":
            tokens.append((c, i))
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word in ("U", "R") and j < len(text) and text[j] == "#":
                tokens.append((word + "#", i))
                i = j + 1
                continue
            if word in _KEYWORDS:
                tokens.append((word, i))
            elif len(word) == 1 and word.islower():
                tokens.append(("atom", i, word))
            else:
                raise ParseError("unknown token %r" % word, i)
            i = j
            continue
        raise ParseError("unexpected character %r" % c, i)
    return tokens


class _Parser:
    def __init__(self, tokens, alphabet, text_len):
        self.tokens = tokens
        self.alphabet = alphabet
        self.pos = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len)
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError("expected %s, got %s" % (kind, tok[0]), tok[1])
        return tok

    def parse_or(self):
        node = self.parse_and()
        while self.peek() is not None and self.peek()[0] == "|":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_until()
        while self.peek() is not None and self.peek()[0] == "&":
            self.take()
            node = And(node, self.parse_until())
        return node

    def parse_until(self):
        left = self.parse_unary()
        tok = self.peek()
        if tok is not None and tok[0] in ("U", "U#", "R#"):
            self.take()
            right = self.parse_until()
            if tok[0] == "U":
                return Until(left, right)
            if tok[0] == "U#":
                return UntilLeq(left, right)
            return ReleaseGeq(left, right)
        return left

    def parse_unary(self):
        tok = self.take()
        kind = tok[0]
        if kind == "atom":
            a = tok[2]
            if a not in self.alphabet:
                raise ParseError("atom %r outside alphabet" % a, tok[1])
            return Atom(a)
        if kind == "END":
            return END
        if kind == "TRUE":
            return true_formula(self.alphabet)
        if kind == "FALSE":
            return false_formula(self.alphabet)
        if kind == "!":
            sub = self.take()
            if sub[0] != "atom":
                raise ParseError("! applies to atoms only", sub[1])
            a = sub[2]
            if a not in self.alphabet:
                raise ParseError("atom %r outside alphabet" % a, sub[1])
            return neg_atom(a, self.alphabet)
        if kind == "X":
            return Next(self.parse_unary())
        if kind == "F":
            return Until(true_formula(self.alphabet), self.parse_unary())
        if kind == "G":
            return Until(self.parse_unary(), END)
        if kind == "(":
            node = self.parse_or()
            self.expect(")")
            return node
        raise ParseError("unexpected token %s" % kind, tok[1])


def parse(text, alphabet):
    alphabet = Alphabet(alphabet)
    parser = _Parser(_tokenize(text), alphabet, len(text))
    node = parser.parse_or()
    tok = parser.peek()
    if tok is not None:
        raise ParseError("trailing input", tok[1])
    if not (is_ltl(node) or is_nltl(node)):
        raise ParseError("formula mixes U# and R#", 0)
    return node


_LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = 0, 1, 2, 3


def _render(node, min_level):
    if isinstance(node, Atom):
        return node.letter
    if isinstance(node, End):
        return "END"
    if isinstance(node, Next):
        return "X " + _render(node.operand, _LEVEL_UNARY)
    if isinstance(node, Or):
        text, level = _render(node.left, _LEVEL_OR) + " | " + _render(node.right, _LEVEL_AND), _LEVEL_OR
    elif isinstance(node, And):
        text, level = _render(node.left, _LEVEL_AND) + " & " + _render(node.right, _LEVEL_UNTIL), _LEVEL_AND
    else:
        op = {Until: "U", UntilLeq: "U#", ReleaseGeq: "R#"}[type(node)]
        text = _render(node.left, _LEVEL_UNTIL + 1) + " " + op + " " + _render(node.right, _LEVEL_UNTIL)
        level = _LEVEL_UNTIL
    if level < min_level:
        return "(" + text + ")"
    return text


def render(node):
    """Inverse of parse: parse(render(phi), alphabet) == phi."""
    return _render(node, _LEVEL_OR)


def children(node):
    if isinstance(node, (Atom, End)):
        return ()
    if isinstance(node, Next):
        return (node.operand,)
    return (node.left, node.right)


def size(node):
    return 1 + sum(size(c) for c in children(node))


def subformulas(node):
    """The least subformula-closed set containing node, in pre-order of first
    occurrence (left before right), so bounded operators are indexed
    deterministically left-to-right."""
    seen = []
    seen_set = set()

    def walk(n):
        if n not in seen_set:
            seen_set.add(n)
            seen.append(n)
        for c in children(n):
            walk(c)

    walk(node)
    return seen


def counter_indices(node, kind):
    """Map each distinct `kind` subformula (UntilLeq or ReleaseGeq) to its
    1-based counter index in left-to-right order."""
    out = {}
    for s in subformulas(node):
        if isinstance(s, kind):
            out[s] = len(out) + 1
    return out


def is_ltl(node):
    return not any(isinstance(s, ReleaseGeq) for s in subformulas(node))


def is_nltl(node):
    return not any(isinstance(s, UntilLeq) for s in subformulas(node))


def dualize(node, alphabet):
    """Negation pushed to the leaves: turns an LTL<= formula into the nLTL<=
    formula for the complement budget semantics."""
    alphabet = Alphabet(alphabet)
    if not is_ltl(node):
        raise ValueError("dualize expects a pure LTL<= formula")

    def neg(n):
        if isinstance(n, Atom):
            return neg_atom(n.letter, alphabet)
        if isinstance(n, End):
            return or_fold([Atom(b) for b in alphabet])
        if isinstance(n, And):
            return Or(neg(n.left), neg(n.right))
        if isinstance(n, Or):
            return And(neg(n.left), neg(n.right))
        if isinstance(n, Next):
            # Xφ is false at the last position, so its negation holds there.
            return Or(Next(neg(n.operand)), END)
        if isinstance(n, Until):
            # the refuting position must itself refute the until target
            nr = neg(n.right)
            return Until(nr, And(nr, Or(neg(n.left), END)))
        if isinstance(n, UntilLeq):
            # R counts from the next position on, so it cannot refute the
            # until target holding right here; conjoin that refutation.
            return And(neg(n.right), ReleaseGeq(neg(n.left), neg(n.right)))
        raise ValueError("cannot negate %r" % (n,))

    return neg(node)


def sort_key(node):
    return (size(node), render(node))
