"""AST, parser, printer, and dualization for LTL<= and nLTL<= formulae.

The AST keeps only the seven core constructors; TRUE, FALSE, F, G and !a are
expanded at parse time. U# stands for the bounded until (at most N mistakes),
R# for its dual release (at least N confirmations).
"""

import weakref
from functools import partial

from .core import Alphabet, reach

# (class, *fields) -> weak reference to the live node with those fields. A
# plain dict: with a WeakValueDictionary, whose get, set and removal run in
# Python, building and dropping a node took about 1.6 times as long.
_INTERNED = {}


def _forget(key, ref):
    # a dead node's callback drops its entry, unless a newer node took it
    # between the reference being cleared and the callback running
    if _INTERNED.get(key) is ref:
        del _INTERNED[key]


class Node:
    """A formula node. Nodes are hash-consed: constructing one returns the
    live node with the same class and fields if there is one, so equal
    formulae are the same object and == and hash are O(1) identity tests.
    Nodes are immutable. Each carries its size. A subclass's __slots__ names
    its fields."""

    __slots__ = ("__weakref__", "_size")
    atomic = False  # Atom and End: the letter tests
    reduced = False  # atomic or Next: untouched by the epsilon reductions

    def __new__(cls, *fields):
        key = (cls,) + fields
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError("%s takes %d fields" % (cls.__name__, len(cls.__slots__)))
            node = object.__new__(cls)
            size = 1
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
                if isinstance(value, Node):
                    size += value._size
            object.__setattr__(node, "_size", size)
            _INTERNED[key] = weakref.ref(node, partial(_forget, key))
        return node

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, *_):
        raise AttributeError("formula nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the interning constructor
        return type(self), self._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._fields())))


class Atom(Node):
    __slots__ = ("letter",)
    atomic = reduced = True


class End(Node):
    __slots__ = ()
    atomic = reduced = True


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Next(Node):
    __slots__ = ("operand",)
    reduced = True


class Until(Node):
    __slots__ = ("left", "right")


class UntilLeq(Node):
    __slots__ = ("left", "right")


class ReleaseGeq(Node):
    __slots__ = ("left", "right")


def children(node):
    if node.atomic:
        return ()
    if type(node) is Next:
        return (node.operand,)
    return (node.left, node.right)


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


def _is_atom(word):
    return len(word) == 1 and word.isalpha() and word.islower()


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
            elif _is_atom(word):
                tokens.append(("atom", i, word))
            else:
                raise ParseError("unknown token %r" % word, i)
            i = j
            continue
        raise ParseError("unexpected character %r" % c, i)
    return tokens


# precedence and constructor of the binary operators; | and & group to the
# left, the until-level operators to the right
_BINARY = {"|": (0, Or), "&": (1, And), "U": (2, Until), "U#": (2, UntilLeq),
           "R#": (2, ReleaseGeq)}
_PREFIX = ("X", "F", "G")


def parse(text, alphabet):
    """Operator-precedence parse on explicit stacks, so that nesting depth
    (X chains, parentheses, until chains) is not bounded by recursion."""
    alphabet = Alphabet(alphabet)
    for a in alphabet:
        if not _is_atom(a):  # else render would print what parse cannot read
            raise ParseError("letter %r of the alphabet is not a lowercase letter" % a, 0)
    tokens = _tokenize(text)
    pos = 0
    operands = []
    ops = []  # pending "(", prefix and binary operators, innermost last

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ParseError("unexpected end of input", len(text))
        pos += 1
        return tokens[pos - 1]

    def letter(tok):
        if tok[0] != "atom":
            raise ParseError("! applies to atoms only", tok[1])
        if tok[2] not in alphabet:
            raise ParseError("atom %r outside alphabet" % tok[2], tok[1])
        return tok[2]

    def leaf(tok):
        kind = tok[0]
        if kind == "atom":
            return Atom(letter(tok))
        if kind == "END":
            return END
        if kind == "TRUE":
            return true_formula(alphabet)
        if kind == "FALSE":
            return false_formula(alphabet)
        if kind == "!":
            return neg_atom(letter(take()), alphabet)
        raise ParseError("unexpected token %s" % kind, tok[1])

    def reduce_binary(level):
        # apply the pending binary operators of precedence >= level
        while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] >= level:
            right = operands.pop()
            operands[-1] = _BINARY[ops.pop()][1](operands[-1], right)

    while True:
        tok = take()
        if tok[0] in _PREFIX or tok[0] == "(":
            ops.append(tok[0])
            continue
        operands.append(leaf(tok))
        while True:
            # a complete operand: apply its prefix operators, close groups
            while ops and ops[-1] in _PREFIX:
                op, phi = ops.pop(), operands[-1]
                if op == "X":
                    operands[-1] = Next(phi)
                elif op == "F":
                    operands[-1] = Until(true_formula(alphabet), phi)
                else:
                    operands[-1] = Until(phi, END)
            tok = tokens[pos] if pos < len(tokens) else None
            if tok is None or tok[0] != ")":
                break
            reduce_binary(0)
            if not ops:
                raise ParseError("trailing input", tok[1])
            ops.pop()
            pos += 1
        if tok is None:
            break
        if tok[0] not in _BINARY:
            if "(" in ops:
                raise ParseError("expected ), got %s" % tok[0], tok[1])
            raise ParseError("trailing input", tok[1])
        level = _BINARY[tok[0]][0]
        reduce_binary(level + 1 if level == 2 else level)
        ops.append(tok[0])
        pos += 1
    reduce_binary(0)
    if ops:
        raise ParseError("unexpected end of input", len(text))
    node = operands[0]
    if not (is_ltl(node) or is_nltl(node)):
        raise ParseError("formula mixes U# and R#", 0)
    return node


_LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = 0, 1, 2, 3

# operator text, own level, and the levels its left and right operands need
_RENDER = {Or: (" | ", _LEVEL_OR, _LEVEL_OR, _LEVEL_AND),
           And: (" & ", _LEVEL_AND, _LEVEL_AND, _LEVEL_UNTIL),
           Until: (" U ", _LEVEL_UNTIL, _LEVEL_UNTIL + 1, _LEVEL_UNTIL),
           UntilLeq: (" U# ", _LEVEL_UNTIL, _LEVEL_UNTIL + 1, _LEVEL_UNTIL),
           ReleaseGeq: (" R# ", _LEVEL_UNTIL, _LEVEL_UNTIL + 1, _LEVEL_UNTIL)}


def render(node):
    """Inverse of parse: parse(render(phi), alphabet) is phi."""
    out = []
    stack = [(node, _LEVEL_OR)]  # (node, the level it needs) or literal text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, min_level = item
        if type(n) is Atom:
            out.append(n.letter)
        elif type(n) is End:
            out.append("END")
        elif type(n) is Next:
            out.append("X ")
            stack.append((n.operand, _LEVEL_UNARY))
        else:
            op, level, left_level, right_level = _RENDER[type(n)]
            if level < min_level:
                out.append("(")
                stack.append(")")
            stack += [(n.right, right_level), op, (n.left, left_level)]
    return "".join(out)


def size(node):
    """Number of nodes in the syntax tree, shared subtrees counted per
    occurrence; computed once, when the node is built."""
    return node._size


def subformulas(node):
    """The least subformula-closed set containing node, in pre-order of first
    occurrence (left before right), so bounded operators are indexed
    deterministically left-to-right."""
    return reach([node], children)


def is_ltl(node):
    return not any(isinstance(s, ReleaseGeq) for s in subformulas(node))


def is_nltl(node):
    return not any(isinstance(s, UntilLeq) for s in subformulas(node))


def dualize(node, alphabet):
    """Negation pushed to the leaves: turns an LTL<= formula into the nLTL<=
    formula for the complement budget semantics. Each subformula is negated
    once, children before parents, so deep formulae need no recursion."""
    alphabet = Alphabet(alphabet)
    subs = subformulas(node)
    if any(type(s) is ReleaseGeq for s in subs):
        raise ValueError("dualize expects a pure LTL<= formula")
    neg = {}
    for n in sorted(subs, key=size):
        kind = type(n)
        if kind is Atom:
            out = neg_atom(n.letter, alphabet)
        elif kind is End:
            out = or_fold([Atom(b) for b in alphabet])
        elif kind is And:
            out = Or(neg[n.left], neg[n.right])
        elif kind is Or:
            out = And(neg[n.left], neg[n.right])
        elif kind is Next:
            # Xφ is false at the last position, so its negation holds there.
            out = Or(Next(neg[n.operand]), END)
        elif kind is Until:
            # the refuting position must itself refute the until target
            nr = neg[n.right]
            out = Until(nr, And(nr, Or(neg[n.left], END)))
        else:  # UntilLeq: ReleaseGeq was ruled out above
            # R counts from the next position on, so it cannot refute the
            # until target holding right here; conjoin that refutation.
            out = And(neg[n.right], ReleaseGeq(neg[n.left], neg[n.right]))
        neg[n] = out
    return neg[node]
