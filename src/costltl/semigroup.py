"""Finite stabilization semigroups: axioms, recognition via bounded-height
factorization trees, sharp expressions and their boundedness classification."""

from dataclasses import dataclass
from functools import reduce

from .core import (FORMAT_HEADER, INF, Alphabet, check_writable, order_closure, read_fields,
                   read_int)


@dataclass(frozen=True)
class StabSemigroup:
    """A finite stabilization semigroup whose product is table: table[i][j]
    numbers the product of elements[i] and elements[j], and index maps each
    element to its number. Data from outside the library enters through
    make_semigroup, which checks its structure."""
    elements: tuple
    table: tuple  # rows of element numbers
    leq: frozenset  # pairs (x, y) meaning x <= y, reflexive-transitive
    sharp: dict  # partial, defined exactly on idempotents
    neutral: object = None

    def __post_init__(self):
        object.__setattr__(self, "index", {x: k for k, x in enumerate(self.elements)})

    def mul(self, x, y):
        index = self.index
        return self.elements[self.table[index[x]][index[y]]]

    def le(self, x, y):
        return (x, y) in self.leq

    def is_idempotent(self, x):
        return self.mul(x, x) == x

    def idempotents(self):
        return [x for x in self.elements if self.is_idempotent(x)]


def make_semigroup(elements, product, order_pairs, sharp, neutral=None):
    """Build a StabSemigroup from product, a dict from every pair of elements
    to their product, closing the declared order reflexively and
    transitively. The one check of structure: ValueError on an empty or
    repeated element list, then on a name in neutral, product, order_pairs
    or sharp that is no element, then on a missing product. Run
    validate_axioms for the laws."""
    elements = _elements(elements)
    index = {x: k for k, x in enumerate(elements)}
    for field, names in (("neutral", [] if neutral is None else [neutral]),
                         ("product", [x for xy, z in product.items() for x in xy + (z,)]),
                         ("order", [x for pair in order_pairs for x in pair]),
                         ("sharp", [x for pair in sharp.items() for x in pair])):
        for name in names:
            if name not in index:
                raise ValueError("%s names undeclared element %r" % (field, name))
    for x in elements:
        for y in elements:
            if (x, y) not in product:
                raise ValueError("product undefined on (%s, %s)" % (x, y))
    # lists, not generators (see congruence_classes)
    table = tuple([tuple([index[product[(x, y)]] for y in elements]) for x in elements])
    leq = order_closure(order_pairs, elements)
    return StabSemigroup(elements, table, frozenset(leq), dict(sharp), neutral)


def _elements(names):
    """names as a tuple: nonempty, and no name twice."""
    elements = tuple(names)
    if not elements:
        raise ValueError("missing elements")
    if len(set(elements)) != len(elements):
        raise ValueError("repeated element %r"
                         % next(x for x in elements if elements.count(x) > 1))
    return elements


def validate_axioms(sg):
    """One line per broken law of a stabilization semigroup, sharps defined
    exactly on idempotents included; [] when sg keeps every law."""
    diags = []
    elems = sg.elements
    # row xy of the table must equal x times each entry of row y; only a
    # differing row is scanned for its first bad z
    table = sg.table
    for x, row in zip(elems, table):
        for y, xy, yrow in zip(elems, row, table):
            xyz, x_yz = table[xy], tuple([row[yz] for yz in yrow])
            if xyz != x_yz:
                z = next(z for z, a, b in zip(elems, xyz, x_yz) if a != b)
                diags.append("associativity fails on (%s, %s, %s)" % (x, y, z))
    for x in elems:
        if not sg.le(x, x):
            diags.append("order not reflexive at %s" % (x,))
    for x in elems:
        for y in elems:
            if x != y and sg.le(x, y) and sg.le(y, x):
                diags.append("order not antisymmetric on (%s, %s)" % (x, y))
            if sg.le(x, y):
                for z in elems:
                    if not sg.le(sg.mul(z, x), sg.mul(z, y)):
                        diags.append("order incompatible: %s<=%s but %s.%s !<= %s.%s"
                                     % (x, y, z, x, z, y))
                    if not sg.le(sg.mul(x, z), sg.mul(y, z)):
                        diags.append("order incompatible: %s<=%s but %s.%s !<= %s.%s"
                                     % (x, y, x, z, y, z))
                for z in elems:
                    if sg.le(y, z) and not sg.le(x, z):
                        diags.append("order not transitive on (%s, %s, %s)" % (x, y, z))
    idems = set(sg.idempotents())
    for x in elems:
        if (x in idems) != (x in sg.sharp):
            diags.append("sharp must be defined exactly on idempotents: %s" % (x,))
    if not idems <= sg.sharp.keys():
        return diags
    for e, es in sg.sharp.items():
        if not sg.le(es, e):
            diags.append("sharp(%s) not below %s" % (e, e))
        if sg.sharp.get(es) != es:
            diags.append("sharp(sharp(%s)) != sharp(%s)" % (e, e))
        for prop, got in (("e.e#", sg.mul(e, es)), ("e#.e", sg.mul(es, e)),
                          ("e#.e#", sg.mul(es, es))):
            if got != es:
                diags.append("derived identity %s fails at %s" % (prop, e))
    for a in elems:
        for b in elems:
            ab, ba = sg.mul(a, b), sg.mul(b, a)
            if ab in idems and ba in idems:
                if sg.sharp[ab] != sg.mul(sg.mul(a, sg.sharp[ba]), b):
                    diags.append("(ab)# != a(ba)#b on (%s, %s)" % (a, b))
    for e in idems:
        for f in idems:
            if sg.le(e, f) and not sg.le(sg.sharp[e], sg.sharp[f]):
                diags.append("sharp not monotone on (%s, %s)" % (e, f))
    if sg.neutral is not None:
        one = sg.neutral
        for x in elems:
            if sg.mul(one, x) != x or sg.mul(x, one) != x:
                diags.append("declared neutral %s is not neutral at %s" % (one, x))
        if sg.sharp.get(one) != one:
            diags.append("1# != 1")
    return diags


def power_cycle(sg, s):
    """(powers, index, period): powers lists the distinct powers s, s^2, ...,
    and s^(index + period) = s^index is the first repeat."""
    seen = {}
    powers = []
    x = s
    while x not in seen:
        seen[x] = len(powers) + 1
        powers.append(x)
        x = sg.mul(x, s)
    index = seen[x]
    return powers, index, len(powers) + 1 - index


def idempotent_power(sg, s):
    """The unique idempotent among the powers of s: s^k for the multiple k of
    the period in [index, index + period)."""
    powers, index, period = power_cycle(sg, s)
    return powers[period * ((index + period - 1) // period) - 1]


def omega_sharp(sg, s):
    """(s^omega)#, the stabilization of the idempotent power of s."""
    return sg.sharp[idempotent_power(sg, s)]


@dataclass(frozen=True)
class Recognizer:
    """Letter map h and downward-closed ideal over a semigroup that passes
    validate_axioms, which checks its laws, sharps included."""
    semigroup: StabSemigroup
    h: dict  # letter -> element
    ideal: frozenset
    height: int = None

    def __post_init__(self):
        if self.height is None:
            object.__setattr__(self, "height", 3 * len(self.semigroup.elements))
        if self.height < 1:
            raise ValueError("recognizer height must be at least 1, got %d" % self.height)
        Alphabet(self.h)  # the letters of h follow the rule of every alphabet
        sg = self.semigroup
        for field, names in (("h", self.h.values()), ("ideal", sorted(self.ideal))):
            for name in names:
                if name not in sg.index:
                    raise ValueError("%s names undeclared element %r" % (field, name))
        for s in sorted(self.ideal):
            for t in sg.elements:
                if sg.le(t, s) and t not in self.ideal:
                    raise ValueError("ideal not downward-closed: %s <= %s" % (t, s))

    def image(self, u):
        for a in u:
            if a not in self.h:
                raise ValueError("letter %r has no image under h" % (a,))
        return [self.h[a] for a in u]


def achievable_values(rec, w):
    """Tuple of the values of the n-trees of height <= rec.height over the
    element sequence w for n = 0..len(w), from one DP; every n >= len(w)
    answers like the last entry, as no interval has more parts."""
    masks = _threshold_masks(rec, w).items()
    return tuple(frozenset(x for x, mask in masks if mask >> n & 1) for n in range(len(w) + 1))


def _threshold_masks(rec, w):
    """Value -> bitmask over n in [0, len(w)] of the n-trees of height
    <= rec.height over all of w, for every threshold in one DP.

    Leaves and binary products (whose mask is the AND of its children's) are
    the same at every n. An idempotent node over k >= 2 parts equal to e
    holds for n >= k; a stabilization node over k parts, of value e sharp,
    holds for n < k (at n = 0 a single part already counts as many).

    The DP keeps one int per start i and value, its row over (end,
    threshold): bit j * width + n of vals[i][z] is set when some tree over
    [i, j) has value z at threshold n. So one product covers every end: the
    mask of [i, mid), copied into each end block by one multiplication by
    spread, ANDed with a row of mid. A chain of e-parts from i is a row too,
    one per part count k: k + 1 parts are k parts times an e-part, one such
    product per split, and the masks of n >= k and n < k turn the row into
    idempotent and stabilization bits. No int holds more than (m + 1)^2 bits.

    Round t adds the trees of height t. It is semi-naive: delta[i] holds the
    bits that the last round added to vals[i]. A product then needs only
    delta·vals and vals·delta, since (a|da) & (b|db) adds to a & b, which an
    earlier round merged, only bits that those two cover; a split where
    neither side holds a delta bit is skipped. A chain from i reads only
    rows of starts in [i, m), so it is rerun only from the starts at or left
    of the rightmost start with new e bits. New bits are merged when the
    round ends, so round t reads only trees of height < t, and a round that
    adds no bit ends the DP.
    """
    if not w:
        raise ValueError("achievable_values needs a nonempty sequence")
    sg = rec.semigroup
    index, table = sg.index, sg.table
    m = len(w)
    width = m + 1  # one bit per threshold n = 0..m
    full = (1 << width) - 1
    spread = sum(1 << j * width for j in range(width))  # copies a mask to ends 0..m
    idems = [(index[e], index[sg.sharp[e]]) for e in sg.idempotents()]
    vals = [{index[x]: full << (i + 1) * width} for i, x in enumerate(w)]
    delta = [dict(row) for row in vals]
    for _ in range(rec.height):
        got = [{} for _ in range(m)]
        for i, (row, drow, acc) in enumerate(zip(vals, delta, got)):
            fresh = reduce(int.__or__, drow.values(), 0)
            for mid in range(i + 1, m):
                shift = mid * width
                right, dright = vals[mid], delta[mid]
                if not (fresh >> shift & full or dright):
                    continue
                for x, rx in row.items():
                    mx = rx >> shift & full
                    if not mx:
                        continue
                    products = table[x]
                    mx, dx = mx * spread, (drow.get(x, 0) >> shift & full) * spread
                    for y, ry in right.items():
                        both = dx & ry | mx & dright.get(y, 0)
                        if both:
                            z = products[y]
                            acc[z] = acc.get(z, 0) | both
        for e, es in idems:
            last = max((i for i in range(m) if e in delta[i]), default=-1)
            rows = [row.get(e, 0) for row in vals]
            for i in range(last + 1):
                # the row of [i, j) cut into k e-parts, for k = 1, 2, ...
                chain, k, idem, stab = rows[i], 1, 0, 0
                while chain:
                    ge = spread * (full >> k << k)  # n >= k, in every end block
                    idem |= chain & ge  # at k = 1, bits the part itself holds
                    stab |= chain & ~ge
                    nxt = 0
                    for s in range(i + k, m):
                        mask = chain >> s * width & full
                        if mask and rows[s]:
                            nxt |= mask * spread & rows[s]
                    chain, k = nxt, k + 1
                acc = got[i]  # a zero mask adds nothing at the merge
                acc[e] = acc.get(e, 0) | idem
                acc[es] = acc.get(es, 0) | stab  # es may be e
        grew = False
        for i, (row, acc) in enumerate(zip(vals, got)):
            new = {}
            for z, mz in acc.items():
                mz &= ~row.get(z, 0)
                if mz:
                    new[z] = mz
                    row[z] = row.get(z, 0) | mz
            delta[i] = new
            grew = grew or bool(new)
        if not grew:
            break
    elements, end = sg.elements, m * width
    return {elements[z]: r >> end for z, r in vals[0].items() if r >> end}


def recognize(rec, u):
    """f(u) = least n at which no bounded-height n-tree value stays in the
    accepting ideal; recognition is defined on nonempty words. Expects a
    recognizer whose semigroup passes validate_axioms (else: a bare KeyError)."""
    if not u:
        raise ValueError("recognition defined on A+, not the empty word")
    w = rec.image(u)
    held = 0
    for x, mask in _threshold_masks(rec, w).items():
        if x in rec.ideal:
            held |= mask
    free = ~held & ((1 << (len(w) + 1)) - 1)
    return (free & -free).bit_length() - 1 if free else INF


# --- sharp expressions -------------------------------------------------------

@dataclass(frozen=True)
class ExprNode:
    pass


@dataclass(frozen=True)
class ELetter(ExprNode):
    letter: str


@dataclass(frozen=True)
class ECat(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class EOmega(ExprNode):
    operand: ExprNode


@dataclass(frozen=True)
class EOmegaSharp(ExprNode):
    operand: ExprNode


@dataclass(frozen=True)
class ESharp(ExprNode):
    """Plain sharp (no omega underneath): only well-formed when the operand
    evaluates to an idempotent."""
    operand: ExprNode


_SUPERSCRIPTS = (("^ws", EOmegaSharp), ("^w", EOmega), ("^#", ESharp))


def parse_expr(text):
    """Grammar: juxtaposition concatenates; superscripts ^w (omega),
    ^ws (omega-sharp), ^# (plain sharp); parentheses group. A letter is any
    non-blank symbol other than (, ) and ^. One loop reads the text, keeping
    the factors of each open group on a stack, so deep nesting does not
    recurse."""
    pos = 0
    groups = [[]]  # factors read so far in each open group, outermost first
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        char = text[pos] if pos < len(text) else None
        if char == "(":
            groups.append([])
            pos += 1
            continue
        if char is None or char == ")":
            factors = groups.pop()
            if not factors:
                raise ValueError("empty expression at position %d" % pos)
            node = reduce(ECat, factors)
            if not groups:
                if char is None:
                    return node
                raise ValueError("trailing input at position %d" % pos)
            if char is None:
                raise ValueError("unbalanced parenthesis at position %d" % pos)
        elif char == "^":
            raise ValueError("unexpected character %r at position %d" % (char, pos))
        else:
            node = ELetter(char)
        pos += 1
        while text.startswith("^", pos):
            for mark, op in _SUPERSCRIPTS:
                if text.startswith(mark, pos):
                    node, pos = op(node), pos + len(mark)
                    break
            else:
                raise ValueError("unknown superscript at position %d" % pos)
        groups[-1].append(node)


def _bottom_up(e, letter, cat, unary):
    """Value of expression e: letter(symbol) at a letter, cat(left, right)
    at a concatenation and unary(node, operand's value) at an exponent.
    Nodes are valued left to right, children first, on explicit stacks, so
    neither a long product nor deep nesting recurses."""
    order, todo = [], [e]
    while todo:
        node = todo.pop()
        if isinstance(node, ECat):
            todo += (node.left, node.right)
        elif isinstance(node, (EOmega, EOmegaSharp, ESharp)):
            todo.append(node.operand)
        elif not isinstance(node, ELetter):
            raise TypeError("not an expression node: %r" % (node,))
        order.append(node)
    values = []
    # order has each node before its right, then its left subtree; reversed,
    # it has children first, left to right
    for node in reversed(order):
        if isinstance(node, ELetter):
            values.append(letter(node.letter))
        elif isinstance(node, ECat):
            right = values.pop()
            values[-1] = cat(values[-1], right)
        else:
            values[-1] = unary(node, values[-1])
    return values[0]


def render_expr(e):
    def cat(left, right):
        if left.endswith("^w") and right.startswith("s"):
            # a^w then s would read back as a^ws, the omega-sharp
            right = "(s)" + right[1:]
        return left + right

    def unary(node, inner):
        if isinstance(node.operand, ECat) or len(inner) > 1:
            inner = "(" + inner + ")"
        return inner + {EOmega: "^w", EOmegaSharp: "^ws", ESharp: "^#"}[type(node)]

    return _bottom_up(e, str, cat, unary)


def eval_expr(sg, h, e):
    def letter(a):
        if a not in h:
            raise ValueError("letter %r has no image" % (a,))
        return h[a]

    def unary(node, x):
        if isinstance(node, EOmega):
            return idempotent_power(sg, x)
        if isinstance(node, EOmegaSharp):
            return omega_sharp(sg, x)
        if not sg.is_idempotent(x):
            raise ValueError("not well-formed: sharp applied to non-idempotent %s" % (x,))
        return sg.sharp[x]

    return _bottom_up(e, letter, sg.mul, unary)


def instantiate(e, k, n):
    """E(k, n): replace omega exponents by k and sharp exponents by n."""
    if k < 1 or n < 1:
        raise ValueError("instantiate needs k, n >= 1")
    power = {EOmega: k, EOmegaSharp: k * n, ESharp: n}
    return _bottom_up(e, str, str.__add__, lambda node, word: word * power[type(node)])


def classify(rec, e):
    """F-infinity iff the expression evaluates into the accepting ideal."""
    value = eval_expr(rec.semigroup, rec.h, e)
    return "F-infinity" if value in rec.ideal else "F-bounded"


# --- file format -------------------------------------------------------------


def dumps_semigroup(sg, rec=None):
    check_writable("element", sg.elements, "")
    lines = [FORMAT_HEADER, "semigroup",
             "elements %s" % " ".join(sg.elements)]
    if sg.neutral is not None:
        lines.append("neutral %s" % sg.neutral)
    for x in sg.elements:
        lines.append("product %s : %s" % (x, " ".join(sg.mul(x, y) for y in sg.elements)))
    for x in sg.elements:
        for y in sg.elements:
            if x != y and sg.le(x, y):
                lines.append("order %s %s" % (x, y))
    for e in sg.elements:
        if e in sg.sharp:
            lines.append("sharp %s %s" % (e, sg.sharp[e]))
    if rec is not None:
        for a in sorted(rec.h):
            lines.append("h %s %s" % (a, rec.h[a]))
        lines.append("ideal %s" % " ".join(sorted(rec.ideal)))
        lines.append("height %d" % rec.height)
    return "\n".join(lines) + "\n"


def loads_semigroup(text):
    """Returns (semigroup, recognizer or None). Lines of a bad shape are
    refused here; make_semigroup and Recognizer check the names in them."""
    fields = read_fields(text, "semigroup",
                         once=("elements", "neutral", "ideal", "height"),
                         many=("product", "order", "sharp", "h"))
    elements = _elements(fields.get("elements", "").split())
    neutral = fields.get("neutral")
    rows = []
    for rest in fields["product"]:
        row, _, vals = rest.partition(":")
        vals = vals.split()
        if len(vals) != len(elements):
            raise ValueError("bad product row %r" % rest)
        rows.append((row.strip(), vals))
    product = {(row, y): v for row, vals in _mapping("product", rows).items()
               for y, v in zip(elements, vals)}
    order_pairs = [_pair("order", rest) for rest in fields["order"]]
    sharp = _mapping("sharp", [_pair("sharp", rest) for rest in fields["sharp"]])
    h = _mapping("h", [_pair("h", rest) for rest in fields["h"]])
    ideal = frozenset(fields["ideal"].split()) if "ideal" in fields else None
    height = read_int("height", fields["height"]) if "height" in fields else None
    sg = make_semigroup(elements, product, order_pairs, sharp, neutral)
    rec = None
    if h or ideal is not None:
        if not h or ideal is None:
            raise ValueError("recognizer block needs both h and ideal")
        rec = Recognizer(sg, h, ideal, height)
    return sg, rec


def _pair(key, rest):
    names = rest.split()
    if len(names) != 2:
        raise ValueError("bad %s line %r" % (key, rest))
    return tuple(names)


def _mapping(key, pairs):
    """The (name, value) pairs of key lines as a dict; a name given twice is
    an error."""
    table = {}
    for name, value in pairs:
        if name in table:
            raise ValueError("repeated %s line for %r" % (key, name))
        table[name] = value
    return table


def load_semigroup(path):
    with open(path, encoding="utf-8") as fh:
        return loads_semigroup(fh.read())


def save_semigroup(sg, path, rec=None):
    text = dumps_semigroup(sg, rec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
