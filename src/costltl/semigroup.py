"""Finite stabilization semigroups: axioms, recognition via bounded-height
factorization trees, sharp expressions and their boundedness classification."""

from dataclasses import dataclass
from functools import reduce

from .core import FORMAT_HEADER, INF, Alphabet, check_writable, order_closure, read_fields


@dataclass(frozen=True)
class StabSemigroup:
    """A finite stabilization semigroup whose product is table: table[i][j]
    numbers the product of elements[i] and elements[j], and index maps each
    element to its number. make_semigroup builds it from a product dict."""
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
    transitively. Structural sanity only; run validate_axioms for the laws."""
    elements = tuple(elements)
    index = {x: k for k, x in enumerate(elements)}
    for x in elements:
        for y in elements:
            if (x, y) not in product:
                raise ValueError("product undefined on (%s, %s)" % (x, y))
            if product[(x, y)] not in index:
                raise ValueError("product (%s, %s) leaves the element set" % (x, y))
    # lists, not generators (see congruence_classes)
    table = tuple([tuple([index[product[(x, y)]] for y in elements]) for x in elements])
    leq = order_closure(order_pairs, elements)
    return StabSemigroup(elements, table, frozenset(leq), dict(sharp), neutral)


def validate_axioms(sg):
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
        if es not in sg.index:
            diags.append("sharp(%s) leaves the element set" % (e,))
            continue
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
        for e in sg.elements:
            if sg.is_idempotent(e) and e not in sg.sharp:
                raise ValueError("idempotent %s has no sharp" % (e,))
        for s in self.ideal:
            for t in sg.elements:
                if sg.le(t, s) and t not in self.ideal:
                    raise ValueError("ideal not downward-closed: %s <= %s" % (t, s))

    def image(self, u):
        for a in u:
            if a not in self.h:
                raise ValueError("letter %r has no image under h" % (a,))
        return [self.h[a] for a in u]


def achievable_values(rec, w, n):
    """Values of n-trees of height <= rec.height over the element sequence w.

    Every n >= len(w) answers like len(w): no interval has more parts.
    """
    if n < 0:
        raise ValueError("threshold must be at least 0, got %d" % n)
    bit = 1 << min(n, len(w))
    return frozenset(x for x, mask in _threshold_masks(rec, w).items() if mask & bit)


def _threshold_masks(rec, w):
    """Value -> bitmask over n in [0, len(w)] of the n-trees of height
    <= rec.height over all of w, for every threshold in one interval DP.

    Leaves and binary products (whose mask is the AND of its children's) are
    the same at every n. An idempotent node over k >= 2 parts equal to e
    holds for n >= k; a stabilization node over k parts, of value e sharp,
    holds for n < k (at n = 0 a single part already counts as many).

    Round t adds the trees of height t. It is semi-naive: vals[i][j] maps
    the number of each value of [i, j) to its mask, and delta[i][j] holds the
    bits that the last round added to it. A product then needs only
    delta·vals and vals·delta, since (a|da) & (b|db) adds to a & b, which an
    earlier round merged, only bits that those two cover. A chain of e-parts
    from i reads only intervals inside [i, m), so it is rerun only from the
    starts at or left of the rightmost start of a changed e-interval. It
    keeps k parts at threshold n as bit k * width + n of one int per end, so
    the mask of the next part, copied into every block, extends all counts
    with one AND. New bits are merged when the round ends, so round t reads
    only trees of height < t, and a round that adds no bit ends the DP.
    """
    if not w:
        raise ValueError("achievable_values needs a nonempty sequence")
    sg = rec.semigroup
    index, table = sg.index, sg.table
    m = len(w)
    width = m + 1  # one bit per threshold n = 0..m
    full = (1 << width) - 1
    spread = sum(1 << k * width for k in range(m))  # copies a mask to blocks 0..m-1
    below = sum(((1 << k) - 1) << k * width for k in range(1, m + 1))  # n < k
    above = sum((full >> k << k) << k * width for k in range(2, m + 1))  # n >= k

    def fold(x):  # the OR of x's blocks
        out = 0
        while x:
            out |= x & full
            x >>= width
        return out

    idems = [(index[e], index[sg.sharp[e]]) for e in sg.idempotents()]
    vals = [[{index[w[i]]: full} if j == i + 1 else {} for j in range(m + 1)]
            for i in range(m)]
    delta = [[dict(d) for d in row] for row in vals]
    for _ in range(rec.height):
        got = [[{} for _ in range(m + 1)] for _ in range(m)]
        for i in range(m):
            for mid in range(i + 1, m):
                left, dleft = vals[i][mid], delta[i][mid]
                if not left:
                    continue
                for j in range(mid + 1, m + 1):
                    for xs, ys in ((dleft, vals[mid][j]), (left, delta[mid][j])):
                        if xs and ys:
                            acc = got[i][j]
                            for x, mx in xs.items():
                                row = table[x]
                                for y, my in ys.items():
                                    both = mx & my
                                    if both:
                                        z = row[y]
                                        acc[z] = acc.get(z, 0) | both
        for e, es in idems:
            last = max((i for i in range(m) for d in delta[i] if e in d), default=-1)
            for i in range(last + 1):
                parts = {i: full}  # end -> bit k * width + n: k parts at threshold n
                for j in range(i + 1, m + 1):
                    counts = 0
                    for start, before in parts.items():
                        me = vals[start][j].get(e, 0)
                        if me:
                            counts |= before & me * spread
                    if not counts:
                        continue
                    counts <<= width
                    parts[j] = counts
                    acc = got[i][j]
                    idem, stab = fold(counts & above), fold(counts & below)
                    if idem:
                        acc[e] = acc.get(e, 0) | idem
                    if stab:
                        acc[es] = acc.get(es, 0) | stab
        grew = False
        for i in range(m):
            for j in range(i + 1, m + 1):
                cur, new = vals[i][j], {}
                for z, mz in got[i][j].items():
                    mz &= ~cur.get(z, 0)
                    if mz:
                        new[z] = mz
                        cur[z] = cur.get(z, 0) | mz
                delta[i][j] = new
                grew = grew or bool(new)
        if not grew:
            break
    elements = sg.elements
    return {elements[z]: mz for z, mz in vals[0][m].items()}


def recognize(rec, u):
    """f(u) = least n at which no bounded-height n-tree value stays in the
    accepting ideal; recognition is defined on nonempty words."""
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
    """Returns (semigroup, recognizer or None)."""
    fields = read_fields(text, "semigroup",
                         once=("elements", "neutral", "ideal", "height"),
                         many=("product", "order", "sharp", "h"))
    elements = tuple(fields.get("elements", "").split())
    if not elements:
        raise ValueError("missing elements")
    if len(set(elements)) != len(elements):
        raise ValueError("repeated element %r"
                         % next(x for x in elements if elements.count(x) > 1))
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
    order_pairs = {_pair("order", rest) for rest in fields["order"]}
    sharp = _mapping("sharp", [_pair("sharp", rest) for rest in fields["sharp"]])
    h = _mapping("h", [_pair("h", rest) for rest in fields["h"]])
    ideal = frozenset(fields["ideal"].split()) if "ideal" in fields else None
    height = int(fields["height"]) if "height" in fields else None
    references = {
        "neutral": [] if neutral is None else [neutral],
        "product": [x for (row, _), v in product.items() for x in (row, v)],
        "order": [x for pair in order_pairs for x in pair],
        "sharp": [x for pair in sharp.items() for x in pair],
    }
    for field, names in references.items():
        for name in names:
            if name not in elements:
                raise ValueError("%s names undeclared element %r" % (field, name))
    for x in elements:
        if (x, x) not in product:
            raise ValueError("missing product row for %r" % x)
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
