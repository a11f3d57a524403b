"""Finite stabilization semigroups: axioms, recognition via bounded-height
factorization trees, sharp expressions and their boundedness classification."""

from dataclasses import dataclass

from .core import FORMAT_HEADER, INF, order_closure, read_fields


@dataclass(frozen=True)
class StabSemigroup:
    elements: tuple
    product: dict  # (x, y) -> z
    leq: frozenset  # pairs (x, y) meaning x <= y, reflexive-transitive
    sharp: dict  # partial, defined exactly on idempotents
    neutral: object = None

    def mul(self, x, y):
        return self.product[(x, y)]

    def le(self, x, y):
        return (x, y) in self.leq

    def is_idempotent(self, x):
        return self.mul(x, x) == x

    def idempotents(self):
        return [x for x in self.elements if self.is_idempotent(x)]

    def upset(self, x):
        return {y for y in self.elements if self.le(x, y)}


def make_semigroup(elements, product, order_pairs, sharp, neutral=None):
    """Build a StabSemigroup, closing the declared order reflexively and
    transitively. Structural sanity only; run validate_axioms for the laws."""
    elements = tuple(elements)
    leq = order_closure(order_pairs, elements)
    return StabSemigroup(elements, dict(product), frozenset(leq), dict(sharp), neutral)


def validate_axioms(sg):
    diags = []
    elems = sg.elements
    eset = set(elems)
    for x in elems:
        for y in elems:
            if (x, y) not in sg.product:
                diags.append("product undefined on (%s, %s)" % (x, y))
            elif sg.product[(x, y)] not in eset:
                diags.append("product (%s, %s) leaves the element set" % (x, y))
    if diags:
        return diags
    for x in elems:
        for y in elems:
            for z in elems:
                if sg.mul(sg.mul(x, y), z) != sg.mul(x, sg.mul(y, z)):
                    diags.append("associativity fails on (%s, %s, %s)" % (x, y, z))
                    break
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
        if es not in eset:
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
        sg = self.semigroup
        for e in sg.elements:
            if sg.product.get((e, e)) == e and e not in sg.sharp:
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

    Interval dynamic programming: leaves, binary products, idempotent nodes
    (2..n equal children) and stabilization nodes (> n equal children, value
    e sharp).
    """
    if not w:
        raise ValueError("achievable_values needs a nonempty sequence")
    sg = rec.semigroup
    H = rec.height
    m = len(w)
    idems = sg.idempotents()
    prev = {(i, j): (set() if j > i + 1 else {w[i]})
            for i in range(m) for j in range(i + 1, m + 1)}
    for _ in range(H):
        cur = {}
        changed = False
        for i in range(m):
            for j in range(i + 1, m + 1):
                vals = set(prev[(i, j)])
                for mid in range(i + 1, j):
                    for x in prev[(i, mid)]:
                        for y in prev[(mid, j)]:
                            vals.add(sg.mul(x, y))
                for e in idems:
                    counts = _part_counts(prev, e, i, j, n)
                    if any(2 <= c <= n for c in counts):
                        vals.add(e)
                    # at threshold 0 a single part already counts as many
                    if any(c > n for c in counts):
                        vals.add(sg.sharp[e])
                cur[(i, j)] = vals
                changed = changed or len(vals) != len(prev[(i, j)])
        prev = cur
        if not changed:
            break
    return frozenset(prev[(0, m)])

def _part_counts(ach, e, i, j, n):
    """Counts k (capped at n+1, where they are all alike) of decompositions
    of [i, j) into k parts each achieving e at the previous height."""
    cap = n + 1
    best = {i: {0}}
    for mid in range(i + 1, j + 1):
        got = set()
        for start, counts in best.items():
            if start < mid and e in ach[(start, mid)]:
                got.update(min(c + 1, cap) for c in counts)
        if got:
            best[mid] = got
    return best.get(j, set())


def recognize(rec, u):
    """f(u) = least n at which no bounded-height n-tree value stays in the
    accepting ideal; recognition is defined on nonempty words."""
    if not u:
        raise ValueError("recognition defined on A+, not the empty word")
    w = rec.image(u)
    for n in range(len(w) + 1):
        if not (achievable_values(rec, w, n) & rec.ideal):
            return n
    return INF


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


def parse_expr(text):
    """Grammar: juxtaposition concatenates; superscripts ^w (omega),
    ^ws (omega-sharp), ^# (plain sharp); parentheses group."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_seq():
        nonlocal pos
        parts = []
        while True:
            skip_ws()
            if pos >= len(text) or text[pos] == ")":
                break
            parts.append(parse_factor())
        if not parts:
            raise ValueError("empty expression at position %d" % pos)
        node = parts[0]
        for p in parts[1:]:
            node = ECat(node, p)
        return node

    def parse_factor():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            node = parse_seq()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError("unbalanced parenthesis at position %d" % pos)
            pos += 1
        elif text[pos].isalpha():
            node = ELetter(text[pos])
            pos += 1
        else:
            raise ValueError("unexpected character %r at position %d" % (text[pos], pos))
        while pos < len(text) and text[pos] == "^":
            if text[pos:pos + 3] == "^ws":
                node, pos = EOmegaSharp(node), pos + 3
            elif text[pos:pos + 2] == "^w":
                node, pos = EOmega(node), pos + 2
            elif text[pos:pos + 2] == "^#":
                node, pos = ESharp(node), pos + 2
            else:
                raise ValueError("unknown superscript at position %d" % pos)
        return node

    node = parse_seq()
    skip_ws()
    if pos != len(text):
        raise ValueError("trailing input at position %d" % pos)
    return node


def render_expr(e):
    if isinstance(e, ELetter):
        return e.letter
    if isinstance(e, ECat):
        return render_expr(e.left) + render_expr(e.right)
    inner = render_expr(e.operand)
    if isinstance(e.operand, (ECat,)) or len(inner) > 1:
        inner = "(" + inner + ")"
    op = {EOmega: "^w", EOmegaSharp: "^ws", ESharp: "^#"}[type(e)]
    return inner + op


def eval_expr(sg, h, e):
    if isinstance(e, ELetter):
        if e.letter not in h:
            raise ValueError("letter %r has no image" % (e.letter,))
        return h[e.letter]
    if isinstance(e, ECat):
        return sg.mul(eval_expr(sg, h, e.left), eval_expr(sg, h, e.right))
    if isinstance(e, EOmega):
        return idempotent_power(sg, eval_expr(sg, h, e.operand))
    if isinstance(e, EOmegaSharp):
        return omega_sharp(sg, eval_expr(sg, h, e.operand))
    if isinstance(e, ESharp):
        x = eval_expr(sg, h, e.operand)
        if not sg.is_idempotent(x):
            raise ValueError("not well-formed: sharp applied to non-idempotent %s" % (x,))
        return sg.sharp[x]
    raise TypeError("not an expression node: %r" % (e,))


def instantiate(e, k, n):
    """E(k, n): replace omega exponents by k and sharp exponents by n."""
    if k < 1 or n < 1:
        raise ValueError("instantiate needs k, n >= 1")
    if isinstance(e, ELetter):
        return e.letter
    if isinstance(e, ECat):
        return instantiate(e.left, k, n) + instantiate(e.right, k, n)
    if isinstance(e, EOmega):
        return instantiate(e.operand, k, n) * k
    if isinstance(e, EOmegaSharp):
        return instantiate(e.operand, k, n) * (k * n)
    if isinstance(e, ESharp):
        return instantiate(e.operand, k, n) * n
    raise TypeError("not an expression node: %r" % (e,))


def classify(rec, e):
    """F-infinity iff the expression evaluates into the accepting ideal."""
    value = eval_expr(rec.semigroup, rec.h, e)
    return "F-infinity" if value in rec.ideal else "F-bounded"


# --- file format -------------------------------------------------------------


def dumps_semigroup(sg, rec=None):
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
        "h": list(h.values()),
        "ideal": list(ideal or ()),
    }
    for field, names in references.items():
        for name in names:
            if name not in elements:
                raise ValueError("%s names undeclared element %r" % (field, name))
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_semigroup(sg, rec))
