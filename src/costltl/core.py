"""Extended naturals, alphabets, and the helpers every layer shares: the
depth-first walk reach, the order closure, the set bits of a mask, the
saturation of seeds, and the file readers with their writable-name and
integer rules."""

INF = float("inf")


class Alphabet:
    """Nonempty finite set of single-symbol, non-blank letters, in
    declaration order."""

    def __init__(self, letters):
        letters = list(letters)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet has duplicate letters")
        for a in letters:
            if not (isinstance(a, str) and len(a) == 1):
                raise ValueError("letters must be single symbols: %r" % (a,))
            if a.isspace():
                raise ValueError("blank letter %r in alphabet" % (a,))
        self.letters = tuple(letters)

    def __contains__(self, a):
        return a in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Alphabet(%r)" % ("".join(self.letters),)

    def check_word(self, u):
        for a in u:
            if a not in self.letters:
                raise ValueError("letter %r outside alphabet %s" % (a, "".join(self.letters)))
        return u


def reach(seeds, successors):
    """Every item reachable from seeds, each once, in depth-first pre-order
    with the first successor first; successors(x) is a sequence. The stack
    is explicit, so the depth of the walk is not bounded by recursion."""
    seen = {}
    stack = list(seeds)[::-1]
    while stack:
        x = stack.pop()
        if x not in seen:
            # an item seen before had all it reaches walked then
            seen[x] = None
            stack += reversed(successors(x))
    return list(seen)


def order_closure(pairs, elems):
    """Reflexive-transitive closure of the relation pairs over elems."""
    above = {}
    for x, y in pairs:
        above.setdefault(x, []).append(y)
    return {(x, x) for x in elems} | {
        (x, y) for x, ys in above.items() for y in reach(ys, lambda z: above.get(z, ()))}


def _bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def saturate(seeds, mul, sharp, gens):
    """Closure of seeds under the product mul and under sharp on idempotents,
    yielding each element once, in discovery order. Every element is a
    product of generators: the seeds, and each sharp not found before it
    (Froidure & Pin, 1997). So each element x is multiplied on the right by
    each generator only, and x·x is formed to test idempotence; a new
    generator multiplies every element taken before it. The generators are
    appended to gens."""
    found = {}
    work = []

    def admit(xs):
        for x in xs:
            if x not in found:
                found[x] = None
                work.append(x)
                yield x

    yield from admit(seeds)
    gens.extend(found)
    done = []
    while work:
        x = work.pop()
        done.append(x)
        yield from admit([mul(x, g) for g in gens])
        if mul(x, x) == x:
            s = sharp(x)
            if s not in found:
                gens.append(s)
                yield from admit([s] + [mul(y, s) for y in done])


FORMAT_HEADER = "costltl-format 1"


def check_writable(kind, names, hint):
    """Raise ValueError, ending in hint, on the first of names a line-format
    file cannot read back: an empty name, or one with whitespace or ':'."""
    for name in map(str, names):
        if name.split() != [name] or ":" in name:
            raise ValueError("%s name %r cannot be written%s" % (kind, name, hint))


def read_lines(text, kind=None):
    """Stripped lines of text, without blank lines and lines starting with
    '#' (indented or not). Given a kind, the first two lines must be the
    format header and that kind, and the lines after them are returned."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if kind is None:
        return lines
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError("missing %r header" % FORMAT_HEADER)
    if len(lines) < 2 or lines[1] != kind:
        raise ValueError("not a %r file" % kind)
    return lines[2:]


def read_fields(text, kind, once, many):
    """The fields of a kind file (see read_lines) as a dict: each key of once
    that occurs maps to its value, each key of many to the list of its values
    in file order. An unknown key or a repeated key of once is an error."""
    fields = {key: [] for key in many}
    for ln in read_lines(text, kind):
        key, _, rest = ln.partition(" ")
        if key in many:
            fields[key].append(rest.strip())
        elif key not in once:
            raise ValueError("unknown field %r" % key)
        elif key in fields:
            raise ValueError("repeated field %r" % key)
        else:
            fields[key] = rest.strip()
    return fields


def read_int(field, text):
    """The value of an integer field: an optional '-' and ASCII digits, not
    the other forms int() takes ('1_0', '+1', '٣')."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("bad %s value %r" % (field, text))
    return int(text)
