"""Extended naturals, alphabets and words, and the helpers every layer shares:
the order closure, the saturation of seeds into the stabilization semigroup
they generate, and the file-format readers."""

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


def words_upto(alphabet, max_len, min_len=0):
    """All words over the alphabet with min_len <= |u| <= max_len, shortlex order."""
    out = []
    layer = [""]
    for n in range(max_len + 1):
        if n >= min_len:
            out.extend(layer)
        if n < max_len:
            layer = [u + a for u in layer for a in alphabet]
    return out


def order_closure(pairs, elems):
    """Reflexive-transitive closure of the relation pairs over elems."""
    leq = {(x, x) for x in elems}
    leq.update(pairs)
    while True:
        above = {}
        for x, y in leq:
            above.setdefault(x, set()).add(y)
        new = {(x, z) for x, y in leq for z in above.get(y, ())}
        if new <= leq:
            return leq
        leq |= new


def saturate(seeds, mul, sharp):
    """Closure of seeds under the product mul and under sharp on idempotents,
    yielding each element once, in discovery order."""
    found = dict.fromkeys(seeds)
    yield from found
    work = list(found)
    while work:
        x = work.pop()
        for y in list(found):
            if y is x:
                xx = mul(x, x)
                new = (xx, sharp(x)) if xx == x else (xx,)
            else:
                new = (mul(x, y), mul(y, x))
            for z in new:
                if z not in found:
                    found[z] = None
                    work.append(z)
                    yield z


FORMAT_HEADER = "costltl-format 1"


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
