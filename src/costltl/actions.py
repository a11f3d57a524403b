"""Counter-action algebras.

B side: atomic actions e (skip), ic (increment and check), r (reset), with
max-contraction. S side: the 7-element stabilization
semigroup of composed actions, stored as literal tables. The tables are ground
truth from the source construction; they are checked exhaustively by tests,
never recomputed.
"""

from .core import order_closure

B_ORDER = {"e": 0, "ic": 1, "r": 2}

S_ELEMS = ("w", "i", "e", "r", "crw", "cr", "bot")

# Row * column, rows and columns in S_ELEMS order.
_S_TABLE = {
    "w": ("w", "w", "w", "r", "w", "r", "bot"),
    "i": ("w", "i", "i", "r", "crw", "cr", "bot"),
    "e": ("w", "i", "e", "r", "crw", "cr", "bot"),
    "r": ("w", "r", "r", "r", "bot", "bot", "bot"),
    "crw": ("crw", "crw", "crw", "cr", "crw", "cr", "bot"),
    "cr": ("crw", "cr", "cr", "cr", "bot", "bot", "bot"),
    "bot": ("bot", "bot", "bot", "bot", "bot", "bot", "bot"),
}

_S_SHARP = {"w": "w", "i": "w", "e": "e", "r": "r", "crw": "crw", "bot": "bot"}

# Order: w <= i <= e <= r <= cr <= bot and e <= crw <= cr; r and crw incomparable.
_S_COVERS = [("w", "i"), ("i", "e"), ("e", "r"), ("e", "crw"), ("r", "cr"), ("crw", "cr"), ("cr", "bot")]


_S_LEQ = order_closure(_S_COVERS, S_ELEMS)


def s_product(x, y):
    return _S_TABLE[x][S_ELEMS.index(y)]


def s_sharp(x):
    if x == "cr":
        raise ValueError("sharp undefined on non-idempotent cr")
    return _S_SHARP[x]


def s_leq(x, y):
    return (x, y) in _S_LEQ


def atomic_s_to_elem(a):
    """Embed an atomic S-automaton action into the action semigroup."""
    if a not in ("e", "i", "r", "cr"):
        raise ValueError("unknown atomic S action %r" % (a,))
    return a


def vec_product(x, y):
    return tuple(s_product(a, b) for a, b in zip(x, y))


def vec_sharp(x):
    return tuple(s_sharp(a) for a in x)


def vec_sharp_defined(x):
    return all(a != "cr" for a in x)


def vec_leq(x, y):
    return all(s_leq(a, b) for a, b in zip(x, y))


def neutral_vec(k):
    return ("e",) * k


def contract_max(seq):
    """Replace a B action sequence by its maximal atomic action (e < ic < r)."""
    best = "e"
    for a in seq:
        if B_ORDER[a] > B_ORDER[best]:
            best = a
    return best
