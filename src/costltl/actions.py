"""Counter-action algebras.

B side: atomic actions e (skip), ic (increment and check), r (reset), with
max-contraction. S side: the 7-element stabilization semigroup of composed
actions, S_ACTIONS, built from literal tables. The tables are ground truth
from the source construction; they are checked exhaustively by tests, never
recomputed.
"""

from .semigroup import make_semigroup

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

# Defined on the idempotents, that is everywhere but cr (cr.cr = bot).
_S_SHARP = {"w": "w", "i": "w", "e": "e", "r": "r", "crw": "crw", "bot": "bot"}

# Order: w <= i <= e <= r <= cr <= bot and e <= crw <= cr; r and crw incomparable.
_S_COVERS = [("w", "i"), ("i", "e"), ("e", "r"), ("e", "crw"), ("r", "cr"), ("crw", "cr"), ("cr", "bot")]

S_ACTIONS = make_semigroup(
    S_ELEMS,
    {(x, y): z for x, row in _S_TABLE.items() for y, z in zip(S_ELEMS, row)},
    _S_COVERS, _S_SHARP, neutral="e")

_PRODUCT = S_ACTIONS.product


def vec_product(x, y):
    return tuple(map(_PRODUCT.__getitem__, zip(x, y)))


def vec_leq(x, y):
    return all(S_ACTIONS.le(a, b) for a, b in zip(x, y))


def contract_max(seq):
    """Replace a B action sequence by its maximal atomic action (e < ic < r)."""
    best = "e"
    for a in seq:
        if B_ORDER[a] > B_ORDER[best]:
            best = a
    return best
