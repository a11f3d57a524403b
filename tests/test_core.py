"""The shared depth-first walk and the order closure built on it."""

from hypothesis import given, settings, strategies as st

from costltl.core import order_closure, reach

# a shares d through b and c, and c closes the cycle a -> c -> a
GRAPH = {"a": ["b", "c"], "b": ["d"], "c": ["d", "a"], "d": ["b"], "e": ["a"]}


def test_reach_is_preorder_first_successor_first_each_once():
    assert reach(["a"], GRAPH.__getitem__) == ["a", "b", "d", "c"]
    # the first seed and all it reaches come before the second seed
    assert reach(["c", "e"], GRAPH.__getitem__) == ["c", "d", "b", "a", "e"]
    assert reach(["d", "d"], GRAPH.__getitem__) == ["d", "b"]
    assert reach([], GRAPH.__getitem__) == []


def test_reach_walks_a_long_chain_without_recursion():
    n = 100_000
    assert reach([0], lambda i: (i + 1,) if i < n else ()) == list(range(n + 1))


def _warshall(pairs, elems):
    """Reflexive-transitive closure of pairs over elems, by Warshall's
    algorithm over every name that occurs."""
    nodes = sorted(set(elems) | {x for pair in pairs for x in pair})
    rel = set(pairs) | {(x, x) for x in elems}
    for k in nodes:
        for i in nodes:
            if (i, k) in rel:
                rel.update((i, j) for j in nodes if (k, j) in rel)
    return rel


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
       st.lists(st.integers(0, 5), unique=True, max_size=6))
def test_order_closure_equals_warshall(pairs, elems):
    # names 6 and 7 are outside every elems: their pairs are closed too, but
    # they get no reflexive pair unless a cycle passes through them
    assert order_closure(pairs, elems) == _warshall(pairs, elems)
