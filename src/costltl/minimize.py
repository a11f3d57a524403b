"""Syntactic congruence, quotient to the minimal stabilization semigroup,
aperiodicity and definability decisions.

Contexts with a single occurrence of the hole are realized as element
self-maps generated by left and right multiplications by generators (the
letter images and the new sharps that saturation hands back; a product by
g1...gk composes the products by each gi) and the omega-sharp map
s -> (s^omega)#. Two elements are congruent when every such map keeps them on
the same side of the accepting ideal and of its escape boundary: besides
membership, the test tracks whether some element above the image escapes the
ideal. The extra bit is what separates a stabilized-but-boundable element
(e# <= e with e outside the ideal) from one that is inescapably accepting;
without it the bounded-growth and everywhere-infinite behaviours collapse.
For recognizers with a discrete order (classical languages) the bit is the
negation of membership and the test reduces to the classic syntactic
congruence.

The quotient partitions the generated part (the elements that omega-sharp
expressions over the letter images denote) in place: contexts and escapes
use generated elements only, and a class is named after its first member.
"""

from dataclasses import dataclass

from .core import order_closure, saturate
from .semigroup import StabSemigroup, Recognizer, omega_sharp, power_cycle


def congruence_classes(sg, ideal, elems, gens):
    """Partition refinement on elems, a product- and sharp-closed tuple of
    sg's elements in element order, generated by gens: the coarsest
    partition separating (membership, escape) signatures and stable under
    the left and right products by each of gens and under omega-sharp.
    Escape asks whether some element of elems above x leaves the ideal."""
    maps = []
    for g in gens:
        maps.append(lambda s, g=g: sg.mul(g, s))
        maps.append(lambda s, g=g: sg.mul(s, g))
    maps.append(lambda s: omega_sharp(sg, s))
    block = {x: (x in ideal, any(sg.le(x, y) and y not in ideal for y in elems))
             for x in elems}
    while True:
        # a list, not a generator: the generator frames left the allocator
        # fragmented over many calls (ru_maxrss grew, live memory did not)
        refined = {x: (block[x],) + tuple([block[f(x)] for f in maps]) for x in elems}
        renum = {}  # refined key -> new block number, in first-seen order
        new_block = {x: renum.setdefault(refined[x], len(renum)) for x in elems}
        if len(renum) == len(set(block.values())):
            classes = {}
            for x in elems:
                classes.setdefault(new_block[x], []).append(x)
            return [tuple(c) for c in classes.values()]
        block = new_block


@dataclass(frozen=True)
class Quotient:
    recognizer: Recognizer
    classes: tuple  # tuple of element tuples of the input semigroup
    class_of: dict  # input element -> class name


def syntactic_quotient(rec):
    """Quotient of the generated part of the recognizer by the syntactic
    congruence; the result is the minimal recognizer of the same function.
    One member stands for its class: stable under omega-sharp and under the
    products by the generators, which give every element, the classes form
    a congruence of the associative product.
    Expects a recognizer that passes validate_axioms (else: a bare KeyError)."""
    sg = rec.semigroup
    # the elements denoted by omega-sharp expressions over the letter images
    gens = []
    gen = set(saturate(rec.h.values(), sg.mul, sg.sharp.__getitem__, gens))
    elems = tuple(x for x in sg.elements if x in gen)
    classes = congruence_classes(sg, rec.ideal, elems, gens)
    # classes come in order of their first members, which name them
    class_elems = tuple([cls[0] for cls in classes])
    number = {x: k for k, cls in enumerate(classes) for x in cls}  # element -> class number
    rep = {x: class_elems[k] for x, k in number.items()}
    table = tuple([tuple([number[sg.mul(x, y)] for y in class_elems]) for x in class_elems])
    sharp = {x: rep[omega_sharp(sg, x)] for k, x in enumerate(class_elems) if table[k][k] == k}

    def mul(cx, cy):
        return class_elems[table[number[cx]][number[cy]]]

    order = _induced_order(class_elems, mul, sharp, {rep[g] for g in gens})
    qsg = StabSemigroup(class_elems, table, frozenset(order), sharp,
                        rep.get(sg.neutral))
    q_ideal = frozenset(rep[x] for x in rec.ideal if x in rep)
    q_h = {a: rep[v] for a, v in rec.h.items()}
    q_rec = Recognizer(qsg, q_h, q_ideal, rec.height)
    return Quotient(q_rec, tuple(classes), rep)


def _induced_order(elems, mul, sharp, gens):
    """Least partial order with e# <= e, closed under product compatibility,
    sharp monotonicity, and transitivity. Compatibility with the products by
    gens, which generate elems, is compatibility with every product. Raises
    if antisymmetry fails."""
    leq = {(es, e) for e, es in sharp.items()}
    while True:
        leq = order_closure(leq, elems)
        new = set()
        for (x, y) in leq:
            for z in gens:
                new.add((mul(z, x), mul(z, y)))
                new.add((mul(x, z), mul(y, z)))
            if x in sharp and y in sharp:
                new.add((sharp[x], sharp[y]))
        if new <= leq:
            break
        leq |= new
    for x in elems:
        for y in elems:
            if x != y and (x, y) in leq and (y, x) in leq:
                raise ValueError("induced order fails antisymmetry on (%s, %s)" % (x, y))
    return leq


def is_aperiodic(sg):
    """(verdict, least k with s^(k+1) = s^k for all s, or a counterexample)."""
    cycles = {s: power_cycle(sg, s) for s in sg.elements}
    worst = next((s for s, (_, _, period) in cycles.items() if period > 1), None)
    if worst is not None:
        return False, worst
    return True, max(index for _, index, _ in cycles.values())


def is_ltl_definable(rec):
    """A regular cost function is LTL<=-definable iff its minimal
    stabilization semigroup is aperiodic. Expects a recognizer that passes
    validate_axioms, as syntactic_quotient does."""
    quotient = syntactic_quotient(rec)
    verdict, _ = is_aperiodic(quotient.recognizer.semigroup)
    return verdict
