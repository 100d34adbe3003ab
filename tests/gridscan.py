"""Per-term references for the grid's class-level scans.

The grid scans term layers as arrays of compact id classes, hands its
decider each pattern key, the (label class, variable mask) pairs of an
f-root's arguments, and builds a ``Term`` only for the hit.  These
helpers build a term's class one node at a time, and scan a stream of
built terms, such as the reference ``oracles.enumerate_terms``, one term
at a time, so the tests can compare the two scans.
``subterm_layers`` puts one term's subterms in layers of one node each: a
unary node is a layer with one operation in ``unary`` over one position in
``args``, an f-node a layer with one row in ``f``.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np

from commlab.terms import FApp, TermLayer, UApp, UPQRApp, Var, free_vars

_NODES = weakref.WeakKeyDictionary()  # grid -> {node: class}


def term_class(grid, t):
    """The compact class of t's id array, over the axes of its variables,
    built one node at a time.  The grid evaluates each node it is given,
    so the nodes are memoized here, per grid: a node is an operation and
    its children's classes (with their masks over the node's axes, for
    f), and is evaluated once however many terms share it."""
    if isinstance(t, Var):
        return grid.var_class()
    nodes = _NODES.setdefault(grid, {})
    if isinstance(t, FApp):
        node = (FApp, f_node([(term_class(grid, a), mask_of(a)) for a in t.args]))
        if node not in nodes:
            nodes[node] = grid._f_classes([node[1]])[0]
    else:
        node = (unary_op(t), term_class(grid, t.arg))
        if node not in nodes:
            nodes[node] = grid.unary_class(*node)
    return nodes[node]


def mask_of(t):
    """t's free-variable mask, bit i for x_i."""
    return sum(1 << i for i in free_vars(t))


def f_node(children):
    """The grid's f-node of the (class, mask) pairs of f's arguments: their
    classes, then each mask moved onto the axes of their union, bit k for
    its k-th axis."""
    axes = sorted({j for _, mask in children for j in range(mask.bit_length()) if mask >> j & 1})
    moved = [sum(1 << k for k, j in enumerate(axes) if mask >> j & 1) for _, mask in children]
    return tuple(cls for cls, _ in children) + tuple(moved)


def renamed(t, perm):
    """t with each variable x_i renamed x_perm[i]."""
    if isinstance(t, Var):
        return Var(perm[t.idx])
    if isinstance(t, FApp):
        return FApp(tuple(renamed(a, perm) for a in t.args))
    return dataclasses.replace(t, arg=renamed(t.arg, perm))


def unary_op(t):
    """The grid's operation of a unary node: ``UApp``, or u_pqr's triple."""
    return UApp if isinstance(t, UApp) else (t.p, t.q, t.r)


def term_ids(grid, t, m):
    """The read-only interned ids of t over the m-axis grid (broadcast shape)."""
    return grid.class_ids(term_class(grid, t), mask_of(t), m)


def pattern_key(grid, t):
    """The (label class, mask) pairs of the arguments of t's root,
    injective wrappers stripped: the key the class-level scan groups
    f-rooted terms by and passes its decider."""
    while isinstance(t, (UApp, UPQRApp)):
        t = t.arg
    return tuple(
        (grid._labels_of(term_class(grid, a), pos), mask_of(a)) for pos, a in enumerate(t.args)
    )


def first_hit_per_term(grid, terms, m, blocks, decide):
    """``SymbolicGrid.first_hit`` one term at a time: (scanned, term, hit)
    for the first term whose hit ``decide(grid, pattern_key(grid, t), m)``
    is not None, or (scanned, None, None).  Terms over fewer than
    ``blocks`` variables are skipped, and ``decide`` runs once per pattern
    key."""
    no_hit = set()
    scanned = 0
    for scanned, t in enumerate(terms, 1):
        if len(free_vars(t)) < blocks:
            continue
        key = pattern_key(grid, t)
        if key in no_hit:
            continue
        hit = decide(grid, key, m)
        if hit is not None:
            return scanned, t, hit
        no_hit.add(key)
    return scanned, None, None


def subterm_layers(t, n):
    """A layer stream that holds t after its distinct subterms: the
    variables x0 up to t's last one, then one layer per compound subterm,
    children first.  Returns the layers and their terms in order."""
    num_vars = 1 + max(free_vars(t))
    stream = [Var(i) for i in range(num_vars)]
    pos = {v: i for i, v in enumerate(stream)}
    none = np.zeros(0, dtype=np.intp)
    layers = [TermLayer(0, num_vars, (), none, none.reshape(0, n))]

    def visit(s):
        if s in pos:
            return
        if isinstance(s, FApp):
            for a in s.args:
                visit(a)
            f = np.array([[pos[a] for a in s.args]], dtype=np.intp)
            layers.append(TermLayer(len(stream), 0, (), none, f))
        else:
            visit(s.arg)
            args = np.array([pos[s.arg]], dtype=np.intp)
            layers.append(TermLayer(len(stream), 0, (unary_op(s),), args, none.reshape(0, n)))
        pos[s] = len(stream)
        stream.append(s)

    visit(t)
    assert stream[-1] == t
    return layers, stream
