"""Per-term references for the grid's class-level scans.

The grid scans term layers as arrays of id classes and builds a ``Term``
only for the first term of each pattern key.  These helpers do the same
per term, over ``enumerate_terms``, through the grid's per-term memo, so
the tests can compare the two scans.
"""

from __future__ import annotations

import numpy as np

from commlab import _grid
from commlab.terms import FApp, TermLayer, UApp, UPQRApp, Var, free_vars


def pattern_key(grid, t, m):
    """The label class ids of the arguments of t's root, wrappers stripped:
    the key the class-level scan groups f-rooted terms by."""
    args = _grid._strip_wrappers(t).args
    return tuple(grid._arg_labels(arg, pos, m)[1] for pos, arg in enumerate(args))


def first_hit_per_term(grid, terms, m, blocks, decide):
    """``SymbolicGrid.first_hit`` one term at a time: (scanned, term, hit)
    for the first term whose hit ``decide(grid, t, m)`` is not None, or
    (scanned, None, None).  Terms over fewer than ``blocks`` variables are
    skipped, and ``decide`` runs once per pattern key."""
    no_hit = set()
    scanned = 0
    for scanned, t in enumerate(terms, 1):
        if len(free_vars(t)) < blocks:
            continue
        key = pattern_key(grid, t, m)
        if key in no_hit:
            continue
        hit = decide(grid, t, m)
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
    layers = [TermLayer(0, num_vars, none, (), none.reshape(0, 0), none.reshape(0, n))]

    def visit(s):
        if s in pos:
            return
        if isinstance(s, FApp):
            for a in s.args:
                visit(a)
            layer = dict(f=np.array([[pos[a] for a in s.args]], dtype=np.intp))
        else:
            visit(s.arg)
            child = np.array([pos[s.arg]], dtype=np.intp)
            if isinstance(s, UApp):
                layer = dict(u=child)
            else:
                assert isinstance(s, UPQRApp)
                layer = dict(triples=((s.p, s.q, s.r),), upqr=child.reshape(1, 1))
        fields = dict(u=none, triples=(), upqr=none.reshape(0, 0), f=none.reshape(0, n))
        layers.append(TermLayer(len(stream), 0, **{**fields, **layer}))
        pos[s] = len(stream)
        stream.append(s)

    visit(t)
    assert stream[-1] == t
    return layers, stream
