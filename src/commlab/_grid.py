"""Vectorized bulk evaluation of terms over a finite element domain, on ids.

Every value the grid meets has an integer id, and evaluation handles ids
only, so term values over a whole assignment grid become numpy gathers.

- f is a hash-cons table from the tuple of its argument ids to the id of its
  value (Filliatre and Conchon, "Type-safe modular hash-consing", 2006).  The
  table starts with f0's 2^n rows, read from ``elements.f0_value``.  Off
  them f tags every argument tuple with a fresh value, so such a value is
  the same thing as its argument tuple: every other tuple gets a fresh id,
  in bulk, with no ``Element`` built.  The codes below read the d-values
  from the same rows.
- Atoms are interned through a dict.  A ``Tagged`` value from outside (a
  domain element or a triple coordinate) interns its arguments and goes
  through f's table, so ids are equal exactly when the values are.
- u fixes every f-value, and u_pqr cycles the ids of its triple and shifts
  the generators, so the unary maps build elements for atoms only.

Two output modes:

- id arrays: every value is a real interned id (needed when values are
  inspected, e.g. membership in C);
- equality codes: injective unary wrappers are stripped and the root, an
  f-application as in every term over two or more blocks, is encoded,
  from the pattern labels of its arguments, as an integer that is equal
  for two cells exactly when the element values are equal.  This avoids
  interning the (potentially huge) set of top-level f-images when only
  the equality pattern of a cube matters.

One memo holds the id arrays, in three tables: (term, m) -> class,
(operation, child classes) -> class, and class -> read-only id array, the
arrays deduplicated by shape and bytes.  So each distinct node is evaluated
once, however many terms share it.  The pattern labels of an f-argument are
memoized per (class, position), and the last-axis row classes per distinct
label array.  Ids stay valid because interning only appends.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Optional

import numpy as np

from . import elements, errors, terms
from .elements import Element, Params
from .errors import check_budget


class SymbolicGrid:
    def __init__(self, params: Params, domain: list[Element]):
        self.params = params
        self.domain = list(domain)
        self._atoms: dict[Element, int] = {}
        self._elems: list[Optional[Element]] = []  # atoms; None for an f-value
        self._f_cache: dict[tuple[int, ...], int] = {}
        self._u_cache: dict[int, int] = {}
        self._upqr_caches: dict[tuple[Element, Element, Element], dict[int, int]] = {}
        self._classes: dict[tuple[terms.Term, int], int] = {}
        self._nodes: dict[tuple, int] = {}
        self._arrays: list[np.ndarray] = []
        self._array_classes: dict[tuple[tuple, bytes], int] = {}
        self._labels: dict[tuple[int, int], tuple[np.ndarray, int]] = {}
        self._label_classes: dict[tuple[tuple, bytes], int] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        n = params.n
        self._a_ids = [self.intern(elements.AGen(i, 0)) for i in range(1, n + 1)]
        self._b_ids = [self.intern(elements.BGen(i, 0)) for i in range(1, n + 1)]
        # f's base table: the d id of each row, and its code -d.k indexed
        # by the row's b-bits, first position most significant
        self._f0_codes = np.empty(2**n, dtype=np.int64)
        for bits, key in enumerate(itertools.product(*zip(self._a_ids, self._b_ids))):
            d = elements.f0_value([self._elems[i] for i in key], params)
            self._f_cache[key] = self.intern(d)
            self._f0_codes[bits] = -d.k
        self._domain_ids = np.array([self.intern(e) for e in self.domain], dtype=np.int64)
        if np.unique(self._domain_ids).size != len(self.domain):
            raise ValueError("domain contains duplicates")

    def intern(self, e: Element) -> int:
        if isinstance(e, elements.Tagged):
            # f's table keys on the argument ids alone, so an ill-formed
            # value would take the id of the well-formed one
            if not elements.well_formed(e, self.params):
                raise ValueError(f"ill-formed tagged value {elements.element_to_text(e)}")
            return self._f([tuple(self.intern(a) for a in e.args)])[0]
        i = self._atoms.get(e)
        if i is None:
            i = self._atoms[e] = len(self._elems)
            self._elems.append(e)
        return i

    def _f(self, keys: list[tuple[int, ...]]) -> list[int]:
        """The ids of f's values at the argument-id keys.  f0's rows are in
        the table from the start, so a key not yet in it lies off f0 and
        takes a fresh id: the new keys get consecutive ids, in one step."""
        ids = list(map(self._f_cache.get, keys))  # most keys are known
        if None in ids:
            new = dict.fromkeys(key for key, i in zip(keys, ids) if i is None)
            start = len(self._elems)
            self._f_cache.update(zip(new, range(start, start + len(new))))
            self._elems.extend([None] * len(new))
            ids = list(map(self._f_cache.get, keys))
        return ids

    def _map_unary(self, cache: dict[int, int], on_atom: Callable, arr: np.ndarray) -> np.ndarray:
        """arr under a unary operation that fixes every f-value and is
        ``on_atom`` on atoms; ``cache`` holds the ids mapped so far."""
        uniq = np.unique(arr)
        out = np.empty(uniq.shape, dtype=np.int64)
        for pos, i in enumerate(uniq.tolist()):
            v = cache.get(i)
            if v is None:
                atom = self._elems[i]
                v = cache[i] = i if atom is None else self.intern(on_atom(atom))
            out[pos] = v
        return out[np.searchsorted(uniq, arr)]

    def _upqr_cache(self, t: terms.UPQRApp) -> dict[int, int]:
        """u_pqr's id map, started with the cycle on its triple; the node
        validated the triple when it was built."""
        triple = (t.p, t.q, t.r)
        cache = self._upqr_caches.get(triple)
        if cache is None:
            p, q, r = (self.intern(e) for e in triple)
            cache = self._upqr_caches[triple] = {p: q, q: r, r: p}
        return cache

    def eval_ids(self, t: terms.Term, m: int) -> np.ndarray:
        """Read-only interned ids of t over the m-axis domain grid (broadcast shape)."""
        key = (t, m)
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = self._eval_class(t, m)
        return self._arrays[cls]

    def id_class(self, t: terms.Term, m: int) -> int:
        """The class of t's id array over the m-axis grid: equal classes,
        equal arrays, and the other way round."""
        self.eval_ids(t, m)
        return self._classes[(t, m)]

    def _eval_class(self, t: terms.Term, m: int) -> int:
        if isinstance(t, terms.Var):
            shape = [1] * m
            shape[t.idx] = len(self.domain)
            return self._array_class(self._domain_ids.reshape(shape))
        if isinstance(t, terms.FApp):
            op, args = terms.FApp, t.args
        elif isinstance(t, terms.UApp):
            op, args = terms.UApp, (t.arg,)
        else:
            op, args = (t.p, t.q, t.r), (t.arg,)
        node = (op, tuple(self.id_class(a, m) for a in args))
        cls = self._nodes.get(node)
        if cls is None:
            children = [self._arrays[c] for c in node[1]]
            if op is terms.FApp:
                ids = self._f_ids(children)
            elif op is terms.UApp:
                on_atom = functools.partial(elements.eval_u, params=self.params)
                ids = self._map_unary(self._u_cache, on_atom, children[0])
            else:
                ids = self._map_unary(self._upqr_cache(t), elements.shift_generator, children[0])
            cls = self._nodes[node] = self._array_class(ids)
        return cls

    def _array_class(self, ids: np.ndarray) -> int:
        ids.flags.writeable = False
        key = (ids.shape, ids.tobytes())
        cls = self._array_classes.get(key)
        if cls is None:
            cls = self._array_classes[key] = len(self._arrays)
            self._arrays.append(ids)
        return cls

    def _f_ids(self, children: list[np.ndarray]) -> np.ndarray:
        """f over the children's id arrays, in their broadcast shape, one
        table lookup per distinct argument tuple."""
        cells = math.prod(np.broadcast_shapes(*(c.shape for c in children)))
        check_budget("f-node grid", cells, errors.F_NODE_CAP, "cells")
        rows, inverse = _distinct_tuples(children)
        ids = self._f(list(zip(*(r.tolist() for r in rows))))
        return np.array(ids, dtype=np.int64)[inverse]

    def eval_codes(self, t: terms.Term, m: int) -> np.ndarray:
        """Equality codes of t over the grid, in broadcast shape: code
        equality iff value equality.  The root, wrappers stripped, must be
        an f-application.

        Off f0's domain f is injective on argument tuples, and a d-value
        depends only on which arguments are the a/b generators of their
        position.  So the codes depend on each argument's labels alone: its
        ids, renumbered by first occurrence with the position's a and b ids
        pinned to 0 and 1."""
        args = _strip_wrappers(t).args
        labels = [self._arg_labels(arg, pos, m)[0] for pos, arg in enumerate(args)]
        return _codes(labels, self._f0_codes)

    def _arg_labels(self, arg: terms.Term, pos: int, m: int) -> tuple[np.ndarray, int]:
        """The read-only pinned labels of an f-argument at a position, and
        the class id of that label array, memoized per (id class, pos)."""
        ids = self.eval_ids(arg, m)
        key = (self._classes[(arg, m)], pos)
        hit = self._labels.get(key)
        if hit is None:
            pinned = [self._a_ids[pos], self._b_ids[pos]]
            uniq, first, inverse = np.unique(
                np.concatenate((pinned, ids.ravel())), return_index=True, return_inverse=True
            )
            relabel = np.empty(uniq.size, dtype=np.min_scalar_type(uniq.size - 1))
            relabel[np.argsort(first)] = np.arange(uniq.size)
            labels = relabel[inverse[2:]].reshape(ids.shape)
            labels.flags.writeable = False
            classes = self._label_classes
            hit = labels, classes.setdefault((labels.shape, labels.tobytes()), len(classes))
            self._labels[key] = hit
        return hit

    def pattern_key(self, t: terms.Term, m: int) -> tuple:
        """Equal keys, equal codes: the class ids of the label arrays of the
        root's arguments.  The root, wrappers stripped, must be an
        f-application."""
        args = _strip_wrappers(t).args
        return tuple(self._arg_labels(arg, pos, m)[1] for pos, arg in enumerate(args))

    def fibers(self, t: terms.Term, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct fibers of t's equality codes along the last axis, as
        a (k, d) array, and for each cell of the first m - 1 axes, in full
        shape, the index of its fiber.  The root, wrappers stripped, must be
        an f-application, as it is in every term that uses all m axes.

        The codes within a fiber depend on each argument's row only through
        equality, through which labels are 0 or 1 and through f0's d-index,
        all of which the row's class keeps.  So a cell is numbered by the
        tuple of its arguments' row classes, and only the distinct fibers
        are built, from the classes' reduced rows."""
        d = len(self.domain)
        args = _strip_wrappers(t).args
        rows = [self._arg_rows(arg, pos, m) for pos, arg in enumerate(args)]
        classes, cell_fiber = _distinct_tuples([row_class for _, row_class in rows])
        fibers = _codes([reduced[c] for (reduced, _), c in zip(rows, classes)], self._f0_codes)
        return (
            np.broadcast_to(fibers, (classes[0].size, d)),
            np.broadcast_to(cell_fiber, (d,) * (m - 1)),
        )

    def _arg_rows(self, arg: terms.Term, pos: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """``_row_classes`` of an f-argument's labels, memoized per label class."""
        labels, cls = self._arg_labels(arg, pos, m)
        rows = self._rows.get(cls)
        if rows is None:
            rows = self._rows[cls] = _row_classes(labels)
        return rows

    def first_hit(
        self, term_iter: Iterable[terms.Term], m: int, blocks: int, decide: Callable
    ) -> tuple[int, Optional[terms.Term], Optional[tuple]]:
        """(scanned, term, hit) for the first term whose hit
        ``decide(self, t, m)`` is not None, or (scanned, None, None).

        The terms are read lazily and the scan stops at its hit, so
        ``scanned`` is the hit's index + 1, or all of the terms, and a term
        cap that only a later layer would pass is never reached.

        Terms with fewer than ``blocks`` free variables are skipped.  Every
        enumerated term is over x0..x(m-1), so the witness search passes m
        (the terms that use all blocks) and the corner lemma 2; either way
        the terms that reach ``decide`` are f-rooted, wrappers stripped.
        ``decide`` must depend on the pattern key only (the witness kernel
        reads ``fibers``, the corner lemma ``eval_codes``), so it runs once
        per key; only keys without a hit are kept."""
        no_hit: set[tuple] = set()
        scanned = 0
        for scanned, t in enumerate(term_iter, 1):
            if len(terms.free_vars(t)) < blocks:
                continue
            key = self.pattern_key(t, m)
            if key in no_hit:
                continue
            hit = decide(self, t, m)
            if hit is not None:
                return scanned, t, hit
            no_hit.add(key)
        return scanned, None, None


def _strip_wrappers(t: terms.Term) -> terms.Term:
    while isinstance(t, (terms.UApp, terms.UPQRApp)):
        t = t.arg  # injective wrappers preserve the equality pattern
    return t


def _pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """One int64 code per cell of the arrays' broadcast shape, equal where
    the tuples of their entries are equal and ordered like those tuples,
    and the base, one more than the largest entry.  The positional pack
    needs base**len(arrays) <= 2**63; past that the distinct tuples are
    numbered instead, so no code wraps."""
    base = max(int(a.max()) for a in arrays) + 1
    if base ** len(arrays) <= 2**63:
        code = arrays[0].astype(np.int64)
        for a in arrays[1:]:
            code = code * base + a
        return code, base
    full = np.broadcast_arrays(*arrays)
    _, code = _unique_rows(np.stack([c.ravel() for c in full], axis=1))
    return code.reshape(full[0].shape), base


def _distinct_tuples(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct tuples of the arrays' entries over their broadcast shape,
    in lexicographic order and as one 1-D array per input, and the index of
    each cell's tuple among them, in that shape and in the smallest unsigned
    dtype that holds it.

    While the positional codes span no more values than there are cells, a
    counting pass over that span numbers them, and no sort is needed."""
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    code, base = _pack(arrays)
    code = code.ravel()
    if base ** len(arrays) <= code.size:
        seen = np.zeros(base ** len(arrays), dtype=bool)
        seen[code] = True
        distinct = np.flatnonzero(seen)
        rank = np.zeros(seen.size, dtype=np.min_scalar_type(distinct.size - 1))
        rank[distinct] = np.arange(distinct.size)
        tuples = np.unravel_index(distinct, (base,) * len(arrays))
        return list(tuples), rank[code].reshape(shape)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    at = np.unravel_index(first, shape)
    inverse = inverse.astype(np.min_scalar_type(first.size - 1), copy=False)
    return [np.broadcast_to(a, shape)[at] for a in arrays], inverse.reshape(shape)


def _codes(labels: list[np.ndarray], f0_codes: np.ndarray) -> np.ndarray:
    """Equality codes from the pattern labels of f's n >= 2 arguments, in
    their broadcast shape; ``f0_codes`` is the grid's base-table codes."""
    code, _ = _pack(labels)
    # Cells whose arguments lie in f0's domain (labels 0 and 1) take a
    # d-value; off the domain f tags its argument tuple, so the d-values
    # get negative codes, apart from every nonnegative label code.
    in_dmn = functools.reduce(np.logical_and, [lab <= 1 for lab in labels])
    if np.any(in_dmn):
        bits = 0
        for lab in labels:
            bits = 2 * bits + (lab == 1)
        code = np.where(in_dmn, f0_codes[bits], code)
    return code


def _first_occurrence(rows: np.ndarray) -> np.ndarray:
    """Canonical partition labels: each entry becomes the index of the first
    entry of its row that is equal to it."""
    k, d = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    srt = np.take_along_axis(rows, order, axis=1)
    run_start = np.ones((k, d), dtype=bool)
    run_start[:, 1:] = srt[:, 1:] != srt[:, :-1]
    run = np.where(run_start, np.arange(d), 0)
    np.maximum.accumulate(run, axis=1, out=run)
    labels = np.empty_like(order)
    np.put_along_axis(labels, order, np.take_along_axis(order, run, axis=1), axis=1)
    return labels


def _row_classes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of labels along the last axis, each reduced to its
    pinned first-occurrence partition, and, in the shape of the leading
    axes, the index of each row's reduced form among them.

    Labels 0 and 1 stay and every other label becomes 2 plus the index of
    its first occurrence in the row: a bijection within the row that keeps
    which labels are 0 or 1.  A row of length 1 reduces to 0, 1 or 2."""
    rows = labels.reshape(-1, labels.shape[-1])
    reduced = np.where(rows <= 1, rows, 2 + _first_occurrence(rows))
    distinct, inverse = _unique_rows(reduced)
    return distinct, inverse.reshape(labels.shape[:-1])


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row unique of a 2-D integer or bool array, with its inverse, as
    numpy returns them: the distinct rows in lexicographic order, and the
    1-D index of each row among them.

    Numpy's row unique compares rows field by field.  Here each row is one
    opaque key, its bytes, read as one unsigned integer when they fit in 8
    (numpy sorts those far faster than bytes), and one sort of the keys
    finds the distinct rows.  Key order is not numeric order, so only the
    distinct rows are then sorted by value."""
    k, w = rows.shape
    if k == 0 or w == 0:  # no key of zero width: no rows, or all rows equal
        return rows[: min(k, 1)], np.zeros(k, dtype=np.intp)
    rows = np.ascontiguousarray(rows)
    width = rows.itemsize * w
    if width <= 8:
        keys = np.zeros((k, 8), dtype=np.uint8)
        keys[:, :width] = rows.view(np.uint8)
        keys = keys.view(np.uint64)
    else:
        keys = rows.view(np.dtype((np.void, width)))
    order = keys.ravel().argsort()
    srt = rows[order]
    new = np.ones(k, dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    distinct = srt[new]
    by_value = np.lexsort(distinct.T[::-1])
    rank = np.empty_like(by_value)
    rank[by_value] = np.arange(by_value.size)
    inverse = np.empty(k, dtype=np.intp)
    inverse[order] = rank[np.cumsum(new) - 1]
    return distinct[by_value], inverse
