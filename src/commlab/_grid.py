"""Vectorized bulk evaluation of terms over a finite element domain.

Elements are interned to integer ids so that term values over a whole
assignment grid become numpy gather operations.  Two output modes:

- id arrays: every value is a real interned id (needed when values are
  inspected, e.g. membership in C);
- equality codes: injective unary wrappers are stripped and the root, an
  f-application as in every term over two or more blocks, is encoded,
  from the pattern labels of its arguments, as an integer that is equal
  for two cells exactly when the element values are equal.  This avoids
  interning the (potentially huge) set of top-level f-images when only
  the equality pattern of a cube matters.

Id arrays smaller than the full grid are memoized per grid, keyed by
(term, m), so a subterm shared by many terms is evaluated once.  So are the
pattern labels of each f-argument, keyed by (argument, position, m), and the
last-axis row classes of each distinct label array.  Cached arrays are
read-only; their ids stay valid because interning only appends.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Optional

import numpy as np

from . import elements, terms
from .elements import Element, Params
from .errors import BudgetExceededError

F_NODE_CAP = 2 * 10**6


class SymbolicGrid:
    def __init__(self, params: Params, domain: list[Element]):
        self.params = params
        self.domain = list(domain)
        self._ids: dict[Element, int] = {}
        self._elems: list[Element] = []
        for e in self.domain:
            self.intern(e)
        if len(self._elems) != len(self.domain):
            raise ValueError("domain contains duplicates")
        self._u_cache: dict[int, int] = {}
        self._upqr_caches: dict[tuple[Element, Element, Element], dict[int, int]] = {}
        self._f_cache: dict[tuple[int, ...], int] = {}
        self._memo: dict[tuple[terms.Term, int], np.ndarray] = {}
        self._labels: dict[tuple[terms.Term, int, int], tuple[np.ndarray, int]] = {}
        self._label_classes: dict[tuple[tuple, bytes], int] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        n = params.n
        self._a_ids = [self.intern(elements.AGen(i, 0)) for i in range(1, n + 1)]
        self._b_ids = [self.intern(elements.BGen(i, 0)) for i in range(1, n + 1)]

    def intern(self, e: Element) -> int:
        i = self._ids.get(e)
        if i is None:
            i = len(self._elems)
            self._ids[e] = i
            self._elems.append(e)
        return i

    def element(self, i: int) -> Element:
        return self._elems[i]

    def _map_unary(self, cache: dict[int, int], fn, arr: np.ndarray) -> np.ndarray:
        uniq = np.unique(arr)
        out = np.empty(uniq.shape, dtype=np.int64)
        for pos, i in enumerate(uniq):
            i = int(i)
            v = cache.get(i)
            if v is None:
                v = self.intern(fn(self._elems[i]))
                cache[i] = v
            out[pos] = v
        return out[np.searchsorted(uniq, arr)]

    def _var_axis(self, idx: int, m: int) -> np.ndarray:
        d = len(self.domain)
        shape = [1] * m
        shape[idx] = d
        return np.arange(d, dtype=np.int64).reshape(shape)

    def eval_ids(self, t: terms.Term, m: int) -> np.ndarray:
        """Interned ids of t over the m-axis domain grid (broadcast shape)."""
        key = (t, m)
        ids = self._memo.get(key)
        if ids is None:
            ids = self._eval_ids(t, m)
            if ids.size < len(self.domain) ** m:
                ids.flags.writeable = False
                self._memo[key] = ids
        return ids

    def _eval_ids(self, t: terms.Term, m: int) -> np.ndarray:
        p = self.params
        if isinstance(t, terms.Var):
            return self._var_axis(t.idx, m)
        if isinstance(t, terms.Const):
            return np.full((1,) * m, self.intern(t.value), dtype=np.int64)
        if isinstance(t, terms.UApp):
            return self._map_unary(
                self._u_cache, lambda e: elements.eval_u(e, p), self.eval_ids(t.arg, m)
            )
        if isinstance(t, terms.UPQRApp):
            cache = self._upqr_caches.setdefault((t.p, t.q, t.r), {})
            return self._map_unary(
                cache,
                lambda e: elements.eval_u_pqr(t.p, t.q, t.r, e, p),
                self.eval_ids(t.arg, m),
            )
        children = [self.eval_ids(a, m) for a in t.args]
        cells = math.prod(np.broadcast_shapes(*(c.shape for c in children)))
        if cells > F_NODE_CAP:
            raise BudgetExceededError(f"f-node grid of {cells} cells exceeds cap {F_NODE_CAP}")
        rows, inverse = _distinct_tuples(children)
        out_ids = np.empty(rows[0].size, dtype=np.int64)
        for pos, key in enumerate(zip(*(r.tolist() for r in rows))):
            v = self._f_cache.get(key)
            if v is None:
                v = self.intern(elements.eval_f([self._elems[i] for i in key], p))
                self._f_cache[key] = v
            out_ids[pos] = v
        return out_ids[inverse]

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
        return _codes([self._arg_labels(arg, pos, m)[0] for pos, arg in enumerate(args)])

    def _arg_labels(self, arg: terms.Term, pos: int, m: int) -> tuple[np.ndarray, int]:
        """The read-only pinned labels of an f-argument at a position, and
        the class id of that label array, memoized per (arg, pos, m)."""
        key = (arg, pos, m)
        hit = self._labels.get(key)
        if hit is None:
            ids = self.eval_ids(arg, m)
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
        fibers = _codes([reduced[c] for (reduced, _), c in zip(rows, classes)])
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
        self, term_list: Iterable[terms.Term], m: int, blocks: int, decide: Callable
    ) -> Optional[tuple[int, terms.Term, tuple]]:
        """First (index in term_list, term, hit) whose hit
        ``decide(self, t, m)`` is not None, or None.

        Terms with fewer than ``blocks`` free variables are skipped.  Every
        enumerated term is over x0..x(m-1), so the witness search passes m
        (the terms that use all blocks) and the corner lemma 2; either way
        the terms that reach ``decide`` are f-rooted, wrappers stripped.
        ``decide`` must depend on the pattern key only (the witness kernel
        reads ``fibers``, the corner lemma ``eval_codes``), so it runs once
        per key; only keys without a hit are kept."""
        no_hit: set[tuple] = set()
        for i, t in enumerate(term_list):
            if len(terms.free_vars(t)) < blocks:
                continue
            key = self.pattern_key(t, m)
            if key in no_hit:
                continue
            hit = decide(self, t, m)
            if hit is not None:
                return i, t, hit
            no_hit.add(key)
        return None


def _strip_wrappers(t: terms.Term) -> terms.Term:
    while isinstance(t, (terms.UApp, terms.UPQRApp)):
        t = t.arg  # injective wrappers preserve the equality pattern
    return t


def _pack(arrays: list[np.ndarray]) -> np.ndarray:
    """One int64 code per cell of the arrays' broadcast shape, equal where
    the tuples of their entries are equal and ordered like those tuples.
    The positional pack needs base**len(arrays) <= 2**63; past that the
    distinct tuples are numbered instead, so no code wraps."""
    base = max(int(a.max()) for a in arrays) + 1
    if base ** len(arrays) <= 2**63:
        code = arrays[0].astype(np.int64)
        for a in arrays[1:]:
            code = code * base + a
        return code
    full = np.broadcast_arrays(*arrays)
    flat = np.stack([c.ravel() for c in full], axis=1)
    _, code = np.unique(flat, axis=0, return_inverse=True)
    return code.reshape(full[0].shape)


def _distinct_tuples(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct tuples of the arrays' entries over their broadcast shape,
    in lexicographic order and as one 1-D array per input, and the index of
    each cell's tuple among them, in that shape."""
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    _, first, inverse = np.unique(
        _pack(arrays).ravel(), return_index=True, return_inverse=True
    )
    at = np.unravel_index(first, shape)
    return [np.broadcast_to(a, shape)[at] for a in arrays], inverse.reshape(shape)


def _codes(labels: list[np.ndarray]) -> np.ndarray:
    """Equality codes from the pattern labels of f's n >= 2 arguments, in
    their broadcast shape."""
    code = _pack(labels)
    # Cells whose arguments lie in f0's domain (labels 0 and 1) take a
    # d-value; off the domain f tags its argument tuple, so the d-values
    # get negative codes, apart from every nonnegative label code.
    in_dmn = functools.reduce(np.logical_and, [lab <= 1 for lab in labels])
    if np.any(in_dmn):
        k = 0
        for lab in labels[:-1]:
            k = 2 * k + (lab == 1)
        # the last argument counts only when all the others are b's
        d_index = k + ((k == 2 ** (len(labels) - 1) - 1) & (labels[-1] == 1))
        code = np.where(in_dmn, -1 - d_index, code)
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
    distinct, inverse = np.unique(reduced, axis=0, return_inverse=True)
    return distinct, inverse.reshape(labels.shape[:-1])
