"""Vectorized bulk evaluation of terms over a finite element domain.

Elements are interned to integer ids so that term values over a whole
assignment grid become numpy gather operations.  Two output modes:

- id arrays: every value is a real interned id (needed when values are
  inspected, e.g. membership in C);
- equality codes: injective unary wrappers are stripped and a root
  f-application is encoded, from the pattern labels of its arguments, as
  an integer that is equal for two cells exactly when the element values
  are equal.  This avoids interning the (potentially huge) set of
  top-level f-images when only the equality pattern of a cube matters.

Id arrays smaller than the full grid are memoized per grid, keyed by
(term, m), so a subterm shared by many terms is evaluated once.  Cached
arrays are read-only; their ids stay valid because interning only appends.
"""

from __future__ import annotations

import functools
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
        children = np.broadcast_arrays(*(self.eval_ids(a, m) for a in t.args))
        shape = children[0].shape
        flat = np.stack([c.ravel() for c in children], axis=1)
        if flat.shape[0] > F_NODE_CAP:
            raise BudgetExceededError(
                f"f-node grid of {flat.shape[0]} cells exceeds cap {F_NODE_CAP}"
            )
        rows, inverse = np.unique(flat, axis=0, return_inverse=True)
        out_ids = np.empty(rows.shape[0], dtype=np.int64)
        for pos, key in enumerate(map(tuple, rows.tolist())):
            v = self._f_cache.get(key)
            if v is None:
                v = self.intern(elements.eval_f([self._elems[i] for i in key], p))
                self._f_cache[key] = v
            out_ids[pos] = v
        return out_ids[inverse].reshape(shape)

    def eval_codes(self, t: terms.Term, m: int) -> np.ndarray:
        """Equality codes of t over the grid: code equality iff value
        equality.  They depend on the pattern labels alone."""
        labels = self.pattern_labels(t, m)
        if len(labels) == 1:  # a variable root; f has arity n >= 2
            return labels[0]
        base = max(int(lab.max()) for lab in labels) + 1
        if base ** len(labels) <= 2**63:
            code = labels[0].astype(np.int64)
            for lab in labels[1:]:
                code = code * base + lab
        else:
            # The positional pack would wrap int64; number the distinct
            # label tuples instead.
            full = np.broadcast_arrays(*labels)
            flat = np.stack([c.ravel() for c in full], axis=1)
            _, code = np.unique(flat, axis=0, return_inverse=True)
            code = code.reshape(full[0].shape)
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

    def pattern_labels(self, t: terms.Term, m: int) -> list[np.ndarray]:
        """Arrays in broadcast shape that fix the equality pattern of t.

        A variable root (wrappers stripped) is labelled by its own ids.  Off
        f0's domain f is injective on argument tuples, and a d-value depends
        only on which arguments are the a/b generators of their position.
        So each argument of an f-root is labelled by its ids, renumbered by
        first occurrence with the position's a and b ids pinned to 0 and 1."""
        t = _strip_wrappers(t)
        if not isinstance(t, terms.FApp):
            return [self.eval_ids(t, m)]
        labels = []
        for pos, arg in enumerate(t.args):
            ids = self.eval_ids(arg, m)
            pinned = [self._a_ids[pos], self._b_ids[pos]]
            uniq, first, inverse = np.unique(
                np.concatenate((pinned, ids.ravel())), return_index=True, return_inverse=True
            )
            relabel = np.empty(uniq.size, dtype=np.min_scalar_type(uniq.size - 1))
            relabel[np.argsort(first)] = np.arange(uniq.size)
            labels.append(relabel[inverse[2:]].reshape(ids.shape))
        return labels

    def pattern_key(self, t: terms.Term, m: int) -> tuple:
        """Shapes and bytes of the pattern labels: equal keys, equal codes."""
        return tuple((lab.shape, lab.tobytes()) for lab in self.pattern_labels(t, m))

    def first_hit(
        self, indexed_terms: Iterable[tuple[int, terms.Term]], m: int, decide: Callable
    ) -> Optional[tuple[int, terms.Term, tuple]]:
        """First (index, term, hit) whose hit ``decide(self, t, m)`` is not
        None, or None.  ``decide`` must depend on ``eval_codes`` only, so it
        runs once per pattern key; only keys without a hit are kept."""
        no_hit: set[tuple] = set()
        for i, t in indexed_terms:
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
