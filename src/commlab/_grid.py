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
- The table is two arrays, no dict: the argument-id tuples in
  lexicographic order, each packed into one int64 key, and the id of each
  value.  A batch of tuples is looked up with one binary search, and its
  new tuples are merged in with one insert.  Past the pack's range (n = 4
  from 2^15 ids) the keys are kept as rows, numbered with each batch by a
  row unique.
- Atoms are interned through a dict.  ``Tagged`` values from outside (the
  domain's elements or a triple coordinate) intern their arguments and go
  through f's table together, one batch per tag, so ids are equal exactly
  when the values are.
- u fixes every f-value, and u_pqr cycles the ids of its triple and shifts
  the generators, so each unary map is an int array over the ids, the
  identity but on atoms and the triple, and applying it is one gather.
  Growing a map visits the new atoms only.

The grid evaluates a term layer (``terms.term_layers``) at once, as an
array of id classes, one per term, each over its term's variables' axes
only (x0 and x1 share one), placed on the grid by the term's variable
mask.  One content-addressed store holds every array the grid keeps, id
arrays and pattern labels: equal dtype, shape and bytes make one class,
whose array is a read-only view of those bytes.  A layer applies each
unary operation (u, then each u_pqr triple) once per distinct class of
its argument positions, and f once per distinct node, its children's
classes and masks over its own axes, in batches of one shape, each no
larger than the f-node cap.  No method takes a ``Term``.

Two output modes:

- id arrays: every value is a real interned id (needed when values are
  inspected, e.g. membership in C);
- equality codes: an f-root, given by the classes of its arguments, is
  encoded from their pattern labels as an integer that is equal for two
  cells exactly when the element values are equal.  Injective unary
  wrappers above the root keep the pattern, so every term over two or
  more blocks is coded by its f-root.  This avoids interning the
  (potentially huge) set of top-level f-images when only the equality
  pattern of a cube matters.

The class of an f-argument's pattern labels is memoized per (class,
position), and the last-axis row classes per placed label class.
``first_hit`` scans layers by pattern keys, each argument's label class
and mask, decides a key once per orbit under the axes its decider is
symmetric in, and builds a ``Term`` only for the hit.  Interning only
appends, so ids stay valid.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
        self._atom_ids: list[int] = []  # ascending
        self._unary_maps: dict[object, np.ndarray] = {}
        self._shift = np.zeros(0, dtype=np.int64)  # the generator shift on the atoms
        self._arrays: list[np.ndarray] = []
        self._array_classes: dict[tuple[np.dtype, tuple, bytes], int] = {}
        self._labels: dict[tuple[int, int], int] = {}
        self._rows: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
        n = params.n
        self._a_ids = [self.intern(elements.AGen(i, 0)) for i in range(1, n + 1)]
        self._b_ids = [self.intern(elements.BGen(i, 0)) for i in range(1, n + 1)]
        # f's base table: the d id of each row, and its code -d.k indexed
        # by the row's b-bits, first position most significant
        rows = list(itertools.product(*zip(self._a_ids, self._b_ids)))
        self._f_vals = np.empty(2**n, dtype=np.int64)
        self._f0_codes = np.empty(2**n, dtype=np.int64)
        for bits, key in enumerate(rows):
            d = elements.f0_value([self._elems[i] for i in key], params)
            self._f_vals[bits] = self.intern(d)
            self._f0_codes[bits] = -d.k
        # f's table: the argument-id tuples in lexicographic order, packed
        # into one int64 key each while every id is below the base, and the
        # id of each value.  f0's rows seed it, already in order, as each
        # a(i,0) has a smaller id than b(i,0).
        self._f_base = 2 ** (63 // n)
        self._f_keys = _pack_ids(list(np.array(rows, dtype=np.int64).T), self._f_base)
        self._domain_ids = np.array(self._intern_all(self.domain), dtype=np.int64)
        if np.unique(self._domain_ids).size != len(self.domain):
            raise ValueError("domain contains duplicates")

    def intern(self, e: Element) -> int:
        if isinstance(e, elements.Tagged):
            return self._intern_all([e])[0]
        i = self._atoms.get(e)
        if i is None:
            i = self._atoms[e] = len(self._elems)
            self._elems.append(e)
            self._atom_ids.append(i)
        return i

    def _intern_all(self, values: list[Element]) -> list[int]:
        """The ids of the values.  The tagged values among them and their
        arguments go through f's table in one batch per tag, lowest first,
        so each batch's arguments have ids."""
        ids = {e: self.intern(e) for e in values if not isinstance(e, elements.Tagged)}
        todo = [e for e in values if isinstance(e, elements.Tagged)]
        for e in todo:
            # f's table keys on the argument ids alone, so an ill-formed
            # value would take the id of the well-formed one
            if not elements.well_formed(e, self.params):
                raise ValueError(f"ill-formed tagged value {elements.element_to_text(e)}")
        by_tag: dict[int, list[Element]] = {}
        while todo:
            e = todo.pop()
            if e in ids:
                continue
            if isinstance(e, elements.Tagged):
                ids[e] = -1  # met; its id comes with its tag's batch
                by_tag.setdefault(e.tag, []).append(e)
                todo.extend(e.args)
            else:
                ids[e] = self.intern(e)
        for tag in sorted(by_tag):
            batch = by_tag[tag]
            args = np.array([[ids[a] for a in e.args] for e in batch], dtype=np.int64)
            ids.update(zip(batch, self._f_ids(list(args.T)).tolist()))
        return [ids[e] for e in values]

    def _map_unary(self, op, arr: np.ndarray) -> np.ndarray:
        """arr under u (op ``terms.UApp``) or u_pqr (op its triple), by a
        gather from the op's id map, which covers the ids up to the largest
        it has been given.  u_pqr cycles its triple, which the node
        validated, and shifts every other atom: a copy of the shift map."""
        table = self._unary_maps.get(op, np.zeros(0, dtype=np.int64))
        size = int(arr.max()) + 1
        if table.size < size:
            if op is terms.UApp:
                table = self._grown(table, size, lambda e: elements.eval_u(e, self.params))
            else:
                ids = [self.intern(e) for e in op]
                size = max(size, max(ids) + 1)  # the map covers its triple too
                self._shift = self._grown(self._shift, size, elements.shift_generator)
                table = self._shift.copy()
                table[ids] = ids[1:] + ids[:1]
            self._unary_maps[op] = table
        return table[arr]

    def _grown(self, table: np.ndarray, size: int, on_atom: Callable) -> np.ndarray:
        """An id map grown to size: on_atom on new atoms, f-values fixed."""
        if table.size >= size:
            return table
        grown = np.arange(table.size, size, dtype=np.int64)
        atoms = self._atom_ids
        for i in atoms[bisect.bisect_left(atoms, table.size) : bisect.bisect_left(atoms, size)]:
            grown[i - table.size] = self.intern(on_atom(self._elems[i]))
        return np.concatenate((table, grown))

    def class_ids(self, cls: int, mask: int, m: int) -> np.ndarray:
        """The read-only array of a class (ids or labels) as a view over the
        m-axis grid: its axes in order on the set bits of mask, 1 elsewhere."""
        d = len(self.domain)
        return self._arrays[cls].reshape([d if mask >> j & 1 else 1 for j in range(m)])

    def layer_classes(self, layer: terms.TermLayer, below: np.ndarray, masks: np.ndarray):
        """The class of each term of a layer; ``below`` and ``masks`` hold
        the classes and variable masks of the terms at earlier positions."""
        parts = [np.full(layer.num_vars, self.var_class(), dtype=np.intp)]
        # every unary operation runs once per distinct child class
        distinct, inverse = np.unique(below[layer.args], return_inverse=True)
        unary = [[self.unary_class(op, c) for c in distinct.tolist()] for op in layer.unary]
        shape = (len(layer.unary), distinct.size)
        parts.append(np.array(unary, dtype=np.intp).reshape(shape)[:, inverse].ravel())
        if len(layer.f):
            # each child's mask over the node's axes: bit k for its k-th
            children = masks[layer.f]
            union = np.bitwise_or.reduce(children, axis=1)[:, None]
            local, rank = np.zeros_like(children), np.zeros_like(union)
            for j in range(int(union.max()).bit_length()):
                local |= ((children >> j) & 1) << rank
                rank += (union >> j) & 1
            nodes, inverse = _unique_rows(np.concatenate((below[layer.f], local), axis=1))
            parts.append(np.array(self._f_classes(list(map(tuple, nodes.tolist()))))[inverse])
        return np.concatenate(parts)

    def var_class(self) -> int:
        """The class of every variable: the domain's ids, on one axis."""
        return self._array_class(self._domain_ids)

    def unary_class(self, op, child: int) -> int:
        """The class of u (op ``terms.UApp``) or u_pqr (op its triple) over a class."""
        return self._array_class(self._map_unary(op, self._arrays[child]))

    def _f_classes(self, nodes: list[tuple[int, ...]]) -> list[int]:
        """The classes of f over distinct nodes, each its children's classes
        and then their masks over its own axes.  The nodes whose children
        have the same masks go through f's table together: each child
        position stacks its arrays along a new first axis, in batches of
        at most the f-node cap's cells, the cap that each node is held to."""
        by_masks: dict[tuple, list[tuple[int, ...]]] = {}
        for node in nodes:
            by_masks.setdefault(node[len(node) // 2 :], []).append(node)
        classes = {}
        for node_masks, group in by_masks.items():
            axes = max(node_masks).bit_length()
            cells = len(self.domain) ** axes
            check_budget("f-node grid", cells, errors.F_NODE_CAP, "cells")
            step = errors.F_NODE_CAP // cells
            for s in range(0, len(group), step):
                batch = group[s : s + step]
                children = [
                    np.stack([self.class_ids(node[pos], mask, axes) for node in batch])
                    for pos, mask in enumerate(node_masks)
                ]
                for node, ids in zip(batch, self._f_ids(children)):
                    classes[node] = self._array_class(ids)
        return [classes[node] for node in nodes]

    def _array_class(self, arr: np.ndarray, new: bool = True) -> Optional[int]:
        """The class of an array, keyed by its dtype, shape and bytes (None
        if not stored and not ``new``); a new class keeps a read-only view of
        the key's bytes, so no array is held twice or keeps its batch."""
        key = (arr.dtype, arr.shape, arr.tobytes())
        cls = self._array_classes.get(key)
        if cls is None and new:
            cls = self._array_classes[key] = len(self._arrays)
            self._arrays.append(np.frombuffer(key[2], dtype=arr.dtype).reshape(arr.shape))
        return cls

    def _f_ids(self, children: list[np.ndarray]) -> np.ndarray:
        """f over the children's id arrays, in their broadcast shape.

        The distinct argument tuples, in lexicographic order, are packed
        into one int64 key each and looked up in f's table with one binary
        search.  f0's rows are in the table from the start, so a tuple not
        yet in it lies off f0 and takes a fresh id: the new tuples get
        consecutive ids, in their order, and are merged into the sorted
        table in one step.

        Once an id reaches the pack's base, the table is kept as rows
        instead, and numbered together with the tuples by one row unique,
        so no key wraps."""
        tuples, inverse = _distinct_tuples(children)
        size = len(self._elems)
        if self._f_keys.ndim == 1 and max(int(t.max()) for t in tuples) < self._f_base:
            keys = _pack_ids(tuples, self._f_base)
            at = np.searchsorted(self._f_keys, keys)
            last = np.minimum(at, self._f_keys.size - 1)
            ids = self._f_vals[last]
            new = self._f_keys[last] != keys
            if new.any():
                fresh = np.arange(size, size + np.count_nonzero(new))
                ids[new] = fresh
                self._f_keys = np.insert(self._f_keys, at[new], keys[new])
                self._f_vals = np.insert(self._f_vals, at[new], fresh)
                self._elems.extend([None] * fresh.size)
            return ids[inverse]
        table = self._f_keys
        if table.ndim == 1:
            table = _unpack_ids(table, self._f_base, len(tuples))
        distinct, number = _unique_rows(np.concatenate((table, np.stack(tuples, axis=1))))
        ids = np.full(len(distinct), -1, dtype=np.int64)
        ids[number[: len(table)]] = self._f_vals
        number = number[len(table) :]
        new = number[ids[number] < 0]  # ascending, as the tuples are in order
        ids[new] = np.arange(size, size + new.size)
        self._f_keys, self._f_vals = distinct, ids
        self._elems.extend([None] * new.size)
        return ids[number][inverse]

    def eval_codes(self, args: tuple[tuple[int, int], ...], m: int) -> np.ndarray:
        """Equality codes over the m-axis grid of the f-root whose
        arguments are the (class, mask) pairs ``args``, in their broadcast
        shape: code equality iff value equality.

        Off f0's domain f is injective on argument tuples, and a d-value
        depends only on which arguments are the a/b generators of their
        position.  So the codes depend on each argument's labels alone: its
        ids, renumbered by first occurrence with the position's a and b ids
        pinned to 0 and 1."""
        key = [(self._labels_of(c, pos)[1], mask) for pos, (c, mask) in enumerate(args)]
        return _codes([self.class_ids(lab, mask, m) for lab, mask in key], self._f0_codes)

    def _labels_of(self, cls: int, pos: int) -> tuple[np.ndarray, int]:
        """The read-only pinned labels of an id class as an f-argument at a
        position, and their class, memoized per (id class, pos)."""
        key = (cls, pos)
        label_cls = self._labels.get(key)
        if label_cls is None:
            ids = self._arrays[cls]
            pinned = [self._a_ids[pos], self._b_ids[pos]]
            uniq, first, inverse = np.unique(
                np.concatenate((pinned, ids.ravel())), return_index=True, return_inverse=True
            )
            relabel = np.empty(uniq.size, dtype=np.min_scalar_type(uniq.size - 1))
            relabel[np.argsort(first)] = np.arange(uniq.size)
            labels = relabel[inverse[2:]].reshape(ids.shape)
            label_cls = self._labels[key] = self._array_class(labels)
        return self._arrays[label_cls], label_cls

    def fibers(self, args: tuple[tuple[int, int], ...], m: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct fibers along the last axis of ``eval_codes(args, m)``
        over the m-axis grid, as a (k, d) array, and for each cell of the
        first m - 1 axes, in full shape, the index of its fiber.

        The codes within a fiber depend on each argument's row only through
        equality, through which labels are 0 or 1 and through f0's d-index,
        all of which the row's class keeps.  So a cell is numbered by the
        tuple of its arguments' row classes, and only the distinct fibers
        are built, from the classes' reduced rows."""
        d = len(self.domain)
        rows = [self._rows_of(cls, pos, mask, m) for pos, (cls, mask) in enumerate(args)]
        classes, cell_fiber = _distinct_tuples([row_class for _, row_class in rows])
        fibers = _codes([reduced[c] for (reduced, _), c in zip(rows, classes)], self._f0_codes)
        return (
            np.broadcast_to(fibers, (classes[0].size, d)),
            np.broadcast_to(cell_fiber, (d,) * (m - 1)),
        )

    def _rows_of(self, cls: int, pos: int, mask: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """``_row_classes`` of an id class's labels at an f-argument
        position, placed by mask over the m-axis grid, memoized."""
        label_cls = self._labels_of(cls, pos)[1]
        rows = self._rows.get((label_cls, mask, m))
        if rows is None:
            rows = self._rows[label_cls, mask, m] = _row_classes(self.class_ids(label_cls, mask, m))
        return rows

    def first_hit(
        self, layers: Iterable[terms.TermLayer], m: int, blocks: int, decide: Callable,
        symmetric: int = 0,
    ) -> tuple[int, Optional[terms.Term], Optional[tuple]]:
        """(scanned, term, hit) for the first term of the layers whose hit
        ``decide(self, args, m)`` is not None, or (scanned, None, None).

        The layers are read one at a time and the scan stops at its hit, so
        ``scanned`` is the hit's position + 1, or every term of the layers,
        and a term cap that only a later layer would pass is never reached.
        A layer's classes are built when the next layer needs them as
        children, so no root's ids are built.

        Terms with fewer than ``blocks`` >= 2 free variables are skipped.
        Every term is over x0..x(m-1), so the witness search passes m (the
        terms that use all blocks) and the corner lemma 2; either way the
        terms that reach ``decide`` are f-rooted, wrappers stripped, and
        ``args`` is the root's (class, mask) pairs.  ``decide`` must depend
        on the pattern key only, each argument's label class and mask (the
        witness kernel reads ``fibers``, the corner lemma ``eval_codes``),
        so it runs once per key, on the key's first term.  If no permutation
        of the leading ``symmetric`` axes changes whether it hits, a key
        with no hit puts the keys of its images into the no-hit memo too,
        so it runs once per orbit; the hit and the counts stay the same.
        The hit's term is the only ``Term`` the scan builds."""
        seen: list[terms.TermLayer] = []
        classes = masks = np.zeros(0, dtype=np.intp)
        no_hit: set[tuple] = set()
        for layer in layers:
            if seen:
                classes = np.concatenate((classes, self.layer_classes(seen[-1], classes, masks)))
            seen.append(layer)
            masks = np.concatenate((masks, terms.layer_masks(layer, masks)))
            # A wrapper has its child's key, which the scan met in the layer
            # below, so only the f-roots can bring a key to decide.
            f_start = masks.size - len(layer.f)
            roots = np.flatnonzero(sum((masks[f_start:] >> j) & 1 for j in range(m)) >= blocks)
            if not roots.size:
                continue
            # roots with equal children have equal keys: the first root of
            # each tuple of child classes and masks, in canonical order
            rows = layer.f[roots]
            children = np.stack((classes[rows], masks[rows]), axis=2).reshape(len(rows), -1)
            _, first = np.unique(_unique_rows(children)[1], return_index=True)
            for i in np.sort(first).tolist():
                args = tuple(map(tuple, children[i].reshape(-1, 2).tolist()))
                orbit = self._orbit(args, m, symmetric)
                key = next(orbit)
                if key in no_hit:
                    continue
                hit = decide(self, args, m)
                if hit is not None:
                    pos = f_start + int(roots[i])
                    return pos + 1, terms.term_at(seen, pos), hit
                no_hit.update((key, *orbit))
        return masks.size, None, None

    def _orbit(self, args: tuple[tuple[int, int], ...], m: int, symmetric: int) -> Iterable[tuple]:
        """The pattern keys of the arguments' images under the permutations
        of the leading ``symmetric`` axes, their own first.  An argument
        whose axes are reordered is looked up transposed; if absent, no key."""
        for perm in itertools.permutations(range(symmetric)):
            key = []
            for pos, (cls, mask) in enumerate(args):
                axes = [perm[j] if j < symmetric else j for j in range(m) if mask >> j & 1]
                if axes != sorted(axes):
                    cls = self._array_class(self._arrays[cls].transpose(np.argsort(axes)), False)
                    if cls is None:
                        break
                key.append((self._labels_of(cls, pos)[1], sum(1 << a for a in axes)))
            else:
                yield tuple(key)


def _pack(arrays: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """One int64 code per cell of the arrays' broadcast shape, equal where
    the tuples of their entries are equal and ordered like those tuples,
    and the base, one more than the largest entry.  The positional pack
    needs base**len(arrays) <= 2**63; past that the distinct tuples are
    numbered instead, so no code wraps."""
    base = max(int(a.max()) for a in arrays) + 1
    if base ** len(arrays) <= 2**63:
        return _pack_ids(arrays, base), base
    full = np.broadcast_arrays(*arrays)
    _, code = _unique_rows(np.stack([c.ravel() for c in full], axis=1))
    return code.reshape(full[0].shape), base


def _pack_ids(args: list[np.ndarray], base: int) -> np.ndarray:
    """One int64 key per tuple of the id arrays' entries, over their
    broadcast shape (1-D arrays give one key per index), ordered like the
    tuples; every id must be below base, and base**len(args) <= 2**63."""
    keys = args[0].astype(np.int64)
    for a in args[1:]:
        keys = keys * base + a
    return keys


def _unpack_ids(keys: np.ndarray, base: int, width: int) -> np.ndarray:
    """The (k, width) id rows that ``_pack_ids`` packed into keys."""
    rows = np.empty((keys.size, width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        keys, rows[:, pos] = np.divmod(keys, base)
    return rows


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
