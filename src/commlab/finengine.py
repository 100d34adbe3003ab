"""Finite-algebra engine: congruence generation, cube subpowers, higher
commutators of the term-condition kind, and the descending central series.

Universes are 0..s-1; operation tables are flattened row-major with the
first argument most significant.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import errors
from .errors import DEFAULT_CUBE_CAP, CommlabError, check_budget


@dataclass(frozen=True)
class Operation:
    symbol: str
    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    operations: tuple[Operation, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("universe must be nonempty")
        for op in self.operations:
            if op.arity < 0:
                raise ValueError(f"operation {op.symbol!r} has negative arity")
            if len(op.table) != self.size**op.arity:
                raise ValueError(
                    f"operation {op.symbol!r}: table length {len(op.table)} != "
                    f"{self.size}^{op.arity}"
                )
            for v in op.table:
                if not 0 <= v < self.size:
                    raise ValueError(f"operation {op.symbol!r}: entry {v} out of range")

    def apply(self, op: Operation, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]

    @classmethod
    def from_tables(cls, size: int, ops: Iterable[tuple[str, int, Sequence[int]]]):
        return cls(size, tuple(Operation(s, a, tuple(t)) for s, a, t in ops))

    @functools.cached_property
    def translations(self) -> np.ndarray:
        """Every basic translation x -> op(c1, .., x, .., ck) as one row of the
        s images, for each operation, argument position and constant tuple."""
        s = self.size
        rows = [np.empty((0, s), dtype=np.intp)]
        for op in self.operations:
            if op.arity == 0:
                continue
            table = np.array(op.table, dtype=np.intp).reshape((s,) * op.arity)
            for pos in range(op.arity):
                rows.append(table.swapaxes(pos, -1).reshape(-1, s))
        images = np.concatenate(rows)
        images.flags.writeable = False  # shared by every cg call on this algebra
        return images


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        x, y = self.find(x), self.find(y)
        if y < x:
            x, y = y, x
        self.parent[y] = x


@dataclass(frozen=True)
class Congruence:
    """Partition of 0..size-1 as a canonical block list (blocks sorted by
    least element, elements sorted)."""

    size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = sorted(x for b in self.blocks for x in b)
        if seen != list(range(self.size)):
            raise ValueError("blocks do not partition the universe")
        for b in self.blocks:
            if list(b) != sorted(b):
                raise ValueError("block elements must be sorted")
        if [b[0] for b in self.blocks] != sorted(b[0] for b in self.blocks):
            raise ValueError("blocks must be sorted by least element")

    @classmethod
    def identity(cls, size: int) -> "Congruence":
        return cls(size, tuple((x,) for x in range(size)))

    @classmethod
    def full(cls, size: int) -> "Congruence":
        return cls(size, (tuple(range(size)),))

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Congruence":
        """The partition into elements of equal label.  Grouped in element
        order, each block is sorted and first seen at its least element."""
        groups: dict[int, list[int]] = {}
        for x, label in enumerate(labels):
            groups.setdefault(label, []).append(x)
        return cls(len(labels), tuple(map(tuple, groups.values())))

    def class_map(self) -> list[int]:
        cm = [0] * self.size
        for i, b in enumerate(self.blocks):
            for x in b:
                cm[x] = i
        return cm

    def refines(self, other: "Congruence") -> bool:
        cm = other.class_map()
        return all(len({cm[x] for x in b}) == 1 for b in self.blocks)

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1


def _close(alg: FiniteAlgebra, uf: UnionFind) -> np.ndarray:
    """Close uf under the algebra's translations and return each element's
    class root.  Each round labels every element by its root, gathers the
    labels of all translation images, and unions the image pairs whose
    labels differ from those of the root's images, until none do."""
    images = alg.translations
    while True:
        labels = np.array([uf.find(x) for x in range(alg.size)], dtype=np.intp)
        image_labels = labels[images]
        root_labels = image_labels[:, labels]
        bad = image_labels != root_labels
        if not bad.any():
            return labels
        for a, b in zip(image_labels[bad].tolist(), root_labels[bad].tolist()):
            uf.union(a, b)


def cg(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the pairs."""
    s = alg.size
    uf = UnionFind(s)
    for a, b in pairs:
        if not (0 <= a < s and 0 <= b < s):
            raise ValueError(f"pair ({a}, {b}) outside universe 0..{s - 1}")
        uf.union(a, b)
    return Congruence.from_labels(_close(alg, uf).tolist())


class _CubeBitmap:
    """Cube membership as one bool per base-s code (vertex 0 most
    significant): `seen` holds the closure so far, `new` the cubes of the
    current round that are not in `seen`."""

    def __init__(self, s: int, nverts: int, cap: int):
        self.s, self.nverts, self.cap = s, nverts, cap
        self.weights = s ** np.arange(nverts - 1, -1, -1, dtype=np.int64)
        self.seen = np.zeros(s**nverts, dtype=bool)
        self.new = np.zeros_like(self.seen)
        self.count = 0
        # upper bound on the cubes in `new`; recounted when it passes a cap
        self.pending = 0

    def add(self, cubes: np.ndarray) -> None:
        codes = (cubes @ self.weights).ravel()
        codes = codes[~self.seen[codes]]
        self.new[codes] = True
        self.pending += codes.size
        if self.count + self.pending > min(self.cap, errors.GRID_CELL_CAP // self.nverts):
            self.pending = int(np.count_nonzero(self.new))
            n = self.count + self.pending
            check_budget("cube subpower", n, self.cap, "cubes")
            check_budget("cube subpower", n * self.nverts, errors.GRID_CELL_CAP, "cells")

    def take_new(self) -> np.ndarray:
        fresh = np.flatnonzero(self.new)
        self.seen[fresh] = True
        self.new[fresh] = False
        self.count += fresh.size
        self.pending = 0
        return fresh[:, None] // self.weights % self.s


class _CubeCodeSet:
    """Cube membership as a set of row bytes, for universes whose s**nverts
    codes are too many for a bitmap.  Each vertex is stored in the least
    unsigned width that holds s - 1."""

    def __init__(self, s: int, nverts: int, cap: int):
        self.nverts, self.cap = nverts, cap
        self.dtype = np.min_scalar_type(s - 1)
        self.row = np.dtype((np.void, self.dtype.itemsize * nverts))
        self.seen: set[bytes] = set()
        self.new: set[bytes] = set()

    def add(self, cubes: np.ndarray) -> None:
        rows = np.ascontiguousarray(cubes.reshape(-1, self.nverts), dtype=self.dtype)
        self.new |= set(rows.view(self.row).ravel().tolist()).difference(self.seen)
        n = len(self.seen) + len(self.new)
        check_budget("cube subpower", n, self.cap, "cubes")
        check_budget("cube subpower", n * self.nverts, errors.GRID_CELL_CAP, "cells")

    def take_new(self) -> np.ndarray:
        fresh, self.new = self.new, set()
        self.seen |= fresh
        rows = np.frombuffer(b"".join(fresh), dtype=self.dtype)
        return rows.reshape(-1, self.nverts).astype(np.intp)


# Cubes whose s**(2**m) codes fit below this bound use the bitmap.
_BITMAP_MAX_CODES = 1 << 24
# Table-index cells per gather; small blocks keep peak memory flat.
_BLOCK_CELLS = 1 << 13


def _frontier_index_blocks(cubes: np.ndarray, n_old: int, arity: int, s: int):
    """Table indices of every argument tuple of an arity-ary operation that
    holds a frontier cube (cubes[n_old:]), each tuple once: for argument
    position p, old cubes before p, a frontier cube at p and any cube after
    it.  Yields arrays of shape (a, b, nverts), at most _BLOCK_CELLS cells
    each unless one cube is larger."""
    n_all, nverts = cubes.shape
    for p in range(arity):
        *lead, (lo, hi) = [(0, n_old)] * p + [(n_old, n_all)] + [(0, n_all)] * (arity - 1 - p)
        n_lead = math.prod(h - l for l, h in lead)
        nb = min(hi - lo, max(1, _BLOCK_CELLS // nverts))
        na = max(1, _BLOCK_CELLS // (nb * nverts))
        for a0 in range(0, n_lead, na):
            flat = np.arange(a0, min(a0 + na, n_lead))
            prefix = np.zeros((flat.size, nverts), dtype=np.intp)
            weight = s
            for l, h in reversed(lead):
                flat, ix = np.divmod(flat, h - l)
                prefix += cubes[l + ix] * weight
                weight *= s
            prefix = prefix[:, None, :]
            for b0 in range(lo, hi, nb):
                yield prefix + cubes[None, b0 : min(b0 + nb, hi)]


def _generator_cubes(alg: FiniteAlgebra, alphas: Sequence[Congruence]) -> np.ndarray:
    """Block-edge cubes of each congruence (vertex i takes b on the vertices
    whose bit for block j is set, a elsewhere, for every related (a, b)),
    plus the constant cube of each nullary operation."""
    m = len(alphas)
    nverts = 2**m
    bits = np.arange(nverts, dtype=np.intp) >> np.arange(m - 1, -1, -1, dtype=np.intp)[:, None] & 1
    cubes = [
        np.array([[op.table[0]] * nverts], dtype=np.intp)
        for op in alg.operations
        if op.arity == 0
    ]
    for j, alpha in enumerate(alphas):
        if alpha.size != alg.size:
            raise ValueError("congruence universe does not match the algebra")
        cm = np.array(alpha.class_map(), dtype=np.intp)
        a, b = np.nonzero(cm[:, None] == cm[None, :])
        cubes.append(a[:, None] + (b - a)[:, None] * bits[j])
    return np.concatenate(cubes)


def cube_subpower(
    alg: FiniteAlgebra,
    alphas: Sequence[Congruence],
    cap: int = DEFAULT_CUBE_CAP,
) -> np.ndarray:
    """Subalgebra of the 2^m-th power generated by the block-edge cubes of
    the given congruences; contains exactly the term cubes.  Returned as an
    (n, 2**m) intp array, its rows sorted once into ascending order.  Closed
    semi-naively: each round applies every operation only to the argument
    tuples that hold a cube found in the round before, and stops early
    once it holds every cube of the power.  Raises
    BudgetExceededError once it holds more than cap cubes or more than
    errors.GRID_CELL_CAP cells (cubes times 2**m), and before it builds the
    generators if they alone, counted with repeats, pass the cell cap."""
    m = len(alphas)
    if m < 1:
        raise ValueError("need at least one congruence")
    s, nverts = alg.size, 2**m
    generators = sum(len(b) ** 2 for alpha in alphas for b in alpha.blocks)
    generators += sum(op.arity == 0 for op in alg.operations)
    check_budget("cube subpower", generators * nverts, errors.GRID_CELL_CAP, "cells")
    full_power = s**nverts
    membership = _CubeBitmap if full_power <= _BITMAP_MAX_CODES else _CubeCodeSet
    members = membership(s, nverts, cap)
    members.add(_generator_cubes(alg, alphas))
    tables = [
        (op.arity, np.array(op.table, dtype=np.intp))
        for op in alg.operations
        if op.arity > 0
    ]
    cubes = members.take_new()
    n_old = 0
    # a closure that holds all s**nverts cubes is the full power
    while n_old < len(cubes) < full_power:
        for arity, table in tables:
            for idx in _frontier_index_blocks(cubes, n_old, arity, s):
                members.add(table[idx])
        n_old = len(cubes)
        cubes = np.concatenate([cubes, members.take_new()])
    return cubes[np.lexsort(cubes.T[::-1])]


def _forced_pairs(cubes: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Critical edges (last two vertices) of the cubes whose other matched
    edges join elements of equal label but whose critical edge does not, as
    a (k, 2) array."""
    classes = np.asarray(labels, dtype=np.intp)[cubes]
    ok = classes[:, -2] != classes[:, -1]
    for t in range(0, cubes.shape[1] - 2, 2):
        ok &= classes[:, t] == classes[:, t + 1]
    return cubes[ok, -2:]


def higher_commutator(
    alg: FiniteAlgebra,
    alphas: Sequence[Congruence],
    cap: int = DEFAULT_CUBE_CAP,
) -> Congruence:
    """Least congruence delta such that every term cube with all matched
    edges inside delta also has its critical edge inside delta.  The rounds
    extend one union-find: close it, then union the critical edges that its
    labels do not yet join."""
    if len(alphas) < 2:
        raise ValueError("higher commutator needs at least two arguments")
    cubes = cube_subpower(alg, alphas, cap)
    uf = UnionFind(alg.size)
    while True:
        labels = _close(alg, uf)
        forced = _forced_pairs(cubes, labels)
        if not len(forced):
            return Congruence.from_labels(labels.tolist())
        for a, b in forced.tolist():
            uf.union(a, b)


def tc_holds(
    alg: FiniteAlgebra, m: int, delta: Congruence, cap: int = DEFAULT_CUBE_CAP
) -> bool:
    """Delta-relativized m-dimensional term condition over all-full arguments."""
    if m < 2:
        raise ValueError("dimension must be >= 2")
    if delta.size != alg.size:
        raise ValueError("congruence universe does not match the algebra")
    cubes = cube_subpower(alg, [Congruence.full(alg.size)] * m, cap)
    return not len(_forced_pairs(cubes, delta.class_map()))


def central_series(
    alg: FiniteAlgebra, max_m: int, cap: int = DEFAULT_CUBE_CAP
) -> list[Congruence]:
    """Commutators of m copies of the full congruence, for m = 2..max_m."""
    if max_m < 2:
        raise ValueError("max_m must be >= 2")
    series: list[Congruence] = []
    for m in range(2, max_m + 1):
        theta = higher_commutator(alg, [Congruence.full(alg.size)] * m, cap=cap)
        if series and not theta.refines(series[-1]):
            raise CommlabError(
                f"central series failed to descend at m = {m}; "
                "this signals an engine bug"
            )
        series.append(theta)
    return series


def _spread_full(alg: FiniteAlgebra, full: np.ndarray) -> None:
    """Mark in place, to a fixpoint, every pair (x, y) that some translation
    t sends to a marked pair (t(x), t(y)).  Cg(x, y) contains Cg(t(x), t(y)),
    so a pair marked as generating the full congruence spreads the mark.
    Gathers one block of translations at a time, at most _BLOCK_CELLS cells
    unless one translation's s*s pairs are more."""
    s = alg.size
    images = alg.translations
    step = max(1, _BLOCK_CELLS // (s * s))
    while True:
        marked = np.count_nonzero(full)
        for lo in range(0, len(images), step):
            t = images[lo : lo + step]
            full |= full[t[:, :, None], t[:, None, :]].any(axis=0)
        if np.count_nonzero(full) == marked:
            return


def is_simple(alg: FiniteAlgebra) -> bool:
    """Whether every pair of distinct elements generates the full
    congruence.  Calls cg only on the pairs that no earlier full pair
    reaches through translations, in an s*s matrix held to the grid cap."""
    s = alg.size
    if s < 2:
        raise ValueError("simplicity is defined for size >= 2")
    check_budget("simplicity pairs", s * s, errors.GRID_CELL_CAP, "cells")
    full = np.zeros((s, s), dtype=bool)
    for a, b in itertools.combinations(range(s), 2):
        if full[a, b]:
            continue
        if not cg(alg, [(a, b)]).is_full:
            return False
        full[a, b] = full[b, a] = True
        _spread_full(alg, full)
    return True
