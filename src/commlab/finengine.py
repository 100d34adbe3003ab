"""Finite-algebra engine: congruence generation, cube subpowers, higher
commutators of the term-condition kind, and the descending central series.

Universes are 0..s-1; operation tables are flattened row-major with the
first argument most significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

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

    def union(self, x: int, y: int) -> bool:
        x, y = self.find(x), self.find(y)
        if x == y:
            return False
        if y < x:
            x, y = y, x
        self.parent[y] = x
        return True


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
    def from_union_find(cls, uf: UnionFind, size: int) -> "Congruence":
        groups: dict[int, list[int]] = {}
        for x in range(size):
            groups.setdefault(uf.find(x), []).append(x)
        blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])
        return cls(size, tuple(blocks))

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
    def is_identity(self) -> bool:
        return len(self.blocks) == self.size

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1


def _translations(alg: FiniteAlgebra) -> np.ndarray:
    """Every basic translation x -> op(c1, .., x, .., ck) as one row of the
    s images, for each operation, argument position and constant tuple."""
    s = alg.size
    rows = [np.empty((0, s), dtype=np.intp)]
    for op in alg.operations:
        if op.arity == 0:
            continue
        table = np.array(op.table, dtype=np.intp).reshape((s,) * op.arity)
        for pos in range(op.arity):
            rows.append(table.swapaxes(pos, -1).reshape(-1, s))
    return np.concatenate(rows)


def cg(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the pairs: union-find rounds over the
    translation table.  Each round labels every element by its class root,
    gathers the labels of all translation images, and unions the image
    pairs whose labels differ from those of the class root's images, until
    none do."""
    s = alg.size
    uf = UnionFind(s)
    for a, b in pairs:
        if not (0 <= a < s and 0 <= b < s):
            raise ValueError(f"pair ({a}, {b}) outside universe 0..{s - 1}")
        uf.union(a, b)
    images = _translations(alg)
    while True:
        labels = np.array([uf.find(x) for x in range(s)], dtype=np.intp)
        image_labels = labels[images]
        root_labels = image_labels[:, labels]
        bad = image_labels != root_labels
        if not bad.any():
            return Congruence.from_union_find(uf, s)
        for a, b in zip(image_labels[bad].tolist(), root_labels[bad].tolist()):
            uf.union(a, b)


def _digits_within(s: int, bound: int) -> int:
    """Largest k with s**k <= bound, for s >= 2."""
    k, power = 0, s
    while power <= bound:
        k, power = k + 1, power * s
    return k


class _CubeBitmap:
    """Cube membership as one bool per base-s code (vertex 0 most
    significant): `seen` holds the closure so far, `new` the cubes of the
    current round that are not in `seen`."""

    def __init__(self, s: int, nverts: int, cap: int):
        self.s, self.cap = s, cap
        self.weights = s ** np.arange(nverts - 1, -1, -1, dtype=np.int64)
        self.seen = np.zeros(s**nverts, dtype=bool)
        self.new = np.zeros_like(self.seen)
        self.count = 0
        # upper bound on the cubes in `new`; recounted when it passes the cap
        self.pending = 0

    def add(self, cubes: np.ndarray) -> None:
        codes = (cubes @ self.weights).ravel()
        codes = codes[~self.seen[codes]]
        self.new[codes] = True
        self.pending += codes.size
        if self.count + self.pending > self.cap:
            self.pending = int(np.count_nonzero(self.new))
            check_budget("cube subpower", self.count + self.pending, self.cap, "cubes")

    def take_new(self) -> np.ndarray:
        fresh = np.flatnonzero(self.new)
        self.seen[fresh] = True
        self.new[fresh] = False
        self.count += fresh.size
        self.pending = 0
        return self._decode(fresh)

    def sorted_cubes(self) -> np.ndarray:
        return self._decode(np.flatnonzero(self.seen))

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return codes[:, None] // self.weights % self.s


class _CubeCodeSet:
    """Cube membership as a set of packed codes, for universes whose
    s**nverts codes are too many for a bitmap.  The vertices are split into
    words of k digits with s**k <= 2**63, so no word wraps int64, and word
    tuples sort like the vertex tuples they pack."""

    def __init__(self, s: int, nverts: int, cap: int):
        self.s, self.cap = s, cap
        k = _digits_within(s, 2**63)
        self.spans = [(lo, min(lo + k, nverts)) for lo in range(0, nverts, k)]
        self.weights = [
            s ** np.arange(hi - lo - 1, -1, -1, dtype=np.int64) for lo, hi in self.spans
        ]
        self.seen: set[tuple[int, ...]] = set()
        self.new: set[tuple[int, ...]] = set()

    @property
    def count(self) -> int:
        return len(self.seen)

    def add(self, cubes: np.ndarray) -> None:
        words = np.stack(
            [cubes[..., lo:hi] @ w for (lo, hi), w in zip(self.spans, self.weights)],
            axis=-1,
        )
        for key in map(tuple, words.reshape(-1, len(self.spans)).tolist()):
            if key not in self.seen:
                self.new.add(key)
        check_budget("cube subpower", len(self.seen) + len(self.new), self.cap, "cubes")

    def take_new(self) -> np.ndarray:
        fresh, self.new = self.new, set()
        self.seen |= fresh
        return self._decode(list(fresh))

    def sorted_cubes(self) -> np.ndarray:
        return self._decode(sorted(self.seen))

    def _decode(self, keys: list) -> np.ndarray:
        words = np.array(keys, dtype=np.int64).reshape(len(keys), len(self.spans))
        return np.concatenate(
            [words[:, j, None] // w % self.s for j, w in enumerate(self.weights)], axis=1
        )


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
    bits = np.array(
        [[(i >> (m - 1 - j)) & 1 for i in range(nverts)] for j in range(m)],
        dtype=np.intp,
    )
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


def _closure(
    alg: FiniteAlgebra, alphas: Sequence[Congruence], cap: int
) -> np.ndarray:
    """The cube subpower as an (n, 2**m) array in ascending code order,
    closed semi-naively: each round applies every operation only to the
    argument tuples that hold a cube found in the round before."""
    m = len(alphas)
    if m < 1:
        raise ValueError("need at least one congruence")
    s, nverts = alg.size, 2**m
    if s == 1 or nverts <= _digits_within(s, _BITMAP_MAX_CODES):
        members = _CubeBitmap(s, nverts, cap)
    else:
        members = _CubeCodeSet(s, nverts, cap)
    members.add(_generator_cubes(alg, alphas))
    tables = [
        (op.arity, np.array(op.table, dtype=np.intp))
        for op in alg.operations
        if op.arity > 0
    ]
    cubes = members.take_new()
    n_old = 0
    while n_old < len(cubes):
        for arity, table in tables:
            for idx in _frontier_index_blocks(cubes, n_old, arity, s):
                members.add(table[idx])
        n_old = len(cubes)
        cubes = np.concatenate([cubes, members.take_new()])
    return members.sorted_cubes()


def cube_subpower(
    alg: FiniteAlgebra,
    alphas: Sequence[Congruence],
    cap: int = DEFAULT_CUBE_CAP,
) -> list[tuple[int, ...]]:
    """Subalgebra of the 2^m-th power generated by the block-edge cubes of
    the given congruences; contains exactly the term cubes.  Canonical
    (sorted) storage order.  Raises BudgetExceededError if and only if it
    holds more than cap cubes."""
    return list(map(tuple, _closure(alg, alphas, cap).tolist()))


def _forced_pairs(cubes: np.ndarray, delta: Congruence) -> np.ndarray:
    """Critical edges (last two vertices) of the cubes whose other matched
    edges lie in delta but whose critical edge does not, as a (k, 2) array."""
    cm = np.array(delta.class_map(), dtype=np.intp)
    classes = cm[cubes]
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
    edges inside delta also has its critical edge inside delta."""
    if len(alphas) < 2:
        raise ValueError("higher commutator needs at least two arguments")
    cubes = _closure(alg, alphas, cap)
    pairs = np.empty((0, 2), dtype=np.intp)
    delta = Congruence.identity(alg.size)
    while True:
        forced = _forced_pairs(cubes, delta)
        if not len(forced):
            return delta
        pairs = np.concatenate([pairs, forced])
        delta = cg(alg, pairs.tolist())


def tc_holds(
    alg: FiniteAlgebra, m: int, delta: Congruence, cap: int = DEFAULT_CUBE_CAP
) -> bool:
    """Delta-relativized m-dimensional term condition over all-full arguments."""
    if m < 2:
        raise ValueError("dimension must be >= 2")
    if delta.size != alg.size:
        raise ValueError("congruence universe does not match the algebra")
    cubes = _closure(alg, [Congruence.full(alg.size)] * m, cap)
    return not len(_forced_pairs(cubes, delta))


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


def supernilpotence_degree(
    alg: FiniteAlgebra, max_m: int, cap: int = DEFAULT_CUBE_CAP
) -> Optional[int]:
    for m, theta in zip(itertools.count(2), central_series(alg, max_m, cap=cap)):
        if theta.is_identity:
            return m
    return None


def is_simple(alg: FiniteAlgebra) -> bool:
    if alg.size < 2:
        raise ValueError("simplicity is defined for size >= 2")
    for x in range(alg.size):
        for y in range(x + 1, alg.size):
            if not cg(alg, [(x, y)]).is_full:
                return False
    return True
