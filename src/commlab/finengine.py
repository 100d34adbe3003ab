"""Finite-algebra engine: congruence generation, cube subpowers, higher
commutators of the term-condition kind, and the descending central series.

Universes are 0..s-1; operation tables are flattened row-major with the
first argument most significant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError

DEFAULT_CUBE_CAP = 10**6


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

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Congruence":
        uf = UnionFind(size)
        for a, b in pairs:
            uf.union(a, b)
        return cls.from_union_find(uf, size)

    def class_map(self) -> list[int]:
        cm = [0] * self.size
        for i, b in enumerate(self.blocks):
            for x in b:
                cm[x] = i
        return cm

    def related_pairs(self) -> list[tuple[int, int]]:
        out = []
        for b in self.blocks:
            for x in b:
                for y in b:
                    out.append((x, y))
        return out

    def refines(self, other: "Congruence") -> bool:
        cm = other.class_map()
        return all(len({cm[x] for x in b}) == 1 for b in self.blocks)

    @property
    def is_identity(self) -> bool:
        return len(self.blocks) == self.size

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1


def cg(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the pairs: union-find closure under all
    unary polynomial images, iterated to a fixpoint."""
    s = alg.size
    uf = UnionFind(s)
    for a, b in pairs:
        if not (0 <= a < s and 0 <= b < s):
            raise ValueError(f"pair ({a}, {b}) outside universe 0..{s - 1}")
        uf.union(a, b)
    changed = True
    while changed:
        changed = False
        for op in alg.operations:
            if op.arity == 0:
                continue
            for pos in range(op.arity):
                for consts in itertools.product(range(s), repeat=op.arity - 1):
                    image_of_root: dict[int, int] = {}
                    for x in range(s):
                        args = consts[:pos] + (x,) + consts[pos:]
                        v = alg.apply(op, args)
                        r = uf.find(x)
                        if r in image_of_root:
                            if uf.union(image_of_root[r], v):
                                changed = True
                        else:
                            image_of_root[r] = v
    return Congruence.from_union_find(uf, s)


def _vertex_bit(i: int, j: int, m: int) -> int:
    # vertex i (0-based), block j (0-based); last block varies fastest
    return (i >> (m - 1 - j)) & 1


def cube_subpower(
    alg: FiniteAlgebra,
    alphas: Sequence[Congruence],
    cap: int = DEFAULT_CUBE_CAP,
) -> list[tuple[int, ...]]:
    """Subalgebra of the 2^m-th power generated by the block-edge cubes of
    the given congruences; contains exactly the term cubes.  Canonical
    (sorted) storage order."""
    m = len(alphas)
    if m < 1:
        raise ValueError("need at least one congruence")
    nverts = 2**m
    gens: set[tuple[int, ...]] = set()
    for j, alpha in enumerate(alphas):
        if alpha.size != alg.size:
            raise ValueError("congruence universe does not match the algebra")
        for a, b in alpha.related_pairs():
            gens.add(tuple(b if _vertex_bit(i, j, m) else a for i in range(nverts)))
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        new: set[tuple[int, ...]] = set()
        current = list(seen)
        frontier_set = set(frontier)
        for op in alg.operations:
            if op.arity == 0:
                cube = tuple(op.table[0] for _ in range(nverts))
                if cube not in seen and cube not in new:
                    new.add(cube)
                continue
            for combo in itertools.product(current, repeat=op.arity):
                if not any(c in frontier_set for c in combo):
                    continue
                cube = tuple(
                    alg.apply(op, [c[i] for c in combo]) for i in range(nverts)
                )
                if cube not in seen and cube not in new:
                    new.add(cube)
                    if len(seen) + len(new) > cap:
                        raise BudgetExceededError(
                            f"cube subpower exceeded cap of {cap} cubes"
                        )
        seen |= new
        frontier = list(new)
    return sorted(seen)


def _forced_pairs(
    cubes: Iterable[tuple[int, ...]], delta: Congruence
) -> list[tuple[int, int]]:
    cm = delta.class_map()
    out = []
    for cube in cubes:
        nverts = len(cube)
        ok = True
        for t in range(1, nverts // 2):
            if cm[cube[2 * t - 2]] != cm[cube[2 * t - 1]]:
                ok = False
                break
        if ok and cm[cube[-2]] != cm[cube[-1]]:
            out.append((cube[-2], cube[-1]))
    return out


def higher_commutator(
    alg: FiniteAlgebra,
    alphas: Sequence[Congruence],
    cap: int = DEFAULT_CUBE_CAP,
) -> Congruence:
    """Least congruence delta such that every term cube with all matched
    edges inside delta also has its critical edge inside delta."""
    if len(alphas) < 2:
        raise ValueError("higher commutator needs at least two arguments")
    cubes = cube_subpower(alg, alphas, cap=cap)
    pairs: set[tuple[int, int]] = set()
    delta = Congruence.identity(alg.size)
    while True:
        forced = _forced_pairs(cubes, delta)
        if not forced:
            return delta
        pairs.update(forced)
        delta = cg(alg, pairs)


def tc_holds(
    alg: FiniteAlgebra, m: int, delta: Congruence, cap: int = DEFAULT_CUBE_CAP
) -> bool:
    """Delta-relativized m-dimensional term condition over all-full arguments."""
    if m < 2:
        raise ValueError("dimension must be >= 2")
    cubes = cube_subpower(alg, [Congruence.full(alg.size)] * m, cap=cap)
    return not _forced_pairs(cubes, delta)


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
            raise AssertionError(
                "central series failed to descend; this signals an engine bug"
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
