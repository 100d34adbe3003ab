"""Universe and fundamental operations of the constructed algebra.

The algebra has arity parameter n >= 2 and universe built from the atoms
a(i,j), b(i,j) (i in 1..n, j >= 0), d(1)..d(2^(n-1)+1), c, closed under an
n-ary operation f whose off-table values are freshly tagged tuples.  All
values here are immutable; structural equality is element equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import DEFAULT_ELEMENT_CAP, DomainError, InvalidTripleError, check_budget


@dataclass(frozen=True)
class Params:
    """Arity parameter of the construction; passed explicitly everywhere."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"arity parameter must be >= 2, got {self.n}")

    @property
    def d_count(self) -> int:
        return 2 ** (self.n - 1) + 1

    def base_atoms(self, j_max: int = 0) -> list["Element"]:
        """Atoms with generation index <= j_max, in canonical order."""
        atoms: list[Element] = []
        for i in range(1, self.n + 1):
            for j in range(j_max + 1):
                atoms.append(AGen(i, j))
        for i in range(1, self.n + 1):
            for j in range(j_max + 1):
                atoms.append(BGen(i, j))
        for k in range(1, self.d_count + 1):
            atoms.append(DConst(k))
        atoms.append(CConst())
        return atoms


@dataclass(frozen=True)
class AGen:
    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 0:
            raise ValueError(f"bad a-generator indices ({self.i}, {self.j})")


@dataclass(frozen=True)
class BGen:
    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 0:
            raise ValueError(f"bad b-generator indices ({self.i}, {self.j})")


@dataclass(frozen=True)
class DConst:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"bad d-constant index {self.k}")


@dataclass(frozen=True)
class CConst:
    pass


@dataclass(frozen=True)
class Tagged:
    args: tuple["Element", ...]
    tag: int


Element = Union[AGen, BGen, DConst, CConst, Tagged]

_VARIANT_RANK = {AGen: 0, BGen: 1, DConst: 2, CConst: 3}


def sort_key(e: Element):
    """Canonical element order: atoms (a < b < d < c, index-lexicographic)
    before tagged tuples, tagged ordered by (tag, args)."""
    t = type(e)
    if t is AGen or t is BGen:
        return (0, _VARIANT_RANK[t], e.i, e.j)
    if t is DConst:
        return (0, 2, e.k, 0)
    if t is CConst:
        return (0, 3, 0, 0)
    return (1, e.tag, tuple(sort_key(a) for a in e.args))


def level(e: Element) -> int:
    """Construction stage at which e first appears; atoms are stage 0."""
    if isinstance(e, Tagged):
        return e.tag + 1
    return 0


def well_formed(e: Element, params: Params) -> bool:
    if isinstance(e, (AGen, BGen)):
        return 1 <= e.i <= params.n
    if isinstance(e, DConst):
        return 1 <= e.k <= params.d_count
    if isinstance(e, CConst):
        return True
    if isinstance(e, Tagged):
        if len(e.args) != params.n:
            return False
        if not all(well_formed(a, params) for a in e.args):
            return False
        if e.tag != max(level(a) for a in e.args):
            return False
        # A level-0 tuple lying in the base table would have produced a
        # d-constant, never a tagged value.
        if e.tag == 0 and in_dmn_f0(e.args, params):
            return False
        return True
    return False


def in_dmn_f0(args: Sequence[Element], params: Params) -> bool:
    """True iff position i holds a(i,0) or b(i,0) for every i."""
    if len(args) != params.n:
        return False
    for pos, e in enumerate(args, start=1):
        if isinstance(e, (AGen, BGen)) and e.i == pos and e.j == 0:
            continue
        return False
    return True


def f0_value(args: Sequence[Element], params: Params) -> DConst:
    """Base table of f.  Reading the first n-1 a/b choices as a binary
    number k (first position most significant, b = 1) the value is d(k+1),
    except that the all-b row is bumped to d(2^(n-1)+1)."""
    if not in_dmn_f0(args, params):
        raise DomainError(f"arguments outside the base table: {args!r}")
    bits = [1 if isinstance(e, BGen) else 0 for e in args]
    k = 0
    for bit in bits[:-1]:
        k = (k << 1) | bit
    if all(bits):
        return DConst(2 ** (params.n - 1) + 1)
    return DConst(k + 1)


def eval_f(args: Sequence[Element], params: Params) -> Element:
    if len(args) != params.n:
        raise DomainError(f"f takes {params.n} arguments, got {len(args)}")
    args = tuple(args)
    if in_dmn_f0(args, params):
        return f0_value(args, params)
    return Tagged(args, max(level(a) for a in args))


def eval_u(e: Element, params: Params) -> Element:
    """The cycle (a_1 b_1 a_2 b_2 ... a_n b_n c); everything else is fixed."""
    if isinstance(e, AGen) and e.j == 0 and e.i <= params.n:
        return BGen(e.i, 0)
    if isinstance(e, BGen) and e.j == 0 and e.i <= params.n:
        if e.i < params.n:
            return AGen(e.i + 1, 0)
        return CConst()
    if isinstance(e, CConst):
        return AGen(1, 0)
    return e


def validate_triple(p: Element, q: Element, r: Element) -> None:
    if p == q or q == r or p == r:
        raise InvalidTripleError(f"triple not pairwise distinct: {p!r}, {q!r}, {r!r}")
    for e in (p, q, r):
        if isinstance(e, (AGen, BGen)):
            raise InvalidTripleError(f"triple coordinate {e!r} lies in the generator block")


def eval_u_pqr(p: Element, q: Element, r: Element, x: Element, params: Params) -> Element:
    validate_triple(p, q, r)
    if x == p:
        return q
    if x == q:
        return r
    if x == r:
        return p
    return shift_generator(x)


def shift_generator(x: Element) -> Element:
    """u_pqr off its triple: a generator moves to the next generation index
    and everything else is fixed."""
    if isinstance(x, AGen):
        return AGen(x.i, x.j + 1)
    if isinstance(x, BGen):
        return BGen(x.i, x.j + 1)
    return x


def bounded_subuniverse(
    params: Params,
    j_max: int = 0,
    closure_depth: int = 0,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> list[Element]:
    """Finite search domain: generator/constant atoms up to index j_max,
    closed closure_depth times under f.  Returned in canonical order."""
    if j_max < 0 or closure_depth < 0:
        raise ValueError("j_max and closure_depth must be nonnegative")
    # the atoms count too, and are counted before they are built
    atoms = 2 * params.n * (j_max + 1) + params.d_count + 1
    check_budget("bounded subuniverse", atoms, cap, "elements")
    current: set[Element] = set(params.base_atoms(j_max))
    for _ in range(closure_depth):
        new: set[Element] = set()
        for args in itertools.product(sorted(current, key=sort_key), repeat=params.n):
            v = eval_f(args, params)
            if v not in current:
                new.add(v)
                check_budget("bounded subuniverse", len(current) + len(new), cap, "elements")
        if not new:
            break
        current |= new
    return sorted(current, key=sort_key)


def element_to_text(e: Element) -> str:
    if isinstance(e, AGen):
        return f"a({e.i},{e.j})"
    if isinstance(e, BGen):
        return f"b({e.i},{e.j})"
    if isinstance(e, DConst):
        return f"d({e.k})"
    if isinstance(e, CConst):
        return "c"
    inner = ",".join(element_to_text(a) for a in e.args)
    return f"t([{inner}],{e.tag})"
