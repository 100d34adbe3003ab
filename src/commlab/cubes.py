"""m-dimensional term cubes and term-condition witness search.

Vertex convention: the vertices are the block choices in product order,
``itertools.product`` over the blocks' (p, q) pairs, so the last block
varies fastest.  Consecutive vertices therefore differ only in block m and
the critical edge is the final pair (r_{2^m - 1}, r_{2^m}).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import errors
from ._grid import SymbolicGrid, _first_occurrence, _unique_rows
from .elements import Element, Params, element_to_text
from .errors import BudgetExceededError, CommlabError, check_budget
from .terms import Term, TermLayer, eval_term, term_layers, term_to_text


@dataclass(frozen=True)
class Cube:
    dim: int
    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) != 2**self.dim:
            raise ValueError(
                f"a {self.dim}-cube needs {2 ** self.dim} vertices, got {len(self.vertices)}"
            )


@dataclass(frozen=True)
class BlockAssignment:
    """Per block, the pair (p, q) of elements its one variable takes:
    variable j belongs to block j + 1."""

    blocks: tuple[tuple[Element, Element], ...]

    @classmethod
    def from_indices(
        cls, hit: Sequence[int], domain: Sequence[Element]
    ) -> "BlockAssignment":
        """From domain indices (p1, q1, ..., pm, qm)."""
        return cls(
            tuple((domain[hit[2 * j]], domain[hit[2 * j + 1]]) for j in range(len(hit) // 2))
        )

    def to_record(self) -> list[dict]:
        return [
            {"p": [element_to_text(p)], "q": [element_to_text(q)]} for p, q in self.blocks
        ]


@dataclass(frozen=True)
class TCWitness:
    term: Term
    blocks: BlockAssignment
    cube: Cube

    def to_record(self) -> dict:
        return {
            "term": term_to_text(self.term),
            "blocks": self.blocks.to_record(),
            "cube": [element_to_text(v) for v in self.cube.vertices],
            "dim": self.cube.dim,
        }


def term_cube(t: Term, blocks: BlockAssignment, m: int, params: Params) -> Cube:
    if len(blocks.blocks) != m:
        raise ValueError(f"expected {m} blocks, got {len(blocks.blocks)}")
    return Cube(m, tuple(
        eval_term(t, dict(enumerate(vertex)), params)
        for vertex in itertools.product(*blocks.blocks)
    ))


def is_tc_failure(c: Cube) -> bool:
    v = c.vertices
    half = 2 ** (c.dim - 1)
    for t in range(1, half):
        if v[2 * t - 2] != v[2 * t - 1]:
            return False
    return v[-2] != v[-1]


@dataclass
class SearchStats:
    terms_scanned: int = 0
    assignments_scanned: int = 0


def _grid_term_has_witness(
    grid: SymbolicGrid, args: tuple, m: int, no_witness: Optional[set] = None
) -> Optional[tuple[int, ...]]:
    """Canonically first witness assignment, as domain indices
    (p1, q1, ..., pm, qm), of the f-rooted terms whose root arguments are
    the grid's (class, mask) pairs ``args``, or None when they have none;
    ``no_witness`` is ``_fiber_witness``'s memo.  Permuting the first m - 1
    blocks fixes their all-q corner: a term has a witness iff its image has."""
    return _fiber_witness(*grid.fibers(args, m), no_witness)


def _first_index(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index tuple of the first true cell of mask in C order, or None."""
    cells = mask.reshape(-1)
    flat = int(np.argmax(cells))
    if not cells[flat]:
        return None
    return tuple(int(x) for x in np.unravel_index(flat, mask.shape))


# Bound on the cells of a comparison block built at once.
_PAIR_BLOCK_CELLS = 2**22


def _fiber_signatures(
    fibers: np.ndarray, cell_fiber: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The signature of each cell's fiber, in the shape of cell_fiber, and
    the distinct partitions behind signatures 2, 3, ...

    Signature 0: injective fiber (equal only on the diagonal).  Signature 1:
    constant fiber (always equal).  Further signatures are the distinct
    canonical partitions of the remaining fibers, in lexicographic order.
    Only the given fibers are sorted, however many cells share them.  The
    signatures take the smallest unsigned dtype that holds them."""
    srt = np.sort(fibers, axis=1)
    injective = (np.diff(srt, axis=1) != 0).all(axis=1)
    constant = srt[:, 0] == srt[:, -1]
    other = ~injective & ~constant
    partitions, part_sig = _unique_rows(_first_occurrence(fibers[other]))
    sig = np.where(injective, 0, 1)
    sig[other] = 2 + part_sig
    return sig.astype(np.min_scalar_type(len(partitions) + 1))[cell_fiber], partitions


def _pair_bs(partitions: np.ndarray, d: int) -> np.ndarray:
    """The distinct b over signatures, one per last-axis pair p != q: b[s]
    says whether signature s is equal at p and q.  A b depends only on the
    classes of values that every partition labels alike, and is all-true on
    partitions for the pairs inside one class."""
    classes, _ = _unique_rows(partitions.T)
    n_classes, n_parts = classes.shape
    part_bs = [np.ones((int(n_classes < d), n_parts), dtype=bool)]
    ci, cj = np.triu_indices(n_classes, 1)
    step = max(1, _PAIR_BLOCK_CELLS // max(n_parts, 1))
    for s in range(0, ci.size, step):
        eq = classes[ci[s : s + step]] == classes[cj[s : s + step]]
        part_bs.append(_unique_rows(eq)[0])
    part_b, _ = _unique_rows(np.concatenate(part_bs))
    fixed = np.zeros((len(part_b), 2), dtype=bool)
    fixed[:, 1] = True  # injective fibers differ at p and q, constant ones do not
    return np.concatenate((fixed, part_b), axis=1)


def _pair_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each state (a, b) of the batch, boolean tables over rows x cells,
    and each pair (p, q) of rows: whether the state (a[p] & a[q], a[p] & b[q])
    can be completed, as a (batch, rows, rows) array.  With no cells left that
    state is the answer and with one axis left a boolean matmul decides it;
    above that, the states of one p row at a time, no larger than (a, b), are
    decided by this function again."""
    if a.ndim == 2:
        return a[:, :, None] & b[:, None, :]
    if a.ndim == 3:
        return (a @ a.transpose(0, 2, 1)) & (a @ b.transpose(0, 2, 1))
    batch, rows, *cells = a.shape
    out = np.empty((batch, rows, rows), dtype=bool)
    for p in range(rows):
        ap = a[:, p : p + 1]
        table = _pair_table((ap & a).reshape(-1, *cells), (ap & b).reshape(-1, *cells))
        out[:, p] = table.any(axis=(1, 2)).reshape(batch, rows)
    return out


def _fiber_witness(
    fibers: np.ndarray, cell_fiber: np.ndarray, no_witness: Optional[set] = None
) -> Optional[tuple[int, ...]]:
    """Canonically first witness (p1, q1, ..., pm, qm), or None, of the
    m-dimensional codes whose fiber along the last axis at the cell x of the
    first m - 1 axes is ``fibers[cell_fiber[x]]``.

    For a last-axis pair, H = b[sig] says at each cell whether its fiber is
    equal at the pair.  A witness needs H on every corner of the first
    m - 1 pairs but the last and not H on the last: the state (A, B) starts
    as (H, not H), each pair (p, q) maps it to (A[p] & A[q], A[p] & B[q]),
    and a witness is a choice that leaves B true.  The state is kept as
    tables over signatures (pairs of them after each step) for every
    last-axis b at once; each coordinate is the least whose pair table can
    still be completed, and the last pair is read from the fibers.

    Everything up to the last pair reads only the signatures and the
    partitions behind them, so whether a witness exists depends on those
    alone.  ``no_witness``, when given, is a set of the keys (shape, dtype
    and bytes of both) that gave none, and a key in it returns None at once;
    a scan keeps one for its own calls."""
    d = fibers.shape[1]
    if d < 2:
        return None
    sig, partitions = _fiber_signatures(fibers, cell_fiber)
    key = None
    if no_witness is not None:
        key = tuple((a.shape, a.dtype.str, a.tobytes()) for a in (sig, partitions))
        if key in no_witness:
            return None
    a_of = _pair_bs(partitions, d)
    b_of, hit = ~a_of, []
    while sig.ndim:
        rows, row_of = _unique_rows(sig.reshape(d, -1))
        rows = rows.reshape(-1, *sig.shape[1:])
        related = np.zeros((len(rows), len(rows)), dtype=bool)
        step = max(1, _PAIR_BLOCK_CELLS // (len(rows) * max(len(rows), rows[0].size)))
        for s in range(0, len(a_of), step):
            block = _pair_table(a_of[s : s + step][:, rows], b_of[s : s + step][:, rows])
            related |= block.any(axis=0)
        if not related.any():
            if key is not None:
                no_witness.add(key)
            return None
        p = int(np.argmax(related.any(axis=1)[row_of]))
        q = int(np.argmax(related[row_of[p]][row_of]))
        hit += [p, q]
        # int64 first: a narrow signature dtype would wrap
        pairs, sig = np.unique(
            sig[p].astype(np.int64) * a_of.shape[1] + sig[q], return_inverse=True
        )
        sp, sq = divmod(pairs, a_of.shape[1])
        sig = sig.astype(np.min_scalar_type(pairs.size - 1)).reshape(rows.shape[1:])
        a_of, b_of = a_of[:, sp] & a_of[:, sq], a_of[:, sp] & b_of[:, sq]

    def equal(cell: tuple[int, ...]) -> np.ndarray:
        fiber = fibers[cell_fiber[cell]]
        return fiber[:, None] == fiber[None, :]

    # every vertex cell but the last is equal at the last pair
    *matched, critical = itertools.product(*zip(hit[::2], hit[1::2]))
    mask = ~equal(critical)
    for cell in matched:
        mask &= equal(cell)
    return (*hit, *_first_index(mask))


def located_cube(
    t: Term, m: int, hit: tuple[int, ...], domain: Sequence[Element], params: Params,
    holds: Callable[[Cube], bool], what: str,
) -> tuple[BlockAssignment, Cube]:
    """The block assignment at a scan's domain-index hit and t's cube there,
    re-evaluated with the term evaluator; a cube that ``holds`` rejects is
    an error, never a silent verdict."""
    blocks = BlockAssignment.from_indices(hit, domain)
    cube = term_cube(t, blocks, m, params)
    if not holds(cube):
        raise CommlabError(
            f"{what} for {term_to_text(t)} at {hit} that the term evaluator rejects"
        )
    return blocks, cube


def _lex_rank(hit: Sequence[int], d: int) -> int:
    """hit's 0-based lexicographic rank over range(d), in Python ints (past 2**63)."""
    return functools.reduce(lambda rank, i: rank * d + i, hit, 0)


def _scan_terms(
    layers: Iterable[TermLayer], m: int, domain: list[Element], params: Params
) -> tuple[Optional[TCWitness], SearchStats]:
    """First witness among the terms of the layers, or None, and the counts
    of a lexicographic scan over every (p1, q1, ..., pm, qm) up to it.

    Only the terms that use all m blocks reach the kernel: a term ignoring
    block m has an equal critical edge outright, and one ignoring block
    j < m maps the critical edge onto a matched edge by flipping bit j."""
    grid = SymbolicGrid(params, domain)
    no_witness: set = set()  # the kernel's memo, for this scan only
    scanned, t, hit = grid.first_hit(
        layers, m, m, lambda grid, args, m: _grid_term_has_witness(grid, args, m, no_witness), m - 1
    )
    space = len(domain) ** (2 * m)
    if t is None:
        return None, SearchStats(scanned, scanned * space)
    blocks, cube = located_cube(
        t, m, hit, domain, params, is_tc_failure, "grid kernel located a witness"
    )
    rank = _lex_rank(hit, len(domain))
    return TCWitness(t, blocks, cube), SearchStats(scanned, (scanned - 1) * space + rank + 1)


def search_tc_witness(
    m: int,
    max_depth: int,
    domain: Sequence[Element],
    triple_pool: Sequence[tuple[Element, Element, Element]],
    params: Params,
) -> tuple[Optional[TCWitness], SearchStats]:
    """First (canonical term order, then lexicographic block assignment)
    term-condition failure witness in the bounded space, or None after
    exhausting it, and the counts of the scan.  The fiber kernel decides
    every term, so one variable per block at any dimension m >= 2 is
    searchable within the grid cap, which bounds what the kernel builds:
    grids over the leading m - 1 axes and the last pair's d x d tables."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if not domain:
        raise ValueError("domain must be nonempty")
    domain = list(domain)
    if m < 2:
        raise BudgetExceededError(
            f"no exact search for dimension {m}: the fiber kernel covers dimensions >= 2"
        )
    cells = len(domain) ** max(m - 1, 2)
    check_budget("fiber kernel grid", cells, errors.GRID_CELL_CAP, "cells")
    return _scan_terms(term_layers(m, max_depth, triple_pool, params), m, domain, params)
