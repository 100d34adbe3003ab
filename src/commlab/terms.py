"""Term syntax trees, evaluation, unary polynomials and bounded enumeration.

Plain terms are constant-free; constant leaves only appear inside unary
polynomial bodies.  Enumeration is canonical (by depth, then constructor
order Var < UApp < UPQRApp < FApp, then children) so that every witness
search has a well-defined first hit.  ``term_layers`` is that order, one
depth layer at a time, as arrays of child positions, and ``term_at``
builds the one term at a position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from . import elements, errors
from .elements import Element, Params, validate_triple
from .errors import check_budget


# Terms are plain syntax trees: equality and hashing are the dataclass's,
# field by field, of ints and elements only, so a node hashes alike in every
# process.


@dataclass(frozen=True, slots=True)
class Var:
    idx: int


@dataclass(frozen=True, slots=True)
class Const:
    value: Element


@dataclass(frozen=True, slots=True)
class UApp:
    arg: "Term"


@dataclass(frozen=True, slots=True)
class UPQRApp:
    p: Element
    q: Element
    r: Element
    arg: "Term"

    def __post_init__(self):
        validate_triple(self.p, self.q, self.r)


@dataclass(frozen=True, slots=True)
class FApp:
    args: tuple["Term", ...]


Term = Union[Var, Const, UApp, UPQRApp, FApp]

Assignment = Mapping[int, Element]


def free_vars(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.idx,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, (UApp, UPQRApp)):
        return free_vars(t.arg)
    return frozenset().union(*map(free_vars, t.args))


def eval_term(t: Term, a: Assignment, params: Params) -> Element:
    if isinstance(t, Var):
        try:
            return a[t.idx]
        except KeyError:
            raise KeyError(f"unbound variable x{t.idx}") from None
    if isinstance(t, Const):
        return t.value
    if isinstance(t, UApp):
        return elements.eval_u(eval_term(t.arg, a, params), params)
    if isinstance(t, UPQRApp):
        return elements.eval_u_pqr(t.p, t.q, t.r, eval_term(t.arg, a, params), params)
    return elements.eval_f([eval_term(s, a, params) for s in t.args], params)


@dataclass(frozen=True)
class UnaryPolynomial:
    """A term in one variable (index 0) whose other leaves are constants."""

    body: Term

    def __post_init__(self):
        if free_vars(self.body) - {0}:
            raise ValueError("polynomial body may only use variable x0")


def eval_poly(g: UnaryPolynomial, x: Element, params: Params) -> Element:
    return eval_term(g.body, {0: x}, params)


def default_triple_pool(params: Params) -> list[tuple[Element, Element, Element]]:
    """All valid ordered triples over the d-constants plus c, canonically
    ordered.  The low-level slice of the (infinite) unary signature.  Each
    triple adds one term per term of a layer, so their count is checked
    against the term cap before any is built."""
    size = params.d_count + 1
    check_budget("triple pool", size * (size - 1) * (size - 2), errors.DEFAULT_TERM_CAP, "triples")
    pool_elems = [elements.DConst(k) for k in range(1, params.d_count + 1)]
    pool_elems.append(elements.CConst())
    # the elements are in sort_key order, so their permutations are too
    return list(itertools.permutations(pool_elems, 3))


@dataclass(frozen=True)
class TermLayer:
    """One depth layer of the canonical term order, as index arrays.  A
    term's position is its index in that order; children are named by
    position.  In order, the layer holds the variables x0..x{num_vars-1}
    (depth 0 only), then each operation of ``unary`` (``UApp`` first, then
    the triples of the u_pqr pool) over every position in ``args``,
    operation by operation, and then ``FApp`` of each row of ``f``, which
    is in ``itertools.product`` order."""

    start: int  # the position of the layer's first term
    num_vars: int
    unary: tuple  # UApp, then (p, q, r) triples
    args: np.ndarray
    f: np.ndarray  # (terms, arity)

    @property
    def size(self) -> int:
        return self.num_vars + len(self.unary) * self.args.size + len(self.f)


def term_layers(
    num_vars: int,
    max_depth: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
    params: Params,
) -> Iterator[TermLayer]:
    """The canonical order of the constant-free terms with variables among
    x0..x{num_vars-1} and depth <= max_depth, layer by layer: by depth, then
    constructor order Var < UApp < UPQRApp < FApp, then children.  Every
    layer is sized before it is built, so a cap that the next layer would
    pass raises without allocating it."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    check_budget("term enumeration to depth 0", num_vars, errors.DEFAULT_TERM_CAP, "terms")
    none = np.zeros(0, dtype=np.intp)
    layer = TermLayer(0, num_vars, (), none, none.reshape(0, params.n))
    yield layer
    unary = (UApp, *triple_pool)
    for d in range(1, max_depth + 1):
        low, total = layer.start, layer.start + layer.size
        # The terms so far, the unary applications of the previous layer
        # and the f-applications with at least one child from it.
        check_budget(
            f"term enumeration to depth {d}",
            total + layer.size * len(unary) + total**params.n - low**params.n,
            errors.DEFAULT_TERM_CAP,
            "terms",
        )
        if d == 1:
            for p, q, r in unary[1:]:
                validate_triple(p, q, r)
        layer = TermLayer(
            total, 0, unary, np.arange(low, total), _f_children(params.n, total, low)
        )
        yield layer


def _f_children(n: int, size: int, low: int) -> np.ndarray:
    """The n-tuples over range(size) with an entry >= low, in product
    order, as an (N, n) array: built from the last position, the tuples
    with such an entry, and all tuples, one position longer each round."""
    heads = np.arange(size, dtype=np.intp)
    some = np.zeros((0, 0), dtype=np.intp)
    every = np.zeros((1, 0), dtype=np.intp)
    for k in range(n):
        some = np.concatenate((_prefixed(heads[:low], some), _prefixed(heads[low:], every)))
        if k < n - 1:
            every = _prefixed(heads, every)
    return some


def _prefixed(heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each head followed by each row, heads slowest."""
    out = np.empty((heads.size, len(rows), rows.shape[1] + 1), dtype=np.intp)
    out[:, :, 0] = heads[:, None]
    out[:, :, 1:] = rows
    return out.reshape(-1, rows.shape[1] + 1)


def layer_masks(layer: TermLayer, masks: np.ndarray) -> np.ndarray:
    """Each term's free-variable mask, bit i for x_i, from those of every earlier position."""
    wrapped = np.tile(masks[layer.args], len(layer.unary))
    f_masks = np.bitwise_or.reduce(masks[layer.f], axis=1)
    return np.concatenate((1 << np.arange(layer.num_vars), wrapped, f_masks))


def term_at(layers: Sequence[TermLayer], pos: int) -> Term:
    """The term at a position, built from its children's positions;
    ``layers`` holds the layers up to the term's."""
    layer = next(lay for lay in reversed(layers) if lay.start <= pos)
    k = pos - layer.start
    if k < layer.num_vars:
        return Var(k)
    k -= layer.num_vars
    wrappers = len(layer.unary) * layer.args.size
    if k < wrappers:
        op, i = divmod(k, layer.args.size)
        arg = term_at(layers, int(layer.args[i]))
        return UApp(arg) if layer.unary[op] is UApp else UPQRApp(*layer.unary[op], arg)
    return FApp(tuple(term_at(layers, int(i)) for i in layer.f[k - wrappers]))


def term_to_text(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.idx}"
    if isinstance(t, Const):
        return elements.element_to_text(t.value)
    if isinstance(t, UApp):
        return f"u({term_to_text(t.arg)})"
    if isinstance(t, UPQRApp):
        trip = ";".join(elements.element_to_text(e) for e in (t.p, t.q, t.r))
        return f"upqr{{{trip}}}({term_to_text(t.arg)})"
    return "f(" + ",".join(term_to_text(a) for a in t.args) + ")"
