"""Term syntax trees, evaluation, unary polynomials and bounded enumeration.

Plain terms are constant-free; constant leaves only appear inside unary
polynomial bodies.  Enumeration is canonical (by depth, then constructor
order Var < UApp < UPQRApp < FApp, then children) so that every witness
search has a well-defined first hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Union

from . import elements, errors
from .elements import Element, Params, sort_key, validate_triple
from .errors import check_budget


# Every node caches its free variables, as a bit mask, and its hash, both
# computed from its children's, so asking for a term's variables or hashing
# it again costs O(1) however deep it is.  The hash is computed on first use:
# the searches hash the arguments of the terms they scan, not the terms.  It
# is of ints and elements only, so a node hashes alike in every process.
# Equality is the dataclass's, field by field.
_CACHED = dict(init=False, repr=False, compare=False)
_setattr = object.__setattr__


def _cache_hash(node, key: tuple) -> int:
    h = hash(key)
    _setattr(node, "_hash", h)
    return h


@dataclass(frozen=True, slots=True)
class Var:
    idx: int
    _mask: int = field(**_CACHED)
    _hash: Optional[int] = field(default=None, **_CACHED)

    def __post_init__(self):
        _setattr(self, "_mask", 1 << self.idx)

    def __hash__(self):
        return self._hash if self._hash is not None else _cache_hash(self, (0, self.idx))


@dataclass(frozen=True, slots=True)
class Const:
    value: Element
    _mask: int = field(default=0, **_CACHED)
    _hash: Optional[int] = field(default=None, **_CACHED)

    def __hash__(self):
        return self._hash if self._hash is not None else _cache_hash(self, (1, self.value))


@dataclass(frozen=True, slots=True)
class UApp:
    arg: "Term"
    _mask: int = field(**_CACHED)
    _hash: Optional[int] = field(default=None, **_CACHED)

    def __post_init__(self):
        _setattr(self, "_mask", self.arg._mask)

    def __hash__(self):
        return self._hash if self._hash is not None else _cache_hash(self, (2, self.arg))


@dataclass(frozen=True, slots=True)
class UPQRApp:
    p: Element
    q: Element
    r: Element
    arg: "Term"
    _mask: int = field(**_CACHED)
    _hash: Optional[int] = field(default=None, **_CACHED)

    def __post_init__(self):
        validate_triple(self.p, self.q, self.r)
        _setattr(self, "_mask", self.arg._mask)

    def __hash__(self):
        if self._hash is not None:
            return self._hash
        return _cache_hash(self, (3, self.p, self.q, self.r, self.arg))


@dataclass(frozen=True, slots=True)
class FApp:
    args: tuple["Term", ...]
    _mask: int = field(**_CACHED)
    _hash: Optional[int] = field(default=None, **_CACHED)

    def __post_init__(self):
        mask = 0
        for a in self.args:
            mask |= a._mask
        _setattr(self, "_mask", mask)

    def __hash__(self):
        return self._hash if self._hash is not None else _cache_hash(self, (4, *self.args))


Term = Union[Var, Const, UApp, UPQRApp, FApp]

Assignment = Mapping[int, Element]


_FREE_SETS: dict[int, frozenset[int]] = {}


def free_vars(t: Term) -> frozenset[int]:
    mask = t._mask
    free = _FREE_SETS.get(mask)
    if free is None:
        free = _FREE_SETS[mask] = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
    return free


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
    triples = []
    for p, q, r in itertools.permutations(pool_elems, 3):
        triples.append((p, q, r))
    triples.sort(key=lambda t: tuple(sort_key(e) for e in t))
    return triples


def enumerate_terms(
    num_vars: int,
    max_depth: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
    params: Params,
) -> Iterator[Term]:
    """Every constant-free term with variables among x0..x{num_vars-1} and
    depth <= max_depth, each exactly once, in canonical order."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    by_depth: list[list[Term]] = []
    cumulative: list[Term] = []
    # Every layer is sized before it is built, so a cap that the next layer
    # would pass raises without allocating it.
    check_budget("term enumeration to depth 0", num_vars, errors.DEFAULT_TERM_CAP, "terms")
    by_depth.append([Var(i) for i in range(num_vars)])
    cumulative.extend(by_depth[0])
    yield from by_depth[0]
    for d in range(1, max_depth + 1):
        prev_cum_len = len(cumulative) - len(by_depth[d - 1])
        # The terms so far, the unary applications of the previous layer
        # and the f-applications with at least one child from it.
        check_budget(
            f"term enumeration to depth {d}",
            len(cumulative)
            + len(by_depth[d - 1]) * (1 + len(triple_pool))
            + len(cumulative) ** params.n
            - prev_cum_len**params.n,
            errors.DEFAULT_TERM_CAP,
            "terms",
        )
        layer: list[Term] = []
        for t in by_depth[d - 1]:
            layer.append(UApp(t))
        for (p, q, r) in triple_pool:
            for t in by_depth[d - 1]:
                layer.append(UPQRApp(p, q, r, t))
        # f-applications: children drawn from depth <= d-1 in canonical
        # order, at least one child of exact depth d-1.
        for combo in itertools.product(range(len(cumulative)), repeat=params.n):
            if max(combo) < prev_cum_len:
                continue
            layer.append(FApp(tuple(cumulative[i] for i in combo)))
        yield from layer
        by_depth.append(layer)
        cumulative.extend(layer)


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
