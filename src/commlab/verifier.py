"""Bounded verification suite for the constructed algebra.

Each check exhausts a finite, canonically ordered space and reports pass
or fail with a replayable counterexample.  Passing means "consistent with
the claimed property at these bounds", never a proof.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import elements as el
from . import errors
from ._grid import SymbolicGrid
from .cubes import (
    BlockAssignment,
    Cube,
    _first_index,
    is_tc_failure,
    located_cube,
    search_tc_witness,
    term_cube,
)
from .elements import Element, Params, element_to_text, sort_key
from .errors import BudgetExceededError, check_budget
from .finengine import UnionFind
from .terms import (
    FApp,
    TermLayer,
    UApp,
    UnaryPolynomial,
    UPQRApp,
    Var,
    eval_poly,
    layer_masks,
    term_at,
    term_layers,
    term_to_text,
)


@dataclass
class VerificationReport:
    """One check's result.  The checks leave ``millis`` at 0; the runner
    (``cli._call``) times each check and sets it, so a direct call reports
    0.  Per-check profiling belongs in the same place."""

    name: str
    params: dict
    outcome: str  # "pass" | "fail"
    counterexample: Optional[dict] = None
    counts: dict = field(default_factory=dict)
    millis: int = 0

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_record(self, include_timing: bool = True) -> dict:
        rec = {
            "name": self.name,
            "params": self.params,
            "outcome": self.outcome,
            "counterexample": self.counterexample,
            "counts": self.counts,
        }
        if include_timing:
            rec["millis"] = self.millis
        return rec

    def to_json_line(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_record(include_timing), sort_keys=True)


def check_nfequal(params: Params, domain: Sequence[Element]) -> VerificationReport:
    """Distinct argument tuples with equal f-values must both lie in the
    base table (f is injective everywhere else).  Each tuple costs an
    evaluation and a dict entry, as a cell of an f-node does, so the d^n
    tuples are held to the f-node cap."""
    scanned = len(domain) ** params.n
    check_budget("nfequal", scanned, errors.F_NODE_CAP, "tuples")
    report_params = {"n": params.n, "domain_size": len(domain)}
    by_value: dict[Element, list[tuple[Element, ...]]] = {}
    for args in itertools.product(domain, repeat=params.n):
        by_value.setdefault(el.eval_f(args, params), []).append(args)
    collisions = 0
    for value, tuples in by_value.items():
        if len(tuples) < 2:
            continue
        collisions += 1
        for args in tuples:
            if not el.in_dmn_f0(args, params):
                return VerificationReport(
                    "nfequal",
                    report_params,
                    "fail",
                    counterexample={
                        "value": element_to_text(value),
                        "tuples": [
                            [element_to_text(e) for e in t] for t in tuples
                        ],
                    },
                    counts={"tuples_scanned": scanned},
                )
    return VerificationReport(
        "nfequal",
        report_params,
        "pass",
        counts={"tuples_scanned": scanned, "collision_values": collisions},
    )


def is_corner_violation(c: Cube) -> bool:
    """Vertex 1 equals every adjacent vertex, but the cube is not constant."""
    v = c.vertices
    return all(v[1 << j] == v[0] for j in range(c.dim)) and any(x != v[0] for x in v)


def _corner_violation(
    grid: SymbolicGrid, key: tuple, m: int
) -> Optional[tuple[int, ...]]:
    """First assignment (domain indices p1,q1,...,pm,qm) where vertex 1
    equals all adjacent vertices but the cube is not constant, for the
    f-rooted terms whose pattern key is ``key``.  Permuting the m blocks
    maps vertex 1 and its neighbours onto themselves, so a term has a
    violation iff each image of it has.  The scan's line comparisons, d
    per code of the arguments' broadcast shape, are held to the grid cap
    before the codes are built."""
    used = int(np.bitwise_or.reduce([mask for _, mask in key]))
    cells = len(grid.domain) ** (1 + used.bit_count())
    check_budget("corner-lemma line comparisons", cells, errors.GRID_CELL_CAP, "cells")
    return corner_violation_in(grid.eval_codes(key, m))


def corner_violation_in(codes: np.ndarray) -> Optional[tuple[int, ...]]:
    """``_corner_violation`` on an array C of codes in broadcast shape: one
    axis per block, of size 1 where the term ignores the block, so that
    p_j = q_j = 0 there.

    Let Q_j(p) be the y with C[p with p_j := y] = C[p].  Then (p, q) is a
    violation iff q lies in the box Q(p) = Q_1(p) x ... x Q_m(p) and some
    vertex differs from C[p].  Proof: vertex 1's neighbours equal it iff
    every q_j is in Q_j(p), so every vertex of such a cube lies in Q(p);
    and any cell q of Q(p) is the far vertex of the cube (p, q).  So a
    violation needs a p on whose box C is not constant, and a box with two
    or more members on fewer than two axes is a line of cells equal to
    C[p].  The scan counts the members on each axis, comparing within
    lines (d cells per cell and used block), and builds only the boxes of
    the cells that pass.  The caller holds the line comparisons to the
    grid cap; the boxes are checked against it before they are built."""
    # counts[j][p] = |Q_j(p)|
    counts = [
        (np.expand_dims(codes, j) == np.expand_dims(codes, j + 1)).sum(axis=j)
        for j in range(codes.ndim)
    ]
    candidates = np.argwhere(sum(c > 1 for c in counts) > 1)  # lexicographic in p
    cells = int(np.prod([c[tuple(candidates.T)] for c in counts], axis=0).sum())
    check_budget("corner-lemma boxes", cells, errors.GRID_CELL_CAP, "cells")
    best = None
    for p in map(tuple, candidates.tolist()):
        box = [np.flatnonzero(codes[p[:j] + (slice(None),) + p[j + 1:]] == codes[p])
               for j in range(codes.ndim)]
        # differs[q]: some vertex of the cube (p, q) differs from C[p], by
        # folding in the face at p_j along each axis in turn
        differs = codes[np.ix_(*box)] != codes[p]
        for j, b in enumerate(box):
            differs = differs | np.take(differs, [np.searchsorted(b, p[j])], axis=j)
        q = _first_index(differs)  # lexicographic in q, as each box[j] is sorted
        if q is not None:
            pq = tuple(x for j, b in enumerate(box) for x in (p[j], int(b[q[j]])))
            best = min(best, pq) if best else pq
    return best


def check_corner_lemma(
    params: Params,
    m: int,
    domain: Sequence[Element],
    max_depth: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
) -> VerificationReport:
    """If the first cube vertex equals all its adjacent vertices, the whole
    cube must be constant (block length 1)."""
    grid = SymbolicGrid(params, list(domain))
    d = len(domain)
    report_params = {"n": params.n, "m": m, "domain_size": d, "max_depth": max_depth}
    layers = term_layers(m, max_depth, triple_pool, params)
    # a term over fewer than two blocks has no violation (corner_violation_in)
    scanned, t, hit = grid.first_hit(layers, m, 2, _corner_violation, m)
    counts = {"terms_scanned": scanned, "assignments_scanned": scanned * d ** (2 * m)}
    if t is None:
        return VerificationReport("corner_lemma", report_params, "pass", counts=counts)
    blocks, cube = located_cube(
        t, m, hit, domain, params, is_corner_violation, "corner scan located a violation"
    )
    counterexample = {
        "term": term_to_text(t),
        "blocks": blocks.to_record(),
        "cube": [element_to_text(v) for v in cube.vertices],
    }
    return VerificationReport(
        "corner_lemma", report_params, "fail", counterexample, counts
    )


def _u_powers(grid: SymbolicGrid, params: Params) -> list[np.ndarray]:
    """Ids of u^k applied to every domain element, for k = 0..2n+1."""
    powers, cls = [], grid.var_class()
    for _ in range(2 * params.n + 2):
        powers.append(grid.class_ids(cls, 1, 1))
        cls = grid.unary_class(UApp, cls)
    return powers


def _u_power_of(
    ids: np.ndarray, powers: Sequence[np.ndarray]
) -> Optional[tuple[int, int]]:
    """Least (variable, k) such that the id array holds u^k of that variable
    on every cell, or None; powers[k] holds the ids of u^k over the domain."""
    for i in range(ids.ndim):
        shape = [1] * ids.ndim
        shape[i] = ids.shape[i]
        for k, power in enumerate(powers):
            if bool((ids == power.reshape(shape)).all()):
                return i, k
    return None


def check_term_lemma(
    params: Params,
    domain: Sequence[Element],
    max_depth: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
) -> VerificationReport:
    """A two-variable term taking two distinct values inside the
    order-(2n+1) cycle's moving letters must act as a power of u on one of
    its variables.  Both tests read only the term's id array, so they run
    once per distinct (class, mask) pair of a layer; the counts come from
    those pairs, and the fail record names the first failing term, built
    from its position."""
    grid = SymbolicGrid(params, list(domain))
    d = len(domain)
    n = params.n
    report_params = {"n": n, "domain_size": d, "max_depth": max_depth, "num_vars": 2}
    c_ids = [grid.intern(gen(i, 0)) for i in range(1, n + 1) for gen in (el.AGen, el.BGen)]
    c_table = np.full(max(c_ids) + 2, -1)
    c_table[c_ids] = np.arange(len(c_ids))

    def c_index(ids: np.ndarray) -> np.ndarray:
        """Each id's index in C, or -1 outside it."""
        return c_table[np.minimum(ids, c_table.size - 1)]

    powers = _u_powers(grid, params)
    # class -> (premise, fails): the premise is that two distinct values of
    # the array lie in C, and it fails where no power of u matches the array
    verdicts: dict[int, tuple[bool, bool]] = {}
    layers: list[TermLayer] = []
    classes = masks = np.zeros(0, dtype=np.intp)
    premise_terms = 0
    for layer in term_layers(2, max_depth, triple_pool, params):
        layers.append(layer)
        classes = np.concatenate((classes, grid.layer_classes(layer, classes, masks)))
        masks = np.concatenate((masks, layer_masks(layer, masks)))
        placed = 4 * classes[layer.start :] + masks[layer.start :]  # masks are 1 to 3
        distinct, inverse = np.unique(placed, return_inverse=True)
        for key in distinct.tolist():
            if key not in verdicts:
                ids = grid.class_ids(*divmod(key, 4), 2)
                premise = np.count_nonzero(np.bincount(c_index(ids).ravel() + 1)[1:]) >= 2
                fails = premise and _u_power_of(np.broadcast_to(ids, (d, d)), powers) is None
                verdicts[key] = premise, fails
        premise, fails = np.array([verdicts[key] for key in distinct.tolist()], dtype=bool).T
        premise, fails = premise[inverse], fails[inverse]
        if fails.any():
            k = int(np.argmax(fails))
            t = term_at(layers, layer.start + k)
            ids = np.broadcast_to(grid.class_ids(*divmod(int(placed[k]), 4), 2), (d, d))
            in_c = c_index(ids) >= 0
            c_values = ids[in_c]
            # the first C cell, and the first after it that holds another value
            cells = np.argwhere(in_c)  # in C order, as c_values
            second = int(np.argmax(c_values != c_values[0]))

            def cell_assignment(cell):
                return {f"x{i}": element_to_text(domain[int(cell[i])]) for i in range(2)}
            return VerificationReport(
                "term_lemma",
                report_params,
                "fail",
                counterexample={
                    "term": term_to_text(t),
                    "assignment_a": cell_assignment(cells[0]),
                    "assignment_b": cell_assignment(cells[second]),
                },
                counts={
                    "terms_scanned": layer.start + k + 1,
                    "premise_terms": premise_terms + int(premise[: k + 1].sum()),
                },
            )
        premise_terms += int(premise.sum())
    return VerificationReport(
        "term_lemma",
        report_params,
        "pass",
        counts={"terms_scanned": classes.size, "premise_terms": premise_terms},
    )


def expected_top_cube(params: Params) -> tuple[Element, ...]:
    """(d1, d1, d2, d2, ..., d_{2^(n-1)-1} x2, d_{2^(n-1)}, d_{2^(n-1)+1})."""
    half = 2 ** (params.n - 1)
    verts: list[Element] = []
    for t in range(1, half):
        verts.extend([el.DConst(t), el.DConst(t)])
    verts.extend([el.DConst(half), el.DConst(half + 1)])
    return tuple(verts)


def top_commutator_blocks(params: Params) -> BlockAssignment:
    return BlockAssignment(
        tuple((el.AGen(i, 0), el.BGen(i, 0)) for i in range(1, params.n + 1))
    )


def verify_top_commutator(params: Params) -> VerificationReport:
    """The n-cube of f on the (a_i)/(b_i) blocks matches the base table
    pattern exactly and fails the term condition."""
    n = params.n
    t = FApp(tuple(Var(i) for i in range(n)))
    cube = term_cube(t, top_commutator_blocks(params), n, params)
    expected = expected_top_cube(params)
    ok = cube.vertices == expected and is_tc_failure(cube)
    rec = {
        "term": term_to_text(t),
        "cube": [element_to_text(v) for v in cube.vertices],
        "expected": [element_to_text(v) for v in expected],
        "is_tc_failure": is_tc_failure(cube),
    }
    return VerificationReport(
        "top_commutator",
        {"n": n},
        "pass" if ok else "fail",
        counterexample=None if ok else rec,
        counts={"vertices": len(cube.vertices)},
    )


def _search_report(
    name: str,
    m: int,
    expect_witness: bool,
    params: Params,
    domain: Sequence[Element],
    max_depth: int,
    block_len: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
) -> VerificationReport:
    """Exhaustive dimension-m witness search.  A witness is the
    counterexample when none is expected, and is recorded among the counts
    when one is.  The search covers one variable per block; ``block_len``
    is kept in the signature only to reject any other value."""
    if block_len != 1:
        raise BudgetExceededError(
            f"no exact search for block length {block_len}: the fiber kernel "
            "covers block length 1"
        )
    witness, stats = search_tc_witness(m, max_depth, domain, triple_pool, params)
    report_params = {
        "n": params.n,
        "dimension": m,
        "domain_size": len(domain),
        "max_depth": max_depth,
        "block_len": block_len,
        "triple_pool_size": len(triple_pool),
    }
    counts = {
        "terms_scanned": stats.terms_scanned,
        "assignments_scanned": stats.assignments_scanned,
    }
    counterexample = None
    if witness is not None and expect_witness:
        counts["witness"] = json.dumps(witness.to_record(), sort_keys=True)
    elif witness is not None:
        counterexample = witness.to_record()
    outcome = "pass" if (witness is not None) == expect_witness else "fail"
    return VerificationReport(name, report_params, outcome, counterexample, counts)


def search_np1_failure(
    params: Params,
    domain: Sequence[Element],
    max_depth: int,
    block_len: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
) -> VerificationReport:
    """Exhaustive (n+1)-dimensional witness search; pass iff empty."""
    return _search_report(
        "np1_no_failure", params.n + 1, False,
        params, domain, max_depth, block_len, triple_pool,
    )


def search_control(
    params: Params,
    domain: Sequence[Element],
    max_depth: int,
    block_len: int,
    triple_pool: Sequence[tuple[Element, Element, Element]],
) -> VerificationReport:
    """Control run at dimension n on the same space: the searcher must find
    a witness there, or the negative result above means nothing."""
    return _search_report(
        "control_search", params.n, True,
        params, domain, max_depth, block_len, triple_pool,
    )


# ---------------------------------------------------------------------------
# Simplicity chains


@dataclass(frozen=True)
class ChainStep:
    poly: UnaryPolynomial
    input_index: int
    output_pair: tuple[Element, Element]


@dataclass(frozen=True)
class MalcevChain:
    source: tuple[Element, Element]
    steps: tuple[ChainStep, ...]
    target: tuple[Element, Element]


def _is_in_b(e: Element) -> bool:
    return isinstance(e, (el.AGen, el.BGen))


def _triple_candidates(params: Params) -> list[Element]:
    """Pairwise distinct elements outside the generator block, canonically
    ordered, with two tagged elements appended so that at least three
    remain after excluding the pair being collapsed."""
    out: list[Element] = [el.DConst(k) for k in range(1, params.d_count + 1)]
    out.append(el.CConst())
    out.append(el.Tagged((el.CConst(),) * params.n, 0))
    out.append(el.Tagged((el.DConst(1),) * params.n, 0))
    return out


class _ChainBuilder:
    def __init__(self, params: Params, p: Element, q: Element):
        self.params = params
        self.steps: list[ChainStep] = []
        self.established: list[tuple[Element, Element]] = [(p, q)]

    def add(self, poly: UnaryPolynomial, idx: int) -> int:
        x, y = self.established[idx]
        out = (eval_poly(poly, x, self.params), eval_poly(poly, y, self.params))
        self.steps.append(ChainStep(poly, idx, out))
        self.established.append(out)
        return len(self.established) - 1


def simplicity_chain(params: Params, p: Element, q: Element, r: Element) -> MalcevChain:
    """Mal'cev chain deriving (q', r) from a collapsed pair (p, q), where
    q' is q pushed out of the generator block if necessary."""
    if p == q:
        raise ValueError("source pair must be distinct")
    n = params.n
    b = _ChainBuilder(params, p, q)

    if _is_in_b(p) or _is_in_b(q):
        diag_f = UnaryPolynomial(FApp((Var(0),) * n))
        base_idx = b.add(diag_f, 0)
    else:
        base_idx = 0
    p2, q2 = b.established[base_idx]
    target = (q2, r)

    def finish() -> MalcevChain:
        return MalcevChain((p, q), tuple(b.steps), target)

    if r == p2 or r == q2:
        return finish()

    if not _is_in_b(r):
        b.add(UnaryPolynomial(UPQRApp(p2, q2, r, Var(0))), base_idx)
        return finish()

    # r is a generator a(i,j) or b(i,j): first reach the j = 0 letter by
    # walking the u-cycle from c, then shift the second index if needed.
    is_a = isinstance(r, el.AGen)
    i = r.i
    k = 2 * i - 1 if is_a else 2 * i

    if q2 != el.CConst():
        if p2 == el.CConst():
            pair_with_c = base_idx
        else:
            pair_with_c = b.add(
                UnaryPolynomial(UPQRApp(p2, q2, el.CConst(), Var(0))), base_idx
            )
    else:
        pair_with_c = base_idx  # (p2, c): p2 is the u-fixed component

    u_poly = UnaryPolynomial(UApp(Var(0)))
    idx = pair_with_c
    for _ in range(k):
        idx = b.add(u_poly, idx)

    if r.j > 0:
        pool = [
            e for e in _triple_candidates(params) if e != p2 and e != q2
        ]
        t1, t2, t3 = sorted(pool, key=sort_key)[:3]
        shift = UnaryPolynomial(UPQRApp(t1, t2, t3, Var(0)))
        for _ in range(r.j):
            idx = b.add(shift, idx)
    return finish()


def verify_chain(chain: MalcevChain, params: Params) -> bool:
    """Re-execute every step and confirm the symmetric-transitive closure
    of the recorded pairs connects the target components."""
    established = [chain.source]
    for step in chain.steps:
        if not 0 <= step.input_index < len(established):
            return False
        x, y = established[step.input_index]
        out = (eval_poly(step.poly, x, params), eval_poly(step.poly, y, params))
        if out != step.output_pair:
            return False
        established.append(out)
    index: dict[Element, int] = {}

    def node(e: Element) -> int:
        return index.setdefault(e, len(index))

    pairs = [(node(x), node(y)) for x, y in established]
    tx, ty = (node(chain.target[0]), node(chain.target[1]))
    uf = UnionFind(len(index))
    for a, c in pairs:
        uf.union(a, c)
    return uf.find(tx) == uf.find(ty)


def run_chain_roundtrips(
    params: Params,
    domain: Sequence[Element],
    count: int = 50,
    seed: int = 0,
) -> VerificationReport:
    """Seeded random (p, q, r) triples: every emitted chain must verify,
    and the last one with steps, deliberately corrupted, must be rejected.
    Without such a chain the control is untried, and the check fails.  A
    domain with no two distinct elements has no pair to sample."""
    if len(set(domain)) < 2:
        raise ValueError("the chain domain needs two distinct elements")
    rng = random.Random(seed)
    report_params = {"n": params.n, "count": count, "seed": seed}
    checked = 0
    attempts = 0
    last_stepped: Optional[MalcevChain] = None
    while checked < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("failed to sample enough distinct pairs")
        p = rng.choice(domain)
        q = rng.choice(domain)
        r = rng.choice(domain)
        if p == q:
            continue
        chain = simplicity_chain(params, p, q, r)
        if not verify_chain(chain, params):
            return VerificationReport(
                "simplicity_chains",
                report_params,
                "fail",
                counterexample={
                    "p": element_to_text(p),
                    "q": element_to_text(q),
                    "r": element_to_text(r),
                },
                counts={"verified": checked},
            )
        if chain.steps:
            last_stepped = chain
        checked += 1
    # mutation control: corrupting a step must be caught
    mutation_ok = False
    if last_stepped is not None:
        step = last_stepped.steps[-1]
        bad_out = (step.output_pair[0], el.DConst(1))
        if bad_out == step.output_pair:
            bad_out = (step.output_pair[0], el.DConst(2))
        bad = MalcevChain(
            last_stepped.source,
            last_stepped.steps[:-1] + (ChainStep(step.poly, step.input_index, bad_out),),
            last_stepped.target,
        )
        mutation_ok = not verify_chain(bad, params)
    return VerificationReport(
        "simplicity_chains",
        report_params,
        "pass" if mutation_ok else "fail",
        counterexample=None if mutation_ok else {
            "mutation": "untried" if last_stepped is None else "accepted"
        },
        counts={"verified": checked, "mutation_rejected": int(mutation_ok)},
    )
