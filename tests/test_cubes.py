import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import commlab.cubes as cubes_mod
from commlab import errors
from commlab._grid import SymbolicGrid
from commlab.cubes import (
    BlockAssignment,
    Cube,
    TCWitness,
    _fiber_signatures,
    _fiber_witness,
    _scan_terms,
    is_tc_failure,
    located_cube,
    search_tc_witness,
    term_cube,
    vertex_assignment,
)
from commlab.elements import (
    AGen,
    BGen,
    CConst,
    DConst,
    Params,
    bounded_subuniverse,
    element_to_text,
)
from commlab.errors import BudgetExceededError, CommlabError
from commlab.terms import (
    FApp,
    UApp,
    Var,
    default_triple_pool,
    enumerate_terms,
    free_vars,
    term_to_text,
)
from commlab.verifier import (
    check_corner_lemma,
    expected_top_cube,
    search_control,
    search_np1_failure,
)

from oracles import scan_terms_naive

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)


def test_vertex_assignment_convention():
    # the last block varies fastest
    assert vertex_assignment(2, 1) == (0, 0)
    assert vertex_assignment(2, 2) == (0, 1)
    assert vertex_assignment(2, 3) == (1, 0)
    assert vertex_assignment(3, 6) == (1, 0, 1)
    assert vertex_assignment(3, 8) == (1, 1, 1)
    with pytest.raises(IndexError):
        vertex_assignment(2, 5)


def test_cube_vertex_count():
    with pytest.raises(ValueError):
        Cube(2, (DConst(1),) * 3)


def test_block_assignment_mapping():
    # variable j takes block j's p at bit 0 and its q at bit 1
    ba = BlockAssignment(((DConst(1), CConst()), (DConst(3), DConst(1))))
    assert ba.assignment((0, 1)) == {0: DConst(1), 1: DConst(1)}
    assert ba.assignment((1, 0)) == {0: CConst(), 1: DConst(3)}
    assert BlockAssignment.from_indices((0, 2, 1, 0), [DConst(1), DConst(3), CConst()]) == ba
    assert ba.to_record() == [{"p": ["d(1)"], "q": ["c"]}, {"p": ["d(3)"], "q": ["d(1)"]}]


def test_term_cube_of_f_is_base_row():
    ba = BlockAssignment(((AGen(1, 0), BGen(1, 0)), (AGen(2, 0), BGen(2, 0))))
    cube = term_cube(FApp((Var(0), Var(1))), ba, 2, P2)
    assert cube.vertices == (DConst(1), DConst(1), DConst(2), DConst(3))
    assert is_tc_failure(cube)


def test_is_tc_failure_cases():
    assert not is_tc_failure(Cube(2, (DConst(1),) * 4))
    # unequal matched edge disqualifies the cube
    assert not is_tc_failure(Cube(2, (DConst(1), DConst(2), DConst(1), DConst(3))))
    assert is_tc_failure(Cube(3, (DConst(1), DConst(1), DConst(2), DConst(2),
                                  DConst(3), DConst(3), DConst(4), DConst(5))))


@pytest.mark.parametrize("blocks", [2, 3])
def test_first_hit_skips_terms_over_fewer_than_blocks_variables(blocks):
    # Only terms with at least ``blocks`` free variables reach decide, and
    # the count is of every term read, skipped ones included.
    term_list = [
        UApp(Var(0)),
        FApp((Var(0), Var(0))),
        FApp((Var(0), Var(1))),
        FApp((Var(2), UApp(Var(0)))),
        FApp((Var(0), FApp((Var(1), Var(2))))),
    ]
    decided = []

    def decide(grid, t, m):
        decided.append(t)
        return (0,) if t == term_list[-1] else None

    grid = SymbolicGrid(P2, ATOMS)
    assert grid.first_hit(term_list, 3, blocks, decide) == (5, term_list[-1], (0,))
    assert decided == [t for t in term_list if len(free_vars(t)) >= blocks]


def test_first_hit_reads_its_terms_lazily_and_counts_them():
    # The scan stops at its hit: a term stream that would raise past the
    # hit is never read that far.  With no hit it counts every term.
    hit_term = FApp((Var(0), Var(1)))

    def stream():
        yield UApp(Var(0))
        yield hit_term
        raise AssertionError("read past the hit")

    def decide(grid, t, m):
        return (1,) if t == hit_term else None

    grid = SymbolicGrid(P2, ATOMS)
    assert grid.first_hit(stream(), 2, 2, decide) == (2, hit_term, (1,))
    no_hit = (UApp(Var(0)), FApp((Var(1), Var(0))), Var(1))
    assert grid.first_hit(iter(no_hit), 2, 2, decide) == (3, None, None)


def _oracle_record(term, blocks, cube, m):
    return {
        "term": term_to_text(term),
        "blocks": [
            {"p": [element_to_text(e) for e in p], "q": [element_to_text(e) for e in q]}
            for p, q in blocks
        ],
        "cube": [element_to_text(v) for v in cube],
        "dim": m,
    }


P3 = Params(3)
# f(x0,x1,x2) has a witness only where every a(i,0) and b(i,0) is in the
# domain: each matched edge must stay inside the base table, and p_i = q_i
# collapses the critical edge onto a matched one.
N3_GENERATORS = [g(i, 0) for g in (AGen, BGen) for i in (1, 2, 3)]


@pytest.mark.parametrize(
    "params,m,domain,all_blocks_only",
    [(P2, 2, ATOMS, False), (P3, 3, N3_GENERATORS, True)],
    ids=["dim2-n2-atoms", "dim3-n3-generators"],
)
def test_scan_chunk_agrees_with_the_oracle_scan(params, m, domain, all_blocks_only):
    # The grid kernels give the witness and the counts of a scan that
    # evaluates every term on every assignment in lexicographic order.
    pool = default_triple_pool(params)
    terms = list(enumerate_terms(m, 1, pool, params))
    if all_blocks_only:
        terms = [t for t in terms if len(free_vars(t)) == m]
    hits = sum(_agrees_with_the_oracle_scan(params, m, domain, t) for t in terms)
    assert 0 < hits < len(terms)


def _agrees_with_the_oracle_scan(params, m, domain, t):
    # Whether t has a witness, after checking it and both counts against
    # the oracle.
    w, stats = _scan_terms([t], m, list(domain), params)
    o_w, o_terms, o_count = scan_terms_naive([t], m, domain, params)
    assert (stats.terms_scanned, stats.assignments_scanned) == (o_terms, o_count)
    assert (w is None) == (o_w is None)
    if w is not None:
        assert w.to_record() == _oracle_record(*o_w, m)
    return w is not None


P4 = Params(4)
N4_GENERATORS = [g(i, 0) for i in range(1, 5) for g in (AGen, BGen)]
N3_TWO_POSITIONS = [AGen(1, 0), AGen(2, 0), BGen(1, 0), BGen(2, 0)]
X = [Var(i) for i in range(4)]


@pytest.mark.parametrize(
    "params,domain,t,has_witness",
    [
        # the top commutator's term over the eight generators of n = 4
        (P4, N4_GENERATORS, FApp(tuple(X)), True),
        # depth-2 terms of the ternary f over all four blocks: n = 3 has no
        # dimension-4 witness
        (P3, N3_TWO_POSITIONS, FApp((FApp(tuple(X[:3])), X[3], X[3])), False),
        (P3, N3_TWO_POSITIONS, FApp((X[0], X[1], FApp((X[2], X[3], X[0])))), False),
        (P3, [AGen(1, 0), BGen(1, 0), CConst()], FApp((UApp(X[3]), FApp(tuple(X[:3])), X[1])), False),
    ],
    ids=["n4-generators-top-term", "n3-inner-first", "n3-inner-last", "n3-wrapped-c"],
)
def test_dimension_4_scan_agrees_with_the_oracle_scan(params, domain, t, has_witness):
    assert _agrees_with_the_oracle_scan(params, 4, domain, t) == has_witness


def _scan_every_term(terms, m, domain, params):
    # The scan without the pattern-key cache: the kernel runs on every
    # term that uses all blocks.
    grid = SymbolicGrid(params, domain)
    space = len(domain) ** (2 * m)
    for i, t in enumerate(terms):
        if len(free_vars(t)) < m:
            continue
        hit = cubes_mod._grid_term_has_witness(grid, t, m)
        if hit is not None:
            w = TCWitness(t, *located_cube(t, m, hit, domain, params, is_tc_failure, "witness"))
            rank = int(np.ravel_multi_index(hit, (len(domain),) * (2 * m)))
            return w.to_record(), i + 1, i * space + rank + 1
    return None, len(terms), len(terms) * space


@pytest.mark.parametrize(
    "m,domain,has_witness",
    [
        (3, ATOMS, False),
        (2, [AGen(2, 0), BGen(2, 0), CConst()], True),
    ],
    ids=["dim3-n2-atoms-none", "dim2-later-witness"],
)
def test_cached_scan_matches_the_per_term_kernel(monkeypatch, m, domain, has_witness):
    terms = list(enumerate_terms(m, 2, POOL2, P2))
    expected = _scan_every_term(terms, m, domain, P2)
    calls = []
    kernel = cubes_mod._grid_term_has_witness
    monkeypatch.setattr(
        cubes_mod,
        "_grid_term_has_witness",
        lambda grid, t, m: calls.append(t) or kernel(grid, t, m),
    )
    w, stats = _scan_terms(terms, m, list(domain), P2)
    record = None if w is None else w.to_record()
    assert (record, stats.terms_scanned, stats.assignments_scanned) == expected
    assert (record is not None) == has_witness
    # some terms were decided by their class, without the kernel
    scanned = [t for t in terms[: stats.terms_scanned] if len(free_vars(t)) == m]
    assert 1 < len(calls) < len(scanned)


def _witness_brute(codes):
    """The lexicographically first witness (p1, q1, ..., pm, qm) of the
    m-dimensional code array, or None: every corner of the first m - 1
    pairs but the last is equal at the last pair, and the last is not."""
    m, d = codes.ndim, codes.shape[0]
    axes = np.ix_(*[np.arange(d)] * (2 * m))

    def edge(corner):
        cell = tuple(axes[2 * j + bit] for j, bit in enumerate(corner))
        return codes[(*cell, axes[-2])] == codes[(*cell, axes[-1])]

    *matched, critical = itertools.product((0, 1), repeat=m - 1)
    hits = ~edge(critical)
    for corner in matched:
        hits = hits & edge(corner)
    found = np.argwhere(hits)
    return tuple(int(x) for x in found[0]) if len(found) else None


def _identity_factorization(codes):
    # every cell of the leading axes keeps its own fiber
    d = codes.shape[-1]
    cells = codes.shape[:-1]
    return codes.reshape(-1, d), np.arange(codes.size // d).reshape(cells)


def test_grid_dim2_locates_the_first_witness():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(200):
        d = rng.choice((1, 2, 3, 4, 5))
        vals = rng.choice((1, 2, 3, 6))
        codes = np.array(
            [rng.randrange(vals) for _ in range(d**2)], dtype=np.int64
        ).reshape(d, d)
        expected = _witness_brute(codes)
        assert _fiber_witness(*_identity_factorization(codes)) == expected
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_grid_dim3_against_brute_force():
    rng = random.Random(7)
    for _ in range(120):
        d = rng.choice((2, 3))
        vals = rng.choice((2, 3, 4))
        codes = np.array(
            [rng.randrange(vals) for _ in range(d**3)], dtype=np.int64
        ).reshape(d, d, d)
        expected = _witness_brute(codes)
        assert _fiber_witness(*_identity_factorization(codes)) == expected


def _planted_codes(rng, m, d):
    # Random codes, half of them with a random witness planted: equal at
    # the last pair on every matched corner, unequal on the critical one.
    codes = np.array([rng.randrange(3) for _ in range(d**m)], dtype=np.int64)
    codes = codes.reshape((d,) * m)
    if rng.random() < 0.5:
        pairs = [rng.sample(range(d), 2) for _ in range(m)]
        *matched, critical = itertools.product(*pairs[:-1])
        p, q = pairs[-1]
        for cell in matched:
            codes[(*cell, q)] = codes[(*cell, p)]
        codes[(*critical, q)] = codes[(*critical, p)] + 1
    return codes


@pytest.mark.parametrize(
    "m,sizes,pair_block",
    [
        (4, (2, 3), cubes_mod._PAIR_BLOCK_CELLS),
        (4, (2, 3), 1),
        (5, (2,), cubes_mod._PAIR_BLOCK_CELLS),
    ],
    ids=["m4", "m4-pair-per-block", "m5"],
)
def test_fiber_kernel_above_dimension_3_against_brute_force(monkeypatch, m, sizes, pair_block):
    monkeypatch.setattr(cubes_mod, "_PAIR_BLOCK_CELLS", pair_block)
    rng = random.Random(m)
    verdicts = set()
    for _ in range(60):
        d = rng.choice(sizes)
        codes = _planted_codes(rng, m, d)
        expected = _witness_brute(codes)
        assert _fiber_witness(*_identity_factorization(codes)) == expected
        verdicts.add((d, expected is None))
    assert verdicts == {(d, verdict) for d in sizes for verdict in (True, False)}


@pytest.mark.parametrize("m,d", [(2, 3), (3, 3), (4, 3), (5, 2)])
def test_product_codes_have_the_alternating_witness(m, d):
    # x1 * ... * xm is 0 on every corner that has a coordinate 0, so
    # (0, 1, ..., 0, 1) is the first witness at every dimension.
    codes = np.prod(np.indices((d,) * m), axis=0)
    assert _witness_brute(codes) == (0, 1) * m
    assert _fiber_witness(*_identity_factorization(codes)) == (0, 1) * m


def _structured_codes(rng, d):
    # Fibers over x3 drawn from a few partitions of range(d), mixed with
    # injective and constant fibers and relabelled with fresh values per
    # cell.  The fiber shape depends on x1 only, on x2 only (both leave no
    # witness) or on both cell coordinates.
    partitions = [[rng.randrange(3) for _ in range(d)] for _ in range(rng.choice((1, 2, 3)))]
    shapes = [list(range(d)), [0] * d, *partitions]
    depends = rng.choice(("x1", "x2", "both"))
    shape_of = {}
    codes = np.empty((d, d, d), dtype=np.int64)
    fresh = itertools.count()
    for x1, x2 in itertools.product(range(d), repeat=2):
        key = {"x1": x1, "x2": x2, "both": (x1, x2)}[depends]
        labels = shape_of.setdefault(key, rng.choice(shapes))
        values = {lab: next(fresh) for lab in labels}
        codes[x1, x2] = [values[lab] for lab in labels]
    return codes


@pytest.mark.parametrize(
    "pair_block", [cubes_mod._PAIR_BLOCK_CELLS, 1], ids=["one-block", "pair-per-block"]
)
def test_grid_dim3_structured_codes_against_brute_force(monkeypatch, pair_block):
    monkeypatch.setattr(cubes_mod, "_PAIR_BLOCK_CELLS", pair_block)
    rng = random.Random(11)
    verdicts = set()
    for _ in range(150):
        d = rng.choice((2, 3, 4, 5))
        codes = _structured_codes(rng, d)
        expected = _witness_brute(codes)
        assert _fiber_witness(*_identity_factorization(codes)) == expected
        verdicts.add((d, expected is not None))
    # both verdicts occur, at the largest size too
    assert {(5, True), (5, False)} <= verdicts


def _sorted_signatures(codes):
    # Every fiber along the last axis of the full code grid, classified on
    # its own: 0 injective, 1 constant, else 2 + the rank of its
    # first-occurrence partition among those of the other fibers.
    d = codes.shape[-1]
    fibers = codes.reshape(-1, d)
    first = (fibers[:, :, None] == fibers[:, None, :]).argmax(axis=2)
    injective = (first == np.arange(d)).all(axis=1)
    constant = (first == 0).all(axis=1)
    other = ~injective & ~constant
    partitions, rank = np.unique(first[other], axis=0, return_inverse=True)
    sig = np.where(injective, 0, 1)
    sig[other] = 2 + rank.reshape(-1)
    return sig.reshape(codes.shape[:-1]), partitions


@pytest.mark.parametrize(
    "n,domain,depth,m",
    [
        (2, "atoms", 2, 3),
        (2, "verify-n2", 2, 3),
        (3, "generators", 1, 3),
        (2, "atoms", 2, 2),
        (2, "verify-n2", 2, 2),
        (4, "generators", 1, 4),
    ],
    ids=[
        "2-atoms-2", "2-verify-n2-2", "3-generators-1", "2-atoms-2-m2", "2-verify-n2-2-m2",
        "4-generators-1-m4",
    ],
)
def test_factorized_fibers_match_a_sort_over_every_fiber(n, domain, depth, m):
    # One term per all-block class: the signatures built from the distinct
    # fibers equal those of sorting all d**(m-1) fibers of eval_codes, and
    # the kernel locates the same witness from either.
    params = Params(n)
    domain = {
        "atoms": lambda: params.base_atoms(0),
        "verify-n2": lambda: bounded_subuniverse(params, 0, 1),
        "generators": lambda: [g(i, 0) for i in range(1, n + 1) for g in (AGen, BGen)],
    }[domain]()
    d = len(domain)
    grid = SymbolicGrid(params, domain)
    classes = {}
    for t in enumerate_terms(m, depth, default_triple_pool(params), params):
        if len(free_vars(t)) == m:
            classes.setdefault(grid.pattern_key(t, m), t)
    assert classes
    for t in classes.values():
        codes = np.broadcast_to(grid.eval_codes(t, m), (d,) * m)
        fibers, cell_fiber = grid.fibers(t, m)
        assert len(fibers) < d ** (m - 1)
        sig, partitions = _fiber_signatures(fibers, cell_fiber)
        expected_sig, expected_partitions = _sorted_signatures(codes)
        assert np.array_equal(sig, expected_sig)
        assert np.array_equal(partitions, expected_partitions)
        assert _fiber_witness(fibers, cell_fiber) == _fiber_witness(
            *_identity_factorization(codes)
        )


def test_scan_chunk_rejects_a_located_non_witness(monkeypatch):
    # p1 = q1 gives the cube two equal halves, which never fail the term
    # condition: the located cube is rechecked before it is reported.
    monkeypatch.setattr(
        cubes_mod, "_grid_term_has_witness", lambda grid, t, m: (0, 0, 0, 1)
    )
    with pytest.raises(CommlabError, match="rejects"):
        _scan_terms([FApp((Var(0), Var(1)))], 2, [DConst(1), DConst(2)], P2)


def test_control_search_at_the_n3_defaults():
    # The counts and witness the lexicographic replay produced before the
    # dimension-3 kernel located witnesses itself.
    p3 = Params(3)
    rep = search_control(
        p3, bounded_subuniverse(p3, 0, 0), 1, 1, default_triple_pool(p3)
    )
    assert rep.passed
    assert rep.counts["terms_scanned"] == 372
    assert rep.counts["assignments_scanned"] == 1107864606
    witness = json.loads(rep.counts["witness"])
    assert witness["term"] == "f(x0,x1,x2)"
    assert witness["blocks"] == [
        {"p": [f"a({i},0)"], "q": [f"b({i},0)"]} for i in (1, 2, 3)
    ]


def test_control_search_at_dimension_4_finds_the_top_commutator():
    # On the generators a(i,0), b(i,0) of n = 4, the dimension-4 kernel
    # locates f on the (a(i,0), b(i,0)) blocks, whose cube is the base table's.
    rep = search_control(P4, N4_GENERATORS, 1, 1, default_triple_pool(P4))
    assert rep.passed
    witness = json.loads(rep.counts["witness"])
    assert witness["term"] == "f(x0,x1,x2,x3)"
    assert witness["blocks"] == [
        {"p": [f"a({i},0)"], "q": [f"b({i},0)"]} for i in (1, 2, 3, 4)
    ]
    assert witness["cube"] == [element_to_text(v) for v in expected_top_cube(P4)]


def test_search_first_witness_is_canonical():
    w, stats = search_tc_witness(2, 1, ATOMS, POOL2, P2)
    assert isinstance(w, TCWitness)
    rec = w.to_record()
    assert rec["term"] == "f(x0,x1)"
    assert rec["blocks"] == [
        {"p": ["a(1,0)"], "q": ["a(2,0)"]},
        {"p": ["a(2,0)"], "q": ["b(2,0)"]},
    ]
    assert rec["cube"][:2] == ["d(1)", "d(1)"]
    assert rec["cube"][2] != rec["cube"][3]
    assert stats.terms_scanned > 0


def test_dim2_search_on_a_large_domain_builds_no_cubic_array():
    # At 416 elements a d**3 comparison array alone takes 72 MB; the kernel
    # reads only the distinct fibers of each class.
    domain = bounded_subuniverse(P2, 3, 1)
    assert len(domain) == 416
    tracemalloc.start()
    try:
        w, _ = search_tc_witness(2, 1, domain, POOL2, P2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.to_record()["term"] == "f(x0,x1)"
    assert peak < 16 * 2**20


def test_search_exhausts_small_space_without_witness():
    # a single d-constant domain admits no non-constant cube
    w, stats = search_tc_witness(2, 1, [DConst(1), DConst(2)], POOL2, P2)
    assert w is None
    assert stats.terms_scanned == len(list(enumerate_terms(2, 1, POOL2, P2)))


def test_search_rejects_oversized_space():
    # The kernel builds grids over the leading m - 1 axes and d x d tables
    # for the last pair, so at m = 3 a domain of 4473 elements is past the
    # grid cap of 2 * 10**7 cells and one of 4472 is not.
    domain = [AGen(1, j) for j in range(4473)]
    assert len(domain) ** 2 > errors.GRID_CELL_CAP >= (len(domain) - 1) ** 2
    with pytest.raises(BudgetExceededError, match="fiber kernel grid needs 20007729 cells"):
        search_tc_witness(3, 1, domain, POOL2, P2)


def test_search_admits_a_domain_whose_full_grid_is_past_the_cap():
    # 300**3 cells are above the cap, but the kernel never builds the term's
    # d**m grid: the n = 3 atoms plus 288 more generators are searched, and
    # the top commutator's witness is found and replayed.
    p3 = Params(3)
    domain = p3.base_atoms(0) + [AGen(1, j) for j in range(1, 289)]
    assert len(domain) == 300 and len(domain) ** 3 > errors.GRID_CELL_CAP
    w, stats = search_tc_witness(3, 1, domain, default_triple_pool(p3), p3)
    assert w.to_record()["term"] == "f(x0,x1,x2)"
    assert is_tc_failure(w.cube)
    assert stats.terms_scanned == len(list(itertools.takewhile(
        lambda t: t != FApp((Var(0), Var(1), Var(2))),
        enumerate_terms(3, 1, default_triple_pool(p3), p3),
    ))) + 1


def test_a_scan_that_stops_early_never_reaches_an_over_cap_layer():
    # At n = 3 the depth-2 layer over three variables holds 60,745,620
    # terms, past the term cap, but the control search finds its witness
    # among the depth-1 terms and never reads that layer; the corner lemma,
    # which has no hit, still raises on it.
    atoms = P3.base_atoms(0)
    pool = default_triple_pool(P3)
    rep = search_control(P3, atoms, 2, 1, pool)
    assert rep.passed and rep.counts["terms_scanned"] == 372
    with pytest.raises(BudgetExceededError, match="to depth 2 needs 60746013 terms"):
        check_corner_lemma(P3, 3, atoms, 2, pool)


def test_lex_rank_is_exact_past_int64():
    # d**(2m) > 2**63 at m = 3 from d = 1449, where an int64 rank would wrap
    d, m = 1449, 3
    assert d ** (2 * m) > 2**63
    assert cubes_mod._lex_rank((d - 1,) * (2 * m), d) == d ** (2 * m) - 1
    assert cubes_mod._lex_rank((1,) + (0,) * (2 * m - 1), d) == d ** (2 * m - 1)
    small = (2, 0, 1, 3)
    assert cubes_mod._lex_rank(small, 4) == int(np.ravel_multi_index(small, (4,) * 4))


SMALL = [DConst(1), DConst(2), CConst()]


@pytest.mark.parametrize(
    "search",
    [
        lambda: search_tc_witness(1, 1, SMALL, POOL2, P2),
        lambda: search_control(P2, SMALL, 1, 2, POOL2),
        lambda: search_np1_failure(P2, SMALL, 1, 2, POOL2),
    ],
    ids=["1-1", "2-2", "3-2"],  # dimension-block length
)
def test_search_without_a_grid_kernel_raises(search):
    # The fiber kernel covers one variable per block at dimensions >= 2;
    # any other shape is out of budget, however small the domain.
    with pytest.raises(BudgetExceededError, match="no exact search"):
        search()


def test_search_argument_validation():
    with pytest.raises(ValueError):
        search_tc_witness(0, 1, ATOMS, POOL2, P2)
    with pytest.raises(ValueError):
        search_tc_witness(2, 1, [], POOL2, P2)
