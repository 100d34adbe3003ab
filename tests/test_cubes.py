import itertools
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import commlab.cubes as cubes_mod
import commlab.verifier as verifier_mod
from commlab import errors
from commlab.cli import RunConfig, run_paper_verify
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
    free_vars,
    term_layers,
    term_to_text,
)
from commlab.verifier import (
    check_corner_lemma,
    corner_violation_in,
    expected_top_cube,
    is_corner_violation,
    search_control,
    search_np1_failure,
)

from gridscan import first_hit_per_term, pattern_key, subterm_layers
from oracles import enumerate_terms, scan_terms_naive

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)


# Per vertex (1-based), whether each block takes its q: vertex i gives
# block j the bit of weight 2^(m-j) of i - 1, so the last block varies fastest.
Q_CHOICES = {
    2: [(0, 0), (0, 1), (1, 0), (1, 1)],
    3: [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)],
}


@pytest.mark.parametrize("m", [2, 3])
def test_term_cube_vertex_order(m):
    blocks = BlockAssignment(tuple((DConst(2 * j + 1), DConst(2 * j + 2)) for j in range(m)))
    for j, pq in enumerate(blocks.blocks):
        cube = term_cube(Var(j), blocks, m, P2)
        assert cube.vertices == tuple(pq[bits[j]] for bits in Q_CHOICES[m])
    # the vertices of f(x0,...) in order: f is injective off the base table
    cube = term_cube(FApp(tuple(Var(j) for j in range(m))), blocks, m, Params(m))
    assert [v.args for v in cube.vertices] == [
        tuple(pq[bit] for pq, bit in zip(blocks.blocks, bits)) for bits in Q_CHOICES[m]
    ]


def test_cube_vertex_count():
    with pytest.raises(ValueError):
        Cube(2, (DConst(1),) * 3)


def test_term_cube_gives_variable_j_block_j_plus_1():
    # variable j takes block j + 1's p where that block's bit is 0, its q at 1
    ba = BlockAssignment(((DConst(1), CConst()), (DConst(3), DConst(1))))
    cube = term_cube(FApp((Var(0), Var(1))), ba, 2, P2)
    assert cube.vertices[1].args == (DConst(1), DConst(1))  # bits (0, 1)
    assert cube.vertices[2].args == (CConst(), DConst(3))  # bits (1, 0)
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
    # Only terms with at least ``blocks`` free variables reach decide, the
    # pattern key of the first term that has it, and the count
    # is of every term of the layers, skipped ones included.
    terms = list(enumerate_terms(3, 2, POOL2, P2))
    decided = []

    def decide(grid, key, m):
        decided.append(key)

    grid = SymbolicGrid(P2, ATOMS)
    assert grid.first_hit(term_layers(3, 2, POOL2, P2), 3, blocks, decide) == (
        len(terms), None, None
    )
    over_blocks = [t for t in terms if len(free_vars(t)) >= blocks]
    firsts = {}
    for t in over_blocks:
        firsts.setdefault(pattern_key(grid, t), t)
    assert decided == list(firsts)
    assert len(decided) < len(over_blocks) < len(terms)


def test_first_hit_reads_its_terms_lazily_and_counts_them(monkeypatch):
    # The scan stops at its hit: a hit in layer 1 never sizes layer 2.
    # With no hit it counts every term of the layers, and it builds the
    # classes of a layer only as the children of the next.
    terms = list(enumerate_terms(2, 1, POOL2, P2))
    hit_term = FApp((Var(0), Var(1)))

    def layers():
        yield from itertools.islice(term_layers(2, 2, POOL2, P2), 2)
        raise AssertionError("sized the layer past the hit")

    def decide(grid, key, m):
        return (1,) if key == pattern_key(grid, hit_term) else None

    grid = SymbolicGrid(P2, ATOMS)
    assert grid.first_hit(layers(), 2, 2, decide) == (terms.index(hit_term) + 1, hit_term, (1,))
    calls = []
    f_classes = SymbolicGrid._f_classes

    def recording(grid, nodes):
        calls.append(nodes)
        return f_classes(grid, nodes)

    monkeypatch.setattr(SymbolicGrid, "_f_classes", recording)
    grid = SymbolicGrid(P2, ATOMS)
    never = term_layers(2, 1, POOL2, P2)
    assert grid.first_hit(never, 2, 2, lambda grid, key, m: None) == (len(terms), None, None)
    # the last layer is never a layer of children, so no f-root's ids are
    # built: over depth 1 f is never evaluated, and over depth 2 only the
    # f-nodes of layer 1 reach it, in one call, f(x0,x0) and f(x1,x1) as
    # one node, as they differ only in their axis
    assert calls == []
    depth2 = list(term_layers(2, 2, POOL2, P2))
    scanned = sum(layer.size for layer in depth2)
    no_hit = SymbolicGrid(P2, ATOMS).first_hit(depth2, 2, 2, lambda grid, key, m: None)
    assert no_hit == (scanned, None, None)
    assert [len(nodes) for nodes in calls] == [len(depth2[1].f) - 1]


def _recording(decide, calls):
    # class ids are per grid, so a call is recorded by its label bytes and masks
    def record(grid, key, m):
        labels = ((grid._arrays[lab], mask) for lab, mask in key)
        calls.append(tuple((lab.shape, lab.tobytes(), mask) for lab, mask in labels))
        return decide(grid, key, m)

    return record


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "corner"])
@pytest.mark.parametrize(
    "params,m,depth",
    [(P2, 2, 2), (P2, 3, 2), (Params(3), 2, 1), (Params(3), 3, 1)],
    ids=["n2-m2-d2", "n2-m3-d2", "n3-m2-d1", "n3-m3-d1"],
)
def test_first_hit_matches_a_per_term_scan(params, m, depth, kernel):
    # On the atoms, the class-level scan gives the (scanned, term, hit) of
    # a scan over the built terms, and decides the same keys in order,
    # for the witness kernel (blocks m) and for the corner lemma (blocks 2).
    if kernel:
        decide, blocks = cubes_mod._grid_term_has_witness, m
    else:
        decide, blocks = verifier_mod._corner_violation, 2
    domain = params.base_atoms(0)
    pool = default_triple_pool(params)
    calls, expected_calls = [], []
    got = SymbolicGrid(params, domain).first_hit(
        term_layers(m, depth, pool, params), m, blocks, _recording(decide, calls)
    )
    expected = first_hit_per_term(
        SymbolicGrid(params, domain), enumerate_terms(m, depth, pool, params), m, blocks,
        _recording(decide, expected_calls),
    )
    assert got == expected
    assert calls == expected_calls
    assert calls


def test_first_hit_finds_the_control_witness_inside_layer_1():
    # The control search at the verify-n2 bounds: its witness is term 54,
    # in depth layer 1, as the per-term scan finds it.
    domain = bounded_subuniverse(P2, 0, 1)
    decide = cubes_mod._grid_term_has_witness
    got = SymbolicGrid(P2, domain).first_hit(term_layers(2, 2, POOL2, P2), 2, 2, decide)
    expected = first_hit_per_term(
        SymbolicGrid(P2, domain), enumerate_terms(2, 2, POOL2, P2), 2, 2, decide
    )
    assert got == expected
    assert got[0] == 54 and got[1] == FApp((Var(0), Var(1)))
    assert got[0] <= next(itertools.islice(term_layers(2, 2, POOL2, P2), 2, None)).start


P3 = Params(3)
P4 = Params(4)


def _search_domain(params):
    # np1's search domain: at n = 2 the verify-n2 bounds' 68 elements, at
    # n = 3 and 4 the paper-verify defaults
    return bounded_subuniverse(params, 0, 1 if params.n == 2 else 0)


# (params, domain, m, depth): np1's and the control's searches for the
# kernel, the corner lemma's for the corner decider, at the defaults and
# over the n = 2 atoms at m = 2 and 3.  The corner decider takes m = 2 on
# the 68-element verify-n2 domain, where three-block terms pass its cap.
# np1 at n = 3 and 4 decides no key: no depth-1 term uses all n + 1 blocks.
ORBIT_CASES = {
    "kernel": {
        "n2-atoms-m2": (P2, ATOMS, 2, 2),
        "n2-atoms-m3": (P2, ATOMS, 3, 2),
        "verify-n2-np1": (P2, _search_domain(P2), 3, 2),
        "n3-np1": (P3, _search_domain(P3), 4, 1),
        "n3-control": (P3, _search_domain(P3), 3, 1),
        "n4-np1": (P4, _search_domain(P4), 5, 1),
        "n4-control": (P4, _search_domain(P4), 4, 1),
    },
    "corner": {
        "n2-atoms-m2": (P2, ATOMS, 2, 2),
        "n2-atoms-m3": (P2, ATOMS, 3, 2),
        "verify-n2-m2": (P2, _search_domain(P2), 2, 2),
        "n3-defaults": (P3, P3.base_atoms(0), 3, 1),
        "n4-defaults": (P4, P4.base_atoms(0), 4, 1),
    },
}


@pytest.mark.parametrize(
    "decider,case", [(k, c) for k, cases in ORBIT_CASES.items() for c in cases],
    ids=[f"{k}-{c}" for k, cases in ORBIT_CASES.items() for c in cases],
)
def test_the_orbit_scan_matches_the_scan_with_no_symmetric_axes(decider, case):
    # The witness kernel is symmetric in the leading m - 1 axes and the
    # corner decider in all m: the scan that memoizes a no-hit key's whole
    # orbit gives the same (scanned, term, hit) as the scan per key, and
    # decides only keys that the scan per key decides.
    params, domain, m, depth = ORBIT_CASES[decider][case]
    if decider == "kernel":
        decide, blocks, symmetric = cubes_mod._grid_term_has_witness, m, m - 1
    else:
        decide, blocks, symmetric = verifier_mod._corner_violation, 2, m
    pool = default_triple_pool(params)
    scans = {}
    for axes in (0, symmetric):
        calls = []
        hit = SymbolicGrid(params, domain).first_hit(
            term_layers(m, depth, pool, params), m, blocks, _recording(decide, calls), axes
        )
        scans[axes] = hit, calls
    (orbit, orbit_calls), (plain, plain_calls) = scans[symmetric], scans[0]
    assert orbit == plain
    assert set(orbit_calls) <= set(plain_calls)
    assert len(orbit_calls) <= len(plain_calls)


@pytest.mark.parametrize(
    "params,depth,per_key,per_orbit", [(P2, 2, 46, 23), (P3, 1, 24, 4), (P4, 1, 252, 14)],
    ids=["n2", "n3", "n4"],
)
def test_the_corner_lemma_decides_one_key_per_orbit(monkeypatch, params, depth, per_key, per_orbit):
    # At the defaults of n, over the atoms at m = n: the keys of the scan
    # per key fall into these orbits, and the lemma decides one key each.
    atoms, pool, n = params.base_atoms(0), default_triple_pool(params), params.n
    plain = []
    SymbolicGrid(params, atoms).first_hit(
        term_layers(n, depth, pool, params), n, 2, _recording(verifier_mod._corner_violation, plain)
    )
    calls = []
    decide = verifier_mod._corner_violation
    monkeypatch.setattr(
        verifier_mod, "_corner_violation", lambda g, key, m: calls.append(key) or decide(g, key, m)
    )
    assert check_corner_lemma(params, n, atoms, depth, pool).passed
    assert (len(plain), len(calls)) == (per_key, per_orbit)


def _record_orbit_lookups(monkeypatch):
    # whether each array that _orbit looks up was in the store already
    stored = []
    array_class = SymbolicGrid._array_class

    def recording(grid, arr):
        if sys._getframe(1).f_code.co_name == "_orbit":
            stored.append((arr.dtype, arr.shape, arr.tobytes()) in grid._array_classes)
        return array_class(grid, arr)

    monkeypatch.setattr(SymbolicGrid, "_array_class", recording)
    return stored


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_orbit_image_of_a_term_layer_is_in_the_store(monkeypatch, n):
    # term_layers holds every variable renaming of its terms, so each
    # transposed argument the orbit looks up is a lower-layer term whose
    # class is already stored: np1, the control search and the corner
    # lemma at the defaults of n add no class through an orbit lookup.  At
    # n = 3 and 4 the default depth is 1, where every f-root's arguments
    # are variables, one axis each, so no image is transposed at all.
    found = _record_orbit_lookups(monkeypatch)
    config = RunConfig(n=n).resolve()
    params = Params(n)
    pool, atoms = default_triple_pool(params), params.base_atoms(0)
    domain = bounded_subuniverse(params, config.j_max, config.closure_depth)
    assert search_np1_failure(params, domain, config.max_depth, 1, pool).passed
    assert search_control(params, domain, config.max_depth, 1, pool).passed
    assert check_corner_lemma(params, n, atoms, min(config.max_depth, 2), pool).passed
    assert all(found)
    assert bool(found) == (n == 2)


# t1 = f(f(u(x0), x1), x0) and its renaming t2 = f(f(u(x1), x0), x1) under
# f(t1, t2): the stream of its subterms holds f(u(x0), x1) but, when t1's
# orbit is looked up, not yet its transpose f(u(x1), x0).
_T1 = FApp((FApp((UApp(Var(0)), Var(1))), Var(0)))
_T2 = FApp((FApp((UApp(Var(1)), Var(0))), Var(1)))
_NO_RENAMINGS = FApp((_T1, _T2))


@pytest.mark.parametrize("flags_the_root", [False, True], ids=["corner", "flags-the-root"])
def test_an_orbit_image_missing_from_the_store_is_stored(monkeypatch, flags_the_root):
    # In a layer stream that lacks some renaming, the orbit scan stores
    # the missing image's class and memoizes its key: later terms with
    # that key are not decided, and the scan still gives the (scanned,
    # term, hit) of the scan with no symmetric axes.  The deciders are
    # symmetric in both axes: the corner decider, and one that flags the
    # codes of the root's orbit.
    layers, stream = subterm_layers(_NO_RENAMINGS, 2)
    decide = verifier_mod._corner_violation
    if flags_the_root:
        grid = SymbolicGrid(P2, ATOMS)
        root = grid.eval_codes(pattern_key(grid, _NO_RENAMINGS), 2)

        def decide(grid, key, m):
            codes = grid.eval_codes(key, m)
            image = any(np.array_equal(codes, root.transpose(p)) for p in ((0, 1), (1, 0)))
            return (0, 1, 2, 3) if image else None

    found = _record_orbit_lookups(monkeypatch)
    scans = {}
    for axes in (0, 2):
        calls = []
        hit = SymbolicGrid(P2, ATOMS).first_hit(layers, 2, 2, _recording(decide, calls), axes)
        scans[axes] = hit, calls
    (orbit, orbit_calls), (plain, plain_calls) = scans[2], scans[0]
    assert orbit == plain
    assert (orbit[1] == _NO_RENAMINGS) == flags_the_root
    if not flags_the_root:
        assert orbit == (len(stream), None, None)
    assert not all(found)
    # f(u(x1), x0) and t2 have the keys of images of earlier terms
    assert set(orbit_calls) < set(plain_calls)
    assert len(orbit_calls) == len(plain_calls) - 2


def _cube_of(codes, hit):
    # the cube of the codes at (p1, q1, ..., pm, qm), vertices in product order
    pairs = zip(hit[::2], hit[1::2])
    return Cube(codes.ndim, tuple(codes[v] for v in itertools.product(*pairs)))


def _permuted(hit, perm):
    # hit's pairs with pair k taken from pair perm[k], as np.transpose does axes
    return tuple(x for k in perm for x in hit[2 * k : 2 * k + 2])


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(2, 4), st.integers(2, 3)).flatmap(
    lambda md: hnp.arrays(np.int64, (md[1],) * md[0], elements=st.integers(0, 2))
), st.data())
def test_permuting_the_leading_axes_keeps_the_witness_verdict(codes, data):
    # m = 2 to 4 axes of 2 or 3 cells: the kernel's verdict does not move
    # under a permutation of the leading m - 1 axes, and the permuted
    # canonical witness is a witness of the permuted codes.
    m = codes.ndim
    perm = tuple(data.draw(st.permutations(range(m - 1)))) + (m - 1,)
    moved = codes.transpose(perm)
    hit = _fiber_witness(*_identity_factorization(codes))
    moved_hit = _fiber_witness(*_identity_factorization(moved))
    assert (hit is None) == (moved_hit is None)
    if hit is not None:
        assert is_tc_failure(_cube_of(moved, _permuted(hit, perm)))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda m: hnp.arrays(np.int64, st.tuples(*[st.sampled_from((1, 3))] * m), elements=st.integers(0, 2))
), st.data())
def test_permuting_the_axes_keeps_the_corner_verdict(codes, data):
    # Codes in broadcast shape, size 1 on an ignored block: the corner
    # verdict does not move under any permutation of the axes, and the
    # permuted first violation is a violation of the permuted codes.
    perm = tuple(data.draw(st.permutations(range(codes.ndim))))
    moved = codes.transpose(perm)
    hit = corner_violation_in(codes)
    moved_hit = corner_violation_in(moved)
    assert (hit is None) == (moved_hit is None)
    if hit is not None:
        assert is_corner_violation(_cube_of(moved, _permuted(hit, perm)))


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


def test_search_agrees_with_the_oracle_scan_of_every_term():
    # The whole depth-1 space at dimension 2, terms over one block
    # included: the oracle scans each of those in full, and so must the
    # counts of the layer scan.
    pool = default_triple_pool(P2)
    w, stats = _scan_terms(term_layers(2, 1, pool, P2), 2, list(ATOMS), P2)
    o_w, o_terms, o_count = scan_terms_naive(list(enumerate_terms(2, 1, pool, P2)), 2, ATOMS, P2)
    assert (stats.terms_scanned, stats.assignments_scanned) == (o_terms, o_count)
    assert w.to_record() == _oracle_record(*o_w, 2)
    assert search_tc_witness(2, 1, ATOMS, pool, P2) == (w, stats)


def _agrees_with_the_oracle_scan(params, m, domain, t):
    # Whether t has a witness, after checking the scan of a stream that
    # holds t after its subterms against the oracle's scan of t.  The
    # subterms are over fewer than m blocks: the oracle would pass each in
    # full without a witness, and the stream's counts must include them.
    layers, stream = subterm_layers(t, params.n)
    assert all(len(free_vars(s)) < m for s in stream[:-1])
    w, stats = _scan_terms(layers, m, list(domain), params)
    o_w, o_terms, o_count = scan_terms_naive([t], m, domain, params)
    skipped = len(stream) - 1
    assert (stats.terms_scanned, stats.assignments_scanned) == (
        skipped + o_terms, skipped * len(domain) ** (2 * m) + o_count
    )
    assert (w is None) == (o_w is None)
    if w is not None:
        assert w.to_record() == _oracle_record(*o_w, m)
    # and the kernel alone, on a fresh grid, finds the oracle's cube
    hit = None
    if len(free_vars(t)) == m:
        grid = SymbolicGrid(params, list(domain))
        hit = cubes_mod._grid_term_has_witness(grid, pattern_key(grid, t), m)
    assert (hit is None) == (o_w is None)
    if hit is not None:
        assert cubes_mod._lex_rank(hit, len(domain)) + 1 == o_count
    return w is not None


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
        hit = cubes_mod._grid_term_has_witness(grid, pattern_key(grid, t), m)
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
        lambda grid, key, m, *memo: calls.append(key) or kernel(grid, key, m, *memo),
    )
    w, stats = _scan_terms(term_layers(m, 2, POOL2, P2), m, list(domain), P2)
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


def _random_codes(seed, count, m, sizes, value_counts):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.choice(sizes)
        vals = rng.choice(value_counts)
        yield np.array(
            [rng.randrange(vals) for _ in range(d**m)], dtype=np.int64
        ).reshape((d,) * m)


def _dim2_codes():
    return _random_codes(5, 200, 2, (1, 2, 3, 4, 5), (1, 2, 3, 6))


def _dim3_codes():
    return _random_codes(7, 120, 3, (2, 3), (2, 3, 4))


def test_grid_dim2_locates_the_first_witness():
    verdicts = set()
    for codes in _dim2_codes():
        expected = _witness_brute(codes)
        assert _fiber_witness(*_identity_factorization(codes)) == expected
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_grid_dim3_against_brute_force():
    for codes in _dim3_codes():
        expected = _witness_brute(codes)
        assert _fiber_witness(*_identity_factorization(codes)) == expected


def test_a_shared_kernel_memo_gives_what_fresh_calls_give():
    # One memo across the dimension-2 and -3 cases and the planted m = 4
    # ones: a signature key met again returns what a fresh call returns.
    rng = random.Random(4)
    planted = [_planted_codes(rng, 4, rng.choice((2, 3))) for _ in range(60)]
    no_witness = set()
    misses = 0
    for codes in itertools.chain(_dim2_codes(), _dim3_codes(), planted):
        expected = _fiber_witness(*_identity_factorization(codes))
        assert _fiber_witness(*_identity_factorization(codes), no_witness) == expected
        misses += expected is None
    # every key in the memo gave no witness, and some were met more than once
    assert 0 < len(no_witness) < misses


def test_the_np1_kernel_runs_once_per_fiber_signature(monkeypatch):
    # At the verify-n2 bounds the scans decide 31 pattern keys: np1's 60
    # keys fall into 30 orbits under swapping x0 and x1, and the control
    # search decides 1.  Their fibers have only a few signatures: a
    # repeated one is answered by the scan's memo, without _pair_bs.
    calls = {"kernel": 0, "pair_bs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        cubes_mod, "_grid_term_has_witness", counted("kernel", cubes_mod._grid_term_has_witness)
    )
    monkeypatch.setattr(cubes_mod, "_pair_bs", counted("pair_bs", cubes_mod._pair_bs))
    config = RunConfig(n=2, j_max=0, closure_depth=1, max_depth=2, include_timing=False)
    reports = run_paper_verify(config)
    assert all(report.passed for report in reports)
    assert calls["kernel"] == 31
    assert calls["pair_bs"] <= 5


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
            classes.setdefault(pattern_key(grid, t), t)
    assert classes
    for t in classes.values():
        codes = np.broadcast_to(grid.eval_codes(pattern_key(grid, t), m), (d,) * m)
        fibers, cell_fiber = grid.fibers(pattern_key(grid, t), m)
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
        cubes_mod, "_grid_term_has_witness", lambda grid, key, m, *memo: (0, 0, 0, 1)
    )
    with pytest.raises(CommlabError, match="rejects"):
        _scan_terms(term_layers(2, 1, POOL2, P2), 2, [DConst(1), DConst(2)], P2)


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
