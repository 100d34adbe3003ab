import json
import random

import numpy as np
import pytest

from commlab.elements import (
    AGen,
    BGen,
    CConst,
    DConst,
    Params,
    Tagged,
    bounded_subuniverse,
    element_to_text,
)
import commlab.cubes as cubes_mod
import commlab.verifier as verifier_mod
from commlab import errors
from commlab.errors import BudgetExceededError, CommlabError
from commlab._grid import SymbolicGrid
from commlab.cubes import BlockAssignment, Cube
from commlab.terms import (
    UnaryPolynomial,
    UApp,
    Var,
    default_triple_pool,
    eval_term,
    free_vars,
    term_to_text,
)
from commlab.verifier import (
    ChainStep,
    MalcevChain,
    VerificationReport,
    _u_power_of,
    _u_powers,
    check_corner_lemma,
    check_nfequal,
    check_term_lemma,
    corner_violation_in,
    expected_top_cube,
    run_chain_roundtrips,
    search_control,
    search_np1_failure,
    simplicity_chain,
    verify_chain,
    verify_top_commutator,
)

from gridscan import pattern_key, renamed, root_args, term_class, term_ids
from oracles import corner_violation_brute, count_terms, enumerate_terms, is_power_of_u_on

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)


def test_report_serialization():
    rep = VerificationReport("x", {"n": 2}, "pass", counts={"k": 1}, millis=7)
    assert rep.passed
    with_timing = json.loads(rep.to_json_line())
    without = json.loads(rep.to_json_line(include_timing=False))
    assert with_timing["millis"] == 7
    assert "millis" not in without
    assert without["counts"] == {"k": 1}


def test_nfequal_passes_on_atoms():
    rep = check_nfequal(P2, ATOMS)
    assert rep.passed
    assert rep.counts["tuples_scanned"] == len(ATOMS) ** 2
    assert rep.counts["collision_values"] > 0


def test_nfequal_passes_on_closure_and_n3_atoms():
    assert check_nfequal(P2, bounded_subuniverse(P2, 0, 1)).passed
    p3 = Params(3)
    assert check_nfequal(p3, p3.base_atoms(0)).passed


def test_corner_lemma_passes():
    rep = check_corner_lemma(P2, 2, ATOMS, 1, POOL2)
    assert rep.passed
    assert rep.counts["terms_scanned"] == 56


def test_corner_lemma_fail_record_matches_a_per_term_scan(monkeypatch):
    # Flag one orbit of equality classes: that of the last term over two
    # blocks and that of its image with x0 and x1 swapped, as the corner
    # condition is symmetric in its axes.  The check reports the orbit's
    # first member with the counts of a scan that visits every term.  The term evaluator is made to confirm the flagged hit:
    # vertex 1 equals both neighbours, vertex 4 differs.
    grid = SymbolicGrid(P2, ATOMS)
    terms = list(enumerate_terms(2, 2, POOL2, P2))
    over_two = [(i, t) for i, t in enumerate(terms) if len(free_vars(t)) >= 2]
    target = over_two[-1][1]
    orbit = [grid.eval_codes(root_args(grid, renamed(target, p)), 2) for p in ((0, 1), (1, 0))]
    hit = (1, 2, 3, 4)

    def flag(codes):
        flagged = any(codes.shape == c.shape and (codes == c).all() for c in orbit)
        return hit if flagged else None

    monkeypatch.setattr(verifier_mod, "corner_violation_in", flag)
    i = next(i for i, t in over_two if flag(grid.eval_codes(root_args(grid, t), 2)) is not None)
    # it has the class of the image, not of the target itself
    assert pattern_key(grid, terms[i]) == pattern_key(grid, renamed(target, (1, 0)))
    blocks = BlockAssignment.from_indices(hit, ATOMS)
    cube = Cube(2, (DConst(1), DConst(1), DConst(1), DConst(2)))
    monkeypatch.setattr(cubes_mod, "term_cube", lambda t, b, m, p: cube)
    calls = []
    decide = verifier_mod._corner_violation
    monkeypatch.setattr(
        verifier_mod, "_corner_violation",
        lambda g, args, m: calls.append(args) or decide(g, args, m),
    )
    rep = check_corner_lemma(P2, 2, ATOMS, 2, POOL2)
    assert rep.outcome == "fail"
    assert rep.counterexample == {
        "term": term_to_text(terms[i]),
        "blocks": blocks.to_record(),
        "cube": [element_to_text(v) for v in cube.vertices],
    }
    assert rep.counts == {
        "terms_scanned": i + 1,
        "assignments_scanned": (i + 1) * len(ATOMS) ** 4,
    }
    # one call per orbit of classes met up to the hit, fewer than the
    # classes, which are fewer than the terms scanned
    met = [t for j, t in over_two if j <= i]
    keys = {pattern_key(grid, t) for t in met}
    orbits = {frozenset(pattern_key(grid, renamed(t, p)) for p in ((0, 1), (1, 0))) for t in met}
    assert len(calls) == len(orbits) < len(keys) < i + 1


def test_corner_lemma_skips_terms_over_fewer_than_two_blocks(monkeypatch):
    calls = []
    decide = verifier_mod._corner_violation
    # a decided key's arguments span both axes: its terms are over two blocks
    monkeypatch.setattr(
        verifier_mod, "_corner_violation",
        lambda g, args, m: calls.append(
            np.broadcast_shapes(*(g.class_ids(cls, mask, m).shape for cls, mask in args))
        ) or decide(g, args, m),
    )
    rep = check_corner_lemma(P2, 2, ATOMS, 2, POOL2)
    assert rep.passed
    assert rep.counts == {"terms_scanned": 4538, "assignments_scanned": 4538 * 8**4}
    assert calls and all(shape == (len(ATOMS),) * 2 for shape in calls)


@pytest.mark.parametrize(
    "hit", [(0, 0, 0, 0), (0, 1, 2, 2)], ids=["constant-cube", "vertex-1-unlike-a-neighbour"]
)
def test_corner_lemma_rejects_a_located_non_violation(monkeypatch, hit):
    # The located hit is rechecked with the term evaluator before it is
    # reported: p = q on every block gives a constant cube, and f(x0,x1) at
    # (a(1,0), a(2,0)) x (b(1,0), b(1,0)) moves vertex 1's first neighbour.
    monkeypatch.setattr(verifier_mod, "corner_violation_in", lambda codes: hit)
    with pytest.raises(CommlabError, match="rejects"):
        check_corner_lemma(P2, 2, ATOMS, 1, POOL2)


def test_corner_scan_on_used_axes_matches_brute_force():
    rng = random.Random(3)
    verdicts = set()
    ignored_block_hits = 0
    for _ in range(300):
        m = rng.choice((2, 3, 4))
        d = rng.choice((2, 3) if m == 4 else (2, 3, 4))  # the oracle reads d ** (2m) tuples
        shape = tuple(rng.choice((1, d)) for _ in range(m))
        size = int(np.prod(shape))
        codes = np.array(
            [rng.randrange(rng.choice((2, 3))) for _ in range(size)], dtype=np.int64
        ).reshape(shape)
        expected = corner_violation_brute(np.broadcast_to(codes, (d,) * m), m)
        assert corner_violation_in(codes) == expected
        verdicts.add((m, expected is not None))
        if expected is not None and 1 in shape:
            ignored_block_hits += 1
    assert verdicts == {(m, v) for m in (2, 3, 4) for v in (True, False)}
    assert ignored_block_hits > 0


def _one_odd_cell(k, d):
    codes = np.zeros((d,) * k, dtype=np.int64)
    codes[(d - 1,) * k] = 1
    return codes


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize(
    "make, violates",
    [
        # every cell but the odd one passes the prefilter, so the box loop runs
        (_one_odd_cell, True),
        (lambda k, d: np.zeros((d,) * k, dtype=np.int64), False),
        (lambda k, d: np.arange(d**k, dtype=np.int64).reshape((d,) * k), False),
        # the code is the first coordinate, so C is constant on every box;
        # from k = 3 on the boxes are planes, and the box loop finds no hit
        (lambda k, d: np.broadcast_to(np.arange(d)[:, None], (d, d ** (k - 1))).reshape((d,) * k),
         False),
    ],
    ids=["one-odd-cell", "constant", "all-distinct", "first-coordinate"],
)
def test_corner_scan_structured_codes_match_brute_force(k, make, violates):
    d = 3 if k < 4 else 2
    codes = make(k, d)
    expected = corner_violation_brute(codes, k)
    assert (expected is not None) == violates
    assert corner_violation_in(codes) == expected
    # one ignored block at every position gives the same tuple with 0, 0 there
    for j in range(k + 1):
        padded = np.expand_dims(codes, j)
        hit = corner_violation_in(padded)
        assert hit == (None if expected is None else expected[: 2 * j] + (0, 0) + expected[2 * j:])
        assert hit == corner_violation_brute(np.broadcast_to(padded, (d,) * (k + 1)), k + 1)


def test_corner_scan_orders_its_tuples_interleaved():
    # p = (0, 1), q = (2, 2) is the violation with the least p, but the
    # first tuple (p1, q1, p2, q2) is p = (0, 2), q = (1, 1)
    codes = np.array([[2, 1, 1], [2, 0, 1], [1, 1, 2]], dtype=np.int64)
    for p, q in (((0, 1), (2, 2)), ((0, 2), (1, 1))):
        vertices = [codes[p[0], p[1]], codes[q[0], p[1]], codes[p[0], q[1]], codes[q[0], q[1]]]
        assert vertices[1] == vertices[2] == vertices[0] != vertices[3]
    assert corner_violation_in(codes) == corner_violation_brute(codes, 2) == (0, 1, 2, 1)


def test_corner_scan_above_the_grid_cap_raises_before_it_builds(monkeypatch):
    # The boxes of one odd cell's 8 candidates take 4 * 9 + 4 * 6 = 60
    # cells.  A cap one below refuses the scan, naming the size.
    odd = _one_odd_cell(2, 3)
    monkeypatch.setattr(errors, "GRID_CELL_CAP", 59)
    with pytest.raises(BudgetExceededError, match="needs 60 cells"):
        corner_violation_in(odd)
    monkeypatch.setattr(errors, "GRID_CELL_CAP", 60)
    assert corner_violation_in(odd) == corner_violation_brute(odd, 2)
    # a term is refused from its arguments' shapes, before its codes are built
    grid = SymbolicGrid(P2, ATOMS)
    t = next(t for t in enumerate_terms(2, 1, POOL2, P2) if len(free_vars(t)) == 2)
    built = []
    monkeypatch.setattr(SymbolicGrid, "eval_codes", lambda *args: built.append(args))
    monkeypatch.setattr(errors, "GRID_CELL_CAP", len(ATOMS) ** 3 - 1)
    with pytest.raises(BudgetExceededError, match=f"needs {len(ATOMS) ** 3} cells"):
        verifier_mod._corner_violation(grid, root_args(grid, t), 2)
    assert built == []


class _Sized(Exception):
    pass


@pytest.mark.parametrize("domain", [ATOMS, [CConst()]], ids=["atoms", "one-element"])
@pytest.mark.parametrize("m", [2, 3])
def test_corner_cap_from_the_argument_shapes_is_d_to_the_free_variables_plus_one(
    monkeypatch, m, domain
):
    # The cap reads the broadcast shape of the root's argument classes: d
    # on each axis of a free variable, so d line comparisons per cell of
    # the codes, the first size checked.
    sizes = []

    def sized(what, needed, cap, unit):
        sizes.append(needed)
        raise _Sized

    monkeypatch.setattr(verifier_mod, "check_budget", sized)
    grid = SymbolicGrid(P2, domain)
    d = len(domain)
    terms = [t for t in enumerate_terms(m, 2, POOL2, P2) if len(free_vars(t)) >= 2]
    for t in terms:
        with pytest.raises(_Sized):
            verifier_mod._corner_violation(grid, root_args(grid, t), m)
    assert sizes == [d ** (len(free_vars(t)) + 1) for t in terms]


def test_term_lemma_passes():
    rep = check_term_lemma(P2, ATOMS, 1, POOL2)
    assert rep.passed
    assert rep.counts["premise_terms"] > 0


def test_term_lemma_power_of_u_agrees_with_the_oracle():
    # The term lemma's premise: two distinct values among the letters
    # a(i,0), b(i,0) that u moves.  Every depth-2 term, judged per term by
    # the oracle: the check decides each id class once, so the verdicts
    # must agree within every class.
    grid = SymbolicGrid(P2, list(ATOMS))
    powers = _u_powers(grid, P2)
    moving = {g(i, 0) for g in (AGen, BGen) for i in (1, 2)}
    samples = [{0: x, 1: y} for x in ATOMS for y in ATOMS]
    premise_terms = 0
    per_class = {}
    for t in enumerate_terms(2, 2, POOL2, P2):
        ids = np.broadcast_to(term_ids(grid, t, 2), (len(ATOMS),) * 2)
        expected = is_power_of_u_on(t, samples, 2 * P2.n + 1, P2)
        assert _u_power_of(ids, powers) == expected
        premise = len({eval_term(t, a, P2) for a in samples} & moving) >= 2
        if premise:
            premise_terms += 1
            assert expected is not None
        verdict = (premise, expected is not None)
        assert per_class.setdefault(term_class(grid, t), verdict) == verdict
    rep = check_term_lemma(P2, ATOMS, 2, POOL2)
    assert rep.passed
    assert premise_terms == rep.counts["premise_terms"] == 6
    assert rep.counts["terms_scanned"] == 4538
    # the classes merge terms, so the agreement above compares something
    assert len(per_class) < rep.counts["terms_scanned"]


def test_term_lemma_fail_record_names_two_distinct_values_in_c(monkeypatch):
    # Deny the power-of-u test on every term: the first premise term, x0,
    # is reported at its first cell in C and the first C cell after it
    # where x0 takes another value.
    monkeypatch.setattr(verifier_mod, "_u_power_of", lambda ids, powers: None)
    rep = check_term_lemma(P2, ATOMS, 1, POOL2)
    assert rep.outcome == "fail"
    assert rep.params["num_vars"] == 2
    assert rep.counterexample == {
        "term": "x0",
        "assignment_a": {"x0": "a(1,0)", "x1": "a(1,0)"},
        "assignment_b": {"x0": "a(2,0)", "x1": "a(1,0)"},
    }
    assert rep.counts == {"terms_scanned": 1, "premise_terms": 1}


def test_term_lemma_fail_record_at_a_later_term(monkeypatch):
    # Deny the power-of-u test on u(x1)'s array only: the record names the
    # first and the next differing C cell by the term evaluator, and the
    # counts include the premise terms before it.
    target = UApp(Var(1))
    grid = SymbolicGrid(P2, list(ATOMS))
    denied = np.broadcast_to(term_ids(grid, target, 2), (len(ATOMS),) * 2)
    real = verifier_mod._u_power_of
    monkeypatch.setattr(
        verifier_mod, "_u_power_of",
        lambda ids, powers: None if np.array_equal(ids, denied) else real(ids, powers),
    )
    rep = check_term_lemma(P2, ATOMS, 1, POOL2)
    assert rep.outcome == "fail"
    moving = {g(i, 0) for g in (AGen, BGen) for i in (1, 2)}

    def value(cell):
        return eval_term(target, dict(enumerate(cell)), P2)

    def texts(cell):
        return {f"x{i}": element_to_text(e) for i, e in enumerate(cell)}

    in_c = [(x, y) for x in ATOMS for y in ATOMS if value((x, y)) in moving]
    second = next(cell for cell in in_c if value(cell) != value(in_c[0]))
    assert rep.counterexample == {
        "term": "u(x1)",
        "assignment_a": texts(in_c[0]),
        "assignment_b": texts(second),
    }
    # x0, x1, u(x0) and u(x1) all take two values in C
    assert rep.counts == {"terms_scanned": 4, "premise_terms": 4}


def _term_lemma_per_term(params, domain, depth, pool, power_of):
    # The term lemma one term at a time: (failing term, terms_scanned,
    # premise_terms), the term None where every term passes.
    grid = SymbolicGrid(params, list(domain))
    c_ids = {grid.intern(g(i, 0)) for g in (AGen, BGen) for i in range(1, params.n + 1)}
    powers = _u_powers(grid, params)
    premise_terms = scanned = 0
    for scanned, t in enumerate(enumerate_terms(2, depth, pool, params), 1):
        ids = np.broadcast_to(term_ids(grid, t, 2), (len(domain),) * 2)
        premise = len(c_ids.intersection(ids.ravel().tolist())) >= 2
        premise_terms += premise
        if premise and power_of(ids, powers) is None:
            return term_to_text(t), scanned, premise_terms
    return None, scanned, premise_terms


@pytest.mark.parametrize(
    "denied,term",
    [(None, None), ((0, 0), "x0"), ((1, 1), "u(x1)"), ((1, 2), "u(u(x1))")],
    ids=["none", "layer-0", "layer-1", "layer-2"],
)
def test_term_lemma_counts_match_a_per_term_loop(monkeypatch, denied, term):
    # Deny the power-of-u test to the arrays that are u^k of x_i for one
    # (i, k): the class-level check fails at the first such term, in
    # depth layer 0, 1 or 2, with the counts of a loop over every term.
    real = verifier_mod._u_power_of

    def power_of(ids, powers):
        found = real(ids, powers)
        return None if found == denied else found

    monkeypatch.setattr(verifier_mod, "_u_power_of", power_of)
    rep = check_term_lemma(P2, ATOMS, 2, POOL2)
    expected_term, scanned, premise_terms = _term_lemma_per_term(P2, ATOMS, 2, POOL2, power_of)
    assert expected_term == term
    assert rep.outcome == ("pass" if term is None else "fail")
    assert rep.counts == {"terms_scanned": scanned, "premise_terms": premise_terms}
    if term is not None:
        assert rep.counterexample["term"] == term


def test_expected_top_cube_values():
    def texts(n):
        from commlab.elements import element_to_text
        return [element_to_text(v) for v in expected_top_cube(Params(n))]

    assert texts(2) == ["d(1)", "d(1)", "d(2)", "d(3)"]
    assert texts(3) == ["d(1)", "d(1)", "d(2)", "d(2)", "d(3)", "d(3)", "d(4)", "d(5)"]
    n4 = texts(4)
    assert len(n4) == 16
    assert n4[-4:] == ["d(7)", "d(7)", "d(8)", "d(9)"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_top_commutator_report(n):
    assert verify_top_commutator(Params(n)).passed


def test_np1_search_prunes_terms_missing_a_block():
    # at depth 1 no binary-f term can touch three blocks, so the scan
    # exhausts instantly
    rep = search_np1_failure(P2, ATOMS, 1, 1, POOL2)
    assert rep.passed
    assert rep.counts["terms_scanned"] == 87
    assert rep.counts["assignments_scanned"] == len(ATOMS) ** 6 * 87


def test_np1_search_at_the_n3_defaults_is_a_vacuous_pass():
    # f is ternary at n = 3, so no depth-1 term uses all four blocks and
    # every term is decided without reaching the kernel
    p3 = Params(3)
    pool = default_triple_pool(p3)
    rep = search_np1_failure(p3, bounded_subuniverse(p3, 0, 0), 1, 1, pool)
    assert rep.passed
    terms = count_terms(4, 1, len(pool), p3)
    assert terms == 552
    assert rep.counts == {"terms_scanned": terms, "assignments_scanned": terms * 12**8}


def test_control_search_finds_witness_on_atoms():
    rep = search_control(P2, ATOMS, 1, 1, POOL2)
    assert rep.passed
    witness = json.loads(rep.counts["witness"])
    assert witness["term"] == "f(x0,x1)"


@pytest.mark.parametrize(
    "p,q,r",
    [
        (AGen(1, 0), BGen(2, 0), AGen(1, 3)),
        (DConst(1), DConst(2), CConst()),
        (DConst(1), CConst(), BGen(2, 2)),
        (CConst(), DConst(3), DConst(3)),
        (Tagged((CConst(), CConst()), 0), DConst(1), AGen(2, 0)),
        (AGen(1, 1), Tagged((CConst(), CConst()), 0),
         Tagged((DConst(1), DConst(1)), 0)),
        (BGen(1, 0), BGen(2, 0), CConst()),
    ],
)
def test_simplicity_chain_verifies(p, q, r):
    chain = simplicity_chain(P2, p, q, r)
    assert verify_chain(chain, P2)
    # target pairs q (pushed out of the generator block if needed) with r
    assert chain.target[1] == r


def test_simplicity_chain_rejects_equal_pair():
    with pytest.raises(ValueError):
        simplicity_chain(P2, DConst(1), DConst(1), CConst())


def test_verify_chain_rejects_corruption():
    chain = simplicity_chain(P2, DConst(1), DConst(2), CConst())
    assert chain.steps
    step = chain.steps[-1]
    forged = ChainStep(step.poly, step.input_index, (step.output_pair[0], DConst(3)))
    bad = MalcevChain(chain.source, chain.steps[:-1] + (forged,), chain.target)
    assert not verify_chain(bad, P2)


def test_verify_chain_rejects_bad_index():
    chain = MalcevChain(
        (DConst(1), DConst(2)),
        (ChainStep(UnaryPolynomial(UApp(Var(0))), 5, (DConst(1), DConst(2))),),
        (DConst(1), DConst(2)),
    )
    assert not verify_chain(chain, P2)


def test_verify_chain_requires_connected_target():
    chain = MalcevChain((DConst(1), DConst(2)), (), (DConst(1), CConst()))
    assert not verify_chain(chain, P2)


def test_chain_roundtrips_report():
    domain = bounded_subuniverse(P2, 1, 1)
    rep = run_chain_roundtrips(P2, domain, count=20, seed=3)
    assert rep.passed
    assert rep.counts == {"verified": 20, "mutation_rejected": 1}


def test_chain_roundtrips_refuse_a_domain_without_a_distinct_pair(monkeypatch):
    # refused before any triple is drawn, duplicates or not
    calls = _counting_verify_chain(monkeypatch)
    for domain in ([], [DConst(1)], [DConst(1), DConst(1)]):
        with pytest.raises(ValueError, match="two distinct elements"):
            run_chain_roundtrips(P2, domain)
    assert calls == []


def _counting_verify_chain(monkeypatch):
    calls = []

    def counted(chain, params):
        calls.append(chain)
        return verify_chain(chain, params)

    monkeypatch.setattr(verifier_mod, "verify_chain", counted)
    return calls


def test_chain_roundtrips_corrupt_a_chain_with_steps(monkeypatch):
    # at seed 2 the last of the 50 sampled chains has no steps, so the
    # mutation control must fall back to an earlier chain
    calls = _counting_verify_chain(monkeypatch)
    rep = run_chain_roundtrips(P2, bounded_subuniverse(P2, 0, 1), count=50, seed=2)
    assert not calls[49].steps
    assert len(calls) == 51
    assert calls[50].steps and not verify_chain(calls[50], P2)
    assert rep.passed
    assert rep.counts == {"verified": 50, "mutation_rejected": 1}


def test_chain_roundtrips_without_steps_fail_the_untried_control(monkeypatch):
    # p, q and r drawn from two d-constants: every r is p or q, so no
    # chain has a step to corrupt
    calls = _counting_verify_chain(monkeypatch)
    rep = run_chain_roundtrips(P2, [DConst(1), DConst(2)], count=5, seed=0)
    assert len(calls) == 5
    assert not rep.passed
    assert rep.counterexample == {"mutation": "untried"}
    assert rep.counts == {"verified": 5, "mutation_rejected": 0}
