"""Acceptance suite: one test per criterion, in order.

Criterion 3 and criterion 8 share one pair of full paper-verify runs at the
n = 2 defaults (sequential and with two workers) through a module-scoped
fixture, since the determinism check is defined as re-running the same
search.
"""

import json
import pathlib
import random
import time

import pytest

from commlab.cli import RunConfig, run_paper_verify
from commlab.cubes import is_tc_failure, search_tc_witness, term_cube
from commlab.elements import DConst, Params, bounded_subuniverse, element_to_text
from commlab.finengine import (
    Congruence,
    FiniteAlgebra,
    central_series,
    cg,
    higher_commutator,
    is_simple,
)
from commlab.terms import Const, FApp, Var, default_triple_pool
from commlab.verifier import (
    check_corner_lemma,
    check_nfequal,
    check_term_lemma,
    expected_top_cube,
    run_chain_roundtrips,
    top_commutator_blocks,
    verify_top_commutator,
)
from oracles import oracle_cg, oracle_commutator_m2, random_algebra

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)

EXPECTED_FIRST_WITNESS = {
    "term": "f(x0,x1)",
    "blocks": [
        {"p": ["a(1,0)"], "q": ["a(2,0)"]},
        {"p": ["a(2,0)"], "q": ["b(2,0)"]},
    ],
    "cube": ["d(1)", "d(1)", "t([a(2,0),a(2,0)],0)", "t([a(2,0),b(2,0)],0)"],
    "dim": 2,
}


@pytest.fixture(scope="module")
def search_domain():
    return bounded_subuniverse(P2, 1, 1)


@pytest.fixture(scope="module")
def criterion3_runs():
    """All seven reports of ``paper-verify --n 2`` at its defaults, the
    dimension-3 exhaustive search and its dimension-2 control among them,
    run sequentially and with two workers."""
    runs = {}
    for jobs in (1, 2):
        start = time.perf_counter()
        reports = run_paper_verify(RunConfig(n=2, jobs=jobs, include_timing=False))
        by_name = {rep.name: rep for rep in reports}
        runs[jobs] = {
            "reports": reports,
            "np1": by_name["np1_no_failure"],
            "control": by_name["control_search"],
            "seconds": time.perf_counter() - start,
        }
    return runs


def test_criterion_1_exact_cube_reproduction():
    for n, expected in (
        (2, ("d(1)", "d(1)", "d(2)", "d(3)")),
        (3, ("d(1)", "d(1)", "d(2)", "d(2)", "d(3)", "d(3)", "d(4)", "d(5)")),
        (4, None),
    ):
        params = Params(n)
        start = time.perf_counter()
        t = FApp(tuple(Var(i) for i in range(n)))
        cube = term_cube(t, top_commutator_blocks(params), n, params)
        elapsed = time.perf_counter() - start
        assert cube.vertices == expected_top_cube(params)
        texts = tuple(element_to_text(v) for v in cube.vertices)
        if expected is not None:
            assert texts == expected
        else:
            assert len(texts) == 16 and texts[-2:] == ("d(8)", "d(9)")
        assert elapsed < 1.0
    print("criterion 1: PASS (exact cubes for n = 2, 3, 4)")


def test_criterion_2_term_condition_verdicts():
    start = time.perf_counter()
    for n in (2, 3, 4):
        params = Params(n)
        t = FApp(tuple(Var(i) for i in range(n)))
        cube = term_cube(t, top_commutator_blocks(params), n, params)
        assert is_tc_failure(cube)
        for e in (DConst(1), params.base_atoms(0)[0]):
            const_cube = term_cube(Const(e), top_commutator_blocks(params), n, params)
            assert not is_tc_failure(const_cube)
    witness, stats = search_tc_witness(2, 1, ATOMS, POOL2, P2)
    assert witness is not None
    assert stats.terms_scanned > 0
    assert witness.to_record() == EXPECTED_FIRST_WITNESS
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 2: PASS (verdicts and first witness, {elapsed:.2f}s)")


def test_criterion_3_supernilpotence_evidence(criterion3_runs):
    run = criterion3_runs[1]
    np1, control = run["np1"], run["control"]
    assert np1.passed, np1.counterexample
    assert np1.counts["terms_scanned"] == 9747
    assert np1.counts["assignments_scanned"] > 0
    assert control.passed
    witness = json.loads(control.counts["witness"])
    assert witness["term"] == "f(x0,x1)"
    assert run["seconds"] < 600.0
    print(
        "criterion 3: PASS (dimension-3 search empty over "
        f"{np1.counts['terms_scanned']} terms / "
        f"{np1.counts['assignments_scanned']} assignments; control found "
        f"a witness; {run['seconds']:.1f}s)"
    )


def test_criterion_4_lemma_suites(search_domain):
    reports = [
        check_nfequal(P2, search_domain),
        check_corner_lemma(P2, 2, ATOMS, 2, POOL2),
        check_term_lemma(P2, ATOMS, 2, POOL2),
        check_nfequal(Params(3), Params(3).base_atoms(0)),
    ]
    for rep in reports:
        assert rep.passed, (rep.name, rep.counterexample)
    print("criterion 4: PASS (nfequal n = 2 and 3, corner lemma, term lemma)")


def test_criterion_5_simplicity_chains(search_domain):
    start = time.perf_counter()
    rep = run_chain_roundtrips(P2, search_domain, count=50, seed=0)
    elapsed = time.perf_counter() - start
    assert rep.passed, rep.counterexample
    assert rep.counts == {"verified": 50, "mutation_rejected": 1}
    assert elapsed < 10.0
    print(f"criterion 5: PASS (50 chains verified, mutation rejected, {elapsed:.2f}s)")


def test_criterion_6_finite_engine_ground_truth():
    z2 = FiniteAlgebra.from_tables(
        2, [("add", 2, [0, 1, 1, 0]), ("neg", 1, [0, 1]), ("zero", 0, [0])]
    )
    semi = FiniteAlgebra.from_tables(2, [("meet", 2, [0, 0, 0, 1])])
    z4 = FiniteAlgebra.from_tables(
        4, [("add", 2, [(i + j) % 4 for i in range(4) for j in range(4)])]
    )
    # oracle pre-validation of every frozen value
    assert oracle_commutator_m2(z2) == Congruence.identity(2)
    assert oracle_commutator_m2(semi).is_full
    assert oracle_cg(z4, [(0, 2)]).blocks == ((0, 2), (1, 3))
    # engine values
    assert higher_commutator(z2, [Congruence.full(2)] * 2) == Congruence.identity(2)
    assert higher_commutator(semi, [Congruence.full(2)] * 2).is_full
    assert not is_simple(z4)
    assert cg(z4, [(0, 2)]).blocks == ((0, 2), (1, 3))
    for alg, max_m in ((z2, 4), (semi, 3), (z4, 3)):
        series = central_series(alg, max_m)
        for finer, coarser in zip(series[1:], series[:-1]):
            assert finer.refines(coarser)
    print("criterion 6: PASS (ground truths match the brute-force oracle)")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2026)
    checked = 0
    for _ in range(120):
        alg = random_algebra(rng)
        engine = higher_commutator(alg, [Congruence.full(alg.size)] * 2)
        oracle = oracle_commutator_m2(alg)
        assert engine.blocks == oracle.blocks, (
            alg.size, [(op.arity, op.table) for op in alg.operations],
        )
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 300.0
    print(f"criterion 7: PASS ({checked} random algebras agree, {elapsed:.1f}s)")


def test_criterion_8_determinism(criterion3_runs):
    serialized = {}
    for jobs, run in criterion3_runs.items():
        lines = [rep.to_json_line(include_timing=False) for rep in run["reports"]]
        assert len(lines) == 7
        serialized[jobs] = "".join(line + "\n" for line in lines).encode()
    assert serialized[1] == serialized[2]
    # the --no-timing JSON lines recorded before the witness kernels merged
    golden = pathlib.Path(__file__).parent / "data" / "paper_verify_n2_defaults.jsonl"
    assert serialized[1] == golden.read_bytes()
    print(
        "criterion 8: PASS (all seven sequential and parallel reports "
        "byte-identical, and identical to the golden report)"
    )
