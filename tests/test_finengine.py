import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commlab import finengine
from commlab.errors import BudgetExceededError, CommlabError
from commlab.finengine import (
    Congruence,
    FiniteAlgebra,
    central_series,
    cg,
    cube_subpower,
    higher_commutator,
    is_simple,
    tc_holds,
)
from oracles import (
    apply,
    congruence_from_pairs,
    cube_subpower_naive,
    is_compatible,
    oracle_cg,
    oracle_commutator_m2,
    oracle_congruences,
    oracle_higher_commutator,
    random_algebra,
    related_pairs,
    relates,
)

Z2 = FiniteAlgebra.from_tables(
    2, [("add", 2, [0, 1, 1, 0]), ("neg", 1, [0, 1]), ("zero", 0, [0])]
)
SEMILATTICE = FiniteAlgebra.from_tables(2, [("meet", 2, [0, 0, 0, 1])])
Z4 = FiniteAlgebra.from_tables(
    4, [("add", 2, [(i + j) % 4 for i in range(4) for j in range(4)])]
)


def full(alg):
    return Congruence.full(alg.size)


def subpower_rows(alg, alphas, **kwargs):
    """cube_subpower's array as the oracle's list of row tuples."""
    cubes = cube_subpower(alg, alphas, **kwargs)
    assert cubes.dtype == np.intp and cubes.shape[1:] == (2 ** len(alphas),)
    return list(map(tuple, cubes.tolist()))


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteAlgebra.from_tables(2, [("bad", 2, [0, 1, 1])])
    with pytest.raises(ValueError):
        FiniteAlgebra.from_tables(2, [("bad", 1, [0, 2])])
    with pytest.raises(ValueError):
        FiniteAlgebra.from_tables(0, [])


def test_apply_row_major_first_argument_most_significant():
    op = SEMILATTICE.operations[0]
    assert apply(SEMILATTICE, op, (0, 1)) == SEMILATTICE.apply(op, (0, 1)) == 0
    assert apply(SEMILATTICE, op, (1, 1)) == SEMILATTICE.apply(op, (1, 1)) == 1


def test_congruence_canonical_form():
    with pytest.raises(ValueError):
        Congruence(3, ((0, 1),))
    with pytest.raises(ValueError):
        Congruence(2, ((1, 0),))
    c = congruence_from_pairs(4, [(3, 1)])
    assert c.blocks == ((0,), (1, 3), (2,))
    assert relates(c, 1, 3) and not relates(c, 0, 2)
    assert Congruence.identity(3).blocks == ((0,), (1,), (2,))
    assert Congruence.full(3).is_full
    assert Congruence.identity(3).refines(Congruence.full(3))
    assert not Congruence.full(3).refines(Congruence.identity(3))


def test_cg_matches_partition_oracle_on_named_algebras():
    for alg in (Z2, SEMILATTICE, Z4):
        for x in range(alg.size):
            for y in range(x + 1, alg.size):
                assert cg(alg, [(x, y)]).blocks == oracle_cg(alg, [(x, y)]).blocks


def test_cg_z4():
    assert cg(Z4, [(0, 2)]).blocks == ((0, 2), (1, 3))
    assert cg(Z4, [(0, 1)]).is_full


def test_translations_are_built_once_per_algebra():
    z4 = FiniteAlgebra.from_tables(4, [("add", 2, Z4.operations[0].table)])
    images = z4.translations
    # x -> c + x and x -> x + c for each constant c
    assert images.tolist() == [[(c + x) % 4 for x in range(4)] for c in range(4)] * 2
    assert not images.flags.writeable
    assert not is_simple(z4) and cg(z4, [(0, 1)]).is_full
    assert z4.translations is images


def test_cg_output_is_compatible():
    rng = random.Random(11)
    for _ in range(30):
        alg = random_algebra(rng)
        a, b = rng.randrange(alg.size), rng.randrange(alg.size)
        cong = cg(alg, [(a, b)])
        assert relates(cong, a, b)
        assert is_compatible(alg, cong)


def test_cube_subpower_semilattice():
    cubes = subpower_rows(SEMILATTICE, [full(SEMILATTICE)] * 2)
    assert cubes == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
        (0, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0), (1, 0, 1, 0),
        (1, 1, 0, 0), (1, 1, 1, 1),
    ]


def test_cube_subpower_contains_generators_and_diagonal():
    cubes = set(subpower_rows(Z2, [full(Z2)] * 2))
    for a in range(2):
        for b in range(2):
            assert (a, a, b, b) in cubes
            assert (a, b, a, b) in cubes


def test_cube_subpower_cap():
    with pytest.raises(BudgetExceededError):
        cube_subpower(Z4, [full(Z4)] * 2, cap=5)


@pytest.fixture(params=["bitmap", "code-set"])
def membership(request, monkeypatch):
    """Run a test once per membership path; the code-set run lowers the
    bitmap bound so that every closure takes the sparse path."""
    if request.param == "code-set":
        monkeypatch.setattr(finengine, "_BITMAP_MAX_CODES", 1)
    return request.param


def sweep_algebra(rng: random.Random, size: int):
    """One or two operations of arity 0, 1 or 2 with uniform tables."""
    ops = []
    for i in range(rng.choice((1, 2))):
        arity = rng.choice((0, 1, 2, 2))
        ops.append((f"g{i}", arity, [rng.randrange(size) for _ in range(size**arity)]))
    return FiniteAlgebra.from_tables(size, ops)


def random_partition(rng: random.Random, size: int) -> Congruence:
    return congruence_from_pairs(
        size, [(rng.randrange(size), rng.randrange(size)) for _ in range(size - 1)]
    )


SWEEP_CASES = [(size, m) for size in (2, 3) for m in (1, 2)] + [(2, 3)]


def sweep_algebras() -> list[tuple[FiniteAlgebra, int]]:
    rng = random.Random(4)
    return [
        (sweep_algebra(rng, size), m)
        for size, m in SWEEP_CASES
        for _ in range(10 if m < 3 else 4)
    ]


NO_OPS = FiniteAlgebra.from_tables(3, [])


def test_cube_subpower_cap_boundary(membership):
    cases = [
        (Z4, [full(Z4)] * 2),
        (SEMILATTICE, [full(SEMILATTICE)] * 3),
        # already closed: constant cubes of identity congruences and zero
        (Z2, [Congruence.identity(2)] * 2),
        # no operations: the generators are the closure
        (NO_OPS, [full(NO_OPS)] * 2),
    ]
    for alg, alphas in cases:
        cubes = subpower_rows(alg, alphas)
        assert subpower_rows(alg, alphas, cap=len(cubes)) == cubes
        with pytest.raises(BudgetExceededError):
            cube_subpower(alg, alphas, cap=len(cubes) - 1)


def test_cube_subpower_matches_naive_oracle(membership):
    algebras = sweep_algebras()
    assert any(op.arity == 0 for alg, _ in algebras for op in alg.operations)
    rng = random.Random(9)
    for alg, m in algebras:
        s = alg.size
        for alphas in (
            [Congruence.full(s)] * m,
            [Congruence.identity(s)] * m,
            [Congruence.full(s)] + [Congruence.identity(s)] * (m - 1),
            [random_partition(rng, s) for _ in range(m)],
        ):
            assert subpower_rows(alg, alphas) == cube_subpower_naive(alg, alphas), (
                s, m, [(op.arity, op.table) for op in alg.operations],
                [a.blocks for a in alphas],
            )


def test_cg_matches_partition_oracle_on_sweep_algebras():
    for alg, _ in sweep_algebras():
        for x in range(alg.size):
            for y in range(x + 1, alg.size):
                assert cg(alg, [(x, y)]).blocks == oracle_cg(alg, [(x, y)]).blocks


def test_cube_subpower_stops_at_the_full_power(membership, monkeypatch):
    rng = random.Random(1)
    alg = FiniteAlgebra.from_tables(
        4, [(f"g{i}", 2, [rng.randrange(4) for _ in range(16)]) for i in range(2)]
    )
    alphas = [full(alg)] * 2
    rounds = []
    blocks = finengine._frontier_index_blocks

    def recorded(cubes, n_old, arity, s):
        rounds.append((len(cubes), n_old))
        return blocks(cubes, n_old, arity, s)

    monkeypatch.setattr(finengine, "_frontier_index_blocks", recorded)
    cubes = subpower_rows(alg, alphas)
    # the last round found cubes, so the frontier was not empty, yet no
    # round ran on all 4^4 of them
    assert max(rounds)[0] < 4**4
    assert cubes == cube_subpower_naive(alg, alphas)
    assert cubes == list(itertools.product(range(4), repeat=4))


def test_cube_subpower_above_the_bitmap_bound():
    # 2^(2^5) codes: past the bitmap, so the cubes are byte keys
    alphas = [full(Z2)] * 5
    assert 2**32 > finengine._BITMAP_MAX_CODES
    cubes = subpower_rows(Z2, alphas)
    assert len(cubes) == 2**6
    assert cubes == cube_subpower_naive(Z2, alphas)


def test_cube_subpower_codes_past_int64_do_not_wrap():
    # 2^64 and 4^32 codes: past what one int64 code could hold
    z2_cases = [[full(Z2)] * 6, [full(Z2)] + [Congruence.identity(2)] * 5]
    for alphas in z2_cases:
        cubes = subpower_rows(Z2, alphas)
        assert cubes == cube_subpower_naive(Z2, alphas)
    assert len(subpower_rows(Z2, z2_cases[0])) == 2**7
    four = FiniteAlgebra.from_tables(
        4, [("g", 2, [(3 * i + j) % 4 for i in range(4) for j in range(4)]), ("one", 0, [1])]
    )
    alphas = [Congruence.identity(4)] * 5
    cubes = subpower_rows(four, alphas)
    assert cubes == cube_subpower_naive(four, alphas)
    assert cubes == [(v,) * 32 for v in range(4)]


def test_cube_subpower_with_two_byte_vertices():
    # 300 elements: each vertex takes two bytes, and 255 < 256 must sort
    # as numbers do, not as their low bytes do
    s = 300
    alg = FiniteAlgebra.from_tables(
        s, [("neg", 1, [s - 1 - x for x in range(s)]), ("top", 0, [s - 1])]
    )
    pairs = congruence_from_pairs(s, [(2 * i, 2 * i + 1) for i in range(s // 2)])
    halves = congruence_from_pairs(s, [(i, i + s // 2) for i in range(s // 2)])
    alphas = [pairs, halves]
    assert s ** 4 > finengine._BITMAP_MAX_CODES
    cubes = cube_subpower(alg, alphas)
    rows = list(map(tuple, cubes.tolist()))
    assert rows == sorted(rows) == cube_subpower_naive(alg, alphas)
    assert cubes.max() == s - 1


def test_three_element_binary_algebra_closes_at_dimension_3():
    rng = random.Random(3)
    alg = FiniteAlgebra.from_tables(3, [("g", 2, [rng.randrange(3) for _ in range(9)])])
    cubes = subpower_rows(alg, [full(alg)] * 3)
    assert len(cubes) == 3**8 == len(set(cubes))
    rows = np.array(cubes)
    weights = 3 ** np.arange(7, -1, -1)
    member = np.zeros(3**8, dtype=bool)
    member[rows @ weights] = True
    table = np.array(alg.operations[0].table)
    for lo in range(0, len(rows), 32):
        images = table[rows[lo : lo + 32, None, :] * 3 + rows[None, :, :]]
        assert member[images @ weights].all()


def test_central_series_reports_a_rising_series(monkeypatch):
    def rising(alg, alphas, cap):
        size = alg.size
        return Congruence.full(size) if len(alphas) > 2 else Congruence.identity(size)

    monkeypatch.setattr(finengine, "higher_commutator", rising)
    with pytest.raises(CommlabError, match="failed to descend"):
        central_series(Z2, 3)


def test_ground_truth_commutators():
    assert higher_commutator(Z2, [full(Z2)] * 2) == Congruence.identity(2)
    assert higher_commutator(SEMILATTICE, [full(SEMILATTICE)] * 2).is_full
    assert oracle_commutator_m2(Z2) == Congruence.identity(2)
    assert oracle_commutator_m2(SEMILATTICE).is_full


def test_ground_truth_simplicity():
    assert not is_simple(Z4)
    assert is_simple(Z2)
    assert is_simple(SEMILATTICE)


def test_is_simple_matches_the_congruence_lattice_oracle():
    rng = random.Random(7)  # 48 simple draws and 12 others
    verdicts = []
    for _ in range(60):
        alg = random_algebra(rng)
        verdicts.append(is_simple(alg))
        assert verdicts[-1] == (len(oracle_congruences(alg)) == 2)
    assert True in verdicts and False in verdicts


@pytest.fixture
def cg_calls(monkeypatch):
    """The pair lists of every cg call made through the module name."""
    calls = []

    def counted(alg, pairs):
        calls.append(list(pairs))
        return cg(alg, calls[-1])

    monkeypatch.setattr(finengine, "cg", counted)
    return calls


# Simple, but no chain of translations sends (0, 2) to (0, 1): is_simple
# needs a second cg call for the pair that the first one's marks miss.
TWO_CALLS = FiniteAlgebra.from_tables(3, [("p", 1, [0, 2, 2]), ("q", 1, [1, 0, 2])])


def test_is_simple_matches_the_oracle_when_one_cg_call_is_not_enough(cg_calls):
    rng = random.Random(1)
    algebras = [TWO_CALLS] + [
        FiniteAlgebra.from_tables(
            s, [(f"g{i}", 1, [rng.randrange(s) for _ in range(s)]) for i in range(2)]
        )
        for s in (3, 4)
        for _ in range(200)
    ]
    several = 0
    for alg in algebras:
        cg_calls.clear()
        simple = is_simple(alg)
        assert simple == (len(oracle_congruences(alg)) == 2), alg
        several += simple and len(cg_calls) > 1
    assert several >= 10
    cg_calls.clear()
    assert is_simple(TWO_CALLS) and cg_calls == [[(0, 1)], [(0, 2)]]


Z2_SQUARED = FiniteAlgebra.from_tables(
    4, [("add", 2, [i ^ j for i in range(4) for j in range(4)])]
)


def two_element_algebras():
    """The 2-element algebra with no operations, and each with one unary or
    one binary table."""
    return [FiniteAlgebra.from_tables(2, [])] + [
        FiniteAlgebra.from_tables(2, [("g", arity, table)])
        for arity in (1, 2)
        for table in itertools.product(range(2), repeat=2**arity)
    ]


def test_is_simple_matches_the_oracle_on_small_named_algebras():
    for alg in [Z2_SQUARED, NO_OPS, Z4] + two_element_algebras():
        assert is_simple(alg) == (len(oracle_congruences(alg)) == 2), alg
    assert not is_simple(Z2_SQUARED) and not is_simple(NO_OPS)
    assert all(map(is_simple, two_element_algebras()))


def test_is_simple_calls_cg_at_most_twice_on_a_random_16_element_algebra(cg_calls):
    rng = random.Random(16)
    alg = FiniteAlgebra.from_tables(16, [("g", 2, [rng.randrange(16) for _ in range(256)])])
    assert is_simple(alg)
    # one call per pair would be 16 * 15 / 2 = 120
    assert 1 <= len(cg_calls) <= 2


def test_is_simple_stops_at_the_first_pair_that_is_not_full(cg_calls):
    assert not is_simple(Z4)
    # Cg(0, 1) is full, Cg(0, 2) is the cosets of {0, 2}: no third call
    assert cg_calls == [[(0, 1)], [(0, 2)]]


def test_tc_holds():
    assert tc_holds(Z2, 2, Congruence.identity(2))
    assert not tc_holds(SEMILATTICE, 2, Congruence.identity(2))
    assert tc_holds(SEMILATTICE, 2, full(SEMILATTICE))
    with pytest.raises(ValueError):
        tc_holds(Z2, 1, Congruence.identity(2))


@pytest.mark.parametrize(
    "alg,delta",
    [(Z4, Congruence.identity(6)), (Z4, Congruence.identity(2)), (Z2, Congruence.full(4))],
    ids=["z4-larger-identity", "z4-smaller-identity", "z2-larger-full"],
)
def test_tc_holds_rejects_a_delta_over_another_universe(alg, delta):
    # a delta over another universe gives no verdict, as the alphas of
    # the cube closure give none
    with pytest.raises(ValueError, match="does not match"):
        tc_holds(alg, 2, delta)


def test_central_series_and_degrees():
    assert [c.blocks for c in central_series(Z2, 4)] == [((0,), (1,))] * 3
    assert [c.blocks for c in central_series(SEMILATTICE, 3)] == [((0, 1),)] * 2


def test_higher_commutator_dim3_matches_oracle_on_named_algebras():
    for alg in (Z2, SEMILATTICE):
        eng = higher_commutator(alg, [full(alg)] * 3)
        orc = oracle_higher_commutator(alg, 3, block_vars=2)
        assert orc is not None
        assert eng.blocks == orc.blocks


def test_commutator_is_least_tc_congruence():
    # delta satisfies the relativized term condition iff the commutator
    # refines delta; checked against the full congruence lattice
    rng = random.Random(5)
    for _ in range(15):
        alg = random_algebra(rng)
        comm = higher_commutator(alg, [full(alg)] * 2)
        for cm in oracle_congruences(alg):
            delta = congruence_from_pairs(
                alg.size,
                [(i, j) for i in range(alg.size) for j in range(alg.size)
                 if cm[i] == cm[j]],
            )
            assert tc_holds(alg, 2, delta) == comm.refines(delta)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_cg_is_a_closure_operator(alg_seed, pair_seed):
    rng = random.Random(alg_seed)
    alg = random_algebra(rng)
    prng = random.Random(pair_seed)
    pairs = [
        (prng.randrange(alg.size), prng.randrange(alg.size))
        for _ in range(prng.randrange(1, 4))
    ]
    cong = cg(alg, pairs)
    assert is_compatible(alg, cong)
    assert all(relates(cong, a, b) for a, b in pairs)
    # idempotence
    assert cg(alg, related_pairs(cong)).blocks == cong.blocks
    # monotonicity
    wider = cg(alg, pairs + [(0, alg.size - 1)])
    assert cong.refines(wider)


def test_central_series_descends_on_random_algebras():
    # size 2 keeps the higher cube subpowers small enough to close
    rng = random.Random(13)
    done = 0
    while done < 10:
        alg = random_algebra(rng)
        if alg.size != 2:
            continue
        series = central_series(alg, 3)
        for finer, coarser in zip(series[1:], series[:-1]):
            assert finer.refines(coarser)
        done += 1
