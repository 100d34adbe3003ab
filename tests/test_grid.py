import itertools

import numpy as np
import pytest

from commlab._grid import SymbolicGrid
from commlab.elements import AGen, CConst, DConst, Params
from commlab.terms import (
    FApp,
    UApp,
    UPQRApp,
    Var,
    default_triple_pool,
    enumerate_terms,
    free_vars,
)

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)


def _values(grid, t, m):
    d = len(grid.domain)
    ids = np.broadcast_to(grid.eval_ids(t, m), (d,) * m)
    return [grid.element(int(i)) for i in ids.ravel()]


def test_memoized_eval_ids_match_a_fresh_grid():
    long_lived = SymbolicGrid(P2, ATOMS)
    for t in enumerate_terms(2, 2, POOL2, P2):
        assert _values(long_lived, t, 2) == _values(SymbolicGrid(P2, ATOMS), t, 2)
    assert long_lived._memo


def test_memoized_ids_are_read_only():
    grid = SymbolicGrid(P2, ATOMS)
    t = FApp((Var(0), Var(1)))
    ids = grid.eval_ids(t, 3)
    assert ids.size < len(ATOMS) ** 3
    assert grid.eval_ids(t, 3) is ids
    with pytest.raises(ValueError):
        ids[(0,) * ids.ndim] = 0


def test_memo_holds_no_full_grid_array():
    grid = SymbolicGrid(P2, ATOMS)
    d = len(ATOMS)
    full = []
    for t in itertools.islice(enumerate_terms(2, 2, POOL2, P2), 0, None, 10):
        if grid.eval_ids(t, 2).size == d**2:
            full.append(t)
    assert full
    assert all(v.size < d**m for (_, m), v in grid._memo.items())
    assert not any((t, 2) in grid._memo for t in full)


def test_eval_codes_equality_pattern_survives_a_wide_intern_table():
    # At n = 4 the positional pack of f's arguments needs base**4 < 2**63.
    # With base = 2**17 an argument id differing by 2**13 in the first
    # position shifts the pack by exactly 2**64, so a wrapping pack would
    # merge the two cells below.
    p4 = Params(4)
    domain = [AGen(1, 1), AGen(2, 1)]
    grid = SymbolicGrid(p4, domain)
    fillers = (DConst(k) for k in itertools.count(10**6))

    def intern_at(target, e=None):
        while grid.intern(next(fillers)) < target - 1:
            pass
        if e is not None:
            assert grid.intern(e) == target

    # u_pqr shifts the generation index, so these are the images of the domain
    intern_at(1000, AGen(1, 2))
    intern_at(1000 + 2**13, AGen(2, 2))
    intern_at(2**17)
    assert len(grid._elems) == 2**17 and (2**17) ** 4 >= 2**63

    t = FApp((UPQRApp(DConst(1), DConst(2), CConst(), Var(0)), Var(1), Var(2), Var(3)))
    codes = np.broadcast_to(grid.eval_codes(t, 4), (2,) * 4).ravel()
    ids = np.broadcast_to(grid.eval_ids(t, 4), (2,) * 4).ravel()
    assert len(set(ids.tolist())) == ids.size
    assert ((codes[:, None] == codes[None, :]) == (ids[:, None] == ids[None, :])).all()


def _first_occurrence_relabel(codes):
    # Each value becomes the number of distinct values met before its first
    # occurrence in C order.
    labels = {}
    return [labels.setdefault(v, len(labels)) for v in codes.ravel().tolist()]


@pytest.mark.parametrize("m", [2, 3])
def test_equal_pattern_keys_give_equal_equality_patterns(m):
    grid = SymbolicGrid(P2, ATOMS)
    d = len(ATOMS)
    classes = {}
    for t in enumerate_terms(m, 2, POOL2, P2):
        if free_vars(t) != frozenset(range(m)):
            continue
        key = grid.pattern_key(t, m)
        assert key is not None
        codes = np.broadcast_to(grid.eval_codes(t, m), (d,) * m)
        classes.setdefault(key, []).append(_first_occurrence_relabel(codes))
    for patterns in classes.values():
        assert all(p == patterns[0] for p in patterns[1:])
    # the key merges terms, so the check above compares something
    assert len(classes) < sum(len(p) for p in classes.values())


def test_pattern_key_is_none_for_a_variable_root():
    grid = SymbolicGrid(P2, ATOMS)
    assert grid.pattern_key(UApp(Var(1)), 2) is None
    assert grid.pattern_key(UApp(FApp((Var(0), Var(1)))), 2) == grid.pattern_key(
        FApp((Var(0), Var(1))), 2
    )
