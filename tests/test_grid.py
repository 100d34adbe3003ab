import itertools
import tracemalloc

import numpy as np
import pytest

from commlab import _grid
from commlab._grid import SymbolicGrid
from commlab.elements import AGen, CConst, DConst, Params
from commlab.errors import BudgetExceededError
from commlab.terms import (
    Const,
    FApp,
    UApp,
    UPQRApp,
    Var,
    default_triple_pool,
    enumerate_terms,
    eval_term,
    free_vars,
)

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)


def _over_two_blocks(m):
    # the terms that reach the grid's codes and keys: f-rooted, wrappers stripped
    return [t for t in enumerate_terms(m, 2, POOL2, P2) if len(free_vars(t)) >= 2]


def _labels(grid, t, m):
    args = _grid._strip_wrappers(t).args
    return [grid._arg_labels(arg, pos, m)[0] for pos, arg in enumerate(args)]


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


def test_eval_codes_falls_back_when_the_label_pack_would_wrap():
    # x0 ranges over 131,070 elements, so with the pinned a/b labels its
    # position has 2**17 labels and base**4 = 2**68 > 2**63.  Cells 8192
    # apart differ by 8192 * base**3 = 2**64 in the positional pack, so a
    # wrapping pack would merge them.
    p4 = Params(4)
    domain = [AGen(1, j) for j in range(1, 131071)]
    grid = SymbolicGrid(p4, domain)
    c = Const(CConst())
    t = FApp((Var(0), c, c, c))
    assert max(int(lab.max()) for lab in _labels(grid, t, 1)) == 2**17 - 1
    codes = grid.eval_codes(t, 1)
    ids = grid.eval_ids(t, 1)
    assert codes.shape == ids.shape == (len(domain),)
    assert np.unique(ids).size == ids.size
    assert np.unique(codes).size == codes.size


def test_f_node_ids_fall_back_when_the_id_pack_would_wrap():
    # The setup above, evaluated to ids: the largest child id is past 2**17,
    # so packing f's four argument ids positionally would wrap int64 and
    # the distinct argument tuples are numbered instead.
    p4 = Params(4)
    domain = [AGen(1, j) for j in range(1, 131071)]
    grid = SymbolicGrid(p4, domain)
    c = CConst()
    assert (grid.intern(c) + 1) ** 4 > 2**63
    t = FApp((Var(0), Const(c), Const(c), Const(c)))
    ids = grid.eval_ids(t, 1)
    assert ids.shape == (len(domain),)
    assert [grid.element(i) for i in ids.tolist()] == [
        eval_term(t, {0: e}, p4) for e in domain
    ]


def test_f_node_cap_raises_before_it_allocates():
    # 1500**2 cells pass the cap; the check reads the broadcast shape, so
    # nothing of grid size is built before it raises.
    domain = [AGen(1, j) for j in range(1500)]
    grid = SymbolicGrid(P2, domain)
    t = FApp((Var(0), Var(1)))
    assert len(domain) ** 2 > _grid.F_NODE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="f-node"):
            grid.eval_ids(t, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_memoized_arg_labels_are_read_only():
    grid = SymbolicGrid(P2, ATOMS)
    t = FApp((UApp(Var(0)), FApp((Var(1), Var(2)))))
    labels = _labels(grid, t, 3)
    assert all(a is b for a, b in zip(_labels(grid, t, 3), labels))
    for lab in labels:
        with pytest.raises(ValueError):
            lab[(0,) * lab.ndim] = 0


@pytest.mark.parametrize("m", [2, 3])
def test_pattern_key_splits_terms_as_the_label_bytes_do(m):
    # The key of an f-root is its arguments' label class ids: it must split
    # the terms into the same classes as the labels' shapes and bytes.
    grid = SymbolicGrid(P2, ATOMS)

    def label_bytes(t):
        return tuple((lab.shape, lab.tobytes()) for lab in _labels(grid, t, m))

    pairs = {(grid.pattern_key(t, m), label_bytes(t)) for t in _over_two_blocks(m)}
    assert len({key for key, _ in pairs}) == len({old for _, old in pairs}) == len(pairs)


def _first_occurrence_relabel(codes):
    # Each value becomes the number of distinct values met before its first
    # occurrence in C order.
    labels = {}
    return [labels.setdefault(v, len(labels)) for v in codes.ravel().tolist()]


def test_eval_codes_equality_is_value_equality():
    # The codes come from the pattern labels, not from the values; on every
    # term they code, they must still be equal exactly where the values are.
    grid = SymbolicGrid(P2, ATOMS)
    full = (len(ATOMS),) * 2
    for t in _over_two_blocks(2):
        codes = np.broadcast_to(grid.eval_codes(t, 2), full)
        ids = np.broadcast_to(grid.eval_ids(t, 2), full)
        assert _first_occurrence_relabel(codes) == _first_occurrence_relabel(ids)


@pytest.mark.parametrize("m", [2, 3])
def test_equal_pattern_keys_give_equal_equality_patterns(m):
    # Every term over two or more blocks, not only those that use all
    # blocks: the corner lemma decides each class once, and it reads the
    # codes in broadcast shape.
    grid = SymbolicGrid(P2, ATOMS)
    classes = {}
    for t in _over_two_blocks(m):
        codes = grid.eval_codes(t, m)
        pattern = (codes.shape, _first_occurrence_relabel(codes))
        classes.setdefault(grid.pattern_key(t, m), []).append(pattern)
    for patterns in classes.values():
        assert all(p == patterns[0] for p in patterns[1:])
    # the key merges terms, so the check above compares something
    assert len(classes) < sum(len(p) for p in classes.values())
