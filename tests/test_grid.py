import itertools
import tracemalloc

import numpy as np
import pytest

from commlab import _grid, errors
from commlab._grid import SymbolicGrid
from hypothesis import given, settings, strategies as st

from commlab.elements import AGen, BGen, CConst, DConst, Params, Tagged, bounded_subuniverse
from commlab.errors import BudgetExceededError
from commlab.terms import (
    Const,
    FApp,
    UApp,
    UPQRApp,
    Var,
    default_triple_pool,
    depth,
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


class _IdValues:
    """A test-side map from a grid's ids to the values the term evaluator
    gives at the cells that hold them, checked as it grows: it must be a
    function and injective, so ids are equal iff values are.  It reads
    nothing of the grid but ``eval_ids`` and ``intern``."""

    def __init__(self, grid):
        self.grid = grid
        self.value = {}
        self._id = {}

    def add(self, i, value):
        assert self.value.setdefault(i, value) == value  # a function
        assert self._id.setdefault(value, i) == i  # injective

    def record(self, t, m, cells, values=None):
        """Map t's id at each cell to t's value there, by the term evaluator
        unless the values are given."""
        grid = self.grid
        if values is None:
            values = _term_values(t, grid.params, grid.domain, cells)
        full = np.broadcast_to(grid.eval_ids(t, m), (len(grid.domain),) * m)
        for cell, value in zip(cells, values, strict=True):
            self.add(int(full[cell]), value)


def _term_values(t, params, domain, cells):
    return [eval_term(t, {j: domain[k] for j, k in enumerate(cell)}, params) for cell in cells]


ATOM_CELLS = list(itertools.product(range(len(ATOMS)), repeat=2))


def test_memoized_eval_ids_match_a_fresh_grid():
    # A fresh grid per term and the long-lived one must both give every
    # cell the id of its value.
    long_lived = _IdValues(SymbolicGrid(P2, ATOMS))
    for t in enumerate_terms(2, 2, POOL2, P2):
        values = _term_values(t, P2, ATOMS, ATOM_CELLS)
        long_lived.record(t, 2, ATOM_CELLS, values)
        _IdValues(SymbolicGrid(P2, ATOMS)).record(t, 2, ATOM_CELLS, values)
    # the memo is in use: terms share nodes, and nodes share arrays
    grid = long_lived.grid
    assert len(grid._arrays) < len(grid._nodes) < len(grid._classes)


def test_memoized_ids_are_read_only():
    grid = SymbolicGrid(P2, ATOMS)
    t = FApp((Var(0), Var(1)))
    ids = grid.eval_ids(t, 3)
    assert ids.size < len(ATOMS) ** 3
    assert grid.eval_ids(t, 3) is ids
    with pytest.raises(ValueError):
        ids[(0,) * ids.ndim] = 0


def test_memo_holds_each_distinct_id_array_once():
    # Full-grid arrays are kept too, once per distinct content: terms with
    # equal arrays get one class and one array object.
    grid = SymbolicGrid(P2, ATOMS)
    d = len(ATOMS)
    by_content = {}
    full = 0
    for t in itertools.islice(enumerate_terms(2, 2, POOL2, P2), 0, None, 10):
        ids = grid.eval_ids(t, 2)
        full += ids.size == d**2
        cls = by_content.setdefault((ids.shape, ids.tobytes()), grid.id_class(t, 2))
        assert grid.id_class(t, 2) == cls
        assert grid.eval_ids(t, 2) is grid._arrays[cls]
        assert not ids.flags.writeable
    assert full
    assert len(grid._arrays) == len({(a.shape, a.tobytes()) for a in grid._arrays})
    assert len(by_content) < len(grid._classes)


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
    assert grid.eval_ids(t, 1).shape == (len(domain),)
    _IdValues(grid).record(t, 1, [(k,) for k in range(len(domain))])


def test_f_node_cap_raises_before_it_allocates():
    # 1500**2 cells pass the cap; the check reads the broadcast shape, so
    # nothing of grid size is built before it raises.
    domain = [AGen(1, j) for j in range(1500)]
    grid = SymbolicGrid(P2, domain)
    t = FApp((Var(0), Var(1)))
    assert len(domain) ** 2 > errors.F_NODE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="f-node grid needs 2250000 cells"):
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


def test_intern_rejects_an_ill_formed_tagged_value():
    # f's table keys on the argument ids and ignores the tag, so each of
    # these would otherwise share the id of a well-formed value.
    grid = SymbolicGrid(P2, ATOMS)
    c = CConst()
    well = Tagged((c, c), 0)
    for bad in (
        Tagged((c, c), 1),  # wrong tag
        Tagged((AGen(1, 0), BGen(2, 0)), 0),  # in f0's domain: a d-value
        Tagged((c, c, c), 0),  # wrong arity
        Tagged((well, AGen(3, 0)), 1),  # an argument outside A(2)
    ):
        with pytest.raises(ValueError, match="ill-formed"):
            grid.intern(bad)
    id_values = _IdValues(grid)
    id_values.record(FApp((Var(0), Var(1))), 2, ATOM_CELLS)
    assert id_values.value[grid.intern(well)] == well
    with pytest.raises(ValueError, match="ill-formed"):
        SymbolicGrid(P2, ATOMS + [Tagged((c, c), 1)])


def test_ids_equal_iff_values_equal_on_every_cell_over_the_atoms():
    id_values = _IdValues(SymbolicGrid(P2, ATOMS))
    for t in enumerate_terms(2, 2, POOL2, P2):
        id_values.record(t, 2, ATOM_CELLS)


def test_ids_equal_iff_values_equal_over_the_verify_n2_domain():
    # The 68-element domain of verify-n2: every term, with a seeded sample
    # of cells per term against the term evaluator (all 4624 cells of all
    # 4538 terms would take minutes).
    domain = bounded_subuniverse(P2, 0, 1)
    assert len(domain) == 68
    id_values = _IdValues(SymbolicGrid(P2, domain))
    rng = np.random.default_rng(14)
    for t in enumerate_terms(2, 2, POOL2, P2):
        cells = [tuple(c) for c in rng.integers(0, len(domain), size=(8, 2)).tolist()]
        id_values.record(t, 2, cells)


def _subterms(t):
    """t and every term below it."""
    yield t
    if isinstance(t, FApp):
        children = t.args
    elif isinstance(t, (UApp, UPQRApp)):
        children = (t.arg,)
    else:
        children = ()
    for child in children:
        yield from _subterms(child)


def _terms(max_depth):
    leaves = st.builds(Var, st.integers(0, 1))

    def extend(children):
        return st.one_of(
            st.builds(UApp, children),
            st.builds(lambda pqr, arg: UPQRApp(*pqr, arg), st.sampled_from(POOL2), children),
            st.builds(lambda a, b: FApp((a, b)), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=8).filter(lambda t: depth(t) <= max_depth)


@settings(max_examples=60, deadline=None)
@given(st.lists(_terms(3), min_size=1, max_size=4))
def test_ids_equal_iff_values_equal_on_random_terms(term_list):
    id_values = _IdValues(SymbolicGrid(P2, ATOMS))
    for t in term_list:
        for sub in _subterms(t):
            id_values.record(sub, 2, ATOM_CELLS)


@pytest.mark.parametrize("triple_first", [False, True])
def test_a_fresh_f_value_takes_the_id_of_an_equal_outside_value(triple_first):
    # On the atoms, f(c, c) is the value t([c,c],0) that the u_pqr triple
    # names from outside: either way round, both get one id, so u_pqr moves
    # the cell (c, c) to d(1).
    c = CConst()
    coord = Tagged((c, c), 0)
    inner = FApp((Var(0), Var(1)))
    t = UPQRApp(coord, DConst(1), DConst(2), inner)
    grid = SymbolicGrid(P2, ATOMS)
    if triple_first:
        coord_id = grid.intern(coord)
        ids = grid.eval_ids(t, 2)
    else:
        ids = grid.eval_ids(t, 2)
        coord_id = grid.intern(coord)
    k = ATOMS.index(c)
    assert grid.eval_ids(inner, 2)[k, k] == coord_id
    id_values = _IdValues(grid)
    id_values.add(coord_id, coord)
    for sub in (inner, t):
        id_values.record(sub, 2, ATOM_CELLS)
    assert id_values.value[int(ids[k, k])] == DConst(1)
