import itertools
import tracemalloc

import numpy as np
import pytest

import commlab.verifier as verifier_mod
from commlab import _grid, errors
from commlab._grid import SymbolicGrid
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from commlab.elements import (
    AGen,
    BGen,
    CConst,
    DConst,
    Params,
    Tagged,
    bounded_subuniverse,
    eval_u,
    f0_value,
    shift_generator,
)
from commlab.errors import BudgetExceededError
from commlab.terms import (
    FApp,
    UApp,
    UPQRApp,
    Var,
    default_triple_pool,
    eval_term,
    free_vars,
    layer_masks,
    term_layers,
)

from gridscan import f_node, mask_of, pattern_key, term_class, term_ids
from oracles import depth, enumerate_terms

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)


def _over_two_blocks(m):
    # the terms that reach the grid's codes and keys: f-rooted, wrappers stripped
    return [t for t in enumerate_terms(m, 2, POOL2, P2) if len(free_vars(t)) >= 2]


def _labels(grid, t, m):
    # each argument's stored labels, placed on its axes of the m-axis grid
    return [grid.class_ids(lab, mask, m) for lab, mask in pattern_key(grid, t)]


class _IdValues:
    """A test-side map from a grid's ids to the values the term evaluator
    gives at the cells that hold them, checked as it grows: it must be a
    function and injective, so ids are equal iff values are.  It reads
    nothing of the grid but ``term_ids`` and ``intern``."""

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
        full = np.broadcast_to(term_ids(grid, t, m), (len(grid.domain),) * m)
        for cell, value in zip(cells, values, strict=True):
            self.add(int(full[cell]), value)


def _term_values(t, params, domain, cells):
    return [eval_term(t, {j: domain[k] for j, k in enumerate(cell)}, params) for cell in cells]


ATOM_CELLS = list(itertools.product(range(len(ATOMS)), repeat=2))


def test_long_lived_term_ids_match_a_fresh_grid():
    # A fresh grid per term and the long-lived one must both give every
    # cell the id of its value.
    long_lived = _IdValues(SymbolicGrid(P2, ATOMS))
    terms = list(enumerate_terms(2, 2, POOL2, P2))
    for t in terms:
        values = _term_values(t, P2, ATOMS, ATOM_CELLS)
        long_lived.record(t, 2, ATOM_CELLS, values)
        _IdValues(SymbolicGrid(P2, ATOMS)).record(t, 2, ATOM_CELLS, values)
    # the store is in use: terms share arrays
    assert len(long_lived.grid._arrays) < len(terms)


P3 = Params(3)


@pytest.mark.parametrize(
    "params,m,depth",
    [(P2, 2, 2), (P2, 3, 2), (P3, 2, 1), (P3, 3, 1)],
    ids=["n2-m2-d2", "n2-m3-d2", "n3-m2-d1", "n3-m3-d1"],
)
@pytest.mark.parametrize("layers_first", [True, False], ids=["layers-first", "terms-first"])
def test_layer_class_arrays_match_the_per_term_classes(params, m, depth, layers_first):
    # On the atoms (8 at n = 2, 12 at n = 3): a layer's class array is
    # the per-term classes of its terms, whichever path builds the nodes,
    # and each class array holds the ids of the term's values.
    grid = SymbolicGrid(params, params.base_atoms(0))
    pool = default_triple_pool(params)
    terms = list(enumerate_terms(m, depth, pool, params))

    def per_term():
        return [term_class(grid, t) for t in terms]

    expected = None if layers_first else per_term()
    classes = masks = np.zeros(0, dtype=np.intp)
    for layer in term_layers(m, depth, pool, params):
        classes = np.concatenate((classes, grid.layer_classes(layer, classes, masks)))
        masks = np.concatenate((masks, layer_masks(layer, masks)))
    assert classes.tolist() == (expected or per_term())
    assert masks.tolist() == [mask_of(t) for t in terms]
    # terms share classes, so the comparison is not one of fresh nodes only
    assert len(set(classes.tolist())) < len(terms)
    # each class array's memory is exactly its key's bytes, so none keeps
    # the f-node batch it was cut from
    for (dtype, shape, data), cls in grid._array_classes.items():
        a = owner = grid._arrays[cls]
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert owner is data
        assert (a.dtype, a.shape, a.nbytes) == (dtype, shape, len(data))
    # and the arrays hold the ids of the values, on a seeded sample of cells
    id_values = _IdValues(grid)
    rng = np.random.default_rng(len(terms))
    for t in terms:
        id_values.record(t, m, [tuple(c) for c in rng.integers(0, len(grid.domain), (8, m))])


def test_layer_classes_evaluate_each_distinct_node_once(monkeypatch):
    # The grid keeps no per-node memo: a layer runs each unary operation
    # once per distinct class of its args, and f once per distinct node,
    # its children's classes and masks over the node's axes, and terms
    # that share a node share its evaluation.
    unary, f_nodes = [], []
    unary_class, f_classes = SymbolicGrid.unary_class, SymbolicGrid._f_classes

    def record_unary(grid, op, child):
        unary.append((op, child))
        return unary_class(grid, op, child)

    def record_f(grid, nodes):
        f_nodes.extend(nodes)
        return f_classes(grid, nodes)

    monkeypatch.setattr(SymbolicGrid, "unary_class", record_unary)
    monkeypatch.setattr(SymbolicGrid, "_f_classes", record_f)
    grid = SymbolicGrid(P2, ATOMS)
    classes = masks = np.zeros(0, dtype=np.intp)
    shared = 0
    for layer in term_layers(2, 2, POOL2, P2):
        unary.clear()
        f_nodes.clear()
        below = classes
        classes = np.concatenate((classes, grid.layer_classes(layer, below, masks)))
        distinct = sorted(set(below[layer.args].tolist()))
        assert unary == [(op, c) for op in layer.unary for c in distinct]
        nodes = {
            f_node(list(zip(below[row].tolist(), masks[row].tolist()))) for row in layer.f
        }
        assert len(f_nodes) == len(nodes) and set(f_nodes) == nodes
        shared += len(distinct) < layer.args.size or len(nodes) < len(layer.f)
        masks = np.concatenate((masks, layer_masks(layer, masks)))
    assert shared


def test_unary_maps_are_gathers_from_id_arrays(monkeypatch):
    # After a term-lemma run, u's map sends every atom id to the id of its
    # image and u_pqr's cycles the triple and shifts every other atom;
    # both leave every f-value id where it is.
    grids = []

    class Recording(SymbolicGrid):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    monkeypatch.setattr(verifier_mod, "SymbolicGrid", Recording)
    assert verifier_mod.check_term_lemma(P2, ATOMS, 2, POOL2).passed
    (grid,) = grids
    assert grid._unary_maps.keys() == {UApp, *POOL2}
    f_values = 0
    atoms = {i: e for e, i in grid._atoms.items()}
    for op, table in grid._unary_maps.items():
        if op is UApp:
            image = {}
        else:
            image = dict(zip(op, op[1:] + op[:1]))
        for i, mapped in enumerate(table.tolist()):
            atom = atoms.get(i)
            if atom is None:
                f_values += 1
                assert mapped == i
            elif op is UApp:
                assert mapped == grid.intern(eval_u(atom, P2))
            else:
                assert mapped == grid.intern(image.get(atom, shift_generator(atom)))
    assert f_values


def test_memoized_ids_are_read_only():
    grid = SymbolicGrid(P2, ATOMS)
    t = FApp((Var(0), Var(1)))
    ids = term_ids(grid, t, 3)
    assert ids.size < len(ATOMS) ** 3
    # a view of the one stored array, in broadcast shape
    assert np.shares_memory(term_ids(grid, t, 3), ids)
    with pytest.raises(ValueError):
        ids[(0,) * ids.ndim] = 0


def test_memo_holds_each_distinct_id_array_once():
    # Full-grid arrays are kept too, once per distinct content: terms with
    # equal arrays get one class, and each term's array is a view of its
    # class's one stored array.
    grid = SymbolicGrid(P2, ATOMS)
    d = len(ATOMS)
    by_content = {}
    full = 0
    sampled = list(itertools.islice(enumerate_terms(2, 2, POOL2, P2), 0, None, 10))
    for t in sampled:
        ids = term_ids(grid, t, 2)
        full += ids.size == d**2
        cls = by_content.setdefault((ids.shape, ids.tobytes()), term_class(grid, t))
        assert term_class(grid, t) == cls
        stored = grid._arrays[cls]
        assert np.shares_memory(ids, stored) and ids.size == stored.size
        assert not ids.flags.writeable
    assert full
    assert len(grid._arrays) == len({(a.shape, a.tobytes()) for a in grid._arrays})
    assert len(by_content) < len(sampled)


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
    assert grid._size == 2**17 and (2**17) ** 4 >= 2**63

    t = FApp((UPQRApp(DConst(1), DConst(2), CConst(), Var(0)), Var(1), Var(2), Var(3)))
    codes = np.broadcast_to(grid.eval_codes(pattern_key(grid, t), 4), (2,) * 4).ravel()
    ids = np.broadcast_to(term_ids(grid, t, 4), (2,) * 4).ravel()
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
    t = FApp((Var(0),) * 4)
    assert max(int(lab.max()) for lab in _labels(grid, t, 1)) == 2**17 - 1
    codes = grid.eval_codes(pattern_key(grid, t), 1)
    ids = term_ids(grid, t, 1)
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
    t = FApp((Var(0),) * 4)
    assert (int(term_ids(grid, Var(0), 1).max()) + 1) ** 4 > 2**63
    assert term_ids(grid, t, 1).shape == (len(domain),)
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
            term_ids(grid, t, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_f_node_batches_fill_up_to_the_f_node_cap(monkeypatch):
    # The term lemma's full grid on the 8 atoms is 64 cells, far below the
    # cap, so a layer's new f-nodes of one child-shape group go through f's
    # table in one call: at most one per layer and group, and each of the
    # two children has one of 3 shapes, (d, 1), (1, d) or (d, d).
    cells = []
    f_ids = SymbolicGrid._f_ids

    def counted(self, children):
        cells.append(int(np.prod(np.broadcast_shapes(*(c.shape for c in children)))))
        return f_ids(self, children)

    monkeypatch.setattr(SymbolicGrid, "_f_ids", counted)

    def term_lemma():
        cells.clear()
        return verifier_mod.check_term_lemma(P2, ATOMS, 2, POOL2).to_record(False)

    report = term_lemma()
    assert report["outcome"] == "pass"
    f_layers = sum(len(layer.f) > 0 for layer in term_layers(2, 2, POOL2, P2))
    assert 0 < len(cells) <= f_layers * 3**2
    calls = len(cells)
    # with the cap three grids wide, the batches split, none past the cap,
    # and the report is the same
    monkeypatch.setattr(errors, "F_NODE_CAP", 3 * 64 + 1)
    assert term_lemma() == report
    assert len(cells) > calls
    assert max(cells) <= errors.F_NODE_CAP


def test_memoized_labels_are_read_only():
    grid = SymbolicGrid(P2, ATOMS)
    t = FApp((UApp(Var(0)), FApp((Var(1), Var(2)))))
    labels = _labels(grid, t, 3)
    assert all(np.shares_memory(a, b) for a, b in zip(_labels(grid, t, 3), labels))
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

    pairs = {(pattern_key(grid, t), label_bytes(t)) for t in _over_two_blocks(m)}
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
        codes = np.broadcast_to(grid.eval_codes(pattern_key(grid, t), 2), full)
        ids = np.broadcast_to(term_ids(grid, t, 2), full)
        assert _first_occurrence_relabel(codes) == _first_occurrence_relabel(ids)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eval_codes_match_the_term_evaluator_on_f0s_rows(n):
    # Over the 2n generators a(i,0), b(i,0) the root f(x0, ..., x(n-1))
    # meets every row of f0's table, the all-b row included, so every
    # d-value's code is read from the grid's base table.
    p = Params(n)
    gens = [AGen(i, 0) for i in range(1, n + 1)] + [BGen(i, 0) for i in range(1, n + 1)]
    grid = SymbolicGrid(p, gens)
    for row in itertools.product(*zip(gens[:n], gens[n:])):
        key = [np.array([grid.intern(e)]) for e in row]
        assert grid._f_ids(key).tolist() == [grid.intern(f0_value(row, p))]
    t = FApp(tuple(Var(i) for i in range(n)))
    cells = list(itertools.product(range(2 * n), repeat=n))
    codes = np.broadcast_to(grid.eval_codes(pattern_key(grid, t), n), (2 * n,) * n).ravel().tolist()
    code_of = {}
    for code, value in zip(codes, _term_values(t, p, gens, cells), strict=True):
        assert code_of.setdefault(value, code) == code  # equal values, equal codes
        if isinstance(value, DConst):
            assert code == -value.k
    assert len(set(code_of.values())) == len(code_of)  # and the other way round
    d_values = {v for v in code_of if isinstance(v, DConst)}
    assert d_values == {DConst(k) for k in range(1, p.d_count + 1)}


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(
        st.tuples(*[
            st.sampled_from([pos, 4 + pos, 8, 9, 2**15 - 1, 2**15, 2**16]) for pos in range(4)
        ]),
        min_size=1, max_size=6,
    ),
    min_size=1, max_size=5,
))
def test_f_table_gives_the_ids_of_a_dict_model(batches):
    # At n = 4 the pack's base is 2**15, so the first batch with an id from
    # 2**15 on re-keys f's table once by ``_row_keys``, and every later
    # batch is looked up by those keys.  The model is a dict seeded with
    # f0's rows that gives each batch's distinct new keys consecutive fresh
    # ids in lexicographic order.
    p4 = Params(4)
    gens = [AGen(i, 0) for i in range(1, 5)] + [BGen(i, 0) for i in range(1, 5)]
    grid = SymbolicGrid(p4, gens)
    model = {
        tuple(grid.intern(e) for e in row): grid.intern(f0_value(row, p4))
        for row in itertools.product(*zip(gens[:4], gens[4:]))
    }
    size = grid._size
    for batch in batches:
        for key in sorted(set(batch) - model.keys()):
            model[key] = size
            size += 1
        ids = grid._f_ids([np.array(col, dtype=np.int64) for col in zip(*batch)])
        assert ids.tolist() == [model[key] for key in batch]
        assert grid._size == size
    # and the table holds what the model holds, every key read back at once
    keys = list(model)
    ids = grid._f_ids([np.array(col, dtype=np.int64) for col in zip(*keys)])
    assert ids.tolist() == [model[key] for key in keys]
    assert grid._size == size


def test_f_table_past_its_pack_base_sorts_only_the_batch(monkeypatch):
    # At n = 4 the pack's base is 2**15.  Once an id passes it, a batch is
    # looked up in the re-keyed table by binary search: no row unique made
    # inside the call sees the table's rows, only the batch's own.
    grid = SymbolicGrid(Params(4), [AGen(1, j) for j in range(1, 41)])
    k = 10**6
    while grid._size < 2**15 + 10:
        grid.intern(DConst(k))
        k += 1
    batch = np.random.default_rng(0).integers(0, grid._size, size=(4, 2000))
    batch[:, 0] = 2**15  # one tuple past the base for certain
    seen = []
    unique_rows = _grid._unique_rows

    def counted(rows):
        seen.append(rows.shape[0])
        return unique_rows(rows)

    monkeypatch.setattr(_grid, "_unique_rows", counted)
    grid._f_ids(list(batch))
    assert grid._f_keys.dtype.kind == "V"  # re-keyed past the base
    assert max(seen, default=0) <= batch.shape[1]


@pytest.mark.parametrize("m", [2, 3])
def test_equal_pattern_keys_give_equal_equality_patterns(m):
    # Every term over two or more blocks, not only those that use all
    # blocks: the corner lemma decides each class once, and it reads the
    # codes in broadcast shape.
    grid = SymbolicGrid(P2, ATOMS)
    classes = {}
    for t in _over_two_blocks(m):
        codes = grid.eval_codes(pattern_key(grid, t), m)
        pattern = (codes.shape, _first_occurrence_relabel(codes))
        classes.setdefault(pattern_key(grid, t), []).append(pattern)
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
        ids = term_ids(grid, t, 2)
    else:
        ids = term_ids(grid, t, 2)
        coord_id = grid.intern(coord)
    k = ATOMS.index(c)
    assert term_ids(grid, inner, 2)[k, k] == coord_id
    id_values = _IdValues(grid)
    id_values.add(coord_id, coord)
    for sub in (inner, t):
        id_values.record(sub, 2, ATOM_CELLS)
    assert id_values.value[int(ids[k, k])] == DConst(1)


def _assert_numpy_row_unique(rows):
    distinct, inverse = _grid._unique_rows(rows)
    expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert distinct.dtype == expected.dtype
    assert distinct.shape == expected.shape
    assert np.array_equal(distinct, expected)
    assert inverse.shape == (rows.shape[0],)
    assert np.array_equal(inverse, expected_inverse.reshape(-1))


# Entries a few apart, so rows repeat, and entries whose bytes sort unlike
# their values: negative int64s after the positive ones, 256 before 1.
_ROW_ENTRIES = {
    np.int64: st.one_of(
        st.integers(-2, 2), st.sampled_from([-(2**63), -256, 256, 2**63 - 1])
    ),
    np.uint8: st.sampled_from([0, 1, 2, 127, 128, 255]),
    np.bool_: st.booleans(),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(_ROW_ENTRIES)).flatmap(
        lambda dtype: hnp.arrays(
            dtype,
            st.tuples(st.integers(0, 12), st.integers(0, 5)),
            elements=_ROW_ENTRIES[dtype],
        )
    ),
    st.booleans(),
)
def test_unique_rows_is_numpys_row_unique(rows, transposed):
    # transposed: a view that is not C-contiguous, as a transpose passes it
    _assert_numpy_row_unique(rows.T if transposed else rows)


@pytest.mark.parametrize(
    "rows",
    [
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
        np.zeros((0, 0), dtype=np.uint8),
        np.array([[3], [-1], [3], [0]], dtype=np.int64),
        np.full((5, 4), -7, dtype=np.int64),
        np.ones((3, 2), dtype=bool),
    ],
    ids=["no-rows", "no-columns", "empty", "one-column", "all-equal", "all-equal-bool"],
)
def test_unique_rows_edge_shapes(rows):
    _assert_numpy_row_unique(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(_ROW_ENTRIES)).flatmap(
        lambda dtype: hnp.arrays(
            dtype,
            st.tuples(st.integers(0, 12), st.integers(1, 12)),
            elements=_ROW_ENTRIES[dtype],
        )
    ),
    st.booleans(),
)
def test_row_keys_sort_like_the_rows(rows, transposed):
    # A stable sort of the keys is a lexicographic sort of the rows, for
    # keys of at most 8 bytes (one uint64) and of more (void keys).
    rows = rows.T if transposed and rows.shape[0] else rows
    keys = _grid._row_keys(rows)
    assert keys.shape == (rows.shape[0],)
    wide = rows.itemsize * rows.shape[1] > 8
    assert keys.dtype.kind == ("V" if wide else "u")
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[
        hnp.arrays(np.int64, st.sampled_from([(), (1, 1), (4, 1), (1, 5), (4, 5)]),
                   elements=st.integers(0, 9))
        for _ in range(n)
    ])
))
def test_distinct_tuples_match_a_row_unique_of_every_cell(arrays):
    # Small grids over labels up to 9 take both ways: counted where the
    # codes span no more values than there are cells, sorted otherwise.
    # 0-d arrays (one cell, as the kernel's last signature pair) give 1-D
    # tuples too.
    full = np.broadcast_arrays(*arrays)
    expected, expected_inverse = np.unique(
        np.stack([a.ravel() for a in full], axis=1), axis=0, return_inverse=True
    )
    tuples, inverse = _grid._distinct_tuples(list(arrays))
    assert np.array_equal(np.stack(tuples, axis=1), expected)
    assert np.array_equal(inverse, expected_inverse.reshape(full[0].shape))
    assert inverse.dtype == np.min_scalar_type(len(expected) - 1)
