import pickle
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from commlab import errors
from commlab.elements import AGen, BGen, CConst, DConst, Params, Tagged, sort_key, validate_triple
from commlab.errors import BudgetExceededError, InvalidTripleError, ParseError
from commlab.terms import (
    Const,
    FApp,
    UApp,
    UnaryPolynomial,
    UPQRApp,
    Var,
    default_triple_pool,
    eval_poly,
    eval_term,
    free_vars,
    term_at,
    term_layers,
    term_to_text,
)

from oracles import count_terms, depth, enumerate_terms, is_power_of_u_on, u_power

P2 = Params(2)
POOL2 = default_triple_pool(P2)


def test_depth_and_free_vars():
    t = FApp((UApp(Var(0)), Const(DConst(1))))
    assert depth(t) == 2
    assert free_vars(t) == frozenset({0})
    assert free_vars(Const(CConst())) == frozenset()


def test_eval_term():
    t = FApp((Var(0), Var(1)))
    val = eval_term(t, {0: AGen(1, 0), 1: BGen(2, 0)}, P2)
    assert val == DConst(1)
    t2 = UApp(Const(CConst()))
    assert eval_term(t2, {}, P2) == AGen(1, 0)


def test_eval_term_upqr():
    t = UPQRApp(DConst(1), DConst(2), CConst(), Var(0))
    assert eval_term(t, {0: DConst(2)}, P2) == CConst()


def test_upqr_node_validates_triple():
    with pytest.raises(InvalidTripleError):
        UPQRApp(DConst(1), DConst(1), CConst(), Var(0))


def test_unary_polynomial_single_variable():
    UnaryPolynomial(UApp(Var(0)))
    with pytest.raises(ValueError):
        UnaryPolynomial(FApp((Var(0), Var(1))))
    g = UnaryPolynomial(FApp((Var(0), Var(0))))
    assert eval_poly(g, CConst(), P2) == Tagged((CConst(), CConst()), 0)


def test_default_triple_pool():
    pool = default_triple_pool(P2)
    # ordered triples over {d1, d2, d3, c}
    assert len(pool) == 24
    assert pool[0] == (DConst(1), DConst(2), DConst(3))
    assert len(set(pool)) == 24
    pool3 = default_triple_pool(Params(3))
    assert len(pool3) == 6 * 5 * 4
    for n in (2, 3, 4):
        pool = default_triple_pool(Params(n))
        keys = [tuple(map(sort_key, t)) for t in pool]
        assert keys == sorted(keys)
        for t in pool:
            validate_triple(*t)


def test_enumeration_matches_closed_form_count():
    for num_vars, max_depth, expected in (
        (2, 0, 2),
        (2, 1, 56),
        (2, 2, 4538),
        (3, 1, 87),
    ):
        terms = list(enumerate_terms(num_vars, max_depth, POOL2, P2))
        assert len(terms) == expected
        assert count_terms(num_vars, max_depth, len(POOL2), P2) == expected
        assert len(set(terms)) == expected


def test_count_terms_three_block_depth_two():
    assert count_terms(3, 2, len(POOL2), P2) == 9747


def test_enumeration_order_and_depth_layers():
    terms = list(enumerate_terms(2, 1, POOL2, P2))
    assert [term_to_text(t) for t in terms[:6]] == [
        "x0", "x1", "u(x0)", "u(x1)",
        "upqr{d(1);d(2);d(3)}(x0)", "upqr{d(1);d(2);d(3)}(x1)",
    ]
    assert all(depth(t) <= 1 for t in terms)
    # f-applications of depth 1 close the layer
    assert terms[-1] == FApp((Var(1), Var(1)))


@pytest.mark.parametrize("num_vars, max_depth, n", [(2, 2, 2), (3, 1, 2), (4, 1, 3)])
def test_term_layers_match_the_reference_enumeration(num_vars, max_depth, n):
    # The term at every position of the layers is the reference's term
    # there, which is built node by node without the layers.
    params = Params(n)
    pool = default_triple_pool(params)
    layers = list(term_layers(num_vars, max_depth, pool, params))
    total = layers[-1].start + layers[-1].size
    assert [term_at(layers, pos) for pos in range(total)] == list(
        enumerate_terms(num_vars, max_depth, pool, params)
    )


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_TERM_CAP", 100)
    with pytest.raises(BudgetExceededError):
        list(term_layers(2, 2, POOL2, P2))


def test_enumeration_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="max_depth"):
        list(term_layers(2, -1, POOL2, P2))


def test_enumeration_cap_is_exact_at_a_layer_boundary(monkeypatch):
    # Layers are sized before they are built: the 56 terms of depth <= 1
    # fit a cap of 56, and a cap of 55 raises before the depth-1 layer.
    monkeypatch.setattr(errors, "DEFAULT_TERM_CAP", 56)
    assert sum(layer.size for layer in term_layers(2, 1, POOL2, P2)) == 56
    monkeypatch.setattr(errors, "DEFAULT_TERM_CAP", 55)
    layers = term_layers(2, 1, POOL2, P2)
    first = next(layers)
    assert [term_at([first], pos) for pos in range(first.size)] == [Var(0), Var(1)]
    with pytest.raises(BudgetExceededError, match="cap of 55"):
        next(layers)


def test_enumeration_raises_before_an_oversized_layer():
    # At n = 3 the depth-2 layer over four variables holds 168,262,852
    # terms after the 552 of depth <= 1; the cap must stop it before any is
    # built.
    p3 = Params(3)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="to depth 2 needs 168263404 terms"):
            list(term_layers(4, 2, default_triple_pool(p3), p3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def test_u_power_and_recognition():
    assert u_power(CConst(), 5, P2) == CConst()
    assert u_power(AGen(1, 0), 2, P2) == AGen(2, 0)
    samples = [{0: e} for e in P2.base_atoms(0)]
    assert is_power_of_u_on(Var(0), samples, 5, P2) == (0, 0)
    assert is_power_of_u_on(UApp(UApp(Var(0))), samples, 5, P2) == (0, 2)
    assert is_power_of_u_on(FApp((Var(0), Var(0))), samples, 5, P2) is None


def test_term_text_round_trip():
    from commlab.textio import parse_term

    for t in (
        Var(3),
        UApp(FApp((Var(0), Const(DConst(2))))),
        UPQRApp(DConst(1), CConst(), DConst(3), Var(1)),
        Const(Tagged((CConst(), CConst()), 0)),
    ):
        assert parse_term(term_to_text(t)) == t


_atoms = st.one_of(
    st.builds(AGen, st.integers(1, 12), st.integers(0, 12)),
    st.builds(BGen, st.integers(1, 12), st.integers(0, 12)),
    st.builds(DConst, st.integers(1, 12)),
    st.just(CConst()),
)
_literals = st.recursive(
    _atoms,
    lambda ch: st.builds(Tagged, st.lists(ch, min_size=1, max_size=3).map(tuple), st.integers(0, 12)),
    max_leaves=4,
)
_terms = st.recursive(
    st.builds(Var, st.integers(0, 12)) | st.builds(Const, _literals),
    lambda ch: st.one_of(
        st.builds(UApp, ch),
        st.builds(lambda triple, arg: UPQRApp(*triple, arg), st.sampled_from(POOL2), ch),
        st.lists(ch, min_size=1, max_size=3).map(lambda args: FApp(tuple(args))),
    ),
    max_leaves=8,
)


@given(_terms)
def test_term_text_round_trip_property(t):
    from commlab.textio import parse_term

    assert parse_term(term_to_text(t)) == t


@given(_terms)
def test_deleting_one_bracket_of_a_term_text_raises(t):
    from commlab.textio import parse_term

    text = term_to_text(t)
    for i, ch in enumerate(text):
        if ch in "()[]{}":
            with pytest.raises(ParseError):
                parse_term(text[:i] + text[i + 1 :])


@pytest.mark.parametrize(
    "parse, text, position",
    [
        ("term", "x\u0661", 1),  # an Arabic-Indic one: digits are ASCII only
        ("term", "x\u00b2", 1),  # a superscript two
        ("element", "d(\u0662)", 2),
        ("term", "x" + "1" * 5000, 1),  # past the interpreter's limit on digits
        ("element", "a(0,0)", 0),  # the constructors' range checks
        ("element", "d(0)", 0),
        ("term", "f(c,t([b(0,2)],0))", 7),
    ],
    ids=["arabic-indic", "superscript", "element-digit", "too-long", "a-index", "d-index",
         "nested-index"],
)
def test_a_bad_integer_or_index_raises_a_parse_error_at_its_start(parse, text, position):
    from commlab.textio import parse_element, parse_term

    with pytest.raises(ParseError) as info:
        (parse_term if parse == "term" else parse_element)(text)
    assert info.value.position == position


def _rebuilt(t):
    """An equal term built again node by node, sharing no node with t."""
    if isinstance(t, Var):
        return Var(t.idx)
    if isinstance(t, Const):
        return Const(t.value)
    if isinstance(t, UApp):
        return UApp(_rebuilt(t.arg))
    if isinstance(t, UPQRApp):
        return UPQRApp(t.p, t.q, t.r, _rebuilt(t.arg))
    return FApp(tuple(_rebuilt(a) for a in t.args))


def _walk_free_vars(t):
    if isinstance(t, Var):
        return {t.idx}
    if isinstance(t, Const):
        return set()
    if isinstance(t, (UApp, UPQRApp)):
        return _walk_free_vars(t.arg)
    return set().union(*(_walk_free_vars(a) for a in t.args))


def test_equal_terms_hash_alike_and_free_vars_match_a_walk():
    # An equal term built separately, sharing no node, is equal and hashes
    # alike, and free_vars gives the variables of a walk over the term.
    seen = set()
    for t in enumerate_terms(3, 2, POOL2, P2):
        again = _rebuilt(t)
        assert again == t and again is not t
        assert hash(again) == hash(t)
        assert free_vars(t) == _walk_free_vars(t)
        seen.add(again)
    assert all(t in seen for t in enumerate_terms(3, 2, POOL2, P2))
    poly = FApp((UApp(Var(0)), Const(Tagged((CConst(), CConst()), 0))))
    assert hash(_rebuilt(poly)) == hash(poly)
    assert free_vars(poly) == {0}


def test_terms_survive_a_pickle_round_trip():
    t = FApp((UPQRApp(DConst(1), DConst(2), CConst(), Var(0)), UApp(Var(1))))
    again = pickle.loads(pickle.dumps(t))
    assert again == t and hash(again) == hash(t) and free_vars(again) == {0, 1}
    assert again in {t}
