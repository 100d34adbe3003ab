import itertools

import pytest
from hypothesis import given, strategies as st

from commlab.elements import (
    AGen,
    BGen,
    CConst,
    DConst,
    Params,
    Tagged,
    bounded_subuniverse,
    element_to_text,
    eval_f,
    eval_u,
    eval_u_pqr,
    f0_value,
    in_dmn_f0,
    level,
    sort_key,
    validate_triple,
    well_formed,
)
from commlab.errors import (
    BudgetExceededError,
    DomainError,
    InvalidTripleError,
)


def test_params_rejects_small_n():
    with pytest.raises(ValueError):
        Params(1)


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 5), (4, 9)])
def test_d_count(n, expected):
    assert Params(n).d_count == expected


def test_base_atoms_n2():
    texts = [element_to_text(e) for e in Params(2).base_atoms(0)]
    assert texts == [
        "a(1,0)", "a(2,0)", "b(1,0)", "b(2,0)", "d(1)", "d(2)", "d(3)", "c",
    ]


def test_base_atoms_counts():
    assert len(Params(2).base_atoms(1)) == 12
    assert len(Params(3).base_atoms(0)) == 12


def test_base_table_n2():
    p = Params(2)
    a1, a2 = AGen(1, 0), AGen(2, 0)
    b1, b2 = BGen(1, 0), BGen(2, 0)
    assert eval_f((a1, a2), p) == DConst(1)
    assert eval_f((a1, b2), p) == DConst(1)
    assert eval_f((b1, a2), p) == DConst(2)
    assert eval_f((b1, b2), p) == DConst(3)


def test_base_table_n3():
    p = Params(3)
    a = [AGen(i, 0) for i in range(1, 4)]
    b = [BGen(i, 0) for i in range(1, 4)]
    assert eval_f((a[0], a[1], a[2]), p) == DConst(1)
    assert eval_f((a[0], a[1], b[2]), p) == DConst(1)
    assert eval_f((a[0], b[1], a[2]), p) == DConst(2)
    assert eval_f((b[0], a[1], b[2]), p) == DConst(3)
    assert eval_f((b[0], b[1], a[2]), p) == DConst(4)
    assert eval_f((b[0], b[1], b[2]), p) == DConst(5)


def test_base_table_last_argument_only_matters_when_all_b():
    # the first n-1 generator choices determine the value except on the
    # all-b row
    p = Params(3)
    for last in (AGen(3, 0), BGen(3, 0)):
        args = (BGen(1, 0), AGen(2, 0), last)
        assert eval_f(args, p) == DConst(3)


def test_in_dmn_f0_is_positional():
    p = Params(2)
    assert in_dmn_f0((AGen(1, 0), BGen(2, 0)), p)
    assert not in_dmn_f0((AGen(2, 0), AGen(1, 0), ), p)
    assert not in_dmn_f0((AGen(1, 1), BGen(2, 0)), p)
    assert not in_dmn_f0((DConst(1), BGen(2, 0)), p)


def test_f0_value_rejects_off_table():
    with pytest.raises(DomainError):
        f0_value((DConst(1), DConst(1)), Params(2))


def test_eval_f_off_table_tags_by_level():
    p = Params(2)
    t0 = eval_f((CConst(), CConst()), p)
    assert t0 == Tagged((CConst(), CConst()), 0)
    t1 = eval_f((t0, DConst(1)), p)
    assert t1.tag == 1
    assert level(t1) == 2
    t2 = eval_f((t1, t0), p)
    assert t2.tag == 2


def test_eval_f_arity_check():
    with pytest.raises(DomainError):
        eval_f((CConst(),), Params(2))


def test_u_cycle_n2():
    p = Params(2)
    start = AGen(1, 0)
    orbit = [start]
    for _ in range(4):
        orbit.append(eval_u(orbit[-1], p))
    assert orbit == [
        AGen(1, 0), BGen(1, 0), AGen(2, 0), BGen(2, 0), CConst(),
    ]
    assert eval_u(CConst(), p) == AGen(1, 0)


def test_u_order_is_2n_plus_1():
    for n in (2, 3):
        p = Params(n)
        x = CConst()
        seen = set()
        for _ in range(2 * n + 1):
            seen.add(x)
            x = eval_u(x, p)
        assert x == CConst()
        assert len(seen) == 2 * n + 1


def test_u_fixes_everything_else():
    p = Params(2)
    for e in (DConst(1), DConst(3), AGen(1, 1), BGen(2, 5),
              Tagged((CConst(), CConst()), 0)):
        assert eval_u(e, p) == e


def test_validate_triple():
    validate_triple(DConst(1), DConst(2), CConst())
    with pytest.raises(InvalidTripleError):
        validate_triple(DConst(1), DConst(1), CConst())
    with pytest.raises(InvalidTripleError):
        validate_triple(DConst(1), DConst(2), AGen(1, 0))


def test_u_pqr_rotates_triple_and_shifts_generators():
    p = Params(2)
    d1, d2, c = DConst(1), DConst(2), CConst()
    assert eval_u_pqr(d1, d2, c, d1, p) == d2
    assert eval_u_pqr(d1, d2, c, d2, p) == c
    assert eval_u_pqr(d1, d2, c, c, p) == d1
    assert eval_u_pqr(d1, d2, c, DConst(3), p) == DConst(3)
    assert eval_u_pqr(d1, d2, c, AGen(1, 0), p) == AGen(1, 1)
    assert eval_u_pqr(d1, d2, c, BGen(2, 3), p) == BGen(2, 4)
    tg = Tagged((c, c), 0)
    assert eval_u_pqr(d1, d2, c, tg, p) == tg


def test_sort_key_total_order():
    elems = [
        AGen(1, 0), AGen(1, 1), AGen(2, 0), BGen(1, 0), DConst(1),
        DConst(2), CConst(), Tagged((DConst(1), DConst(1)), 0),
        Tagged((CConst(), CConst()), 0),
        Tagged((Tagged((CConst(), CConst()), 0), CConst()), 1),
    ]
    assert sorted(elems, key=sort_key) == elems
    keys = [sort_key(e) for e in elems]
    assert len(set(keys)) == len(keys)


def test_well_formed():
    p = Params(2)
    assert well_formed(AGen(2, 3), p)
    assert not well_formed(AGen(3, 0), p)
    assert not well_formed(DConst(4), p)
    assert well_formed(Tagged((CConst(), CConst()), 0), p)
    # wrong tag
    assert not well_formed(Tagged((CConst(), CConst()), 1), p)
    # base-table tuples never appear tagged
    assert not well_formed(Tagged((AGen(1, 0), BGen(2, 0)), 0), p)
    assert not well_formed(Tagged((CConst(),), 0), p)


def test_bounded_subuniverse_sizes():
    p = Params(2)
    assert len(bounded_subuniverse(p, 0, 0)) == 8
    assert len(bounded_subuniverse(p, 1, 0)) == 12
    assert len(bounded_subuniverse(p, 0, 1)) == 68
    assert len(bounded_subuniverse(p, 1, 1)) == 152


def test_bounded_subuniverse_canonical_and_closed():
    p = Params(2)
    s0 = bounded_subuniverse(p, 0, 0)
    s1 = bounded_subuniverse(p, 0, 1)
    assert s1 == sorted(s1, key=sort_key)
    assert set(s0) <= set(s1)
    closed = set(s1)
    for args in itertools.product(s0, repeat=2):
        assert eval_f(args, p) in closed


def test_bounded_subuniverse_cap():
    with pytest.raises(BudgetExceededError):
        bounded_subuniverse(Params(2), 1, 2, cap=1000)


def test_bounded_subuniverse_cap_counts_the_atoms():
    # no closure round runs at closure depth 0, so only the atoms meet the cap
    message = "bounded subuniverse needs 12 elements, above the cap of 11 elements"
    with pytest.raises(BudgetExceededError, match=message):
        bounded_subuniverse(Params(2), 1, 0, cap=11)
    assert bounded_subuniverse(Params(2), 1, 0, cap=12) == Params(2).base_atoms(1)


def test_element_text():
    assert element_to_text(AGen(1, 2)) == "a(1,2)"
    assert element_to_text(Tagged((DConst(1), CConst()), 0)) == "t([d(1),c],0)"


_P2 = Params(2)

_atoms = st.one_of(
    st.builds(AGen, st.integers(1, 2), st.integers(0, 3)),
    st.builds(BGen, st.integers(1, 2), st.integers(0, 3)),
    st.builds(DConst, st.integers(1, 3)),
    st.just(CConst()),
)
# building nested values through eval_f keeps them well formed
_elements = st.recursive(
    _atoms,
    lambda ch: st.builds(lambda a, b: eval_f((a, b), _P2), ch, ch),
    max_leaves=6,
)


@given(_elements)
def test_text_round_trip_property(e):
    from commlab.textio import parse_element

    assert parse_element(element_to_text(e)) == e
    assert well_formed(e, _P2)


@given(_elements)
def test_u_has_order_dividing_cycle_length(e):
    x = e
    for _ in range(2 * _P2.n + 1):
        x = eval_u(x, _P2)
    assert x == e


@given(_elements)
def test_u_pqr_fixed_points_and_shift(e):
    out = eval_u_pqr(DConst(1), DConst(2), DConst(3), e, _P2)
    if isinstance(e, (AGen, BGen)):
        assert (out.i, out.j) == (e.i, e.j + 1)
    elif e in (DConst(1), DConst(2), DConst(3)):
        assert out != e
    else:
        assert out == e
