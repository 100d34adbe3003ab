"""A catalogue of mutants of ``commlab.elements``: which checks catch each.

Each mutant replaces one function of ``elements`` with a defective version,
in every ``commlab`` module that binds it, for one test only.  The test runs
``paper-verify`` in process at the defaults of n = 2 and n = 3 and asserts
the exact set of checks that fail, or the exact exception where the run
raises.  A check that no mutant makes fail is no evidence; this catalogue
shows which checks can fail at all, and which defects none of them sees.
"""

import sys

import pytest

from commlab import elements
from commlab.cli import RunConfig, run_paper_verify
from commlab.elements import AGen, BGen, CConst, DConst, Tagged, sort_key

_eval_u = elements.eval_u
_shift_generator = elements.shift_generator
_eval_f = elements.eval_f
_f0_value = elements.f0_value


def u_cycle_skips_c(e, params):
    # b_n goes to a_1 instead of c; c still goes to a_1
    if isinstance(e, BGen) and e.j == 0 and e.i == params.n:
        return AGen(1, 0)
    return _eval_u(e, params)


def u_fixes_c(e, params):
    return e if isinstance(e, CConst) else _eval_u(e, params)


def u_sends_tag0_to_a1(e, params):
    if isinstance(e, Tagged) and e.tag == 0:
        return AGen(1, 0)
    return _eval_u(e, params)


def shift_no_generator(x):
    return x


def shift_a_generators_only(x):
    return x if isinstance(x, BGen) else _shift_generator(x)


def f_gives_c_on_c(args, params):
    v = _eval_f(args, params)
    return CConst() if isinstance(v, Tagged) and CConst() in args else v


def f_sorts_its_arguments(args, params):
    v = _eval_f(args, params)
    return Tagged(tuple(sorted(v.args, key=sort_key)), v.tag) if isinstance(v, Tagged) else v


def f0_domain_any_generation(args, params):
    return len(args) == params.n and all(
        isinstance(e, (AGen, BGen)) and e.i == pos for pos, e in enumerate(args, start=1)
    )


def f0_constant_d1(args, params):
    _f0_value(args, params)  # the domain check stays
    return DConst(1)


def f0_without_bump(args, params):
    _f0_value(args, params)
    k = 0
    for e in args[:-1]:
        k = 2 * k + isinstance(e, BGen)
    return DConst(k + 1)


def _ill_formed(text):
    return ValueError(f"ill-formed tagged value {text}")


# mutant: (function of elements, its replacement, what fails at n = 2, at n = 3)
# A set names the checks whose reports fail; an exception is what the run
# raises, in np1's grid, which interns the search domain.
MUTANTS = {
    # No check fails at either n.  u is no longer injective (b_n and c both
    # go to a_1) and no longer reaches c, so the algebra is another one; the
    # checks at these bounds do not tell the two apart, and whether the
    # paper's claims hold without u(b_n) = c is not known.
    "u-cycle-skips-c": ("eval_u", u_cycle_skips_c, set(), set()),
    "u-fixes-c": ("eval_u", u_fixes_c, {"simplicity_chains"}, {"simplicity_chains"}),
    "u-sends-tag0-to-a1": (
        "eval_u", u_sends_tag0_to_a1, {"simplicity_chains"}, {"simplicity_chains"}
    ),
    "u_pqr-shifts-no-generator": (
        "shift_generator", shift_no_generator, {"term_lemma", "simplicity_chains"}, {"term_lemma"}
    ),
    "u_pqr-shifts-a-generators-only": (
        "shift_generator", shift_a_generators_only, {"term_lemma"}, {"term_lemma"}
    ),
    "f-gives-c-on-c": ("eval_f", f_gives_c_on_c, {"nfequal"}, {"nfequal"}),
    "f-sorts-its-arguments": (
        "eval_f", f_sorts_its_arguments, _ill_formed("t([a(1,0),a(2,0)],0)"), {"nfequal"}
    ),
    "f0-domain-any-generation": (
        "in_dmn_f0", f0_domain_any_generation, _ill_formed("t([a(1,0),a(2,1)],0)"), set()
    ),
    "f0-constant-d1": (
        "f0_value", f0_constant_d1, {"top_commutator"}, {"top_commutator", "control_search"}
    ),
    "f0-without-bump": (
        "f0_value", f0_without_bump, {"top_commutator"}, {"top_commutator", "control_search"}
    ),
}


def _patch_every_binding(monkeypatch, name, mutant):
    original = getattr(elements, name)
    bound = [
        module for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "commlab" and getattr(module, name, None) is original
    ]
    for module in bound:
        monkeypatch.setattr(module, name, mutant)
    assert elements in bound


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_checks_that_catch_each_mutant(monkeypatch, mutant, n):
    name, replacement, *expected = MUTANTS[mutant]
    expected = expected[n - 2]
    _patch_every_binding(monkeypatch, name, replacement)
    config = RunConfig(n=n, include_timing=False)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            run_paper_verify(config)
        assert str(raised.value) == str(expected)
        assert any(entry.name == "search_np1_failure" for entry in raised.traceback)
    else:
        reports = run_paper_verify(config)
        assert {report.name for report in reports if not report.passed} == expected
