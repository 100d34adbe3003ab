"""The one budget rule: every cap lives in ``commlab.errors`` and every size
check goes through ``errors.check_budget`` before it builds what it counts."""

import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from commlab import elements, errors, finengine
from commlab._grid import SymbolicGrid
from commlab.cli import EXIT_RESOURCE, main
from commlab.cubes import search_tc_witness
from commlab.elements import Params, bounded_subuniverse
from commlab.errors import BudgetExceededError
from commlab.finengine import Congruence, FiniteAlgebra, cube_subpower
from commlab.terms import FApp, Var, default_triple_pool, term_layers
from commlab.verifier import (
    _corner_violation,
    check_corner_lemma,
    check_nfequal,
    corner_violation_in,
)

from gridscan import pattern_key, term_ids

P2 = Params(2)
POOL2 = default_triple_pool(P2)
ATOMS = P2.base_atoms(0)  # 8 elements
F01 = FApp((Var(0), Var(1)))
Z4 = FiniteAlgebra.from_tables(4, [("add", 2, [(i + j) % 4 for i in range(4) for j in range(4)])])
Z4_CUBES = len(cube_subpower(Z4, [Congruence.full(4)] * 2))
# POINTED's subpower at m = 2 is its 6 distinct generators; its 4 + 4
# block-edge cubes and its constant cube, counted with repeats, hold 36 cells.
POINTED = FiniteAlgebra.from_tables(2, [("zero", 0, [0])])
XOR2 = FiniteAlgebra.from_tables(2, [("xor", 2, [0, 1, 1, 0])])
ONE_ODD_CELL = np.zeros((3, 3), dtype=np.int64)
ONE_ODD_CELL[2, 2] = 1


def _patched(name, run):
    """A site that reads the cap ``errors.<name>`` when it checks."""

    def with_cap(monkeypatch, cap):
        monkeypatch.setattr(errors, name, cap)
        return run()

    return with_cap


def _corner_term(grid, t):
    return _corner_violation(grid, pattern_key(grid, t), 2)


def _code_set_subpower(monkeypatch, cap):
    monkeypatch.setattr(finengine, "_BITMAP_MAX_CODES", 1)
    return cube_subpower(Z4, [Congruence.full(4)] * 2, cap=cap)


def _code_set_cells(monkeypatch, cap):
    monkeypatch.setattr(finengine, "_BITMAP_MAX_CODES", 1)
    monkeypatch.setattr(errors, "GRID_CELL_CAP", cap)
    return cube_subpower(Z4, [Congruence.full(4)] * 2)


# (what, needed, unit, run(monkeypatch, cap)): one case per check_budget call
CASES = {
    "terms-depth-0": (
        "term enumeration to depth 0", 3, "terms",
        _patched("DEFAULT_TERM_CAP", lambda: list(term_layers(3, 0, POOL2, P2))),
    ),
    "terms-depth-1": (
        "term enumeration to depth 1", 56, "terms",
        _patched("DEFAULT_TERM_CAP", lambda: list(term_layers(2, 1, POOL2, P2))),
    ),
    "triple-pool": (
        "triple pool", 24, "triples",
        _patched("DEFAULT_TERM_CAP", lambda: default_triple_pool(P2)),
    ),
    "subuniverse-atoms": (
        "bounded subuniverse", 12, "elements",
        lambda mp, cap: bounded_subuniverse(P2, 1, 0, cap=cap),
    ),
    "subuniverse-closure": (
        "bounded subuniverse", len(bounded_subuniverse(P2, 0, 1)), "elements",
        lambda mp, cap: bounded_subuniverse(P2, 0, 1, cap=cap),
    ),
    "f-node": (
        "f-node grid", 64, "cells",
        _patched("F_NODE_CAP", lambda: term_ids(SymbolicGrid(P2, ATOMS), F01, 2)),
    ),
    "nfequal": (
        "nfequal", 64, "tuples",
        _patched("F_NODE_CAP", lambda: check_nfequal(P2, ATOMS)),
    ),
    "fiber-kernel": (
        "fiber kernel grid", 64, "cells",
        _patched("GRID_CELL_CAP", lambda: search_tc_witness(2, 1, ATOMS, POOL2, P2)),
    ),
    "corner-term": (
        "corner-lemma line comparisons", 512, "cells",
        _patched("GRID_CELL_CAP", lambda: _corner_term(SymbolicGrid(P2, ATOMS), F01)),
    ),
    # the boxes of the odd cell's 8 candidates take 4 * 9 + 4 * 6 = 60 cells
    "corner-boxes": (
        "corner-lemma boxes", 60, "cells",
        _patched("GRID_CELL_CAP", lambda: corner_violation_in(ONE_ODD_CELL)),
    ),
    "cube-subpower-bitmap": (
        "cube subpower", Z4_CUBES, "cubes",
        lambda mp, cap: cube_subpower(Z4, [Congruence.full(4)] * 2, cap=cap),
    ),
    "cube-subpower-code-set": ("cube subpower", Z4_CUBES, "cubes", _code_set_subpower),
    "cube-subpower-generator-cells": (
        "cube subpower", 36, "cells",
        _patched("GRID_CELL_CAP", lambda: cube_subpower(POINTED, [Congruence.full(2)] * 2)),
    ),
    "cube-subpower-bitmap-cells": (
        "cube subpower", 4 * Z4_CUBES, "cells",
        _patched("GRID_CELL_CAP", lambda: cube_subpower(Z4, [Congruence.full(4)] * 2)),
    ),
    "cube-subpower-code-set-cells": ("cube subpower", 4 * Z4_CUBES, "cells", _code_set_cells),
    "simplicity-pairs": (
        "simplicity pairs", 4, "cells",
        _patched("GRID_CELL_CAP", lambda: finengine.is_simple(XOR2)),
    ),
}


@pytest.mark.parametrize("what, needed, unit, run", CASES.values(), ids=CASES.keys())
def test_every_budget_check_admits_its_cap_and_refuses_one_more(
    monkeypatch, what, needed, unit, run
):
    run(monkeypatch, needed)
    message = f"{what} needs {needed} {unit}, above the cap of {needed - 1} {unit}"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        run(monkeypatch, needed - 1)


def test_every_check_budget_call_has_a_boundary_case():
    src = pathlib.Path(errors.__file__).parent
    calls = sum(
        len(re.findall(r"(?<!def )\bcheck_budget\(", path.read_text()))
        for path in src.glob("*.py")
    )
    assert calls == len(CASES)


def test_nfequal_at_n5_raises_before_it_evaluates_f(monkeypatch):
    calls = []
    monkeypatch.setattr(elements, "eval_f", lambda *args: calls.append(args))
    p5 = Params(5)
    with pytest.raises(BudgetExceededError, match="nfequal needs 17210368 tuples"):
        check_nfequal(p5, p5.base_atoms(0))
    assert calls == []


def test_the_pool_at_n12_raises_before_it_builds():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="triple pool needs 8602521600 triples"):
            default_triple_pool(Params(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_a_cube_subpower_at_m24_raises_before_it_builds():
    alphas = [Congruence.full(2)] * 24
    tracemalloc.start()
    try:
        # 24 * 4 block-edge cubes of 2**24 vertices each
        with pytest.raises(BudgetExceededError, match="cube subpower needs 1610612736 cells"):
            cube_subpower(XOR2, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_the_atoms_of_a_large_n_are_counted_before_they_are_built(monkeypatch):
    calls = []
    monkeypatch.setattr(Params, "base_atoms", lambda *args: calls.append(args))
    # 2 * 30 generators, 2**29 + 1 d-constants and c
    with pytest.raises(BudgetExceededError, match="bounded subuniverse needs 536870974 elements"):
        bounded_subuniverse(Params(30))
    assert calls == []


@pytest.mark.parametrize(
    "n, named", [("5", "17210368 tuples"), ("12", "8602521600 triples")]
)
def test_paper_verify_past_its_caps_exits_2_at_once(tmp_path, capsys, monkeypatch, n, named):
    calls = []
    monkeypatch.setattr(elements, "eval_f", lambda *args: calls.append(args))
    out = tmp_path / "reports.jsonl"
    out.write_bytes(b"earlier reports\n")
    assert main(["paper-verify", "--n", n]) == EXIT_RESOURCE
    assert main(["paper-verify", "--n", n, "--out", str(out)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1] and named in lines[0]
    assert out.read_bytes() == b"earlier reports\n"
    assert calls == []


def test_one_patch_of_the_grid_cap_reaches_the_search_and_the_corner_lemma(monkeypatch):
    monkeypatch.setattr(errors, "GRID_CELL_CAP", 63)
    with pytest.raises(BudgetExceededError, match="fiber kernel grid needs 64 cells"):
        search_tc_witness(2, 1, ATOMS, POOL2, P2)
    with pytest.raises(BudgetExceededError, match="corner-lemma line comparisons needs 512"):
        check_corner_lemma(P2, 2, ATOMS, 1, POOL2)
