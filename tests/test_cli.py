import json
import pathlib
import sys

import pytest

from commlab import finengine
from commlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    RunConfig,
    console_main,
    load_algebra,
    main,
    paper_verify_entry,
    run_paper_verify,
)
from commlab.elements import AGen, CConst, DConst, Tagged
from commlab.errors import ParseError
from commlab.finengine import Congruence
from commlab.textio import parse_element, parse_term


def write_algebra(tmp_path, name, size, ops):
    path = tmp_path / name
    path.write_text(json.dumps({
        "size": size,
        "operations": [
            {"symbol": s, "arity": a, "table": t} for s, a, t in ops
        ],
    }))
    return str(path)


def test_parse_element_round_trip():
    for text in ("a(1,0)", "b(2,3)", "d(1)", "c", "t([c,c],0)",
                 "t([t([c,c],0),d(2)],1)"):
        assert str_round_trip(text)


def str_round_trip(text):
    from commlab.elements import element_to_text
    return element_to_text(parse_element(text)) == text


def test_parse_element_errors():
    for bad in ("", "e(1,2)", "a(1)", "d()", "t([c],)", "c extra"):
        with pytest.raises(ParseError):
            parse_element(bad)


def test_parse_term_whitespace_insensitive():
    t = parse_term(" f( x0 , u( c ) ) ")
    from commlab.terms import Const, FApp, UApp, Var
    assert t == FApp((Var(0), UApp(Const(CConst()))))


def test_parse_term_errors():
    for bad in ("", "f(x0", "x", "f(x0,,x1)"):
        with pytest.raises(ParseError):
            parse_term(bad)


def test_parse_term_validates_triples():
    from commlab.errors import InvalidTripleError

    with pytest.raises(InvalidTripleError):
        parse_term("upqr{d(1);d(1);c}(x0)")


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("f(a(1,0),b(2,0))", "d(1)"),
        ("u(c)", "a(1,0)"),
        ("f(c,c)", "t([c,c],0)"),
        ("upqr{d(1);d(2);c}(d(2))", "c"),
        ("u(u(u(u(u(c)))))", "c"),
    ],
)
def test_eval_command(capsys, expr, expected):
    assert main(["eval", expr]) == EXIT_OK
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize(
    "expr,literal",
    [
        ("f(a(3,0),c)", "a(3,0)"),  # generator index above n
        ("d(9)", "d(9)"),  # d-constant index above 2^(n-1)+1
        ("u(t([a(1,0),b(2,0)],0))", "t([a(1,0),b(2,0)],0)"),  # in f's base table
        ("f(t([c,c],5),c)", "t([c,c],5)"),  # wrong tag
        ("upqr{d(1);d(9);c}(c)", "d(9)"),  # a triple coordinate
    ],
)
def test_eval_rejects_a_literal_outside_the_algebra(capsys, expr, literal):
    assert main(["eval", "--n", "2", expr]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {literal} is not an element of A(2)" in captured.err


def test_eval_command_parse_error(capsys):
    assert main(["eval", "f(x0,"]) == EXIT_RESOURCE
    assert "error:" in capsys.readouterr().err


def test_eval_open_term_reports_error(capsys):
    assert main(["eval", "f(x0,x1)"]) == EXIT_RESOURCE


def test_n_below_two_rejected(capsys):
    assert main(["paper-verify", "--n", "1"]) == EXIT_RESOURCE
    assert "must be >= 2" in capsys.readouterr().err


def test_unknown_command_exit_code():
    assert main(["no-such-command"]) == EXIT_RESOURCE


def test_run_config_resolution():
    cfg = RunConfig(n=2).resolve()
    assert (cfg.j_max, cfg.closure_depth, cfg.max_depth) == (1, 1, 2)
    cfg3 = RunConfig(n=3).resolve()
    assert (cfg3.j_max, cfg3.closure_depth, cfg3.max_depth) == (0, 0, 1)


@pytest.mark.parametrize(
    "flag,value",
    [("--max-depth", "-1"), ("--jobs", "0"), ("--jobs", "-3"), ("--budget", "-5")],
)
def test_paper_verify_rejects_a_bad_bound(capsys, flag, value):
    # a bound out of range is a usage error, found before any check runs
    assert main(["paper-verify", flag, value, "--format", "json"]) == EXIT_RESOURCE
    out = capsys.readouterr()
    assert out.out == ""
    assert flag[2:].replace("-", "_") in out.err


def test_load_algebra(tmp_path):
    path = write_algebra(tmp_path, "semi.json", 2, [("meet", 2, [0, 0, 0, 1])])
    alg = load_algebra(path)
    assert alg.size == 2
    assert alg.operations[0].symbol == "meet"


def test_load_algebra_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"operations": []}))
    with pytest.raises(ParseError):
        load_algebra(str(bad))
    bad.write_text(json.dumps({"size": 2, "operations": [{"symbol": "f"}]}))
    with pytest.raises(ParseError):
        load_algebra(str(bad))
    bad.write_text(json.dumps({"size": 2, "operations": [
        {"symbol": "f", "arity": 1, "table": [0, 5]}]}))
    with pytest.raises(ParseError):
        load_algebra(str(bad))


@pytest.mark.parametrize(
    "data",
    [
        {"size": 2, "operations": [1]},
        {"size": "2", "operations": []},
        {"size": True, "operations": []},
        {"size": 0, "operations": []},
        {"size": 2, "operations": {"symbol": "f"}},
        {"size": 2, "operations": [{"symbol": "f", "arity": 1, "table": 5}]},
        {"size": 2, "operations": [{"symbol": "f", "arity": "1", "table": [0, 1]}]},
        {"size": 2, "operations": [{"symbol": 7, "arity": 1, "table": [0, 1]}]},
        {"size": 2, "operations": [{"symbol": "f", "arity": 1, "table": [0, "1"]}]},
    ],
    ids=[
        "operation-not-object", "size-str", "size-bool", "size-zero",
        "operations-not-list", "table-int", "arity-str", "symbol-int", "table-entry-str",
    ],
)
def test_fin_rejects_malformed_algebra_files(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_algebra(str(path))
    assert main(["fin", "simple", str(path)]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("delta", ["[1]", "[[]]", "[[0], [true]]", '{"0": [0, 1]}', "[[0], [0, 1]]"])
def test_fin_tc_rejects_a_malformed_delta(tmp_path, capsys, delta):
    semi = write_algebra(tmp_path, "semi.json", 2, [("meet", 2, [0, 0, 0, 1])])
    assert main(["fin", "tc", semi, "--delta", delta]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: ")


def test_fin_commutator_and_simple(tmp_path, capsys):
    semi = write_algebra(tmp_path, "semi.json", 2, [("meet", 2, [0, 0, 0, 1])])
    assert main(["fin", "commutator", semi, "--m", "2"]) == EXIT_OK
    assert "{0,1}" in capsys.readouterr().out
    assert main(["fin", "simple", semi]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "simple"
    z4 = write_algebra(
        tmp_path, "z4.json", 4,
        [("add", 2, [(i + j) % 4 for i in range(4) for j in range(4)])],
    )
    assert main(["fin", "simple", z4]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "not simple"


def test_fin_series_and_tc(tmp_path, capsys):
    z2 = write_algebra(
        tmp_path, "z2.json", 2,
        [("add", 2, [0, 1, 1, 0]), ("neg", 1, [0, 1]), ("zero", 0, [0])],
    )
    assert main(["fin", "series", z2, "--max-m", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "theta_2 = [{0}, {1}]" in out
    assert "theta_3 = [{0}, {1}]" in out
    assert main(["fin", "tc", z2, "--m", "2"]) == EXIT_OK
    assert "holds" in capsys.readouterr().out
    semi = write_algebra(tmp_path, "semi.json", 2, [("meet", 2, [0, 0, 0, 1])])
    assert main(["fin", "tc", semi, "--m", "2"]) == EXIT_OK
    assert "fails" in capsys.readouterr().out
    assert main([
        "fin", "tc", semi, "--m", "2", "--delta", "[[0,1]]",
    ]) == EXIT_OK
    assert "holds" in capsys.readouterr().out


def test_fin_honours_the_budget_as_cube_cap(tmp_path, capsys, monkeypatch):
    z4 = write_algebra(
        tmp_path, "z4.json", 4,
        [("add", 2, [(i + j) % 4 for i in range(4) for j in range(4)])],
    )
    monkeypatch.setenv("COMMLAB_BUDGET", "5")
    for argv in (
        ["fin", "commutator", z4, "--m", "2"],
        ["fin", "series", z4, "--max-m", "2"],
        ["fin", "tc", z4, "--m", "2"],
    ):
        assert main(argv) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert "cap of 5 cubes" in captured.err
        assert captured.out == ""
    monkeypatch.setenv("COMMLAB_BUDGET", "64")
    assert main(["fin", "commutator", z4, "--m", "2"]) == EXIT_OK


def test_fin_series_that_fails_to_descend_exits_2(tmp_path, capsys, monkeypatch):
    def rising(alg, alphas, cap):
        size = alg.size
        return Congruence.full(size) if len(alphas) > 2 else Congruence.identity(size)

    monkeypatch.setattr(finengine, "higher_commutator", rising)
    z2 = write_algebra(tmp_path, "z2.json", 2, [("add", 2, [0, 1, 1, 0])])
    assert main(["fin", "series", z2, "--max-m", "3"]) == EXIT_RESOURCE
    assert "failed to descend" in capsys.readouterr().err


def test_fin_missing_file(capsys):
    assert main(["fin", "simple", "/no/such/file.json"]) == EXIT_RESOURCE


def test_paper_verify_fast_bounds_json(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    code = main([
        "paper-verify", "--n", "2", "--j-max", "0", "--closure-depth", "0",
        "--max-depth", "1", "--format", "json", "--no-timing",
        "--out", str(out_path),
    ])
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["name"] for r in records] == [
        "nfequal", "corner_lemma", "term_lemma", "top_commutator",
        "np1_no_failure", "control_search", "simplicity_chains",
    ]
    assert all(r["outcome"] == "pass" for r in records)
    assert all("millis" not in r for r in records)


def test_paper_verify_budget_counts_the_atoms(capsys):
    # the 12 atoms at j_max 1 are over a budget of 3 before any closure round
    argv = ["paper-verify", "--n", "2", "--closure-depth", "0", "--budget", "3"]
    assert main(argv) == EXIT_RESOURCE
    out = capsys.readouterr()
    assert out.out == ""
    assert "bounded subuniverse needs 12 elements, above the cap of 3 elements" in out.err


def test_paper_verify_rejects_an_unwritable_out_before_any_check(tmp_path, monkeypatch):
    import commlab.cli as cli_mod

    def no_run(config):
        raise AssertionError("a check ran before --out was opened")

    monkeypatch.setattr(cli_mod, "run_paper_verify", no_run)
    out = tmp_path / "missing" / "reports.jsonl"
    assert main(["paper-verify", "--format", "json", "--out", str(out)]) == EXIT_RESOURCE
    assert not out.parent.exists()


def test_a_failed_run_leaves_an_existing_out_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    out.write_bytes(b"earlier reports\n")
    argv = ["paper-verify", "--n", "3", "--max-depth", "2", "--out", str(out)]
    assert main(argv) == EXIT_RESOURCE
    assert "term enumeration to depth 2 needs 60746013 terms" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier reports\n"


def test_paper_verify_out_replaces_an_existing_file(tmp_path):
    out = tmp_path / "reports.jsonl"
    out.write_text("x" * 10**5)
    argv = ["paper-verify", "--n", "2", "--j-max", "0", "--closure-depth", "0",
            "--max-depth", "1", "--format", "json", "--no-timing", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "paper_verify_n2_j0_c0_d1.jsonl").read_bytes()


def test_paper_verify_text_output(capsys):
    code = main([
        "paper-verify", "--n", "2", "--j-max", "0", "--closure-depth", "0",
        "--max-depth", "1",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7
    assert "[FAIL]" not in out


def test_paper_verify_small_domain_at_depth_two():
    # 8 elements: every search runs on the grid kernels, where a
    # lexicographic scan took seconds per term that uses all three blocks.
    reports = run_paper_verify(RunConfig(n=2, j_max=0, closure_depth=0, max_depth=2))
    assert all(r.passed for r in reports)
    np1 = next(r for r in reports if r.name == "np1_no_failure")
    assert np1.counts == {
        "terms_scanned": 9747,
        "assignments_scanned": 9747 * 8**6,
    }
    assert 9747 * 8**6 == 2555117568


def test_paper_verify_reports_do_not_depend_on_jobs():
    lines = {}
    for jobs in (1, 2, 3):
        config = RunConfig(n=2, j_max=0, closure_depth=0, max_depth=2, jobs=jobs)
        lines[jobs] = [r.to_json_line(include_timing=False) for r in run_paper_verify(config)]
    assert len(lines[1]) == 7
    assert lines[1] == lines[2] == lines[3]


GOLDEN = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "j_max,closure_depth,max_depth", [(0, 0, 1), (1, 0, 1), (1, 0, 2), (0, 1, 2)]
)
def test_paper_verify_matches_its_golden_report(j_max, closure_depth, max_depth):
    # The --no-timing JSON lines recorded before the witness kernels were
    # merged; the defaults are compared in test_criterion_8_determinism.
    config = RunConfig(
        n=2, j_max=j_max, closure_depth=closure_depth, max_depth=max_depth,
        include_timing=False,
    )
    text = "".join(r.to_json_line(include_timing=False) + "\n" for r in run_paper_verify(config))
    golden = GOLDEN / f"paper_verify_n2_j{j_max}_c{closure_depth}_d{max_depth}.jsonl"
    assert text.encode() == golden.read_bytes()


SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "docs" / "report-schema.json").read_text()
)
SCHEMA_TYPES = {"object": dict, "string": str, "integer": int, "null": type(None)}


def schema_errors(value, schema, path="record"):
    """The violations of the schema keywords the report schema uses: type,
    enum, minimum, required, properties and additionalProperties."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(
        isinstance(value, SCHEMA_TYPES[t]) and not isinstance(value, bool) for t in types
    ):
        return [f"{path}: {value!r} is not of type {types}"]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: {value!r} is below {schema['minimum']}")
    if isinstance(value, dict):
        errors += [f"{path}: {key!r} is missing" for key in schema.get("required", ())
                   if key not in value]
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties", True))
            if sub is False:
                errors.append(f"{path}: {key!r} is not allowed")
            elif isinstance(sub, dict):
                errors += schema_errors(item, sub, f"{path}.{key}")
    return errors


def test_the_schema_check_rejects_records_the_schema_forbids():
    good = {"name": "nfequal", "params": {"n": 2}, "outcome": "pass",
            "counterexample": None, "counts": {"k": "v"}, "millis": 3}
    assert schema_errors(good, SCHEMA) == []
    for bad in (
        {**good, "extra": 1},
        {**good, "name": "nope"},
        {**good, "outcome": "budget"},
        {**good, "millis": -1},
        {**good, "millis": 1.5},
        {**good, "counts": {"k": True}},
        {**good, "params": {"n": [2]}},
        {key: v for key, v in good.items() if key != "counts"},
    ):
        assert schema_errors(bad, SCHEMA), bad


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN.glob("paper_verify_*.jsonl")), ids=lambda path: path.stem
)
def test_golden_reports_match_the_report_schema(golden):
    records = [json.loads(line) for line in golden.read_text().splitlines()]
    assert [r["name"] for r in records] == SCHEMA["properties"]["name"]["enum"]
    for rec in records:
        assert schema_errors(rec, SCHEMA) == []
        assert "millis" not in rec


@pytest.mark.parametrize("jobs", [1, 2])
def test_timed_reports_match_the_report_schema(tmp_path, jobs):
    # The runner times every check, in the pool's workers too; a direct
    # call to a check leaves millis at 0.
    out_path = tmp_path / "reports.jsonl"
    assert main([
        "paper-verify", "--n", "2", "--j-max", "0", "--closure-depth", "0",
        "--max-depth", "1", "--format", "json", "--jobs", str(jobs), "--out", str(out_path),
    ]) == EXIT_OK
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["name"] for r in records] == SCHEMA["properties"]["name"]["enum"]
    for rec in records:
        assert schema_errors(rec, SCHEMA) == []
        assert isinstance(rec["millis"], int) and rec["millis"] >= 0
    assert sum(r["millis"] for r in records) > 0


def test_the_runner_sets_millis_and_a_direct_call_does_not(monkeypatch):
    import commlab.cli as cli_mod
    from commlab import verifier
    from commlab.elements import Params

    params = Params(2)
    assert verifier.verify_top_commutator(params).millis == 0
    clock = iter([10.0, 10.25])
    monkeypatch.setattr(cli_mod.time, "perf_counter", lambda: next(clock))
    assert cli_mod._call(lambda: verifier.verify_top_commutator(params)).millis == 250


def test_paper_verify_starts_no_more_workers_than_checks(monkeypatch):
    import commlab.cli as cli_mod

    started = []

    class InProcessExecutor:
        """Records its worker count and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InProcessExecutor)
    bounds = dict(n=2, j_max=0, closure_depth=0, max_depth=1)
    reports = run_paper_verify(RunConfig(jobs=64, **bounds))
    assert started == [7]
    sequential = run_paper_verify(RunConfig(jobs=1, **bounds))
    assert started == [7]
    assert [r.to_json_line(include_timing=False) for r in reports] == [
        r.to_json_line(include_timing=False) for r in sequential
    ]


def test_a_budget_hit_in_a_worker_exits_2_as_in_a_sequential_run(capsys):
    # at n = 3 the depth-2 layer of terms is over the term cap
    errs = {}
    for jobs in ("1", "2"):
        argv = ["paper-verify", "--n", "3", "--max-depth", "2", "--jobs", jobs]
        assert main(argv) == EXIT_RESOURCE
        out = capsys.readouterr()
        assert out.out == ""
        errs[jobs] = out.err
    assert "term enumeration to depth 2 needs 60746013 terms" in errs["1"]
    assert errs["2"] == errs["1"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("n", ["3", "4"])
def test_paper_verify_defaults_match_their_golden_report(tmp_path, n, jobs):
    # np1 searches dimension n + 1 exactly: a vacuous pass, since no depth-1
    # term of the n-ary f uses all n + 1 blocks
    out = tmp_path / f"n{n}.jsonl"
    argv = ["paper-verify", "--n", n, "--format", "json", "--no-timing",
            "--jobs", jobs, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"paper_verify_n{n}_defaults.jsonl").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["fin", "commutator", "ALG"], ["paper-verify", "--max-depth", "0", "--format", "json"]],
    ids=["fin", "paper-verify"],
)
@pytest.mark.parametrize(
    "budget,message",
    [("0", "budget must be >= 1, got 0"), ("ten", "COMMLAB_BUDGET must be an integer, got 'ten'")],
    ids=["zero", "not-an-integer"],
)
def test_a_bad_budget_from_the_environment_exits_2(
    tmp_path, capsys, monkeypatch, argv, budget, message
):
    # COMMLAB_BUDGET is read in one place, for the cube cap and the element cap
    z2 = write_algebra(tmp_path, "z2.json", 2, [("add", 2, [0, 1, 1, 0])])
    monkeypatch.setenv("COMMLAB_BUDGET", budget)
    assert main([z2 if arg == "ALG" else arg for arg in argv]) == EXIT_RESOURCE
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_block_len_flag_is_gone(capsys):
    assert main(["paper-verify", "--block-len", "1"]) == EXIT_RESOURCE
    assert "--block-len" in capsys.readouterr().err


def test_console_entry_points(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["commlab", "eval", "f(a(1,0),b(2,0))"])
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.strip() == "d(1)"
    monkeypatch.setattr(sys, "argv", [
        "paper-verify", "--n", "2", "--j-max", "0", "--closure-depth", "0",
        "--max-depth", "1", "--format", "json", "--no-timing",
    ])
    with pytest.raises(SystemExit) as exc:
        paper_verify_entry()
    assert exc.value.code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["outcome"] for line in lines] == ["pass"] * 7
