"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/parse/resource
errors.  The COMMLAB_BUDGET environment variable overrides resource caps:
the element cap of paper-verify and the cube cap of the fin commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from . import elements as el
from . import errors, finengine, terms as terms_mod, verifier
from .elements import Params, element_to_text
from .errors import CommlabError, ParseError
from .terms import default_triple_pool, eval_term
from .textio import parse_term

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RESOURCE = 2


@dataclass
class RunConfig:
    n: int = 2
    j_max: Optional[int] = None
    closure_depth: Optional[int] = None
    max_depth: Optional[int] = None
    budget: Optional[int] = None
    seed: int = 0
    jobs: int = 1
    fmt: str = "text"
    out: Optional[str] = None
    include_timing: bool = True

    def resolve(self) -> "RunConfig":
        # the n = 2 defaults run in about 0.6 s on 2 vCPUs, process start
        # included; larger n falls back to the atom set
        if self.j_max is None:
            self.j_max = 1 if self.n == 2 else 0
        if self.closure_depth is None:
            self.closure_depth = 1 if self.n == 2 else 0
        if self.max_depth is None:
            self.max_depth = 2 if self.n == 2 else 1
        self.budget = _resolve_budget(self.budget, errors.DEFAULT_ELEMENT_CAP)
        for name, value, least in (("max_depth", self.max_depth, 0), ("jobs", self.jobs, 1)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        return self


def _resolve_budget(value: Optional[int], default: int) -> int:
    """The given budget, else COMMLAB_BUDGET, else default; below 1 is an error."""
    if value is None:
        env = os.environ.get("COMMLAB_BUDGET")
        try:
            value = int(env) if env else default
        except ValueError:
            raise ValueError(f"COMMLAB_BUDGET must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"budget must be >= 1, got {value}")
    return value


def _emit_reports(reports, config: RunConfig, stream) -> None:
    for rep in reports:
        if config.fmt == "json":
            stream.write(rep.to_json_line(include_timing=config.include_timing) + "\n")
        else:
            status = "PASS" if rep.passed else "FAIL"
            stream.write(f"[{status}] {rep.name} {json.dumps(rep.params, sort_keys=True)}\n")
            if rep.counts:
                stream.write(f"       counts: {json.dumps(rep.counts, sort_keys=True)}\n")
            if rep.counterexample is not None:
                stream.write(
                    f"       counterexample: {json.dumps(rep.counterexample, sort_keys=True)}\n"
                )


def run_paper_verify(config: RunConfig):
    """All verifier checks in canonical order; returns the report list.  The
    checks are independent, so ``config.jobs`` > 1 runs them on a process
    pool of at most that many workers."""
    config.resolve()
    params = Params(config.n)
    pool = default_triple_pool(params)
    search_domain = el.bounded_subuniverse(
        params, config.j_max, config.closure_depth, cap=config.budget
    )
    atom_domain = params.base_atoms(0)
    lemma_depth = min(config.max_depth, 2)
    checks = [
        partial(verifier.check_nfequal, params, search_domain),
        partial(verifier.check_corner_lemma, params, params.n, atom_domain, lemma_depth, pool),
        partial(verifier.check_term_lemma, params, atom_domain, lemma_depth, pool),
        partial(verifier.verify_top_commutator, params),
        partial(verifier.search_np1_failure, params, search_domain, config.max_depth, 1, pool),
        partial(verifier.search_control, params, search_domain, config.max_depth, 1, pool),
        partial(verifier.run_chain_roundtrips, params, search_domain, count=50, seed=config.seed),
    ]
    if config.jobs == 1:
        return [_call(check) for check in checks]
    with ProcessPoolExecutor(max_workers=min(config.jobs, len(checks))) as workers:
        return list(workers.map(_call, checks))


def _call(check):
    """Run one check and set its report's wall time in ms, on either path."""
    start = time.perf_counter()
    report = check()
    report.millis = int((time.perf_counter() - start) * 1000)
    return report


def load_algebra(path: str) -> finengine.FiniteAlgebra:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    if not isinstance(data, dict) or "size" not in data:
        raise ParseError("algebra file must be an object with a 'size' field")
    size, ops = data["size"], data.get("operations", [])
    _check(_is_int(size) and size >= 1, "'size' must be an integer >= 1")
    _check(isinstance(ops, list), "'operations' must be a list")
    parsed = []
    for i, op in enumerate(ops):
        _check(isinstance(op, dict), f"operation #{i} must be an object")
        for key in ("symbol", "arity", "table"):
            _check(key in op, f"operation #{i}: missing field {key!r}")
        symbol, arity, table = op["symbol"], op["arity"], op["table"]
        _check(isinstance(symbol, str), f"operation #{i}: 'symbol' must be a string")
        _check(_is_int(arity) and arity >= 0, f"operation #{i}: 'arity' must be an integer >= 0")
        ints = isinstance(table, list) and all(map(_is_int, table))
        _check(ints, f"operation #{i}: 'table' must be a list of integers")
        parsed.append((symbol, arity, table))
    try:
        return finengine.FiniteAlgebra.from_tables(size, parsed)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_delta(text: str, size: int) -> finengine.Congruence:
    blocks = json.loads(text)
    _check(
        isinstance(blocks, list)
        and all(isinstance(b, list) and b and all(map(_is_int, b)) for b in blocks),
        "--delta must be a JSON list of nonempty lists of integers",
    )
    return finengine.Congruence(size, tuple(sorted(tuple(sorted(b)) for b in blocks)))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ParseError(message)


def _congruence_text(cong: finengine.Congruence) -> str:
    return "[" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in cong.blocks) + "]"


def cmd_paper_verify(args) -> int:
    config = RunConfig(
        n=args.n, j_max=args.j_max, closure_depth=args.closure_depth,
        max_depth=args.max_depth, budget=args.budget,
        seed=args.seed, jobs=args.jobs, fmt=args.format, out=args.out,
        include_timing=not args.no_timing,
    ).resolve()
    # opened once the bounds are valid but before any check runs, and
    # emptied only once the reports are ready
    stream = open(config.out, "a") if config.out else sys.stdout
    try:
        reports = run_paper_verify(config)
        if config.out:
            stream.truncate(0)
        _emit_reports(reports, config, stream)
    finally:
        if config.out:
            stream.close()
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_eval(args) -> int:
    params = Params(args.n)
    term = parse_term(args.expression)
    unbound = terms_mod.free_vars(term)
    if unbound:
        names = ", ".join(f"x{i}" for i in sorted(unbound))
        raise ParseError(f"term is not closed; unbound variables: {names}")
    for e in _literals(term):
        if not el.well_formed(e, params):
            raise ParseError(f"{element_to_text(e)} is not an element of A({params.n})")
    value = eval_term(term, {}, params)
    print(element_to_text(value))
    return EXIT_OK


def _literals(t: terms_mod.Term):
    """The element literals of a term: its constant leaves and u_pqr triples."""
    if isinstance(t, terms_mod.Const):
        yield t.value
    if isinstance(t, terms_mod.UPQRApp):
        yield from (t.p, t.q, t.r)
    if isinstance(t, (terms_mod.UApp, terms_mod.UPQRApp)):
        yield from _literals(t.arg)
    if isinstance(t, terms_mod.FApp):
        for arg in t.args:
            yield from _literals(arg)


def cmd_fin(args) -> int:
    cap = _resolve_budget(None, errors.DEFAULT_CUBE_CAP)
    alg = load_algebra(args.algebra)
    if args.fin_command == "commutator":
        cong = finengine.higher_commutator(
            alg, [finengine.Congruence.full(alg.size)] * args.m, cap=cap
        )
        print(f"term-condition commutator (m={args.m}): {_congruence_text(cong)}")
    elif args.fin_command == "series":
        series = finengine.central_series(alg, args.max_m, cap=cap)
        for m, theta in enumerate(series, start=2):
            print(f"theta_{m} = {_congruence_text(theta)}")
    elif args.fin_command == "simple":
        print("simple" if finengine.is_simple(alg) else "not simple")
    elif args.fin_command == "tc":
        identity = finengine.Congruence.identity(alg.size)
        delta = _parse_delta(args.delta, alg.size) if args.delta else identity
        holds = finengine.tc_holds(alg, args.m, delta, cap=cap)
        print(f"{args.m}-dimensional term condition relative to "
              f"{_congruence_text(delta)}: {'holds' if holds else 'fails'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="Higher commutators for finite algebras and bounded "
        "verification of the tagged-tuple construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("paper-verify", help="run the full verification suite")
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--j-max", type=int, default=None, dest="j_max")
    pv.add_argument("--closure-depth", type=int, default=None, dest="closure_depth")
    pv.add_argument("--max-depth", type=int, default=None, dest="max_depth")
    pv.add_argument("--budget", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.add_argument("--out", default=None)
    pv.add_argument("--no-timing", action="store_true",
                    help="omit wall-time fields (byte-stable reports)")
    pv.set_defaults(func=cmd_paper_verify)

    ev = sub.add_parser("eval", help="evaluate a closed term")
    ev.add_argument("--n", type=int, default=2)
    ev.add_argument("expression")
    ev.set_defaults(func=cmd_eval)

    fin = sub.add_parser("fin", help="finite-algebra computations")
    finsub = fin.add_subparsers(dest="fin_command", required=True)
    for name, extra in (
        ("commutator", ("m",)),
        ("series", ("max_m",)),
        ("simple", ()),
        ("tc", ("m", "delta")),
    ):
        sp = finsub.add_parser(name)
        sp.add_argument("algebra", help="algebra JSON file, or - for stdin")
        if "m" in extra:
            sp.add_argument("--m", type=int, default=2)
        if "max_m" in extra:
            sp.add_argument("--max-m", type=int, default=3, dest="max_m")
        if "delta" in extra:
            sp.add_argument("--delta", default=None,
                            help="congruence as a JSON block list")
        sp.set_defaults(func=cmd_fin)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_RESOURCE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "n", 2) < 2:
        print("error: --n must be >= 2", file=sys.stderr)
        return EXIT_RESOURCE
    try:
        return args.func(args)
    except (ParseError, CommlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:  # a term, element or JSON input nested past the stack
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_RESOURCE


def console_main() -> None:
    sys.exit(main())


def paper_verify_entry() -> None:
    sys.exit(main(["paper-verify", *sys.argv[1:]]))


if __name__ == "__main__":
    sys.exit(main())
