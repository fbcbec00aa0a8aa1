"""Command-line interface for the BIST library.

Entry point: ``python -m repro <command>``.

Commands:

``run``
    Build a BIST unit (architecture + algorithm + memory geometry),
    optionally inject faults, run the self-test and print the verdict —
    with ``--diagnose`` the full diagnostic flow (fail log, bitmap,
    classification) follows a failure.
``assemble``
    Print an algorithm's microcode or SM program (or the tester
    interchange file) without running anything.
``algorithms``
    List the library algorithms with complexity and notation.
``recommend``
    Pick the cheapest library algorithm covering a set of fault
    classes (measured coverage, not citation).
``report``
    Render a markdown datasheet for a configuration (geometry,
    program listing, measured coverage, area breakdown).
``lint``
    Statically verify algorithms/programs without running them: CFG +
    abstract-interpretation termination proof + the rule catalogue of
    ``docs/ANALYSIS.md``.  Exits 1 when any error-severity finding is
    reported, so it can gate a program load in CI or on a tester.
    ``--target progfsm`` compiles and verifies the upper-buffer program
    (``PF`` rules); ``--target coverage`` statically proves per-fault
    coverage and reports escapes (``CV`` rules); ``--fix`` applies the
    mechanical microcode fixes to an interchange file in place.
``certify``
    Run the static fault-coverage prover: one verdict (covered /
    not-covered / unknown) per fault of the standard universe, each
    covered verdict carrying a failing-read witness op index.
    ``--cross-check`` validates every verdict fault-for-fault against a
    simulated sweep and exits 1 on any disagreement (the CI gate).
``fuzz``
    Run the verifier-vs-simulator fuzz harness: random well-formed
    march algorithms over random geometries, each checked for exact
    agreement between the static analyses and the cycle-accurate
    controllers of both programmable architectures, plus op-for-op
    behavioural equivalence of all three architectures against the
    golden march expansion (identity d), response equivalence on a
    randomly faulted memory (e), cross-checked against the projected
    sweep engine (g), the coverage certificate against a simulated
    sweep (f), an in-field transparent session (h), an interrupted-
    then-resumed sweep (i) and a pseudo-ring session (j); ``--skip
    e,g`` leaves the named identities out (skipping e also skips g).
    Exits 1 on any mismatch, so CI can gate on it; ``--report FILE``
    writes the JSON artifact (failing samples carry minimised
    reproducers).
``sweep``
    The fault sweep: every architecture's BIST session runs against
    the *same injected fault* and the fail events, fail-log
    aggregations and diagnosis are compared (``--fault SPEC``, or a
    stratified/``--full-universe`` sample of the standard fault
    universe).  Repeatable ``--geometry WxBxP`` flags give one report
    with a section per geometry; ``--mode concurrent|infield``
    switches the stimulus regime to the same-cycle dual-port expansion
    or a deterministic in-field transparent session; ``--engine
    vector`` picks the projected engine and ``--cross-engine`` runs
    both and compares their payloads.  Runs on the crash-tolerant job
    engine (``docs/SERVICE.md``): ``--jobs N`` shards with a
    jobs-independent report, per-shard timeouts, bounded retry, crash
    quarantine, and — with ``--store DIR`` — content-hashed shard
    checkpoints so an interrupted sweep resumes (``--resume``) and an
    identical rerun is pure cache hits.  SIGINT writes the partial
    report (marked ``"interrupted": true``) and exits 130.
``serve``
    File-backed sweep sessions in the BIST controller handshake idiom:
    ``submit`` configures (prints the content-addressed session id),
    ``run`` starts or resumes, ``status`` polls, ``collect`` returns
    the report.
``conformance``
    Differential conformance tooling: ``run`` checks one algorithm (or
    ``--all``) op-for-op across the architectures with a structured
    first-divergence report (the faulty-memory differential is
    ``sweep``);
    ``shrink`` delta-debugs a failing sample (``--sample
    SEED:INDEX`` from a fuzz report, or ``--notation``) to a minimal
    reproducer — with ``--fault SPEC`` the shrink runs over all three
    axes (march, geometry, fault); ``record`` (re)writes the
    golden-trace corpus under ``tests/corpus/`` (``--streams`` for the
    classical/transparent stream corpus) or promotes fuzz-report
    mismatches into ``tests/corpus/regressions/`` (``--from-report``);
    ``corpus-check`` validates every checked-in trace (used by CI).

Fault specifications for ``run --fault`` use small colon-separated
forms, e.g. ``saf:word:bit:value``::

    saf:3:0:1        stuck-at-1 at cell (3,0)
    tf:4:0:up        up-transition fault at cell (4,0)
    drf:5:0:1        data-retention fault losing 1 at cell (5,0)
    sof:6:0:1        stuck-open (weak 1) at cell (6,0)
    cfin:0:0:1:0:up  inversion coupling, aggressor (0,0) -> victim (1,0)
    af1:3            address 3 selects no cell
    af3:2:6          addresses 2 and 6 share one cell
    paf:1:3:0        cell (3,0) disconnected from port 1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.controller import ControllerCapabilities
from repro.core.bist_unit import MemoryBistUnit
from repro.core.hardwired import HardwiredBistController
from repro.core.microcode import MicrocodeBistController, assemble as assemble_microcode
from repro.core.microcode.disassembler import disassemble
from repro.core.programming import dump_program
from repro.core.progfsm import ProgrammableFsmBistController, compile_to_sm
from repro.faults.spec import FaultSpecError, parse_fault
from repro.march import library
from repro.march.notation import format_test
from repro.memory import Sram

ARCHITECTURES = {
    "microcode": MicrocodeBistController,
    "progfsm": ProgrammableFsmBistController,
    "hardwired": HardwiredBistController,
}


class _Once(argparse.Action):
    """``store``, but a repeated option is an error (plain ``store``
    would silently keep only the last value)."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = f"_{self.dest}_given"
        if getattr(namespace, given, False):
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, given, True)
        setattr(namespace, self.dest, values)


def _add_algorithm_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm", default="March C", action=_Once,
        help='library algorithm name (see "algorithms")',
    )


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--words", type=int, default=64, help="memory depth")
    parser.add_argument("--width", type=int, default=1, help="word width")
    parser.add_argument("--ports", type=int, default=1, help="port count")
    _add_algorithm_arg(parser)


def _cmd_run(args: argparse.Namespace) -> int:
    test = library.get(args.algorithm)
    caps = ControllerCapabilities(
        n_words=args.words, width=args.width, ports=args.ports
    )
    controller = ARCHITECTURES[args.architecture](test, caps)
    memory = Sram(args.words, width=args.width, ports=args.ports)
    for spec in args.fault or []:
        memory.attach(parse_fault(spec))
    unit = MemoryBistUnit(controller, memory)
    result = unit.run(stop_at_first_failure=not args.diagnose)
    print(result)
    if args.area:
        from repro.area.report import format_breakdown

        print()
        print(format_breakdown(unit.area()))
    if args.diagnose and not result.passed:
        from repro.diagnostics import FailBitmap, FailLog, classify

        log = FailLog.from_result(result)
        print()
        print(log)
        bitmap = FailBitmap.from_log(log, args.words, args.width)
        print(f"\nfail bitmap ({bitmap.fail_count} cells):")
        print(bitmap.render())
        print("\nclassification:")
        for diagnosis in classify(log, test, args.words, args.width,
                                  args.ports):
            print(f"  ({diagnosis.address},{diagnosis.bit}): "
                  f"{diagnosis.label} — {diagnosis.rationale}")
    return 0 if result.passed else 1


def _cmd_assemble(args: argparse.Namespace) -> int:
    test = library.get(args.algorithm)
    caps = ControllerCapabilities(
        n_words=args.words, width=args.width, ports=args.ports
    )
    if args.format == "microcode":
        print(disassemble(assemble_microcode(test, caps)))
    elif args.format == "fsm":
        program = compile_to_sm(test, caps)
        for index, instruction in enumerate(program.instructions):
            print(f"{index:3d}: {instruction}  [{instruction.encode():#04x}]")
    else:  # interchange
        print(dump_program(assemble_microcode(test, caps)), end="")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.eval.recommend import recommend

    classes = [token.strip().upper() for token in args.classes.split(",")
               if token.strip()]
    # Column names are case-sensitive mixed case (CFin etc.): normalise.
    from repro.eval.coverage_study import COVERAGE_COLUMNS

    canonical = {column.upper(): column for column in COVERAGE_COLUMNS}
    resolved = [canonical.get(token, token) for token in classes]
    choice = recommend(resolved, n_words=args.words)
    print(choice)
    print(f"notation: {format_test(choice.test)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting import build_controller, datasheet

    test = library.get(args.algorithm)
    caps = ControllerCapabilities(
        n_words=args.words, width=args.width, ports=args.ports
    )
    controller = build_controller(args.architecture, test, caps)
    text = datasheet(controller)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in library.ALGORITHMS)
    for name, test in library.ALGORITHMS.items():
        print(f"{name:<{width}}  {test.complexity:>5}  {format_test(test)}")
    return 0


def _lint_one(name: str, args: argparse.Namespace):
    """Build the diagnostic report for one algorithm (or program file)."""
    from repro.analysis import verify_fsm_program, verify_march, verify_program

    caps = ControllerCapabilities(
        n_words=args.words, width=args.width, ports=args.ports
    )
    if args.target == "progfsm":
        from repro.analysis.diagnostics import (
            Diagnostic,
            DiagnosticReport,
            Severity,
        )
        from repro.core.progfsm.compiler import is_realizable

        test = library.get(name)
        if is_realizable(test):
            # Compile (unverified) and run the full upper-buffer
            # analysis: PF rules + termination proof + march rules.
            program = compile_to_sm(test, caps, verify=False)
            return verify_fsm_program(program, caps)
        if args.all:
            # Outside the SM0-SM7 library — the architecture's
            # flexibility boundary, by design (measured by
            # eval.flexibility).  Skipping keeps a whole-library lint
            # meaningful; lint the algorithm explicitly for the strict
            # MA004 error.
            report = DiagnosticReport(name=test.name)
            report.add(Diagnostic(
                rule="MA004",
                severity=Severity.INFO,
                message="outside the SM0-SM7 flexibility boundary — "
                        "skipped (not realisable on the programmable "
                        "FSM architecture by design)",
                hint="lint this algorithm alone for the full report",
            ))
            return report
        return verify_march(test, target="progfsm")
    if args.target == "march":
        return verify_march(library.get(name), target=None)
    if args.target == "coverage":
        from repro.analysis import verify_coverage

        return verify_coverage(library.get(name))
    if args.target == "rtl":
        from repro.rtl.readback import verify_rom_image

        program = assemble_microcode(
            library.get(name), caps, compress=not args.no_compress,
            verify=False,
        )
        return verify_rom_image(program)
    program = assemble_microcode(
        library.get(name), caps, compress=not args.no_compress, verify=False
    )
    return verify_program(program, caps)


def _cmd_lint_fix(args: argparse.Namespace) -> int:
    """``lint --fix``: apply the mechanical fixes to a program file."""
    from repro.analysis import apply_fixes, verify_program
    from repro.core.programming import dump_program, load_program

    if not args.program:
        print("error: --fix requires --program FILE (fixes rewrite a "
              "tester interchange file)", file=sys.stderr)
        return 2
    with open(args.program) as handle:
        program = load_program(handle.read())
    caps = ControllerCapabilities(
        n_words=args.words, width=args.width, ports=args.ports
    )
    result = apply_fixes(program, caps)
    if result.changed:
        with open(args.program, "w") as handle:
            handle.write(dump_program(result.program))
    report = verify_program(result.program, caps)
    if args.json:
        payload = report.to_json()
        payload["fixes_applied"] = result.applied
        print(json.dumps(payload, indent=2))
    else:
        for fix in result.applied:
            print(f"fixed: {fix}")
        if result.changed:
            print(f"rewrote {args.program}")
        else:
            print("nothing to fix")
        print(report.format())
    return 1 if report.has_errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.rules:
        from repro.analysis.rules import rule_catalogue

        for spec in rule_catalogue():
            print(f"{spec.rule_id}  {spec.severity.value:<7}  {spec.title}")
        return 0
    if args.fix:
        return _cmd_lint_fix(args)
    if args.program:
        from repro.analysis import verify_program
        from repro.core.programming import load_program

        with open(args.program) as handle:
            program = load_program(handle.read())
        caps = ControllerCapabilities(
            n_words=args.words, width=args.width, ports=args.ports
        )
        reports = [verify_program(program, caps)]
    else:
        names = list(library.ALGORITHMS) if args.all else [args.algorithm]
        reports = [_lint_one(name, args) for name in names]
    failed = any(report.has_errors for report in reports)
    if args.json:
        print(json.dumps([report.to_json() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.format())
        if args.all:
            print(_lint_summary(reports))
    return 1 if failed else 0


def _lint_summary(reports) -> str:
    """Whole-library roll-up: finding counts per rule family (MC
    microcode, MA march, PF upper-buffer, RT readback, CV coverage)."""
    families: dict = {}
    errors = 0
    for report in reports:
        for diagnostic in report.diagnostics:
            family = diagnostic.rule[:2]
            families[family] = families.get(family, 0) + 1
            if diagnostic.severity.value == "error":
                errors += 1
    detail = (
        ", ".join(
            f"{family}: {count}" for family, count in sorted(families.items())
        )
        or "no findings"
    )
    return (
        f"summary: {len(reports)} algorithm(s) linted, {errors} error(s) "
        f"— {detail}"
    )


def _cmd_certify(args: argparse.Namespace) -> int:
    """``repro certify``: static coverage certificates, optionally
    cross-checked fault-for-fault against simulated sweeps."""
    from repro.analysis.coverage import certify
    from repro.conformance import check_coverage_conformance
    from repro.faults.universe import standard_universe

    names = list(library.ALGORITHMS) if args.all else [args.algorithm]
    tests = [library.get(name) for name in names]
    geometries = (
        [_parse_geometry(token) for token in args.geometry]
        if args.geometry
        else [(args.words, args.width, args.ports)]
    )
    ok = True
    payload = []
    for geometry in geometries:
        if args.cross_check:
            result = check_coverage_conformance(tests=tests, geometry=geometry)
            ok = ok and result.ok
            payload.append(result.to_json())
            if not args.json:
                print(result.format())
        else:
            n_words, width, ports = geometry
            universe = standard_universe(n_words, width, ports=ports)
            for test in tests:
                certificate = certify(
                    test, n_words, width=width, ports=ports, universe=universe
                )
                payload.append(certificate.to_json())
                if not args.json:
                    print(certificate.format())
    if args.report:
        _write_report(args.report, {"results": payload})
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.fuzz import run_fuzz
    from repro.conformance.faulty.check import SweepInterrupted

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    try:
        report = run_fuzz(
            args.samples, seed=args.seed, jobs=jobs,
            skip=[letter.strip() for letter in args.skip.split(",")
                  if letter.strip()],
        )
    except SweepInterrupted as interrupt:
        # Partial corpus, marked "interrupted": still a valid artifact.
        return _handle_interrupt(args, interrupt)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _conformance_caps(args: argparse.Namespace) -> ControllerCapabilities:
    return ControllerCapabilities(
        n_words=args.words, width=args.width, ports=args.ports
    )


def _cmd_conformance_run(args: argparse.Namespace) -> int:
    from repro.conformance import check_conformance

    names = list(library.ALGORITHMS) if args.all else [args.algorithm]
    caps = _conformance_caps(args)
    results = [
        check_conformance(
            library.get(name), caps, compress=not args.no_compress
        )
        for name in names
    ]
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for result in results:
            print(result.format())
    return 0 if all(r.ok for r in results) else 1


def _parse_geometry(token: str) -> tuple:
    """Parse a ``WORDSxWIDTH[xPORTS]`` geometry flag, e.g. ``8x1x1``."""
    parts = token.lower().split("x")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad geometry {token!r} (expected WORDSxWIDTH or "
            f"WORDSxWIDTHxPORTS, e.g. 4x2x1)"
        )
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise ValueError(
            f"bad geometry {token!r}: every component must be an integer"
        ) from None
    if any(number <= 0 for number in numbers):
        raise ValueError(f"bad geometry {token!r}: components must be >= 1")
    if len(numbers) == 2:
        numbers.append(1)
    return tuple(numbers)


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


#: Fault coordinate attributes, each with the geometry axis it must stay
#: inside (0: words, 1: width, 2: ports) — what an explicit ``--fault``
#: is checked against.
_FAULT_COORDINATES = {
    "word": 0, "aggressor_word": 0, "victim_word": 0, "address": 0,
    "other_address": 0, "wrong_word": 0, "extra_word": 0,
    "bit": 1, "aggressor_bit": 1, "victim_bit": 1,
    "port": 2,
}


def _explicit_faults(specs: Optional[List[str]], geometries: List[tuple]):
    """Parse ``--fault`` specs, rejecting any outside a swept geometry.

    Every spec is checked against every geometry before any sweep
    starts, so a bad spec fails fast with its name instead of deep in
    a later geometry's section.  ``None`` means "sample the universe".
    """
    if not specs:
        return None
    faults = [parse_fault(spec) for spec in specs]
    for spec, fault in zip(specs, faults):
        for geometry in geometries:
            for name, axis in _FAULT_COORDINATES.items():
                value = getattr(fault, name, None)
                if value is not None and not 0 <= value < geometry[axis]:
                    raise ValueError(
                        f"--fault {spec} does not fit geometry "
                        f"{'x'.join(map(str, geometry))}: {name} {value} "
                        f"is outside 0..{geometry[axis] - 1}"
                    )
    return faults


def _run_sweep(
    args: argparse.Namespace,
    tests: list,
    geometries: List[tuple],
    faults=None,
    compress: bool = True,
    engine: str = "scalar",
    mode: str = "sequential",
    cross_engine: bool = False,
    store=None,
    resume: bool = False,
    shard_timeout: Optional[float] = None,
) -> int:
    """Sweep ``tests`` over ``geometries``, print and write the report.

    The one sweep runner behind ``sweep`` and ``prt conformance``:
    ``args`` supplies the population (``per_kind``, ``seed``,
    ``full_universe``), ``max_ops``, ``jobs`` and the output flags
    (``json``, ``report``); the keywords are what only ``sweep``
    exposes.  ``cross_engine`` runs both engines into a
    :class:`~repro.conformance.CrossEngineResult`; the store keys the
    two engines apart, so one store never mixes their shards.
    """
    import os

    from repro.conformance import CrossEngineResult, run_fault_sweeps

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)

    def sweep(engine_name: str):
        return run_fault_sweeps(
            geometries, tests, faults=faults, per_kind=args.per_kind,
            seed=args.seed, full=args.full_universe, compress=compress,
            max_ops=args.max_ops, jobs=jobs, engine=engine_name,
            mode=mode, store=store, resume=resume,
            shard_timeout=shard_timeout,
        )

    result = (
        CrossEngineResult(scalar=sweep("scalar"), vector=sweep("vector"))
        if cross_engine
        else sweep(engine)
    )
    payload = result.to_json()
    if store is not None:
        payload["store"] = store.stats()
    if args.report:
        _write_report(args.report, payload)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.format())
        if store is not None:
            stats = payload["store"]
            print(
                f"store: {stats['hits']} hit(s), {stats['misses']} "
                f"miss(es), {stats['corruptions']} corruption(s), "
                f"{stats['puts']} put(s)"
            )
    return 0 if payload["ok"] else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Service-backed fault sweep: resumable, crash-tolerant, cached."""
    from repro.service import ResultStore

    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    geometries = (
        [_parse_geometry(token) for token in args.geometry]
        if args.geometry
        else [(args.words, args.width, args.ports)]
    )
    names = list(library.ALGORITHMS) if args.all else [args.algorithm]
    return _run_sweep(
        args,
        [library.get(name) for name in names],
        geometries,
        faults=_explicit_faults(args.fault, geometries),
        compress=not args.no_compress,
        engine=args.engine,
        mode=args.mode,
        cross_engine=args.cross_engine,
        store=ResultStore(args.store) if args.store else None,
        resume=args.resume,
        shard_timeout=args.shard_timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """File-backed sweep sessions (configure→start→poll→collect)."""
    from repro.service import (
        collect_session,
        list_sessions,
        run_session,
        session_status,
        submit_session,
    )

    if args.serve_command == "submit":
        spec = {
            "algorithms": (
                "all" if args.all else [args.algorithm]
            ),
            "geometries": [
                list(_parse_geometry(token))
                for token in (args.geometry or ["8x2x1"])
            ],
            "per_kind": args.per_kind,
            "seed": args.seed,
            "full": args.full_universe,
            "compress": not args.no_compress,
            "max_ops": args.max_ops,
            "engine": args.engine,
            "mode": args.mode,
        }
        sid = submit_session(args.root, spec)
        print(json.dumps({"session": sid, "state": "submitted"}, indent=2)
              if args.json else sid)
        return 0
    if args.serve_command == "run":
        payload = run_session(
            args.root, args.session, jobs=args.jobs,
            shard_timeout=args.shard_timeout,
        )
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            status = session_status(args.root, args.session)
            print(f"session {args.session}: {status['state']} "
                  f"({status.get('checked', 0)} runs, "
                  f"{status.get('failures', 0)} failure(s))")
        return 0 if payload.get("ok") else 1
    if args.serve_command == "status":
        statuses = (
            [session_status(args.root, args.session)]
            if args.session
            else list_sessions(args.root)
        )
        if args.json:
            print(json.dumps(statuses, indent=2))
        else:
            for status in statuses:
                print(f"{status['session']}  {status['state']:<12} "
                      f"{status.get('checked', 0)} runs, "
                      f"{status.get('failures', 0)} failure(s)")
            if not statuses:
                print("no sessions")
        return 0
    # collect
    payload = collect_session(args.root, args.session)
    print(json.dumps(payload, indent=2))
    return 0 if payload.get("ok") else 1


def _cmd_conformance_record(args: argparse.Namespace) -> int:
    import pathlib

    from repro.conformance import promote_from_report, record_golden
    from repro.conformance.corpus import record_streams

    root = pathlib.Path(args.corpus_dir)
    if args.from_report:
        with open(args.from_report) as handle:
            report = json.load(handle)
        written = promote_from_report(root, report)
        if not written:
            print(f"no mismatches to promote in {args.from_report}")
            return 0
    elif args.streams:
        written = record_streams(root)
    else:
        written = record_golden(root)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_conformance_shrink(args: argparse.Namespace) -> int:
    from repro.conformance import (
        check_conformance,
        conformance_predicate,
        shrink_sample,
    )

    if args.sample:
        import random as random_module

        from repro.analysis.fuzz import random_geometry, random_march

        rng = random_module.Random(args.sample)
        test = random_march(rng)
        caps = random_geometry(rng)
        compress = rng.random() < 0.5
    else:
        if not args.notation:
            print("error: shrink needs --sample SEED:INDEX or "
                  "--notation 'MARCH'", file=sys.stderr)
            return 2
        from repro.march.notation import parse_test

        test = parse_test(args.notation, name="sample")
        caps = _conformance_caps(args)
        compress = not args.no_compress
    if args.fault:
        return _shrink_faulty(args, test, caps, compress)
    initial = check_conformance(test, caps, compress=compress)
    if initial.ok:
        print(f"sample conforms on {initial.geometry} — nothing to shrink")
        return 1
    shrunk = shrink_sample(
        test, caps, conformance_predicate(compress=compress)
    )
    if args.json:
        payload = shrunk.to_dict()
        payload["original"] = initial.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(f"original  {initial.geometry}: {format_test(test)}")
        print(f"shrunk    {shrunk.geometry}: {shrunk.notation} "
              f"({shrunk.checks} predicate checks)")
        final = check_conformance(
            shrunk.test, shrunk.capabilities, compress=compress
        )
        print(final.format())
    return 0


def _shrink_faulty(
    args: argparse.Namespace,
    test,
    caps: ControllerCapabilities,
    compress: bool,
) -> int:
    """``conformance shrink --fault``: three-axis faulty-sample shrink."""
    from repro.conformance import (
        check_fault_conformance,
        fault_response_predicate,
        shrink_faulty_sample,
    )

    fault_spec = args.fault
    mode = getattr(args, "mode", "sequential")
    initial = check_fault_conformance(
        test, caps, parse_fault(fault_spec), compress=compress, mode=mode
    )
    if initial.ok:
        print(
            f"sample's fault response conforms on {initial.geometry} "
            f"under {fault_spec} [{mode} mode] — nothing to shrink"
        )
        return 1
    shrunk = shrink_faulty_sample(
        test,
        caps,
        fault_spec,
        fault_response_predicate(compress=compress, mode=mode),
    )
    if args.json:
        payload = shrunk.to_dict()
        payload["original"] = initial.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(f"original  {initial.geometry}: {format_test(test)} "
              f"under {fault_spec}")
        print(f"shrunk    {shrunk.geometry}: {shrunk.notation} "
              f"under {shrunk.fault_spec} "
              f"({shrunk.checks} predicate checks)")
        final = check_fault_conformance(
            shrunk.test,
            shrunk.capabilities,
            parse_fault(shrunk.fault_spec),
            compress=compress,
            mode=mode,
        )
        print(final.format())
    return 0


def _cmd_conformance_corpus_check(args: argparse.Namespace) -> int:
    import pathlib

    from repro.conformance import check_corpus

    report = check_corpus(pathlib.Path(args.corpus_dir))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _prt_session(args: argparse.Namespace):
    from repro.prt import PrtConfig, PrtSession

    return PrtSession(PrtConfig(
        passes=args.passes, seed=args.prt_seed, order=args.order
    ))


def _cmd_prt_coverage(args: argparse.Namespace) -> int:
    from repro.eval.prt_study import prt_vs_march

    session = _prt_session(args)
    geometries = [
        _parse_geometry(token) for token in (args.geometry or ["8x1x1"])
    ]
    payload = []
    ok = True
    for n_words, width, ports in geometries:
        report = prt_vs_march(
            n_words, width=width, ports=ports, session=session,
            baseline=args.baseline, include_npsf=not args.no_npsf,
        )
        payload.append(report.to_json())
        if not args.json:
            print(report.format())
        overall = 100.0 * report.prt.overall
        if args.min_overall is not None and overall < args.min_overall:
            ok = False
            print(
                f"FAIL: PRT overall coverage {overall:.1f}% on "
                f"{(n_words, width, ports)} is below --min-overall "
                f"{args.min_overall:.1f}%",
                file=sys.stderr,
            )
    if args.report:
        _write_report(args.report, {"results": payload})
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def _cmd_prt_conformance(args: argparse.Namespace) -> int:
    from repro.prt import PRT_RING_DOWN, PRT_RING_UP

    geometries = [
        _parse_geometry(token)
        for token in (args.geometry or ["4x1x1", "3x2x2"])
    ]
    return _run_sweep(args, [PRT_RING_UP, PRT_RING_DOWN], geometries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Programmable memory BIST (Zarrineh & Upadhyaya, DATE 1999)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a BIST self-test")
    _add_geometry_args(run)
    run.add_argument(
        "--architecture", choices=sorted(ARCHITECTURES), default="microcode"
    )
    run.add_argument(
        "--fault", action="append",
        help="inject a fault (repeatable); e.g. saf:3:0:1",
    )
    run.add_argument(
        "--diagnose", action="store_true",
        help="full fail capture + bitmap + classification on failure",
    )
    run.add_argument(
        "--area", action="store_true", help="print the area breakdown"
    )
    run.set_defaults(handler=_cmd_run)

    assemble_cmd = commands.add_parser(
        "assemble", help="print an algorithm's BIST program"
    )
    _add_geometry_args(assemble_cmd)
    assemble_cmd.add_argument(
        "--format", choices=["microcode", "fsm", "interchange"],
        default="microcode",
    )
    assemble_cmd.set_defaults(handler=_cmd_assemble)

    algorithms = commands.add_parser(
        "algorithms", help="list the library algorithms"
    )
    algorithms.set_defaults(handler=_cmd_algorithms)

    recommend_cmd = commands.add_parser(
        "recommend",
        help="cheapest algorithm covering the given fault classes",
    )
    recommend_cmd.add_argument(
        "--classes", required=True,
        help="comma-separated fault classes, e.g. SAF,TF,DRF",
    )
    recommend_cmd.add_argument(
        "--words", type=int, default=8,
        help="array size for the measurement sweep",
    )
    recommend_cmd.set_defaults(handler=_cmd_recommend)

    report = commands.add_parser(
        "report", help="render a markdown datasheet for a configuration"
    )
    _add_geometry_args(report)
    report.add_argument(
        "--architecture", choices=sorted(ARCHITECTURES), default="microcode"
    )
    report.add_argument("--output", help="write to a file instead of stdout")
    report.set_defaults(handler=_cmd_report)

    lint = commands.add_parser(
        "lint", help="statically verify programs without running them"
    )
    _add_geometry_args(lint)
    lint.add_argument(
        "--all", action="store_true",
        help="lint every library algorithm instead of --algorithm",
    )
    lint.add_argument(
        "--target",
        choices=["microcode", "progfsm", "march", "rtl", "coverage"],
        default="microcode",
        help="microcode: assemble and verify the program; progfsm: check "
        "SM0-SM7 realisability; march: architecture-neutral checks only; "
        "rtl: check the exported ROM image decodes back bit-exactly; "
        "coverage: statically prove per-fault coverage and report escapes",
    )
    lint.add_argument(
        "--no-compress", action="store_true",
        help="assemble without REPEAT compression (microcode target)",
    )
    lint.add_argument(
        "--program", metavar="FILE",
        help="lint a tester interchange file instead of a library algorithm",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply the mechanical fixes (terminator, dead rows, REPEAT "
        "re-compression) to the --program file in place",
    )
    lint.set_defaults(handler=_cmd_lint)

    fuzz = commands.add_parser(
        "fuzz",
        help="fuzz the static verifier against the cycle-accurate "
        "simulators",
    )
    fuzz.add_argument(
        "--samples", type=int, default=500, help="corpus size"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="master seed; reports are deterministic per (seed, samples)",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = one per CPU)",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    fuzz.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON report to FILE (CI artifact; failing "
        "samples carry their shrunk reproducers)",
    )
    fuzz.add_argument(
        "--skip", metavar="LETTERS", default="",
        help="comma-separated identities not to check, from d (op-for-op "
        "equivalence), e (fault response; also skips g), f (coverage "
        "certificate vs sweep), g (scalar vs vector sweep), h (in-field "
        "session), i (resumed sweep), j (pseudo-ring session)",
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    sweep_cmd = commands.add_parser(
        "sweep",
        help="service-backed fault-response sweep: crash-tolerant "
        "workers, per-shard timeouts, and a content-hashed result "
        "store that makes interrupted sweeps resumable (--resume) and "
        "reruns cache hits",
    )
    _add_geometry_args(sweep_cmd)
    sweep_cmd.add_argument(
        "--all", action="store_true",
        help="sweep every library algorithm instead of --algorithm",
    )
    sweep_cmd.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="fault spec(s) to inject (e.g. saf:3:0:1; repeatable); "
        "default: a stratified sample of the standard universe",
    )
    sweep_cmd.add_argument(
        "--per-kind", type=int, default=3,
        help="stratified-sample size per fault kind (default: 3)",
    )
    sweep_cmd.add_argument(
        "--full-universe", action="store_true",
        help="sweep the whole spec-expressible standard universe "
        "(nightly mode) instead of a stratified sample",
    )
    sweep_cmd.add_argument(
        "--seed", type=int, default=0,
        help="stratified-sample seed (default: 0)",
    )
    sweep_cmd.add_argument(
        "--max-ops", type=int, default=None,
        help="per-run op budget (default: 4x the golden stream length)",
    )
    sweep_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="engine worker processes (0 = one per CPU); the report is "
        "identical regardless, timing aside (default: 1)",
    )
    sweep_cmd.add_argument(
        "--geometry", action="append", metavar="WxBxP",
        help="memory geometry WORDSxWIDTH[xPORTS] to sweep "
        "(repeatable; e.g. --geometry 4x2x1 --geometry 8x1x1); "
        "overrides --words/--width/--ports; the report has one "
        "section per geometry",
    )
    sweep_cmd.add_argument(
        "--no-compress", action="store_true",
        help="assemble the microcode without REPEAT compression",
    )
    sweep_cmd.add_argument(
        "--mode", choices=("sequential", "concurrent", "infield"),
        default="sequential",
        help="stimulus regime: 'sequential' is the architecture "
        "differential on the golden expansion; 'concurrent' replays "
        "the same-cycle dual-port expansion (multi-port geometries "
        "additionally sweep the PAFc/CFxp concurrency stratum); "
        "'infield' replays a deterministic in-field transparent "
        "session built from the algorithm's transparent variant",
    )
    sweep_cmd.add_argument(
        "--engine", choices=("scalar", "vector"), default="scalar",
        help="sweep engine: 'scalar' simulates every run on the Sram "
        "model (the oracle); 'vector' verifies each stimulus's streams "
        "once, then decides each fault by a replay of only the ops on "
        "its support cells (identical report payload; faults or tests "
        "outside the projection fall back to scalar and are counted in "
        "timing.fallback_runs)",
    )
    sweep_cmd.add_argument(
        "--cross-engine", action="store_true",
        help="run the sweep through BOTH engines and fail unless the "
        "reports are byte-identical (timing aside) and the scalar "
        "report is clean - conformance identity (g)",
    )
    sweep_cmd.add_argument(
        "--store", metavar="DIR",
        help="result-store directory: completed shards are "
        "checkpointed here and reruns of identical workloads (same "
        "inputs, same code version) become cache hits",
    )
    sweep_cmd.add_argument(
        "--resume", action="store_true",
        help="reuse matching shard results already in --store (resume "
        "an interrupted sweep, or skip unchanged reruns)",
    )
    sweep_cmd.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="per-shard wall-clock budget in seconds; a shard past it "
        "is killed and retried (default: none)",
    )
    sweep_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sweep_cmd.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON sweep report to FILE (on SIGINT the "
        "partial report is written, marked interrupted)",
    )
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    serve = commands.add_parser(
        "serve",
        help="file-backed sweep sessions in the BIST handshake idiom: "
        "submit (configure), run (start/resume), status (poll), "
        "collect",
    )
    serve_commands = serve.add_subparsers(
        dest="serve_command", required=True
    )

    def _serve_common(sub):
        sub.add_argument(
            "--root", default=".repro-service", metavar="DIR",
            help="service root holding the store and sessions "
            "(default: .repro-service)",
        )
        sub.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    serve_submit = serve_commands.add_parser(
        "submit", help="configure a sweep session; prints its id"
    )
    _serve_common(serve_submit)
    _add_algorithm_arg(serve_submit)
    serve_submit.add_argument(
        "--all", action="store_true",
        help="sweep every library algorithm",
    )
    serve_submit.add_argument(
        "--geometry", action="append", metavar="WxBxP",
        help="memory geometry (repeatable; default: 8x2x1)",
    )
    serve_submit.add_argument("--per-kind", type=int, default=2)
    serve_submit.add_argument("--seed", type=int, default=0)
    serve_submit.add_argument("--full-universe", action="store_true")
    serve_submit.add_argument("--no-compress", action="store_true")
    serve_submit.add_argument("--max-ops", type=int, default=None)
    serve_submit.add_argument(
        "--engine", choices=("scalar", "vector"), default="scalar"
    )
    serve_submit.add_argument(
        "--mode", choices=("sequential", "concurrent", "infield"),
        default="sequential",
    )
    serve_submit.set_defaults(handler=_cmd_serve)

    serve_run = serve_commands.add_parser(
        "run", help="start (or resume) a submitted session"
    )
    _serve_common(serve_run)
    serve_run.add_argument("session", help="session id from submit")
    serve_run.add_argument(
        "--jobs", type=int, default=1, help="engine worker processes"
    )
    serve_run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="per-shard wall-clock budget in seconds",
    )
    serve_run.set_defaults(handler=_cmd_serve)

    serve_status = serve_commands.add_parser(
        "status", help="poll one session (or list all)"
    )
    _serve_common(serve_status)
    serve_status.add_argument(
        "session", nargs="?", help="session id (default: list all)"
    )
    serve_status.set_defaults(handler=_cmd_serve)

    serve_collect = serve_commands.add_parser(
        "collect", help="print a finished session's report JSON"
    )
    _serve_common(serve_collect)
    serve_collect.add_argument("session", help="session id")
    serve_collect.set_defaults(handler=_cmd_serve)

    certify_cmd = commands.add_parser(
        "certify",
        help="statically prove per-fault coverage (the coverage "
        "certificate), optionally cross-checked against simulation",
    )
    _add_algorithm_arg(certify_cmd)
    certify_cmd.add_argument(
        "--all", action="store_true",
        help="certify every library algorithm instead of --algorithm",
    )
    certify_cmd.add_argument(
        "--words", type=int, default=8, help="memory depth"
    )
    certify_cmd.add_argument(
        "--width", type=int, default=1, help="word width"
    )
    certify_cmd.add_argument(
        "--ports", type=int, default=1, help="port count"
    )
    certify_cmd.add_argument(
        "--geometry", action="append", metavar="WxBxP",
        help="memory geometry WORDSxWIDTH[xPORTS] (repeatable; overrides "
        "--words/--width/--ports)",
    )
    certify_cmd.add_argument(
        "--cross-check", action="store_true",
        help="validate every verdict fault-for-fault against a simulated "
        "sweep of the full standard universe (exit 1 on disagreement)",
    )
    certify_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    certify_cmd.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON results to FILE (CI artifact)",
    )
    certify_cmd.set_defaults(handler=_cmd_certify)

    conformance = commands.add_parser(
        "conformance",
        help="differential op-for-op conformance of the three "
        "architectures against the golden march expansion",
    )
    conf_commands = conformance.add_subparsers(
        dest="conformance_command", required=True
    )

    conf_run = conf_commands.add_parser(
        "run", help="check one algorithm (or the whole library) now"
    )
    _add_geometry_args(conf_run)
    conf_run.add_argument(
        "--all", action="store_true",
        help="check every library algorithm instead of --algorithm",
    )
    conf_run.add_argument(
        "--no-compress", action="store_true",
        help="assemble the microcode without REPEAT compression",
    )
    conf_run.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    conf_run.set_defaults(handler=_cmd_conformance_run)

    conf_record = conf_commands.add_parser(
        "record",
        help="(re)write the golden or stream corpus, or promote "
        "fuzz-report mismatches into tests/corpus/regressions/",
    )
    conf_record.add_argument(
        "--corpus-dir", default="tests/corpus",
        help="corpus root (default: tests/corpus)",
    )
    conf_record.add_argument(
        "--from-report", metavar="FILE",
        help="promote the mismatches of a fuzz JSON report "
        "(their shrunk reproducers) instead of re-recording the "
        "golden corpus",
    )
    conf_record.add_argument(
        "--streams", action="store_true",
        help="(re)write the stream corpus (classical tests and "
        "transparent transforms) instead of the golden march corpus",
    )
    conf_record.set_defaults(handler=_cmd_conformance_record)

    conf_shrink = conf_commands.add_parser(
        "shrink", help="delta-debug a failing sample to a minimal "
        "reproducer",
    )
    _add_geometry_args(conf_shrink)
    conf_shrink.add_argument(
        "--sample", metavar="SEED:INDEX",
        help="regenerate a fuzz sample from its per-sample seed string",
    )
    conf_shrink.add_argument(
        "--notation", metavar="MARCH",
        help="shrink an explicit march algorithm (with the geometry "
        "flags) instead of a fuzz sample",
    )
    conf_shrink.add_argument(
        "--no-compress", action="store_true",
        help="assemble the microcode without REPEAT compression "
        "(--notation mode)",
    )
    conf_shrink.add_argument(
        "--fault", metavar="SPEC",
        help="shrink a fault-response failure instead: delta-debug "
        "(march, geometry, fault spec) over all three axes",
    )
    conf_shrink.add_argument(
        "--mode", choices=("sequential", "concurrent", "infield"),
        default="sequential",
        help="stimulus regime the --fault predicate re-checks under "
        "(see 'sweep --mode')",
    )
    conf_shrink.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    conf_shrink.set_defaults(handler=_cmd_conformance_shrink)

    conf_check = conf_commands.add_parser(
        "corpus-check",
        help="validate every checked-in golden/regression trace",
    )
    conf_check.add_argument(
        "--corpus-dir", default="tests/corpus",
        help="corpus root (default: tests/corpus)",
    )
    conf_check.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    conf_check.set_defaults(handler=_cmd_conformance_corpus_check)

    prt = commands.add_parser(
        "prt",
        help="pseudo-ring testing: the non-march stimulus family "
        "(memory-as-LFSR-ring circulation sessions)",
    )
    prt_commands = prt.add_subparsers(dest="prt_command", required=True)

    def _prt_session_args(sub):
        sub.add_argument(
            "--passes", type=int, default=4,
            help="circulation passes (default: 4, a 10N+4T session)",
        )
        sub.add_argument(
            "--prt-seed", type=lambda t: int(t, 0), default=0x2D5C,
            metavar="SEED",
            help="seed-LFSR initial state, non-zero 16-bit "
            "(default: 0x2D5C, tuned for coverage)",
        )
        sub.add_argument(
            "--order", choices=("up", "down"), default="up",
            help="ring orientation (default: up)",
        )

    prt_coverage = prt_commands.add_parser(
        "coverage",
        help="simulated fault coverage of a PRT session vs a march "
        "baseline over the standard universe, per fault kind",
    )
    _prt_session_args(prt_coverage)
    prt_coverage.add_argument(
        "--baseline", default="March C",
        help="march library algorithm to compare against "
        "(default: March C)",
    )
    prt_coverage.add_argument(
        "--geometry", action="append", metavar="WxBxP",
        help="memory geometry WORDSxWIDTH[xPORTS] (repeatable; "
        "default: 8x1x1)",
    )
    prt_coverage.add_argument(
        "--no-npsf", action="store_true",
        help="exclude the neighbourhood pattern-sensitive stratum",
    )
    prt_coverage.add_argument(
        "--min-overall", type=float, default=None, metavar="PERCENT",
        help="exit 1 unless PRT's overall coverage reaches PERCENT on "
        "every geometry (CI gate)",
    )
    prt_coverage.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    prt_coverage.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON results to FILE (CI artifact)",
    )
    prt_coverage.set_defaults(handler=_cmd_prt_coverage)

    prt_conf = prt_commands.add_parser(
        "conformance",
        help="differential fault-response conformance of the "
        "cycle-stepped PRT controller against the golden session "
        "expansion (the pinned session pair, per geometry)",
    )
    prt_conf.add_argument(
        "--geometry", action="append", metavar="WxBxP",
        help="memory geometry WORDSxWIDTH[xPORTS] to sweep "
        "(repeatable; default: 4x1x1 and 3x2x2)",
    )
    prt_conf.add_argument(
        "--per-kind", type=int, default=3,
        help="stratified-sample size per fault kind (default: 3)",
    )
    prt_conf.add_argument(
        "--full-universe", action="store_true",
        help="sweep the whole spec-expressible standard universe "
        "(nightly mode) instead of a stratified sample",
    )
    prt_conf.add_argument(
        "--seed", type=int, default=0,
        help="stratified-sample seed (default: 0)",
    )
    prt_conf.add_argument(
        "--max-ops", type=int, default=None,
        help="per-run op budget (default: 4x the golden stream length)",
    )
    prt_conf.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes sharding the (session, fault) product "
        "(0 = one per CPU; default: 1)",
    )
    prt_conf.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    prt_conf.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON sweep report to FILE (CI artifact)",
    )
    prt_conf.set_defaults(handler=_cmd_prt_conformance)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        return 0
    except (FaultSpecError, KeyError, LookupError, OSError,
            ValueError) as error:
        # str(KeyError) is the repr of its argument — unwrap it so the
        # message is not double-quoted on stderr.
        message = (
            error.args[0]
            if isinstance(error, KeyError) and error.args
            else error
        )
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RuntimeError as error:
        # SweepInterrupted (SIGINT mid-sweep) gets the partial-artifact
        # exit; any other RuntimeError propagates as before.
        from repro.conformance.faulty.check import SweepInterrupted

        if isinstance(error, SweepInterrupted):
            return _handle_interrupt(args, error)
        raise


def _handle_interrupt(args: argparse.Namespace, interrupt) -> int:
    """SIGINT exit for sweep commands: write the partial artifact.

    The partial report is marked ``"interrupted": true``; rerunning the
    same command against the same ``--store`` resumes from it.  Exit
    code follows the 128+SIGINT convention.
    """
    report = interrupt.report
    payload = report.to_json()
    if getattr(args, "report", None):
        _write_report(args.report, payload)
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2), flush=True)
    else:
        print(report.format(), flush=True)
        print("interrupted: partial report preserved "
              "(rerun with --resume to finish)", file=sys.stderr)
    return 130
