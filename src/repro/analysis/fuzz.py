"""Verifier-vs-simulator fuzzing: the analyses proved at corpus scale.

The static verifier is only worth trusting if it agrees with the
executable semantics on more than the ~10 library algorithms.  This
module generates random **well-formed** march algorithms (element
count, operations, address orders, retention pauses) over random small
geometries and, for every sample, checks these identities:

(a) the microcode abstract interpreter proves termination and its cycle
    count equals the microcode controller's trace length, exactly;
(b) samples the SM0–SM7 compiler accepts get the *same verdict* from
    both architectures' analyses, and the progfsm interpreter's cycle
    count equals the FSM controller's trace length, exactly;
(c) any program the verifier passes runs to termination in the
    controller (the controller's runtime cycle bound is never hit);
(d) behavioural equivalence: every architecture that can realise the
    sample (microcode with and without REPEAT compression, progfsm
    inside the SM0–SM7 boundary, hardwired) emits the golden operation
    stream op-for-op (:func:`repro.conformance.check_conformance`), and
    its program's op summary (:mod:`repro.core.walk`, what the vector
    sweep trusts instead of simulating) agrees: "equal to golden"
    exactly when the simulated stream is, never UNKNOWN
    (:func:`repro.conformance.check.proved_conformant`).
    Failing samples are delta-debugged to a minimal reproducer
    (:func:`repro.conformance.shrink_sample`) that is embedded in the
    report, so a nightly failure is reproducible — and promotable into
    ``tests/corpus/regressions/`` — from the JSON artifact alone.
(e) fault-response equivalence: the same sample is additionally run
    against a *faulty* memory — one spec-expressible fault drawn from
    the sample's own RNG (:func:`repro.conformance.faulty.sampling.
    random_fault`) — and every realising architecture must produce the
    golden fail events, fail-log aggregations and diagnosis
    (:func:`repro.conformance.check_fault_conformance`).  Failures are
    delta-debugged over all three axes
    (:func:`repro.conformance.shrink_faulty_sample`) to a minimal
    (march, geometry, fault) triple embedded in the report.
(f) coverage-certificate equivalence: the static coverage prover
    (:func:`repro.analysis.coverage.certify`) and the simulated sweep
    must agree fault-for-fault on a stratified fault sample of the
    sample's geometry, witnesses replaying as failing reads
    (:func:`repro.conformance.faulty.coverage.
    check_coverage_conformance`).  Disagreements are delta-debugged
    with the same three-axis shrinker, via
    :func:`repro.conformance.faulty.coverage.
    coverage_disagreement_predicate`.
(g) sweep-engine equivalence: the identity-(e) sample is re-swept by
    the projected engine (:func:`repro.conformance.faulty.
    run_fault_sweep` with ``engine="vector"``: partners verified
    against golden, then a support-projected replay of the golden
    stream against the fault) and the resulting one-run report must
    agree payload-for-payload — timing aside — with a scalar report
    built from the identity-(e) response, the cross-engine contract of
    :class:`repro.conformance.faulty.CrossEngineResult`.  Runs on every
    sample that runs (e).
(h) in-field session identity: a deterministic in-field conformance
    session (:func:`repro.conformance.build_infield_plan` on the
    sample's geometry, seeded from the sample) run on a fault-free
    memory must preserve every word of seeded user data and raise zero
    fail events; the same session with a stuck-at fault injected
    mid-stream at a transparent-slot boundary must detect it, with the
    first fail event attributed to that slot's owner.  This identity is
    independent of the sampled march — it pins the transparent
    scheduler itself.
(i) interrupted-then-resumed sweep identity: the sample's algorithm is
    swept against a few random faults serially, then re-swept through a
    checkpoint store with an injected interrupt and resumed — the
    resumed report must equal the serial baseline payload-for-payload,
    with the completed shards served as cache hits.
(j) pseudo-ring determinism: a PRT configuration drawn from a derived
    RNG (:mod:`repro.prt`) must expand to the same attributed golden
    stream twice on the sample's geometry, the cycle-stepped
    :class:`~repro.prt.controller.PrtController` must issue the same
    operations op-for-op, and the controller's latched signature must
    equal the session's predicted MISR signature.  Like (h), this is
    march-independent — it pins the non-march stimulus family.

Any violation — including the verifier *rejecting* a well-formed
algorithm, the false-positive direction — is a mismatch.  The
``repro fuzz`` CLI subcommand batch-parallelises the corpus over the
crash-tolerant :class:`~repro.service.engine.JobEngine`; per-sample
seeds are derived from ``(seed, index)`` so reports are deterministic
and independent of ``--jobs``, and a crashed or interrupted worker
costs its batch a retry, not the corpus.

The same generator is exposed as a :mod:`hypothesis` strategy
(:func:`march_test_strategy`) so the property-based test suite shrinks
any counterexample the corpus run surfaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import assemble
from repro.core.microcode.controller import MicrocodeBistController
from repro.core.progfsm.compiler import CompileError, compile_to_sm
from repro.core.progfsm.controller import ProgrammableFsmBistController
from repro.core.progfsm.march_elements import SM_PATTERNS, sm_element
from repro.core.progfsm.upper_buffer import DEFAULT_ROWS as FSM_BUFFER_ROWS
from repro.march.element import (
    AddressOrder,
    MarchElement,
    OpKind,
    Operation,
    Pause,
)
from repro.march.notation import format_test
from repro.march.test import MarchItem, MarchTest

#: Pause durations the generator draws from: powers of two (microcode
#: HOLD timer constraint), one shared duration per algorithm (progfsm
#: hold-register constraint).
PAUSE_DURATIONS = (128, 256, 512, 1024)

#: Geometry bounds: small memories keep the O(N) simulation cheap while
#: still exercising every loop level (addresses, backgrounds, ports).
MAX_WORDS = 9
WIDTHS = (1, 2, 4)
MAX_PORTS = 3

_ORDERS = (AddressOrder.UP, AddressOrder.DOWN, AddressOrder.ANY)


def random_march(rng: random.Random) -> MarchTest:
    """One random well-formed march algorithm.

    Half the elements are drawn straight from the SM0–SM7 library (so
    the progfsm branch of the harness sees real traffic), half are
    arbitrary 1–4-operation sequences that usually fall outside it.
    Pauses are non-consecutive and share one power-of-two duration.
    """
    items: List[MarchItem] = []
    duration = rng.choice(PAUSE_DURATIONS)
    n_elements = rng.randint(1, 6)
    for position in range(n_elements):
        if position > 0 and rng.random() < 0.25:
            items.append(Pause(duration))
        items.append(_random_element(rng))
    if rng.random() < 0.15:
        items.append(Pause(duration))  # trailing pause: microcode-only
    return MarchTest("fuzz", items)


def _random_element(rng: random.Random) -> MarchElement:
    order = rng.choice(_ORDERS)
    if rng.random() < 0.5:
        sm = rng.randrange(len(SM_PATTERNS))
        return sm_element(sm, order, rng.randint(0, 1), rng.randint(0, 1))
    ops = [
        Operation(
            rng.choice((OpKind.READ, OpKind.WRITE)), rng.randint(0, 1)
        )
        for _ in range(rng.randint(1, 4))
    ]
    return MarchElement(order, ops)


def random_geometry(rng: random.Random) -> ControllerCapabilities:
    """One random small memory geometry."""
    return ControllerCapabilities(
        n_words=rng.randint(1, MAX_WORDS),
        width=rng.choice(WIDTHS),
        ports=rng.randint(1, MAX_PORTS),
    )


def march_test_strategy():
    """The generator as a :mod:`hypothesis` strategy (for the property
    tests, which shrink counterexamples the corpus run cannot)."""
    import hypothesis.strategies as st

    return st.builds(
        lambda seed: random_march(random.Random(seed)),
        st.integers(min_value=0, max_value=2**48),
    )


@dataclass
class SampleResult:
    """Verdict for one fuzzed sample.

    Attributes:
        index: sample index within the corpus.
        sample_seed: the derived per-sample RNG seed string
            (``"{seed}:{index}"``) — regenerates this exact sample.
        notation: the generated algorithm in march notation.
        geometry: ``(n_words, width, ports)``.
        compress: whether REPEAT compression was enabled.
        microcode_cycles: proved microcode cycle count.
        fsm_compiled: whether the SM0–SM7 compiler accepted the sample.
        fsm_cycles: proved progfsm trace-cycle count (compiled samples).
        mismatches: human-readable description of every violated
            identity — empty means the sample agrees everywhere.
        shrunk: minimal reproducer of a behavioural divergence
            (notation/geometry/checks), or None when identity (d) held.
        fault_spec: the fault injected for identity (e), as a
            :mod:`repro.faults.spec` string (None when (e) was off).
        fault_detected: whether the golden response saw the fault.
        shrunk_faulty: minimal (march, geometry, fault) reproducer of a
            response divergence, or None when identity (e) held.
        vector_checked: whether identity (g) ran (requires
            ``fault_conformance`` and ``vector_conformance``).
        coverage_pairs: certificate-vs-sweep fault pairs cross-checked
            for identity (f) (0 when (f) was off).
        shrunk_coverage: minimal (march, geometry, fault) reproducer of
            a certificate-vs-sweep disagreement, or None when identity
            (f) held.
        infield_checked: whether identity (h) ran — the fault-free and
            mid-stream-injection in-field session pair.
        service_checked: whether identity (i) ran — the interrupted-
            then-resumed sweep vs the uninterrupted serial sweep.
        prt_checked: whether identity (j) ran — pseudo-ring session
            determinism and controller/session agreement.
    """

    index: int
    notation: str
    geometry: Tuple[int, int, int]
    compress: bool
    sample_seed: str = ""
    microcode_cycles: Optional[int] = None
    fsm_compiled: bool = False
    fsm_cycles: Optional[int] = None
    mismatches: List[str] = field(default_factory=list)
    shrunk: Optional[Dict[str, Any]] = None
    fault_spec: Optional[str] = None
    fault_detected: bool = False
    shrunk_faulty: Optional[Dict[str, Any]] = None
    vector_checked: bool = False
    coverage_pairs: int = 0
    shrunk_coverage: Optional[Dict[str, Any]] = None
    infield_checked: bool = False
    service_checked: bool = False
    prt_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "sample_seed": self.sample_seed,
            "notation": self.notation,
            "geometry": list(self.geometry),
            "compress": self.compress,
            "microcode_cycles": self.microcode_cycles,
            "fsm_compiled": self.fsm_compiled,
            "fsm_cycles": self.fsm_cycles,
            "mismatches": self.mismatches,
            "shrunk": self.shrunk,
            "fault_spec": self.fault_spec,
            "fault_detected": self.fault_detected,
            "shrunk_faulty": self.shrunk_faulty,
            "vector_checked": self.vector_checked,
            "coverage_pairs": self.coverage_pairs,
            "shrunk_coverage": self.shrunk_coverage,
            "infield_checked": self.infield_checked,
            "service_checked": self.service_checked,
            "prt_checked": self.prt_checked,
        }


def check_sample(
    seed: int,
    index: int,
    conformance: bool = True,
    fault_conformance: bool = True,
    coverage_conformance: bool = True,
    vector_conformance: bool = True,
    infield_conformance: bool = True,
    service_conformance: bool = True,
    prt_conformance: bool = True,
) -> SampleResult:
    """Generate sample ``index`` of corpus ``seed`` and check all ten
    verifier-vs-simulator identities on it (``conformance=False`` skips
    the behavioural-equivalence identity (d); ``fault_conformance=False``
    skips the faulty-memory response identity (e) — and with it the
    sweep-engine identity (g), which reuses (e)'s response;
    ``coverage_conformance=False`` skips the coverage-certificate
    identity (f); ``vector_conformance=False`` skips (g) alone;
    ``infield_conformance=False`` skips the in-field session identity
    (h); ``service_conformance=False`` skips the resumed-sweep identity
    (i); ``prt_conformance=False`` skips the pseudo-ring determinism
    identity (j))."""
    from repro.analysis.interpreter import Verdict, interpret
    from repro.analysis.progfsm_cfg import interpret_fsm
    from repro.analysis.verifier import verify_fsm_program, verify_program

    sample_seed = f"{seed}:{index}"
    rng = random.Random(sample_seed)
    test = random_march(rng)
    caps = random_geometry(rng)
    compress = rng.random() < 0.5
    result = SampleResult(
        index=index,
        sample_seed=sample_seed,
        notation=format_test(test),
        geometry=(caps.n_words, caps.width, caps.ports),
        compress=compress,
    )

    # -- (a)+(c), microcode ------------------------------------------------
    program = assemble(test, caps, compress=compress, verify=False)
    report = verify_program(program, caps)
    interp = interpret(program, caps)
    if report.has_errors:
        # The generator only emits well-formed algorithms, so an error
        # here is a verifier false positive.
        result.mismatches.append(
            "microcode verifier rejected a well-formed algorithm: "
            + "; ".join(str(d) for d in report.errors)
        )
    elif interp.verdict is not Verdict.TERMINATES:
        result.mismatches.append(
            f"microcode interpreter verdict {interp.verdict.value} "
            f"({interp.reason}) on a verifier-passed program"
        )
    else:
        result.microcode_cycles = interp.cycles
        controller = MicrocodeBistController(
            program, caps, verify=False
        )
        try:
            traced = sum(1 for _ in controller.trace())
        except RuntimeError as error:  # runtime cycle bound hit
            result.mismatches.append(
                f"verifier-passed program did not terminate: {error}"
            )
        else:
            if traced != interp.cycles:
                result.mismatches.append(
                    f"microcode cycle mismatch: proved {interp.cycles}, "
                    f"simulated {traced}"
                )

    # -- (b)+(c), progfsm --------------------------------------------------
    try:
        fsm_program = compile_to_sm(test, caps, verify=False)
    except CompileError:
        fsm_program = None  # outside the SM0-SM7 flexibility boundary
    if fsm_program is not None:
        result.fsm_compiled = True
        fsm_report = verify_fsm_program(fsm_program, caps)
        fsm_interp = interpret_fsm(fsm_program, caps)
        if fsm_interp.verdict is not interp.verdict:
            result.mismatches.append(
                f"verdict disagreement: microcode {interp.verdict.value}, "
                f"progfsm {fsm_interp.verdict.value}"
            )
        if fsm_report.has_errors:
            result.mismatches.append(
                "progfsm verifier rejected a compiler-produced program: "
                + "; ".join(str(d) for d in fsm_report.errors)
            )
        elif fsm_interp.verdict is Verdict.TERMINATES:
            result.fsm_cycles = fsm_interp.cycles
            controller = ProgrammableFsmBistController(
                fsm_program,
                caps,
                buffer_rows=max(FSM_BUFFER_ROWS, len(fsm_program)),
                verify=False,
            )
            try:
                traced = sum(1 for _ in controller.trace())
            except RuntimeError as error:
                result.mismatches.append(
                    f"verifier-passed FSM program did not terminate: {error}"
                )
            else:
                if traced != fsm_interp.cycles:
                    result.mismatches.append(
                        f"progfsm cycle mismatch: proved "
                        f"{fsm_interp.cycles}, simulated {traced}"
                    )

    # -- (d), op-for-op behavioural equivalence ----------------------------
    if conformance:
        _check_conformance_identity(result, test, caps, compress)

    # -- (e)+(g), fault-response and sweep-engine equivalence --------------
    # The fault is drawn from the sample's own RNG *after* the structural
    # draws above, so "{seed}:{index}" alone regenerates the whole triple.
    if fault_conformance:
        _check_fault_identity(
            result, test, caps, compress, rng, vector=vector_conformance
        )

    # -- (f), coverage-certificate equivalence -----------------------------
    if coverage_conformance:
        _check_coverage_identity(result, test, caps, index)

    # -- (h), in-field session identity ------------------------------------
    # Drawn from a derived RNG so the session is deterministic in the
    # sample seed regardless of which other identities are enabled.
    if infield_conformance:
        _check_infield_identity(
            result, caps, random.Random(f"{sample_seed}:infield")
        )

    # -- (i), interrupted-then-resumed sweep identity ----------------------
    # Also from a derived RNG, for the same reason.
    if service_conformance:
        _check_service_identity(
            result, test, caps, compress,
            random.Random(f"{sample_seed}:service"),
        )

    # -- (j), pseudo-ring determinism --------------------------------------
    # March-independent like (h); the config comes from a derived RNG.
    if prt_conformance:
        _check_prt_identity(
            result, caps, random.Random(f"{sample_seed}:prt")
        )
    return result


def _check_conformance_identity(
    result: SampleResult,
    test: MarchTest,
    caps: ControllerCapabilities,
    compress: bool,
) -> None:
    """Identity (d): all realising architectures emit the golden stream,
    and each one's op-summary verdict agrees with its simulation.

    On divergence the sample is delta-debugged immediately (in the
    worker, where the failing input is already in hand) and the minimal
    reproducer is attached to the result.
    """
    from repro.conformance import (
        check_conformance,
        conformance_predicate,
        shrink_sample,
    )
    from repro.conformance.check import proved_conformant

    conf = check_conformance(test, caps, compress=compress)
    for arch in conf.results:
        if arch.skipped is not None:
            continue
        proved = proved_conformant(arch.architecture, test, caps, compress)
        if proved is None:
            result.mismatches.append(
                f"{arch.architecture} op summary UNKNOWN on an "
                "assembler-produced program"
            )
        elif proved != arch.ok:
            result.mismatches.append(
                f"{arch.architecture} op summary says "
                f"{'equal' if proved else 'different'}, simulation says "
                f"{'equal' if arch.ok else 'different'}"
            )
    if conf.ok:
        return
    result.mismatches.append(
        "behavioural divergence: " + conf.describe_failures()
    )
    shrunk = shrink_sample(
        test,
        caps,
        conformance_predicate(compress=compress),
        max_checks=500,
    )
    result.shrunk = shrunk.to_dict()


def _check_fault_identity(
    result: SampleResult,
    test: MarchTest,
    caps: ControllerCapabilities,
    compress: bool,
    rng: random.Random,
    vector: bool = True,
) -> None:
    """Identities (e) and (g): one injected fault, every engine agrees.

    Draws a single spec-expressible fault from the sample RNG, runs all
    realising architectures' BIST sessions against it and compares fail
    events, fail logs and diagnosis against the golden response.  A
    divergence (or a wedged/crashed session) is delta-debugged over
    march items, operations, the fault and the geometry; the minimal
    triple rides in the report.

    When ``vector`` is on, the scalar response doubles as the oracle
    for identity (g): it is wrapped into a one-run
    :class:`~repro.conformance.faulty.FaultSweepReport` and the vector
    engine must reproduce that report payload — timing aside — from
    scratch.  No extra scalar run is spent; the (e) result is
    reused.
    """
    from repro.conformance import (
        check_fault_conformance,
        fault_response_predicate,
        random_fault,
        shrink_faulty_sample,
    )
    from repro.faults.spec import format_fault

    fault = random_fault(rng, caps)
    result.fault_spec = format_fault(fault)
    response = check_fault_conformance(test, caps, fault, compress=compress)
    result.fault_detected = response.detected
    if not response.ok:
        result.mismatches.append(
            "fault-response divergence under "
            f"{result.fault_spec}: {response.describe_failures()}"
        )
        shrunk = shrink_faulty_sample(
            test,
            caps,
            result.fault_spec,
            fault_response_predicate(compress=compress),
            max_checks=500,
        )
        result.shrunk_faulty = shrunk.to_dict()
    if vector:
        _check_vector_identity(result, test, caps, fault, compress, response)


def _check_vector_identity(
    result: SampleResult,
    test: MarchTest,
    caps: ControllerCapabilities,
    fault,
    compress: bool,
    response,
) -> None:
    """Identity (g): the projected engine reproduces the scalar report.

    The scalar side costs nothing — identity (e)'s response is folded
    into a one-run sweep report — so each fuzz sample buys a free
    cross-engine conformance case on a *random* (march, geometry,
    fault) triple, far off the curated library the dedicated
    ``--cross-engine`` sweeps exercise.  Divergences are reported with
    the path of the first differing payload leaf; the "{seed}:{index}"
    sample seed is already a minimal-enough reproducer (one algorithm,
    one fault), so no shrink pass is run.
    """
    from repro.conformance.faulty import (
        CrossEngineResult,
        FaultSweepReport,
        run_fault_sweep,
    )

    scalar = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports)
    )
    scalar.add(response)
    vector = run_fault_sweep(
        [test], caps, [fault], compress=compress, engine="vector"
    )
    result.vector_checked = True
    divergence = CrossEngineResult(scalar=scalar, vector=vector).divergence()
    if divergence is not None:
        result.mismatches.append(
            "sweep-engine divergence under "
            f"{result.fault_spec}: {divergence}"
        )


def _check_coverage_identity(
    result: SampleResult,
    test: MarchTest,
    caps: ControllerCapabilities,
    index: int,
) -> None:
    """Identity (f): the static coverage prover agrees with simulation.

    Certifies the sample against a stratified spec-expressible fault
    sample of its own geometry (deterministic in the sample index) and
    cross-checks every verdict — and every witness — against the
    simulated golden-expansion sweep.  A disagreement is delta-debugged
    over march items, operations, the fault and the geometry; the
    minimal triple rides in the report.
    """
    from repro.conformance import shrink_faulty_sample
    from repro.conformance.faulty import sweep_faults
    from repro.conformance.faulty.coverage import (
        check_coverage_conformance,
        coverage_disagreement_predicate,
    )

    faults = sweep_faults(caps, per_kind=2, seed=index)
    check = check_coverage_conformance(
        tests=[test], geometry=caps, faults=faults, universe_name="sample"
    )
    result.coverage_pairs = check.checked
    if check.ok:
        return
    first = check.disagreements[0]
    result.mismatches.append("coverage divergence: " + first.describe())
    if first.spec is not None:
        shrunk = shrink_faulty_sample(
            test,
            caps,
            first.spec,
            coverage_disagreement_predicate(),
            max_checks=500,
        )
        result.shrunk_coverage = shrunk.to_dict()


def _check_infield_identity(
    result: SampleResult,
    caps: ControllerCapabilities,
    rng: random.Random,
) -> None:
    """Identity (h): the in-field scheduler preserves data and detects.

    Builds the deterministic in-field plan for the sample's geometry
    (default transparent trio, a per-sample scheduler seed) and runs it
    twice: on a fault-free memory, where every checkpoint must verify
    bit-identically and the event log must stay empty, and with a
    stuck-at fault injected at a randomly chosen transparent-slot
    boundary, where the session must detect the defect and attribute
    the first fail event to that slot.
    """
    from repro.conformance.infield import (
        build_infield_plan,
        run_infield_session,
    )
    from repro.faults.spec import parse_fault
    from repro.memory.sram import Sram

    plan = build_infield_plan(caps, seed=rng.randrange(2**16))

    clean = run_infield_session(
        plan, Sram(caps.n_words, width=caps.width, ports=caps.ports)
    )
    if clean.events:
        result.mismatches.append(
            "in-field session raised fail events on a fault-free "
            f"memory: first {clean.events[0]}"
        )
    if not clean.user_data_preserved:
        bad = [c.checkpoint.slot for c in clean.checkpoints if not c.ok]
        result.mismatches.append(
            "in-field session corrupted seeded user data "
            f"(failing checkpoint slot(s): {bad})"
        )

    checkpoint = rng.choice(plan.checkpoints)
    word = rng.randrange(caps.n_words)
    bit = rng.randrange(caps.width)
    spec = f"saf:{word}:{bit}:{rng.randint(0, 1)}"
    faulty = run_infield_session(
        plan,
        Sram(caps.n_words, width=caps.width, ports=caps.ports),
        inject=(parse_fault(spec), checkpoint.start_index),
    )
    if not faulty.detected:
        result.mismatches.append(
            f"in-field session missed {spec} injected at slot "
            f"{checkpoint.slot} boundary (op {checkpoint.start_index})"
        )
    elif not faulty.events[0].owner.startswith(f"slot {checkpoint.slot} "):
        result.mismatches.append(
            f"in-field detection of {spec} misattributed: expected "
            f"slot {checkpoint.slot}, first event owned by "
            f"{faulty.events[0].owner!r}"
        )
    result.infield_checked = True


def _check_service_identity(
    result: SampleResult,
    test: MarchTest,
    caps: ControllerCapabilities,
    compress: bool,
    rng: random.Random,
) -> None:
    """Identity (i): a resumed sweep equals the uninterrupted sweep.

    Runs the sample's algorithm against a few random faults three ways:
    serial (the baseline), checkpointed into a throwaway store with an
    injected interrupt partway through (asserting the partial report is
    marked ``interrupted`` and is a prefix of the baseline), and then
    resumed from the same store.  The resumed report's payload — timing
    aside — must be byte-identical to the baseline's, with the
    already-completed shards served as cache hits.
    """
    import tempfile

    from repro.conformance.faulty.check import (
        SweepInterrupted,
        run_fault_sweep,
    )
    from repro.conformance.faulty.sampling import random_fault
    from repro.service import ChaosPlan, ResultStore

    faults = [random_fault(rng, caps) for _ in range(3)]
    baseline = run_fault_sweep(
        [test], caps, faults, compress=compress
    ).to_json(include_timing=False)

    with tempfile.TemporaryDirectory(prefix="repro-service-") as root:
        store = ResultStore(root)
        plan = ChaosPlan(interrupt_after=1)
        try:
            run_fault_sweep(
                [test], caps, faults, compress=compress,
                store=store, resume=True, chaos=plan,
            )
        except SweepInterrupted as interrupt:
            partial = interrupt.report.to_json()
            if not partial.get("interrupted"):
                result.mismatches.append(
                    "service identity: partial report not marked "
                    "interrupted"
                )
            if partial["checked"] >= baseline["checked"]:
                result.mismatches.append(
                    "service identity: interrupt left nothing to resume "
                    f"({partial['checked']}/{baseline['checked']} runs)"
                )
        else:
            result.mismatches.append(
                "service identity: injected interrupt did not fire"
            )
            return
        resumed = run_fault_sweep(
            [test], caps, faults, compress=compress,
            store=store, resume=True,
        )
        stats = (resumed.service_stats or {}).get("store", {})
        if resumed.to_json(include_timing=False) != baseline:
            result.mismatches.append(
                "service identity: resumed sweep diverged from the "
                "uninterrupted serial sweep"
            )
        elif not stats.get("hits"):
            result.mismatches.append(
                "service identity: resume recomputed every shard "
                f"(store stats {stats})"
            )
    result.service_checked = True


def _check_prt_identity(
    result: SampleResult,
    caps: ControllerCapabilities,
    rng: random.Random,
) -> None:
    """Identity (j): PRT sessions are deterministic and the controller
    realises them.

    Draws a random pseudo-ring configuration (passes, seed, ring
    orientation) from the derived RNG and checks, on the sample's
    geometry, that the golden expansion is a pure function of the
    configuration (two expansions agree op-for-op and owner-for-owner),
    that the cycle-stepped FSM controller issues the identical operation
    stream, and that the signature the controller latches equals the
    session's predicted MISR signature.  The "{seed}:{index}" sample
    seed regenerates the configuration, so no shrink pass is needed.
    """
    from repro.prt import PrtConfig, PrtController, PrtSession

    config = PrtConfig(
        passes=rng.randint(1, 5),
        seed=rng.randrange(1, 1 << 16),
        order=rng.choice(("up", "down")),
    )
    session = PrtSession(config)
    first = session.attributed_stream(caps)
    second = session.attributed_stream(caps)
    if [(a.op, a.owner) for a in first] != [(a.op, a.owner) for a in second]:
        result.mismatches.append(
            f"prt determinism: two expansions of {session.notation} "
            f"diverged on the same geometry"
        )
    if len(first) != session.op_count(caps):
        result.mismatches.append(
            f"prt op-count: {session.notation} expanded to {len(first)} "
            f"ops, op_count predicts {session.op_count(caps)}"
        )
    controller = PrtController(config, caps)
    engine_ops = [entry.op for entry in controller.attributed_stream()]
    golden_ops = [attributed.op for attributed in first]
    if engine_ops != golden_ops:
        divergence = next(
            (i for i, (a, b) in enumerate(zip(engine_ops, golden_ops))
             if a != b),
            min(len(engine_ops), len(golden_ops)),
        )
        result.mismatches.append(
            f"prt controller divergence: {session.notation} engine op "
            f"{divergence} ({engine_ops[divergence:divergence + 1]}) != "
            f"golden ({golden_ops[divergence:divergence + 1]})"
        )
    predicted = session.predicted_signature(caps)
    if controller.signature != predicted:
        result.mismatches.append(
            f"prt signature mismatch: controller latched "
            f"{controller.signature}, session predicts {predicted}"
        )
    result.prt_checked = True


@dataclass
class FuzzReport:
    """Aggregated outcome of one corpus run."""

    samples: int
    seed: int
    checked: int = 0
    fsm_compiled: int = 0
    fault_detected: int = 0
    vector_checked: int = 0
    coverage_pairs: int = 0
    infield_checked: int = 0
    service_checked: int = 0
    prt_checked: int = 0
    mismatch_count: int = 0
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    interrupted: bool = False
    service_stats: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "samples": self.samples,
            "seed": self.seed,
            "checked": self.checked,
            "fsm_compiled": self.fsm_compiled,
            "fsm_compiled_fraction": (
                round(self.fsm_compiled / self.checked, 4)
                if self.checked
                else 0.0
            ),
            "fault_detected": self.fault_detected,
            "vector_checked": self.vector_checked,
            "coverage_pairs": self.coverage_pairs,
            "infield_checked": self.infield_checked,
            "service_checked": self.service_checked,
            "prt_checked": self.prt_checked,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
        }
        if self.interrupted:
            payload["interrupted"] = True
        # service_stats deliberately stays off the payload: to_json()
        # is the jobs-independence contract surface ("the report is
        # identical regardless of --jobs"), and pool telemetry is a
        # function of the execution, not the corpus.
        return payload

    def format(self) -> str:
        lines = [
            f"fuzz: {self.checked}/{self.samples} samples checked "
            f"(seed {self.seed}), {self.fsm_compiled} SM-compilable, "
            f"{self.fault_detected} fault-detecting, "
            f"{self.vector_checked} vector-cross-checked, "
            f"{self.coverage_pairs} coverage pairs certified, "
            f"{self.infield_checked} in-field sessions, "
            f"{self.service_checked} resumed-sweep identities, "
            f"{self.prt_checked} pseudo-ring sessions, "
            f"{self.mismatch_count} mismatch(es)"
            + (" [INTERRUPTED]" if self.interrupted else "")
        ]
        for entry in self.mismatches:
            lines.append(
                f"  sample {entry['index']} "
                f"(seed {entry.get('sample_seed', '?')}) "
                f"{tuple(entry['geometry'])}: {entry['notation']}"
            )
            if entry.get("fault_spec"):
                lines.append(f"    fault: {entry['fault_spec']}")
            for mismatch in entry["mismatches"]:
                lines.append(f"    {mismatch}")
            shrunk = entry.get("shrunk")
            if shrunk:
                lines.append(
                    f"    shrunk reproducer: {shrunk['notation']} on "
                    f"{tuple(shrunk['geometry'])}"
                )
            shrunk_faulty = entry.get("shrunk_faulty")
            if shrunk_faulty:
                lines.append(
                    f"    shrunk faulty reproducer: "
                    f"{shrunk_faulty['notation']} on "
                    f"{tuple(shrunk_faulty['geometry'])} under "
                    f"{shrunk_faulty['fault']}"
                )
            shrunk_coverage = entry.get("shrunk_coverage")
            if shrunk_coverage:
                lines.append(
                    f"    shrunk coverage reproducer: "
                    f"{shrunk_coverage['notation']} on "
                    f"{tuple(shrunk_coverage['geometry'])} under "
                    f"{shrunk_coverage['fault']}"
                )
        return "\n".join(lines)


def _check_batch(
    args: Tuple[int, int, int, bool, bool, bool, bool, bool, bool, bool]
) -> List[Dict[str, Any]]:
    """Worker entry point: check samples ``start..start+count-1``.

    Returns compact per-sample dicts (full detail only for mismatches)
    to keep the inter-process payload small.
    """
    (seed, start, count, conformance, fault_conformance, coverage,
     vector, infield, service, prt) = args
    out: List[Dict[str, Any]] = []
    for index in range(start, start + count):
        result = check_sample(
            seed,
            index,
            conformance=conformance,
            fault_conformance=fault_conformance,
            coverage_conformance=coverage,
            vector_conformance=vector,
            infield_conformance=infield,
            service_conformance=service,
            prt_conformance=prt,
        )
        if result.ok:
            out.append({"index": index, "ok": True,
                        "fsm_compiled": result.fsm_compiled,
                        "fault_detected": result.fault_detected,
                        "vector_checked": result.vector_checked,
                        "coverage_pairs": result.coverage_pairs,
                        "infield_checked": result.infield_checked,
                        "service_checked": result.service_checked,
                        "prt_checked": result.prt_checked})
        else:
            payload = result.to_dict()
            payload["ok"] = False
            out.append(payload)
    return out


def _lost_batch_entry(start: int, count: int, error: str) -> Dict[str, Any]:
    """A synthetic mismatch entry for a batch the service lost."""
    return {
        "index": start,
        "ok": False,
        "sample_seed": f"<batch {start}..{start + count - 1}>",
        "notation": "<service>",
        "geometry": [0, 0, 0],
        "mismatches": [f"service: batch lost: {error}"],
    }


def run_fuzz(
    samples: int,
    seed: int = 0,
    jobs: int = 1,
    conformance: bool = True,
    fault_conformance: bool = True,
    coverage_conformance: bool = True,
    vector_conformance: bool = True,
    infield_conformance: bool = True,
    service_conformance: bool = True,
    prt_conformance: bool = True,
    shard_timeout: Optional[float] = None,
) -> FuzzReport:
    """Run the corpus and aggregate a :class:`FuzzReport`.

    Args:
        samples: corpus size.
        seed: master seed; sample ``i`` derives its RNG from
            ``(seed, i)``, so the report is independent of ``jobs``.
        jobs: worker-process count; 1 runs inline (no pool), more run
            batches on a :class:`~repro.service.engine.JobEngine` — a
            crashed worker no longer discards the completed batches,
            and batches that failed without crash/timeout history are
            retried serially.
        conformance: check identity (d), op-for-op behavioural
            equivalence across all architectures (on by default).
        fault_conformance: check identity (e), response equivalence on
            a faulty memory (on by default).
        coverage_conformance: check identity (f), coverage-certificate
            vs simulated-sweep agreement (on by default).
        vector_conformance: check identity (g), scalar-vs-vector sweep
            report equality on identity (e)'s sample (on by default;
            no-op with ``fault_conformance=False``).
        infield_conformance: check identity (h), the fault-free and
            mid-stream-injection in-field session pair (on by default).
        service_conformance: check identity (i), the interrupted-then-
            resumed sweep vs the uninterrupted serial sweep (on by
            default).
        prt_conformance: check identity (j), pseudo-ring session
            determinism and controller/session agreement (on by
            default).
        shard_timeout: per-batch wall-clock budget (seconds), enforced
            by the engine when ``jobs > 1``.

    Raises:
        SweepInterrupted: SIGINT mid-corpus; carries the partial
            :class:`FuzzReport` (marked ``interrupted``) aggregating
            every completed batch.
    """
    from repro.conformance.faulty.check import SweepInterrupted
    from repro.service.engine import (
        Job,
        JobEngine,
        JobsInterrupted,
        RetryPolicy,
    )

    if samples <= 0:
        raise ValueError(f"need at least one sample, got {samples}")
    if jobs <= 0:
        raise ValueError(f"need at least one job, got {jobs}")
    report = FuzzReport(samples=samples, seed=seed)

    def aggregate(batches: Sequence[List[Dict[str, Any]]]) -> FuzzReport:
        for batch in batches:
            for entry in batch:
                report.checked += 1
                if entry.get("fsm_compiled"):
                    report.fsm_compiled += 1
                if entry.get("fault_detected"):
                    report.fault_detected += 1
                if entry.get("vector_checked"):
                    report.vector_checked += 1
                report.coverage_pairs += entry.get("coverage_pairs", 0)
                if entry.get("infield_checked"):
                    report.infield_checked += 1
                if entry.get("service_checked"):
                    report.service_checked += 1
                if entry.get("prt_checked"):
                    report.prt_checked += 1
                if not entry["ok"]:
                    report.mismatch_count += 1
                    report.mismatches.append(
                        {k: v for k, v in entry.items() if k != "ok"}
                    )
        report.mismatches.sort(key=lambda entry: entry["index"])
        return report

    jobs = min(jobs, samples)
    if jobs == 1:
        try:
            batches = [
                _check_batch((seed, 0, samples, conformance,
                              fault_conformance, coverage_conformance,
                              vector_conformance, infield_conformance,
                              service_conformance, prt_conformance))
            ]
        except KeyboardInterrupt:
            report.interrupted = True
            raise SweepInterrupted(aggregate([])) from None
        return aggregate(batches)

    chunk = (samples + jobs - 1) // jobs
    work = [
        (seed, start, min(chunk, samples - start), conformance,
         fault_conformance, coverage_conformance, vector_conformance,
         infield_conformance, service_conformance, prt_conformance)
        for start in range(0, samples, chunk)
    ]
    submissions = [
        Job(key=f"fuzz:{seed}:{args[1]}:{args[2]}", fn=_check_batch,
            payload=args)
        for args in work
    ]
    engine = JobEngine(
        workers=jobs, policy=RetryPolicy(timeout=shard_timeout)
    )
    try:
        engine_report = engine.run(submissions)
    except JobsInterrupted as interrupt:
        completed = {o.key: o.value for o in interrupt.outcomes if o.ok}
        report.interrupted = True
        raise SweepInterrupted(aggregate(
            [completed[job.key] for job in submissions
             if job.key in completed]
        )) from None
    finally:
        engine.close()

    batches: List[List[Dict[str, Any]]] = []
    serial_retries = 0
    for outcome, args in zip(engine_report.outcomes, work):
        if outcome.ok:
            batches.append(outcome.value)
        elif outcome.safe_inline:
            # The batch only raised — completed batches are safe, so
            # rerun it serially rather than losing its samples.
            try:
                batches.append(_check_batch(args))
                serial_retries += 1
            except Exception as error:
                batches.append([_lost_batch_entry(
                    args[1], args[2],
                    f"{outcome.error}; serial retry: "
                    f"{type(error).__name__}: {error}",
                )])
        else:
            batches.append([_lost_batch_entry(
                args[1], args[2], f"{outcome.status}: {outcome.error}",
            )])
    stats = engine_report.stats()
    stats["serial_retries"] = serial_retries
    report.service_stats = stats
    return aggregate(batches)
