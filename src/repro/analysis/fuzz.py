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

Identities (a)–(c) always run.  (d)–(j) are the rows of one table,
:data:`IDENTITIES`: each row names its check, the report counter and
shrunk-reproducer keys it owns, and the rows it needs, and the result
payload, batch records and report read their keys from it.  ``skip``
(``repro fuzz --skip e,g``) turns rows off by letter.

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
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import repro.core
from repro.core.controller import CONTROLLER_CLASSES, ControllerCapabilities
from repro.core.progfsm.compiler import CompileError
from repro.core.progfsm.march_elements import SM_PATTERNS, sm_element
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

#: Predicate-evaluation budget of every row's shrink pass.
SHRINK_CHECKS = 500

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
class _Sample:
    """One generated sample, as every identity row sees it.

    Attributes:
        seed: the per-sample seed string ``"{seed}:{index}"``.
        index: sample index within the corpus.
        test / caps / compress: the generated algorithm, geometry and
            REPEAT-compression choice.
        rng: the sample RNG, positioned after the structural draws —
            identity (e) draws its fault from it, so the seed string
            alone regenerates the (march, geometry, fault) triple.
        fault / response: identity (e)'s injected fault and scalar
            response, which identity (g) reuses.
    """

    seed: str
    index: int
    test: MarchTest
    caps: ControllerCapabilities
    compress: bool
    rng: random.Random
    fault: Any = None
    response: Any = None

    def derived_rng(self, name: str) -> random.Random:
        """An RNG derived from the sample seed, so a row's draws do not
        depend on which other rows ran."""
        return random.Random(f"{self.seed}:{name}")


def _empty_identities() -> Dict[str, Any]:
    fields: Dict[str, Any] = {}
    for row in IDENTITIES:
        fields.update(row.fields())
    return fields


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
        identities: every key the rows of :data:`IDENTITIES` own (the
            injected fault, the counters, the shrunk reproducers), in
            table order; a row that did not run leaves its keys at their
            empty values.
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
    identities: Dict[str, Any] = field(default_factory=_empty_identities)

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
            **self.identities,
        }


def resolve_skip(skip: Iterable[str]) -> FrozenSet[str]:
    """The identity letters ``skip`` turns off: the named rows plus every
    row that needs a skipped one (skipping (e) skips (g)).

    Raises:
        ValueError: a letter that names no row of :data:`IDENTITIES`.
    """
    skipped = set(skip)
    letters = sorted(row.letter for row in IDENTITIES)
    unknown = skipped.difference(letters)
    if unknown:
        raise ValueError(
            f"unknown fuzz identity {', '.join(sorted(unknown))} "
            f"(choose from {', '.join(letters)})"
        )
    for row in IDENTITIES:  # rows only need earlier rows: one pass
        if skipped.intersection(row.needs):
            skipped.add(row.letter)
    return frozenset(skipped)


def check_sample(
    seed: int, index: int, skip: Iterable[str] = ()
) -> SampleResult:
    """Generate sample ``index`` of corpus ``seed`` and check the
    verifier-vs-simulator identities on it: (a)–(c) always, then every
    row of :data:`IDENTITIES` in table order, except the letters in
    ``skip`` (and the rows that need them, see :func:`resolve_skip`)."""
    from repro.analysis.verifier import verify_program
    from repro.core.walk import Verdict

    skipped = resolve_skip(skip)
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
    # -- (a)-(c), each programmable controller ----------------------------
    microcode_verdict = None
    for architecture, cycles_field in (
        ("microcode", "microcode_cycles"), ("progfsm", "fsm_cycles"),
    ):
        controller_class = getattr(
            repro.core, CONTROLLER_CLASSES[architecture]
        )
        try:
            controller = controller_class.realise(test, caps, compress)
        except CompileError:
            continue  # progfsm outside the SM0-SM7 flexibility boundary
        if architecture == "progfsm":
            result.fsm_compiled = True
        report = verify_program(controller.program, caps)
        walk = report.walk
        microcode_verdict = microcode_verdict or walk.verdict
        if walk.verdict is not microcode_verdict:
            result.mismatches.append(
                f"verdict disagreement: microcode {microcode_verdict.value}, "
                f"{architecture} {walk.verdict.value}"
            )
        if report.has_errors:
            # The generator only emits well-formed algorithms, so an
            # error here is a verifier false positive.
            result.mismatches.append(
                f"{architecture} verifier rejected a well-formed "
                "algorithm: " + "; ".join(str(d) for d in report.errors)
            )
        elif walk.verdict is not Verdict.TERMINATES:
            result.mismatches.append(
                f"{architecture} interpreter verdict {walk.verdict.value} "
                f"({walk.reason}) on a verifier-passed program"
            )
        else:
            setattr(result, cycles_field, walk.cycles)
            try:
                traced = sum(1 for _ in controller.trace())
            except RuntimeError as error:  # runtime cycle bound hit
                result.mismatches.append(
                    f"verifier-passed {architecture} program did not "
                    f"terminate: {error}"
                )
            else:
                if traced != walk.cycles:
                    result.mismatches.append(
                        f"{architecture} cycle mismatch: proved "
                        f"{walk.cycles}, simulated {traced}"
                    )

    # -- (d)-(j), the identity table -------------------------------------
    sample = _Sample(sample_seed, index, test, caps, compress, rng)
    for row in IDENTITIES:
        if row.letter not in skipped:
            row.check(sample, result)
    return result


def _check_conformance_identity(
    sample: _Sample, result: SampleResult
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

    test, caps, compress = sample.test, sample.caps, sample.compress
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
        max_checks=SHRINK_CHECKS,
    )
    result.identities["shrunk"] = shrunk.to_dict()


def _check_fault_identity(sample: _Sample, result: SampleResult) -> None:
    """Identity (e): one injected fault, every architecture agrees.

    Draws a single spec-expressible fault from the sample RNG, runs all
    realising architectures' BIST sessions against it and compares fail
    events, fail logs and diagnosis against the golden response.  A
    divergence (or a wedged/crashed session) is delta-debugged over
    march items, operations, the fault and the geometry; the minimal
    triple rides in the report.  The fault and the response stay on
    ``sample`` for identity (g).
    """
    from repro.conformance import (
        check_fault_conformance,
        fault_response_predicate,
        random_fault,
        shrink_faulty_sample,
    )
    from repro.faults.spec import format_fault

    test, caps, compress = sample.test, sample.caps, sample.compress
    sample.fault = random_fault(sample.rng, caps)
    spec = result.identities["fault_spec"] = format_fault(sample.fault)
    response = sample.response = check_fault_conformance(
        test, caps, sample.fault, compress=compress
    )
    result.identities["fault_detected"] = response.detected
    if response.ok:
        return
    result.mismatches.append(
        f"fault-response divergence under {spec}: "
        f"{response.describe_failures()}"
    )
    shrunk = shrink_faulty_sample(
        test,
        caps,
        spec,
        fault_response_predicate(compress=compress),
        max_checks=SHRINK_CHECKS,
    )
    result.identities["shrunk_faulty"] = shrunk.to_dict()


def _check_vector_identity(sample: _Sample, result: SampleResult) -> None:
    """Identity (g): the projected engine reproduces the scalar report.

    The scalar side costs nothing: identity (e)'s response is folded
    into a one-run :class:`~repro.conformance.faulty.FaultSweepReport`,
    and the vector engine must reproduce that report payload, timing
    aside, from scratch.  So each fuzz sample buys a free cross-engine
    conformance case on a *random* (march, geometry, fault) triple,
    far off the curated library the dedicated
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

    caps = sample.caps
    scalar = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports)
    )
    scalar.add(sample.response)
    vector = run_fault_sweep(
        [sample.test], caps, [sample.fault], compress=sample.compress,
        engine="vector",
    )
    result.identities["vector_checked"] = True
    divergence = CrossEngineResult(scalar=scalar, vector=vector).divergence()
    if divergence is not None:
        result.mismatches.append(
            "sweep-engine divergence under "
            f"{result.identities['fault_spec']}: {divergence}"
        )


def _check_coverage_identity(
    sample: _Sample, result: SampleResult
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

    test, caps = sample.test, sample.caps
    faults = sweep_faults(caps, per_kind=2, seed=sample.index)
    check = check_coverage_conformance(
        tests=[test], geometry=caps, faults=faults, universe_name="sample"
    )
    result.identities["coverage_pairs"] = check.checked
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
            max_checks=SHRINK_CHECKS,
        )
        result.identities["shrunk_coverage"] = shrunk.to_dict()


def _check_infield_identity(sample: _Sample, result: SampleResult) -> None:
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

    caps, rng = sample.caps, sample.derived_rng("infield")
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
    else:
        owner = plan.stream.owner(faulty.events[0].op_index)
        if not owner.startswith(f"slot {checkpoint.slot} "):
            result.mismatches.append(
                f"in-field detection of {spec} misattributed: expected "
                f"slot {checkpoint.slot}, first event owned by {owner!r}"
            )
    result.identities["infield_checked"] = True


def _check_service_identity(sample: _Sample, result: SampleResult) -> None:
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

    test, caps, compress = sample.test, sample.caps, sample.compress
    rng = sample.derived_rng("service")
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
    result.identities["service_checked"] = True


def _check_prt_identity(sample: _Sample, result: SampleResult) -> None:
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
    from repro.conformance.divergence import first_difference
    from repro.prt import PrtConfig, PrtController, PrtSession

    caps, rng = sample.caps, sample.derived_rng("prt")
    config = PrtConfig(
        passes=rng.randint(1, 5),
        seed=rng.randrange(1, 1 << 16),
        order=rng.choice(("up", "down")),
    )
    session = PrtSession(config)
    first = session.attributed_stream(caps)
    second = session.attributed_stream(caps)
    if first != second:
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
    engine_ops = controller.attributed_stream().ops
    golden_ops = first.ops
    divergence = first_difference(engine_ops, golden_ops)
    if divergence is not None:
        result.mismatches.append(
            f"prt controller divergence: {session.notation} engine op "
            f"{divergence} ({engine_ops[divergence:divergence + 1]}) != "
            f"golden ({golden_ops[divergence:divergence + 1]})"
        )
    predicted = session.readout_signature(first)
    if controller.signature != predicted:
        result.mismatches.append(
            f"prt signature mismatch: controller latched "
            f"{controller.signature}, session predicts {predicted}"
        )
    result.identities["prt_checked"] = True


class Identity(NamedTuple):
    """One row of the identity table.

    Attributes:
        letter: the identity's letter, (d)–(j); ``skip`` names rows by it.
        check: ``check(sample, result)`` runs the identity, appending to
            ``result.mismatches`` and filling the keys below.
        counter: the :class:`FuzzReport` counter key it owns (None for
            (d), which counts nothing beyond the checked samples).
        label: how :meth:`FuzzReport.format` names that counter.
        shrunk: the shrunk-reproducer key it owns, None when the sample
            seed is already a minimal-enough reproducer.
        fault: the key of the fault it draws from the sample RNG.
        needs: letters of the rows whose output it reuses; skipping one
            of them skips this row too.
        empty: the counter's value on a sample the row did not check.
    """

    letter: str
    check: Callable[[_Sample, SampleResult], None]
    counter: Optional[str] = None
    label: str = ""
    shrunk: Optional[str] = None
    fault: Optional[str] = None
    needs: str = ""
    empty: Any = False

    def fields(self) -> Dict[str, Any]:
        """The result keys this row owns, in payload order, at their
        empty values."""
        fields: Dict[str, Any] = {}
        if self.fault:
            fields[self.fault] = None
        if self.counter:
            fields[self.counter] = self.empty
        if self.shrunk:
            fields[self.shrunk] = None
        return fields


#: Identities (d)–(j) in run order.  (g) runs straight after (e), whose
#: response it reuses; the order fixes the mismatch order, the payload
#: key order and the report's counter order.
IDENTITIES: Tuple[Identity, ...] = (
    Identity("d", _check_conformance_identity, shrunk="shrunk"),
    Identity("e", _check_fault_identity, "fault_detected",
             "fault-detecting", shrunk="shrunk_faulty", fault="fault_spec"),
    Identity("g", _check_vector_identity, "vector_checked",
             "vector-cross-checked", needs="e"),
    Identity("f", _check_coverage_identity, "coverage_pairs",
             "coverage pairs certified", shrunk="shrunk_coverage",
             empty=0),
    Identity("h", _check_infield_identity, "infield_checked",
             "in-field sessions"),
    Identity("i", _check_service_identity, "service_checked",
             "resumed-sweep identities"),
    Identity("j", _check_prt_identity, "prt_checked",
             "pseudo-ring sessions"),
)

#: The rows that feed a :class:`FuzzReport` counter, in report order.
_COUNTED = tuple(row for row in IDENTITIES if row.counter)


@dataclass
class FuzzReport:
    """Aggregated outcome of one corpus run.

    ``counts`` holds one counter per counting row of
    :data:`IDENTITIES`, keyed and ordered like the table.
    """

    samples: int
    seed: int
    checked: int = 0
    fsm_compiled: int = 0
    counts: Dict[str, int] = field(
        default_factory=lambda: {row.counter: 0 for row in _COUNTED}
    )
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
            **self.counts,
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
            + "".join(
                f"{self.counts[row.counter]} {row.label}, "
                for row in _COUNTED
            )
            + f"{self.mismatch_count} mismatch(es)"
            + (" [INTERRUPTED]" if self.interrupted else "")
        ]
        for entry in self.mismatches:
            lines.append(
                f"  sample {entry['index']} "
                f"(seed {entry.get('sample_seed', '?')}) "
                f"{tuple(entry['geometry'])}: {entry['notation']}"
            )
            for row in IDENTITIES:
                if row.fault and entry.get(row.fault):
                    lines.append(f"    fault: {entry[row.fault]}")
            for mismatch in entry["mismatches"]:
                lines.append(f"    {mismatch}")
            for row in IDENTITIES:
                shrunk = entry.get(row.shrunk) if row.shrunk else None
                if shrunk:
                    lines.append(
                        f"    {row.shrunk.replace('_', ' ')} reproducer: "
                        f"{shrunk['notation']} on "
                        f"{tuple(shrunk['geometry'])}"
                        + (f" under {shrunk['fault']}"
                           if "fault" in shrunk else "")
                    )
        return "\n".join(lines)


def _check_batch(
    args: Tuple[int, int, int, Tuple[str, ...]]
) -> List[Dict[str, Any]]:
    """Worker entry point: check samples ``start..start+count-1``.

    Returns compact per-sample dicts (full detail only for mismatches)
    to keep the inter-process payload small.
    """
    seed, start, count, skip = args
    out: List[Dict[str, Any]] = []
    for index in range(start, start + count):
        result = check_sample(seed, index, skip=skip)
        if result.ok:
            out.append({
                "index": index,
                "ok": True,
                "fsm_compiled": result.fsm_compiled,
                **{row.counter: result.identities[row.counter]
                   for row in _COUNTED},
            })
        else:
            payload = result.to_dict()
            payload["ok"] = False
            out.append(payload)
    return out


def run_fuzz(
    samples: int,
    seed: int = 0,
    jobs: int = 1,
    skip: Iterable[str] = (),
) -> FuzzReport:
    """Run the corpus and aggregate a :class:`FuzzReport`.

    Args:
        samples: corpus size.
        seed: master seed; sample ``i`` derives its RNG from
            ``(seed, i)``, so the report is independent of ``jobs``.
        jobs: worker-process count; 1 runs inline (no pool), more run
            ``jobs`` batches through
            :func:`~repro.service.engine.run_jobs` — a crashed worker
            does not discard the completed batches, a batch that only
            raised is retried serially, and a lost batch is one
            ``<batch a..b>`` mismatch entry.
        skip: letters of the :data:`IDENTITIES` rows not to check (see
            :func:`resolve_skip`); every row runs by default.

    Raises:
        ValueError: a bad sample or job count, or an unknown letter in
            ``skip``.
        SweepInterrupted: SIGINT mid-corpus; carries the partial
            :class:`FuzzReport` (marked ``interrupted``) aggregating
            every completed batch.
    """
    from repro.conformance.faulty.check import SweepInterrupted
    from repro.service.engine import run_jobs

    if samples <= 0:
        raise ValueError(f"need at least one sample, got {samples}")
    if jobs <= 0:
        raise ValueError(f"need at least one job, got {jobs}")
    skip = tuple(sorted(resolve_skip(skip)))
    report = FuzzReport(samples=samples, seed=seed)

    jobs = min(jobs, samples)
    chunk = (samples + jobs - 1) // jobs
    work = [
        (seed, start, min(chunk, samples - start), skip)
        for start in range(0, samples, chunk)
    ]
    batches: Dict[int, List[Dict[str, Any]]] = {}
    run = run_jobs(
        _check_batch,
        [(i, f"fuzz:{seed}:{args[1]}:{args[2]}", args)
         for i, args in enumerate(work)],
        jobs, batches.__setitem__,
    )
    for i, error in run.lost.items():
        _, start, count, _ = work[i]
        batches[i] = [{
            "index": start,
            "ok": False,
            "sample_seed": f"<batch {start}..{start + count - 1}>",
            "notation": "<service>",
            "geometry": [0, 0, 0],
            "mismatches": [f"service: batch lost: {error}"],
        }]
    for i in sorted(batches):
        for entry in batches[i]:
            report.checked += 1
            report.fsm_compiled += entry.get("fsm_compiled", False)
            for key in report.counts:
                report.counts[key] += entry.get(key, 0)
            if not entry["ok"]:
                report.mismatch_count += 1
                report.mismatches.append(
                    {k: v for k, v in entry.items() if k != "ok"}
                )
    report.mismatches.sort(key=lambda entry: entry["index"])
    report.service_stats = run.stats
    report.interrupted = run.interrupted
    if run.interrupted:
        raise SweepInterrupted(report)
    return report
