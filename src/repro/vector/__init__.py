"""The projected fault-sweep engine (``engine="vector"``).

Evaluates one stimulus against a whole fault population by *support
projection*: once the differential partners are proved to emit the
golden stream op for op, each fault's detected / not-detected verdict
is a replay of only the golden ops on the fault's support addresses
(plus every pause) against the real fault object on a sparse
:class:`~repro.memory.shadow.ShadowMemory`.  Sequential march stimuli
additionally share one replay per behavioural stratum.  Anything
outside those preconditions falls back, per fault or per test, to the
scalar :class:`~repro.memory.sram.Sram` path — and the sweep report
counts those fallbacks, so coverage is never silently lost.

The scalar engine stays the differential oracle: the cross-engine
conformance identity asserts both engines produce byte-identical sweep
reports (timing aside).  See ``docs/TESTING.md``.  The engine is pure
Python; the ``vector`` name is kept because it is part of every
stored report's engine stamp.
"""
