"""Static analysis + runtime determinism sanitizer (``repro lint``).

Every headline claim in this reproduction — bit-identical cycles across
kernel rewrites, exactly-once cached sweeps keyed by ``stable_hash``,
zero-fault fabric identity — rests on invariants that used to be enforced
only by hand-written golden diffs after the fact.  This package turns the
recurring failure modes into machine-checked rules:

- :mod:`repro.analysis.engine` — an AST lint pass over the ``repro``
  package with per-rule visitors, inline ``# repro: noqa RULE``
  suppressions and a committed ``baseline.json`` for grandfathered
  findings (each carries a written justification).
- :mod:`repro.analysis.rules` — the rule set (RP001..RP006), each guarding
  a bug class this repo has actually shipped and fixed before.
- :mod:`repro.analysis.sanitizer` — an opt-in runtime determinism
  sanitizer: a same-cycle access-order race detector for the event kernel
  (``repro run ... --sanitize``).

The CLI entry point is ``repro lint`` (see :mod:`repro.cli`); CI runs it
as a gate next to the perf-regression gate.

The package re-exports nothing: every simulation imports the sanitizer
(:mod:`repro.sim.system` asks whether a session is active), and that must
not compile the lint engine and its rules.  Import the submodules by name.
"""
