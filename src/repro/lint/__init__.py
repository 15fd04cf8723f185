"""``repro.lint`` — AST-based invariant checker for the reproduction.

Everything this reproduction claims rests on invariants that end-to-end
tests enforce expensively and conventions enforce not at all:
bit-identical N-shard runs need every random draw routed through the
seeded stream registry, serve-layer answers need sketch reads under the
ingest lock, and the experiment budgets need ``map_shard`` paths to
stay columnar.  This package checks those disciplines statically, at
lint time, with project-specific rules over the stdlib ``ast``:

========  ==========================================================
RNG001    no stdlib ``random``
RNG002    no module-level ``np.random`` global state
RNG003    ``default_rng`` only inside ``repro/sim/rng.py``
DET001    no wall clock in result paths
DET002    directory enumeration wrapped in ``sorted(...)``
DET003    no set iteration in reduce/merge/map_shard functions
LCK001    analyzer/sketch reads under the ingest lock
COL001    analyses, calibration checks and ``map_shard`` mappers stay columnar
EXC001    no bare ``except:``
EXC002    swallowed exceptions in worker paths are accounted
ERR001    file failed to parse (the syntax gate)
========  ==========================================================

Findings suppress inline with ``# lint: disable=CODE`` and grandfather
through the checked-in ``lint-baseline.json``.  The CLI surface is
``cloudwatching lint`` (see :mod:`repro.lint.cli` for the exit-code
contract CI relies on).
"""

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.engine import LintReport, ModuleFile, lint_module, run_lint
from repro.lint.findings import RULES, Finding, Rule, all_rules, register
from repro.lint.markers import requires_ingest_lock

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "register",
    "all_rules",
    "ModuleFile",
    "LintReport",
    "run_lint",
    "lint_module",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "requires_ingest_lock",
]
