"""Columnar-discipline rule (COL001).

The PR 6/7 performance wins (zero-copy shard merge, one-pass
contingency aggregation) hold only while hot aggregation paths stay on
the struct-of-arrays representation.  A single ``.iter_events()`` inside
an analysis or a ``map_shard`` mapper quietly turns an O(1) mmap view
into a per-event Python object walk — correctness survives, the budget
does not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Rule, register

#: The EventTable API that builds per-event Python row objects.
_ROW_APIS = frozenset({"iter_events"})

#: Every function under these directories and in these files is a
#: columnar path: analyses and the calibration checks read event tables
#: only, with no row-object fallback.
_COLUMNAR_DIRS = ("repro/analysis/",)
_COLUMNAR_FILES = ("repro/sim/validation.py",)


def _is_map_shard(name: str) -> bool:
    return name == "map_shard" or name.endswith("_map_shard")


@register
class ColumnarDisciplineRule(Rule):
    code = "COL001"
    name = "analyses and mappers stay columnar"
    invariant = (
        "analyses, calibration checks and map_shard mappers aggregate "
        "over numpy columns; the row API (.iter_events()) rebuilds "
        "per-event objects and forfeits the columnar speedups the "
        "experiment budgets assume."
    )
    dynamic_check = (
        "benchmarks/check_experiment_budget.py (experiment wall-clock "
        "vs simulation budget)"
    )

    def check(self, module) -> Iterator[Finding]:
        whole_file = module.in_dir(*_COLUMNAR_DIRS) or module.matches(*_COLUMNAR_FILES)
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (whole_file or _is_map_shard(scope.name)):
                continue
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ROW_APIS
                ):
                    yield module.finding(
                        self.code, node,
                        f"row-materializing `.{node.func.attr}()` inside "
                        f"`{scope.name}`: aggregate over the numpy "
                        "columns instead",
                    )
