"""Post-compromise command analysis (Cowrie's raison d'être).

Once an interactive honeypot accepts a login, everything the intruder
types is evidence of intent: Mirai loaders probe for busybox, generic
loaders fetch droppers into /tmp, and human operators run reconnaissance.
This module summarizes the captured fake-shell sessions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.dataset import AnalysisDataset

__all__ = ["CommandSummary", "command_summary", "classify_command", "COMMAND_CLASSES"]

#: Substring signatures for command intent classes, checked in order.
COMMAND_CLASSES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("botnet-loader", ("busybox", "MIRAI", "ECCHI")),
    ("dropper-fetch", ("wget ", "curl ", "tftp ")),
    ("execution", ("chmod ", "sh ", "./",)),
    ("reconnaissance", ("uname", "whoami", "id", "nproc", "cpuinfo", "os-release",
                        "free -m", "crontab", "last", "w")),
    ("shell-escape", ("enable", "system", "shell", "sh")),
)


def classify_command(command: str) -> str:
    """Classify one shell command into an intent class."""
    for label, needles in COMMAND_CLASSES:
        if any(needle in command for needle in needles):
            return label
    return "other"


@dataclass(frozen=True)
class CommandSummary:
    """Aggregated post-login activity for one dataset."""

    sessions_with_login_attempts: int
    sessions_logged_in: int
    total_commands: int
    top_commands: tuple[tuple[str, int], ...]
    class_counts: dict[str, int]

    @property
    def login_success_rate(self) -> float:
        if self.sessions_with_login_attempts == 0:
            return 0.0
        return self.sessions_logged_in / self.sessions_with_login_attempts


def _commands_map_shard(view) -> dict:
    """One shard's mergeable command aggregate: per-command counts plus
    the global first-sighting key ``(vantage position, shard, row, tuple
    position)`` that orders the merged Counter by first sighting."""
    from repro.analysis.contingency_engine import _sorted_view_tables

    attempts = 0
    logged_in = 0
    counts: dict[str, int] = {}
    first: dict[str, tuple[int, int, int, int]] = {}
    for vpos, table in _sorted_view_tables(view):
        has_cred = np.zeros(len(table), dtype=bool)
        offset = 0
        for value, start, stop in table.iter_column_runs("credentials"):
            count = stop - start
            if isinstance(value, np.ndarray) and value.dtype == object:
                for index, creds in enumerate(value[start:stop].tolist()):
                    if creds:
                        has_cred[offset + index] = True
            elif value:
                has_cred[offset:offset + count] = True
            offset += count
        attempts += int(has_cred.sum())

        offset = 0
        for value, start, stop in table.iter_column_runs("commands"):
            count = stop - start
            if isinstance(value, np.ndarray) and value.dtype == object:
                for index, commands in enumerate(value[start:stop].tolist()):
                    row = offset + index
                    if commands and has_cred[row]:
                        logged_in += 1
                        for position, command in enumerate(commands):
                            counts[command] = counts.get(command, 0) + 1
                            if command not in first:
                                first[command] = (vpos, view.index, row, position)
            elif value:
                # One command tuple broadcast across the run: every
                # login-attempting event in it replays the same commands.
                selected = np.flatnonzero(has_cred[offset:offset + count])
                if selected.size:
                    logged_in += int(selected.size)
                    first_row = offset + int(selected[0])
                    for position, command in enumerate(value):
                        counts[command] = counts.get(command, 0) + int(selected.size)
                        if command not in first:
                            first[command] = (vpos, view.index, first_row, position)
            offset += count
    return {"attempts": attempts, "logged_in": logged_in, "counts": counts, "first": first}


def _commands_reduce(partials, top: int) -> CommandSummary:
    attempts = sum(partial["attempts"] for partial in partials)
    logged_in = sum(partial["logged_in"] for partial in partials)
    counts: dict[str, int] = {}
    first: dict[str, tuple[int, int, int, int]] = {}
    for partial in partials:
        for command, count in partial["counts"].items():
            counts[command] = counts.get(command, 0) + count
        for command, key in partial["first"].items():
            known = first.get(command)
            if known is None or key < known:
                first[command] = key
    commands: Counter = Counter()
    for command, _key in sorted(first.items(), key=lambda item: item[1]):
        commands[command] = counts[command]
    classes: Counter = Counter()
    for command, count in commands.items():
        classes[classify_command(command)] += count
    return CommandSummary(
        sessions_with_login_attempts=attempts,
        sessions_logged_in=logged_in,
        total_commands=sum(commands.values()),
        top_commands=tuple(commands.most_common(top)),
        class_counts=dict(classes),
    )


def command_summary(dataset: AnalysisDataset, top: int = 10) -> CommandSummary:
    """Summarize captured shell sessions."""
    from repro.experiments.base import run_shard_wise

    return run_shard_wise(
        _commands_map_shard,
        lambda partials: _commands_reduce(partials, top),
        dataset,
    )
