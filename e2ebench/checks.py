"""Correctness checks on the tables and rows a benchmark run produced.

Every table row a leg produces is one attempt.  A row fails once, however
many checks it fails; a problem that belongs to no single row (a missing
table, a golden whose bytes differ while every row matches) is its own
failed entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Columns that identify one simulator row in the scenario-driven tables.
ROW_KEY_COLUMNS = ("scenario", "policy", "mode")

#: Terminal outcomes of a request; the columns absent from a table are zero.
TERMINALS = ("completed", "dropped", "shed", "deadline_exceeded")


def canonical(value) -> str:
    """A comparable form of a JSON value (``NaN`` equals ``NaN``)."""
    return json.dumps(value, sort_keys=True)


def terminals(row: dict) -> int:
    return sum(int(row.get(column, 0)) for column in TERMINALS)


def row_key(row: dict) -> Tuple:
    return tuple(row.get(column) for column in ROW_KEY_COLUMNS)


class Tally:
    """Rows attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self._rows: Dict[Tuple, List[str]] = {}

    def visit(self, key: Tuple) -> None:
        self._rows.setdefault(key, [])

    def fail(self, key: Tuple, problem: str) -> None:
        self._rows.setdefault(key, []).append(problem)

    @property
    def attempted(self) -> int:
        return len(self._rows)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self._rows.values() if problems)

    def problems(self) -> List[str]:
        return [
            f"{'/'.join(str(part) for part in key if part is not None)}: {problem}"
            for key, problems in self._rows.items()
            for problem in problems
        ]


def load_tables(directory: Path, names: Iterable[str]) -> Dict[str, dict]:
    """The tables a leg saved, by name: parsed rows plus the exact bytes."""
    tables = {}
    for name in names:
        data = (directory / f"{name}.json").read_bytes()
        tables[name] = dict(rows=json.loads(data)["rows"], data=data)
    return tables


def check_rows(leg: str, tables: Dict[str, dict], tally: Tally) -> None:
    """Register every row of every table as attempted."""
    for name, table in tables.items():
        for index in range(len(table["rows"])):
            tally.visit((leg, name, index))


def check_conservation(
    leg: str,
    tables: Dict[str, dict],
    tally: Tally,
    expected_requests: Optional[int] = None,
) -> None:
    """completed + dropped + shed + deadline_exceeded = requests, exactly.

    Rows with a ``requests`` column are checked directly.  Per-phase rows
    must add up to their run's ``requests``.  e9 rows carry no ``requests``
    column, so they are held to ``expected_requests``, and per-cell rows must
    add up to their row's ``completed``.
    """
    requests: Dict[Tuple, int] = {}
    for name, table in tables.items():
        for index, row in enumerate(table["rows"]):
            if "requests" in row and "phase" not in row:
                requests[row_key(row)] = row["requests"]
                if terminals(row) != row["requests"]:
                    tally.fail(
                        (leg, name, index),
                        f"terminals {terminals(row)} != requests {row['requests']}",
                    )
    for name, table in tables.items():
        phase_sums: Dict[Tuple, int] = {}
        first_index: Dict[Tuple, int] = {}
        for index, row in enumerate(table["rows"]):
            if "phase" in row:
                key = row_key(row)
                phase_sums[key] = phase_sums.get(key, 0) + terminals(row)
                first_index.setdefault(key, index)
        for key, total in phase_sums.items():
            if requests.get(key) != total:
                tally.fail(
                    (leg, name, first_index[key]),
                    f"phase terminals {total} != requests {requests.get(key)}",
                )
    if expected_requests is None:
        return
    completed: Dict[Tuple, int] = {}
    for name, table in tables.items():
        for index, row in enumerate(table["rows"]):
            if "profile" in row and "cell" not in row:
                completed[(row["profile"], row["batching"])] = row["completed"]
                if row["completed"] != expected_requests:
                    tally.fail(
                        (leg, name, index),
                        f"completed {row['completed']} != requests {expected_requests}",
                    )
    for name, table in tables.items():
        cell_sums: Dict[Tuple, int] = {}
        first_index = {}
        for index, row in enumerate(table["rows"]):
            if "cell" in row:
                key = (row["profile"], row["batching"])
                cell_sums[key] = cell_sums.get(key, 0) + row["completed"]
                first_index.setdefault(key, index)
        for key, total in cell_sums.items():
            if completed.get(key) != total:
                tally.fail(
                    (leg, name, first_index[key]),
                    f"per-cell completed {total} != row completed {completed.get(key)}",
                )


def check_same_rows(
    leg: str,
    tables: Dict[str, dict],
    reference: Dict[str, dict],
    tally: Tally,
    suffix: str = "",
) -> None:
    """Each table equals the reference table field for field.

    ``suffix`` is stripped from a table's name to find its reference (the
    vectorized backend publishes ``<name>_vectorized``).
    """
    for name, table in tables.items():
        base = name[: -len(suffix)] if suffix and name.endswith(suffix) else name
        expected = reference.get(base)
        if expected is None:
            tally.fail((leg, name, None), f"no reference table {base}")
            continue
        if len(table["rows"]) != len(expected["rows"]):
            tally.fail(
                (leg, name, None),
                f"{len(table['rows'])} rows, reference has {len(expected['rows'])}",
            )
        for index, (row, other) in enumerate(zip(table["rows"], expected["rows"])):
            fields = sorted(
                field
                for field in set(row) | set(other)
                if canonical(row.get(field)) != canonical(other.get(field))
            )
            if fields:
                tally.fail((leg, name, index), f"differs from {base} in {', '.join(fields)}")


def check_goldens(leg: str, tables: Dict[str, dict], golden_dir: Path, tally: Tally) -> None:
    """Each table is byte-identical to its committed golden."""
    for name, table in tables.items():
        path = golden_dir / f"{name}.json"
        if not path.is_file():
            tally.fail((leg, name, None), f"no committed golden {path.name}")
            continue
        golden = path.read_bytes()
        if golden == table["data"]:
            continue
        golden_rows = json.loads(golden)["rows"]
        bad = [
            index
            for index, row in enumerate(table["rows"])
            if index >= len(golden_rows) or canonical(row) != canonical(golden_rows[index])
        ]
        for index in bad:
            tally.fail((leg, name, index), f"differs from golden {path.name}")
        if not bad:
            tally.fail((leg, name, None), f"bytes differ from golden {path.name}")


def untraced_rows(kind: str, tables: Dict[str, dict]) -> Tuple[Dict[str, dict], Dict[str, list]]:
    """The untraced leg's per-row outcomes and phase rows, keyed like traced rows."""
    summary: Dict[str, dict] = {}
    phases: Dict[str, list] = {}
    for table in tables.values():
        for row in table["rows"]:
            if kind == "catalog" and "phase" in row:
                key = f"{row['scenario']}/{row['policy']}"
                phase = {k: v for k, v in row.items() if k not in ("scenario", "policy")}
                phases.setdefault(key, []).append(phase)
            elif kind == "catalog" and "requests" in row:
                summary[f"{row['scenario']}/{row['policy']}"] = row
            elif kind == "e9" and "profile" in row and "cell" not in row:
                summary[f"{row['profile']}/{row['batching']}"] = row
    return summary, phases


def check_traced_rows(
    leg: str, kind: str, rows: List[dict], untraced: Dict[str, dict], tally: Tally
) -> None:
    """Traced outcomes equal the untraced leg's, and conserve requests."""
    summary, phases = untraced_rows(kind, untraced)
    if len(rows) != len(summary):
        tally.fail((leg, "traced", None), f"{len(rows)} traced rows, untraced has {len(summary)}")
    for index, row in enumerate(rows):
        key = (leg, "traced", index)
        tally.visit(key)
        if terminals(row) != row["requests"]:
            tally.fail(key, f"terminals {terminals(row)} != requests {row['requests']}")
        expected = summary.get(row["key"])
        if expected is None:
            tally.fail(key, f"no untraced row {row['key']}")
            continue
        fields = sorted(
            field
            for field in expected
            if field in row and canonical(row[field]) != canonical(expected[field])
        )
        if fields:
            tally.fail(key, f"{row['key']} differs from untraced in {', '.join(fields)}")
        if kind == "catalog" and canonical(row["phases"]) != canonical(phases.get(row["key"])):
            tally.fail(key, f"{row['key']} phase rows differ from untraced")
