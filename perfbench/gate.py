"""Correctness gate applied to the outputs of every pass.

A CSV row passes when
  * its status is ``ok``,
  * every deterministic cell equals the committed reference (strings exactly,
    numbers within DET_REL_TOL relative),
  * ``variance_numeric`` agrees with ``variance_closed_form`` within
    ENGINE_REL_TOL (the bound of ``mzinet verify``),
  * ``db_below_sql_mc`` is present where the reference has it and lies within
    MC_ROW_DB_TOL of ``db_below_sql``.

Over all rows of a pass, the mean of ``db_below_sql_mc - db_below_sql`` must
lie within MC_MEAN_DB_TOL, the 0.2 dB bound of acceptance criteria 01 and 02.
That bound is not applied per row: one Monte Carlo cell scatters by about
0.08 dB (standard deviation over 79 seeds), so 0.2 dB per row rejects about
one correct run in 25 (seeds 10, 122 and 133 of fig5b).  The per-row bound is
five standard deviations; the mean of a pass scatters by 0.05 dB.

The Monte Carlo columns change with the workload seed, so the reference keeps
only whether they are filled.  This module does not import mzinet.
"""

from __future__ import annotations

import hashlib
import math

DET_REL_TOL = 1e-12
ENGINE_REL_TOL = 1e-9
MC_ROW_DB_TOL = 0.4
MC_MEAN_DB_TOL = 0.2
MC_COLUMNS = ("db_below_sql_mc", "snr_db_mc")
MC_PRESENT = "*"


def _float(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def parse_csv(text: str):
    """(header, rows) of an mzinet scan CSV; cells stay strings."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def reference_entry(text: str) -> dict:
    """Reference form of a CSV: header plus rows with MC cells masked."""
    header, rows = parse_csv(text)
    mc = [i for i, col in enumerate(header) if col in MC_COLUMNS]
    masked = []
    for row in rows:
        row = list(row)
        for i in mc:
            if i < len(row):
                row[i] = MC_PRESENT if row[i] else ""
        masked.append(row)
    return {"header": header, "rows": masked}


def deterministic_text(entry: dict) -> str:
    """The deterministic columns of a reference entry as CSV text."""
    header = entry["header"]
    keep = [i for i, col in enumerate(header) if col not in MC_COLUMNS]
    lines = [",".join(header[i] for i in keep)]
    # a short row (malformed output) reads as empty cells; the gate fails it
    lines += [",".join(row[i] if i < len(row) else "" for i in keep)
              for row in entry["rows"]]
    return "\n".join(lines) + "\n"


def digest(entries: dict) -> str:
    """sha256 over the deterministic columns of named CSV entries."""
    h = hashlib.sha256()
    for name in sorted(entries):
        h.update(name.encode() + b"\n")
        h.update(deterministic_text(entries[name]).encode())
    return h.hexdigest()


def check_outputs(texts: dict, reference: dict) -> tuple[int, list]:
    """Gate the CSVs of one pass ({file name: text}) against the reference
    entries of the same names.

    Returns (operations attempted, failure messages).  Every row is one
    operation and adds at most one message; a header or row-count mismatch
    fails every reference row of that file.  The Monte Carlo mean is one more
    operation when any row has a Monte Carlo value.
    """
    attempted, failures, deviations = 0, [], []
    for name in sorted(texts):
        n, problems = _check_csv(texts[name], reference[name], name, deviations)
        attempted += n
        failures += problems
    if deviations:
        attempted += 1
        mean = sum(deviations) / len(deviations)
        if abs(mean) > MC_MEAN_DB_TOL:
            failures.append(f"mean db_below_sql_mc - db_below_sql = {mean:.3f} dB "
                            f"over {len(deviations)} rows")
    return attempted, failures


def _check_csv(text, reference, name, deviations):
    header, rows = parse_csv(text)
    expected = reference["rows"]
    attempted = max(len(rows), len(expected))
    if header != reference["header"]:
        return attempted, [f"{name}: header differs from the reference"] * attempted
    failures = []
    if len(rows) != len(expected):
        failures += [f"{name}: {len(rows)} rows, reference has {len(expected)}"] * (
            attempted - min(len(rows), len(expected)))
    col = {c: i for i, c in enumerate(header)}
    for index, (row, ref) in enumerate(zip(rows, expected)):
        problem = _check_row(row, ref, header, col, deviations)
        if problem:
            failures.append(f"{name} row {index}: {problem}")
    return attempted, failures


def _check_row(row, ref, header, col, deviations):
    if len(row) != len(header):
        return f"{len(row)} cells, header has {len(header)}"
    status = row[col["status"]]
    if status != "ok":
        return f"status {status!r}"
    for i, column in enumerate(header):
        got, want = row[i], ref[i]
        if column in MC_COLUMNS:
            if (want == MC_PRESENT) != (_float(got) is not None):
                return f"{column} presence differs from the reference"
            continue
        if got == want:
            continue
        a, b = _float(got), _float(want)
        if a is None or b is None or not _rel_close(a, b, DET_REL_TOL):
            return f"{column} = {got!r}, reference {want!r}"
    numeric = _float(row[col["variance_numeric"]])
    closed = _float(row[col["variance_closed_form"]])
    if numeric is not None and closed is not None and not _rel_close(
            numeric, closed, ENGINE_REL_TOL):
        return f"variance_numeric {numeric!r} vs closed form {closed!r}"
    mc = _float(row[col["db_below_sql_mc"]])
    if mc is not None:
        model = _float(row[col["db_below_sql"]])
        if model is None or abs(mc - model) > MC_ROW_DB_TOL:
            return f"db_below_sql_mc {mc!r} vs db_below_sql {model!r}"
        deviations.append(mc - model)
    return None


def check_verify(checks, reference: list) -> tuple[int, list]:
    """Gate a verify report given as [(name, deviation, bound, ok), ...].

    Each check is one operation; the names and bounds must match the
    reference and every check must pass.
    """
    attempted = max(len(checks), len(reference))
    failures = []
    if [[c[0], c[2]] for c in checks] != reference:
        failures.append("verify checks differ from the reference")
    failures += [f"verify: {c[0]} deviation {c[1]:.3e} > bound {c[2]:.1e}"
                 for c in checks if not c[3]]
    return attempted, failures


def verify_digest(reference: list) -> str:
    return hashlib.sha256(
        "".join(f"{name},{bound!r}\n" for name, bound in reference).encode()
    ).hexdigest()
