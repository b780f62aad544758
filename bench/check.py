"""Correctness checks on the CSV files one op writes.

Every op but the probe ops is compared with the reference outputs recorded
at the default seed (``reference.json``).  Cells that do not depend on the
seed are compared on every seed; the seeded cells listed in ``SEEDED`` only
at the default seed.  On every seed the checks also require the reference
exit code, finite numbers, ``lo <= hi`` for every bracket, and a quenched
free energy no higher than the annealed one plus three standard errors.

A probe op exercises a known defect, so its reference holds the defect
(``nan`` cells or an exception) and is never compared: a probe passes when
it exits 0, 2 or 3, writes only finite numbers and keeps the invariants.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from workloads import ANNEALED_TOL, QUENCHED_TOL, Op

# cells drawn from the seeded charge or path streams: (file, column)
SEEDED = {
    "free_energy_quenched.csv": {"log_Z_free", "log_Z_constrained", "f_free",
                                 "f_constrained", "seed"},
    "free_energy_summary.csv": {"f_quenched", "quenched_error",
                                "quenched_converged"},
    "critical_curve.csv": {"hc_que_lo", "hc_que_hi", "confidence"},
    "continuum_mc.csv": {"estimate", "stderr", "flagged"},
}

# bracket edges agree to one final bisection step; the workload configs
# leave the tolerances at the CLI defaults
BRACKET_TOL = {
    "hc_ann_lo": ANNEALED_TOL, "hc_ann_hi": ANNEALED_TOL,
    "hc_lower_bound": ANNEALED_TOL,
    "hc_que_lo": QUENCHED_TOL, "hc_que_hi": QUENCHED_TOL,
}
BRACKETS = (("hc_ann_lo", "hc_ann_hi"), ("hc_que_lo", "hc_que_hi"))

# deterministic values: equal up to last-bit rounding
REL_TOL = 1e-9
ABS_TOL = 1e-12

PROBE_EXIT_CODES = (0, 2, 3)


@dataclass
class Verdict:
    """Why an op failed; ``wrong`` marks a finite but incorrect output."""

    failures: list[str] = field(default_factory=list)
    wrong: bool = False

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failures.append(reason)
        self.wrong = self.wrong or wrong


def data_lines(text: str) -> str:
    """The CSV without its comment header (which carries the seed digest)."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


def _value(cell: str):
    if cell == "":
        return None
    if cell in ("True", "False"):
        return cell == "True"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse_csv(text: str) -> list[dict]:
    header, *rows = data_lines(text).splitlines()
    columns = header.split(",")
    return [dict(zip(columns, map(_value, row.split(",")))) for row in rows]


def _agree(column: str, got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        if column in BRACKET_TOL:
            return abs(got - want) <= BRACKET_TOL[column]
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(got) is type(want) and got == want


def _compare(verdict: Verdict, name: str, got: list[dict], want: list[dict],
             seeded: bool) -> None:
    if len(got) != len(want) or (got and list(got[0]) != list(want[0])):
        verdict.fail(f"{name}: shape differs from the reference", wrong=True)
        return
    skip = set() if seeded else SEEDED.get(name, set())
    for i, (g, w) in enumerate(zip(got, want)):
        for column in w:
            if column not in skip and not _agree(column, g[column], w[column]):
                verdict.fail(f"{name} row {i} {column}: {g[column]!r} != "
                             f"reference {w[column]!r}", wrong=True)


def _invariants(verdict: Verdict, tables: dict[str, list[dict]]) -> None:
    for row in tables.get("critical_curve.csv", ()):
        for lo, hi in BRACKETS:
            if row[lo] is not None and row[hi] is not None \
                    and not row[lo] <= row[hi]:
                verdict.fail(f"critical_curve.csv {lo} > {hi} at beta "
                             f"{row['beta']}", wrong=True)
    summary = tables.get("free_energy_summary.csv")
    samples = tables.get("free_energy_quenched.csv")
    if summary and samples:
        n_max = summary[0]["n_max"]
        f_samples = [r["f_constrained"] for r in samples if r["N"] == n_max]
        sem = statistics.stdev(f_samples) / math.sqrt(len(f_samples)) \
            if len(f_samples) > 1 else 0.0
        if not summary[0]["f_quenched"] <= summary[0]["f_annealed"] + 3 * sem:
            verdict.fail("quenched free energy above annealed + 3 sem",
                         wrong=True)


def check_op(op: Op, code, error, files: dict[str, str], reference: dict,
             seeded: bool) -> Verdict:
    """Check one op's exit code (None if it raised) and output files.

    ``reference`` is the op's entry in reference.json; ``seeded`` turns on
    the comparison of seeded cells (run at the default seed).
    """
    verdict = Verdict()
    if error is not None:
        verdict.fail(f"raised {error}")
        return verdict
    compare = not op.probe and reference["error"] is None \
        and bool(reference["files"])
    if not compare:
        if code not in PROBE_EXIT_CODES:
            verdict.fail(f"exit code {code}")
    elif code != reference["exit"]:
        verdict.fail(f"exit code {code}, reference {reference['exit']}")
    tables = {name: parse_csv(text) for name, text in sorted(files.items())}
    for name, rows in tables.items():
        for row in rows:
            bad = [c for c, v in row.items()
                   if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                verdict.fail(f"{name}: non-finite {bad[0]}={row[bad[0]]!r}")
                break
    if verdict.failures:
        return verdict
    if compare:
        if sorted(files) != sorted(reference["files"]):
            verdict.fail(f"files {sorted(files)} differ from the reference "
                         f"{sorted(reference['files'])}", wrong=True)
            return verdict
        for name, rows in tables.items():
            _compare(verdict, name, rows,
                     parse_csv(reference["files"][name]), seeded)
    _invariants(verdict, tables)
    return verdict
