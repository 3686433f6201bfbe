"""One core for every benchmark gate: run the legs, judge, report.

A gate is one row of a table (``benchmarks/gates.py``): a set of cases,
each timing a *candidate* leg against a *baseline* leg (or a candidate
alone), a statistic, a floor or ceiling, per-case parity checks and the
conditions under which the threshold is not enforced.  :func:`run_gates`
runs selected rows, writes one ``BENCH_<name>.json`` per gate name
through :func:`~repro.bench.report.write_bench_report`, and returns the
exit status.

Statistics:

* **best** (default): one untimed warm-up run per leg (skipped when
  ``warmup=False``), then alternating timed runs and each leg's best;
  parity checks get each leg's first timed result.
  A floor bounds the speedup ``t(baseline) / t(candidate)``; a ceiling
  bounds the ratio ``t(candidate) / t(baseline)``, or the candidate's
  own seconds when the case has no baseline.
* **median**: the median ratio ``t(candidate) / t(baseline)`` over
  time-adjacent pairs, with a plain-vs-plain control probe per case
  (``noise_ceiling``): the control's true ratio is exactly 1.0, so its
  deviation is the machine's noise floor, and a breach on a host noisier
  than that is skipped with a notice instead of failing.  Parity checks
  get each leg's warm-up result.

Parity checks run after the case's timed runs.  A leg or check that
raises fails its gate.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.bench.timing import alternate, geomean, median_pair_ratio, timed

__all__ = ["Case", "Gate", "run_gate", "run_gates"]


@dataclass(frozen=True)
class Case:
    """One shape of a gate: the legs to time and what their answers must satisfy."""

    label: str
    candidate: Callable[[], Any]
    baseline: Optional[Callable[[], Any]] = None
    #: Timed runs per leg (pairs, for the median statistic).
    repeat: int = 1
    #: Timed baseline runs when they differ from ``repeat``.
    baseline_repeat: Optional[int] = None
    #: Median statistic: runs aggregated into one timed leg.
    inner: int = 1
    #: ``(baseline result, candidate result) -> problems``.
    parity: Optional[Callable[[Any, Any], Iterable[str]]] = None
    #: Whether the case's value counts toward the threshold.
    gated: bool = True
    #: Skip the case when one baseline run takes longer than this (s).
    deadline: Optional[float] = None


@dataclass(frozen=True)
class Gate:
    """One row of the gate table."""

    name: str
    title: str
    cases: Callable[[], Sequence[Case]]
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    #: A value equal to the bound fails.
    strict: bool = False
    median: bool = False
    #: Judge the geometric mean of the gated cases instead of each one.
    geomean: bool = False
    warmup: bool = True
    noise_ceiling: Optional[float] = None
    #: The threshold is enforced only on hosts with this many cores.
    min_cores: int = 1
    #: A breach within ``slack`` x the ceiling means a machine too slow
    #: to time the gate: skipped with a notice, not failed.
    slack: Optional[float] = None
    #: ``() -> notice`` when the whole gate cannot run on this host.
    skip: Optional[Callable[[], Optional[str]]] = None


def _measure(gate: Gate, case: Case) -> Dict:
    if case.deadline is not None:
        seconds, _ = timed(case.baseline)
        if seconds > case.deadline:
            return {
                "skipped": f"{case.label}: baseline took {seconds:.0f}s "
                f"(> {case.deadline:.0f}s deadline); gate skipped on this machine"
            }
    legs = [fn for fn in (case.baseline, case.candidate) if fn is not None]
    row: Dict[str, Any] = {"shape": case.label, "gated": case.gated}
    if gate.median:
        first = [timed(fn)[1] for fn in legs]
        if gate.noise_ceiling is not None:
            control, _, _ = median_pair_ratio(
                case.baseline, case.baseline, case.repeat, case.inner
            )
            row["control"] = control
        ratio, cand, base = median_pair_ratio(
            case.baseline, case.candidate, case.repeat, case.inner
        )
        row.update(baseline_ms=base * 1e3, candidate_ms=cand * 1e3, value=ratio)
    else:
        if gate.warmup:
            for fn in legs:
                fn()
        runs = [case.repeat] * len(legs)
        if case.baseline is not None and case.baseline_repeat is not None:
            runs[0] = case.baseline_repeat
        best, first = alternate(list(zip(legs, runs)))
        cand = best[-1]
        row["candidate_ms"] = cand * 1e3
        if case.baseline is None:
            row["value"] = cand
        else:
            row["baseline_ms"] = best[0] * 1e3
            row["value"] = cand / best[0] if gate.ceiling is not None else best[0] / cand
    if case.parity is not None:
        base_result = first[0] if case.baseline is not None else None
        row["problems"] = [
            f"{case.label}: {problem}"
            for problem in case.parity(base_result, first[-1])
        ]
    return row


def _breach(gate: Gate, value: float) -> Optional[str]:
    if gate.floor is not None:
        if value < gate.floor or (gate.strict and value == gate.floor):
            return f"{value:.4g} is below the {gate.floor} floor"
    if gate.ceiling is not None:
        if value > gate.ceiling or (gate.strict and value == gate.ceiling):
            return f"{value:.4g} is above the {gate.ceiling} ceiling"
    return None


def run_gate(gate: Gate) -> Dict:
    """Run one row; return its report (``failures`` empty when it passes)."""
    print(f"{gate.name}: {gate.title}")
    report: Dict[str, Any] = {
        "title": gate.title,
        "floor": gate.floor,
        "ceiling": gate.ceiling,
        "statistic": "median pair ratio" if gate.median else "best of alternating runs",
        "shapes": [],
        "failures": [],
        "skipped": [],
    }
    failures, skipped = report["failures"], report["skipped"]
    notice = gate.skip() if gate.skip is not None else None
    if notice:
        skipped.append(notice)
    else:
        for case in gate.cases():
            try:
                row = _measure(gate, case)
            except Exception as exc:  # a broken leg or check fails the gate
                failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            if "skipped" in row:
                skipped.append(row["skipped"])
                continue
            failures.extend(row.pop("problems", []))
            report["shapes"].append(row)
            base = row.get("baseline_ms")
            print(
                f"  {case.label:10s} "
                + (f"baseline={base:.3f}ms " if base is not None else "")
                + f"candidate={row['candidate_ms']:.3f}ms value={row['value']:.4g}"
            )
        _judge(gate, report)
    for line in skipped:
        print(f"SKIP: {gate.name}: {line}")
    for line in failures:
        print(f"FAIL: {gate.name}: {line}", file=sys.stderr)
    return report


def _judge(gate: Gate, report: Dict) -> None:
    if gate.floor is None and gate.ceiling is None:
        return
    gated = [row for row in report["shapes"] if row["gated"]]
    if not gated:
        return
    if gate.geomean:
        report["geomean"] = geomean(row["value"] for row in gated)
        print(f"  geometric mean {report['geomean']:.4g}")
        verdicts = [("geometric mean", report["geomean"])]
    else:
        verdicts = [(row["shape"], row["value"]) for row in gated]
    cores = os.cpu_count() or 1
    if cores < gate.min_cores:
        report["skipped"].append(
            f"{cores}-core host: the threshold needs >= {gate.min_cores} "
            "cores and is reported, not enforced"
        )
        return
    noise = max((abs(row["control"] - 1.0) for row in gated if "control" in row), default=0.0)
    if gate.noise_ceiling is not None:
        report["noise"] = noise
    for label, value in verdicts:
        breach = _breach(gate, value)
        if breach is None:
            continue
        if gate.noise_ceiling is not None and noise > gate.noise_ceiling:
            report["skipped"].append(
                f"{label}: {breach}, but the plain-vs-plain control deviates "
                f"{noise:.4f} from 1.0 (> {gate.noise_ceiling}); the machine "
                "cannot resolve the effect"
            )
        elif gate.slack is not None and value <= gate.slack * gate.ceiling:
            report["skipped"].append(
                f"{label}: {breach}; machine too slow or preempted to time it "
                f"(fails beyond {gate.slack:g}x)"
            )
        else:
            report["failures"].append(f"{label}: {breach}")


def run_gates(table: Sequence[Gate], names: Sequence[str]) -> int:
    """Run the rows named in ``names`` (every row when empty); exit status.

    Rows sharing a name form one gate and one ``BENCH_<name>.json``.
    """
    from repro.bench.report import write_bench_report

    known = list(dict.fromkeys(gate.name for gate in table))
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown gate(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2
    failed = False
    for name in names or known:
        rows = [run_gate(gate) for gate in table if gate.name == name]
        failures = [line for row in rows for line in row["failures"]]
        skipped = [line for row in rows for line in row["skipped"]]
        path = write_bench_report(
            name,
            {"bench": name, "rows": rows, "failures": failures, "skipped": skipped},
        )
        print(f"{name}: {'FAIL' if failures else 'ok'} (wrote {path})")
        failed = failed or bool(failures)
    return 1 if failed else 0
