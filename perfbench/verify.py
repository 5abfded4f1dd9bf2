"""Checks of each operation's output against evidence the timed route lacks.

Every check returns a list of problems (empty when the output is right).
None of them compares against a stored copy of the program's output:

* route agreement, reported by the program, on `--method both` and in the
  selftest summary;
* the paper's published values for the four built-in examples;
* properties every answer must have: `sha` embeds factor by factor in
  `sha_omega`, and `sha_omega`, a subgroup of (+)_{i>=2} Z/p^{e_i}, has at
  most m - 1 invariant factors, bounded factor by factor by the sorted
  e_2..e_m (e_i = eps_0 - e_{0,i}, read from the report's field table);
* in Kummer mode, the exceptional places are 1+i plus two places over each
  split odd prime (q = 1 mod 4) and one over each inert one;
* on formula-scale, the answer of a config with its characters permuted.
"""

from __future__ import annotations

import json
import re

# The paper's values, as elementary divisors of the combined groups.
GOLDEN = {
    "17-13": {"sha": [2], "sha_omega": [4]},
    "17-409": {"sha": [4], "sha_omega": [4]},
    "13-17-bicyclic": {"sha": [2], "sha_omega": [2], "delta": {1: 2}},
    "cyclotomic": {"sha": [], "sha_omega": []},
}


def report_json(stdout: str) -> dict:
    """The JSON report that `--json -` appends after the text report."""
    start = 0 if stdout.startswith("{") else stdout.index("\n{") + 1
    return json.loads(stdout[start:])


def _invariants_problems(where, sha, sha_omega, e_rest):
    problems = []
    for name, seq in (("sha", sha), ("sha_omega", sha_omega)):
        if any(a < b for a, b in zip(seq, seq[1:])) or any(a < 1 for a in seq):
            problems.append(f"{where}: {name} = {seq} is not a list of invariant factors")
    if len(sha) > len(sha_omega) or any(s > w for s, w in zip(sha, sha_omega)):
        problems.append(f"{where}: sha = {sha} does not embed in sha_omega = {sha_omega}")
    bound = sorted(e_rest, reverse=True)
    if len(sha_omega) > len(bound) or any(w > b for w, b in zip(sha_omega, bound)):
        problems.append(
            f"{where}: sha_omega = {sha_omega} exceeds the bound e_2..e_m = {bound}"
        )
    return problems


def check_component(comp: dict, where: str = "component") -> list[str]:
    """Structural properties of one component's answers, every method."""
    fields = comp["fields"]
    eps0 = fields[0]["epsilon"]
    e_rest = [eps0 - f["e0"] for f in fields[2:]]
    problems = _invariants_problems(where, comp["sha"], comp["sha_omega"], e_rest)
    for method, rep in sorted(comp["methods"].items()):
        problems += _invariants_problems(
            f"{where} [{method}]", rep["sha_invariants"], rep["sha_omega_invariants"], e_rest
        )
    return problems


def check_report(report: dict, where: str = "report") -> list[str]:
    problems = []
    for t, comp in enumerate(report["components"]):
        problems += check_component(comp, f"{where} component {t}")
    return problems


def check_agreement(report: dict, where: str = "report") -> list[str]:
    flags = [report["agreement"]] + [c["agreement"] for c in report["components"]]
    if all(flag is True for flag in flags):
        return []
    return [f"{where}: routes do not agree ({flags})"]


def check_compute(stdout: str) -> list[str]:
    return check_report(report_json(stdout))


def check_compute_both(stdout: str) -> list[str]:
    report = report_json(stdout)
    return check_agreement(report) + check_report(report)


def check_golden(name: str, report: dict) -> list[str]:
    want = GOLDEN[name]
    combined = report["combined"]
    problems = []
    for key in ("sha", "sha_omega"):
        got = combined[f"{key}_elementary_divisors"]
        if got != want[key]:
            problems.append(f"example {name}: {key} = {got}, the paper has {want[key]}")
    for r, delta in want.get("delta", {}).items():
        got = [
            pd["delta"]
            for comp in report["components"]
            for pd in comp.get("patching", [])
            if pd["r"] == r
        ]
        if got != [delta]:
            problems.append(f"example {name}: delta_{r} = {got}, the paper has {delta}")
    return problems


def check_examples(stdout: str) -> list[str]:
    reports = report_json(stdout)
    problems = []
    if sorted(reports) != sorted(GOLDEN):
        problems.append(f"examples all ran {sorted(reports)}")
    for name, report in sorted(reports.items()):
        if name in GOLDEN:
            problems += check_golden(name, report)
        problems += check_agreement(report, f"example {name}")
        problems += check_report(report, f"example {name}")
    return problems


def expected_kummer_places(primes) -> int:
    return 1 + sum(2 if q % 4 == 1 else 1 for q in set(primes))


def kummer_checker(primes):
    """Checks of `kummer --compute` on radicands with odd prime support `primes`."""
    def check(stdout: str) -> list[str]:
        report = report_json(stdout)
        problems = check_agreement(report) + check_report(report)
        got = len(report["components"][0]["exceptional_places"])
        want = expected_kummer_places(primes)
        if got != want:
            problems.append(f"{got} exceptional places, expected {want} for primes {primes}")
        return problems
    return check


def selftest_checker(count: int):
    def check(stdout: str) -> list[str]:
        match = re.search(r"selftest: (\d+)/(-?\d+) configs agree", stdout)
        if not match or match.groups() != (str(count), str(count)):
            return [f"selftest summary is not {count}/{count}: {stdout.strip()[:120]!r}"]
        return []
    return check


def answer(stdout: str) -> list:
    """(sha, sha_omega) of every component, the quantity compared on permuting."""
    return [(c["sha"], c["sha_omega"]) for c in report_json(stdout)["components"]]


def check_permuted(original_stdout: str, rc: int, stdout: str, where: str) -> list[str]:
    """The permuted config's answer must equal the original's."""
    if rc != 0:
        return [f"{where}: permuted config exited {rc}"]
    original, got = answer(original_stdout), answer(stdout)
    if got != original:
        return [f"{where}: permuting the characters changed {original} to {got}"]
    return []
