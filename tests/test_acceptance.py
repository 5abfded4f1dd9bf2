"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Time limits are wall-clock bounds on
the computation itself (process startup and imports excluded).
"""

import random
import time

from multinorm_sha.kummer import (
    _reduce_mod_power,
    gmul,
    is_fourth_power_local,
    split_prime_above,
)
from multinorm_sha.oracle import oracle_report
from multinorm_sha.selftest import run_selftest
from multinorm_sha.structure import (
    assemble,
    shortcut_bicyclic_subfields,
    shortcut_linearly_disjoint,
)

from conftest import run_example
from test_structure import (
    random_bicyclic_subfields_instance,
    random_disjoint_instance,
)


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, detail


def _golden(name, sha, sha_omega, max_seconds=1.0):
    t0 = time.perf_counter()
    report, failures = run_example(name, method="both")
    elapsed = time.perf_counter() - t0
    combined = report["combined"]
    ok = (
        not failures
        and combined["sha_elementary_divisors"] == sha
        and combined["sha_omega_elementary_divisors"] == sha_omega
        and report["agreement"] is True
        and elapsed < max_seconds
    )
    return ok, report, f"{elapsed:.3f}s, sha={combined['sha_elementary_divisors']}, " \
                       f"sha_omega={combined['sha_omega_elementary_divisors']}"


def test_criterion_1_golden_17_13():
    ok, _report_doc, detail = _golden("17-13", [2], [4])
    _report("1 (golden 17-13: sha = Z/2, sha_omega = Z/4, both methods, <1s)",
            ok, detail)


def test_criterion_2_golden_17_409():
    ok, _report_doc, detail = _golden("17-409", [4], [4])
    _report("2 (golden 17-409: sha = sha_omega = Z/4, both methods, <1s)",
            ok, detail)


def test_criterion_3_golden_bicyclic_block():
    ok, report, detail = _golden("13-17-bicyclic", [2], [2])
    delta_entry = [
        pd
        for row in report["components"]
        for pd in row["patching"]
        if pd["r"] == 1
    ]
    ok = ok and delta_entry and delta_entry[0]["delta"] == 2
    _report(
        "3 (golden 13-17-bicyclic: both groups Z/2, delta_1 = 2 in patching)",
        ok,
        detail + f", delta_1={delta_entry[0]['delta'] if delta_entry else None}",
    )


def test_criterion_4_golden_cyclotomic():
    t0 = time.perf_counter()
    report, failures = run_example("cyclotomic", method="both")
    elapsed = time.perf_counter() - t0
    combined = report["combined"]
    # trivial via the intersection criterion AND via general assembly/oracle
    criterion_fired = all(row["criterion_trivial"] for row in report["components"])
    general_trivial = (
        combined["sha_elementary_divisors"] == []
        and combined["sha_omega_elementary_divisors"] == []
        and report["agreement"] is True
    )
    ok = not failures and criterion_fired and general_trivial
    _report(
        "4 (golden cyclotomic: both groups 0, by criterion and by assembly)",
        ok,
        f"{elapsed:.3f}s, criterion={criterion_fired}",
    )


def test_criteria_5_and_6_selftest_500():
    t0 = time.perf_counter()
    summary = run_selftest(seed=20250809, count=500, deep_every=25)
    elapsed = time.perf_counter() - t0
    agree_ok = summary.agreements == 500 and not summary.failures
    time_ok = elapsed < 120.0
    _report(
        "5 (oracle-formula equivalence on 500 random configs, <120s)",
        agree_ok and time_ok,
        f"{summary.agreements}/500 agree, {elapsed:.1f}s",
    )
    invariants_ok = summary.invariant_checks == 500
    _report(
        "6 (structural invariant suite on the same 500 configs)",
        invariants_ok and not summary.failures,
        f"{summary.invariant_checks}/500 clean, {summary.deep_checks} deep scans",
    )


def test_criterion_7_shortcut_consistency():
    rng = random.Random(90125)
    bad = 0
    for _ in range(100):
        cfg, local = random_disjoint_instance(rng)
        sha, sha_omega = shortcut_linearly_disjoint(cfg, local)
        res = assemble(cfg, local)
        rep = oracle_report(cfg, local)
        if not (
            sha == res.sha_invariants == rep.sha_invariants
            and sha_omega == res.sha_omega_invariants == rep.sha_omega_invariants
        ):
            bad += 1
    for _ in range(100):
        cfg, local = random_bicyclic_subfields_instance(rng)
        sha_omega = shortcut_bicyclic_subfields(cfg)
        res = assemble(cfg, local)
        rep = oracle_report(cfg, local)
        if not (sha_omega == res.sha_omega_invariants == rep.sha_omega_invariants):
            bad += 1
    _report(
        "7 (shortcut formulas equal both general paths on 100+100 instances)",
        bad == 0,
        f"{bad} mismatches",
    )


def test_criterion_8_local_arithmetic_oracle():
    failures = []
    # split primes < 200: complete residue oracle
    for p in range(5, 200, 4):
        if any(p % d == 0 for d in range(3, int(p ** 0.5) + 1, 2)) or p % 4 != 1:
            continue
        pi = split_prime_above(p)
        fourth = {pow(x, 4, p) for x in range(1, p)}
        for u in range(1, p):
            if is_fourth_power_local(u, pi) != (u in fourth):
                failures.append(f"split {p} at {u}")
    # inert primes < 200: all rational units are fourth powers; Gaussian
    # residues checked exhaustively for the small ones
    for p in range(3, 200, 4):
        if any(p % d == 0 for d in range(3, int(p ** 0.5) + 1, 2)) or p % 4 != 3:
            continue
        for u in range(1, p):
            if not is_fourth_power_local(u, (p, 0)):
                failures.append(f"inert {p} at {u}")
    for p in (3, 7, 11):
        fourth = set()
        for a in range(p):
            for b in range(p):
                if (a, b) != (0, 0):
                    x2 = ((a * a - b * b) % p, 2 * a * b % p)
                    fourth.add(
                        ((x2[0] ** 2 - x2[1] ** 2) % p, 2 * x2[0] * x2[1] % p)
                    )
        for a in range(p):
            for b in range(p):
                if (a, b) == (0, 0):
                    continue
                if is_fourth_power_local((a, b), (p, 0)) != ((a, b) in fourth):
                    failures.append(f"inert {p} at {a}+{b}i")
    # ramified place at precision 9, against the one-extra-digit search
    fourth13 = set()
    for a in range(256):
        for b in range(256):
            if (a + b) % 2:
                x2 = gmul((a, b), (a, b))
                fourth13.add(_reduce_mod_power(gmul(x2, x2), 13))
    fourth9 = {_reduce_mod_power(z, 9) for z in fourth13}
    for a in range(32):
        for b in range(16):
            if (a + b) % 2 == 0:
                continue
            want = _reduce_mod_power((a, b), 9) in fourth9
            if is_fourth_power_local((a, b), (1, 1)) != want:
                failures.append(f"ramified at {a}+{b}i")
    # the three quoted local facts
    if is_fourth_power_local(17, (3, 2)):
        failures.append("17 should not be a fourth power above 13")
    if not (
        is_fourth_power_local(17, split_prime_above(409))
        and is_fourth_power_local(409, split_prime_above(17))
    ):
        failures.append("17 and 409 should be quartic residues of each other")
    if not is_fourth_power_local(17, (1, 1)):
        failures.append("17 should be a fourth power at 1+i")
    _report(
        "8 (local arithmetic agrees with exhaustive search; quoted facts hold)",
        not failures,
        f"{len(failures)} failures" + (": " + failures[0] if failures else ""),
    )
