"""Tests of the benchmark itself: each check rejects a tampered result.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from multinorm_sha import cli, fields  # noqa: E402


def _cli_stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _compute(tmp_path, doc, method="both") -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, out = _cli_stdout(["compute", str(path), "--method", method, "--json", "-"])
    assert rc == 0
    return out


def _with_report(stdout: str, report: dict) -> str:
    return stdout[: stdout.index("\n{") + 1] + json.dumps(report)


# p = 3, A = (Z/9)^2, one exceptional place: sha = Z/3 x Z/3, sha_omega = Z/9 x Z/9
SMALL = workloads.abstract_doc(
    3, (2, 2), [(2, (1, 0)), (2, (0, 1)), (2, (1, 1)), (2, (1, 2))], [[(3, 0), (0, 3)]]
)


@pytest.fixture(scope="module")
def small_stdout(tmp_path_factory):
    return _compute(tmp_path_factory.mktemp("small"), SMALL)


@pytest.fixture(scope="module")
def examples_stdout():
    rc, out = _cli_stdout(["examples", "all", "--json", "-"])
    assert rc == 0
    return out


def test_genuine_outputs_pass(small_stdout, examples_stdout):
    assert verify.check_compute_both(small_stdout) == []
    assert verify.check_examples(examples_stdout) == []
    comp = verify.report_json(small_stdout)["components"][0]
    assert comp["sha"] != comp["sha_omega"]


def test_swapped_sha_and_sha_omega_rejected(small_stdout):
    report = verify.report_json(small_stdout)
    for comp in report["components"]:
        comp["sha"], comp["sha_omega"] = comp["sha_omega"], comp["sha"]
    problems = verify.check_compute_both(_with_report(small_stdout, report))
    assert any("does not embed" in p for p in problems)


def test_factor_above_eps0_rejected(small_stdout):
    report = verify.report_json(small_stdout)
    comp = report["components"][0]
    eps0 = comp["fields"][0]["epsilon"]
    comp["methods"]["formula"]["sha_omega_invariants"][0] = eps0 + 1
    problems = verify.check_compute_both(_with_report(small_stdout, report))
    assert any("exceeds the bound" in p for p in problems)


def test_too_many_factors_rejected(small_stdout):
    report = verify.report_json(small_stdout)
    comp = report["components"][0]
    comp["sha_omega"] = comp["sha_omega"] + [1] * len(comp["fields"])
    problems = verify.check_compute_both(_with_report(small_stdout, report))
    assert any("exceeds the bound" in p for p in problems)


def test_disagreement_rejected(small_stdout):
    report = verify.report_json(small_stdout)
    report["agreement"] = False
    assert verify.check_compute_both(_with_report(small_stdout, report))


@pytest.mark.parametrize("name", sorted(verify.GOLDEN))
@pytest.mark.parametrize("key", ["sha", "sha_omega"])
def test_golden_value_off_by_one_rejected(examples_stdout, name, key):
    reports = verify.report_json(examples_stdout)
    combined = reports[name]["combined"]
    divisors = combined[f"{key}_elementary_divisors"]
    p = reports[name]["components"][0]["p"]
    # one more or one fewer power of p in the first factor
    combined[f"{key}_elementary_divisors"] = [divisors[0] * p] + divisors[1:] if divisors else [p]
    problems = verify.check_examples(_with_report(examples_stdout, reports))
    assert any(f"example {name}: {key} =" in p for p in problems)


def test_golden_delta_off_by_one_rejected(examples_stdout):
    reports = verify.report_json(examples_stdout)
    for pd in reports["13-17-bicyclic"]["components"][0]["patching"]:
        if pd["r"] == 1:
            pd["delta"] += 1
    problems = verify.check_examples(_with_report(examples_stdout, reports))
    assert any("delta_1" in p for p in problems)


def test_permuted_document_with_other_answer_rejected(tmp_path, small_stdout):
    same = _compute(tmp_path, workloads.permuted(SMALL, 0, 0), method="formula")
    assert verify.check_permuted(small_stdout, 0, same, "doc") == []
    report = verify.report_json(same)
    report["components"][0]["sha"] = report["components"][0]["sha"][1:]
    problems = verify.check_permuted(small_stdout, 0, _with_report(same, report), "doc")
    assert any("changed" in p for p in problems)
    assert verify.check_permuted(small_stdout, 3, "", "doc")


def test_kummer_place_count_rejected(tmp_path):
    rc, out = _cli_stdout(["kummer", "--radicands", "17,221,13", "--compute", "--json", "-"])
    assert rc == 0
    assert verify.expected_kummer_places((17, 13)) == 5
    assert verify.kummer_checker((17, 13))(out) == []
    assert verify.kummer_checker((17, 19))(out)


def test_selftest_summary_rejected():
    check = verify.selftest_checker(50)
    assert check("selftest: 50/50 configs agree (seed 3, ...)") == []
    assert check("selftest: 49/50 configs agree (seed 3, ...)")
    assert check("selftest: 5/5 configs agree (seed 3, ...)")


def test_inputs_depend_only_on_seed():
    assert workloads.formula_inputs(4) == workloads.formula_inputs(4)
    assert workloads.formula_inputs(4) != workloads.formula_inputs(5)
    assert workloads.kummer_inputs(4) == workloads.kummer_inputs(4)
    assert workloads.ladder_inputs(4) == workloads.ladder_inputs(4)


@pytest.mark.parametrize("seed", [0, 1])
def test_formula_documents_are_valid(seed):
    docs = workloads.formula_inputs(seed)
    for doc in docs[: workloads.FORMULA_DOCS]:
        for cfg, _local, _budget, _debug in cli.parse_document(doc):
            fields.validate_and_normalize(cfg)


def test_tracer_self_times_and_sites():
    import types

    inner_mod = types.SimpleNamespace()
    inner_mod.leaf = lambda x: x + 1
    leaf = inner_mod.leaf
    outer_mod = types.SimpleNamespace(leaf=leaf)
    outer_mod.top = lambda x: outer_mod.leaf(x) * 2
    tracer = spans.Tracer()
    wrapped_top = tracer.wrap("outer.top", outer_mod.top)
    outer_mod.leaf = tracer.wrap("inner.leaf", leaf, lambda a, k, r: {"leaves": 1})
    assert wrapped_top(1) == 4 and wrapped_top(2) == 6
    st = tracer.self_times()
    assert st["outer.top"][0] == 2 and st["inner.leaf"][0] == 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert tracer.counters == {"leaves": 2}
    total = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert abs(st["outer.top"][1] + st["inner.leaf"][1] - total) < 1e-9


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_counts_repeat(tmp_path):
    def traced(*extra):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "kummer",
             "--seed", "3", "--seconds", "0", "--trace", "1", *extra],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return _result(proc.stdout)

    span_file = tmp_path / "spans.jsonl"
    first, second = traced("--spans", str(span_file)), traced()
    assert first["correct"] and first["failed"] == 0
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts["kummer.builds"] == 18 and counts["cli.ops"] == 16
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    records = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert sum(r["name"] == "cli.main" for r in records) == counts["cli.ops"]
    assert set(records[0]) == {"name", "start", "end", "parent", "op"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kummer", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
