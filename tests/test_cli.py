import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multinorm_sha.cli import (
    EXAMPLES,
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    SchemaError,
    _check_example,
    _parse,
    build_report,
    main,
    make_parser,
    parse_document,
)

from conftest import perfbench_workloads, run_example

ABSTRACT_17_13 = {
    "mode": "abstract",
    "p": 2,
    "exponents": [2, 2],
    "characters": [
        {"label": "K0", "target_exponent": 2, "coeffs": [1, 0]},
        {"label": "K1", "target_exponent": 2, "coeffs": [1, 1]},
        {"label": "K2", "target_exponent": 2, "coeffs": [0, 1]},
    ],
    "exceptional_places": [
        {"label": "v13", "generators": [[2, 0], [0, 1]]}
    ],
}


def write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_and_compute_abstract():
    components = parse_document(ABSTRACT_17_13)
    report = build_report(components, "both")
    assert report["agreement"] is True
    row = report["components"][0]
    assert row["sha"] == [1]
    assert row["sha_omega"] == [2]
    assert report["combined"]["sha_elementary_divisors"] == [2]
    assert report["combined"]["sha_omega_elementary_divisors"] == [4]


def test_schema_rejections():
    with pytest.raises(SchemaError):
        parse_document({"mode": "abstract"})
    with pytest.raises(SchemaError):
        parse_document({**ABSTRACT_17_13, "stray": 1})
    with pytest.raises(SchemaError):
        parse_document({**ABSTRACT_17_13, "p": "two"})
    bad = json.loads(json.dumps(ABSTRACT_17_13))
    bad["characters"][0].pop("coeffs")
    with pytest.raises(SchemaError):
        parse_document(bad)
    bad2 = json.loads(json.dumps(ABSTRACT_17_13))
    bad2["characters"][0]["coeffs"] = [1]
    with pytest.raises(SchemaError):
        parse_document(bad2)
    with pytest.raises(SchemaError):
        parse_document([{**ABSTRACT_17_13}, {**ABSTRACT_17_13}])  # repeated prime
    with pytest.raises(SchemaError):
        parse_document({"mode": "mystery"})
    with pytest.raises(SchemaError):
        parse_document([])


def test_multiprime_direct_sum():
    doc = EXAMPLES["cyclotomic"]["document"]
    report = build_report(parse_document(doc), "both")
    assert [row["p"] for row in report["components"]] == [2, 3]
    assert report["combined"]["sha_elementary_divisors"] == []
    assert report["agreement"] is True


def test_examples_golden():
    for name in EXAMPLES:
        report, failures = run_example(name)
        assert failures == [], (name, failures)


def test_goldens_are_checked_on_the_route_that_reports_them(capsys, monkeypatch):
    # expected_patching and expect_criterion are formula output: an oracle
    # report carries no patching data and passes; a wrong degree still fails
    # wherever the formula runs
    for method in ("oracle", "formula", "both"):
        assert main(["examples", "all", "--method", method]) == EXIT_OK, method
        assert "GOLDEN MISMATCH" not in capsys.readouterr().err
    monkeypatch.setitem(EXAMPLES["13-17-bicyclic"], "expected_patching", {"1": 3})
    for method in ("formula", "both"):
        assert main(["examples", "13-17-bicyclic", "--method", method]) == 4
        err = capsys.readouterr().err
        assert err == "  GOLDEN MISMATCH: delta at r=1 is 2, expected 3\n", method


def test_cli_validate_and_compute(tmp_path, capsys):
    path = write(tmp_path, ABSTRACT_17_13)
    assert main(["validate", path]) == EXIT_OK
    out = tmp_path / "report.json"
    assert main(["compute", path, "--method", "both", "--json", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["agreement"] is True
    # U_0 is the whole index set here, so both patching degrees are eps_0
    assert data["components"][0]["patching"] == [
        {"r": 0, "delta": 2, "delta_omega": 2}
    ]
    capsys.readouterr()


def test_cli_determinism(tmp_path, capsys):
    path = write(tmp_path, ABSTRACT_17_13)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["compute", path, "--json", str(out1)]) == EXIT_OK
    assert main(["compute", path, "--json", str(out2)]) == EXIT_OK
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("timing_ms"), d2.pop("timing_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "compute"])
@pytest.mark.parametrize("places", [None, 5, {}, "ab"], ids=["null", "int", "object", "string"])
def test_exceptional_places_not_an_array_exit_2(command, places, tmp_path, capsys):
    path = write(tmp_path, {**ABSTRACT_17_13, "exceptional_places": places})
    assert main([command, path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "config error: exceptional_places must be an array\n", err


def test_cli_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, {"mode": "abstract"}, "bad.json")
    assert main(["validate", bad]) == EXIT_VALIDATION
    assert main(["compute", bad]) == EXIT_VALIDATION
    missing = str(tmp_path / "missing.json")
    assert main(["validate", missing]) == EXIT_VALIDATION
    composite_p = write(
        tmp_path,
        {
            "mode": "abstract",
            "p": 6,
            "exponents": [1],
            "characters": [{"label": "a", "target_exponent": 1, "coeffs": [1]}],
        },
        "p6.json",
    )
    assert main(["validate", composite_p]) == EXIT_VALIDATION
    dup_places = write(
        tmp_path,
        {
            **ABSTRACT_17_13,
            "exceptional_places": [
                {"label": "v", "generators": [[1, 0]]},
                {"label": "v", "generators": [[0, 1]]},
            ],
        },
        "dup.json",
    )
    assert main(["validate", dup_places]) == EXIT_VALIDATION
    assert main(["kummer", "--radicands", "17,abc"]) == EXIT_VALIDATION
    # the document key budget is range-checked, but nothing reads it
    ok = write(tmp_path, {**ABSTRACT_17_13, "budget": 2})
    assert main(["compute", ok, "--method", "oracle"]) == EXIT_OK
    zero = write(tmp_path, {**ABSTRACT_17_13, "budget": 0}, "zero.json")
    assert main(["compute", zero]) == EXIT_VALIDATION
    unsupported = write(
        tmp_path, {"mode": "kummer", "radicands": [16, 17]}, "kummer.json"
    )
    assert main(["compute", unsupported]) == EXIT_VALIDATION
    assert main(["examples", "no-such-example"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_cli_kummer_command(tmp_path, capsys):
    assert main(["kummer", "--radicands", "17,221,13"]) == EXIT_OK
    out = tmp_path / "k.json"
    assert (
        main(
            [
                "kummer",
                "--radicands",
                "17,221,13",
                "--compute",
                "--json",
                str(out),
            ]
        )
        == EXIT_OK
    )
    data = json.loads(out.read_text())
    assert data["combined"]["sha_omega_elementary_divisors"] == [4]
    capsys.readouterr()


def test_cli_examples_command(capsys):
    assert main(["examples", "17-409"]) == EXIT_OK
    assert main(["examples", "all"]) == EXIT_OK
    capsys.readouterr()


def test_cli_selftest_command(capsys):
    assert main(["selftest", "--seed", "5", "--count", "25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "25/25 configs agree" in out


KUMMER_17_13 = {"mode": "kummer", "radicands": [17, 221, 13]}

# the same report through each of the three commands of the one report path
REPORT_COMMANDS = {
    "compute": ["compute", "KUMMER"],
    "kummer": ["kummer", "--radicands", "17,221,13", "--compute"],
    "examples": ["examples", "17-13"],
}


def report_argv(tmp_path, command, *flags):
    argv = [write(tmp_path, KUMMER_17_13) if a == "KUMMER" else a
            for a in REPORT_COMMANDS[command]]
    return argv + list(flags)


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_cli_disagreement_path(command, tmp_path, capsys, monkeypatch):
    # force the brute-force route to lie: the cross-check must exit 4
    import multinorm_sha.cli as cli
    from multinorm_sha.oracle import ShaReport

    def lying_oracle(cfg, local):
        return ShaReport((3,), (3,), (0,), "oracle")

    monkeypatch.setattr(cli, "oracle_report", lying_oracle)
    assert main(report_argv(tmp_path, command, "--method", "both")) == 4
    err = capsys.readouterr().err
    assert "DISAGREEMENT" in err or "GOLDEN MISMATCH" in err
    assert '"methods"' in err  # full dump of the offending component
    assert main(report_argv(tmp_path, command, "--json", "-")) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out)["agreement"] is False
    assert "DISAGREEMENT" in captured.err or "GOLDEN MISMATCH" in captured.err


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_debug_monotonicity_on_every_command(command, tmp_path, capsys, monkeypatch):
    import multinorm_sha.structure as structure

    def broken_scan(message, floor, hit, admissible):
        raise AssertionError("delta scan not monotone at r=0, d=1")

    monkeypatch.setattr(structure, "check_monotone_scans", broken_scan)
    assert main(report_argv(tmp_path, command)) == EXIT_OK
    assert main(report_argv(tmp_path, command, "--debug-monotonicity")) == EXIT_INTERNAL
    assert "not monotone" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS) + ["selftest"])
def test_agreement_covers_the_quotient(command, tmp_path, capsys, monkeypatch):
    # an oracle that matches sha and sha_omega but not sha_omega/sha
    import multinorm_sha.cli as cli
    import multinorm_sha.selftest as selftest
    from multinorm_sha.oracle import ShaReport

    honest = cli.oracle_report

    def lying_oracle(cfg, local):
        rep = honest(cfg, local)
        return ShaReport(rep.sha_invariants, rep.sha_omega_invariants,
                         (9,) + rep.quotient_invariants, rep.method)

    monkeypatch.setattr(cli, "oracle_report", lying_oracle)
    monkeypatch.setattr(selftest, "oracle_report", lying_oracle)
    if command == "selftest":
        assert main(["selftest", "--seed", "0", "--count", "3"]) == 4
        captured = capsys.readouterr()
        assert "0/3 configs agree" in captured.out
        assert captured.err.count("FAILURE: trial ") == 3
    else:
        assert main(report_argv(tmp_path, command, "--method", "both")) == 4
        assert "DISAGREEMENT" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS) + ["selftest"])
def test_a_report_breaking_its_own_checks_exits_5(command, tmp_path, capsys, monkeypatch):
    # the formula route hands back a sha that does not embed in sha_omega:
    # ShaReport refuses it as an internal failure, not with a traceback
    import multinorm_sha.structure as structure
    from multinorm_sha.oracle import ShaReport

    monkeypatch.setattr(structure.StructureResult, "report",
                        lambda self: ShaReport((2,), (1,), (), "formula"))
    if command == "selftest":
        argv = ["selftest", "--seed", "0", "--count", "3"]
    else:
        argv = report_argv(tmp_path, command, "--json", "-")
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    message = "internal check failed: sha must embed in sha_omega factor by factor\n"
    if command == "selftest":  # it names the trial and the drawn config
        assert err.startswith(message + "trial 0\np = ")
    else:
        assert err == message


def test_monotone_check_reads_the_single_block_of_17_13(tmp_path, capsys, monkeypatch):
    # 17-13 is one block with no patching scan; its root class node hits
    # f_omega = 2, so a predicate failing at f = 1 below it must be caught
    import multinorm_sha.structure as structure
    from multinorm_sha.structure import assemble

    from conftest import kummer_config

    cfg, local = kummer_config([17, 221, 13])
    honest = structure._f_omega_admissible

    def fails_at_one(cfg, members, lvl, f, r):
        return f != 1 and honest(cfg, members, lvl, f, r)

    monkeypatch.setattr(structure, "_f_omega_admissible", fails_at_one)
    result = assemble(cfg, local)
    assert [(n.f_omega, n.f) for n in result.trees[0].walk()][0] == (2, 1)
    with pytest.raises(AssertionError, match=r"^f_omega scan not monotone at r=0, c=\(1, 2\), f=1$"):
        assemble(cfg, local, debug=True)
    assert main(report_argv(tmp_path, "compute")) == EXIT_OK
    capsys.readouterr()
    argv = report_argv(tmp_path, "compute", "--method", "formula", "--debug-monotonicity")
    assert main(argv) == EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal check failed: f_omega scan not monotone at r=0, c=(1, 2), f=1\n"
    )


def test_debug_monotonicity_assembles_once_per_component(tmp_path, capsys, monkeypatch):
    import multinorm_sha.cli as cli

    calls = []
    assemble = cli.assemble
    monkeypatch.setattr(
        cli, "assemble", lambda cfg, local, debug: calls.append(cfg) or assemble(cfg, local, debug)
    )
    path = write(tmp_path, EXAMPLES["cyclotomic"]["document"])  # two components
    for method in ("formula", "both"):
        calls.clear()
        assert main(["compute", path, "--method", method, "--debug-monotonicity"]) == EXIT_OK
        assert len(calls) == 2, method

    def keys(*flags):
        assert main(["compute", path, "--method", "oracle", "--json", "-", *flags]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        return sorted(report), [sorted(row) for row in report["components"]]

    capsys.readouterr()
    assert keys("--debug-monotonicity") == keys()
    assert "patching" not in keys()[1][0]


@pytest.mark.parametrize(
    "flags",
    [
        ["--json", "OUT"],
        ["--method", "formula"],
        ["--method", "both"],
        ["--debug-monotonicity"],
    ],
    ids=["json", "method-formula", "method-both", "debug-monotonicity"],
)
def test_kummer_compute_flags_need_compute(flags, tmp_path, capsys):
    out = tmp_path / "k.json"
    argv = ["kummer", "--radicands", "17,221,13"]
    argv += [str(out) if f == "OUT" else f for f in flags]
    assert main(argv) == EXIT_VALIDATION
    assert "--compute" in capsys.readouterr().err
    assert not out.exists()


def test_kummer_without_compute_describes(capsys):
    assert main(["kummer", "--radicands", "17,221,13", "--labels", "a,b,c"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("component p = 2: valid\n")
    assert "exceptional places: ['1+i', '17|1+4i', '17|1-4i', '13|3+2i', '13|3-2i']" in out


def test_every_method_prints_its_quotient(tmp_path, capsys):
    path = write(tmp_path, ABSTRACT_17_13)
    assert main(["compute", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "  [formula] sha_omega/sha = Z/2\n" in out
    assert "  [oracle] sha_omega/sha = Z/2\n" in out
    out_json = tmp_path / "r.json"
    assert main(["compute", path, "--method", "formula", "--json", str(out_json)]) == 0
    rep = json.loads(out_json.read_text())["components"][0]["methods"]["formula"]
    assert rep["quotient_invariants"] == [1] and "quotient_annotation" not in rep
    capsys.readouterr()


def test_check_example_multi_prime():
    # Z/2 and Z/4 at p = 2 plus Z/3 and Z/9 at p = 3, as combined divisors
    abstract_3 = {
        **ABSTRACT_17_13,
        "p": 3,
        "exceptional_places": [{"label": "w", "generators": [[3, 0], [0, 1]]}],
    }
    report = build_report(parse_document([ABSTRACT_17_13, abstract_3]), "both")
    entry = {"document": [], "expected_sha": [3, 2], "expected_sha_omega": [9, 4]}
    assert _check_example(report, entry) == []
    wrong = {**entry, "expected_sha_omega": [9, 2]}
    assert _check_example(report, wrong) == ["sha_omega = [9, 4], expected [9, 2]"]


def homocyclic_doc(n, coeffs):
    return {
        "mode": "abstract",
        "p": 2,
        "exponents": [n, n],
        "characters": [
            {"label": f"K{t}", "target_exponent": n, "coeffs": list(c)}
            for t, c in enumerate(coeffs)
        ],
    }


def test_cli_large_groups(tmp_path, capsys):
    # the formula route has no order cap: five fields on (Z/2^80)^2
    five = [(1, 0), (0, 1), (1, 1), (1, 3), (1, 5)]
    big = write(tmp_path, homocyclic_doc(80, five), "big.json")
    assert main(["compute", big, "--method", "formula"]) == EXIT_OK
    # the oracle has no order cap either: both routes answer (Z/2^11)^2
    path = write(tmp_path, homocyclic_doc(11, five[:3]), "mid.json")
    assert main(["compute", path, "--method", "both"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[formula] sha = Z/2048, sha_omega = Z/2048" in out
    assert "[oracle] sha = Z/2048, sha_omega = Z/2048" in out
    assert "agreement: yes" in out
    # nor a budget on the ambient sum: both routes answer (Z/2^80)^2 and
    # (Z/2^4000)^2, whose orders 2^160 and 2^8000 no sweep could reach
    huge = write(tmp_path, homocyclic_doc(4000, five), "huge.json")
    out = tmp_path / "r.json"
    for n, path in ((80, big), (4000, huge)):
        start = time.perf_counter()
        assert main(["compute", path, "--method", "both", "--json", str(out)]) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        row = json.loads(out.read_text())["components"][0]
        assert row["agreement"] is True
        assert row["methods"]["oracle"]["sha_omega_invariants"] == [n, n - 1, n - 2]
    capsys.readouterr()


def test_many_fields_answer_on_both_routes(tmp_path, capsys):
    # the 112 characters of order 8 on (Z/8)^3 up to units: K_0 and 111
    # further fields, 6,105 pair congruences for G and for G_omega
    coeffs = sorted(
        {
            min(tuple(u * x % 8 for x in c) for u in (1, 3, 5, 7))
            for c in itertools.product(range(8), repeat=3)
            if any(x % 2 for x in c)
        }
    )
    assert len(coeffs) == 112
    doc = {
        "mode": "abstract",
        "p": 2,
        "exponents": [3, 3, 3],
        "characters": [
            {"label": f"K{t}", "target_exponent": 3, "coeffs": list(c)}
            for t, c in enumerate(coeffs)
        ],
    }
    path = write(tmp_path, doc)
    start = time.perf_counter()
    assert main(["compute", path, "--method", "both"]) == EXIT_OK
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out
    assert out.count("  K") == 112
    assert "agreement: yes" in out


def test_kummer_document_mode(tmp_path, capsys):
    doc = {"mode": "kummer", "radicands": [13, 17, 3757], "labels": ["a", "b", "c"]}
    path = write(tmp_path, doc)
    assert main(["compute", path, "--method", "both"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta = 2" in out
    assert "agreement: yes" in out


def test_cli_internal_check_failures_exit_5(tmp_path, capsys, monkeypatch):
    import multinorm_sha.oracle as oracle
    import multinorm_sha.structure as structure
    from multinorm_sha.abelian import Subgroup

    # G_omega = D, built after G: sha = Z/2 is not inside sha_omega = 0,
    # which breaks G <= G_omega
    def omega_is_diagonal(ambient, congruences, first_zero=False):
        calls.append(congruences)
        if len(calls) == 2:
            return Subgroup.span(ambient, [(1,) * ambient.rank])
        return build(ambient, congruences, first_zero)

    calls = []
    build = oracle._tree_group
    monkeypatch.setattr(oracle, "_tree_group", omega_is_diagonal)
    path = write(tmp_path, ABSTRACT_17_13)
    assert main(["compute", path, "--method", "oracle"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal check failed:") and "G <= G_omega" in err
    assert len(err.splitlines()) == 1

    def broken_scan(message, floor, hit, admissible):
        raise AssertionError("delta scan not monotone at r=0, d=1")

    monkeypatch.setattr(structure, "check_monotone_scans", broken_scan)
    argv = ["compute", path, "--method", "formula", "--debug-monotonicity"]
    assert main(argv) == EXIT_INTERNAL
    assert "not monotone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--count", "-5"],
        ["selftest", "--count", "0"],
        ["selftest", "--deep-every", "0"],
        ["selftest", "--deep-every", "-1"],
        # --budget is no longer an option, whatever its value
        ["compute", "cfg.json", "--budget", "0"],
        ["compute", "cfg.json", "--budget", "-8"],
        ["examples", "all", "--budget", "0"],
        ["kummer", "--radicands", "17,221,13", "--compute", "--budget", "-1"],
        ["compute", "cfg.json", "--budget", "5"],
    ],
)
def test_cli_out_of_range_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    if "--budget" in argv:
        assert "unrecognized arguments: --budget" in err
    else:
        assert "must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "CFG", "--json", "-"],
        ["kummer", "--radicands", "17,221,13", "--compute", "--json", "-"],
        ["examples", "all", "--json", "-"],
    ],
)
def test_json_to_stdout_is_parseable(argv, tmp_path, capsys):
    argv = [write(tmp_path, ABSTRACT_17_13) if a == "CFG" else a for a in argv]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "CFG"],
        ["examples", "17-13"],
        ["kummer", "--radicands", "17,221,13", "--compute"],
    ],
)
@pytest.mark.parametrize("target", ["DIR", "DIR/missing/report.json"])
def test_unwritable_json_path_exits_2(argv, target, tmp_path, capsys):
    argv = [write(tmp_path, ABSTRACT_17_13) if a == "CFG" else a for a in argv]
    path = target.replace("DIR", str(tmp_path))
    assert main(argv + ["--json", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {path}: "), err


@pytest.mark.parametrize(
    "argv",
    [
        ["kummer", "--radicands", "-3,5,7"],
        ["kummer", "--radicands=-3,5,7"],
        ["kummer", "--radicands", "-3,5,7", "--compute"],
        ["kummer", "--radic", "-3,5,7"],
    ],
)
def test_negative_radicand_reaches_the_radicand_check(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert "radicand -3 unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--radicands", "--radic"])
def test_radicands_without_a_value_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kummer", flag, "--compute"])
    assert exc.value.code == EXIT_VALIDATION
    assert "expected one argument" in capsys.readouterr().err


# What -h names: every command at top level, every positional and option
# of a command.
HELP_NAMES = {
    (): ["validate", "compute", "examples", "kummer", "selftest"],
    ("validate",): ["file"],
    ("compute",): ["file", "--method", "--json", "--debug-monotonicity"],
    ("examples",): ["name", "--method", "--json", "--debug-monotonicity"],
    ("kummer",): [
        "--radicands", "--labels", "--compute", "--method", "--json", "--debug-monotonicity",
    ],
    ("selftest",): ["--seed", "--count", "--deep-every"],
}

# (argv, exit code, expected): exit code None means the argv is accepted
# and `expected` holds the values parsed; 0 is help, whose stdout names
# everything in `expected`; 2 is a usage error, whose stderr says `expected`.
PARSER_TABLE = [
    *[([*cmd, flag], 0, names) for cmd, names in HELP_NAMES.items() for flag in ("-h", "--help")],
    (["kummer", "--radic", "17,5", "--debug"], None,
     {"radicands": "17,5", "debug_monotonicity": True, "compute": False}),
    # --radicands is kummer's: compute has no option with that prefix
    (["compute", "cfg.json", "--radic", "5"], 2, "unrecognized arguments: --radic 5"),
    (["compute", "cfg.json", "--meth=oracle", "--json=-"], None,
     {"file": "cfg.json", "method": "oracle", "json": "-"}),
    (["examples", "--method", "formula", "17-13"], None, {"name": "17-13", "method": "formula"}),
    (["selftest", "--seed", "-3"], None, {"seed": -3, "count": 100, "deep_every": 10}),
    (["kummer", "--radicands", "17,5", "--compute=1"], 2,
     "argument --compute: ignored explicit argument '1'"),
    (["compute"], 2, "the following arguments are required: file"),
    (["examples", "all", "17-13"], 2, "unrecognized arguments: 17-13"),
    ([], 2, "the following arguments are required: command"),
    (["frobnicate", "cfg.json"], 2, "argument command: invalid choice: 'frobnicate'"),
    (["compute", "cfg.json", "--method", "fast"], 2,
     "argument --method: invalid choice: 'fast' (choose from 'formula', 'oracle', 'both')"),
    (["selftest", "--count", "many"], 2, "argument --count: invalid int value: 'many'"),
]


@pytest.mark.parametrize("argv, code, expected", PARSER_TABLE, ids=lambda v: repr(v)[:60])
def test_parser_parity(argv, code, expected, capsys):
    if code is None:
        _handler, args = _parse(make_parser(), argv)
        assert {key: getattr(args, key) for key in expected} == expected
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert out.startswith("usage: multinorm-sha") and err == ""
        assert all(name in out for name in expected), out
    else:
        usage, message = err.splitlines()
        assert out == "" and usage.startswith("usage: multinorm-sha")
        known = tuple(argv[:1]) in HELP_NAMES
        prog = " ".join(["multinorm-sha", *argv[:1]]) if known else "multinorm-sha"
        assert message.startswith(f"{prog}: error: {expected}"), message


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "CFG", "--json", ""],
        ["examples", "17-13", "--json", ""],
        ["kummer", "--radicands", "17,221,13", "--compute", "--json="],
        # without --compute, kummer refuses every compute flag, an empty one too
        ["kummer", "--radicands", "17,221,13", "--json="],
    ],
)
def test_empty_json_value_is_a_usage_error(argv, tmp_path, capsys):
    argv = [write(tmp_path, ABSTRACT_17_13) if a == "CFG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"multinorm-sha {argv[0]}: error: argument --json: expected a path or '-'" in err


def test_kummer_refusals_are_bounded(capsys):
    p = 1099511627791  # the least prime above 2^40
    q = 1099511627803  # the next one; p * q is below MR_BOUND
    t0 = time.process_time()
    assert main(["kummer", "--radicands", f"{p * q},3", "--compute"]) == EXIT_BUDGET
    assert time.process_time() - t0 < 2.0
    assert "Pollard rho" in capsys.readouterr().err
    # a prime above MR_BOUND, where Miller-Rabin would only be probable
    t0 = time.process_time()
    assert main(["kummer", "--radicands", f"{2 ** 89 - 1},3"]) == EXIT_BUDGET
    assert time.process_time() - t0 < 0.1
    assert "not decided exactly" in capsys.readouterr().err


def _run_under_python_O(argv):
    import multinorm_sha

    src = str(Path(multinorm_sha.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-O", "-m", "multinorm_sha.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_kummer_json_under_python_O():
    argv = ["kummer", "--radicands", "1000003,1000033,3", "--compute", "--json", "-"]
    proc = _run_under_python_O(argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["agreement"] is True
    assert len(report["components"][0]["exceptional_places"]) == 5


def test_kummer_local_classes_under_python_O():
    # the local-class and coprime-base checks are explicit raises too
    argv = ["kummer", "--radicands", "3,5,7,11", "--compute", "--json", "-"]
    proc = _run_under_python_O(argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads(proc.stdout)
    assert report["agreement"] is True
    labels = [pl["label"] for pl in report["components"][0]["exceptional_places"]]
    assert labels == ["1+i", "3", "5|1+2i", "5|1-2i", "7", "11"]


def test_selftest_under_python_O():
    # the selftest path's checks are explicit raises, so they survive -O
    proc = _run_under_python_O(["selftest", "--seed", "0", "--count", "25"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "25/25 configs agree" in proc.stdout


def test_parser_is_built_once():
    assert make_parser() is make_parser()


def test_consecutive_mains_parse_independently(tmp_path, capsys):
    path = write(tmp_path, ABSTRACT_17_13)
    assert main(["compute", path, "--method", "oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[oracle] sha" in out and "[formula]" not in out
    assert main(["selftest", "--seed", "3", "--count", "2"]) == EXIT_OK
    assert "2/2 configs agree" in capsys.readouterr().out
    assert main(["compute", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[formula] sha" in out and "[oracle] sha" in out


def test_seed_key_is_unknown(tmp_path, capsys):
    path = write(tmp_path, {**ABSTRACT_17_13, "seed": 0})
    assert main(["compute", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown key(s): seed" in err


@pytest.fixture
def int_limit():
    """The interpreter's default int-to-str limit, 4,300 digits, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_exponent_at_the_int_to_str_limit(int_limit, tmp_path, capsys):
    # 2^14284 has 4,300 digits and every report prints it; 2^14285 has 4,301
    assert len(str(2 ** 14284)) == int_limit
    three = [(1, 0), (0, 1), (1, 1)]
    at = write(tmp_path, homocyclic_doc(14284, three), "at.json")
    above = write(tmp_path, homocyclic_doc(14285, three), "above.json")
    for argv in (
        ["validate"],
        ["compute", "--method", "formula"],
        ["compute", "--method", "formula", "--json", "-"],
    ):
        assert main([argv[0], at, *argv[1:]]) == EXIT_OK, argv
        assert str(2 ** 14284) in capsys.readouterr().out
        assert main([argv[0], above, *argv[1:]]) == EXIT_VALIDATION, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: exponent 14285: p^14285 has more than 4300"), err
    # a target exponent as well, before 3^(10^8) is built (over a minute)
    far = {**homocyclic_doc(3, three), "p": 3}
    far["characters"][0]["target_exponent"] = 10 ** 8
    start = time.perf_counter()
    assert main(["validate", write(tmp_path, far, "far.json")]) == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: characters[0].target_exponent 100000000: p^"), err


def test_exponent_at_the_least_int_to_str_limit(tmp_path, capsys):
    # at the least limit the interpreter allows, 640 digits, the digit bound
    # still refuses 2^2127 (641 digits) and 2^2200 (663) and admits 2^2126
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        three = [(1, 0), (0, 1), (1, 1)]
        assert main(["validate", write(tmp_path, homocyclic_doc(2126, three))]) == EXIT_OK
        assert str(2 ** 2126) in capsys.readouterr().out
        for n in (2127, 2200):
            assert main(["validate", write(tmp_path, homocyclic_doc(n, three))]) == EXIT_VALIDATION
            assert capsys.readouterr().err == (
                f"config error: exponent {n}: p^{n} has more than 640 decimal digits, "
                "the interpreter's limit for printing an integer\n"
            )
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("command", ["compute", "validate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100_000 + b"]" * 100_000, "is nested too deeply to read"),
        (b"\xff\xfe", "is not UTF-8 text"),
        (b'{"p": ' + b"7" * 5001 + b"}", "has an integer too long to read"),
        (b'{"mode": ', "is not valid JSON"),
    ],
    ids=["nested-100000-deep", "not-utf8", "int-5001-digits", "truncated"],
)
def test_unreadable_documents_exit_2(
    command, content, message, int_limit, tmp_path, capsys
):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path} {message}"), err


@pytest.mark.parametrize(
    "argv",
    [["selftest", "--seed", "0", "--count", "25"], ["examples", "all"]],
    ids=["selftest", "examples"],
)
def test_commands_run_without_the_literal_sweep(no_literal_places, no_listing, argv, capsys):
    assert main(argv) == EXIT_OK
    capsys.readouterr()


def test_aprime_postcondition_failure_exits_5(monkeypatch, capsys):
    import multinorm_sha.oracle as oracle

    monkeypatch.setattr(oracle, "_no_new_failures", lambda *args: False)
    assert main(["selftest", "--seed", "0", "--count", "3"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: failure set of a'")


def _stop_in_oracle_chain(monkeypatch):
    from multinorm_sha.abelian import Subgroup

    monkeypatch.setattr(Subgroup, "issubset", lambda self, other: False)


def _stop_in_aprime(monkeypatch):
    import multinorm_sha.oracle as oracle

    monkeypatch.setattr(oracle, "_no_new_failures", lambda *args: False)


def _stop_in_deep_check(monkeypatch):
    import multinorm_sha.structure as structure

    # the scans never test their floor r, so only the check sees this
    honest = structure._f_omega_admissible
    monkeypatch.setattr(
        structure, "_f_omega_admissible", lambda cfg, c, lvl, f, r: f != r and honest(cfg, c, lvl, f, r)
    )


@pytest.mark.parametrize(
    "stop, message",
    [
        (_stop_in_oracle_chain, "expected G <= G_omega"),
        (_stop_in_aprime, "failure set of a' is not contained in that of a"),
        (_stop_in_deep_check, "f_omega scan not monotone at r=0, c=(1, 2), f=0"),
    ],
    ids=["oracle-chain", "aprime", "deep-monotonicity"],
)
def test_selftest_names_the_trial_an_internal_check_stops(stop, message, monkeypatch, capsys):
    import multinorm_sha.selftest as selftest

    drawn = []
    draw = selftest.random_config
    monkeypatch.setattr(selftest, "random_config", lambda rng: drawn.append(draw(rng)) or drawn[-1])
    stop(monkeypatch)
    assert main(["selftest", "--seed", "0", "--count", "3"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    trial, config = len(drawn) - 1, selftest.describe_config(*drawn[-1])
    assert err == f"internal check failed: {message}\ntrial {trial}\n{config}\n"


# ---------------------------------------------------------------------------
# The JSON report is the standard library's compact encoding, keys sorted.

@pytest.fixture(scope="module")
def benchmark_documents():
    """The eight oracle-ladder rungs and 50 formula-scale documents (seed 0)."""
    workloads = perfbench_workloads()
    ladder = [doc for _name, doc in workloads.ladder_inputs(0)]
    assert len(ladder) == 8
    return [(doc, "both") for doc in ladder] + [
        (doc, "formula") for doc in workloads.formula_inputs(0)[::10][:50]
    ]


def test_json_stdout_reencodes_to_itself(benchmark_documents, tmp_path, capsys):
    runs = [["examples", "all", "--json", "-"]]
    for t, (doc, method) in enumerate(benchmark_documents):
        path = write(tmp_path, doc, name=f"doc{t}.json")
        runs.append(["compute", path, "--method", method, "--json", "-"])
    assert len(runs) == 59
    for argv in runs:
        assert main(argv) == EXIT_OK, argv
        out = capsys.readouterr().out
        assert out == "\n" + json.dumps(json.loads(out), sort_keys=True) + "\n", argv


def test_reports_build_no_encoder(monkeypatch, capsys):
    # every report goes through the one encoder cli builds at import, so a
    # command constructs none (json.dumps with sort_keys builds one a call)
    made = []
    init = json.JSONEncoder.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "__init__", counted)
    assert main(["examples", "all", "--json", "-"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)) == len(EXAMPLES)
    assert made == []


def test_formula_scale_agreement_gate(tmp_path, capsys):
    # every seed-0 formula-scale document under --method both is answered,
    # the routes agree on each, and every scan of the formula is monotone
    docs = perfbench_workloads().formula_inputs(0)
    assert len(docs) == 503
    for t, doc in enumerate(docs):
        path = write(tmp_path, doc, name=f"scale{t}.json")
        rc = main(["compute", path, "--method", "both", "--debug-monotonicity", "--json", "-"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, (t, rc, captured.err)
        assert json.loads(captured.out)["agreement"] is True, t
