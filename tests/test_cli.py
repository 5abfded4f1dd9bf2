import json
import time

import pytest

from multinorm_sha.cli import (
    EXAMPLES,
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    SchemaError,
    build_report,
    main,
    parse_document,
    run_example,
)

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
    ok = write(tmp_path, ABSTRACT_17_13)
    assert main(["compute", ok, "--method", "oracle", "--budget", "2"]) == EXIT_BUDGET
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


def test_cli_disagreement_path(tmp_path, capsys, monkeypatch):
    # force the brute-force route to lie: the cross-check must exit 4
    import multinorm_sha.cli as cli
    from multinorm_sha.oracle import ShaReport

    def lying_oracle(cfg, local, budget=None):
        return ShaReport((3,), (3,), (0,), "oracle")

    monkeypatch.setattr(cli, "oracle_report", lying_oracle)
    path = write(tmp_path, ABSTRACT_17_13)
    assert main(["compute", path, "--method", "both"]) == 4
    err = capsys.readouterr().err
    assert "DISAGREEMENT" in err
    assert '"methods"' in err  # full dump of the offending component


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
    path = write(tmp_path, homocyclic_doc(80, five), "big.json")
    assert main(["compute", path, "--method", "formula"]) == EXIT_OK
    # the oracle's cyclic-candidate cap refuses (Z/2^11)^2 before any table
    path = write(tmp_path, homocyclic_doc(11, five[:3]), "mid.json")
    start = time.perf_counter()
    assert main(["compute", path, "--method", "both"]) == EXIT_BUDGET
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_kummer_document_mode(tmp_path, capsys):
    doc = {"mode": "kummer", "radicands": [13, 17, 3757], "labels": ["a", "b", "c"]}
    path = write(tmp_path, doc)
    assert main(["compute", path, "--method", "both"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta = 2" in out
    assert "agreement: yes" in out


def test_cli_internal_check_failures_exit_5(tmp_path, capsys, monkeypatch):
    import multinorm_sha.cli as cli
    import multinorm_sha.oracle as oracle

    # {0, (0, 1)} in Z/4 x Z/4 is not closed under addition
    monkeypatch.setattr(
        oracle,
        "enumerate_members",
        lambda *a, **k: (((0, 0), (0, 1)), ((0, 0), (0, 1), (0, 2), (0, 3))),
    )
    path = write(tmp_path, ABSTRACT_17_13)
    assert main(["compute", path, "--method", "oracle"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal check failed:") and "closed" in err
    assert len(err.splitlines()) == 1

    def broken_scan(cfg, local):
        raise AssertionError("delta scan not monotone at r=0, d=1")

    monkeypatch.setattr(cli, "check_monotone_scans", broken_scan)
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
        ["compute", "cfg.json", "--budget", "0"],
        ["compute", "cfg.json", "--budget", "-8"],
        ["examples", "all", "--budget", "0"],
        ["kummer", "--radicands", "17,221,13", "--compute", "--budget", "-1"],
    ],
)
def test_cli_out_of_range_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "must be >= 1" in err
