import json

import pytest

from subnorm import cli
from subnorm.cli import main
from subnorm.errors import InputFormatError
from subnorm.harness import GenConfig, run_suite
from subnorm.order import lattice_from_json
from subnorm.subordination import subalg_from_json


@pytest.fixture()
def files(tmp_path):
    b4 = {"elements": ["0", "a", "a'", "1"],
          "hasse": [[0, 1], [0, 2], [1, 3], [2, 3]]}
    leq_pairs = [[a, b] for a in range(4) for b in range(4)
                 if a == 0 or b == 3 or a == b]
    paths = {
        "algebra": tmp_path / "b4.json",
        "prec": tmp_path / "leq.json",
        "norms": tmp_path / "n.ion",
        "sub": tmp_path / "sub.json",
    }
    paths["algebra"].write_text(json.dumps(b4))
    paths["prec"].write_text(json.dumps(leq_pairs))
    paths["norms"].write_text("# demo\np |~ q\n")
    paths["sub"].write_text(json.dumps({"algebra": "b4.json", "prec": [[1, 1]]}))
    return {k: str(v) for k, v in paths.items()} | {"dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_holds(self, capsys, files):
        code, out = run(capsys, "check", "--algebra", files["algebra"],
                        "--prec", files["prec"], "--props", "SI")
        assert code == 0 and "SI: holds" in out

    def test_fails_with_witness(self, capsys, files):
        code, payload = run_json(capsys, "check", "--input", files["sub"],
                                 "--props", "LEQ_IN_PREC,SI")
        assert code == 1
        assert payload["results"]["LEQ_IN_PREC"]["holds"] is False
        assert payload["results"]["LEQ_IN_PREC"]["witness"] is not None

    def test_classify_output(self, capsys, files):
        code, payload = run_json(capsys, "check", "--algebra", files["algebra"],
                                 "--prec", files["prec"], "--classify")
        assert code == 0
        assert "subordination algebra" in payload["classes"]

    def test_classify_builds_no_carrier_tables(self, capsys, files, monkeypatch):
        # a one-shot query decides its flags with the sweeps alone
        loaded, load = [], cli._load_subalg

        def capture(args):
            loaded.append(load(args))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_subalg", capture)
        code, _ = run(capsys, "check", "--algebra", files["algebra"],
                      "--prec", files["prec"], "--props", "WO,AND,OR,DD,UD", "--classify")
        assert code == 0
        assert loaded[0].poset._tables is None

    def test_unknown_property(self, capsys, files):
        code, _ = run(capsys, "check", "--algebra", files["algebra"],
                      "--props", "NOPE")
        assert code == 2

    def test_text_and_json_verdicts_agree(self, capsys, files):
        code_t, out = run(capsys, "check", "--algebra", files["algebra"],
                          "--prec", files["prec"], "--props", "SI,WO")
        code_j, payload = run_json(capsys, "check", "--algebra", files["algebra"],
                                   "--prec", files["prec"], "--props", "SI,WO")
        assert code_t == code_j == 0
        assert ("SI: holds" in out) == payload["results"]["SI"]["holds"]

    @pytest.mark.parametrize("props", ["", ",", " , "])
    def test_empty_property_list_is_input_error(self, capsys, files, props):
        code, err = run_err(capsys, "check", "--input", files["sub"], "--props", props)
        assert code == 2
        assert err.count("\n") == 1 and "no property names" in err


class TestClose:
    def test_system_output_roundtrips(self, capsys, files):
        code, payload = run_json(capsys, "close", "--input", files["sub"],
                                 "--system", "2")
        assert code == 0
        S = subalg_from_json(payload)  # emitted JSON is accepted back
        assert (1, 1) in S.pairs()
        assert payload["added"] >= 4

    def test_rules_list(self, capsys, files):
        code, payload = run_json(capsys, "close", "--input", files["sub"],
                                 "--rules", "TOP,SI,WO")
        assert code == 0 and [3, 3] in payload["prec"]

    def test_missing_rule_choice(self, capsys, files):
        code, _ = run(capsys, "close", "--input", files["sub"])
        assert code == 2

    @pytest.mark.parametrize("rules", ["", ",", " , "])
    def test_empty_rule_list_is_input_error(self, capsys, files, rules):
        code, err = run_err(capsys, "close", "--input", files["sub"], "--rules", rules)
        assert code == 2
        assert err.count("\n") == 1 and "no property names" in err

    def test_system_and_rules_together_is_input_error(self, capsys, files):
        # neither choice wins silently
        code, err = run_err(capsys, "close", "--input", files["sub"],
                            "--system", "1", "--rules", "SI")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--system" in err and "--rules" in err


class TestDeriveOut:
    def test_derive_holds(self, capsys, files):
        code, _ = run(capsys, "derive", "--system", "1",
                      "--norms", files["norms"], "--query", "p&r |~ q|r")
        assert code == 0

    def test_derive_fails(self, capsys, files):
        code, _ = run(capsys, "derive", "--system", "2",
                      "--norms", files["norms"], "--query", "p|r |~ q")
        assert code == 1

    def test_out(self, capsys, files):
        code, payload = run_json(capsys, "out", "--system", "1",
                                 "--norms", files["norms"],
                                 "--gamma", "p", "--head", "q|r")
        assert code == 0 and payload["holds"]

    def test_out_modal_aggregates(self, capsys, files, tmp_path):
        norms = tmp_path / "agg.ion"
        norms.write_text("p & q |~ s\n")
        code_plain, _ = run(capsys, "out", "--system", "1", "--norms",
                            str(norms), "--gamma", "p, q", "--head", "s")
        code_modal, _ = run(capsys, "out", "--system", "1", "--norms",
                            str(norms), "--gamma", "p, q", "--head", "s",
                            "--modal")
        assert (code_plain, code_modal) == (1, 0)

    def test_bad_query_is_input_error(self, capsys, files):
        code, _ = run(capsys, "derive", "--system", "1",
                      "--norms", files["norms"], "--query", "p & |~ q")
        assert code == 2


class TestSlanted:
    def test_valid(self, capsys, files):
        code, payload = run_json(capsys, "slanted", "--algebra", files["algebra"],
                                 "--prec", files["prec"], "--ineq", "p <= <>p")
        assert code == 0 and payload["valid"] and payload["witness"] is None

    def test_invalid_with_witness_labels(self, capsys, files, tmp_path):
        chain = tmp_path / "chain3.json"
        chain.write_text(json.dumps({"elements": ["0", "m", "1"],
                                     "hasse": [[0, 1], [1, 2]]}))
        prec = tmp_path / "top_only.json"
        prec.write_text(json.dumps([[0, 2], [1, 2], [2, 2]]))
        code, payload = run_json(capsys, "slanted", "--algebra", str(chain),
                                 "--prec", str(prec), "--ineq", "<>p <= p")
        assert code == 1
        assert payload["witness_labels"]["p"] == "0"

    def test_nonmonotone_refused(self, capsys, files):
        code = main(["slanted", "--input", files["sub"], "--ineq", "p <= <>p"])
        err = capsys.readouterr().err
        assert code == 2 and "monotone" in err


class TestCompletionCmd:
    def test_output_loads_as_algebra(self, capsys, files, tmp_path):
        poset = tmp_path / "antichain.json"
        poset.write_text(json.dumps({"elements": ["x", "y"],
                                     "leq": [[1, 0], [0, 1]]}))
        code, payload = run_json(capsys, "completion", "--poset", str(poset))
        assert code == 0
        delta = lattice_from_json(payload)
        assert delta.n == 4
        assert payload["embed"] == [1, 2]


class TestDual:
    def test_space_and_checks(self, capsys, files):
        code, payload = run_json(capsys, "dual", "--algebra", files["algebra"],
                                 "--prec", files["prec"],
                                 "--check", "reflexive,transitive,proper")
        assert code == 0
        assert all(entry["holds"] for entry in payload["checks"].values())

    def test_failing_condition_sets_exit(self, capsys, files, tmp_path):
        # full relation: the dual relation is empty, reflexivity fails
        full = tmp_path / "full.json"
        full.write_text(json.dumps(
            {"algebra": "b4.json",
             "prec": [[a, b] for a in range(4) for b in range(4)]}))
        code, payload = run_json(capsys, "dual", "--input", str(full),
                                 "--check", "reflexive")
        assert code == 1 and not payload["checks"]["reflexive"]["holds"]

    def test_the_nine_condition_keys(self, capsys, files, monkeypatch):
        keys = ["reflexive", "transitive", "dense", "ct", "s9fwd", "s9bwd", "sl1", "sl2",
                "proper"]
        assert list(cli._REL_CONDS) == keys
        assert [c.name for c in cli._REL_CONDS.values()] == [
            "REFLEXIVE", "TRANSITIVE", "DENSE", "CT_REL", "S9_FWD_REL", "S9_BWD_REL",
            "SL1_REL", "SL2_REL", "PROPER_REL"]
        code, payload = run_json(capsys, "dual", "--algebra", files["algebra"],
                                 "--prec", files["prec"], "--check", ",".join(keys).upper())
        assert code in (0, 1) and sorted(payload["checks"]) == sorted(keys)
        monkeypatch.setenv("COLUMNS", "200")  # the help on one line
        with pytest.raises(SystemExit):
            main(["dual", "--help"])
        assert "(" + ",".join(keys) + ")" in capsys.readouterr().out

    def test_primefilter_construction(self, capsys, files):
        code, payload = run_json(capsys, "dual", "--algebra", files["algebra"],
                                 "--prec", files["prec"],
                                 "--construction", "primefilters")
        assert code == 0 and len(payload["points"]) == 2


class TestVerifyCmd:
    def test_report_written_and_deterministic(self, capsys, files, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, _ = run(capsys, "verify", "--carriers", "chain2",
                       "--seed", "7", "--out", str(out1))
        code2, _ = run(capsys, "verify", "--carriers", "chain2",
                       "--seed", "7", "--out", str(out2))
        assert code1 == code2 == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("timing"), b.pop("timing")
        assert a == b

    def test_checks_filter_and_replay(self, capsys, files, tmp_path):
        out = tmp_path / "rep.json"
        code, _ = run(capsys, "verify", "--carriers", "chain2",
                      "--checks", "bounds-of-related-pairs",
                      "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report["checks"]) == ["bounds-of-related-pairs"]
        # replay path: hand the runner a stored-counterexample-shaped file
        ce = tmp_path / "ce.json"
        ce.write_text(json.dumps({
            "check": "bounds-of-related-pairs",
            "instance": json.loads(files_sub_json(files)),
        }))
        code, payload = run_json(capsys, "verify", "--replay", str(ce))
        assert code == 0 and payload["status"] == "pass"

    def test_unknown_corpus(self, capsys, files):
        # --corpus is not an option: argparse rejects it as a usage error
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--corpus", "nope"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_unknown_check(self, capsys, files):
        code, _ = run(capsys, "verify", "--carriers", "chain2",
                      "--checks", "nope")
        assert code == 2

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_empty_check_list_is_input_error(self, capsys, checks):
        code = main(["verify", "--carriers", "chain2", "--checks", checks])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "no checks selected" in err

    @pytest.mark.parametrize("argv, noun", [
        (["--carriers", "chain2", "--checks",
          "bounds-of-related-pairs,bounds-of-related-pairs"], "check 'bounds-of-related-pairs'"),
        (["--carriers", "chain2,chain2"], "carrier 'chain2'"),
        (["--carriers", "chain2,b4,chain2"], "carrier 'chain2'"),
    ])
    def test_repeated_name_is_input_error(self, capsys, argv, noun):
        # a repeated check would be counted twice per instance, and a
        # repeated carrier would run its carrier-scoped checks once or
        # twice depending on what lies between the two names
        code = main(["verify", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and f"{noun} is named twice" in err

    def test_run_suite_rejects_repeated_names(self):
        with pytest.raises(InputFormatError, match="named twice"):
            run_suite(GenConfig(carriers=("chain2",)), check_names=["t-iff-space-dense"] * 2)
        with pytest.raises(InputFormatError, match="named twice"):
            GenConfig(carriers=("b4", "chain2", "b4"))

    def test_run_suite_rejects_empty_check_list(self):
        with pytest.raises(InputFormatError):
            run_suite(GenConfig(carriers=("chain2",)), check_names=[])

    @pytest.mark.parametrize("option", ["--samples", "--max-n"])
    def test_negative_count_is_input_error(self, capsys, option):
        code = main(["verify", "--carriers", "chain2", option, "-3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "non-negative" in err

    def test_max_n_above_exhaustive_cap_is_input_error(self, capsys):
        # carriers above four elements never enumerate exhaustively, so
        # a larger --max-n would silently run the random stream
        code = main(["verify", "--carriers", "chain5", "--max-n", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "max_n must be at most 4" in err


@pytest.mark.parametrize("value", ["", ",", " , "])
@pytest.mark.parametrize("argv", [
    ["check", "--input", "{sub}", "--props"],
    ["close", "--input", "{sub}", "--rules"],
    ["dual", "--algebra", "{algebra}", "--prec", "{prec}", "--check"],
    ["dual", "--input", "{sub}", "--check"],
    ["verify", "--carriers"],
    ["verify", "--carriers", "chain2", "--checks"],
], ids=["props", "rules", "check", "check-before-space", "carriers", "checks"])
def test_empty_list_option_is_input_error(capsys, files, argv, value):
    # every comma-list option that names nothing is bad input, never
    # a silent default or an empty run; dual reads --check before it
    # builds the space, which {sub} (not a subordination) would refuse
    code, err = run_err(capsys, *(a.format(**files) for a in argv), value)
    assert code == 2
    assert err.startswith("error: no ") and err.count("\n") == 1


def files_sub_json(files):
    algebra = json.load(open(files["algebra"]))
    return json.dumps({"algebra": algebra, "prec": [[1, 1]]})


def test_missing_file_is_input_error(capsys):
    code = main(["check", "--algebra", "/nonexistent.json", "--props", "SI"])
    capsys.readouterr()
    assert code == 2


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["check", "--input", "{bad}", "--props", "SI"],
        ["check", "--algebra", "{algebra}", "--prec", "{bad}", "--props", "SI"],
        ["check", "--input", "{sub_bad_algebra}", "--props", "SI"],
        ["slanted", "--input", "{bad}", "--ineq", "p <= <>p"],
        ["verify", "--replay", "{bad}"],
        ["verify", "--carriers", "{bad}"],
        ["completion", "--poset", "{bad}"],
        ["derive", "--system", "1", "--norms", "{binary}", "--query", "p |~ q"],
        ["out", "--system", "1", "--norms", "{binary}", "--gamma", "p", "--head", "q"],
    ], ids=["check-input", "check-prec", "check-algebra-path", "slanted-input",
            "verify-replay", "verify-carriers", "completion-poset", "derive-norms",
            "out-norms"])
    def test_unreadable_file_is_input_error(self, capsys, files, tmp_path, argv):
        (tmp_path / "bad.json").write_text('{"prec": [[0, 1]')
        (tmp_path / "binary.ion").write_bytes(b"p |~ q\xff\xfe\n")
        (tmp_path / "sub_bad_algebra.json").write_text(
            json.dumps({"algebra": "bad.json", "prec": []}))
        paths = {"bad": tmp_path / "bad.json", "binary": tmp_path / "binary.ion",
                 "sub_bad_algebra": tmp_path / "sub_bad_algebra.json",
                 "algebra": files["algebra"]}
        code, err = run_err(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, payload", [
        ("check", {"algebra": "b4.json", "prec": 5}),
        ("check", {"algebra": "b4.json", "prec": [[0.0, 1]]}),
        ("check", {"algebra": "b4.json", "prec": [[0, 1, 2]]}),
        ("check", {"algebra": "b4.json", "prec": [["0", "1"]]}),
        ("check", {"algebra": {"hasse": [[0, 1], [1]]}, "prec": []}),
        ("check-prec", 5),
        ("check-prec", [[0, 1.5]]),
        ("completion", {"elements": ["x"], "leq": [[1, 0], [0, 1]]}),
        ("completion", {"elements": ["x", 2], "leq": [[1, 0], [0, 1]]}),
        ("completion", {"leq": [1, 2]}),
        ("completion", {"elements": ["a", "b"], "leq": [[1, "0"], [0, 1]]}),
        ("completion", {"elements": ["a", "b"], "leq": [[1, 1.0], [0, 1]]}),
        ("completion", {"elements": ["a", "b"], "leq": [[True, 1], [False, 1]]}),
    ], ids=["prec-not-list", "float-pair", "three-element-pair", "string-pair",
            "one-element-hasse-pair", "prec-file-not-list", "prec-file-float-pair",
            "fewer-elements-than-rows", "non-string-element", "leq-row-not-list",
            "string-leq-entry", "float-leq-entry", "bool-leq-entry"])
    def test_malformed_pairs_and_labels_are_input_errors(self, capsys, files,
                                                         command, payload):
        path = files["dir"] / "malformed.json"
        path.write_text(json.dumps(payload))
        argv = {"check": ["check", "--input", str(path), "--props", "SI"],
                "check-prec": ["check", "--algebra", files["algebra"],
                               "--prec", str(path), "--props", "SI"],
                "completion": ["completion", "--poset", str(path)]}[command]
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


DEEP = {
    "parens": "(" * 198 + "p" + ")" * 198,
    "negations": "~" * 990 + "p",
    "and-chain": " & ".join(["p"] * 1500),
    "arrow-chain": " -> ".join(["p"] * 1500),
}
DEEP_MODAL = {
    "parens": "(" * 248 + "p" + ")" * 248,
    "diamonds": "<>" * 990 + "p",
    "boxes": "[]" * 990 + "p",
    "or-chain": " | ".join(["p"] * 1500),
}


class TestTermInput:
    """Every malformed formula, term or inequality exits 2 with one line
    of stderr, however deeply it nests."""

    @staticmethod
    def input_error(capsys, *argv):
        code, err = run_err(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("formula", DEEP.values(), ids=DEEP.keys())
    def test_deep_query(self, capsys, files, formula):
        self.input_error(capsys, "derive", "--system", "1", "--norms", files["norms"],
                         "--query", f"{formula} |~ q")

    def test_deep_norm_file(self, capsys, files, tmp_path):
        norms = tmp_path / "deep.ion"
        norms.write_text("p |~ q\n" + "(" * 300 + "p" + ")" * 300 + " |~ q\n")
        err = self.input_error(capsys, "derive", "--system", "1", "--norms", str(norms),
                               "--query", "p |~ q")
        assert err == "error: line 2: parentheses nested deeper than 100 (at position 100)\n"

    @pytest.mark.parametrize("formula", DEEP.values(), ids=DEEP.keys())
    @pytest.mark.parametrize("option", ["--gamma", "--head"])
    def test_deep_output_query(self, capsys, files, formula, option):
        argv = {"--gamma": "p", "--head": "q", option: formula}
        self.input_error(capsys, "out", "--system", "2", "--norms", files["norms"],
                         *(a for kv in argv.items() for a in kv), "--modal")

    @pytest.mark.parametrize("term", DEEP_MODAL.values(), ids=DEEP_MODAL.keys())
    def test_deep_inequality(self, capsys, files, term):
        self.input_error(capsys, "slanted", "--algebra", files["algebra"],
                         "--prec", files["prec"], "--ineq", f"p <= {term}")

    @pytest.mark.parametrize("query, position", [("<>p |~ q", 0), ("p <= q |~ r", 2)])
    def test_modal_tokens_in_a_norm(self, capsys, files, tmp_path, query, position):
        err = self.input_error(capsys, "derive", "--system", "1", "--norms", files["norms"],
                               "--query", query)
        assert err.endswith(f"(at position {position})\n")
        norms = tmp_path / "modal.ion"
        norms.write_text(query + "\n")
        err = self.input_error(capsys, "derive", "--system", "1", "--norms", str(norms),
                               "--query", "p |~ q")
        assert err.startswith("error: line 1: ")
        assert err.endswith(f"(at position {position})\n")

    def test_arrow_in_an_inequality(self, capsys, files):
        err = self.input_error(capsys, "slanted", "--algebra", files["algebra"],
                               "--prec", files["prec"], "--ineq", "p -> q <= p")
        assert err.endswith("(at position 2)\n")

    @pytest.mark.parametrize("query, position", [
        ("p |~ q & )", 9),     # the ')' in the head
        ("p |~ q |~ r", 7),    # the second separator
        ("p |~ q &", 8),       # the end of the text
        ("p q |~ r", 2),       # in the body
    ])
    def test_query_positions_are_in_the_typed_text(self, capsys, files, query, position):
        err = self.input_error(capsys, "derive", "--system", "1", "--norms", files["norms"],
                               "--query", query)
        assert err.endswith(f"(at position {position})\n")

    def test_gamma_positions_are_in_the_typed_text(self, capsys, files):
        gamma = "p, q & )"
        err = self.input_error(capsys, "out", "--system", "1", "--norms", files["norms"],
                               "--gamma", gamma, "--head", "q")
        assert err.endswith(f"(at position {gamma.index(')')})\n")

    @pytest.mark.parametrize("line", ["   p & ) |~ q", "\tp |~ q & )  # note"])
    def test_norm_file_positions_are_in_the_typed_line(self, capsys, files, tmp_path, line):
        norms = tmp_path / "indented.ion"
        norms.write_text("p |~ q\n" + line + "\n")
        err = self.input_error(capsys, "derive", "--system", "1", "--norms", str(norms),
                               "--query", "p |~ q")
        assert err.startswith("error: line 2: ")
        assert err.endswith(f"(at position {line.index(')')})\n")


class TestSharedParser:
    """``main`` parses with one parser per process, built on first use."""

    @staticmethod
    def commands(files, tmp_path):
        poset = tmp_path / "v.json"
        poset.write_text(json.dumps({"elements": ["z", "x", "y"], "hasse": [[0, 1], [0, 2]]}))
        out = ["out", "--system", "1", "--norms", files["norms"], "--gamma", "p", "--head", "q"]
        close = ["close", "--input", files["sub"], "--system", "2"]
        return [
            ["check", "--input", files["sub"], "--classify"],
            ["check", "--input", files["sub"], "--props", "SI"],
            [*out, "--modal"],
            out,
            ["--format", "json", *close],
            close,
            ["derive", "--system", "2", "--norms", files["norms"], "--query", "p |~ q"],
            ["slanted", "--algebra", files["algebra"], "--prec", files["prec"],
             "--ineq", "p <= <>p"],
            ["completion", "--poset", str(poset)],
            ["dual", "--algebra", files["algebra"], "--prec", files["prec"],
             "--check", "reflexive"],
            ["verify", "--carriers", "chain2", "--checks", "bounds-of-related-pairs"],
        ]

    def test_every_subcommand_shares_one_parser(self, capsys, files, tmp_path, monkeypatch):
        built, build = [], cli.build_parser

        def counting():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        commands = self.commands(files, tmp_path)
        assert {argv[2] if argv[0] == "--format" else argv[0] for argv in commands} == {
            "check", "close", "derive", "out", "slanted", "completion", "dual", "verify"}
        for argv in commands:
            assert main(argv) in (0, 1)
        capsys.readouterr()
        assert len(built) == 1

    def test_interleaved_commands_match_fresh_parsers(self, capsys, files, tmp_path):
        # a verdict, flag or format of one call never leaks into the next
        def outcome(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        commands = self.commands(files, tmp_path)
        cli._parser.cache_clear()
        shared = [outcome(argv) for argv in commands]
        fresh = []
        for argv in commands:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _ in shared[:4]] == [0, 1, 0, 0]
        assert (json.loads(shared[4][1])["added"]
                == int(shared[5][1].splitlines()[-1].split()[1]))
