import json

import pytest

from subnorm.cli import main
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


class TestClose:
    def test_system_output_roundtrips(self, capsys, files):
        code, payload = run_json(capsys, "close", "--input", files["sub"],
                                 "--system", "2")
        assert code == 0
        S = subalg_from_json(payload)  # emitted JSON is accepted back
        assert (1, 1) in S.prec.pairs()
        assert payload["added"] >= 4

    def test_rules_list(self, capsys, files):
        code, payload = run_json(capsys, "close", "--input", files["sub"],
                                 "--rules", "TOP,SI,WO")
        assert code == 0 and [3, 3] in payload["prec"]

    def test_missing_rule_choice(self, capsys, files):
        code, _ = run(capsys, "close", "--input", files["sub"])
        assert code == 2


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

    @pytest.mark.parametrize("option", ["--samples", "--max-n"])
    def test_negative_count_is_input_error(self, capsys, option):
        code = main(["verify", "--carriers", "chain2", option, "-3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "non-negative" in err


def files_sub_json(files):
    algebra = json.load(open(files["algebra"]))
    return json.dumps({"algebra": algebra, "prec": [[1, 1]]})


def test_missing_file_is_input_error(capsys):
    code = main(["check", "--algebra", "/nonexistent.json", "--props", "SI"])
    capsys.readouterr()
    assert code == 2
