"""CLI verbs, exit codes, and the seed override."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from blindvote.cli import build_parser, main
from blindvote.blindsig import TOY_KEYPAIR
from blindvote.scenario import verify_transcript

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def config_path(tmp_path, honest_config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(honest_config.to_dict()))
    return str(path)


@pytest.fixture
def careless_config_path(tmp_path, small_config):
    doc = small_config.to_dict()
    doc["voters"].append(
        {"name": "dave", "ballot": "ALPHA", "chances": 1, "kind": "careless", "votes": None}
    )
    path = tmp_path / "careless.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_exit_zero_and_artifacts(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out)]) == 0
        assert (out / "transcript.log").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["all_ok"] is True
        stdout = capsys.readouterr().out
        assert "[ok ] correctness" in stdout

    def test_privacy_violation_exits_nonzero(self, careless_config_path, capsys):
        assert main(["run", careless_config_path]) == 1
        assert "[FAIL] privacy" in capsys.readouterr().out

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"windows": {"st": 5, "ct": 2, "et": 9}, "voters": []}')
        assert main(["run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sealed", "false"),
            ("sealed", 1),
            ("seed", True),
            ("key_bits", True),
            ("windows.st", True),
            ("voters", 5),
            ("voters.0.name", 5),
            ("voters.0.ballot", 5),
            ("voters.0.chances", True),
            ("voters.0.votes", False),
        ],
    )
    def test_wrong_json_type_exits_two(self, tmp_path, honest_config, capsys, key, value):
        doc = honest_config.to_dict()
        *path, last = key.split(".")
        target = doc
        for part in path:
            target = target[int(part) if part.isdigit() else part]
        target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and last in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2


class TestSeedOverride:
    def _transcript(self, tmp_path, config_path, extra, name):
        out = tmp_path / name
        main(["run", config_path, "--out", str(out), *extra])
        return (out / "transcript.log").read_text()

    def test_flag_overrides_config(self, tmp_path, config_path):
        base = self._transcript(tmp_path, config_path, [], "a")
        other = self._transcript(tmp_path, config_path, ["--seed", "777"], "b")
        same = self._transcript(tmp_path, config_path, ["--seed", "42"], "c")
        assert base != other
        assert same == base  # config seed is 42


class TestAttack:
    def test_expected_attack_outcome_exit_zero(self, config_path, capsys):
        assert main(["attack", "double-vote", config_path]) == 0
        assert "FAILED as expected" in capsys.readouterr().out

    def test_receipt_prove_reports_success(self, config_path, capsys):
        assert main(["attack", "receipt-prove", config_path]) == 0
        assert "SUCCEEDED as expected" in capsys.readouterr().out

    def test_attack_without_an_honest_voter_exits_two(self, tmp_path, small_config, capsys):
        doc = small_config.to_dict()
        doc["voters"] = [{"name": "dave", "ballot": "ALPHA", "kind": "careless"}]
        path = tmp_path / "careless-only.json"
        path.write_text(json.dumps(doc))
        assert main(["attack", "double-vote", str(path)]) == 2
        err = capsys.readouterr().err
        assert "attack needs at least one honest voter whose cast lands" in err

    def test_unknown_attack_rejected_by_parser(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "rubber-hose", config_path])
        assert exc.value.code == 2


class TestVerifyAndTally:
    @pytest.fixture
    def election_dir(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["run", config_path, "--out", str(out)])
        return out

    def test_verify_ok(self, election_dir, capsys):
        assert main(["verify", str(election_dir / "transcript.log")]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_finds_sibling_report(self, election_dir):
        # report.json sits next to the transcript and is picked up implicitly
        assert main(["verify", str(election_dir / "transcript.log")]) == 0

    def test_verify_mutated_exits_one(self, election_dir, capsys):
        path = election_dir / "transcript.log"
        lines = path.read_text().splitlines(keepends=True)
        del lines[len(lines) // 2]
        path.write_text("".join(lines))
        assert main(["verify", str(path)]) == 1
        assert "DIVERGENCE" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["[]", '"report"', "{"])
    def test_verify_report_not_an_object_exits_two(self, election_dir, capsys, text):
        report = election_dir / "report.json"
        report.write_text(text)
        assert main(["verify", str(election_dir / "transcript.log"), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tally_output(self, election_dir, capsys):
        assert main(["tally", str(election_dir / "transcript.log")]) == 0
        out = capsys.readouterr().out
        assert out == f"{b'ALPHA'.hex()} 6\n{b'BETA'.hex()} 4\n"

    def test_tally_sealed_unpublished_errors(self, tmp_path, small_config, capsys):
        import blindvote.scenario as scen
        from dataclasses import replace

        election = scen.Election(replace(small_config, sealed=True))
        election.setup_stage()
        election.sign_stage()
        election.vote_stage()
        path = tmp_path / "partial.log"
        path.write_text(election.ledger.export())
        assert main(["tally", str(path)]) == 1
        assert "not published" in capsys.readouterr().err


class TestDivergentTranscripts:
    """verify and tally both refuse a transcript that does not replay."""

    @pytest.fixture
    def transcript(self, tmp_path):
        out = tmp_path / "adv"
        assert main(["run", str(ROOT / "configs" / "adversarial.json"), "--out", str(out)]) == 0
        return out / "transcript.log"

    @staticmethod
    def _edit_first(path, kind, field, edit) -> int:
        """Rewrite one payload field on the first line of ``kind``; return its index."""
        lines = path.read_text().splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if line.split(" ")[4] == kind)
        parts = lines[index].rstrip("\n").split(" ")
        parts[5 + field] = edit(parts[5 + field])
        lines[index] = " ".join(parts) + "\n"
        path.write_text("".join(lines))
        return index

    def test_negated_signature(self, transcript, capsys):
        assert self._edit_first(transcript, "cast", 0, lambda sig: "-" + sig) == 16
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 16:")
        assert main(["tally", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 16:")

    def test_unit_modulus_does_not_hang(self, transcript):
        assert self._edit_first(transcript, "deploy", 0, lambda n: "1") == 0
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for verb in ("verify", "tally"):
            done = subprocess.run(
                [sys.executable, "-m", "blindvote.cli", verb, str(transcript)],
                capture_output=True,
                text=True,
                timeout=30,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert done.returncode == 1, done.stderr
            assert done.stdout.startswith("DIVERGENCE at index 0:")

    def test_signature_plus_modulus(self, tmp_path, capsys):
        # s + n passes s^e == m mod n as s does; only the [1, n) rule refuses it
        out = tmp_path / "honest"
        config = str(ROOT / "configs" / "honest-10.json")
        assert main(["run", config, "--seed", "42", "--out", str(out)]) == 0
        capsys.readouterr()
        transcript = out / "transcript.log"

        def plus_n(sig):
            return format(int(sig, 16) + TOY_KEYPAIR.n, "x")

        assert self._edit_first(transcript, "cast", 0, plus_n) == 31
        assert main(["verify", str(transcript), "--report", str(out / "report.json")]) == 1
        assert capsys.readouterr().out == (
            "DIVERGENCE: recomputed tally disagrees with the report\n"
        )

    def test_non_canonical_line_named(self, transcript, capsys):
        index = self._edit_first(transcript, "cast", 1, str.upper)
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith(f"DIVERGENCE at index {index}:")

    def test_first_bad_line_named(self, transcript, capsys):
        assert self._edit_first(transcript, "cast", 1, str.upper) == 16
        lines = transcript.read_text().splitlines(keepends=True)
        assert len(lines) == 21
        parts = lines[20].split(" ")
        parts[2] = "zz" + parts[2][2:]
        lines[20] = " ".join(parts)
        transcript.write_text("".join(lines))
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 16:")

    def test_crlf_line_end_named(self, transcript, capsys):
        lines = transcript.read_bytes().split(b"\n")
        lines[3] += b"\r"
        transcript.write_bytes(b"\n".join(lines))
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 3:")

    def test_non_ascii_byte_named(self, transcript, capsys):
        lines = transcript.read_bytes().split(b"\n")
        lines[5] = lines[5][:20] + b"\xff" + lines[5][21:]
        transcript.write_bytes(b"\n".join(lines))
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE at index 5:")


    def test_second_publish_named(self, tmp_path, capsys):
        out = tmp_path / "sealed"
        assert main(["run", str(ROOT / "configs" / "sealed.json"), "--out", str(out)]) == 0
        capsys.readouterr()
        transcript = out / "transcript.log"
        lines = transcript.read_text().splitlines(keepends=True)
        assert [line.split(" ")[4] for line in lines[17:]] == ["publish", "tally\n"]
        lines.insert(18, lines[17])
        transcript.write_text(
            "".join(f"{i} {line.split(' ', 1)[1]}" for i, line in enumerate(lines))
        )
        for verb in ("verify", "tally"):
            assert main([verb, str(transcript)]) == 1
            assert capsys.readouterr().out.startswith("DIVERGENCE at index 18:")

    def test_deploy_with_equal_st_and_et_named(self, transcript, capsys):
        # the contract checks the windows of the deploy that creates it, when
        # the deploy is applied; et is 30 (hex 1e) in the adversarial config
        assert self._edit_first(transcript, "deploy", 2, lambda st: "1e") == 0
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out == (
            "DIVERGENCE at index 0: execution failed at index 0: "
            "need st < ct < et, got st=30 ct=20 et=30\n"
        )

    def test_create_with_a_tally_payload_named(self, transcript, capsys):
        lines = transcript.read_text().splitlines(keepends=True)
        lines[0] = " ".join(lines[0].split(" ")[:4] + ["tally"]) + "\n"
        transcript.write_text("".join(lines))
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out == (
            "DIVERGENCE at index 0: execution failed at index 0: "
            "contract creation requires a deploy payload\n"
        )

    def test_sign_request_to_the_contract_named(self, transcript, capsys):
        rows = [line.split(" ") for line in transcript.read_text().splitlines(keepends=True)]
        contract = next(row[3] for row in rows if row[4] == "cast")
        index = next(i for i, row in enumerate(rows) if row[4] == "sign_request")
        rows[index][3] = contract
        transcript.write_text("".join(" ".join(row) for row in rows))
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out.startswith(
            f"DIVERGENCE at index {index}: execution failed at index {index}: "
            "contract cannot execute payload SignRequest("
        )

    @pytest.mark.parametrize("kind", ["deploy", "check", "cast", "tally"])
    def test_contract_payload_to_an_account_named(self, transcript, capsys, kind):
        # never a silent plain message: a re-addressed first cast would
        # verify with its ballot left out of the recount
        rows = [line.split(" ") for line in transcript.read_text().splitlines(keepends=True)]
        index = next(i for i, row in enumerate(rows) if row[4].rstrip("\n") == kind)
        rows[index][3] = "ab" * 20
        transcript.write_text("".join(" ".join(row) for row in rows))
        for verb in ("verify", "tally"):
            assert main([verb, str(transcript)]) == 1
            assert capsys.readouterr().out == (
                f"DIVERGENCE at index {index}: execution failed at index {index}: "
                f"a {kind} payload cannot go to an account\n"
            )
        assert verify_transcript(transcript).index == index

    def test_empty_transcript_named(self, tmp_path, capsys):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        assert main(["verify", str(empty)]) == 1
        assert capsys.readouterr().out == (
            "DIVERGENCE at index 0: recount: expected exactly one contract, found 0\n"
        )

    @pytest.mark.parametrize("where", ["second", "middle", "last"])
    def test_second_deploy_named(self, tmp_path, capsys, where):
        out = tmp_path / "honest"
        assert main(["run", str(ROOT / "configs" / "honest-10.json"), "--out", str(out)]) == 0
        capsys.readouterr()
        transcript = out / "transcript.log"
        lines = transcript.read_text().splitlines(keepends=True)
        index = {"second": 1, "middle": len(lines) // 2, "last": len(lines)}[where]
        # the copy takes the clock of the line before it, so that the second
        # deploy is its only fault
        _, _, rest = lines[0].split(" ", 2)
        clock = lines[index - 1].split(" ")[1]
        lines.insert(index, f"{index} {clock} {rest}")
        transcript.write_text(
            "".join(f"{i} {line.split(' ', 1)[1]}" for i, line in enumerate(lines))
        )
        assert main(["verify", str(transcript)]) == 1
        assert capsys.readouterr().out == (
            f"DIVERGENCE at index {index}: execution failed at index {index}: "
            "the ledger already holds its election contract\n"
        )

    @pytest.mark.parametrize(
        "config, edit",
        [
            ("adversarial.json", lambda doc: doc["tally"].update({"42455441": True})),
            ("honest-10.json", lambda doc: doc.update(tx_count=float(doc["tx_count"]))),
            (
                "honest-10.json",
                lambda doc: doc.update(tally={k: float(c) for k, c in doc["tally"].items()}),
            ),
        ],
        ids=["count-true", "tx-count-float", "counts-float"],
    )
    def test_report_numbers_must_be_integers(self, tmp_path, capsys, config, edit):
        # 1 == True == 1.0 in Python, but run writes only JSON integers
        out = tmp_path / "run"
        assert main(["run", str(ROOT / "configs" / config), "--out", str(out)]) == 0
        report = out / "report.json"
        doc = json.loads(report.read_text())
        original = json.loads(report.read_text())
        edit(doc)
        assert doc == original and json.dumps(doc) != json.dumps(original)
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out / "transcript.log"), "--report", str(report)]) == 1
        assert capsys.readouterr().out.startswith("DIVERGENCE: ")


def test_readme_cli_lines_parse():
    # every command in the README's CLI block is one the parser accepts
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("blindvote ")]
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
