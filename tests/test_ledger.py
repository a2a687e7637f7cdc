"""Ledger: accounts, authenticated submission, clock, export and replay."""

import importlib.util
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindvote import messages
from blindvote.blindsig import TOY_KEYPAIR, keygen, new_uuid
from blindvote.contract import seal_ballot
from blindvote.errors import (
    AuthFailure,
    ClockViolation,
    ParseError,
    Redeploy,
    ReplayDivergence,
)
from blindvote.ledger import (
    ADDRESS_LEN,
    Account,
    Ledger,
    Transaction,
    create_account,
    derive_address,
    export_log,
    import_log,
    replay,
)

TOY = TOY_KEYPAIR


def deploy_payload(st_=10, ct=20, et=30):
    return messages.Deploy(n=TOY.n, e=TOY.e, st=st_, ct=ct, et=et)


@pytest.fixture
def ledger():
    return Ledger()


@pytest.fixture
def alice():
    return create_account(1)


@pytest.fixture
def bob():
    return create_account(2)


class TestAccounts:
    def test_deterministic(self):
        assert create_account(5) == create_account(5)

    def test_address_is_160_bits(self, alice):
        assert len(alice.address) == ADDRESS_LEN

    def test_no_collisions_over_many_seeds(self):
        addresses = {create_account(seed).address for seed in range(1000)}
        assert len(addresses) == 1000

    def test_address_derived_from_secret(self, alice):
        assert derive_address(alice.auth_secret) == alice.address


class TestSubmit:
    def test_receipt_index_is_log_length(self, ledger, alice, bob):
        r0 = ledger.submit(alice, bob.address, messages.SignRequest(7))
        r1 = ledger.submit(alice, bob.address, messages.SignRequest(8))
        assert (r0.index, r1.index) == (0, 1)

    def test_wrong_secret_rejected_and_log_unchanged(self, ledger, alice, bob):
        impostor = Account(address=alice.address, auth_secret=b"\x00" * 32)
        with pytest.raises(AuthFailure):
            ledger.submit(impostor, bob.address, messages.SignRequest(7))
        assert ledger.log == ()

    def test_equal_timestamps_ordered_by_submission(self, ledger, alice, bob):
        ledger.advance_clock(5)
        ledger.submit(alice, bob.address, messages.SignRequest(1))
        ledger.submit(bob, alice.address, messages.SignRequest(2))
        assert [tx.payload.blinded for tx in ledger.log] == [1, 2]
        assert [tx.timestamp for tx in ledger.log] == [5, 5]

    def test_timestamp_at_clock_accepted(self, ledger, alice, bob):
        ledger.advance_clock(5)
        ledger.submit(alice, bob.address, messages.SignRequest(1))
        assert ledger.log[0].timestamp == 5

    def test_plain_message_has_no_result(self, ledger, alice, bob):
        receipt = ledger.submit(alice, bob.address, messages.SignRequest(7))
        assert receipt.result is None


class TestClock:
    def test_advance_to_current_is_noop(self, ledger):
        ledger.advance_clock(0)
        assert ledger.clock == 0

    def test_regression_raises(self, ledger):
        ledger.advance_clock(5)
        with pytest.raises(ClockViolation):
            ledger.advance_clock(4)


class TestAppendOnly:
    def test_prefix_stable_under_growth(self, ledger, alice, bob):
        ledger.submit(alice, bob.address, messages.SignRequest(1))
        prefix = ledger.log
        ledger.submit(alice, bob.address, messages.SignRequest(2))
        ledger.submit(alice, bob.address, messages.SignRequest(3))
        assert ledger.log[: len(prefix)] == prefix

    def test_timestamps_non_decreasing(self, ledger, alice, bob):
        for ts in (0, 0, 3, 3, 7):
            ledger.advance_clock(ts)
            ledger.submit(alice, bob.address, messages.SignRequest(1))
        assert [tx.timestamp for tx in ledger.log] == [0, 0, 3, 3, 7]


class TestDeploy:
    def test_deploy_returns_address(self, ledger, alice):
        receipt = ledger.submit(alice, None, deploy_payload())
        assert len(receipt.result) == ADDRESS_LEN
        assert receipt.result == ledger.contract_address
        assert ledger.contract.params == deploy_payload()

    def test_second_deploy_refused(self, ledger, alice, bob):
        address = ledger.submit(alice, None, deploy_payload()).result
        contract = ledger.contract
        with pytest.raises(Redeploy):
            ledger.submit(bob, None, deploy_payload(st_=11))
        assert len(ledger) == 1
        assert ledger.contract is contract
        assert ledger.contract_address == address

    def test_address_collision_guard(self, ledger, alice):
        tx = Transaction(0, 0, alice.address, None, deploy_payload())
        ledger._deploy(tx)
        with pytest.raises(Redeploy):
            ledger._deploy(tx)


class TestWireFormat:
    def _populated(self):
        ledger = Ledger()
        alice, bob = create_account(1), create_account(2)
        addr = ledger.submit(alice, None, deploy_payload()).result
        ledger.advance_clock(10)
        ledger.submit(alice, bob.address, messages.SignRequest(1234))
        ledger.submit(
            bob, alice.address, messages.SignResponse(blinded=1234, signed_blinded=99)
        )
        ledger.submit(alice, addr, messages.Check(99, 1234))
        return ledger

    def test_round_trip_byte_exact(self):
        ledger = self._populated()
        text = ledger.export()
        assert export_log(import_log(text)) == text

    def test_empty_export(self):
        assert Ledger().export() == ""
        assert import_log("") == []

    def test_garbage_line_rejected(self):
        with pytest.raises(ParseError):
            import_log("0 0 zz create deploy\n")

    def test_short_line_rejected(self):
        with pytest.raises(ParseError):
            import_log("0 0 aa\n")

    def test_unknown_kind_rejected(self):
        line = "0 0 " + "a" * 40 + " create launch 1 2\n"
        with pytest.raises(ParseError):
            import_log(line)

    @given(blinded=st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=50)
    def test_payload_field_round_trip(self, blinded):
        payload = messages.SignRequest(blinded)
        kind, *fields = messages.encode_payload(payload)
        assert messages.decode_payload(kind, fields) == payload

    @pytest.mark.parametrize(
        "payload",
        [
            deploy_payload(),
            messages.Deploy(TOY.n, TOY.e, 10, 20, 30, True, 4757, 17),
            messages.Check(99, 1234),
            messages.Cast(5, b"AB", b"\x01" * 16),
            messages.Publish(4757, 3),
            messages.Tally(),
            messages.SignRequest(0),
            messages.SignResponse(1234, 99),
        ],
    )
    def test_every_kind_round_trips(self, payload):
        kind, *fields = messages.encode_payload(payload)
        assert messages.decode_payload(kind, fields) == payload

    def test_deploy_fields_omitted_only_when_unsealed(self):
        assert len(messages.encode_payload(deploy_payload())) == 1 + 6
        with pytest.raises(ValueError):
            messages.Deploy(TOY.n, TOY.e, 10, 20, 30, sealed=True)
        with pytest.raises(ValueError):
            messages.Deploy(TOY.n, TOY.e, 10, 20, 30, sealing_n=4757, sealing_e=17)

    @pytest.mark.parametrize(
        "kind,fields",
        [
            ("deploy", ["ca1", "11", "a", "14", "1e"]),  # flag missing
            ("deploy", ["ca1", "11", "a", "14", "1e", "2"]),  # flag not 0/1
            ("deploy", ["ca1", "11", "a", "14", "1e", "1"]),  # sealed, no key
            ("deploy", ["ca1", "11", "a", "14", "1e", "0", "1295"]),
            ("deploy", ["ca1", "11", "a", "14", "1e", "0", "1295", "11"]),
            ("sign_request", []),
            ("sign_request", ["4d2", "4d2"]),
            ("sign_request", ["-4d2"]),
            ("tally", ["0"]),
            ("cast", ["4d2", "414C", "01" * 16]),  # upper-case ballot
            ("cast", ["4d2", "4142", "0A" * 16]),  # upper-case uuid
            ("cast", ["4d2", "", "01" * 16]),  # empty ballot is "-"
            ("cast", ["4d2", "41\t42", "01" * 16]),
            ("cast", ["4d2", "4142", "01" * 16 + "\r"]),
        ],
    )
    def test_malformed_fields_rejected(self, kind, fields):
        with pytest.raises(ParseError):
            messages.decode_payload(kind, fields)

    def test_parse_error_carries_line_index(self):
        text = self._populated().export()
        lines = text.splitlines(keepends=True)
        lines[2] = lines[2].replace("sign_response 4d2", "sign_response 04d2")
        with pytest.raises(ParseError) as exc:
            import_log("".join(lines))
        assert exc.value.index == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: "0" + line,
            lambda line: "+" + line,
            lambda line: "\u0662" + line[1:],
            lambda line: line.replace(" 10 ", " 1_0 "),
            lambda line: line[:5] + line[5:45].upper() + line[45:],
            lambda line: line[:-1] + "\r\n",
            lambda line: line[:45] + "\t" + line[45:],
        ],
        ids=["zero", "plus", "arabic-digit", "underscore", "upper", "crlf", "tab"],
    )
    def test_non_canonical_line_rejected(self, edit):
        # each edit leaves a line that int(), bytes.fromhex or splitlines reads
        lines = self._populated().export().splitlines(keepends=True)
        assert lines[2].startswith("2 10 ")
        lines[2] = edit(lines[2])
        with pytest.raises(ParseError) as exc:
            import_log("".join(lines))
        assert exc.value.index == 2

    def test_last_line_needs_its_newline(self):
        text = self._populated().export()
        with pytest.raises(ParseError) as exc:
            import_log(text[:-1])
        assert exc.value.index == 3

    def test_error_names_the_bad_field_in_bounded_text(self):
        # a cast sealed under a 1024-bit key: its fields run to 700 characters
        key, sealing = keygen(1024, 1), keygen(1024, 2)
        alice = create_account(1)
        deploy = messages.Deploy(key.n, key.e, 10, 20, 30, True, sealing.n, sealing.e)
        ballot = seal_ballot(b"ALPHA", sealing.public, 3)
        cast = messages.Cast(key.n - 1, ballot, new_uuid(4))
        text = export_log(
            [
                Transaction(0, 0, alice.address, None, deploy),
                Transaction(1, 15, alice.address, b"\x01" * ADDRESS_LEN, cast),
            ]
        )
        assert import_log(text)[1].payload == cast
        with pytest.raises(ParseError) as exc:
            import_log(text.replace(ballot.hex(), ballot.hex().upper()))
        assert exc.value.index == 1
        assert "cast ballot" in str(exc.value) and len(str(exc.value)) <= 80

    def test_a_long_bad_line_is_rejected_in_linear_time(self):
        # a parser that retried the bad line from each of its characters
        # would take minutes here
        text = self._populated().export() + "1" * 200_000 + " x\n"
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            import_log(text)
        assert exc.value.index == 4 and time.perf_counter() - start < 2

    def test_empty_ballot_field(self):
        payload = messages.Cast(signed=1, ballot=b"", uuid=b"\x00" * 16)
        kind, *fields = messages.encode_payload(payload)
        assert fields[1] == "-"
        assert messages.decode_payload(kind, fields) == payload


class TestReplay:
    def _scenario(self):
        ledger = Ledger()
        alice, bob = create_account(1), create_account(2)
        ledger.submit(alice, None, deploy_payload())
        ledger.advance_clock(10)
        ledger.submit(alice, bob.address, messages.SignRequest(1234))
        ledger.submit(
            bob, alice.address, messages.SignResponse(blinded=1234, signed_blinded=0)
        )
        return ledger

    def test_replay_reproduces_state(self):
        ledger = self._scenario()
        again = replay(import_log(ledger.export()), expected_results=ledger.results)
        assert again.contract is not None and again.contract == ledger.contract
        assert again.contract_address == ledger.contract_address
        assert again.log == ledger.log

    def test_empty_log_is_genesis(self):
        fresh = replay([])
        assert fresh.log == () and fresh.clock == 0
        assert fresh.contract is None and fresh.contract_address is None

    def test_second_deploy_diverges(self):
        txs = import_log(self._scenario().export())
        txs.insert(1, txs[0])
        txs = [tx._replace(index=i) for i, tx in enumerate(txs)]
        with pytest.raises(ReplayDivergence, match="already holds") as exc:
            replay(txs)
        assert exc.value.index == 1

    def test_index_gap_detected(self):
        ledger = self._scenario()
        txs = import_log(ledger.export())
        del txs[1]
        with pytest.raises(ReplayDivergence) as exc:
            replay(txs)
        assert exc.value.index == 1

    def test_corrupted_payload_detected_against_results(self):
        ledger = self._scenario()
        txs = import_log(ledger.export())
        bad = messages.SignRequest(txs[1].payload.blinded + 1)
        txs[1] = Transaction(
            txs[1].index, txs[1].timestamp, txs[1].sender, txs[1].recipient, bad
        )
        # the corrupt entry executes to a different receipt than recorded
        results = list(ledger.results)
        results[1] = "something else"
        with pytest.raises(ReplayDivergence) as exc:
            replay(txs, expected_results=results)
        assert exc.value.index == 1

    def test_length_mismatch_detected(self):
        ledger = self._scenario()
        txs = import_log(ledger.export())[:-1]
        with pytest.raises(ReplayDivergence):
            replay(txs, expected_results=ledger.results)

    def test_timestamp_regression_detected(self):
        ledger = self._scenario()
        txs = import_log(ledger.export())
        last = txs[-1]
        txs[-1] = Transaction(last.index, 3, last.sender, last.recipient, last.payload)
        with pytest.raises(ReplayDivergence) as exc:
            replay(txs)
        assert exc.value.index == len(txs) - 1

    def test_future_timestamp_advances_clock(self):
        txs = import_log(self._scenario().export())
        last = txs[-1]
        txs[-1] = Transaction(last.index, 99, last.sender, last.recipient, last.payload)
        assert replay(txs).clock == 99


class TestConcurrency:
    def test_parallel_submitters_see_one_total_order(self):
        ledger = Ledger()
        accounts = [create_account(i) for i in range(8)]
        sink = create_account(99)
        errors = []

        def worker(account, base):
            try:
                for k in range(25):
                    ledger.submit(account, sink.address, messages.SignRequest(base + k))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(acc, i * 1000))
            for i, acc in enumerate(accounts)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ledger.log) == 200
        assert [tx.index for tx in ledger.log] == list(range(200))
        # per-submitter order preserved within the total order
        for i in range(8):
            mine = [
                tx.payload.blinded
                for tx in ledger.log
                if tx.sender == accounts[i].address
            ]
            assert mine == sorted(mine)
        again = replay(import_log(ledger.export()), expected_results=ledger.results)
        assert again.log == ledger.log


def test_ledger_table_script_at_one_repetition():
    path = Path(__file__).resolve().parent.parent / "scripts" / "ledger_table.py"
    spec = importlib.util.spec_from_file_location("ledger_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = script.table(repeat=1).splitlines()
    sizes = " | ".join(f"{n:,}" for n in script.SIZES)
    assert lines[0] == f"| µs per transaction, toy voters | {sizes} |"
    counts = [int(cell.replace(",", "")) for cell in lines[2].strip("| ").split(" | ")[1:]]
    assert lines[2].startswith("| transactions |") and counts == sorted(counts)
    rows = [line.split(" | ") for line in lines[3:]]
    assert [row[0] for row in rows] == [f"| {name}" for name in script.NAMES]
    for row in rows:
        cells = [float(cell.strip(" |")) for cell in row[1:]]
        assert len(cells) == len(script.SIZES) and all(c > 0 for c in cells)
