"""Fuzzed verifier: one-token edits of real transcripts never crash `verify`.

Each example edits one space-separated token of one line of a pristine
transcript: it replaces the token, deletes it, or changes one of its
characters. `blindvote verify --report` must then exit 0 with "transcript
verified" or 1 with DIVERGENCE; an exception or exit 2 fails the test.
An edit may verify: replay does not execute plain messages, so a changed
sign_request or sign_response field goes unnoticed.

The same edits, and edits that only a lenient parser would read (a CR,
tab, upper case, leading zero, ``+`` or non-ASCII digit), also check that
the parser accepts canonical text only: whatever ``import_log`` accepts,
``export_log`` writes back unchanged.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blindvote.cli import main
from blindvote.errors import ParseError
from blindvote.ledger import export_log, import_log

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: hex digits plus the characters a lenient parser would let through
ALPHABET = "0123456789abcdefABx-_+"

#: characters that int(), bytes.fromhex or str.splitlines let through:
#: CR, tab, a leading zero or sign, and Arabic-Indic and full-width digits
LENIENT = "\r\t0+\u0663\uff13"

#: exit code -> start of what verify prints
VERDICTS = {0: "transcript verified", 1: "DIVERGENCE"}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    runs = {}
    for name in ("adversarial", "sealed"):
        out = tmp_path_factory.mktemp(name)
        assert main(["run", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        runs[name] = out
    return runs


@st.composite
def token_edit(draw, text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].rstrip("\n").split(" ")
    j = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(("replace", "delete", "char")))
    if how == "replace":
        tokens[j] = draw(st.text(ALPHABET, max_size=8))
    elif how == "delete":
        del tokens[j]
    elif tokens[j]:
        k = draw(st.integers(0, len(tokens[j]) - 1))
        tokens[j] = tokens[j][:k] + draw(st.sampled_from(ALPHABET)) + tokens[j][k + 1 :]
    lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@st.composite
def lenient_edit(draw, text: str) -> str:
    """Insert one LENIENT character into a token, or upper-case the token."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].rstrip("\n").split(" ")
    j = draw(st.integers(0, len(tokens) - 1))
    k = draw(st.integers(0, len(tokens[j])))
    how = draw(st.sampled_from([*LENIENT, "upper"]))
    tokens[j] = tokens[j].upper() if how == "upper" else tokens[j][:k] + how + tokens[j][k:]
    lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("name", ["adversarial", "sealed"])
def test_accepted_text_is_canonical(pristine, name):
    text = (pristine[name] / "transcript.log").read_text()
    assert export_log(import_log(text)) == text

    @seed(11)
    @settings(max_examples=600, deadline=None, database=None)
    @given(st.one_of(token_edit(text), lenient_edit(text)))
    def check(mutated):
        try:
            txs = import_log(mutated)
        except ParseError:
            return
        assert export_log(txs) == mutated

    check()


@pytest.mark.parametrize("name", ["adversarial", "sealed"])
def test_one_token_edit_verifies_or_diverges(pristine, name):
    out = pristine[name]
    text = (out / "transcript.log").read_text()
    edited = out / "edited.log"

    @seed(4)
    @settings(max_examples=600, deadline=None, database=None)
    @given(token_edit(text))
    def check(mutated):
        edited.write_text(mutated)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["verify", str(edited), "--report", str(out / "report.json")])
        assert code in VERDICTS, stderr.getvalue()
        assert stdout.getvalue().startswith(VERDICTS[code])

    check()
