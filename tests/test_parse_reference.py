"""``import_log`` against the field-by-field reference parser.

Both parsers get the same edited transcripts: one-token edits, edits that
only a lenient parser would read (CR, tab, upper case, ``+``, ``0x``,
``_``, a leading zero, Arabic-Indic and full-width digits) and raw
one-character edits anywhere in the text, of the ``adversarial`` and
``sealed`` transcripts and of a 512-bit one. They must agree on accept or
reject, on the first bad line's index and on the transactions they return.
"""

from pathlib import Path

import pytest
import reference_parse
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from blindvote.errors import ParseError
from blindvote.ledger import import_log
from blindvote.scenario import Election, ScenarioConfig, VoterSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: what a lenient parser would let through, inserted into a token
LENIENT = ("\r", "\t", "+", "0x", "_", "0", "٣", "３")
#: characters of a raw edit: the wire format's own, and the lenient ones
RAW = "0123456789abcdefF -\n\r\t+x_٣３"


def _transcript(config: ScenarioConfig) -> str:
    election = Election(config)
    election.run()
    return election.ledger.export()


@pytest.fixture(scope="module")
def transcripts():
    texts = {
        name: _transcript(ScenarioConfig.from_json_file(CONFIGS / f"{name}.json"))
        for name in ("adversarial", "sealed")
    }
    voters = [VoterSpec(f"v{i}", "ALPHA" if i % 3 else "BETA") for i in range(4)]
    texts["512-bit"] = _transcript(ScenarioConfig(10, 20, 30, voters, key_bits=512, seed=3))
    return texts


def _parse(parser, text: str):
    """(True, transactions) or (False, the first bad line's index)."""
    try:
        return True, parser(text)
    except ParseError as exc:
        return False, exc.index


def _agree(text: str) -> None:
    assert _parse(import_log, text) == _parse(reference_parse.import_log, text)


@st.composite
def token_edit(draw, text: str) -> str:
    """Replace, delete, upper-case or insert into one token of one line."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].rstrip("\n").split(" ")
    j = draw(st.integers(0, len(tokens) - 1))
    k = draw(st.integers(0, len(tokens[j])))
    how = draw(st.sampled_from(("replace", "delete", "upper", *LENIENT)))
    if how == "replace":
        tokens[j] = draw(st.text(RAW.replace("\n", ""), max_size=8))
    elif how == "delete":
        del tokens[j]
    elif how == "upper":
        tokens[j] = tokens[j].upper()
    else:
        tokens[j] = tokens[j][:k] + how + tokens[j][k:]
    lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@st.composite
def raw_edit(draw, text: str) -> str:
    """Replace, insert or delete one character anywhere in the text."""
    k = draw(st.integers(0, len(text) - 1))
    how = draw(st.sampled_from(("replace", "insert", "delete")))
    char = draw(st.sampled_from(RAW))
    if how == "delete":
        return text[:k] + text[k + 1 :]
    return text[:k] + char + text[k + (how == "replace") :]


@pytest.mark.parametrize("name", ["adversarial", "sealed", "512-bit"])
def test_parsers_agree_on_edits(transcripts, name):
    text = transcripts[name]
    assert import_log(text) == reference_parse.import_log(text)

    @seed(28)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.one_of(token_edit(text), raw_edit(text)))
    @example(text[:-1])
    @example(text + "\n")
    def check(edited):
        _agree(edited)

    check()


@pytest.mark.parametrize("field", [0, 1])
def test_parsers_agree_on_a_5000_digit_decimal(transcripts, field):
    # int() refuses a decimal string longer than 4,300 digits (ValueError)
    lines = transcripts["adversarial"].splitlines(keepends=True)
    tokens = lines[2].split(" ")
    tokens[field] = "1" + "0" * 4999
    lines[2] = " ".join(tokens)
    with pytest.raises(ParseError) as exc:
        import_log("".join(lines))
    assert exc.value.index == 2
    _agree("".join(lines))


def test_parsers_agree_on_every_small_edit_of_each_kind(transcripts):
    # the first line of each kind, and of an unsealed deploy: rare lines
    # that random edits of a whole transcript seldom reach
    firsts = {}
    for name in ("sealed", "adversarial"):
        for line in transcripts[name].splitlines(keepends=True):
            tokens = line.split(" ")
            firsts.setdefault((tokens[4], len(tokens)), line)
    assert len(firsts) == 8
    for line in firsts.values():
        tokens = line[:-1].split(" ")
        for j, token in enumerate(tokens):
            for other in ("", "-", "0", "00", token + token):
                _agree(" ".join([*tokens[:j], other, *tokens[j + 1 :]]) + "\n")
        for k in range(len(line)):
            _agree(line[:k] + line[k + 1 :])
            for char in RAW:
                _agree(line[:k] + char + line[k:])
                _agree(line[:k] + char + line[k + 1 :])
