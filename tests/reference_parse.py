"""The field-by-field transcript parser, kept as a reference for ``import_log``.

It splits each line on spaces and reads every field back with a round trip:
a field parses only if writing the value out again gives the same text.
``tests/test_parse_reference.py`` holds ``ledger.import_log``, which
matches each line against the grammar in ``messages``, to the same answers.
"""

from blindvote import messages
from blindvote.errors import ParseError
from blindvote.ledger import ADDRESS_LEN, Transaction


def hex_to_int(text: str) -> int:
    value = int(text, 16)
    if value < 0 or format(value, "x") != text:
        raise ValueError(f"not a canonical hex integer: {text!r}")
    return value


def hex_to_bytes(field: str) -> bytes:
    data = bytes.fromhex(field)
    if data.hex() != field:
        raise ValueError(f"not canonical hex: {field!r}")
    return data


def field_to_bytes(field: str) -> bytes:
    if field == "-":
        return b""
    if not field:
        raise ValueError("empty bytes are written as '-'")
    return hex_to_bytes(field)


def field_to_flag(field: str) -> bool:
    if field not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {field!r}")
    return field == "1"


def optional_int(field: str | None) -> int | None:
    return None if field is None else hex_to_int(field)


#: kind -> (payload class, one reader per field); a field left off the end
#: of a line reaches its reader as None, which only ``optional_int`` accepts
READERS = {
    "deploy": (messages.Deploy, (hex_to_int,) * 5 + (field_to_flag, optional_int, optional_int)),
    "check": (messages.Check, (hex_to_int, hex_to_int)),
    "cast": (messages.Cast, (hex_to_int, field_to_bytes, hex_to_bytes)),
    "publish": (messages.Publish, (hex_to_int, hex_to_int)),
    "tally": (messages.Tally, ()),
    "sign_request": (messages.SignRequest, (hex_to_int,)),
    "sign_response": (messages.SignResponse, (hex_to_int, hex_to_int)),
}


def decode_payload(kind: str, fields: list[str]) -> messages.Payload:
    if kind not in READERS:
        raise ParseError(f"unknown payload kind {kind!r}")
    cls, readers = READERS[kind]
    if len(fields) > len(readers):
        raise ParseError(f"too many {kind} fields")
    padded = [*fields, *[None] * (len(readers) - len(fields))]
    try:
        return cls(*(read(field) for read, field in zip(readers, padded)))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {kind} payload: {exc}") from exc


def decimal(field: str) -> int:
    value = int(field)
    if value < 0 or str(value) != field:
        raise ValueError(f"not a canonical decimal: {field!r}")
    return value


def address(field: str) -> bytes:
    data = hex_to_bytes(field)
    if len(data) != ADDRESS_LEN:
        raise ValueError(f"address is not {ADDRESS_LEN} bytes: {field!r}")
    return data


def import_log(text: str) -> list[Transaction]:
    *lines, rest = text.split("\n")
    transactions = []
    for pos, line in enumerate(lines):
        try:
            index, timestamp, sender, recipient, kind, *fields = line.split(" ")
            transactions.append(
                Transaction(
                    decimal(index),
                    decimal(timestamp),
                    address(sender),
                    None if recipient == "create" else address(recipient),
                    decode_payload(kind, fields),
                )
            )
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {pos + 1}: {exc}", index=pos) from exc
    if rest:
        raise ParseError(f"line {len(lines) + 1}: no final newline", index=len(lines))
    return transactions
