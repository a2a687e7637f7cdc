"""Transaction payloads and their wire encoding.

Each payload kind serializes to a fixed-order list of space-free string
fields. Every class declares its fields' codecs in ``wire``, one
(encode, decode) pair per dataclass field, in field order; an optional
field holding ``None`` is left off the end of the line. Integers use the
strict lowercase-hex convention from ``blindsig``; byte strings use plain
hex with ``-`` standing for the empty string so fields never vanish from
a line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .blindsig import PublicKey, hex_to_int, int_to_hex
from .errors import ParseError


def hex_to_bytes(field: str) -> bytes:
    """Parse bytes in exactly the form ``bytes.hex`` writes: lowercase hex
    digits in pairs, without whitespace."""
    data = bytes.fromhex(field)
    if data.hex() != field:
        raise ValueError(f"not canonical hex: {field!r}")
    return data


def bytes_to_field(data: bytes) -> str:
    return data.hex() if data else "-"


def field_to_bytes(field: str) -> bytes:
    if field == "-":
        return b""
    if not field:
        raise ValueError("empty bytes are written as '-'")
    return hex_to_bytes(field)


def _field_to_flag(field: str) -> bool:
    if field not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {field!r}")
    return field == "1"


INT = (int_to_hex, hex_to_int)
#: an integer that may be absent (None) at the end of a line
OPTIONAL_INT = (
    lambda value: None if value is None else int_to_hex(value),
    lambda field: None if field is None else hex_to_int(field),
)
BYTES = (bytes_to_field, field_to_bytes)
HEX = (bytes.hex, hex_to_bytes)
FLAG = (lambda flag: "1" if flag else "0", _field_to_flag)


@dataclass(frozen=True)
class Deploy:
    """Create an election contract with immutable parameters."""

    n: int
    e: int
    st: int
    ct: int
    et: int
    sealed: bool = False
    sealing_n: int | None = None
    sealing_e: int | None = None

    kind = "deploy"
    wire = (INT, INT, INT, INT, INT, FLAG, OPTIONAL_INT, OPTIONAL_INT)

    def __post_init__(self):
        present = (self.sealing_n is not None, self.sealing_e is not None)
        if present != (self.sealed, self.sealed):
            raise ValueError("sealing fields must be present exactly when sealed")

    @cached_property
    def pk(self) -> PublicKey:
        """The election signing key, built once: each cast verifies under it."""
        return PublicKey(self.n, self.e)


@dataclass(frozen=True)
class Check:
    """Ask the contract to check an organizer signature (read-only)."""

    signed_blinded: int
    blinded: int

    kind = "check"
    wire = (INT, INT)


@dataclass(frozen=True)
class Cast:
    """Submit a signed ballot with its one-time uuid."""

    signed: int
    ballot: bytes
    uuid: bytes

    kind = "cast"
    wire = (INT, BYTES, HEX)


@dataclass(frozen=True)
class Publish:
    """Reveal the sealing private key after the vote window closes."""

    n: int
    d: int

    kind = "publish"
    wire = (INT, INT)


@dataclass(frozen=True)
class Tally:
    """Read the on-chain tally."""

    kind = "tally"
    wire = ()


@dataclass(frozen=True)
class SignRequest:
    """Voter to organizer: please sign this blinded ballot."""

    blinded: int

    kind = "sign_request"
    wire = (INT,)


@dataclass(frozen=True)
class SignResponse:
    """Organizer to voter: signature (or the refusal sentinel 0).

    Echoes the blinded value so the response transaction alone ties the
    signature to the request it answers.
    """

    blinded: int
    signed_blinded: int

    kind = "sign_response"
    wire = (INT, INT)


Payload = Deploy | Check | Cast | Publish | Tally | SignRequest | SignResponse


def _compile(cls):
    """Write out the encoder and the decoder of cls from its wire table.

    The generated functions make one direct call per field, as a method
    written by hand for each class would. Looping over the table at run
    time instead made ``verify`` of a 3,200-voter toy transcript about a
    fifth slower (CPython 3.11). A field left off the end of a line
    reaches its decoder as None, which only an optional codec accepts.
    """
    env = {"cls": cls}
    encoded, params, decoded = [repr(cls.kind)], [], []
    fields = zip(cls.__dataclass_fields__, cls.wire, strict=True)
    for i, (name, (encode, decode)) in enumerate(fields):
        env[f"e{i}"], env[f"d{i}"] = encode, decode
        encoded.append(f"e{i}(p.{name})")
        params.append(f"f{i}=None")
        decoded.append(f"d{i}(f{i})")
    exec(
        f"def encode(p): return [{', '.join(encoded)}]\n"
        f"def decode({', '.join(params)}): return cls({', '.join(decoded)})\n",
        env,
    )
    return env["encode"], env["decode"]


#: kind -> (encoder, decoder)
_CODECS = {
    cls.kind: _compile(cls)
    for cls in (Deploy, Check, Cast, Publish, Tally, SignRequest, SignResponse)
}


def encode_payload(payload: Payload) -> list[str]:
    out = _CODECS[payload.kind][0](payload)
    while out[-1] is None:  # absent optional fields end the line
        out.pop()
    return out


def decode_payload(kind: str, fields: list[str]) -> Payload:
    if kind not in _CODECS:
        raise ParseError(f"unknown payload kind {kind!r}")
    try:
        return _CODECS[kind][1](*fields)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {kind} payload fields {fields!r}: {exc}") from exc
