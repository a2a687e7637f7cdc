"""Transaction payloads and their wire encoding.

Each payload kind serializes to a fixed-order list of space-free string
fields. Every class declares its fields' codecs in ``wire``, one
(encode, fragment, decode) per dataclass field, in field order: the
fragment is the field's one canonical form as a regular expression in
ASCII classes, and decode an expression that reads a field ``{0}`` of that
form. An optional field holding ``None`` is left off the end of the line.
Integers use the strict lowercase-hex convention from ``blindsig``; byte
strings use plain hex with ``-`` standing for the empty string so fields
never vanish from a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property

from .blindsig import PublicKey, int_to_hex
from .errors import ParseError


def bytes_to_field(data: bytes) -> str:
    return data.hex() if data else "-"


INT = (int_to_hex, "0|[1-9a-f][0-9a-f]*", "int({0}, 16)")
#: an integer that may be absent (None) at the end of a line
OPTIONAL_INT = (
    lambda value: None if value is None else int_to_hex(value), INT[1],
    "None if {0} is None else int({0}, 16)",
)
#: an even number of hex digits, (?:[0-9a-f][0-9a-f])* taken 32 at a time:
#: the regex engine pays a step per repeat, so a long ballot matches 3x faster
EVEN_HEX = "(?:[0-9a-f]{32})*(?:[0-9a-f][0-9a-f]){0,15}"
BYTES = (bytes_to_field, f"-|[0-9a-f][0-9a-f]{EVEN_HEX}", "b'' if {0} == '-' else fromhex({0})")
HEX = (bytes.hex, EVEN_HEX, "fromhex({0})")
FLAG = (lambda flag: "1" if flag else "0", "[01]", "{0} == '1'")

#: (name, fragment) of each field ahead of a line's kind, as ``ledger`` writes it
ENVELOPE = (
    ("index", "0|[1-9][0-9]*"), ("timestamp", "0|[1-9][0-9]*"),
    ("sender", "[0-9a-f]{40}"), ("recipient", "[0-9a-f]{40}|create"),
)


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
    """Write out the encoder and the decoder of cls from its wire table, and
    the kind's pattern, whose groups are the decoder's fields f0, f1, ...

    The generated functions make one direct call per field, as a method
    written by hand for each class would. Looping over the table at run
    time instead made ``verify`` of a 3,200-voter toy transcript about a
    fifth slower (CPython 3.11). An optional field opens a group that
    closes at the end of the line, so only the last fields may be absent.
    """
    env = {cls.__name__: cls, "fromhex": bytes.fromhex}
    encoded, params, decoded, pattern = [repr(cls.kind)], [], [], cls.kind
    fields = zip(cls.__dataclass_fields__, cls.wire, strict=True)
    for i, (name, (encode, fragment, decode)) in enumerate(fields):
        optional = encode is OPTIONAL_INT[0]
        env[f"e{i}"] = encode
        encoded.append(f"e{i}(p.{name})")
        params.append(f"f{i}=None" if optional else f"f{i}")
        decoded.append(decode.format(f"f{i}"))
        pattern += f"(?: ({fragment})" if optional else f" ({fragment})"
    payload = f"{cls.__name__}({', '.join(decoded)})"
    exec(
        f"def encode(p): return [{', '.join(encoded)}]\n"
        f"def decode({', '.join(params)}): return {payload}\n",
        env,
    )
    return env["encode"], env["decode"], pattern + ")?" * cls.wire.count(OPTIONAL_INT), payload


_KINDS = {cls.kind: cls for cls in Payload.__args__}
#: kind -> (encoder, decoder, pattern, payload expression)
_CODECS = {kind: _compile(cls) for kind, cls in _KINDS.items()}


@cache
def grammar(record):
    """``match`` of the pattern of one whole line, compiled on first use,
    and the converters of its matches to ``record`` tuples (index,
    timestamp, sender, recipient, payload), indexed by a match's ``lastindex``.

    A match has every field in its canonical form, so a converter reads
    them with plain ``int``, ``int(·, 16)`` and ``bytes.fromhex``; only
    ``int``'s 4,300-digit limit and a payload's own check raise ValueError.
    """
    env = {"record": record, "new": tuple.__new__, "fromhex": bytes.fromhex}
    env.update((cls.__name__, cls) for cls in _KINDS.values())
    kinds, source, group = [], [], len(ENVELOPE)
    for kind, (_, _, pattern, payload) in _CODECS.items():
        width = len(_KINDS[kind].wire)
        names = "".join(f", f{i}" for i in range(width))
        groups = "".join(f", {group + 1 + i}" for i in range(width))
        group += width + 1  # an empty group ends the kind: the match's lastindex
        kinds.append(f"{pattern}()")
        source.append(
            f"def k{group}(m):\n    e0, e1, e2, e3{names} = m.group(1, 2, 3, 4{groups})\n"
            "    return new(record, (int(e0), int(e1), fromhex(e2),"
            f" None if e3 == 'create' else fromhex(e3), {payload}))\n"
        )
    exec("".join(source), env)
    line = " ".join(f"({fragment})" for _, fragment in ENVELOPE) + f" (?:{'|'.join(kinds)})\n"
    return re.compile(line).match, [env.get(f"k{i}") for i in range(group + 1)]


def check(specs, fields) -> None:
    """ParseError at the first field not in its (name, fragment)'s form, quoting 40 characters."""
    for (name, fragment), field in zip(specs, fields):
        if not re.fullmatch(fragment, field):
            raise ParseError(f"bad {name} {field[:40]!r}")


def encode_payload(payload: Payload) -> list[str]:
    out = _CODECS[payload.kind][0](payload)
    while out[-1] is None:  # absent optional fields end the line
        out.pop()
    return out


def decode_payload(kind: str, fields: list[str]) -> Payload:
    if kind not in _CODECS:
        raise ParseError(f"unknown payload kind {kind[:40]!r}")
    cls = _KINDS[kind]
    check([(f"{kind} {n}", c[1]) for n, c in zip(cls.__dataclass_fields__, cls.wire)], fields)
    try:
        return _CODECS[kind][1](*fields)
    except TypeError:
        raise ParseError(f"{len(fields)} fields for a {kind} payload") from None
    except ValueError as exc:
        raise ParseError(f"bad {kind} payload: {exc}") from exc
