"""Protocol-level exception types, shared across modules.

Every failure the simulator distinguishes gets its own class so tests can
assert on the exact kind. The contract's verdict on a call (a rejected
ballot, a failed signature check) is a return value, which the ledger
records as the transaction's result. Exceptions are for contract
violations, out-of-window calls and an actor step that cannot go on:
``voter_obtain_signature`` raises SignRefused when the organizer refuses
and CheckFailed when the contract rejects the organizer's signature.
"""


class ProtocolError(Exception):
    """Base class for all simulator errors."""


# --- blind signature core ---------------------------------------------------

class RefusalSentinel(ProtocolError):
    """The signer answered with the reserved refusal value 0."""


class NonUnit(ProtocolError):
    """A blinding factor has no inverse modulo n."""


# --- ledger ------------------------------------------------------------------

class AuthFailure(ProtocolError):
    """Transaction sender address does not match its auth secret."""


class ClockViolation(ProtocolError):
    """Logical time moved backwards."""


class ReplayDivergence(ProtocolError):
    """Replaying a transaction log did not reproduce the recorded history."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ParseError(ProtocolError):
    """A transcript line does not match the wire format."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# --- contract ----------------------------------------------------------------

class BadWindow(ProtocolError):
    """Election phase boundaries are not strictly increasing."""


class Redeploy(ProtocolError):
    """A second deploy on a ledger that already holds its election contract."""


class OutOfWindow(ProtocolError):
    """Operation attempted outside its permitted phase window."""


class ElectionOpen(ProtocolError):
    """Tally or key publication attempted before the vote window closed."""


class ResultSealed(ProtocolError):
    """Sealed election: the decryption key has not been published."""


class KeyMismatch(ProtocolError):
    """Published sealing key does not match the deployed sealing public key."""


class NotSealed(ProtocolError):
    """Key publication attempted on an unsealed election."""


# --- actors ------------------------------------------------------------------

class DuplicateAddress(ProtocolError):
    """The same voter address appears twice in a permission list."""


class SignRefused(ProtocolError):
    """The organizer answered a signing request with the refusal sentinel."""


class CheckFailed(ProtocolError):
    """The contract rejected the organizer's signature on the blinded ballot."""


class NoSignature(ProtocolError):
    """Cast attempted before the sign stage completed."""


# --- scenario runner ----------------------------------------------------------

class ConfigInvalid(ProtocolError):
    """Scenario configuration failed validation; message lists the fields."""


class UnknownAttack(ProtocolError):
    """Attack name not in the registry."""
