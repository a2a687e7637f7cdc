"""Desk-scale blind-signature e-voting simulator.

A Chaum-style RSA blind signature core, a deterministic single-node
ledger with an election contract state machine, organizer/voter actors,
and a scenario runner that grades full elections and named attacks
against the protocol's security-property table.
"""

from .blindsig import (
    REFUSED,
    TOY_KEYPAIR,
    KeyPair,
    PublicKey,
    ballot_digest,
    blind,
    factor_modulus,
    fdh,
    hash_ballot,
    keygen,
    keypair_from_primes,
    new_blinding_factor,
    new_uuid,
    sign_blinded,
    unblind,
    verify,
)
from .contract import ElectionContract, ElectionParams, hex_tally, seal_ballot, unseal_ballot
from .ledger import (
    Account,
    Ledger,
    Transaction,
    TxReceipt,
    create_account,
    export_log,
    import_log,
    replay,
)
from .actors import (
    Organizer,
    PermissionList,
    Receipt,
    VoterState,
    prove_receipt,
    verify_receipt,
    voter_cast,
    voter_obtain_signature,
    voter_prepare,
)
from .scenario import (
    Election,
    RunReport,
    ScenarioConfig,
    VoterSpec,
    recount,
    run_scenario,
    verify_transcript,
)
from .attacks import ATTACKS, run_attack

__version__ = "0.1.0"
