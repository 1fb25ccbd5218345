"""regctl: per-domain virtual identities, regulator-coded authorizations,
dual-custody record access, cross-committed audit ledgers, subject
notification, and an adversarial scenario harness."""

from .clock import Clock
from .crypto import (
    Holder,
    KeyShare,
    SigningIdentity,
    canon_decode,
    canon_encode,
    chain_hash,
    combine_shares,
    prf_derive,
    sign,
    verify,
)
from .deploy import REGISTRY_DOMAIN, Deployment
from .gate import AccessRequest, AccessTicket, Gate, SubmitResult
from .ledger import Divergence, Ledger, LogEntry, cross_verify
from .notify import Notification, Notifier, Outcome
from .registry import (
    Authorization,
    AuthStatus,
    Basis,
    ConsentRecord,
    Decision,
    DeletionObligation,
    DeletionProof,
    DenyReason,
    ProgramManifest,
    Registry,
    Scope,
)
from .scenario import (
    Report,
    Scenario,
    adversary_link_accuracy,
    load_scenario,
    parse_scenario,
    run,
    scan_for_sentinels,
)
from .silo import RegulatorShareStore, Silo, SiloRecord, SiloSchema
from .vault import AliasGrant, Vault, VirtualId, derive_vid_value

__version__ = "0.1.0"
