"""regctl: per-domain virtual identities, regulator-coded authorizations,
dual-custody record access, cross-committed audit ledgers, subject
notification, and an adversarial scenario harness.

The root re-exports only the names callers import from it; everything else
is imported from its module, so importing the root loads no scenario harness."""

from .crypto import (canon_decode, canon_encode, chain_hash, combine_shares, prf_derive, sign,
                     verify)
from .deploy import Deployment
from .gate import AccessRequest
from .ledger import cross_verify
from .registry import Basis, Decision, DenyReason, Scope
from .silo import SiloSchema

__version__ = "0.1.0"
