"""Domain error hierarchy shared by all regctl services."""

from __future__ import annotations


class RegctlError(Exception):
    """Base class for every domain-level failure."""


# crypto kernel

class EncodingError(RegctlError):
    """Canonical encoding rejected the input (bad tag, oversize field, bad type)."""


class DerivationError(RegctlError):
    """Keyed derivation called with invalid key or domain tag."""


class SignatureError(RegctlError):
    """Malformed signature material (wrong length, missing private key)."""


class CustodyError(RegctlError):
    """Key-share combination violated the two-holder rule."""


class DecryptFailure(RegctlError):
    """AEAD authentication failed: wrong share, tampered or missing payload."""


# identity vault

class NotFound(RegctlError):
    """Referenced entity does not exist."""


class DuplicateMaster(RegctlError):
    """Identical attribute set already registered."""


class DomainUnregistered(RegctlError):
    """Domain is not registered with the vault."""


class InvalidDomain(RegctlError):
    """Domain name fails the lowercase 1-12 char format rule."""


class Expired(RegctlError):
    """Time-limited grant is past its validity window."""


class Unauthorized(RegctlError):
    """Identity-sensitive operation attempted without a covering ticket."""


class MissingAttribute(RegctlError):
    """Master record lacks an attribute the operation requires."""


# authorization registry

class DuplicatePurpose(RegctlError):
    """Purpose code already registered."""


class UnknownPurpose(RegctlError):
    """Purpose code was never registered."""


class InvalidWindow(RegctlError):
    """Validity window has valid_from >= valid_until."""


class NoConsentToWithdraw(RegctlError):
    """Opt-out requested for a (subject, purpose) pair that never consented."""


# access gate

class ProtocolError(RegctlError):
    """Structurally malformed access request."""


class TicketExpired(RegctlError):
    """Ticket presented after its expiry tick."""


class TicketConsumed(RegctlError):
    """Ticket already used for this record."""


class TicketInvalid(RegctlError):
    """Ticket signature does not verify under the regulator key."""


class ScopeViolation(RegctlError):
    """Record or field class lies outside the ticket's granted scope."""


# silo store

class WeakIdentifierRejected(RegctlError):
    """Schema contains a denylisted or unapproved contact field."""


class SchemaError(RegctlError):
    """Record fields do not conform to the silo schema."""


# audit ledger

class StaleCrossHead(RegctlError):
    """Counterpart head is older than the last exchanged head or not genuine."""


# scenario harness

class ScenarioSyntaxError(RegctlError):
    """Scenario text failed to parse."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScenarioReferenceError(RegctlError):
    """Scenario step references an entity that was never declared."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientPopulation(RegctlError):
    """Linkage analysis needs at least 20 subjects across 2 domains."""
