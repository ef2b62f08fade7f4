"""Peers: certified identities with incarnation-limited identifiers.

A :class:`Peer` owns a key pair and a CA-issued certificate; its initial
identifier ``id0`` hashes the certificate fields (including ``t0``), and
its current identifier re-hashes ``id0`` with the current incarnation
number -- Section III-D's unpredictable, limited-lifetime identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.overlay import identifiers
from repro.overlay.crypto import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    SignedMessage,
    sign_message,
)
from repro.overlay.incarnation import IncarnationClock


@dataclass
class Peer:
    """One overlay participant.

    ``malicious`` tags adversary-controlled peers; honest code never
    reads the flag (honest peers cannot distinguish peer types,
    Section III-B) -- only the adversary and the metrics layer do.
    """

    name: str
    keys: KeyPair
    certificate: Certificate
    clock: IncarnationClock
    malicious: bool = False
    id_bits: int = identifiers.DEFAULT_ID_BITS
    _id0: int = field(init=False)

    def __post_init__(self) -> None:
        self._id0 = identifiers.initial_identifier(
            self.certificate.signed_fields(), self.id_bits
        )

    # -- identity ------------------------------------------------------------

    @property
    def initial_id(self) -> int:
        """``id0 = H(certificate fields)``."""
        return self._id0

    def incarnation_at(self, global_time: float) -> int:
        """The incarnation number the peer itself uses at ``global_time``."""
        return self.clock.own_incarnation(global_time)

    def identifier_at(self, global_time: float) -> int:
        """Current identifier ``H(id0 x k)``."""
        return identifiers.incarnation_identifier(
            self._id0, self.incarnation_at(global_time), self.id_bits
        )

    def identifier_for_incarnation(self, incarnation: int) -> int:
        """Identifier the peer would carry in a given incarnation."""
        return identifiers.incarnation_identifier(
            self._id0, incarnation, self.id_bits
        )

    def accepted_identifiers(self, global_time: float) -> frozenset[int]:
        """Identifiers correct observers accept for this peer right now
        (two of them inside the grace window, Property 1)."""
        return frozenset(
            self.identifier_for_incarnation(k)
            for k in self.clock.accepted_by_observer(global_time)
        )

    def identifier_is_valid(
        self, claimed_identifier: int, global_time: float
    ) -> bool:
        """Observer-side check of Property 1 for this peer."""
        return claimed_identifier in self.accepted_identifiers(global_time)

    def expiry_time(self, global_time: float) -> float:
        """When the peer's current incarnation expires (its own clock)."""
        return self.clock.own_expiry(global_time)

    # -- messaging -----------------------------------------------------------

    def sign(self, payload: bytes) -> SignedMessage:
        """Sign a payload, attaching the certificate (Section III-C)."""
        return sign_message(payload, self.keys, self.certificate)

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Peer) and other.name == self.name

    def __repr__(self) -> str:
        tag = "malicious" if self.malicious else "honest"
        return f"Peer({self.name!r}, {tag})"


class PeerFactory:
    """Mints peers with CA-issued certificates and seeded key material.

    Key generation dominates simulation start-up, so the factory
    supports ``key_bits`` down-tuning (certificates are still issued
    and verified; only the peers' RSA modulus shrinks).
    """

    def __init__(
        self,
        ca: CertificateAuthority,
        rng: np.random.Generator,
        lifetime: float,
        grace_window: float = 0.0,
        key_bits: int = 128,
        id_bits: int = identifiers.DEFAULT_ID_BITS,
        malicious_fraction: float = 0.0,
        max_clock_skew: float = 0.0,
    ) -> None:
        if not 0.0 <= malicious_fraction <= 1.0:
            raise ValueError(
                f"malicious_fraction must be in [0, 1], got {malicious_fraction}"
            )
        self._ca = ca
        self._rng = rng
        self._lifetime = lifetime
        self._grace_window = grace_window
        self._key_bits = key_bits
        self._id_bits = id_bits
        self._malicious_fraction = malicious_fraction
        self._max_clock_skew = min(max_clock_skew, grace_window / 2.0)
        self._counter = 0
        PeerFactory._instances += 1
        self._namespace = PeerFactory._instances

    #: Class-level counter namespacing default peer names, so peers
    #: minted by different factories (e.g. two overlays in one test)
    #: never collide on the name-based equality.
    _instances = 0

    def create(
        self,
        created_at: float,
        malicious: bool | None = None,
        name: str | None = None,
    ) -> Peer:
        """Mint one peer; ``malicious=None`` draws from the configured
        fraction (the adversary's ``mu``)."""
        self._counter += 1
        if name is None:
            name = f"peer-{self._namespace:03d}-{self._counter:06d}"
        if malicious is None:
            malicious = bool(self._rng.random() < self._malicious_fraction)
        keys = KeyPair.generate(self._rng, self._key_bits)
        certificate = self._ca.issue(name, keys.public, created_at)
        skew = (
            float(self._rng.uniform(-self._max_clock_skew, self._max_clock_skew))
            if self._max_clock_skew > 0.0
            else 0.0
        )
        clock = IncarnationClock(
            t0=created_at,
            lifetime=self._lifetime,
            grace_window=self._grace_window,
            skew=skew,
        )
        return Peer(
            name=name,
            keys=keys,
            certificate=certificate,
            clock=clock,
            malicious=malicious,
            id_bits=self._id_bits,
        )

    def create_many(
        self, count: int, created_at: float
    ) -> list[Peer]:
        """Mint ``count`` peers at once."""
        return [self.create(created_at) for _ in range(count)]
