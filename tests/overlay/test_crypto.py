"""Unit tests for the simulation-grade RSA and certification authority."""

import hashlib

import numpy as np
import pytest

from repro.overlay.crypto import (
    Certificate,
    CertificateAuthority,
    KeyPair,
    generate_prime,
    is_probable_prime,
    sign_message,
)
from repro.overlay.errors import CertificateError, SignatureError


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(99)


@pytest.fixture(scope="module")
def ca(module_rng):
    return CertificateAuthority(module_rng, key_bits=128)


@pytest.fixture(scope="module")
def keys(module_rng):
    return KeyPair.generate(module_rng, bits=128)


class TestPrimes:
    def test_small_primes_recognized(self, module_rng):
        for p in (2, 3, 5, 7, 97, 7919):
            assert is_probable_prime(p, module_rng)

    def test_composites_rejected(self, module_rng):
        for n in (1, 4, 561, 7917, 2**16):
            assert not is_probable_prime(n, module_rng)

    def test_carmichael_numbers_rejected(self, module_rng):
        # Classic Fermat-test beaters.
        for n in (561, 1105, 1729, 41041):
            assert not is_probable_prime(n, module_rng)

    def test_generated_prime_has_exact_size(self, module_rng):
        for bits in (16, 48):
            p = generate_prime(bits, module_rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p, module_rng)

    def test_rejects_tiny_request(self, module_rng):
        with pytest.raises(CertificateError):
            generate_prime(4, module_rng)


class TestSignatures:
    def test_roundtrip(self, keys):
        signature = keys.sign(b"hello")
        assert keys.public.verify(b"hello", signature)

    def test_tampered_message_fails(self, keys):
        signature = keys.sign(b"hello")
        assert not keys.public.verify(b"hellx", signature)

    def test_wrong_key_fails(self, keys, module_rng):
        other = KeyPair.generate(module_rng, bits=128)
        signature = keys.sign(b"hello")
        assert not other.public.verify(b"hello", signature)

    def test_out_of_range_signature_rejected(self, keys):
        assert not keys.public.verify(b"hello", keys.public.modulus + 1)


class TestCrtSigning:
    @pytest.mark.parametrize("bits", [32, 64, 128, 512])
    def test_crt_signature_equals_textbook_pow(self, bits):
        keys = KeyPair.generate(np.random.default_rng(bits), bits)
        n = keys.public.modulus
        assert keys._p * keys._q == n
        d = pow(keys.public.exponent, -1, (keys._p - 1) * (keys._q - 1))
        for i in range(64):
            message = f"message-{i}".encode() * (i % 5)
            digest = int.from_bytes(hashlib.sha256(message).digest(), "big")
            assert keys.sign(message) == pow(digest % n, d, n)

    def test_key_generation_rng_consumption_is_pinned(self):
        keys = KeyPair.generate(np.random.default_rng(0), 64)
        assert keys.public.modulus == 10974889655266249171


class TestCertificates:
    def test_issue_and_verify(self, ca, keys):
        certificate = ca.issue("alice", keys.public, created_at=10.0)
        ca.verify(certificate)
        assert certificate.created_at == 10.0
        assert certificate.subject == "alice"

    def test_serials_increase(self, ca, keys):
        first = ca.issue("a", keys.public, 0.0)
        second = ca.issue("b", keys.public, 0.0)
        assert second.serial == first.serial + 1

    def test_tampered_t0_detected(self, ca, keys):
        certificate = ca.issue("alice", keys.public, created_at=10.0)
        forged = Certificate(
            serial=certificate.serial,
            subject=certificate.subject,
            public_key=certificate.public_key,
            created_at=99.0,  # the malicious rewrite Section III-D rules out
            issuer=certificate.issuer,
            signature=certificate.signature,
        )
        with pytest.raises(CertificateError, match="bad CA signature"):
            ca.verify(forged)

    def test_foreign_issuer_rejected(self, ca, keys, module_rng):
        other_ca = CertificateAuthority(module_rng, name="rogue", key_bits=128)
        certificate = other_ca.issue("mallory", keys.public, 0.0)
        with pytest.raises(CertificateError, match="issued by"):
            ca.verify(certificate)

    def test_negative_creation_time_rejected(self, ca, keys):
        with pytest.raises(CertificateError):
            ca.issue("alice", keys.public, created_at=-1.0)


class TestSignedMessages:
    def test_roundtrip(self, ca, keys):
        certificate = ca.issue("alice", keys.public, 5.0)
        message = sign_message(b"payload", keys, certificate)
        message.verify(ca)

    def test_payload_tampering_detected(self, ca, keys):
        certificate = ca.issue("alice", keys.public, 5.0)
        message = sign_message(b"payload", keys, certificate)
        tampered = type(message)(
            payload=b"payloax",
            certificate=message.certificate,
            signature=message.signature,
        )
        with pytest.raises(SignatureError):
            tampered.verify(ca)

    def test_stolen_certificate_cannot_sign(self, ca, keys, module_rng):
        # A malicious peer quoting someone else's certificate cannot
        # produce valid signatures without the private key.
        certificate = ca.issue("alice", keys.public, 5.0)
        thief = KeyPair.generate(module_rng, bits=128)
        forged = sign_message(b"payload", thief, certificate)
        with pytest.raises(SignatureError):
            forged.verify(ca)
