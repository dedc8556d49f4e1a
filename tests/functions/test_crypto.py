"""Known-answer and property tests for AES-128, SHA-1, and RSA."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.crypto import aes, rsa, sha1


class TestAes:
    def test_fips197_vector(self):
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        ciphertext = aes.encrypt_block(plaintext, aes.expand_key(key))
        assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_decrypt_inverts_encrypt(self):
        key = b"0123456789abcdef"
        round_keys = aes.expand_key(key)
        block = b"A" * 16
        assert aes.decrypt_block(aes.encrypt_block(block, round_keys), round_keys) == block

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            aes.expand_key(b"short")

    def test_block_length_enforced(self):
        with pytest.raises(ValueError):
            aes.encrypt_block(b"short", aes.expand_key(b"0" * 16))

    def test_ctr_roundtrip(self):
        key = b"k" * 16
        data = b"counter mode encrypts arbitrary lengths!"
        ciphertext, work = aes.encrypt_ctr(data, key, nonce=7)
        plaintext, _ = aes.encrypt_ctr(ciphertext, key, nonce=7)
        assert plaintext == data
        assert work.get("aes_block") == 3.0  # ceil(41 / 16)

    def test_ctr_nonce_matters(self):
        key = b"k" * 16
        a, _ = aes.encrypt_ctr(b"same data", key, nonce=1)
        b, _ = aes.encrypt_ctr(b"same data", key, nonce=2)
        assert a != b

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, key, block):
        round_keys = aes.expand_key(key)
        assert aes.decrypt_block(aes.encrypt_block(block, round_keys), round_keys) == block


class TestSha1:
    @pytest.mark.parametrize(
        "message,expected",
        [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
        ],
    )
    def test_nist_vectors(self, message, expected):
        assert sha1.digest(message)[0].hex() == expected

    def test_million_a(self):
        digest = sha1.digest(b"a" * 10_000)[0].hex()  # scaled-down long message
        import hashlib

        assert digest == hashlib.sha1(b"a" * 10_000).hexdigest()

    def test_block_work_accounting(self):
        _, work = sha1.digest(b"x" * 200)
        # 200 bytes + padding = 4 blocks of 64
        assert work.get("sha1_block") == 4.0

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_matches_hashlib(self, message):
        import hashlib

        assert sha1.digest(message)[0] == hashlib.sha1(message).digest()


class TestRsa:
    def test_modexp_work_scales_with_bits(self):
        small = rsa.modexp_work(2**64 - 1, 512).get("rsa_limb_mul")
        large = rsa.modexp_work(2**64 - 1, 2048).get("rsa_limb_mul")
        assert large == pytest.approx(small * 16)  # (2048/512)^2 limbs
