"""Cryptography functions (the PKA algorithm families, §2.2 A2):
AES-128, SHA-1 and RSA."""
