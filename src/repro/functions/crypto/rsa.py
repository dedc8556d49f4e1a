"""RSA work accounting: the cost of one modular exponentiation.

Work is counted in 64-bit limb multiplies: a k-limb modular multiply
costs ~k^2 limb multiplies, and a w-bit modular exponentiation performs
~w squarings plus ~w/2 multiplies (square-and-multiply), which is what
both OpenSSL's software path and the BlueField-2 PKA engine
fundamentally execute.
"""

from __future__ import annotations

from ...core.work import WorkUnits

LIMB_BITS = 64


def modexp_work(exponent: int, modulus_bits: int) -> WorkUnits:
    """Work units of one modular exponentiation."""
    limbs = (modulus_bits + LIMB_BITS - 1) // LIMB_BITS
    squarings = max(exponent.bit_length() - 1, 0)
    multiplies = max(bin(exponent).count("1") - 1, 0)
    limb_muls = (squarings + multiplies) * limbs * limbs
    return WorkUnits({"rsa_limb_mul": float(limb_muls)})
