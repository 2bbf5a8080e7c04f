"""Hashed bitmap filters for RID-list intersection [Babb79].

Section 6: "a hashed in-memory bitmap for temporary tables" assists RID-list
intersection once lists spill out of main memory. The bitmap never produces
false negatives — a RID that was added always tests positive — so filtering
with it preserves correctness; false positives are later removed when the
filtered list is itself intersected or when the final restriction is
evaluated on fetched records.
"""

from __future__ import annotations

from typing import Iterable

from repro.storage.rid import RID


class BitmapFilter:
    """A fixed-size hashed bitmap over encoded RIDs.

    The size "is as small as necessary" (Section 6): callers pick the bit
    count from the expected list size; collisions only cost extra work, never
    wrong results.
    """

    __slots__ = ("bits", "_words", "population")

    def __init__(self, bits: int = 1 << 16) -> None:
        if bits < 8:
            raise ValueError("bitmap must have at least 8 bits")
        self.bits = bits
        self._words = bytearray(bits // 8 + 1)
        #: number of set bits is not tracked exactly; population counts adds.
        self.population = 0

    def _position(self, rid: RID) -> tuple[int, int]:
        # Multiplicative hashing (Knuth's 64-bit golden-ratio constant) with
        # a final right-shift fold: the entropy of a multiplicative hash
        # lives in the high bits, so they must be mixed down before the
        # modulo or page numbers (multiples of 2^16) would all collide.
        h = (rid * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
        bit = h % self.bits
        return bit >> 3, 1 << (bit & 7)

    def add(self, rid: RID) -> None:
        """Set the bit for ``rid``."""
        byte, mask = self._position(rid)
        self._words[byte] |= mask
        self.population += 1

    def add_many(self, rids: Iterable[RID]) -> None:
        """Bulk add."""
        for rid in rids:
            self.add(rid)

    def __contains__(self, rid: RID) -> bool:
        byte, mask = self._position(rid)
        return bool(self._words[byte] & mask)

    def may_contain(self, rid: RID) -> bool:
        """Alias for ``rid in bitmap`` making the probabilistic nature explicit."""
        return rid in self

    def set_bit_count(self) -> int:
        """Exact number of set bits (used in tests and fill-factor checks)."""
        return sum(bin(word).count("1") for word in self._words)

    def fill_factor(self) -> float:
        """Fraction of bits set; high values mean many false positives."""
        return self.set_bit_count() / self.bits

    @staticmethod
    def size_for(expected: int, bits_per_entry: int = 10) -> int:
        """Pick a bitmap size for an expected entry count.

        ``bits_per_entry`` = 10 keeps the fill factor under ~10% which keeps
        the false-positive rate of a single-hash bitmap near the fill factor.
        """
        return max(64, 1 << (expected * bits_per_entry - 1).bit_length()) if expected > 0 else 64
