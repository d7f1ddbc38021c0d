"""The salted-word model: deterministic alias tags for calculated values.

Under hardware aliasing a value is a salted word: its 32-bit arithmetic
word (``lo``) plus a 32-bit tag (``hi``) recording *how* it was
calculated.  Copies, loads and stores preserve both halves verbatim and
do not pass through here; every arithmetic step (`li`, `addiu`, `addu`,
`nand`, the return address of `jal`, an effective address, a register's
initial value) re-tags its result with :func:`tag`, mixed from the seed,
the operation's domain and the full (tag, value) representation of its
inputs (:func:`pack`).  The same calculation always yields the same tag,
while distinct calculations of an arithmetically equal value disagree
with overwhelming probability.  Memory is keyed by (tag, address), so a
read through a differently calculated alias of a written address misses
its cell and faults.  Comparisons and device decoding see the arithmetic
word only.  The interpreter in `_engine` takes :func:`tag` as its salt;
its clean machine takes a salt that tags every calculation 0 instead,
and its symbolic run one that numbers each distinct calculation.  A
seed's tag of a calculation is :func:`tag` applied to the tags of its
inputs, so it can be evaluated from that numbering alone; the tag 0 of
the zero register, of byte stores and of preloaded data is a literal,
not a calculation.  A tag is a :func:`root` per seed and domain, folded
with each input in turn by :func:`fold`, so a check that evaluates many
calculations of one seed computes each domain's root once and calls the
same two functions.  ``TAG_MASK`` is the tag width, read at every call.
"""

from __future__ import annotations

M64 = 0xFFFFFFFFFFFFFFFF

# tag domains, one per way a value can be produced
T_LI = 0x11
T_ADDIU = 0x22
T_ADDU = 0x33
T_NAND = 0x44
T_JAL = 0x55
T_EA = 0x66
T_INIT = 0x77


# the width of a tag: the low 32 bits of the mixed state
TAG_MASK = 0xFFFFFFFF


def fold(h: int, v: int) -> int:
    """Mix the input ``v`` into the state ``h`` (one splitmix64 step)."""
    z = ((h ^ (v & M64)) + 0x9E3779B97F4A7C15) & M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def root(seed: int, domain: int) -> int:
    """The state a tag of ``domain`` under ``seed`` starts from."""
    return fold(seed & M64, domain)


def tag(seed: int, domain: int, *vals: int) -> int:
    h = root(seed, domain)
    for v in vals:
        h = fold(h, v)
    return h & TAG_MASK


def pack(hi: int, lo: int) -> int:
    return ((hi & 0xFFFFFFFF) << 32) | (lo & 0xFFFFFFFF)
