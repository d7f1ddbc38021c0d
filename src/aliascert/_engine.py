"""The interpreter: one loop over a decoded program image, three salts.

`build_image` decodes a program into the image the loop runs: each
instruction, keyed by its address, as that address, its mnemonic and up
to three operands, each data blob as its address, bytes, step and
whether it is initialized.  No other module reads that layout.

The loop dispatches once per basic block.  The first time a run reaches
a pc, it builds the block there (`_block`) and keeps it for the rest of
the run: the instructions from that pc up to and including the first
control transfer (``beq``, ``bnez``, ``j``, ``jal``, ``jr``), or to the
last address that holds an instruction.  Only the pcs a run reaches get
a block.  A block holds instructions at consecutive addresses and only
its last one moves the pc anywhere but on, so running it runs the steps
one step at a time would, in the same order, with the same salt calls.
A pc that holds no instruction ends the run, as returned at the return
sentinel, else as ``FuelExhausted`` when the fuel is spent, else as
``BadProgramCounter``.  With fewer steps of fuel left than the block
holds, the loop runs only that many of its instructions, so fuel ends
the run at the step and pc it would one step at a time.  A run that
stops inside a block (an error, an alias fault, an uninitialized read or
the halt device) counts its steps up to and including the instruction
it stops at, read off that instruction's distance from the block's pc.

Under hardware aliasing a value is a salted word: its 32-bit arithmetic
word plus a 32-bit tag recording *how* it was calculated, held as the
one int ``tag << 32 | word``.  Registers, cells and cell keys all hold
that form.  Every tag and every word is below 2**32: words are taken
modulo 2**32, a seeded tag is masked by ``TAG_MASK``, the clean tag is
0, and a symbolic tag numbers the calculations interned so far, far
fewer than 2**32 in any run that fits in memory.  So ``& M32`` reads the
word and ``>> 32`` the tag.  Copies, loads and stores preserve a salted
word verbatim; every arithmetic step (`li`, `addiu`, `addu`, `nand`, the
return address of `jal`, an effective address, a register's initial
value) re-tags its result with the loop's salt, unless it is one that
cannot reach an address (below).  The seeded salt
:func:`tag` mixes the seed, the operation's domain and the salted words
of its inputs: the same calculation always yields the same tag, while
distinct calculations of an arithmetically equal value disagree with
overwhelming probability.  A tag is a :func:`root` per seed and domain,
folded with each input in turn by :func:`fold`, so a check that
evaluates many calculations of one seed computes each domain's root
once and calls the same two functions; :func:`tag` keeps the roots of
the last few seeds, so a seeded run computes each root once too.
``TAG_MASK`` is the tag width, read at every call.

A tag is read only where it keys a cell; registers, comparisons, jumps
and devices read words.  So `build_image` computes once, over all the
image's instructions in any order, which registers are
*address-relevant* (a backward slice, `_address_relevant`): the base of
every load and store; the register inputs of a ``move``, ``addiu``,
``addu`` or ``nand`` whose destination is relevant; and, when the
destination of some ``lw`` is relevant, the value of every ``sw``, since
a loaded word keeps the tag it was stored with.  ``lb`` loads and ``sb``
stores a plain byte, so neither adds a register.  A ``li``, ``addiu``,
``addu`` or ``nand`` whose destination is not relevant is decoded into
its word-only form: the loop computes its word, tagged 0 under every
salt, and calls no salt.

The four memory instructions, ``lw``, ``lb``, ``sw`` and ``sb``, share
one arm of the loop.  It derives the access once, in this order: the
device test (a load there ends the run with ``DeviceReadUnsupported``; a
store prints, halts or is ignored), the salt of the effective address,
then the word-alignment test of ``lw`` and ``sw``.  It then ends in a
store tail or a load tail.

For the length of one run, the loop keeps for each memory instruction,
keyed by its pc, the whole derivation of its last access to memory (an
inline cache): the salted word its base register held, the tag of the
effective address, the cell key ``tag << 32 | word``, the word address,
the effective address and the bit shift of its byte lane.  A pc fixes
the offset, and a run fixes the seed, the salt and ``TAG_MASK``; every
salt is a pure function of these and its inputs.  So each entry is a
function of the base's salted word, and an access whose base holds the
same salted word as the entry reads it instead of deriving it: one
lookup, one comparison and one unpack.  An entry is made only after the
device and alignment tests pass, so a hit needs neither test.  A device
load or an unaligned access ends the run, and a device store is never
cached: it is decoded again each time it runs.  A miss happens exactly
when the base differs from the last one that reached memory there, and
a miss that passes the device test calls the salt once, before the
alignment test.  A hit skips only calls that would have returned the
entry's tag again.  Under the interning salt of `run_symbolic_image`
such a call would only have handed out its id again, decoded or found
interned, so the ids and the order they are handed out in are those of
a run that calls the salt at every access to memory.

A cell is keyed by its effective address's tag over its word address,
``tag << 32 | word address``, so that differently calculated aliases of
one address select different cells: the hardware-aliasing model under
test (`run_alias_image`).  Comparisons, jumps and device decoding see
the arithmetic word only.  A ``sw`` fills the cell of its word with the
salted value, a ``sb`` one lane of the cell of its word with a plain
byte, leaving the cell's tag 0.  A load that misses its cell is an alias
fault when the word is written under some other key, and an
uninitialized read otherwise.  The loader fills cells as if each blob
had been stored along its canonical access chains (`_Chains`), but an
aliasing run starts from empty memory and builds a word's cells and
writers at its first touch, naming each loader calculation with the
run's own salt: a seed's tag in a seeded run, a reserved id in the
symbolic run.  A seeded run builds a word at the first load or store
that reaches it.  The symbolic run reads a word no store has touched in
closed form instead, decided from its key's blob, offset and reading,
and builds it at the first store into it, or at a load there that is
not self-sourced.  So data a run never touches costs it nothing.  The
clean machine is the same loop with a salt that tags every calculation
0 (`run_clean_image`): every key is then the word address itself, every
alias of an address hits its one cell, and the run has exact 32-bit
semantics with no alias fault.  The two machines differ in one more
way: the clean one lays out every data blob, the aliasing one loads only
the initialized blobs.
`machine.step` is the independent single-step reference both runs are
tested against.

The clean machine's memory needs no chains (`_clean_memory`).  Under tag
0 every store of the loader keys the cell of its word address, and each
stores the blob's own bytes at their own addresses: a word when its span
holds the whole aligned word, else one byte.  Whatever the chains, the
cells end up holding each byte of each blob at its address, tagged 0,
with 0 in every lane no blob covers: a plain map from word address to
word.  Each blob is aligned to 4 bytes, and no two share a word (the
parser lays them out so, and `build_image` refuses any other layout), so
each word holds the bytes of one blob.  That is the memory every clean
run starts from, at the entry or from a `CleanStart`; only the aliasing
machines build words along the chains.

Beside the cells, the loop keeps for each written word the calculation
(the tag of the effective address) that last wrote each of its four byte
lanes: one tag when a single calculation wrote the whole word, else one
entry per lane, which is a tag, the tuple of keys the loader filled that
lane through, or None for a lane nobody wrote.  A load is
*self-sourced* when it hits its cell and every lane it reads was last
written through its own calculation: its tag, a loader tuple holding
its tag, or None, unless the lane lies in a ``noinit`` blob (nobody
wrote it here, but the clean machine preloaded it).  A load that misses
is never self-sourced.

A seed's tags stand for how each value was calculated, so a sweep over
seeds need not run the loop once per seed.  `run_symbolic_image` runs it
once with a salt that hands out one id per distinct calculation (global
value numbering by hash-consing), and keeps the words of the loads that
are not self-sourced.  Take any machine whose tag of a calculation
depends on the calculation only: a seed's, or the clean machine's, which
tags every calculation 0.  By induction over steps, while every load so
far is self-sourced, it has taken the symbolic run's steps and its
registers hold the same words, each address-relevant one tagged with its
tag of the same calculation.  A register that is not relevant may hold
any tag: it never reaches a relevant one, and so never a base, nor, when
some ``lw`` destination is relevant, a stored value.  A store then keys
the same cell through its relevant base and writes the same word, with
its tag of the same calculation whenever a ``lw`` may load it into a
relevant register.  Its cell holds in each lane the latest write through
any calculation of the cell's tag: calculations whose tags collide share
one cell.  A self-sourced load's lanes were last written, over all
calculations, through its own, which is among those that collide with
it, so the shared cell holds the same bytes there.  A lane nobody wrote
is 0 on both machines, and the rule leaves out the lanes of ``noinit``
blobs, which only the clean machine preloads.  A ``lw`` reads every
lane, so the word's latest write is its own and the cell's tag, when its
destination is relevant, comes from that write; a ``lb`` loads a plain
byte.  Every other step depends on words only, so the machine branches
alike and halts or fails at the same step with the same error.  Hence,
when every load is self-sourced, the symbolic run is the clean run and
every seeded run, failed or not (`clean_outcome`, `run_alias_image`),
and a sweep runs nothing more.

Otherwise the same induction gives the clean machine's state just before
the first load that is not self-sourced, and the clean run goes on from
there (`CleanStart`), never from step 0: the symbolic run's pc, steps,
output and register words, and a map from word address to word, which
are the clean machine's salted words and cells under tag 0.  That memory
is the clean machine's memory of every blob, overlaid with each lane
whose last writer the symbolic run records as one calculation, from that
writer's cell.  The clean machine's one cell of a word holds each lane's
latest write over all calculations; the last writer's cell holds that
writer's latest write, which is the same.  A lane whose writer is a
loader tuple was written by the loader only, so it holds the blob's
byte, as the clean memory does; a lane nobody wrote keeps its ``noinit``
byte or 0.  Every word of that memory is written, by tag 0.  So a sweep
costs one symbolic run plus the clean machine's steps from that load on.
A seed's run equals the symbolic run when its tags are distinct among
the effective-address calculations that key each word such a load reads:
the load's cell then holds the writes through its own calculation only,
as in the symbolic run, and a miss stays a miss.  `run_alias_image`
given the symbolic run checks this for its seed over the few
calculations concerned, which the symbolic run keeps as their interned
keys, and runs the seeded loop only on a collision.  The registers'
initial values take ids 1 to 31, the loader's chains the range after
them, in the order an eager walk of the chains would intern them, and
the run's other
calculations the ids after that range, in the order they are interned.
The salt decodes the id of a calculation whose input is one of the
chains' pointers, or that is the ``li`` of a blob's address, from the
blob before it builds any key (`_Chains.salt`), and builds and looks up
a key only for every other calculation.  A loader calculation is never
in the table, so the ids and their order are those a lookup first would
give, and building a word through this salt interns nothing.  So the
table holds those 31 keys and the others only
(``interned`` counts them); the loader's keys and the effective
addresses that reach each of its words follow from its blobs.  The
symbolic run collects the calculations concerned by a walk from the
groups' ids down through their salted inputs, touching no other key,
and keeps them sorted by id.  A seed's tag of a calculation is
:func:`tag` applied to the tags of its inputs, and a key names each
salted input by its id, so the check folds every tag from the bits of
its key, oldest first; the tag 0 of the zero register, of byte stores
and of loaded data is a literal, not a calculation.

Callers look the entry points up in this module at call time, so a
profiler can wrap them here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .isa import BASE_ADDRESS, FORMATS, RA, SP, Program
from .machine import (DEFAULT_STACK_BASE, DEVICE_BASE, DEVICE_SIZE, HALT_OFFSET, M32,
                      PRINT_OFFSET, RETURN_SENTINEL, Fault, RunOutcome)

BACKEND = "pure"  # recorded with benchmark runs

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


# a seeded run's tags start from one seed's few roots
_tag_root = lru_cache(maxsize=64)(root)


def tag(seed: int, domain: int, *vals: int) -> int:
    h = _tag_root(seed, domain)
    for v in vals:
        h = fold(h, v)
    return h & TAG_MASK


@dataclass(frozen=True)
class Image:
    """A decoded program ready for interpretation, each instruction keyed
    by its address.  Each blob starts on a word boundary, and no two
    share a word."""

    code: dict[int, tuple[int, str, int, int, int]]  # address -> (address, mnemonic, a, b, c)
    blobs: tuple[tuple[int, bytes, int, bool], ...]  # addr, data, step, init
    entry_addr: int


def build_image(program: Program) -> Image:
    """Decode a program into the flat form the interpreter consumes: at
    each instruction's address, that address, its mnemonic, then its
    operands in ``FORMATS`` order, ``mem`` as ``imm, rs``, targets
    resolved, padded with 0 to three operands.  An instruction that only
    writes a register is a ``nop`` when that register is zero, and an
    arithmetic one whose destination is not address-relevant
    (`_address_relevant`) takes its word-only form (``_WORD_ONLY``).  A
    ``ValueError`` for a blob off a word boundary or in a word of the blob
    before it, a layout the parser never makes."""
    entry_addr = program.entry_address()
    code = {}
    for n, i in enumerate(program.instructions):
        addr = BASE_ADDRESS + 4 * n
        ops = [addr, "nop" if i.op in _REGISTER_ONLY and i.rd == 0 else i.op]
        for f in FORMATS[i.op]:
            if f == "mem":
                ops += (i.imm, i.rs)
            elif f == "target":
                ops.append(program.resolve(i.target))
            else:
                ops.append(getattr(i, f))
        code[addr] = (*ops, *(0,) * (5 - len(ops)))
    relevant = _address_relevant(code.values())
    for addr, (_, op, a, b, c) in code.items():
        if op in _WORD_ONLY and a not in relevant:
            code[addr] = (addr, _WORD_ONLY[op], a, b, c)
    blobs = tuple(
        (program.labels[name], blob.data, blob.step, blob.init)
        for name, blob in program.blobs.items()
    )
    end, before = 0, None  # the first address past the blob before, and its name
    for addr, name in sorted((program.labels[name], name) for name in program.blobs):
        if addr & 3:
            raise ValueError(f"data blob {name!r} at 0x{addr:08x} is not on a word boundary")
        if addr < end:
            raise ValueError(f"data blob {name!r} at 0x{addr:08x} shares a word "
                             f"with data blob {before!r}")
        end, before = addr + program.blobs[name].extent, name
    return Image(code=code, blobs=blobs, entry_addr=entry_addr)


# the mnemonics whose only effect is to write register ``a``
_REGISTER_ONLY = frozenset(("move", "li", "addiu", "addu", "nand"))
# the word-only form of each arithmetic mnemonic: its word, tagged 0
_WORD_ONLY = {"li": "li.w", "addiu": "addiu.w", "addu": "addu.w", "nand": "nand.w"}
_ACCESSES = frozenset(("lw", "lb", "sw", "sb"))  # the mnemonics that access memory
_STORES = frozenset(("sw", "sb"))  # the mnemonics that store


def _address_relevant(code) -> set[int]:
    """The address-relevant registers of the decoded instructions
    ``code``, by the rule the module docstring states: a walk from every
    base down through the registers each register's value is made of."""
    stored = {a for _, op, a, _, _ in code if op == "sw"}
    inputs: list[set[int]] = [set() for _ in range(32)]  # by register, what its value is made from
    todo = []
    for _, op, a, b, c in code:
        if op in _ACCESSES:
            todo.append(c)
        if op == "lw":
            inputs[a] |= stored
        elif op == "move" or op == "addiu":
            inputs[a].add(b)
        elif op == "addu" or op == "nand":
            inputs[a] |= {b, c}
    relevant: set[int] = set()
    while todo:
        r = todo.pop()
        if r not in relevant:
            relevant.add(r)
            todo += inputs[r]
    return relevant


def _zero_tag(seed: int, domain: int, *vals: int) -> int:
    return 0


class _Chains:
    """The loader of the initialized ``blobs``, word by word.  The loader
    stores each blob along one chain of pointers: the ``li`` of the blob's
    address spans the whole blob (the array reading), then each ``addiu``
    by the blob's step spans the next ``step`` bytes (the string reading),
    and the last step's pointer, at or past the end of the data, spans
    none.  Each offset in a span is one effective address; it stores the
    aligned word starting there when the span holds it, and its byte
    otherwise.  A lane's writer is its one key, or the tuple of its keys in
    the order they first wrote it: the array reading's before the string
    reading's, and a whole word's before a byte's.  Every store puts the
    blob's own bytes at their own addresses, so a cell holds the lanes
    stored through its key, whatever the order.

    A run starts from empty memory and builds a word's cells and writers
    at its first touch (`build`), naming each calculation with the run's
    own salt.  For the symbolic run, the loader's calculations also have
    ids reserved from ``first``, blob by blob, in the order an eager walk
    would intern them: the ``li``, the effective address of each offset
    of the array reading, then for each step its ``addiu`` and the
    effective addresses of the offsets it spans.  Each of those ids, its
    key, and each load of a word no store has touched follows from the
    blob's address, bytes and step; none is interned.  A blob is
    ``(addr, data, n, step, li id, first step's id, steps, last step's
    id)``.  A ``_Chains`` serves one run: it keeps each blob's pointers
    salted so far."""

    def __init__(self, blobs, first: int):
        self.first, self.li, self.by_id = first, {}, []
        for addr, data, step, init in blobs:
            if not init:
                continue
            n, k = len(data), -(-len(data) // step)  # the last step ends past the data
            top = first + n + k + max(0, n - step)  # step k's id, or the li's when n is 0
            self.by_id.append((addr, data, n, step, first, first + n + 1, k, top))
            self.li[addr] = first
            first = top + 1
        self.last = first
        self.starts = [b[4] for b in self.by_id]
        self.by_addr = sorted(self.by_id)
        self.addrs = [b[0] for b in self.by_addr]
        self.ptrs: dict[int, list[int]] = {}  # blob address -> its salted pointers so far

    def _word(self, w: int):
        """The blob whose data holds word ``w``, with ``w``'s offset in it."""
        b = self.by_addr[bisect_right(self.addrs, w) - 1] if self.addrs else None
        return (b, w - b[0]) if b is not None and 0 <= w - b[0] < b[2] else (None, 0)

    def salt(self, ids: dict[int, int]):
        """The interning salt over the table ``ids``, which holds the keys
        of ids 1 to ``first - 1``.  A loader calculation, the ``li`` of a
        blob's address or an ``addiu`` or effective address from one of the
        chains' pointers, gets its reserved id, decoded from the blob
        before any key is built; every other calculation gets its key's id
        in ``ids``, a new key the next id after the reserved range."""
        li, starts, by_id, get = self.li.get, self.starts, self.by_id, ids.get
        first, last = self.first, self.last
        reserved = last - first

        def intern(seed: int, domain: int, a: int, b: int = 0) -> int:
            # ``a`` is a word or a salted word, below 2**64; ``b`` may be a
            # negative immediate
            if domain == T_LI and (i := li(a)) is not None:
                return i
            if first <= (p := a >> 32) < last and (domain == T_EA or domain == T_ADDIU):
                _, _, n, step, s, c0, _, top = by_id[bisect_right(starts, p) - 1]
                # the id of the step after pointer p, whose effective addresses
                # take the ids between
                if p == s:  # the li
                    nxt = c0 if n else 0
                elif c0 <= p < top and not (p - c0) % (step + 1):  # a step's pointer
                    nxt = p + step + 1 if p + step < top else top
                else:  # the last step's pointer, or an effective address
                    nxt = 0
                if domain == T_ADDIU:
                    if nxt and b == step:
                        return nxt
                elif 0 <= b and p + 1 + b < nxt:
                    return p + 1 + b
            key = ((b & M64) << 64 | a) << 8 | domain
            i = get(key)
            if i is None:
                i = ids[key] = len(ids) + reserved + 1
            return i
        return intern

    def key(self, i: int) -> int:
        """The key the interning salt would hold for reserved id ``i``."""
        addr, _data, n, step, s, c0, k_top, top = self.by_id[bisect_right(self.starts, i) - 1]
        if i == s:
            return addr << 8 | T_LI
        if i <= s + n:
            return ((i - s - 1) << 64 | s << 32 | addr) << 8 | T_EA
        q, r = (k_top - 1, 0) if i == top else divmod(i - c0, step + 1)
        if r:  # the effective address r - 1 past step q + 1's pointer
            return ((r - 1) << 64 | (i - r) << 32 | (addr + (q + 1) * step) & M32) << 8 | T_EA
        prev = s if q == 0 else c0 + (q - 1) * (step + 1)
        return (step << 64 | prev << 32 | (addr + q * step) & M32) << 8 | T_ADDIU

    def ids_at(self, w: int) -> list[int]:
        """The ids of the loader's effective addresses into word ``w``,
        ascending."""
        b, x = self._word(w)
        if b is None:
            return []
        _addr, _data, n, step, s, c0 = b[:6]
        ys = range(x, min(x + 4, n))
        return [s + 1 + y for y in ys] + [
            c0 + (y // step - 1) * (step + 1) + 1 + y % step for y in ys if y >= step]

    def read(self, t: int, ea: int, word: bool) -> tuple[int | None, bool]:
        """A ``lw`` (``word``) or ``lb`` of ``ea`` through the id ``t`` of
        its effective address, where the loader alone wrote the word: the
        word or byte it loads, None when its cell is missing, and whether
        it is self-sourced.  Only the loader's effective address of ``ea``
        has a cell there.  It stores the whole word when its span holds
        it, else the one byte, so it last wrote exactly the lanes of those
        offsets."""
        if not self.first <= t < self.last:
            return None, False
        addr, data, n, step, s, _c0, _k, _top = self.by_id[bisect_right(self.starts, t) - 1]
        y = ea - addr
        if not word:
            return data[y], True
        if y + 4 <= (n if t <= s + n else min(y - y % step + step, n)):
            return int.from_bytes(data[y:y + 4], "little"), True
        return data[y], y + 1 >= n

    def build(self, w: int, mem: dict, written: dict, seed: int, salt) -> None:
        """Fill word ``w``'s cells and lane writers as the loader leaves
        them, when an initialized blob holds ``w``, ``salt(seed, ...)``
        naming each calculation: the blob's pointers once each, up to the
        last that spans ``w``, and each effective address into ``w`` once.
        Under the symbolic run's salt the names are the reserved ids.
        Tags that collide share one cell, which holds every lane stored
        through them."""
        b, x = self._word(w)
        if b is None:
            return
        addr, data, n, step = b[:4]
        ys = range(x, min(x + 4, n))
        ptrs = self.ptrs.get(addr)
        if ptrs is None:
            ptrs = self.ptrs[addr] = [salt(seed, T_LI, addr) << 32 | addr]
        for _ in range(len(ptrs), ys[-1] // step + 1):
            p = ptrs[-1]
            ptrs.append(salt(seed, T_ADDIU, p, step) << 32 | (p + step) & M32)
        # each lane's keys: the array reading's, then the string chain's, each
        # storing the whole word through its key of offset x when its span holds it
        arr = [salt(seed, T_EA, ptrs[0], y) for y in ys]
        chn = [salt(seed, T_EA, ptrs[y // step], y % step) if y >= step else None for y in ys]
        whole = x + 4 <= n
        ja = arr[0] if whole else None
        jc = chn[0] if whole and step <= x and x % step + 4 <= step else None
        lanes = [None] * 4
        cells: dict[int, int] = {}  # tag -> the bytes stored through it, in their lanes
        for k, (i, j) in enumerate(zip(arr, chn)):
            v = data[x + k] << 8 * k
            keys = []
            for e in (ja, i, jc, j):
                if e is not None and e not in keys:
                    keys.append(e)
                    cells[e] = cells.get(e, 0) | v
            lanes[k] = keys[0] if len(keys) == 1 else tuple(keys)
        for e, v in cells.items():
            mem[e << 32 | w] = v
        e = lanes[0]
        written[w] = e if type(e) is int and lanes.count(e) == 4 else tuple(lanes)


_WORD = range(4)  # the lanes a ``lw`` reads
_NO_MEMO = (None,)  # the memo entry of a pc that has not yet reached memory
_TRANSFERS = frozenset(("beq", "bnez", "j", "jal", "jr"))  # the mnemonics that end a block


def _block(code: dict, pc: int) -> tuple:
    """The block at ``pc``: the image's ``(pc, op, a, b, c)`` of each
    instruction from ``pc`` up to and including the first control
    transfer, or to the last address that holds an instruction; empty
    when ``pc`` holds none."""
    block = []
    while (ins := code.get(pc)) is not None:
        block.append(ins)
        if ins[1] in _TRANSFERS:
            break
        pc += 4
    return tuple(block)


def _write_lane(written: dict, w: int, lane: int, e: int) -> None:
    """Record ``e`` as the last writer of ``lane`` of word ``w``."""
    src = written.get(w)
    lanes = list(src) if type(src) is tuple else [src] * 4
    lanes[lane] = e
    written[w] = e if lanes.count(e) == 4 else tuple(lanes)


def _own(src, e: int, w: int, lanes, unloaded) -> bool:
    """Whether every lane in ``lanes`` of word ``w``, whose writers
    ``src`` records, was last written through ``e`` or by nobody,
    ``unloaded`` holding the address ranges of the blobs not loaded."""
    if type(src) is not tuple:
        return src == e
    for lane in lanes:
        x = src[lane]
        if x is None:
            if any(w + lane in u for u in unloaded):
                return False
        elif x != e and (type(x) is not tuple or e not in x):
            return False
    return True


# the register words at the entry: sp at the stack base, ra at the return
# sentinel, every other register 0
_ENTRY_REGS = tuple(DEFAULT_STACK_BASE if r == SP else RETURN_SENTINEL if r == RA else 0
                    for r in range(32))


def _clean_memory(blobs) -> dict[int, int]:
    """The clean machine's memory of ``blobs``: each byte at its address,
    as a map from word address to word."""
    return {addr + i: int.from_bytes(data[i:i + 4], "little")
            for addr, data, _step, _init in blobs for i in range(0, len(data), 4)}


def run_clean_image(image: Image, fuel: int, start: CleanStart | None = None) -> RunOutcome:
    """The clean machine: one tag for every calculation, all data preloaded.
    Given ``start``, the run goes on from that state instead of the entry."""
    if start is None:
        start = CleanStart(image.entry_addr, 0, _ENTRY_REGS, b"", _clean_memory(image.blobs))
    return _run(image, fuel, 0, _zero_tag, start=start)


def run_alias_image(image: Image, fuel: int, seed: int,
                    symbolic: SymbolicRun | None = None) -> RunOutcome:
    """The aliasing machine: seeded tags, each word of an initialized blob
    built at the first load or store that reaches it, and ``noinit`` data
    left unwritten.

    Given ``symbolic``, the symbolic run of the same ``image`` and
    ``fuel``, returns its outcome when ``seed`` tags distinctly the
    calculations that key each word of ``symbolic.mixed``, and runs the
    seeded loop otherwise."""
    if symbolic is not None and _collision_free(symbolic, seed):
        return symbolic.outcome
    return _run(image, fuel, seed, tag)


def clean_outcome(image: Image, fuel: int, symbolic: SymbolicRun) -> RunOutcome:
    """The clean run of ``image``: ``symbolic``'s outcome when every load
    is self-sourced (see the module docstring), else the clean machine
    resumed from ``symbolic.start``."""
    if symbolic.start is None:
        return symbolic.outcome
    return run_clean_image(image, fuel, symbolic.start)


class CleanStart(NamedTuple):
    """The clean machine's state just before the symbolic run's first
    load that is not self-sourced: the load's pc, the steps before it,
    the register words, the output so far and the memory, a map from
    word address to word."""

    pc: int
    steps: int
    regs: tuple[int, ...]
    output: bytes
    memory: dict[int, int]


def _clean_start(image: Image, pc: int, steps: int, regs: list[int], out: bytearray,
                 mem: dict, written: dict) -> CleanStart:
    """The clean machine's state where the symbolic run stands with ``mem``
    and ``written``: the clean memory of every blob, then each lane whose
    last writer is one calculation overlaid from that writer's cell.  A
    lane whose writer is a loader tuple still holds its loaded byte, which
    the clean memory holds already."""
    memory = _clean_memory(image.blobs)
    for w, src in written.items():
        if type(src) is not tuple:
            memory[w] = mem[src << 32 | w] & M32
            continue
        word = memory.get(w, 0)
        for lane, x in enumerate(src):
            if type(x) is int:
                m = 0xFF << 8 * lane
                word = word & ~m | mem[x << 32 | w] & m
        memory[w] = word
    return CleanStart(pc, steps, tuple(v & M32 for v in regs), bytes(out), memory)


# The inputs `_run` passes with each tag domain: how many, and how many
# of them lead with a salted word.
_INPUTS = {T_LI: (1, 0), T_JAL: (1, 0), T_INIT: (1, 0),
           T_ADDIU: (2, 1), T_EA: (2, 1), T_ADDU: (2, 2), T_NAND: (2, 2)}


@dataclass(frozen=True)
class SymbolicRun:
    """The aliasing machine run once under calculation ids, kept only as
    far as a seed's collision check needs it.

    ``mixed`` holds the words read by loads that are not self-sourced;
    with none, the run is every seed's and the clean machine's, and
    ``start`` is None.  Otherwise ``start`` is the clean machine's state
    just before the first of those loads, where its clean run resumes.

    ``closure`` maps the id of every calculation that ``groups`` reaches
    through its inputs, oldest first, to its interned key: the domain in
    bits 0-7, the first input in bits 8-71 and the second, if any, in
    bits 72-135, a salted input holding its id as its tag (bits 40-71 or
    104-135), and the id 0 standing for the literal tag 0.  Each group
    holds the ids of the effective addresses, two or more, that key one
    word of ``mixed``.  ``interned`` counts the keys in the run's table
    when it ended: the registers' initial values and every calculation
    outside the loader's chains, which take their ids without one."""

    outcome: RunOutcome
    closure: dict[int, int]
    groups: tuple[tuple[int, ...], ...]
    mixed: frozenset[int]
    interned: int
    start: CleanStart | None = None


def run_symbolic_image(image: Image, fuel: int) -> SymbolicRun:
    """The aliasing machine with one tag per distinct calculation: ids 1,
    2, 3, ... in creation order, so no two calculations collide.  The
    registers' initial values take ids 1 to 31, the loader's chains the
    range after them (`_Chains`), and every other calculation the ids
    after that range.  A loader calculation's id is decoded from its blob
    before any key is built, so only the others are interned."""
    # interned key -> id; one int per key keeps it small
    ids: dict[int, int] = {i << 8 | T_INIT: i for i in range(1, 32)}
    chains = _Chains(image.blobs, len(ids) + 1)
    mixed: set[int] = set()
    snapshot: list[CleanStart] = []
    outcome = _run(image, fuel, 0, chains.salt(ids), mixed, None, snapshot, chains)
    if not mixed:
        return SymbolicRun(outcome, {}, (), frozenset(), len(ids))
    # every effective address keys or probes a cell of its word, word + imm;
    # the loader's come first, by id
    words: dict[int, list[int]] = {w: chains.ids_at(w) for w in mixed}
    for w, i in [(w, i) for k, i in ids.items() if k & 0xFF == T_EA
                 and (w := ((k >> 8) + (k >> 72)) & M32 & ~3) in words]:
        words[w].append(i)
    groups = tuple(tuple(g) for g in words.values() if len(g) > 1)
    # the closure, from the groups' ids down through their inputs; a key is
    # never 0, and the table holds none of the loader's
    keys = {i: k for k, i in ids.items()}
    need: dict[int, int] = {}
    todo = [i for g in groups for i in g]
    while todo:
        i = todo.pop()
        if i in need or i == 0:  # id 0 is the literal tag 0
            continue
        k = need[i] = keys.get(i) or chains.key(i)
        salted = _INPUTS[k & 0xFF][1]
        if salted:
            todo.append((k >> 40) & M32)
            if salted == 2:
                todo.append(k >> 104)
    closure = {i: need[i] for i in sorted(need)}
    return SymbolicRun(outcome, closure, groups, frozenset(mixed), len(ids), snapshot[0])


def _seed_tags(symbolic: SymbolicRun, seed: int) -> dict[int, int]:
    """``seed``'s tag of every calculation of ``symbolic.closure`` by id,
    and the literal tag 0 at id 0, evaluated from the oldest up with one
    root per domain."""
    roots = {d: root(seed, d) for d in _INPUTS}
    mask = TAG_MASK
    t = {0: 0}
    for i, k in symbolic.closure.items():
        d = k & 0xFF
        n, salted = _INPUTS[d]
        a, b = (k >> 8) & M64, k >> 72
        h = fold(roots[d], t[a >> 32] << 32 | a & M32 if salted else a)
        if n == 2:
            h = fold(h, t[b >> 32] << 32 | b & M32 if salted == 2 else b)
        t[i] = h & mask
    return t


def _collision_free(symbolic: SymbolicRun, seed: int) -> bool:
    """Whether ``seed`` tags the calculations of every group distinctly."""
    t = _seed_tags(symbolic, seed)
    return all(len({t[i] for i in g}) == len(g) for g in symbolic.groups)


def _run(image: Image, fuel: int, seed: int, salt,
         mixed: set[int] | None = None, start: CleanStart | None = None,
         snapshot: list[CleanStart] | None = None, chains: _Chains | None = None) -> RunOutcome:
    """Run ``image`` with ``salt(seed, domain, *inputs)`` tagging every
    calculation, adding to ``mixed`` the words of the loads that are not
    self-sourced and to ``snapshot`` the clean machine's state before the
    first of them.  From the entry, memory starts empty, and a word of an
    initialized blob is built (`_Chains.build`) at its first touch: at any
    access in a seeded run, and in the symbolic run, given its ``chains``,
    at a store or at a load that is not self-sourced, the other loads
    reading it in closed form.  Given ``start``, a state of the clean
    machine, the run goes on from there."""
    if fuel < 1:
        raise ValueError(f"fuel must be at least 1, got {fuel}")
    if start is None:
        r = [0] + [salt(seed, T_INIT, i) << 32 | _ENTRY_REGS[i] for i in range(1, 32)]
        mem, written = {}, {}
        # the accesses whose memo miss builds the word they first touch: all of
        # them in a seeded run, which reads no reserved id; the symbolic run's stores
        if chains is None:
            build, builders = _Chains(image.blobs, 0).build, _ACCESSES
        else:
            build, builders = chains.build, _STORES
        pc, steps, out = image.entry_addr, 0, bytearray()
        # the bytes of the ``noinit`` blobs, which only the clean machine preloads
        unloaded = tuple(range(a, a + len(data)) for a, data, _, init in image.blobs
                         if not init)
    else:
        r, mem = list(start.regs), dict(start.memory)
        written = dict.fromkeys(mem, 0)
        pc, steps, out = start.pc, start.steps, bytearray(start.output)
        unloaded = builders = ()
    if mixed is None:
        mixed = set()
    faults: list[Fault] = []
    # pc -> (base, tag, cell key, word, effective address, byte lane's shift) of
    # the last access that reached memory there.  Six fields, not the five of an
    # image instruction: CPython keeps one free list of tuples per length, and
    # entries that drain the 5-tuple list make the next image allocate its
    # instructions afresh (about four times the gen-0 collections of a clean
    # run of genprogs.call_sites(2000), repeated in one process)
    memo: dict[int, tuple[int, int, int, int, int, int]] = {}
    blocks: dict[int, tuple] = {}  # pc -> its block, for the pcs the run reached
    dev_end = DEVICE_BASE + DEVICE_SIZE
    code = image.code
    exit_reason = None
    error = error_pc = None

    while True:
        block = blocks.get(pc)
        if block is None:
            block = blocks[pc] = _block(code, pc)
        left = fuel - steps
        if not block or left <= 0:  # no instruction here, or no fuel left
            if pc == RETURN_SENTINEL:
                exit_reason = "returned"
            elif left <= 0:
                error, error_pc = "FuelExhausted", pc
            else:
                error, error_pc = "BadProgramCounter", pc
            break
        if left < len(block):
            block = block[:left]
        first = pc
        for pc, op, a, b, c in block:
            if op in _ACCESSES:
                base = r[c]
                m = memo.get(pc, _NO_MEMO)
                if m[0] == base:
                    _, t, key, w, ea, shift = m
                else:
                    ea = (base + b) & M32
                    if DEVICE_BASE <= ea < dev_end:
                        if op == "lw" or op == "lb":
                            error, error_pc = "DeviceReadUnsupported", pc
                            break
                        off = ea - DEVICE_BASE  # devices decode the value lines only
                        if off == PRINT_OFFSET:
                            out.append(r[a] & 0xFF)
                        elif off == HALT_OFFSET:
                            exit_reason = "halt-device"
                            break
                        continue
                    t = salt(seed, T_EA, base, b)
                    if ea & 3 and (op == "lw" or op == "sw"):
                        error, error_pc = "UnalignedWordAccess", pc
                        break
                    w = ea & ~3
                    key = t << 32 | w
                    shift = 8 * (ea & 3)
                    memo[pc] = (base, t, key, w, ea, shift)
                    if op in builders and w not in written:
                        build(w, mem, written, seed, salt)
                if op == "sw":
                    mem[key] = r[a]
                    written[w] = t
                    continue
                if op == "sb":
                    mem[key] = mem.get(key, 0) & (M32 ^ 0xFF << shift) | (r[a] & 0xFF) << shift
                    if written.get(w) != t:
                        _write_lane(written, w, ea & 3, t)
                    continue
                src = written.get(w)
                if src is None and chains is not None:
                    # a word no store has touched, so no cell yet: read the loader's
                    loaded, own = chains.read(t, ea, op == "lw")
                    if own:
                        if a != 0:
                            r[a] = loaded
                        continue
                    build(w, mem, written, seed, salt)  # for the writers read below
                    src = written.get(w)
                cell = mem.get(key)
                if cell is None or src != t and not _own(
                        src, t, w, _WORD if op == "lw" else (ea & 3,), unloaded):
                    if snapshot is not None and not mixed:
                        snapshot.append(_clean_start(image, pc, steps + (pc - first) // 4, r,
                                                     out, mem, written))
                    mixed.add(w)
                    if cell is None:
                        if src is not None:
                            faults.append(Fault("AliasFault", pc, ea))
                            error, error_pc = "AliasFault", pc
                        else:
                            error, error_pc = "UninitializedRead", pc
                        break
                if a != 0:
                    r[a] = cell if op == "lw" else cell >> shift & 0xFF
                continue
            if op == "addiu":
                r[a] = salt(seed, T_ADDIU, r[b], c) << 32 | (r[b] + c) & M32
                continue
            if op == "bnez":
                pc = b if r[a] & M32 else pc + 4
            elif op == "addiu.w":
                r[a] = (r[b] + c) & M32
            elif op == "move":
                r[a] = r[b]
            elif op == "li":
                r[a] = salt(seed, T_LI, b & M32) << 32 | b & M32
            elif op == "li.w":
                r[a] = b & M32
            elif op == "addu":
                r[a] = salt(seed, T_ADDU, r[b], r[c]) << 32 | (r[b] + r[c]) & M32
            elif op == "addu.w":
                r[a] = (r[b] + r[c]) & M32
            elif op == "nand":
                r[a] = salt(seed, T_NAND, r[b], r[c]) << 32 | ~(r[b] & r[c]) & M32
            elif op == "nand.w":
                r[a] = ~(r[b] & r[c]) & M32
            elif op == "beq":
                pc = c if r[a] & M32 == r[b] & M32 else pc + 4  # aliases test as equal
            elif op == "j":
                pc = a
            elif op == "jal":
                r[RA] = salt(seed, T_JAL, pc + 4) << 32 | pc + 4
                pc = a
            elif op == "jr":
                pc = r[a] & M32
            # else nop, which every register write to zero is decoded as
        else:  # the block ran to its end: a transfer set pc, else fall through
            steps += len(block)
            if op not in _TRANSFERS:
                pc += 4
            continue
        steps += (pc - first) // 4 + 1  # up to and including the stopping instruction
        break

    return RunOutcome(regs=[v & M32 for v in r], output=bytes(out), steps=steps, faults=faults,
                      error=error, error_pc=error_pc, exit_reason=exit_reason)
