from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from aliascert.annot import (
    Annotation,
    Calc,
    Finite,
    SetVar,
    TypeVar,
    calc,
    parse_annotation,
    parse_type,
    rep,
    serialize_annotation,
    uncalc,
)
from aliascert.cli import main
from aliascert.frontend import AsmSyntaxError, DuplicateLabel, parse_program
from aliascert.isa import BASE_ADDRESS, FORMATS, GP, IMM_MAX, IMM_MIN, RA, SP, REG_INDEX, Instruction
from aliascert.machine import DEFAULT_STACK_BASE


# -- instruction parsing -------------------------------------------------------

def test_move_parses():
    p = parse_program("move gp sp\n")
    (i,) = p.instructions
    assert (i.op, i.rd, i.rs) == ("move", GP, SP)


def test_addiu_negative_immediate():
    p = parse_program("addiu sp sp -32\n")
    (i,) = p.instructions
    assert (i.op, i.rd, i.rs, i.imm) == ("addiu", SP, SP, -32)


def test_unknown_mnemonic_rejected():
    with pytest.raises(AsmSyntaxError) as e:
        parse_program("lwz r1 0(sp)\n")
    assert e.value.line == 1


def test_bad_register_and_arity_and_overflow():
    with pytest.raises(AsmSyntaxError):
        parse_program("move gp xx\n")
    with pytest.raises(AsmSyntaxError):
        parse_program("move gp\n")
    with pytest.raises(AsmSyntaxError):
        parse_program("addiu sp sp 40000\n")


def test_memory_operand_form():
    p = parse_program("sw ra 28(sp)\n")
    (i,) = p.instructions
    assert (i.op, i.rd, i.imm, i.rs) == ("sw", RA, 28, SP)


def test_register_number_aliases():
    p = parse_program("move r28 r29\n")
    (i,) = p.instructions
    assert (i.rd, i.rs) == (GP, SP)


def test_addresses_stride_by_four():
    p = parse_program("nop\nnop\nl:\nnop\n")
    assert sorted(p.source_lines) == [
        BASE_ADDRESS, BASE_ADDRESS + 4, BASE_ADDRESS + 8]
    assert p.labels["l"] == BASE_ADDRESS + 8


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        parse_program("a:\nnop\na:\nnop\n")
    with pytest.raises(DuplicateLabel) as e:
        parse_program("msg:\n.bytes 1\nmsg:\n.bytes 2\n")
    assert e.value.line == 3


def test_unresolved_reference_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("j nowhere\n")


def test_repeated_instruction_text_shares_one_instruction():
    p = parse_program("main:\n  sw ra 4(sp)\n  nop\nl: sw ra 4(sp) # again\n  sw ra, 4(sp)\n")
    first, _, again, spelled = p.instructions
    assert again is first
    assert spelled == first and spelled is not first


def test_a_repeated_unresolved_label_names_its_first_line():
    with pytest.raises(AsmSyntaxError) as e:
        parse_program("main:\n  nop\n  jal nosuch\n  jal nosuch\n  jr ra\n")
    assert str(e.value) == "line 3: unresolved label 'nosuch'"


def test_pragma_on_an_unknown_label_names_its_line():
    with pytest.raises(AsmSyntaxError) as e:
        parse_program("main:\n  jr ra\n#@ assume nosuch: ra=u^0\n")
    assert str(e.value) == "line 3: pragma refers to unknown label 'nosuch'"


def test_data_blob_and_attributes():
    p = parse_program('nop\nmsg:\n  .bytes "Hi\\0" step=2 size=4 noinit\n')
    blob = p.blobs["msg"]
    assert blob.data == b"Hi\0"
    assert (blob.step, blob.byte_size, blob.init) == (2, 4, False)
    assert p.labels["msg"] == BASE_ADDRESS + 4


def test_a_blob_takes_its_declared_size_or_its_bytes_rounded_to_a_word():
    p = parse_program("msg:\n  .bytes 1 2 3 4 size=8\nbuf: .bytes 5 6 7 8\n"
                      "big: .bytes 1 2 3 4 5 size=2\nend: .bytes\nlast: .bytes 0\n")
    assert p.labels["buf"] == p.labels["msg"] + 8
    assert p.labels["big"] == p.labels["buf"] + 4
    assert p.labels["end"] == p.labels["big"] + 8
    assert p.labels["last"] == p.labels["end"] + 4
    assert [b.extent for b in p.blobs.values()] == [8, 4, 8, 4, 4]


def test_init_token_marks_a_blob_preloaded():
    for text in ("1 2 init", "1 2 noinit init"):
        blob = parse_program(f"msg:\n  .bytes {text}\n").blobs["msg"]
        assert (blob.data, blob.init) == (b"\x01\x02", True), text


def test_string_characters_up_to_u00ff_keep_their_byte():
    p = parse_program('msg: .bytes "A\u00e9\u00ff"\n')
    assert p.blobs["msg"].data == b"A\xe9\xff"


_HASH_IN_STRING = '#@ entry main\nmain:\n  jr ra\nmsg:\n  .bytes "a#b\\0"\n'


def test_a_hash_inside_a_string_literal_is_a_byte():
    assert parse_program(_HASH_IN_STRING).blobs["msg"].data == b"a#b\0"
    # an escaped quote does not end the literal
    p = parse_program('msg: .bytes "\\"#" 7\n')
    assert p.blobs["msg"].data == b'"#\x07'


def test_a_comment_after_the_closing_quote_is_still_a_comment():
    p = parse_program('msg: .bytes "a#b" 7 # note "quoted" 9\nnext: .bytes 1 # "\n')
    assert p.blobs["msg"].data == b"a#b\x07"
    assert p.blobs["next"].data == b"\x01"


def test_certify_of_a_hash_inside_a_string_exits_zero(tmp_path, capsys):
    path = tmp_path / "hash.s"
    path.write_text(_HASH_IN_STRING)
    assert main(["certify", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("\nverdict: SAFE\n")
    assert captured.err == ""


def test_pragmas_parse():
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\nmain:\nnop\n")
    assert p.entry == "main"
    ann = p.assumes["main"]
    assert ann.star == SP
    assert ann.reg(RA) == uncalc(0)


def _assume(bindings: str) -> str:
    return f"#@ entry main\n#@ assume main{bindings}\nmain:\n  jr ra\n"


def _code(line: str) -> str:
    return f"#@ entry main\nmain:\n  {line}\n  jr ra\nmsg:\n  .bytes 1\n"


def _data(body: str) -> str:
    return f"#@ entry main\nmain:\n  jr ra\nmsg:\n  .bytes {body}\n"


# every input error names its line, pragmas first, then operands and data
@pytest.mark.parametrize("source, message", [
    ("#@ entry main\nmain:\n  nop\n#@ entry main\n",
     "line 4: second entry pragma; the entry is 'main'"),
    ("#@ assume main: ra=u^0\nmain:\n  nop\n#@ assume main: ra=c^[0]\n",
     "line 4: second assume pragma for 'main'"),
    ("main:\n  jr ra\n#@ entry msg\nmsg:\n  .bytes 1 2\n",
     "line 3: entry label 'msg' does not mark an instruction"),
    (_assume(": sp*=c^[0]!{,4}"), "line 2: malformed annotated type 'c^[0]!{,4}'"),
    (_assume(": sp*=c^[0]!{4,}"), "line 2: malformed annotated type 'c^[0]!{4,}'"),
    (_assume(": sp*c^[0]"), "line 2: malformed binding 'sp*c^[0]'"),
    (_assume(": xx=c^[0]"), "line 2: unknown register 'xx'"),
    (_assume(" sp*=c^[0]"), "line 2: expected '#@ assume LABEL: bindings'"),
    (_assume(": a0=c^rep(0)"), "line 2: repeating step must be >= 1"),
    (_assume(": sp*=u^4"), "line 2: starred register must hold a finite stack type, got u^4"),
    (_assume(": sp*=c^[8]!{0}, (4)=c^[0]"), "line 2: slot (4) bound outside written offsets {0}"),
    (_assume(": (0)=c^[0]"), "line 2: slot bindings require a starred register"),
    (_code("j 0x100000000"), "line 3: address 0x100000000 exceeds 32 bits"),
    (_code("j 1abc"), "line 3: malformed label reference '1abc'"),
    (_data('"ab\\'), "line 5: dangling escape in string"),
    (_data('"a\\qb"'), "line 5: unknown escape \\q"),
    (_data("1 2 step=0"), "line 5: step must be >= 1"),
    (_data('"a\u20ac"'), "line 5: character '\u20ac' is not a byte"),
    (_data('"\U0001f600"'), "line 5: character '\U0001f600' is not a byte"),
    (_data('"\u0100"'), "line 5: character '\u0100' is not a byte"),
    # a pragma keyword and the .bytes directive are whole words
    ("#@ entryX main\nmain:\n  jr ra\n", "line 1: unknown pragma 'entryX'"),
    ("#@ assumed main: ra=u^0\nmain:\n  jr ra\n", "line 1: unknown pragma 'assumed'"),
    ("main:\n  jr ra\nmsg: .bytesfoo 1\n", "line 3: unknown mnemonic '.bytesfoo'"),
])
def test_pragma_error_names_its_line(source, message):
    with pytest.raises(AsmSyntaxError) as e:
        parse_program(source)
    assert str(e.value) == message


def test_instruction_after_data_is_refused_at_its_line():
    # code runs on from BASE_ADDRESS, so an instruction past a blob would
    # sit at an address no instruction index reaches
    with pytest.raises(AsmSyntaxError) as e:
        parse_program("#@ entry main\nmsg: .bytes 1 2\nmain: li v0 7\n  jr ra\n")
    assert str(e.value) == "line 3: instruction after the data of line 2; code comes first"
    p = parse_program("main:\n  jr ra\nmsg:\n  .bytes 1 2\nend:\n")
    assert p.labels["end"] == p.labels["msg"] + 4


# a blob past the 32-bit address space would lie at an address no
# register holds: b at 0x100400010 reads as a's address 0x00400010
_PAST_32_BITS = ("#@ entry main\nmain:\n  li t0 a\n  li t1 b\n  lw t2 0(t1)\n  jr ra\n"
                 "a: .bytes 1 2 3 4 size=4294967296\nb: .bytes 5 6 7 8\n")


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_data_past_32_bits_is_refused_at_its_line(command, tmp_path, capsys):
    with pytest.raises(AsmSyntaxError) as e:
        parse_program(_PAST_32_BITS)
    assert str(e.value) == ("line 7: address 0x10040000f of data blob 'a' reaches the stack "
                            "at 0x7ffff000")
    path = tmp_path / "past.s"
    path.write_text(_PAST_32_BITS)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 7: ")
    # a blob that ends at the initial stack pointer is still in range
    size = DEFAULT_STACK_BASE - 4 - (BASE_ADDRESS + 16)
    p = parse_program(_PAST_32_BITS.replace("size=4294967296", f"size={size}"))
    assert p.labels["b"] + p.blobs["b"].extent == DEFAULT_STACK_BASE


# the device window lies above the stack, so data laid over it reaches
# the stack first
_OVER_THE_DEVICE = ("#@ entry main\nmain:\n  li t1 b\n  lw t2 0(t1)\n  jr ra\n"
                    "a: .bytes 1 2 3 4 size=2948595700\nb: .bytes 5 6 7 8\n")


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_data_over_the_device_window_is_refused_at_its_line(command, tmp_path, capsys):
    path = tmp_path / "device.s"
    path.write_text(_OVER_THE_DEVICE)
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("parse error: line 6: address 0xafffffff of data blob 'a' reaches "
                       "the stack at 0x7ffff000\n")


# each form of an integer in the four places one appears: an immediate,
# an offset(base) offset, a jump target and a .bytes value or attribute;
# the value read, or None for a form that is refused
_INT_FORMS = [("16", 16), ("0x10", 16), ("0X1f", 31), ("0b11", 3), ("0B11", 3), ("0o7", 7),
              ("+5", 5), ("1_0", 10), ("00", 0),
              ("010", None), ("0x", None), ("0b2", None), ("1abc", None), ("1__0", None), ("-", None)]


@pytest.mark.parametrize("form, value", _INT_FORMS)
def test_an_integer_form_reads_alike_in_every_position(form, value):
    positions = [
        (_code(f"addiu t0 t0 {form}"), lambda p: p.instructions[0].imm,
         f"line 3: malformed integer {form!r}"),
        (_code(f"lw t0 {form}(sp)"), lambda p: p.instructions[0].imm,
         f"line 3: expected offset(base), got '{form}(sp)'"),
        (_code(f"j {form}"), lambda p: p.instructions[0].target,
         f"line 3: malformed label reference {form!r}"),
        (_data(form), lambda p: p.blobs["msg"].data[0], f"line 5: malformed integer {form!r}"),
        (_data(f"1 size={form}"), lambda p: p.blobs["msg"].size,
         f"line 5: malformed integer {form!r}"),
    ]
    for source, read, message in positions:
        if value is None:
            with pytest.raises(AsmSyntaxError) as e:
                parse_program(source)
            assert str(e.value) == message
        else:
            assert read(parse_program(source)) == value, source


def _literal(data: bytes) -> str:
    """``data`` as a string literal: a quote and a backslash escaped, a
    byte that would break the line as a \\x escape, any other as itself."""
    chars = []
    for b in data:
        ch = chr(b)
        if ch in '"\\':
            chars.append("\\" + ch)
        elif len(f"a{ch}b".splitlines()) > 1:
            chars.append(f"\\x{b:02x}")
        else:
            chars.append(ch)
    return '"' + "".join(chars) + '"'


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.binary(max_size=24))
def test_a_bytes_literal_reads_back_its_bytes(data):
    data = b'#"\\' + data + b'\\"#'
    p = parse_program(f'msg: .bytes {_literal(data)} 7 # comment "\n')
    assert p.blobs["msg"].data == data + b"\x07"


def test_bytes_without_a_label_is_refused_after_its_bytes_parse():
    with pytest.raises(AsmSyntaxError) as e:
        parse_program(".bytes 256\n")
    assert e.value.message == "byte value 256 out of range"
    with pytest.raises(AsmSyntaxError) as e:
        parse_program("nop\n.bytes 1\n")
    assert str(e.value) == "line 2: .bytes requires a preceding label"


_LABELS = ("main", "loop_2", "$end")
_REGS = st.integers(0, 31)
_IMMS = st.integers(IMM_MIN, IMM_MAX)
_FIELDS = {
    "rd": {"rd": _REGS}, "rs": {"rs": _REGS}, "rt": {"rt": _REGS},
    "imm": {"imm": _IMMS},
    "mem": {"imm": _IMMS, "rs": _REGS},
    "target": {"target": st.one_of(st.sampled_from(_LABELS), st.integers(0, 0xFFFFFFFF))},
}


def _instructions(op: str):
    fields = {}
    for f in FORMATS[op]:
        fields.update(_FIELDS[f])
    return st.builds(Instruction, st.just(op), **fields)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(i=st.sampled_from(sorted(FORMATS)).flatmap(_instructions))
def test_printed_instruction_parses_back(i):
    labels = "".join(f"{name}:\n  nop\n" for name in _LABELS)
    assert parse_program(f"{labels}  {i}\n").instructions[-1] == i


# -- annotation grammar ---------------------------------------------------------

def test_tower_serialization():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0, offs=[16, 24, 28])})
    assert serialize_annotation(a) == "sp*=c^[32,0]!{16,24,28}"


def test_u0_serialization():
    a = Annotation.make(regs={RA: uncalc(0)})
    assert serialize_annotation(a) == "ra=u^0"


def test_repeating_tower_serialization():
    a = Annotation.make(regs={REG_INDEX["a0"]: rep(1, offs=[0])})
    assert serialize_annotation(a) == "a0=c^rep(1)!{0}"


def test_register_order_is_fixed_and_slots_ascend():
    a = Annotation.make(
        star=SP,
        regs={RA: uncalc(0), SP: calc(8, offs=[0, 4]), 0: calc(0)},
        slots={4: calc(0), 0: uncalc(0)},
    )
    assert serialize_annotation(a) == (
        "zero=c^[0], sp*=c^[8]!{0,4}, ra=u^0, (0)=u^0, (4)=c^[0]")


def test_parse_type_forms():
    assert parse_type("c^[32,0]!{16,24,28}") == calc(32, 0, offs=[16, 24, 28])
    assert parse_type("c^rep(4)") == rep(4)
    assert parse_type("u^8!{0}") == uncalc(8, offs=[0])
    assert parse_type("?x") == TypeVar("x")
    assert parse_type("c^[0]!?X") == Calc(Finite((0,)), SetVar("X"))


def test_bare_u_is_unparseable():
    with pytest.raises(ValueError):
        parse_type("u")
    with pytest.raises(ValueError):
        parse_type("c")


def test_two_stars_rejected():
    with pytest.raises(ValueError):
        parse_annotation("sp*=c^[0], gp*=c^[0]")


@pytest.mark.parametrize("text, message", [
    ("r8=c^[0], t0=u^0, sp*=c^[0], ra=u^0", "register t0 bound twice"),
    ("sp*=c^[0], sp=c^[0]", "register sp bound twice"),
    ("r29*=c^[0], sp*=c^[0]", "register sp bound twice"),
    ("sp*=c^[8]!{0}, (0)=u^0, (0)=c^[0]", "slot (0) bound twice"),
])
def test_a_location_bound_twice_is_refused(text, message):
    # a register counts once under all its names
    with pytest.raises(ValueError) as e:
        parse_annotation(text)
    assert str(e.value) == message


def _random_annotation(rng: random.Random) -> Annotation:
    regs, slots, star = {}, {}, None
    frame = rng.choice([0, 8, 16, 32])
    if rng.random() < 0.8:
        star = rng.choice([SP, GP])
        offs = sorted(rng.sample(range(0, max(frame - 3, 1), 4),
                                 k=rng.randrange(0, max(frame // 8, 1))))
        regs[star] = calc(frame, 0, offs=offs)
        for k in offs:
            if rng.random() < 0.7:
                slots[k] = rng.choice([calc(0), uncalc(0), TypeVar("x")])
    for name in rng.sample(["v0", "v1", "a0", "t0", "ra"], k=rng.randrange(0, 4)):
        r = REG_INDEX[name]
        if r == star:
            continue
        regs[r] = rng.choice([
            calc(0), uncalc(0), rep(rng.choice([1, 2, 4]), offs=[0]),
            uncalc(8, offs=[0, 4]), TypeVar(rng.choice("xyz")),
            Calc(Finite((8,)), SetVar("X")),
        ])
    return Annotation.make(star=star, regs=regs, slots=slots)


def test_round_trip_on_random_annotations():
    rng = random.Random(42)
    for _ in range(300):
        a = _random_annotation(rng)
        assert parse_annotation(serialize_annotation(a)) == a


def test_round_trip_on_certified_corpus(hello_report):
    for cert in hello_report.theory.routines.values():
        for row in cert.rows.values():
            for ann in (row.pre, row.post):
                assert parse_annotation(serialize_annotation(ann)) == ann
