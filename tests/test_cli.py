from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from aliascert import _engine, certify_program, cli, parse_program
from aliascert.isa import FORMATS
from aliascert.cli import main

from conftest import CORPUS, corpus_path
from genprogs import generate_source, mutate_source


def test_certify_safe_exit_zero(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["certify", str(corpus_path("hello.s")), "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict: SAFE" in text
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "SAFE"
    assert rep["schema"] == "aliascert-report/1"


def test_report_row_for_the_frame_pointer_store(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["certify", str(corpus_path("hello.s")), "--json", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    main_routine = next(r for r in rep["routines"] if r["label"] == "main")
    row = next(r for r in main_routine["rows"] if r["machine"] == "sw gp 16(sp)")
    assert row["stack"] == "put gp 16"
    assert "sp*=c^[32,0]!{16,24,28}" in row["post"]
    assert "(16)=c^[0]" in row["post"]


def test_human_table_and_json_agree(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["certify", str(corpus_path("hello.s")), "--json", str(out)])
    text = capsys.readouterr().out
    rep = json.loads(out.read_text())
    for routine in rep["routines"]:
        assert routine["entry"] in text
        for row in routine["rows"]:
            assert row["machine"] in text
            assert row["stack"] in text
            assert row["post"] in text
    for f in rep["failures"]:
        assert f["kind"] in text


def test_certify_unsafe_exit_one(capsys):
    code = main(["certify", str(corpus_path("foo_bad.s"))])
    assert code == 1
    text = capsys.readouterr().out
    assert "verdict: UNSAFE" in text
    assert "NoDisassembly" in text and "addiu sp sp 32" in text


def test_call_without_a_stack_pointer_exits_one(tmp_path, capsys):
    src = tmp_path / "nosp.s"
    src.write_text("#@ entry main\n#@ assume main: ra=u^0\n"
                   "main:\n  move gp ra\n  jal f\n  move ra gp\n  jr ra\n"
                   "f:\n  jr ra\n")
    assert main(["certify", str(src)]) == 1
    captured = capsys.readouterr()
    assert "verdict: UNSAFE" in captured.out
    assert "NoDisassembly at 0x00400004 [jal f]" in captured.out
    assert captured.err == ""


def test_missing_file_exit_two(capsys):
    assert main(["certify", "does_not_exist.s"]) == 2


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("lwz r1 0(sp)\n")
    assert main(["certify", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_run_clean_prints_output(capsys):
    code = main(["run", str(corpus_path("hello.s"))])
    assert code == 0
    assert "b'Hi'" in capsys.readouterr().out


def test_run_alias_clean_program(capsys):
    code = main(["run", str(corpus_path("hello.s")), "--seed", "7"])
    assert code == 0
    assert "b'Hi'" in capsys.readouterr().out


def test_run_alias_bad_program_faults(capsys):
    code = main(["run", str(corpus_path("foo_bad_caller.s")), "--seed", "7"])
    assert code == 1
    assert "AliasFault" in capsys.readouterr().out


def test_run_takes_no_mode(capsys):
    # the seed alone picks the machine
    with pytest.raises(SystemExit) as e:
        main(["run", str(corpus_path("hello.s")), "--mode", "alias"])
    assert e.value.code == 2
    assert "unrecognized arguments: --mode alias" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--seed", "0"], "seed must be at least 1, got 0",
                 id="argv2-seed must be at least 1, got 0"),
    pytest.param(["--seed", "-3"], "seed must be at least 1, got -3",
                 id="argv3-seed must be at least 1, got -3"),
])
def test_run_seed_needs_alias_mode_and_is_positive(argv, message, capsys):
    assert main(["run", str(corpus_path("hello.s")), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_diff_exit_codes(capsys):
    assert main(["diff", str(corpus_path("hello.s")), "--seeds", "10"]) == 0
    assert "divergences: 0/10" in capsys.readouterr().out
    assert main(["diff", str(corpus_path("foo_bad_caller.s")), "--seeds", "10"]) == 1
    assert "divergences: 10/10" in capsys.readouterr().out
    # nothing to compare against when the clean run fails
    assert main(["diff", str(corpus_path("hello.s")), "--fuel", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: clean run fails (FuelExhausted")


def test_diff_says_how_its_seeds_were_settled(monkeypatch, capsys):
    # hello.s reads only what each load's own calculation wrote; the reload
    # of ra in foo_bad_caller.s reads a word another calculation wrote
    assert main(["diff", str(corpus_path("hello.s")), "--seeds", "10"]) == 0
    assert "\nseeds settled by one run\n" in capsys.readouterr().out
    assert main(["diff", str(corpus_path("foo_bad_caller.s")), "--seeds", "10"]) == 1
    assert "\nseeds settled by a check over 1 word\n" in capsys.readouterr().out
    # 3-bit tags make some seeds merge the two calculations of ra's slot
    monkeypatch.setattr(_engine, "TAG_MASK", 7)
    assert main(["diff", str(corpus_path("foo_bad_caller.s")), "--seeds", "40"]) == 1
    out = capsys.readouterr().out
    line = re.search(r"^seeds settled by a check over 1 word and (\d+) seeded runs$", out, re.M)
    diverged = int(re.search(r"^divergences: (\d+)/40$", out, re.M).group(1))
    assert line and 0 < int(line.group(1)) == 40 - diverged


def test_diff_says_where_its_clean_run_came_from(capsys):
    # foo_bad_caller.s resumes the clean machine before its reload of ra,
    # after 8 steps; hello.s's symbolic run stands for its clean run
    assert main(["diff", str(corpus_path("foo_bad_caller.s")), "--seeds", "10"]) == 1
    out = capsys.readouterr().out
    assert "\nclean run: 11 steps, resumed at step 8\nseeds settled by" in out
    assert main(["diff", str(corpus_path("hello.s")), "--seeds", "10"]) == 0
    assert "clean run:" not in capsys.readouterr().out


def test_diff_reports_an_output_divergence(tmp_path, capsys):
    # the reload through sp reads 'A' on every seed, where the clean run
    # reads the 'B' stored through sp + 0, and prints it: no fault, no
    # error, only the output differs
    src = tmp_path / "print_reload.s"
    src.write_text("#@ entry main\nmain:\n  li t0 65\n  sw t0 0(sp)\n  addiu t1 sp 0\n"
                   "  li t0 66\n  sw t0 0(t1)\n  lw v0 0(sp)\n  li t2 0xB0000000\n"
                   "  sb v0 0(t2)\n  jr ra\n")
    assert main(["diff", str(src), "--seeds", "3"]) == 1
    out = capsys.readouterr().out
    assert "clean output: b'B'\ndivergences: 3/3\n" + "".join(
        f"  seed {s}: output b'A' vs clean b'B'\n" for s in (1, 2, 3)) in out


def _certify_clean(path, capsys) -> None:
    assert main(["certify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: SAFE" in out
    assert "\ntrace oracle: ok\n" in out
    assert "safety re-check (small-structs): ok\n" in out


def test_push_onto_a_stack_with_an_open_offset_set_is_safe(tmp_path, capsys):
    # a frame shift folds through the hypothesis's offset-set variable X:
    # the pushed frame starts with no offsets written, whatever X is
    src = tmp_path / "push.s"
    src.write_text("#@ entry main\n#@ assume main: sp*=c^[0]!?X, ra=u^0\n"
                   "main:\n  addiu sp sp -8\n  jr ra\n")
    _certify_clean(src, capsys)


def test_string_steps_with_an_open_offset_set_are_safe(tmp_path, capsys):
    # a string step keeps the written pattern, here the variable X
    src = tmp_path / "steps.s"
    src.write_text("#@ entry main\n#@ assume main: t0=c^rep(4)!?X, ra=u^0\n"
                   "main:\n  addiu t0 t0 4\n  addiu t0 t0 4\n  jr ra\n")
    _certify_clean(src, capsys)


def test_restoring_the_stack_pointer_from_a_copy_with_an_open_offset_set_is_safe(
        tmp_path, capsys):
    # rspf pops the current frame and installs the saved copy as it is, so
    # the copy's written set may stay the variable W
    src = tmp_path / "rspf.s"
    src.write_text("#@ entry main\n#@ assume main: sp*=c^[8,0]!{0,4}, gp=c^[0]!?W, ra=u^0\n"
                   "main:\n  move sp gp\n  jr ra\n")
    _certify_clean(src, capsys)
    assert main(["diff", str(src), "--seeds", "10"]) == 0
    assert "divergences: 0/10\n" in capsys.readouterr().out


# hypotheses that leave a type (?x) or an offset set (!?X) open on stack,
# string and array pointers, one binding or none drawn per register
_OPEN_BINDINGS = (("sp*=c^[0]!?X", "sp*=c^[8,0]!?X", "sp*=c^[8,0]!{0,4}", "sp*=c^[0]"),
                  ("t0=c^rep(4)!?Y", "t0=c^rep(1)!?Y", "t0=u^8!?Y", "t0=?x", "t0=c^[0]", ""),
                  ("t1=u^8!{0,4}", "t1=c^rep(4)!?Z", "t1=?y", ""),
                  ("gp=c^[8,0]!?W", "gp=c^[0]", "gp=?z", ""))
_OPEN_REGS = ("t0", "t1", "sp", "gp")
# weighted towards the instructions most often certified
_OPEN_OPS = ("addiu", "addiu", "addiu", "lw", "sw", "lb", "sb", "move", "move", "li", "jal", "nop")


def _open_instruction(rng: random.Random) -> str:
    a = rng.choice(_OPEN_REGS)
    b = rng.choice((a, rng.choice(_OPEN_REGS)))  # one register at least half the time
    op = rng.choice(_OPEN_OPS)
    if op == "addiu":
        return f"addiu {a} {b} {rng.choice((-8, -4, 4, 8))}"
    if op in ("lw", "sw", "lb", "sb"):
        return f"{op} {a} {rng.choice((0, 4))}({b})"
    return {"move": f"move {a} {b}", "li": f"li {a} msg", "jal": "jal f", "nop": "nop"}[op]


def _open_hypothesis_source(rng: random.Random) -> str:
    hypothesis = ", ".join(b for b in (rng.choice(c) for c in _OPEN_BINDINGS) if b)
    body = "".join(f"  {_open_instruction(rng)}\n" for _ in range(rng.randint(1, 4)))
    return (f"#@ entry main\n#@ assume main: {hypothesis}, ra=u^0\nmain:\n{body}  jr ra\n"
            f"f:\n  jr ra\nmsg:\n  .bytes \"abcdefgh\"\n")


def test_no_open_hypothesis_ends_in_an_internal_error(tmp_path, capsys):
    # one to four instructions under hypotheses with ?x and !?X: a verdict,
    # never an internal error, and SAFE only with a clean oracle and re-check
    path = tmp_path / "open.s"
    safe = 0
    for seed in range(400):
        source = _open_hypothesis_source(random.Random(seed))
        path.write_text(source)
        code = main(["certify", str(path)])
        out = capsys.readouterr().out
        assert code in (0, 1), source
        if "verdict: SAFE" in out:
            assert code == 0, source
            safe += 1
    assert safe >= 40  # the draw certifies a share of its programs, not none


_HELLO = corpus_path("hello.s").read_text()


def _entered_at(label: str) -> str:
    """hello.s with its entry pragma naming ``label``."""
    assert _HELLO.count("#@ entry main\n") == 1
    return _HELLO.replace("#@ entry main\n", f"#@ entry {label}\n")


@pytest.mark.parametrize("label", ["main", "halt", "printstr"])
@pytest.mark.parametrize("argv", [["certify"], ["certify", "--json", "report.json"], ["run"],
                                  ["run", "--seed", "3"], ["diff", "--seeds", "10"]],
                         ids=" ".join)
def test_entry_option_acts_as_the_entry_pragma(argv, label, tmp_path, monkeypatch, capsys):
    # --entry L prints what the source prints with its pragma naming L; each
    # side runs in a directory of its own on a file of the same name, so
    # that the report's file name agrees
    seen = []
    for side, source, entry in (("option", _HELLO, ["--entry", label]),
                                ("pragma", _entered_at(label), [])):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        (tmp_path / side / "hello.s").write_text(source)
        code = main([argv[0], "hello.s", *argv[1:], *entry])
        report = (tmp_path / side / "report.json").read_text() if "--json" in argv else None
        seen.append((code, capsys.readouterr(), report))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("label", ["main", "halt", "printstr"])
def test_a_program_given_another_entry_certifies_as_its_rewritten_source(label, hello):
    assert (certify_program(dataclasses.replace(hello, entry=label))
            == certify_program(parse_program(_entered_at(label))))


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_unknown_entry_exits_two(command, capsys):
    assert main([command, str(corpus_path("hello.s")), "--entry", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: entry label 'nosuch' is not defined\n"


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_diff_without_seeds_exits_two(seeds, capsys):
    assert main(["diff", str(corpus_path("hello.s")), "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seeds must be at least 1, got {seeds}\n"
    assert "divergences" not in captured.out


@pytest.mark.parametrize("command", ["run", "diff"])
@pytest.mark.parametrize("fuel", ["0", "-5"])
def test_fuel_below_one_exits_two(command, fuel, capsys):
    assert main([command, str(corpus_path("hello.s")), "--fuel", fuel]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: fuel must be at least 1, got {fuel}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
@pytest.mark.parametrize("flag, value", [("--device-base", "0xdead"),
                                         ("--halt-offset", "0x20")])
def test_every_command_rejects_the_device_options(command, flag, value, capsys):
    # the device region is fixed by the machine, so no command takes it
    with pytest.raises(SystemExit) as e:
        main([command, str(corpus_path("hello.s")), flag, value])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_internal_error_is_one_line_with_its_own_exit_code(monkeypatch, capsys):
    import aliascert.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("search state corrupted")

    monkeypatch.setattr(cli, "certify_program", broken)
    code = main(["certify", str(corpus_path("hello.s"))])
    assert code == cli.EXIT_INTERNAL == 3
    assert code not in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE)
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: search state corrupted\n"
    assert "Traceback" not in captured.out


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises.  Its file
    descriptor is ``fd``, or none when ``fd`` is None."""

    def __init__(self, fd: int | None):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        if self._fd is None:
            raise io.UnsupportedOperation("fileno")
        return self._fd


@pytest.mark.parametrize("argv", [["certify"], ["run"], ["run", "--seed", "3"],
                                  ["diff", "--seeds", "3"]])
def test_a_closed_stdout_exits_two_and_prints_nothing(argv, tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main([argv[0], str(corpus_path("hello.s")), *argv[1:]]) == cli.EXIT_USAGE
        # the descriptor now writes to devnull, so the flush at exit prints nothing
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    # a stdout with no descriptor is left as it is
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(None))
    assert main([argv[0], str(corpus_path("hello.s")), *argv[1:]]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_load_errors_exit_two_in_every_command(command, tmp_path, capsys):
    assert main([command, str(tmp_path / "missing.s")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    bad = tmp_path / "bad.s"
    for source in ("lwz r1 0(sp)\n",
                   "    ,\n",                    # no mnemonic
                   'msg: .bytes "\\xZZ"\n',     # escape without hex digits
                   'msg: .bytes "ab\\x"\n',     # escape cut off by the quote
                   "msg: .bytes 1 2 size=-4\n",  # negative extent
                   'msg: .bytes "\u20ac"\n'):     # a character above U+00FF
        bad.write_text(source, encoding="utf-8")
        assert main([command, str(bad)]) == 2, source
        assert capsys.readouterr().err.startswith("parse error: line 1"), source


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.s")))
def test_json_report_is_the_report_dumped_with_indent_2(name, tmp_path, capsys, monkeypatch):
    reports = []
    build = cli.build_report

    def kept(*args):
        reports.append(build(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "build_report", kept)
    out = tmp_path / "report.json"
    main(["certify", str(corpus_path(name)), "--json", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == json.dumps(reports[0], indent=2).encode()


@pytest.mark.parametrize("path", ["nosuch/out.json", "."], ids=["missing-directory", "directory"])
def test_unwritable_json_path_exits_two(path, tmp_path, capsys):
    assert main(["certify", str(corpus_path("hello.s")), "--json", str(tmp_path / path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(tmp_path) in err, err


# test_unknown_entry_exits_two covers an undefined label; ``end`` labels
# the address past the data, which follows the code
_CODE_AND_DATA = "main:\n  jr ra\nmsg:\n  .bytes 1 2\nend:\n"
_NO_INSTRUCTION = "entry label '{}' does not mark an instruction"


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
@pytest.mark.parametrize("source, argv, err", [
    (_CODE_AND_DATA, [], "error: program has no entry pragma and no entry was given"),
    (_CODE_AND_DATA, ["--entry", ""], "error: entry label '' is not defined"),
    (_CODE_AND_DATA, ["--entry", "msg"], "error: " + _NO_INSTRUCTION.format("msg")),
    (_CODE_AND_DATA, ["--entry", "end"], "error: " + _NO_INSTRUCTION.format("end")),
    ("#@ entry msg\n" + _CODE_AND_DATA, [],
     "parse error: line 1: " + _NO_INSTRUCTION.format("msg")),
    ("#@ entry end\n" + _CODE_AND_DATA, [],
     "parse error: line 1: " + _NO_INSTRUCTION.format("end")),
], ids=["no-entry", "empty", "data", "past-the-code", "pragma-data", "pragma-past-the-code"])
def test_every_entry_problem_exits_two(command, source, argv, err, tmp_path, capsys):
    src = tmp_path / "p.s"
    src.write_text(source)
    assert main([command, str(src), *argv]) == 2
    assert capsys.readouterr() == ("", err + "\n")


def test_pragma_error_names_the_pragma_line(tmp_path, capsys):
    src = tmp_path / "p.s"
    src.write_text("#@ entry nosuch\nmain:\n  jr ra\n")
    assert main(["certify", str(src)]) == 2
    assert capsys.readouterr().err == \
        "parse error: line 1: pragma refers to unknown label 'nosuch'\n"


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_a_hypothesis_binding_a_register_twice_exits_two(command, tmp_path, capsys):
    src = tmp_path / "p.s"
    src.write_text("#@ entry main\n#@ assume main: r8=c^[0], t0=u^0, sp*=c^[0], ra=u^0\n"
                   "main:\n  jr ra\n")
    assert main([command, str(src)]) == 2
    assert capsys.readouterr() == ("", "parse error: line 2: register t0 bound twice\n")


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_code_after_data_exits_two(command, tmp_path, capsys):
    src = tmp_path / "p.s"
    src.write_text("#@ entry main\nmsg: .bytes 1 2\nmain: li v0 7\n  jr ra\n")
    assert main([command, str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 3: ")


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_source_not_utf8_exits_two(command, tmp_path, capsys):
    src = tmp_path / "p.s"
    src.write_bytes(b"\xff\xfe\x00")
    assert main([command, str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {src}: 'utf-8' codec can't decode byte 0xff "
                            "in position 0: invalid start byte\n")


# small alphabets of the dialect's own pieces, well and badly formed
_MNEMONICS = ("nop", "li", "lw", "sw", "lb", "sb", "move", "addiu", "addu", "nand",
              "beq", "bnez", "j", "jal", "jr", "lwz")
_OPERANDS = ("sp", "ra", "t0", "zero", "r31", "r32", "main", "msg", "<main>",
             "0", "4", "-4", "0x10", "70000", "0(sp)", "4(t0)", "x(sp)", "(", ")", ",")
_DATA = ("1", "255", "256", '"ab"', '"\\x41"', '"\\xZZ"', '"ab\\x"', '"\\q"', '"\\n"',
         '"open', "step=2", "step=0", "size=4", "size=-4", "size=x", "noinit", "tag=1", ",")
_PRAGMAS = ("#@ entry main", "#@ entry", "#@ entry nowhere", "#@ assume main: sp*=c^[0], ra=u^0",
            "#@ assume main: ra=u^0", "#@ assume main sp", "#@ assume main: sp=c^[", "#@ bogus")
_PUNCTUATION = (",", "(", ")", ":", "\\", "# note")


def _words(heads, pool, most):
    return st.builds(lambda head, rest: " ".join((head, *rest)),
                     st.sampled_from(heads), st.lists(st.sampled_from(pool), max_size=most))


_lines = st.tuples(
    st.sampled_from(("", "main: ", "msg: ", "f:")),
    st.one_of(_words(_MNEMONICS, _OPERANDS, 3), _words((".bytes",), _DATA, 4),
              st.sampled_from(_PRAGMAS), _words(_PUNCTUATION, _PUNCTUATION, 2)),
).map("".join)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(source=st.lists(_lines, min_size=1, max_size=8).map("\n".join))
def test_no_source_text_ends_in_an_internal_error(tmp_path, source):
    path = tmp_path / "fuzz.s"
    path.write_text(source + "\n")
    assert main(["certify", str(path)]) in (0, 1, 2), source


# programs drawn from the grammar the parser accepts: mnemonics and operand
# fields from isa.FORMATS, code and data labels that jumps and li name
# (rarely one that is not defined), entry and assume pragmas, blobs with
# their attributes after the code, and lines repeated
_G_REGS = ("zero", "sp", "ra", "gp", "t0", "t1", "a0", "v0")
_G_IMMS = ("-32", "-8", "-4", "0", "1", "4", "8", "28")
_G_TARGETS = ("main", "f", "loop") * 3 + ("msg", "buf") * 3 + ("0x00400000", "nosuch")
_G_BINDINGS = (("sp*=c^[0]", "sp*=c^[0]!?X", "sp*=c^[8,0]!{0,4}", "sp=c^[0]"),
               ("ra=u^0", "ra=?r"), ("gp=c^[0]", "gp=c^[0]!?W"), ("t0=c^[0]", "t0=?x"),
               ("a0=u^4!{0,1,2,3}", "a0=c^rep(1)!{0}"))


def _g_operand(field: str):
    if field == "mem":
        return st.builds("{}({})".format, st.sampled_from(_G_IMMS), st.sampled_from(_G_REGS))
    if field == "imm":
        return st.sampled_from(_G_IMMS)
    if field == "target":
        return st.sampled_from(_G_TARGETS)
    return st.sampled_from(_G_REGS)


_g_instruction = st.sampled_from(sorted(FORMATS)).flatmap(
    lambda op: st.tuples(*map(_g_operand, FORMATS[op])).map(lambda args: " ".join((op, *args))))


def _g_hypothesis(draw, label: str) -> str:
    bindings = [draw(st.sampled_from(group)) for group in _G_BINDINGS if draw(st.booleans())]
    return f"#@ assume {label}: {', '.join(bindings) or 'ra=u^0'}"


@st.composite
def _grammar_sources(draw) -> str:
    body: list[str] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 9))
        if body and kind < 3:
            body.append(draw(st.sampled_from(body)))  # a repeated line
        elif kind == 3:
            body.append(draw(st.sampled_from(("jal main", "jal f", "jal loop"))))
        else:
            body.append(draw(_g_instruction))
    if draw(st.integers(0, 3)):
        body.append("jr ra")
    labels = {0: ["main"]}
    for name in ("f", "loop"):
        labels.setdefault(draw(st.integers(0, len(body) - 1)), []).append(name)
    lines = [f"#@ entry {draw(st.sampled_from(('main',) * 25 + ('f', 'msg', 'nosuch')))}"]
    if draw(st.integers(0, 3)):
        lines.append(_g_hypothesis(draw, "main"))
    if draw(st.booleans()):
        lines.append(_g_hypothesis(draw, "f"))
    for i, line in enumerate(body):
        lines += [f"{name}:" for name in labels.get(i, ())] + [f"  {line}"]
    step = draw(st.sampled_from(("", " step=1", " step=2", " step=4")))
    size = draw(st.sampled_from(("", " size=1", " size=4", " size=8", " size=16")))
    noinit = draw(st.sampled_from(("", " noinit")))
    lines += ["msg:", f'  .bytes "abcdefg\\0"{step}{size}',
              "buf:", f"  .bytes 1 2 3 4{noinit}"]
    return "\n".join(lines) + "\n"


def test_no_grammar_source_ends_in_an_internal_error(tmp_path, monkeypatch, capsys):
    # every command ends in a verdict, a run's outcome or a usage error on
    # programs that mostly parse; most of them reach the search, and a
    # SAFE verdict comes with a clean oracle and re-check, and with no
    # divergence
    reached, verdicts, drawn = [], [], []
    monkeypatch.setattr(cli, "certify_program",
                        lambda *a, **k: reached.append(1) or certify_program(*a, **k))
    path, report = tmp_path / "g.s", tmp_path / "g.json"

    # an explicit seed, which Hypothesis prefers to ``derandomize``'s seed
    # from this function's text, so an edit of the body draws the same sources
    @seed(0)
    @settings(max_examples=300, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=_grammar_sources())
    def check(source):
        drawn.append(source)
        path.write_text(source)
        report.unlink(missing_ok=True)
        code = main(["certify", str(path), "--json", str(report)])
        assert code in (0, 1, 2), source
        if report.exists():
            verdict = json.loads(report.read_text())["verdict"]
            verdicts.append(verdict)
            assert code == (0 if verdict == "SAFE" else 1), source
        for argv in (["run"], ["run", "--seed", "3"], ["diff", "--seeds", "3"]):
            run_code = main([argv[0], str(path), *argv[1:], "--fuel", "200"])
            assert run_code in (0, 1, 2), (argv, source)
            assert not (argv[0] == "diff" and code == 0 and run_code == 1), source
        capsys.readouterr()

    check()
    assert len(reached) >= 0.8 * len(drawn)
    assert {"SAFE", "UNSAFE", "UNSUPPORTED"} <= set(verdicts)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**6), size=st.sampled_from((12, 32, 64)))
def test_no_mutant_run_ends_in_an_internal_error(tmp_path, seed, size):
    # programs that parse, edited by one mutation: every interpreter command
    # ends in a run's outcome or a usage error, never in an internal error
    source = mutate_source(generate_source(seed, size), seed)
    path = tmp_path / "mutant.s"
    path.write_text(source)
    for argv in (["run"], ["run", "--seed", "3"], ["diff", "--seeds", "3"]):
        assert main([argv[0], str(path), *argv[1:], "--fuel", "2000"]) in (0, 1, 2), (argv, source)
