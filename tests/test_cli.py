from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aliascert.cli import main

from conftest import corpus_path


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
    code = main(["run", str(corpus_path("hello.s")), "--mode", "clean"])
    assert code == 0
    assert "b'Hi'" in capsys.readouterr().out


def test_run_alias_clean_program(capsys):
    code = main(["run", str(corpus_path("hello.s")), "--mode", "alias", "--seed", "7"])
    assert code == 0
    assert "b'Hi'" in capsys.readouterr().out


def test_run_alias_bad_program_faults(capsys):
    code = main(["run", str(corpus_path("foo_bad_caller.s")),
                 "--mode", "alias", "--seed", "7"])
    assert code == 1
    assert "AliasFault" in capsys.readouterr().out


def test_diff_exit_codes(capsys):
    assert main(["diff", str(corpus_path("hello.s")), "--seeds", "10"]) == 0
    assert "divergences: 0/10" in capsys.readouterr().out
    assert main(["diff", str(corpus_path("foo_bad_caller.s")), "--seeds", "10"]) == 1
    assert "divergences: 10/10" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "diff"])
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


def test_custom_device_addresses(capsys, tmp_path):
    src = tmp_path / "dev.s"
    src.write_text(
        "#@ entry main\n#@ assume main: ra=u^0\n"
        "main:\n  li v1 0xc0000020\n  sb zero 0(v1)\n  jr ra\n")
    code = main(["run", str(src), "--mode", "clean",
                 "--device-base", "0xc0000000", "--halt-offset", "0x20"])
    assert code == 0
    assert "halt-device" in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["certify", "run", "diff"])
def test_load_errors_exit_two_in_every_command(command, tmp_path, capsys):
    assert main([command, str(tmp_path / "missing.s")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    bad = tmp_path / "bad.s"
    for source in ("lwz r1 0(sp)\n",
                   "    ,\n",                    # no mnemonic
                   'msg: .bytes "\\xZZ"\n',     # escape without hex digits
                   'msg: .bytes "ab\\x"\n',     # escape cut off by the quote
                   "msg: .bytes 1 2 size=-4\n"):  # negative extent
        bad.write_text(source)
        assert main([command, str(bad)]) == 2, source
        assert capsys.readouterr().err.startswith("parse error: line 1"), source


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
