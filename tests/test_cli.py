import contextlib
import fcntl
import functools
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import PROGRAMS_DIR, child_env, program_paths
from paircheck import (
    ExplorationConfig, disjoint_pair, explore, iter_report, parse, render, render_report,
)
from paircheck.cli import _BLOCK, ExitStatus, _blocks, main
from paircheck.toylang import MAX_NESTING, ParseError
from test_analysis import RACY_24
from test_instrument import _benchmark_generator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def program(name: str) -> str:
    return str(PROGRAMS_DIR / name)


def _stdin(data: bytes, encoding: str = "utf-8") -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin``: text over a byte buffer."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding)


class TestCheck:
    def test_race_exit_code_and_six_outcomes_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, "check", program("ab12.toy"), "--no-prune", "--no-race-detect",
            "--format", "json",
        )
        assert code == ExitStatus.RACE
        doc = json.loads(out)
        assert [o["output"] for o in doc["outcomes"]] == [
            "ab12", "a1b2", "a12b", "1ab2", "1a2b", "12ab",
        ]
        assert doc["race_found"] is True

    def test_race_exit_code_with_detection(self, capsys):
        code, out, _ = run(capsys, "check", program("ab12.toy"))
        assert code == ExitStatus.RACE
        assert "verdict: race" in out

    def test_clean_program_single_outcome(self, capsys):
        code, out, _ = run(capsys, "check", program("disjoint3.toy"), "--format", "json")
        assert code == ExitStatus.CLEAN
        assert len(json.loads(out)["outcomes"]) == 1

    def test_deadlock_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", program("deadlock_double_up.toy"))
        assert code == ExitStatus.DEADLOCK
        assert "deadlocks: " in out

    def test_block_forever_exit_code(self, capsys):
        code, _, _ = run(capsys, "check", program("block_forever.toy"))
        assert code == ExitStatus.BLOCK_FOREVER

    def test_race_beats_deadlock_in_exit_code(self, tmp_path, capsys):
        src = "var x; semaphores 2;\n"
        src += "thread0 { x = 1; up(0); up(0); }\n"
        src += "thread1 { x = 2; up(1); up(1); }\n"
        path = tmp_path / "both.toy"
        path.write_text(src)
        code, out, _ = run(capsys, "check", str(path), "--format", "json")
        doc = json.loads(out)
        assert doc["races"] and doc["deadlocks"]
        assert code == ExitStatus.RACE

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.toy"
        path.write_text("thread0 { emit }")
        code, _, err = run(capsys, "check", str(path))
        assert code == ExitStatus.INPUT_ERROR
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.toy")
        assert code == ExitStatus.INPUT_ERROR
        assert "error" in err

    def test_digest_without_race_detection_rejected(self, capsys):
        code, _, err = run(
            capsys, "check", program("ab12.toy"), "--digest", "--no-race-detect"
        )
        assert code == ExitStatus.INPUT_ERROR
        assert "digest" in err

    def test_budget_exhaustion_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", program("commuting.toy"), "--max-steps", "1")
        assert code == ExitStatus.BUDGET_EXHAUSTED
        assert "incomplete" in out

    def test_digest_flag(self, capsys):
        code, out, _ = run(capsys, "check", program("assign_race.toy"), "--digest")
        assert code == ExitStatus.RACE
        assert "blake2b-128" in out

    def test_negative_max_steps_is_input_error(self, capsys):
        code, out, err = run(capsys, "check", program("ab12.toy"), "--max-steps", "-1")
        assert code == ExitStatus.INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config_is_reported_before_the_file_is_read(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.toy", "--max-steps", "-1")
        assert code == ExitStatus.INPUT_ERROR
        assert "max_total_steps" in err and "no-such-file" not in err

    @pytest.mark.parametrize("command", ["check", "instrument"])
    def test_non_utf8_source_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.toy"
        path.write_bytes('thread0 { emit "\xe9"; } thread1 { }'.encode("latin-1"))
        code, out, err = run(capsys, command, str(path))
        assert code == ExitStatus.INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: {path}: not valid UTF-8") and err.count("\n") == 1

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("paircheck.engine.explore", broken)
        code, out, err = run(capsys, "check", program("ab12.toy"))
        assert code == ExitStatus.INTERNAL_ERROR == 6
        assert out == ""
        assert err.startswith("internal error: RuntimeError: boom\n")

    def test_crlf_copy_gives_the_same_report(self, tmp_path, capsys):
        for path in program_paths():
            crlf = tmp_path / path.name
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            assert b"\r\n" in crlf.read_bytes()
            assert run(capsys, "check", str(crlf)) == run(capsys, "check", str(path))

    def test_byte_order_mark_copy_gives_the_same_report(self, tmp_path, capsys, monkeypatch):
        # Windows Notepad saves UTF-8 with a byte-order mark, which check skips
        bom = tmp_path / "ab12.toy"
        bom.write_bytes(b"\xef\xbb\xbf" + (PROGRAMS_DIR / "ab12.toy").read_bytes())
        want = run(capsys, "check", program("ab12.toy"))
        assert want[0] == ExitStatus.RACE
        assert run(capsys, "check", str(bom)) == want
        monkeypatch.setattr("sys.stdin", _stdin(bom.read_bytes()))
        assert run(capsys, "check", "-") == want
        # one mark only, and parse itself stays strict
        twice = tmp_path / "twice.toy"
        twice.write_bytes(b"\xef\xbb\xbf" + bom.read_bytes())
        code, out, err = run(capsys, "check", str(twice))
        assert (code, out) == (ExitStatus.INPUT_ERROR, "")
        assert err == f"error: {twice}:1:1: unexpected character '\\ufeff'\n"
        with pytest.raises(ParseError, match="^1:1: unexpected character"):
            parse(bom.read_text(encoding="utf-8"))

    def test_stdout_without_a_byte_layer(self, capsys):
        # in-process callers may redirect stdout to a text-only stream
        _, want, _ = run(capsys, "check", program("ab12.toy"))
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            code = main(["check", program("ab12.toy")])
        assert code == ExitStatus.RACE
        assert stream.getvalue() == want

    def test_in_process_determinism(self, capsys, bundled_programs):
        for name in bundled_programs:
            first = run(capsys, "check", program(name), "--format", "json")
            second = run(capsys, "check", program(name), "--format", "json")
            assert first == second


def nested_program(expr: str = "1", repeats: int = 0) -> str:
    body = f"x = {expr};"
    for _ in range(repeats):
        body = f"repeat 1 {{ {body} }}"
    return f"var x; thread0 {{ {body} }} thread1 {{ x = 2; }}"


class TestFormerCrashInputs:
    """Programs that once ended in a traceback and exit code 6."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ("var x; thread0 { x = ²; } thread1 { }", "1:22: unexpected character '²'"),
            ("var x; thread0 { x = 1²; } thread1 { }", "1:23: unexpected character '²'"),
            (
                "var x; thread0 { x = " + "7" * 5000 + "; } thread1 { }",
                "1:22: integer literal too long (5000 digits)",
            ),
            (
                "semaphores 99999999999999999999; thread0 { } thread1 { }",
                "1:1: semaphore count 99999999999999999999 over the limit of 1024",
            ),
            (
                "thread0 { repeat " + "9" * 4300 + ' { emit "a"; emit "b"; } } thread1 { }',
                "1:11: repeat unrolls to " + "9" * 4300 + " x 2 statements, over the limit of 1024",
            ),
        ],
        ids=[
            "superscript",
            "digit-superscript",
            "5000-digits",
            "semaphore-count",
            "4300-digit-repeat",
        ],
    )
    def test_input_error(self, tmp_path, capsys, source, message):
        path = tmp_path / "crash.toy"
        path.write_text(source, encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (ExitStatus.INPUT_ERROR, "", f"error: {path}:{message}\n")

    def test_repeat_of_an_empty_block_runs(self, tmp_path, capsys):
        path = tmp_path / "repeat.toy"
        path.write_text("thread0 { repeat 99999999999999999999 { } } thread1 { }")
        code, out, err = run(capsys, "check", str(path))
        assert code == ExitStatus.CLEAN and "verdict: no race detected" in out and err == ""


class TestDeepNesting:
    @pytest.mark.parametrize(
        "source",
        [
            nested_program("(" * 3000 + "1" + ")" * 3000),
            nested_program(repeats=2000),
            nested_program("+".join(["1"] * 3000)),
        ],
        ids=["parentheses", "repeat", "operator-chain"],
    )
    def test_too_deep_is_input_error(self, tmp_path, capsys, source):
        path = tmp_path / "deep.toy"
        path.write_text(source)
        code, out, err = run(capsys, "check", str(path))
        assert code == ExitStatus.INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ") and "nesting deeper than" in err
        assert "Traceback" not in err

    def test_program_at_the_bound_explores(self, tmp_path, capsys):
        # every bound reached at once: repeats around parentheses around a chain
        chain = "+".join(["x"] * (MAX_NESTING + 1))
        source = nested_program("(" * MAX_NESTING + chain + ")" * MAX_NESTING, MAX_NESTING)
        path = tmp_path / "deep.toy"
        path.write_text(source)
        for flags in ((), ("--digest",), ("--no-race-detect",)):
            code, out, err = run(capsys, "check", str(path), *flags)
            assert code == ExitStatus.RACE
            assert "verdict: race" in out and err == ""


class TestBench:
    def test_default_pruned_column(self, capsys):
        code, out, _ = run(capsys, "bench")
        assert code == ExitStatus.CLEAN
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "exhaustive", "pruned"]
        pruned = [int(line.split()[2]) for line in lines[1:]]
        assert pruned == [18, 32, 50, 72, 98, 128]

    def test_exhaustive_column_3_to_7(self, capsys):
        code, out, _ = run(capsys, "bench", "--min", "3", "--max", "7")
        assert code == ExitStatus.CLEAN
        exhaustive = [int(line.split()[1]) for line in out.strip().splitlines()[1:]]
        assert exhaustive == [30, 112, 420, 1584, 6006]

    def test_single_statement_row(self, capsys):
        code, out, _ = run(capsys, "bench", "--min", "1", "--max", "1")
        assert code == ExitStatus.CLEAN
        assert out.strip().splitlines()[1].split() == ["1", "2", "2"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--min", "3", "--max", "4", "--format", "json")
        assert code == ExitStatus.CLEAN
        assert json.loads(out) == [
            {"n": 3, "exhaustive": 30, "pruned": 18},
            {"n": 4, "exhaustive": 112, "pruned": 32},
        ]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "bench", "--min", "5", "--max", "3")
        assert code == ExitStatus.INPUT_ERROR
        assert "error" in err

    def test_budget_exhaustion(self, capsys):
        code, _, err = run(capsys, "bench", "--min", "8", "--max", "8", "--max-steps", "10")
        assert code == ExitStatus.BUDGET_EXHAUSTED
        assert "error" in err

    def test_over_budget_n_stops_before_it_builds_the_program(self, capsys):
        code, out, err = run(capsys, "bench", "--min", "1000000000", "--max", "1000000000")
        assert (code, out) == (ExitStatus.BUDGET_EXHAUSTED, "")
        assert err == "error: exhaustive run for n=1000000000 exceeded the step budget\n"


class TestInstrumentCommand:
    def test_instrument_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "f.c"
        path.write_text("void f() { a(); }\n")
        code, out, _ = run(capsys, "instrument", str(path))
        assert code == ExitStatus.CLEAN
        assert out == "void f() { hook(); a(); }\n"

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "f.c"
        src.write_text("void f() { a(); }\n")
        dst = tmp_path / "out.c"
        code, out, _ = run(capsys, "instrument", str(src), "-o", str(dst))
        assert code == ExitStatus.CLEAN
        assert out == ""
        assert dst.read_text() == "void f() { hook(); a(); }\n"

    def test_output_file_in_a_missing_directory(self, tmp_path, capsys):
        src = tmp_path / "f.c"
        src.write_text("void f() { a(); }\n")
        dst = tmp_path / "missing" / "out.c"
        code, out, err = run(capsys, "instrument", str(src), "-o", str(dst))
        assert (code, out) == (ExitStatus.INPUT_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(dst) in err

    def test_strip_round_trip(self, tmp_path, capsys):
        original = "void f() { a(); b(); }\n"
        path = tmp_path / "f.c"
        path.write_text(original)
        _, instrumented, _ = run(capsys, "instrument", str(path))
        path.write_text(instrumented)
        code, out, _ = run(capsys, "instrument", str(path), "--strip")
        assert code == ExitStatus.CLEAN
        assert out == original

    def test_byte_order_mark_round_trips(self, tmp_path, capsys):
        original = "\ufeffvoid f() { a(); b(); }\n".encode()
        src, hooked, back = tmp_path / "f.c", tmp_path / "hooked.c", tmp_path / "back.c"
        src.write_bytes(original)
        assert run(capsys, "instrument", str(src), "-o", str(hooked)) == (ExitStatus.CLEAN, "", "")
        assert hooked.read_bytes() == "\ufeffvoid f() { hook(); a(); hook(); b(); }\n".encode()
        code, _, _ = run(capsys, "instrument", "--strip", str(hooked), "-o", str(back))
        assert code == ExitStatus.CLEAN and back.read_bytes() == original

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b"void f() { a(); }\n"))
        code, out, _ = run(capsys, "instrument", "-")
        assert code == ExitStatus.CLEAN
        assert "hook(); a();" in out

    def test_custom_token_and_skip_redundant(self, tmp_path, capsys):
        path = tmp_path / "f.c"
        path.write_text("void f() { H(); a(); }\n")
        code, out, _ = run(
            capsys, "instrument", str(path), "--hook-token", "H();", "--skip-redundant"
        )
        assert code == ExitStatus.CLEAN
        assert out == "void f() { H(); a(); }\n"

    @pytest.mark.parametrize("token", ["", "{", "/*"])
    @pytest.mark.parametrize("mode", [(), ("--strip",)])
    def test_bad_hook_token_is_input_error(self, tmp_path, capsys, token, mode):
        path = tmp_path / "f.c"
        path.write_text("void f() { a(); }\n")
        code, out, err = run(capsys, "instrument", str(path), "--hook-token", token, *mode)
        assert code == ExitStatus.INPUT_ERROR
        assert out == ""
        assert err.startswith("error: hook token") and err.count("\n") == 1

    def test_unbalanced_braces_exit_code(self, tmp_path, capsys):
        path = tmp_path / "f.c"
        path.write_text("void f() {")
        code, out, err = run(capsys, "instrument", str(path))
        assert code == ExitStatus.INPUT_ERROR
        assert out == ""
        assert "error" in err

    def test_error_found_after_several_blocks_writes_nothing(self, tmp_path, capsys):
        # about 211 KiB of input, whose hooked output fills several 64 KiB
        # blocks before the scan reaches the unclosed brace at the end
        path, dst = tmp_path / "f.c", tmp_path / "out.c"
        path.write_text("void f() { a(); }\n" * 12_000 + "{")
        assert path.stat().st_size > 192 * 1024
        expected = (ExitStatus.INPUT_ERROR, "", f"error: {path}:12001:2: 1 unclosed '{{'\n")
        assert run(capsys, "instrument", str(path)) == expected
        assert run(capsys, "instrument", str(path), "-o", str(dst)) == expected
        assert not dst.exists()

    def test_memory_is_bounded_by_the_input(self, tmp_path):
        # the input, one copy of the output in blocks, and one block's pieces:
        # no list of every slice, joined output or whole-output encoding
        source, expected = _benchmark_generator().c_source(1, 512)
        src, hooked, out = tmp_path / "src.c", tmp_path / "hooked.c", tmp_path / "out.c"
        src.write_bytes(source.encode())
        hooked.write_bytes(expected.encode())
        main(["instrument", str(src), "-o", str(out)])  # warm-up: imports and patterns
        for argv, want in (
            (["instrument", str(src)], expected), (["instrument", "--strip", str(hooked)], source)
        ):
            tracemalloc.start()
            try:
                code = main([*argv, "-o", str(out)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == ExitStatus.CLEAN and out.read_bytes() == want.encode()
            assert peak <= 3.0 * Path(argv[-1]).stat().st_size

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "instrument", "missing.c")
        assert code == ExitStatus.INPUT_ERROR
        assert "error" in err

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_round_trip_byte_exact(self, tmp_path, capsys, monkeypatch, eol):
        original = "void f() {EOL  a(); /* x */EOL  b();EOL}EOL".replace("EOL", eol).encode()
        hooked_want = original.replace(b"  a();", b"  hook(); a();").replace(b"  b();", b"  hook(); b();")
        src, hooked, back = tmp_path / "f.c", tmp_path / "hooked.c", tmp_path / "back.c"
        src.write_bytes(original)

        code, out, _ = run(capsys, "instrument", str(src))
        assert code == ExitStatus.CLEAN and out.encode() == hooked_want
        code, out, _ = run(capsys, "instrument", str(src), "-o", str(hooked))
        assert code == ExitStatus.CLEAN and out == "" and hooked.read_bytes() == hooked_want
        code, out, _ = run(capsys, "instrument", "--strip", str(hooked), "-o", str(back))
        assert code == ExitStatus.CLEAN and back.read_bytes() == original
        monkeypatch.setattr("sys.stdin", _stdin(hooked_want))
        code, out, _ = run(capsys, "instrument", "--strip", "-")
        assert code == ExitStatus.CLEAN and out.encode() == original

    def test_stdin_is_read_as_utf8(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin("void f() { é(); }\n".encode(), encoding="latin-1"))
        code, out, _ = run(capsys, "instrument", "-")
        assert code == ExitStatus.CLEAN
        assert out == "void f() { hook(); é(); }\n"


def paircheck_process(argv, encoding="utf-8", unbuffered=None, **popen):
    """Start ``python -m paircheck`` with stdout in the given encoding.

    Stdout and stderr are pipes unless ``popen`` names other targets.  With
    ``unbuffered`` true or false, ``PYTHONUNBUFFERED`` is set or removed;
    with ``None`` the child inherits it.
    """
    env = child_env(PYTHONIOENCODING=encoding)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    elif unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    return subprocess.Popen([sys.executable, "-m", "paircheck", *argv], env=env, **popen)


def closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


class TestStdoutBytes:
    """The commands as child processes writing to a pipe."""

    @pytest.mark.parametrize("emitted", ["é", "\t"], ids=["e-acute", "tab"])
    @pytest.mark.parametrize("command", ["check-text", "check-json", "instrument"])
    def test_utf8_whatever_the_locale(self, tmp_path, command, emitted):
        program = tmp_path / "emit.toy"
        program.write_text(f'thread0 {{ emit "{emitted}"; }} thread1 {{ emit "x"; }}\n', "utf-8")
        source = tmp_path / "emit.c"
        source.write_text(f'void f() {{ puts("{emitted}"); }}\n', "utf-8")
        argv, want_code = {
            "check-text": (["check", "--format", "text", str(program)], ExitStatus.RACE),
            "check-json": (["check", "--format", "json", str(program)], ExitStatus.RACE),
            "instrument": (["instrument", str(source)], ExitStatus.CLEAN),
        }[command]
        runs = {}
        for encoding in ("utf-8", "ascii", "latin-1"):
            proc = paircheck_process(argv, encoding)
            out, err = proc.communicate(timeout=60)
            runs[encoding] = (proc.returncode, out, err)
        assert runs["utf-8"][0] == want_code and runs["utf-8"][2] == b""
        assert runs["ascii"] == runs["latin-1"] == runs["utf-8"]
        if command == "instrument":
            assert runs["utf-8"][1] == f'void f() {{ hook(); puts("{emitted}"); }}\n'.encode()

    @pytest.mark.parametrize(
        "command", ["check-text", "check-json", "instrument", "bench-text", "bench-json"]
    )
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, command):
        # each check and instrument output is a few hundred KB, several times
        # a pipe's buffer, so the writer is still writing when the reader goes
        program = tmp_path / "long.toy"
        program.write_text(
            'var x;\nthread0 { repeat 10 { x = x + 1; emit "a"; } }\n'
            'thread1 { repeat 10 { x = x * 2; emit "b"; } }\n'
        )
        source = tmp_path / "long.c"
        source.write_text("void f() { a(); b(); }\n" * 20_000)
        argv, want_code = {
            "check-text": (["check", str(program)], ExitStatus.RACE),
            "check-json": (["check", "--format", "json", str(program)], ExitStatus.RACE),
            "instrument": (["instrument", str(source)], ExitStatus.CLEAN),
            "bench-text": (["bench", "--max", "3"], ExitStatus.CLEAN),
            "bench-json": (["bench", "--max", "3", "--format", "json"], ExitStatus.CLEAN),
        }[command]
        if command.startswith("bench"):
            # a table of a few dozen bytes fits a pipe's buffer, so the
            # reader is gone before the child starts
            stdout = closed_pipe()
            proc = paircheck_process(argv, stdout=stdout)
            os.close(stdout)
        else:
            proc = paircheck_process(argv, bufsize=0)
            assert proc.stdout.read(20)  # a few bytes: the report has begun
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == want_code
        assert err == b""

    @pytest.mark.parametrize("command", ["parse-error", "digest-without-detection"])
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, command):
        # the error line is lost, but the exit code must not turn into 1 ("race")
        program = tmp_path / "bad.toy"
        program.write_text("thread0 { x = 1; } thread1 { }\n")
        argv = {
            "parse-error": ["check", str(program)],
            "digest-without-detection": [
                "check", "--digest", "--no-race-detect", str(PROGRAMS_DIR / "ab12.toy")
            ],
        }[command]
        stderr = closed_pipe()
        proc = paircheck_process(argv, stderr=stderr)
        os.close(stderr)
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (ExitStatus.INPUT_ERROR, b"")

    @pytest.mark.parametrize("command", ["check", "bench", "instrument"])
    def test_stdout_closed_at_start(self, tmp_path, command):
        # fd 1 closed before the child starts (``>&-``), so sys.stdout is None
        source = tmp_path / "f.c"
        source.write_text("void f() { a(); }\n")
        argv, want_code = {
            "check": (["check", str(PROGRAMS_DIR / "ab12.toy")], ExitStatus.RACE),
            "bench": (["bench", "--max", "3"], ExitStatus.CLEAN),
            "instrument": (["instrument", str(source)], ExitStatus.CLEAN),
        }[command]
        proc = paircheck_process(argv, stdout=None, preexec_fn=functools.partial(os.close, 1))
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (want_code, b"")

    @pytest.mark.parametrize("command", ["check", "instrument"])
    def test_stdin_closed_at_start(self, command):
        # fd 0 closed before the child starts (``<&-``), so sys.stdin is None
        proc = paircheck_process([command, "-"], preexec_fn=functools.partial(os.close, 0))
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (ExitStatus.INPUT_ERROR, b"")
        assert err == b"error: -: standard input is closed\n"

    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    @pytest.mark.parametrize("error", ["parse-error", "missing-file"])
    def test_unwritable_stderr_at_start(self, tmp_path, stderr, error):
        # closed: sys.stderr is None, and the error line must not go to stdout;
        # read-only (``2</dev/null``): writing it fails with EBADF
        program = tmp_path / "bad.toy"
        program.write_text("thread0 { x = 1; } thread1 { }\n")
        argv = ["check", str(program if error == "parse-error" else tmp_path / "missing.toy")]
        with open(os.devnull) as read_only:
            popen = {
                "closed": {"stderr": None, "preexec_fn": functools.partial(os.close, 2)},
                "read-only": {"stderr": read_only},
            }[stderr]
            proc = paircheck_process(argv, **popen)
            out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (ExitStatus.INPUT_ERROR, b"")


BUFFERING = pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])


class ShortWriter(io.RawIOBase):
    """A raw stdout that takes at most ``limit`` bytes a call, and none once it holds ``full``.

    Taking none, it returns ``None``, as a non-blocking raw stream does.
    """

    def __init__(self, limit: int, full: int | None = None, fd: int | None = None):
        super().__init__()
        self.limit, self.full, self.fd = limit, full, fd
        self.data = bytearray()
        self.calls = 0

    def writable(self) -> bool:
        return True

    def fileno(self) -> int:
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd

    def write(self, data) -> int | None:
        self.calls += 1
        if self.full is not None and len(self.data) >= self.full:
            return None
        taken = bytes(data[: self.limit])
        self.data += taken
        return len(taken)


class TestBlockWriter:
    """Stdout is written in blocks of whole chunks, all of each block however short the writes."""

    @staticmethod
    def expected(source: str, fmt: str, digest: bool = False) -> bytes:
        report = explore(parse(source), ExplorationConfig(digest_mode=digest))
        return render_report(report, fmt).encode()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_blocks_are_whole_chunks_of_at_least_64_kib(self, fmt):
        chunks = list(iter_report(explore(parse(RACY_24)), fmt))
        blocks = list(_blocks(chunks))
        assert "".join(blocks) == "".join(chunks)
        assert len(blocks) > 2
        assert all(len(block) >= _BLOCK for block in blocks[:-1])
        chunk_ends = set(itertools.accumulate(map(len, chunks)))
        assert set(itertools.accumulate(map(len, blocks))) <= chunk_ends

    def test_blocks_of_one_character_chunks_are_exactly_64_kib(self):
        blocks = [len(block) for block in _blocks(["x"] * (3 * _BLOCK + 5))]
        assert blocks == [_BLOCK, _BLOCK, _BLOCK, 5]

    def test_one_block_for_a_short_report(self):
        chunks = list(iter_report(explore(parse(RACY_24)), "json"))[:3]
        assert list(_blocks(chunks)) == ["".join(chunks)]
        assert list(_blocks([])) == [""]

    @pytest.mark.parametrize("limit", [1_000, 1 << 20], ids=["short-writes", "whole-writes"])
    def test_raw_stdout_gets_the_whole_report(self, monkeypatch, capsys, tmp_path, limit):
        source = tmp_path / "racy24.toy"
        source.write_text(RACY_24, encoding="utf-8")
        raw = ShortWriter(limit)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
        assert main(["check", "--format", "json", str(source)]) == ExitStatus.RACE
        assert bytes(raw.data) == self.expected(RACY_24, "json")
        # each block is written once, a short write followed by a write of the rest
        blocks = [len(block) for block in _blocks(iter_report(explore(parse(RACY_24)), "json"))]
        assert raw.calls == sum(-(-size // limit) for size in blocks)
        assert capsys.readouterr().err == ""

    def test_raw_stdout_that_would_block_is_an_internal_error(self, monkeypatch, capsys, tmp_path):
        # the writer raises once stdout points at the null device, here a pipe of the test's own
        source = tmp_path / "racy24.toy"
        source.write_text(RACY_24, encoding="utf-8")
        read, write = os.pipe()
        try:
            raw = ShortWriter(1_000, full=3_000, fd=write)
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
            assert main(["check", "--format", "json", str(source)]) == ExitStatus.INTERNAL_ERROR
            assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
        finally:
            os.close(read)
            os.close(write)
        assert bytes(raw.data) == self.expected(RACY_24, "json")[:3_000]
        assert capsys.readouterr().err.startswith("internal error: BlockingIOError: ")

    @pytest.mark.parametrize("digest", [False, True], ids=["full", "digest"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["racy24", "ab12"])
    def test_console_output_does_not_depend_on_buffering(self, tmp_path, name, fmt, digest):
        # racy24's report is several blocks, ab12's one
        source = RACY_24 if name == "racy24" else (PROGRAMS_DIR / "ab12.toy").read_text()
        path = tmp_path / f"{name}.toy"
        path.write_text(source, encoding="utf-8")
        argv = ["check", "--format", fmt, *(["--digest"] if digest else []), str(path)]
        want = (ExitStatus.RACE, self.expected(source, fmt, digest), b"")
        for unbuffered in (True, False):
            proc = paircheck_process(argv, unbuffered=unbuffered)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err) == want, unbuffered

    @BUFFERING
    def test_reader_that_stops_after_100_bytes(self, tmp_path, unbuffered):
        path = tmp_path / "racy24.toy"
        path.write_text(RACY_24, encoding="utf-8")
        proc = paircheck_process(["check", "--format", "json", str(path)], unbuffered=unbuffered)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (ExitStatus.RACE, b"")

    @BUFFERING
    def test_full_non_blocking_pipe_is_an_internal_error(self, tmp_path, unbuffered):
        # a pipe read only once the child has exited fills after its first
        # 64 KiB; the report must not be cut short silently, nor the exit
        # code changed by the interpreter's flush at exit
        path = tmp_path / "racy24.toy"
        path.write_text(RACY_24, encoding="utf-8")
        read, write = os.pipe()
        fcntl.fcntl(write, fcntl.F_SETFL, fcntl.fcntl(write, fcntl.F_GETFL) | os.O_NONBLOCK)
        try:
            proc = paircheck_process(
                ["check", "--format", "json", str(path)], unbuffered=unbuffered, stdout=write
            )
            os.close(write)
            _, err = proc.communicate(timeout=60)
            with os.fdopen(read, "rb") as pipe:
                out = pipe.read()
        except BaseException:
            os.close(read)
            raise
        want = self.expected(RACY_24, "json")
        assert proc.returncode == ExitStatus.INTERNAL_ERROR
        assert err.startswith(b"internal error: BlockingIOError: ")
        assert len(out) < len(want) and want.startswith(out)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == ExitStatus.INPUT_ERROR
        assert "error" in err

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == ExitStatus.INPUT_ERROR

    def test_exit_codes_match_report_contents(self, capsys, bundled_programs):
        for name in bundled_programs:
            code, out, _ = run(capsys, "check", program(name), "--format", "json")
            doc = json.loads(out)
            if doc["race_found"]:
                expected = ExitStatus.RACE
            elif doc["deadlocks"]:
                expected = ExitStatus.DEADLOCK
            elif doc["block_forever"]:
                expected = ExitStatus.BLOCK_FOREVER
            else:
                expected = ExitStatus.CLEAN
            assert code == expected, name


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time a running process has used so far (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()  # the fields after the command name
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class TestInterrupt:
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_ctrl_c_exits_130_without_a_traceback(self, tmp_path):
        source = tmp_path / "disjoint13.toy"
        source.write_text(render(disjoint_pair(13)), encoding="utf-8")  # ~40M statements
        argv = ["check", "--no-race-detect", "--max-steps", "1000000000", str(source)]
        proc = paircheck_process(argv)
        try:
            # start-up takes about a tenth of this: past it, the search is running
            while proc.poll() is None and _cpu_seconds(proc.pid) < 0.5:
                time.sleep(0.02)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == ExitStatus.INTERRUPTED == 130
        assert b"Traceback" not in err
        assert err.decode().splitlines() == ["interrupted"]
        assert out == b""

    def test_main_lets_the_interrupt_through(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("paircheck.engine.explore", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["check", program("ab12.toy")])
