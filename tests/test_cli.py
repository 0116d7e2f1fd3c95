import argparse
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from marblesim import ElaborationError, cli, sim
from marblesim.cli import main
from marblesim.errors import MarblesimError

WATER = """\
density = 1000
diameter = 0.002
surface_tension = 0.072
velocity = 0.35
"""

MIDBAND = """\
density = 1000
diameter = 0.002
surface_tension = 0.072
velocity = 0.25
midband = merge
"""


# Every command line with a golden, stated once: argv, the goldens of its
# stdout and stderr (None for empty) and its exit code.  An argument ending
# in ".mnl" names a file in tests/fixtures.  The named tests below run each
# in process, and test_golden_in_a_fresh_interpreter runs each through the
# module entry point in a new interpreter, which builds the command line
# parser, each circuit's mask pass order and the kept vectors of each width
# for the first time.
GOLDENS = [
    (("run", "and_gate.mnl", "--inputs", "11", "--mode", "merge", "--trace"),
     "run_and_merge_trace.txt", None, 0),
    (("run", "and_gate.mnl", "--inputs", "11", "--mode", "merge", "--trace",
      "--format", "records"), "run_and_merge_records.txt", None, 0),
    (("run", "full_adder.mnl", "--inputs", "111", "--mode", "merge",
      "--trace", "--format", "records"),
     "run_full_adder_merge_records.txt", None, 0),
    (("run", "tap_syringe.mnl", "--inputs", "1", "--trace", "--format",
      "records"), "run_tap_syringe_records.txt", None, 0),
    (("run", "not_interaction.mnl", "--inputs", "0"),
     "run_not_interaction.txt", None, 0),
    (("run", "not_interaction.mnl", "--inputs", "0", "--format", "records"),
     "run_not_interaction_records.txt", None, 0),
    (("run", "skew.mnl", "--inputs", "11", "--no-repair"),
     "run_skew_hazard.txt", None, 1),
    (("run", "skew.mnl", "--inputs", "11", "--no-repair", "--format",
      "records"), "run_skew_hazard_records.txt", None, 1),
    (("run", "skew.mnl", "--inputs", "11", "--no-repair", "--strict"),
     None, "run_skew_strict.txt", 1),
    (("table", "FULL_ADDER"), "table_full_adder.txt", None, 0),
    (("table", "FULL_ADDER", "--format", "records"),
     "table_full_adder_records.txt", None, 0),
    (("table", "XOR", "--mode", "merge", "--format", "records"),
     "table_xor_records.txt", None, 0),
    (("table", "FREDKIN_DIRECT", "--mode", "merge", "--format", "records"),
     "table_fredkin_direct_records.txt", None, 0),
    (("table", "fan_out.mnl", "--format", "records"),
     "table_fan_out_records.txt", None, 0),
    (("verify", "FREDKIN_DIRECT"), "verify_fredkin_direct.txt", None, 0),
    (("verify", "--format", "records"), "verify_library_records.txt", None,
     0),
    (("lint", "skew.mnl"), "lint_skew.txt", None, 1),
    (("lint", "skew.mnl", "--format", "records"), "lint_skew_records.txt",
     None, 1),
    (("print", "and_gate_messy.mnl"), "print_messy.txt", None, 0),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_text(golden, name):
    return (golden / name).read_text()


def golden_row(name):
    """The row of ``GOLDENS`` whose stdout or stderr golden is ``name``."""
    (row,) = [row for row in GOLDENS if name in row[1:3]]
    return row


def with_fixtures(fixtures, argv):
    """``argv`` with each argument ending in ".mnl" made a fixture path."""
    return [str(fixtures / arg) if arg.endswith(".mnl") else arg
            for arg in argv]


def expected_run(row, fixtures, golden):
    """A row's argv with fixture paths, and the exit code, stdout and
    stderr it must give."""
    argv, out, err, code = row
    return (with_fixtures(fixtures, argv),
            (code, *(golden_text(golden, name) if name else ""
                     for name in (out, err))))


def check_golden(capsys, fixtures, golden, name):
    argv, expected = expected_run(golden_row(name), fixtures, golden)
    assert run_cli(capsys, *argv) == expected


def reference_main(argv):
    """``main`` as one top-level parse, which runs the subcommand's parser
    on what follows the command, then the command under ``main``'s error
    handling."""
    args = cli._build_parser()[0].parse_args(argv)
    try:
        return cli._COMMANDS[args.command](args)
    except (MarblesimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def outcome(capsys, call, argv):
    """The exit code of ``call(argv)``, whether it came by ``SystemExit``,
    and the stdout and stderr written."""
    try:
        code, raised = call(argv), False
    except SystemExit as exc:
        code, raised = exc.code, True
    captured = capsys.readouterr()
    return code, raised, captured.out, captured.err


class TestDispatch:
    """``main`` parses a line that starts with a subcommand by that
    subcommand's parser alone, and gives every line what the top-level
    parser gives it.  The reference is taken at run time, since argparse's
    wording differs between Python versions."""

    VALID = [
        ("table", "XOR", "--mode=merge", "--format=records"),
        ("table", "--form", "records", "XOR"),
        ("table", "--", "XOR"),
        ("verify", "AND", "XOR"),
        ("run", "and_gate.mnl", "--inputs", "10", "--trace", "--strict",
         "--no-repair"),
        ("lint", "skew.mnl", "--format", "records"),
        ("print", "and_gate.mnl"),
    ]
    # Help and usage errors: no command, an unknown or abbreviated one, an
    # option before it, or arguments its parser leaves over or refuses.
    REFUSED = [
        (), ("-h",), ("bogus",), ("tab", "XOR"), ("table",),
        ("table", "XOR", "extra"), ("table", "XOR", "--bogus"),
        ("table", "XOR", "--mode", "sideways"), ("run", "and_gate.mnl"),
        ("print", "and_gate.mnl", "--format", "records"), ("table", "-h"),
        ("--", "table", "XOR"),
    ]

    @pytest.mark.parametrize("argv", VALID + REFUSED, ids=" ".join)
    def test_main_matches_the_top_level_parser(self, capsys, fixtures,
                                               argv):
        argv = with_fixtures(fixtures, argv)
        assert (outcome(capsys, main, argv)
                == outcome(capsys, reference_main, argv))

    @pytest.mark.parametrize("argv", VALID, ids=" ".join)
    def test_a_valid_line_is_parsed_once(self, capsys, fixtures,
                                         monkeypatch, argv):
        parse = argparse.ArgumentParser.parse_known_args
        parsed_by = []

        def counted(parser, *args, **kwargs):
            parsed_by.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counted)
        main(with_fixtures(fixtures, argv))
        capsys.readouterr()
        assert parsed_by == [f"marblesim {argv[0]}"]

    @pytest.mark.parametrize("argv", [(), ("bogus",),
                                      ("table", "XOR", "--bogus")],
                             ids=" ".join)
    def test_a_fresh_interpreter_matches(self, capsys, monkeypatch, argv):
        # The module entry point reads its line from sys.argv.
        monkeypatch.setenv("COLUMNS", "80")
        code, _, out, err = outcome(capsys, reference_main, list(argv))
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m",
             "marblesim.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


class TestRun:
    def test_text_output_matches_golden(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "run_and_merge_trace.txt")

    def test_records_output_matches_golden(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "run_and_merge_records.txt")

    def test_nested_merge_records_match_golden(self, capsys, fixtures,
                                               golden):
        # The nested full adder's run goes through an inserted hold, a
        # join, a scalpel and a merge.
        check_golden(capsys, fixtures, golden,
                     "run_full_adder_merge_records.txt")

    def test_tap_and_syringe_records_match_golden(self, capsys, fixtures,
                                                  golden):
        # The tap creates its copy as the marble passes, and the syringe
        # diverts the marble it senses into its waste pocket a phase later.
        check_golden(capsys, fixtures, golden, "run_tap_syringe_records.txt")

    def test_output_is_deterministic(self, capsys, fixtures):
        args = ("run", str(fixtures / "full_adder.mnl"),
                "--inputs", "111", "--mode", "merge", "--trace")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("fmt, marker", [("text", "trace:\n"),
                                             ("records", "event\t")])
    def test_run_without_trace_records_no_event(self, capsys, fixtures,
                                                monkeypatch, fmt, marker):
        args = ("run", str(fixtures / "and_gate.mnl"), "--inputs", "11",
                "--mode", "merge", "--format", fmt)
        _, traced, _ = run_cli(capsys, *args, "--trace")
        # The events print last, after everything an untraced run prints.
        head, _, events = traced.partition(marker)
        assert events

        def no_events(placements):
            raise AssertionError("an untraced run built events")

        # A run's events are made only there, in one call at its end.
        monkeypatch.setattr(sim, "_as_events", no_events)
        code, out, err = run_cli(capsys, *args)
        assert (code, out, err) == (0, head, "")

    def test_hazard_sets_exit_code(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "run_skew_hazard.txt")

    def test_hazard_records_match_golden(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "run_skew_hazard_records.txt")

    @pytest.mark.parametrize("fmt, name", [
        ("text", "run_not_interaction.txt"),
        ("records", "run_not_interaction_records.txt")])
    def test_injection_matches_golden(self, capsys, fixtures, golden, fmt,
                                      name):
        # The const source injects the marble that leaves on y.
        argv = golden_row(name)[0]
        assert (fmt == "records") == ("records" in argv)
        check_golden(capsys, fixtures, golden, name)

    def test_repaired_run_is_clean(self, capsys, fixtures):
        code, out, _ = run_cli(
            capsys, "run", str(fixtures / "skew.mnl"), "--inputs", "11")
        assert code == 0
        assert "hazard" not in out

    def test_strict_mode_reports_error(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "run_skew_strict.txt")

    def test_bad_inputs_rejected(self, capsys, fixtures):
        for bad in ("2x", "1", "١١", "１0"):
            code, _, err = run_cli(
                capsys, "run", str(fixtures / "and_gate.mnl"),
                "--inputs", bad)
            assert code == 1
            assert err.startswith("error:")

    def test_missing_file_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "no_such.mnl",
                               "--inputs", "11")
        assert code == 1
        assert "error:" in err

    def test_parse_error_carries_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.mnl"
        bad.write_text("circuit c\nnode J : gearbox\n")
        code, _, err = run_cli(capsys, "run", str(bad), "--inputs", "1")
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("argv", [("run", "--inputs", "1"), ("table",),
                                      ("lint",), ("print",)])
    def test_undecodable_netlist_names_its_file(self, capsys, tmp_path,
                                                argv):
        bad = tmp_path / "bad.mnl"
        bad.write_bytes(b"circuit c\ninput a\noutput y\n# \xff\n")
        code, out, err = run_cli(capsys, argv[0], str(bad), *argv[1:])
        assert (code, out, err) == (
            1, "", f"error: cannot read {bad}: 'utf-8' codec can't decode "
                   f"byte 0xff in position 29: invalid start byte\n")


class TestPhysicsSelection:
    def test_auto_mode_uses_physics_file(self, capsys, fixtures, tmp_path):
        config = tmp_path / "water.phys"
        config.write_text(WATER)
        code, out, _ = run_cli(
            capsys, "run", str(fixtures / "and_gate.mnl"),
            "--inputs", "11", "--mode", "auto", "--physics", str(config))
        assert code == 0
        assert "waste=1" in out  # merge keeps one half, wastes the other

    def test_auto_mode_env_fallback(self, capsys, fixtures, tmp_path,
                                    monkeypatch):
        config = tmp_path / "water.phys"
        config.write_text(WATER)
        monkeypatch.setenv("MARBLE_PHYSICS", str(config))
        code, _, _ = run_cli(
            capsys, "run", str(fixtures / "and_gate.mnl"),
            "--inputs", "11", "--mode", "auto")
        assert code == 0

    def test_auto_mode_without_config_fails(self, capsys, fixtures,
                                            monkeypatch):
        monkeypatch.delenv("MARBLE_PHYSICS", raising=False)
        code, _, err = run_cli(
            capsys, "run", str(fixtures / "and_gate.mnl"),
            "--inputs", "11", "--mode", "auto")
        assert code == 1
        assert "MARBLE_PHYSICS" in err

    def test_midband_warning_goes_to_stderr(self, capsys, fixtures,
                                            tmp_path):
        config = tmp_path / "slow.phys"
        config.write_text(MIDBAND)
        code, out, err = run_cli(
            capsys, "run", str(fixtures / "and_gate.mnl"),
            "--inputs", "11", "--mode", "auto", "--physics", str(config))
        assert code == 0
        assert err.startswith("warning:")
        assert "ambiguous" in err

    def test_other_warnings_follow_the_callers_filters(
            self, capsys, fixtures, tmp_path, monkeypatch):
        config = tmp_path / "water.phys"
        config.write_text(WATER)
        resolve = cli.collision_mode

        def deprecated(policy, params):
            warnings.warn("old physics", DeprecationWarning)
            return resolve(policy, params)

        monkeypatch.setattr(cli, "collision_mode", deprecated)
        args = ("run", str(fixtures / "and_gate.mnl"), "--inputs", "11",
                "--mode", "auto", "--physics", str(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="old physics"):
                main(list(args))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "warning: old physics\n")
        assert "waste=1" in out

    @pytest.mark.parametrize("command", [
        ("run", "and_gate.mnl", "--inputs", "11"),
        ("table", "and_gate.mnl")])
    @pytest.mark.parametrize("mode", [(), ("--mode", "bounce"),
                                      ("--mode", "merge")])
    def test_physics_needs_auto_mode(self, capsys, fixtures, tmp_path,
                                     monkeypatch, command, mode):
        name, netlist, *rest = command
        args = (name, str(fixtures / netlist), *rest, *mode)
        for physics in (tmp_path / "missing.phys", fixtures / "and_gate.mnl"):
            assert run_cli(capsys, *args, "--physics", str(physics)) == (
                1, "", "error: --physics needs --mode auto\n")
        # A fixed mode ignores $MARBLE_PHYSICS, which only --mode auto reads.
        monkeypatch.setenv("MARBLE_PHYSICS", str(tmp_path / "missing.phys"))
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
        assert out


class TestTable:
    def test_library_gate_by_name(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "table_full_adder.txt")

    def test_nested_gate_records_format(self, capsys, fixtures, golden):
        # FULL_ADDER is a nested macro with fewer outputs than inputs.
        check_golden(capsys, fixtures, golden, "table_full_adder_records.txt")

    def test_records_format(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "table_xor_records.txt")

    def test_fan_out_records_format(self, capsys, fixtures, golden):
        # One input onto 17 outputs: rows read from the output columns.
        check_golden(capsys, fixtures, golden, "table_fan_out_records.txt")

    def test_equal_arity_records_format(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden,
                     "table_fredkin_direct_records.txt")

    def test_netlist_file(self, capsys, fixtures):
        code, out, _ = run_cli(capsys, "table",
                               str(fixtures / "and_gate.mnl"))
        assert code == 0
        assert "1 1 | 1" in out

    def test_gate_name_shadowed_by_a_directory(self, capsys, golden,
                                               tmp_path, monkeypatch):
        # A directory is not a netlist: the name still means the gate.
        (tmp_path / "XOR").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "table", "XOR", "--format",
                                 "records")
        assert (code, err) == (0, "")
        assert out == golden_text(golden, "table_xor_records.txt")

    def test_unknown_target(self, capsys):
        code, _, err = run_cli(capsys, "table", "XNOR")
        assert code == 1
        assert "neither a file nor a library gate" in err

    def test_library_gate_that_fails_to_elaborate(self, capsys, monkeypatch,
                                                  tmp_path):
        # Only an unknown name is "neither a file nor a library gate"; an
        # error elaborating a known gate is reported as itself.
        def fail(ast):
            raise ElaborationError("boom")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "elaborate", fail)
        code, out, err = run_cli(capsys, "table", "XOR")
        assert (code, out) == (1, "")
        assert "boom" in err
        assert "neither a file" not in err


class TestVerify:
    def test_single_gate_matches_golden(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "verify_fredkin_direct.txt")

    def test_whole_library_records_match_golden(self, capsys, fixtures,
                                                golden):
        # Every nested body of the library, elaborated in one call.
        check_golden(capsys, fixtures, golden, "verify_library_records.txt")

    def test_whole_library_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("gate ") == 13
        assert "MISMATCH" not in out

    def test_records_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "TOFFOLI",
                               "--format", "records")
        assert code == 0
        lines = dict()
        for line in out.splitlines():
            kind, name, field, value = line.split("\t")
            assert (kind, name) == ("verify", "TOFFOLI")
            lines[field] = value
        assert lines["reversible"] == "yes"
        assert lines["conservative"] == "no"
        assert lines["ok"] == "yes"


class TestLint:
    def test_skew_matches_golden(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "lint_skew.txt")

    def test_records(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "lint_skew_records.txt")

    def test_balanced_file_is_clean(self, capsys, fixtures):
        code, out, _ = run_cli(capsys, "lint",
                               str(fixtures / "and_gate.mnl"))
        assert code == 0
        assert out == "clean\n"


class TestPrint:
    def test_canonicalizes_messy_source(self, capsys, fixtures, golden):
        check_golden(capsys, fixtures, golden, "print_messy.txt")

    def test_print_is_idempotent(self, capsys, fixtures, tmp_path):
        _, once, _ = run_cli(capsys, "print",
                             str(fixtures / "and_gate_messy.mnl"))
        rewritten = tmp_path / "canon.mnl"
        rewritten.write_text(once)
        _, twice, _ = run_cli(capsys, "print", str(rewritten))
        assert twice == once

    def test_format_flag_is_rejected(self, capsys, fixtures):
        with pytest.raises(SystemExit) as exc:
            main(["print", str(fixtures / "and_gate.mnl"),
                  "--format", "records"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "table"])
def test_mode_options_have_one_help_text(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "collision mode; auto derives it from physics" in text
    assert "physics config (default: $MARBLE_PHYSICS)" in text


class TestParserReuse:
    """``main`` builds its parser once; nothing one call sets may reach
    the next."""

    @pytest.mark.parametrize("first, then", [
        (("run", "skew.mnl", "--inputs", "11", "--trace", "--strict",
          "--no-repair"), ("run", "skew.mnl", "--inputs", "11")),
        (("table", "XOR", "--mode", "merge"), ("table", "XOR")),
        (("verify", "--format", "records"), ("verify",)),
    ])
    def test_no_option_carries_over(self, capsys, fixtures, first, then):
        def call(argv):
            return run_cli(capsys, *with_fixtures(fixtures, argv))
        cli._build_parser.cache_clear()
        fresh = call(then)
        cli._build_parser.cache_clear()
        assert call(first) != fresh
        with pytest.raises(SystemExit) as exc:
            main([first[0], "--mode", "sideways"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert call(then) == fresh
        assert cli._build_parser.cache_info().misses == 1


def test_importing_the_cli_loads_every_module():
    """A command's set-up imports the whole package: no module is left to
    load on a command's first call, where its cost would hide in the
    operation."""
    src = Path(__file__).resolve().parent.parent / "src"
    expected = {"marblesim"} | {f"marblesim.{path.stem}"
                                for path in (src / "marblesim").glob("*.py")
                                if path.stem != "__init__"}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, marblesim.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True).stdout.split()
    assert {name for name in loaded
            if name.partition(".")[0] == "marblesim"} == expected


def test_every_golden_has_one_command_line(golden):
    """The digest's golden is written by its own test; every other one is
    the output of one row of ``GOLDENS``."""
    names = [name for row in GOLDENS for name in row[1:3] if name]
    assert sorted(names) == sorted(path.name for path in golden.iterdir()
                                   if path.name != "digest.txt")


@pytest.mark.parametrize("row", GOLDENS, ids=lambda row: row[1] or row[2])
def test_golden_in_a_fresh_interpreter(row, fixtures, golden):
    argv, expected = expected_run(row, fixtures, golden)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "marblesim.cli",
         *argv], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == expected
