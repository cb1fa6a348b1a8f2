"""CLI tests (python -m repro …)."""

import pytest

from repro.cli import build_parser, main

FIG2 = """
void f(int *p, int *q) {
  int x;
  x = *p;
  *q = 9;
  x = x + *p;
  print(x);
}
void main() {
  int a[8]; int b[8]; int c;
  c = input();
  a[0] = 5;
  if (c) { f(a, a); }
  f(a, b);
}
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "fig2.c"
    path.write_text(FIG2)
    return str(path)


def test_run_prints_program_output(program_file, capsys):
    rc = main(["run", program_file, "--train", "0", "--ref", "0"])
    assert rc == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[0] == "10"
    assert "ld.c=1" in out.err


def test_run_base_config(program_file, capsys):
    rc = main(["run", program_file, "--config", "base",
               "--train", "0", "--ref", "0"])
    assert rc == 0
    assert "ld.c=0" in capsys.readouterr().err


def test_run_dump_ir(program_file, capsys):
    rc = main(["run", program_file, "--dump-ir",
               "--train", "0", "--ref", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[advance]" in out and "[check]" in out


def test_run_dump_ir_compiles_once(program_file, capsys, monkeypatch):
    """The dumped IR is the simulated program: one compile, at the
    requested --fuel (a fuel no other test uses, so the process-wide
    compile cache cannot already hold the key)."""
    from repro.pipeline import PassManager

    compiles = []
    real = PassManager.compile

    def counting(self, *args, **kwargs):
        compiles.append(self.fuel)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PassManager, "compile", counting)
    rc = main(["run", program_file, "--dump-ir", "--fuel", "4242421",
               "--train", "0", "--ref", "0"])
    assert rc == 0
    assert "[advance]" in capsys.readouterr().out
    assert compiles == [4242421]


def test_compare_table(program_file, capsys):
    rc = main(["compare", program_file, "--train", "0", "--ref", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "load_reduction_%" in out


def test_workloads_list(capsys):
    rc = main(["workloads", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("gzip", "equake", "mcf"):
        assert name in out


def test_workloads_single(capsys):
    rc = main(["workloads", "--name", "art"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "art" in out and "load_reduction_%" in out


def test_parser_rejects_unknown_config(program_file):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", program_file,
                                   "--config", "bogus"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_json_output(program_file, capsys):
    import json

    rc = main(["run", program_file, "--train", "0", "--ref", "0",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == ["10"]
    assert payload["stats"]["check_loads"] == 1
    assert payload["stats"]["misspeculation_ratio"] == 0.0


GUARDED = """
int lookup(int *t, int n, int k) {
  int i; int s; int v; s = 0;
  for (i = 0; i < n; i = i + 1) {
    if (k < n) { v = t[k]; s = s + v + i; }
  }
  return s;
}
void main() {
  int t[8]; int j; int acc; acc = 0;
  for (j = 0; j < 8; j = j + 1) { t[j] = j * 3; }
  for (j = 0; j < 40; j = j + 1) {
    acc = acc + lookup(t, 8, j - (j / 8) * 8);
  }
  print(acc);
}
"""


@pytest.fixture()
def guarded_file(tmp_path):
    path = tmp_path / "guarded.c"
    path.write_text(GUARDED)
    return str(path)


def test_run_with_injection_still_checks_the_oracle(guarded_file, capsys):
    rc = main(["run", guarded_file, "--config", "base",
               "--inject", "chaos", "--inject-seed", "5"])
    assert rc == 0
    out = capsys.readouterr()
    # injected deferrals were taken and recovered
    assert "deferred=" in out.err and "deferred=0" not in out.err
    assert "recovered=0" not in out.err


def test_run_injection_seed_is_reproducible(guarded_file, capsys):
    def run(seed):
        rc = main(["run", guarded_file, "--config", "base",
                   "--inject", "poison", "--inject-seed", seed])
        assert rc == 0
        err = capsys.readouterr().err
        # the counters line (SSA temp numbering in diagnostics varies
        # across in-process compiles; the injection must not)
        return [l for l in err.splitlines() if l.startswith("---")]

    assert run("3") == run("3")


def test_run_rejects_unknown_scenario(guarded_file):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", guarded_file,
                                   "--inject", "meltdown"])


def test_oracle_mismatch_exits_nonzero_with_diff(program_file, capsys,
                                                 monkeypatch):
    import repro.pipeline.driver as driver

    original = driver.run_program

    def corrupted(program, **kwargs):
        stats, output = original(program, **kwargs)
        return stats, output + ["SPURIOUS"]

    monkeypatch.setattr(driver, "run_program", corrupted)
    rc = main(["run", program_file, "--train", "0", "--ref", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "diverged" in err and "SPURIOUS" in err


def test_fuel_exhaustion_exits_2_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "loop.c"
    path.write_text("void main() { int i; i = 0;"
                    " while (i < 2) { i = 0; } }")
    rc = main(["run", str(path), "--no-check", "--fuel", "20000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fuel exhausted" in err and "main" in err
    assert "Traceback" not in err


_READS_INPUT = "void main() { int x; x = input(); print(x + 1); }"


@pytest.mark.parametrize("command, source, config, rc, kind", [
    ("run", "void main() { print(@); }", "base", 3, "LexError"),
    ("run", "void main() { int x x = 1; }", "base", 3, "ParseError"),
    ("run", "void main() { y = 1; }", "base", 3, "LowerError"),
    # the profile config's training run reads past its empty input
    ("run", _READS_INPUT, "profile", 4, "InterpError"),
    # the simulation reads past its empty input before the oracle runs
    ("run", _READS_INPUT, "base", 4, "MachineError"),
    ("compare", "void main() { int x x = 1; }", "base", 3, "ParseError"),
    # source None: FILE does not exist
    ("run", None, "base", 3, "cannot read {path}"),
    ("compare", None, "base", 3, "cannot read {path}"),
    # the file is read before any connection, so no daemon is needed
    ("submit", None, "base", 3, "cannot read {path}"),
], ids=["lex", "parse", "lower", "interp", "machine", "compare-parse",
        "run-missing", "compare-missing", "submit-missing"])
def test_typed_errors_exit_with_one_line(tmp_path, capsys, command, source,
                                         config, rc, kind):
    path = tmp_path / "bad.c"
    if source is not None:
        path.write_text(source)
    assert main([command, str(path), "--config", config]) == rc
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {kind.format(path=path)}: ")


@pytest.mark.parametrize("argv", [
    ["workloads", "--name", "nosuch"],
    ["campaign", "--workloads", "parser,nosuch"],
], ids=["workloads", "campaign"])
def test_unknown_workload_is_a_usage_error(capsys, argv):
    """Like an unknown ``--config``: argparse's usage message, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err and "'nosuch'" in err


@pytest.mark.parametrize("flag", ["--train", "--ref"])
@pytest.mark.parametrize("command", ["run", "compare", "submit"])
def test_malformed_inputs_are_a_usage_error(program_file, capsys, command,
                                            flag):
    """A non-numeric --train/--ref part is a usage error (exit 2), not
    a traceback with the exit 1 that means "output diverged"."""
    with pytest.raises(SystemExit) as exc:
        main([command, program_file, flag, "1,abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err and "'abc'" in err


def test_inputs_read_as_int_else_float():
    args = build_parser().parse_args(
        ["run", "prog.c", "--train", "3, 2.5,1e3", "--ref", "-4"])
    assert args.train == [3, 2.5, 1000.0]
    assert [type(v) for v in args.train] == [int, float, float]
    assert args.ref == [-4]
    assert build_parser().parse_args(["compare", "prog.c"]).ref == []


def test_submit_wait_gives_up_on_a_closed_port(capsys):
    import socket

    # a bound-but-not-listening port: connections are refused
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    assert main(["submit", "--ping", "--wait", "0.3",
                 "--port", str(port)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ")


def test_campaign_subcommand(capsys):
    rc = main(["campaign", "--workloads", "parser,gzip",
               "--scenarios", "poison,storm", "--seeds", "0,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8 injected runs" in out
    assert "0 mismatches" in out


def test_campaign_with_adversary(capsys):
    rc = main(["campaign", "--workloads", "parser",
               "--scenarios", "poison", "--seeds", "0",
               "--adversary", "invert"])
    assert rc == 0
    assert "0 mismatches" in capsys.readouterr().out
