"""Command-line contract: output formats and exit codes."""

import json
import random
from fractions import Fraction

import pytest

from prsyn.cli import main

from conftest import count_pr_tests


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


WORKED = "(s^2+1/2 s+2/3)/(s^2+1/3 s+3/2)"
HALF = "(s^2+s+1/2)/(s^2+1/2 s+2)"
# two L-C tanks resonant at omega = 1 in series, with a resistor across
TANKS_NETLIST = ("L l1 a m 1\nL l2 m b 1\nC c1 a m 1\nC c2 m b 1\n"
                 "R r1 a b 1\nPORT a b\n")
# the X > 0 alt_second realization of WORKED with its rim named v1-v3: a
# 4-wheel with the source on a spoke
SPOKE_NETLIST = ("C c1 a v2 169/56\nC c2 a v3 6/7\nL l1 b v1 1\n"
                 "L l2 v1 v2 8/13\nL l3 v2 v3 49/26\nR r1 a v1 4/9\n"
                 "R r2 b v3 1\nPORT a b\n")


class TestVerdicts:
    def test_params_worked_example(self, run):
        code, out, _ = run("params", WORKED)
        assert code == 0
        assert out.strip() == "K=1 omega0=1 W=2/3 F=1"

    def test_classify_half(self, run):
        code, out, _ = run("classify", HALF)
        assert code == 0
        assert out.strip() == "min_storage=3 condition=a"

    def test_check_exit_codes(self, run):
        assert run("check", "s")[0] == 0
        assert run("check", "s - 1")[0] == 1

    def test_check_runs_one_pr_test(self, run, monkeypatch):
        # lossless, minimum and the frequencies all reuse the one PR verdict
        tests = count_pr_tests(monkeypatch)
        assert run("check", WORKED) == (0, "positive_real=true lossless=false "
                                           "minimum_function=true "
                                           "minimum_frequencies=[1]\n", "")
        assert len(tests) == 1
        code, out, _ = run("--json", "check", WORKED)
        assert code == 0 and json.loads(out) == {
            "positive_real": True, "lossless": False,
            "minimum_function": True, "minimum_frequencies": ["1"]}
        assert len(tests) == 2

    def test_synth_and_classify_pr_tests(self, run, monkeypatch):
        # synth tests the parsed function once, though theorem2_step asks
        # twice, and then the reduced function of the step: a constant, so
        # its num + den is a constant too.  classify on a five-storage
        # function tests the parsed function, the template it rebuilds from
        # (K, omega0, W, F) for its seven-element witness, and that step's
        # reduced constant
        tests = count_pr_tests(monkeypatch)
        assert run("synth", WORKED)[0] == 0
        assert [len(p) - 1 for p in tests] == [2, 0]
        tests.clear()
        assert run("classify", WORKED)[1] == "min_storage=5 condition=none\n"
        assert [len(p) - 1 for p in tests] == [2, 2, 0]

    def test_check_irrational_frequency(self, run):
        # omega^2 = sqrt(2): the printed float is 2**0.25 to the last digit
        code, out, _ = run("check", "(s^4 + 45/16 s^3 + 21/4 s^2 + 117/16 s"
                           " + 4)/(s^4 + 4 s^3 + 6 s^2 + 4 s + 1)")
        assert code == 0
        assert out.strip() == (
            "positive_real=true lossless=false minimum_function=true "
            f"minimum_frequencies=[{2 ** 0.25!r}]")
        assert repr(2 ** 0.25) == "1.189207115002721"

    @pytest.mark.parametrize("scale, printed", [
        (Fraction(1, 10 ** 200), "1.1892071150027211E+200"),
        (10 ** 200, "1.1892071150027211E-200"),
        # omega^2 near 1.4e-316 is a subnormal float, good to 3 digits
        (10 ** 158, "1.1892071150027211E-158")])
    def test_check_frequency_beyond_float_range(self, run, scale, printed):
        # the function above with s -> s * scale: omega^2 = sqrt(2) / scale^2
        # overflows a float or falls below its normal range, so omega is
        # printed as a Decimal of 17 digits
        num = [2, Fraction(117, 32), Fraction(21, 8), Fraction(45, 32),
               Fraction(1, 2)]
        den = [1, 4, 6, 4, 1]

        def text(cs):
            return " + ".join(f"{c * Fraction(scale) ** k} s^{k}"
                              for k, c in enumerate(cs))
        for argv in (["check"], ["--json", "check"]):
            code, out, err = run(*argv, f"({text(num)}) / ({text(den)})")
            assert (code, err) == (0, "")
            assert printed in out

    def test_domain_error_exit(self, run):
        code, _, err = run("params", "s + 1")   # not a minimum function
        assert code == 3 and "error" in err

    def test_usage_error_exit(self, run):
        assert run("nonsense")[0] == 2
        assert run()[0] == 2

    def test_invariant_violation_exit(self, run, tmp_path, monkeypatch):
        # a computed impedance that fails its PR check is a fault of prsyn:
        # exit 4, one line, and the worst code of a batch
        import io
        import sys
        import prsyn.analysis as analysis
        net = tmp_path / "r.net"
        net.write_text("R r1 a b 1\nPORT a b\n")
        monkeypatch.setattr(analysis, "is_positive_real", lambda h: False)
        assert run("impedance", str(net)) == (
            4, "", "error: invariant positive-real violated: impedance=1\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            f'check "s - 1"\nimpedance {net}\nnonsense\n'))
        assert run("batch")[0] == 4


class TestPipelines:
    def test_synth_then_verify(self, run, tmp_path):
        code, out, _ = run("synth", WORKED, "--which", "alt_first")
        assert code == 0
        net = tmp_path / "n.net"
        net.write_text(out)
        assert run("verify", str(net), WORKED)[0] == 0
        assert run("verify", str(net), HALF)[0] == 1

    def test_impedance_roundtrip(self, run, tmp_path):
        code, out, _ = run("synth", HALF)
        net = tmp_path / "n.net"
        net.write_text(out)
        code, out, _ = run("impedance", str(net))
        assert code == 0
        assert out.strip() == "(s^2 + s + 1/2) / (s^2 + 1/2 s + 2)"

    def test_classify_witness_json(self, run, tmp_path):
        code, out, _ = run("--json", "classify", WORKED)
        assert code == 0
        data = json.loads(out)
        assert data["min_storage"] == 5 and data["condition"] == "none"
        net = tmp_path / "w.net"
        net.write_text(data["witness_netlist"])
        assert run("verify", str(net), WORKED)[0] == 0

    def test_dual_and_invert(self, run, tmp_path):
        net = tmp_path / "n.net"
        net.write_text("R r1 a m 2\nL l1 m b 3\nPORT a b\n")
        code, out, _ = run("dual", str(net))
        assert code == 0 and "C l1" in out
        code, out, _ = run("invert", str(net), "--omega0", "2")
        assert code == 0 and "C l1 m b 1/12" in out

    def test_dual_of_long_ladder(self, run, tmp_path):
        # an R-C ladder of 1,000 elements: its series-parallel tree is
        # nested far deeper than Python's recursion limit
        lines, top = [], "a"
        for k in range(500):
            lines += [f"R r{k} {top} m{k} {k % 7 + 1}", f"C c{k} m{k} b {k % 5 + 1}"]
            top = f"m{k}"
        ladder = "\n".join(lines) + "\nPORT a b\n"

        def dual_text(text):
            net = tmp_path / "n.net"
            net.write_text(text)
            code, out, err = run("dual", str(net))
            assert (code, err) == (0, "")
            return out

        def ids_and_kinds(text):
            return sorted((f[1], f[0]) for f in map(str.split, text.splitlines())
                          if f[0] != "PORT")
        once = dual_text(ladder)
        assert {k for _, k in ids_and_kinds(once)} == {"R", "L"}
        assert ids_and_kinds(dual_text(once)) == ids_and_kinds(ladder)

    def test_spoke_dual_ignores_hash_seed(self, tmp_path):
        # two interpreters with different string hashes print one dual
        import os
        import subprocess
        import sys
        net = tmp_path / "spoke.net"
        net.write_text(SPOKE_NETLIST)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        outs = [subprocess.run(
            [sys.executable, "-m", "prsyn.cli", "dual", str(net)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, text=True, check=True).stdout
            for seed in ("1", "2")]
        assert outs[0] == outs[1] and "PORT da db" in outs[0]

    def test_python_m_prsyn(self, run):
        # the package runs as a module, with the output of cli.main
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-m", "prsyn", "check", "1/(s+1)"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60)
        code, out, _ = run("check", "1/(s+1)")
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out

    def test_mech(self, run, tmp_path):
        net = tmp_path / "n.net"
        net.write_text("C c1 a b 3\nR r1 a b 2\nPORT a b\n")
        code, out, _ = run("mech", str(net))
        assert code == 0
        assert "INERTER c1 a b 3" in out and "DAMPER r1 a b 1/2" in out
        assert "c1=true" in out

    def test_phasor_and_blocked(self, run, tmp_path):
        net = tmp_path / "n1.net"
        net.write_text("L l4 a c 1\nR r1 a d 1/2\nC c3 c d 1\n"
                       "R r2 c b 1/2\nL l5 d b 1\nPORT a b\n")
        code, out, _ = run("--json", "phasor", str(net), "--omega", "1")
        data = json.loads(out)
        assert code == 0 and data["energy_residual"] == "0"
        assert data["source"]["voltage"] == "0+1j"
        code, out, _ = run("--json", "blocked", str(net), "--omega0", "1")
        data = json.loads(out)
        assert code == 0 and data["open_short_check"]
        assert sorted(map(sorted, data["blocked"])) == [["r1"], ["r2"]]

    def test_phasor_default_drive_at_zero_frequency(self, run, tmp_path):
        # the series capacitor blocks direct current: the default drive is
        # unit voltage, which the capacitor takes whole
        net = tmp_path / "cl.net"
        net.write_text("C c1 a m 1\nL l1 m b 1\nPORT a b\n")
        assert run("phasor", str(net), "--omega", "0") == (0, (
            "omega=0 i=0+0j v=1+0j residual=0\n"
            "  c1: i=0+0j v=1+0j\n"
            "  l1: i=0+0j v=0+0j\n"), "")

    def test_ss_json(self, run, tmp_path):
        net = tmp_path / "rl.net"
        net.write_text("R r1 a b 2\nL l1 a b 3\nPORT a b\n")
        code, out, _ = run("--json", "ss", str(net))
        data = json.loads(out)
        assert code == 0
        assert data["A"] == [["-2/3"]] and data["D"] == "2"
        assert data["stabilizable"] is True

    def test_ss_complex_modes(self, run, tmp_path):
        # the modes +-j are in neither list (rational roots only), and
        # stabilizable is decided on the whole polynomial s^2 + 1
        net = tmp_path / "tanks.net"
        net.write_text(TANKS_NETLIST)
        assert run("ss", str(net)) == (0, (
            "states: l1 l2 c1 c2\n"
            "A[0] = [0, 0, 1, 0]\n"
            "A[1] = [0, 0, 0, 1]\n"
            "A[2] = [-1, 0, -1, -1]\n"
            "A[3] = [0, -1, -1, -1]\n"
            "B = [0, 0, 1, 1]\n"
            "C = [0, 0, 1, 1]\n"
            "D = 0\n"
            "uncontrollable_modes = []\n"
            "unobservable_modes = []\n"
            "stabilizable = false\n"), "")

    def test_batch(self, run, monkeypatch, capsys):
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            f'params "{WORKED}"\ncheck "s - 1"\n'))
        code = main(["batch"])
        out = capsys.readouterr().out
        assert code == 1      # worst exit code wins
        assert "K=1" in out

    def test_batch_builds_the_parser_once(self, monkeypatch, capsys):
        import io
        import sys
        import prsyn.cli as cli
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            f'params "{WORKED}"\ncheck "s - 1"\ncheck x\ncheck s\n'))
        cli._build_parser.cache_clear()
        assert main(["batch"]) == 3
        # one build for "batch" itself, reused by its four lines
        assert cli._build_parser.cache_info().misses == 1
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 3 and "K=1" in captured.out
        assert captured.err.count("\n") == 1


N1_NETLIST = ("L l4 a c 1\nR r1 a d 1/2\nC c3 c d 1\n"
              "R r2 c b 1/2\nL l5 d b 1\nPORT a b\n")

# (argv with {net} for the netlist path and {huge} for a netlist whose
# value exponent is past MAX_EXPONENT, expected exit code)
MALFORMED = [
    (["check", "1/0"], 3),
    (["check", "2+6/0"], 3),
    (["phasor", "{net}", "--omega", "abc"], 2),
    (["phasor", "{net}", "--omega", "1/0"], 2),
    (["phasor", "{net}", "--omega", "1", "--current", "x"], 2),
    (["phasor", "{net}", "--omega", "1", "--voltage", "1,1/0"], 2),
    (["blocked", "{net}", "--omega0", "1/0"], 2),
    (["invert", "{net}", "--omega0", "abc"], 2),
    (["synth", WORKED, "--omega0", "x"], 2),
    (["check", "(s+1)/(s-s)"], 3),
    (["blocked", "{net}", "--omega0", "-1"], 3),
    # more digits than int() converts, in a coefficient and in a power
    (["check", "1" * 5000 + " s + 1"], 3),
    (["check", "s^" + "2" * 5000], 3),
    # a power past MAX_POWER is refused before any coefficient is built
    (["check", "s^9999999999"], 3),
    (["impedance", "{huge}"], 3),
    # a numeric flag's exponent past MAX_EXPONENT is a usage error
    (["phasor", "{net}", "--omega", "1e3000000"], 2),
    # one drive at a time
    (["phasor", "{net}", "--omega", "1", "--current", "1", "--voltage", "1"], 2),
    # a netlist file that is not UTF-8 text
    (["impedance", "{utf16}"], 3),
    # a negative omega0 is no minimum frequency of a degree-4 function
    (["synth", "(2s^4+18s^3+22s^2+24s+8)/(s^4+2s^3+12s^2+14s+8)",
      "--omega0", "-2"], 3),
]


class TestMalformedInput:
    @pytest.fixture
    def paths(self, tmp_path):
        net, huge = tmp_path / "n1.net", tmp_path / "huge.net"
        net.write_text(N1_NETLIST)
        # an exponent past MAX_EXPONENT is refused before 10**N is computed
        huge.write_text("R r1 a b 1e3000000\nPORT a b\n")
        utf16 = tmp_path / "utf16.net"
        utf16.write_bytes(b"\xff\xfe" + N1_NETLIST.encode("utf-16-le"))
        return {"net": str(net), "huge": str(huge), "utf16": str(utf16)}

    @staticmethod
    def assert_one_line(err):
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv, code", MALFORMED)
    def test_exit_code_and_one_line(self, run, paths, argv, code):
        got, out, err = run(*(a.format(**paths) for a in argv))
        assert (got, out) == (code, "")
        self.assert_one_line(err)

    @pytest.mark.parametrize("argv, code", MALFORMED)
    def test_batch_goes_on(self, paths, argv, code, monkeypatch, capsys):
        import io
        import shlex
        import sys
        line = shlex.join(a.format(**paths) for a in argv)
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{line}\ncheck s\n"))
        assert main(["batch"]) == code
        captured = capsys.readouterr()
        assert captured.out.startswith("positive_real=true")
        self.assert_one_line(captured.err)

    def test_zero_denominator_is_named(self, run):
        _, _, err = run("check", "(s+1)/(s-s)")
        assert "zero denominator" in err

    def test_batch_unsplittable_line(self, monkeypatch, capsys):
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO('check "s\ncheck s\n'))
        assert main(["batch"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("positive_real=true")
        self.assert_one_line(captured.err)


class TestDomainMessages:
    def test_inconsistent_drive_prints_phasor(self, run, tmp_path):
        net = tmp_path / "tank.net"
        net.write_text("L l1 a b 1\nC c1 a b 1\nPORT a b\n")  # pole at j*1
        code, out, err = run("phasor", str(net), "--omega", "1",
                             "--current", "1,-1/2")
        assert (code, out) == (3, "")
        assert err == ("error: no sinusoidal trajectory with drive "
                       "current=1-1/2j at omega=1\n")

    def test_ss_of_bare_port_names_the_cause(self, run, tmp_path):
        net = tmp_path / "port.net"
        net.write_text("PORT a b\n")
        assert run("ss", str(net)) == (
            3, "", "error: no element joins the port terminals\n")

    def test_phasor_of_bare_port_names_the_cause(self, run, tmp_path):
        net = tmp_path / "port.net"
        net.write_text("PORT a b\n")
        assert run("phasor", str(net), "--omega", "1") == (
            3, "", "error: no element joins the port terminals\n")

    def test_impedance_of_bare_port_is_a_domain_error(self, run, tmp_path):
        net = tmp_path / "port.net"
        net.write_text("PORT a b\n")
        assert run("impedance", str(net)) == (
            3, "", "error: no element joins the port terminals\n")

    @pytest.mark.parametrize("argv", [
        ["impedance"], ["verify", "s"], ["phasor", "--omega", "1"],
        ["blocked", "--omega0", "1"], ["ss"], ["dual"],
        ["invert", "--omega0", "1"], ["mech"]], ids=lambda argv: argv[0])
    def test_bare_port_is_refused_by_every_command(self, run, tmp_path, argv):
        # the netlist parser refuses the bare port, so every command that
        # reads a netlist fails alike, before it computes anything
        net = tmp_path / "port.net"
        net.write_text("PORT a b\n")
        assert run(argv[0], str(net), *argv[1:]) == (
            3, "", "error: no element joins the port terminals\n")


MECH_NETLIST = "DAMPER d1 a b 2\nSPRING k1 a b 3\nPORT a b\n"


# seeds for the mutation fuzz, and what a mutation may insert
FUZZ_POLYS = ["s^2 + 1/2 s + 2/3", "3/4 s^3 - s + 7", "(s + 1)", "2.5 s",
              "-4 * s^2", "1"]
FUZZ_RATFUNCS = [WORKED, HALF, "1/2 s / (s + 1)", "(s+1)/(s-s)", "s"]
FUZZ_NETLISTS = [N1_NETLIST, TANKS_NETLIST, MECH_NETLIST]
FUZZ_CHARS = "0123456789s^/+-*.() \t\n#e_xRLCP"
FUZZ_TOKENS = ["R", "L", "C", "PORT", "DAMPER", "SPRING", "INERTER", "a", "b",
               "m", "r1", "l1", "0", "-1", "1/0", "2/3", "1.5", "#", "\n", "s",
               "(", ")", "/"]


def _mutate(rng, text):
    """One to four edits: delete a character, insert one, put a token in
    place of one, duplicate a run of up to eight, or reverse a slice."""
    out = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(out) + 1)
        op = rng.randrange(5)
        if op == 0:
            del out[i:i + 1]
        elif op == 1:
            out.insert(i, rng.choice(FUZZ_CHARS))
        elif op == 2:
            out[i:i + 1] = rng.choice(FUZZ_TOKENS)
        elif op == 3:
            out[i:i] = out[i:i + rng.randint(1, 8)]
        else:
            j = rng.randrange(len(out) + 1)
            out[min(i, j):max(i, j)] = out[min(i, j):max(i, j)][::-1]
    return "".join(out)


class TestParserFuzz:
    """Mutated inputs: the parsers raise only their documented errors, and
    the CLI turns a rejected netlist into exit 3 with one stderr line."""

    def test_parsers_raise_only_documented_errors(self):
        from prsyn.network import NetworkError, parse_netlist
        from prsyn.polyrat import PolyratError, parse_poly, parse_ratfunc
        rng = random.Random(1969)
        cases = [(parse_poly, FUZZ_POLYS, PolyratError),
                 (parse_ratfunc, FUZZ_RATFUNCS, PolyratError),
                 (parse_netlist, FUZZ_NETLISTS, NetworkError)]
        outcomes = {}
        for k in range(20000):
            parse, seeds, error = cases[k % 3]
            text = _mutate(rng, rng.choice(seeds))
            try:
                parse(text)
                ok = True
            except error:
                ok = False
            key = (parse.__name__, ok)
            outcomes[key] = outcomes.get(key, 0) + 1
        assert len(outcomes) == 6 and min(outcomes.values()) >= 200, outcomes

    def test_power_and_exponent_limits(self):
        # the limits themselves parse; one past them is a documented error
        # raised before s^N or 10**N is built
        from prsyn.network import (MAX_EXPONENT, NetlistSyntaxError,
                                   parse_netlist)
        from prsyn.polyrat import MAX_POWER, PolyratError, parse_poly
        assert parse_poly(f"s^{MAX_POWER}").degree == MAX_POWER
        for text in (f"s^{MAX_POWER + 1}", "2 s^9999999999 + 1"):
            with pytest.raises(PolyratError, match="power above"):
                parse_poly(text)
        netlist = "R r1 a b {}\nPORT a b\n"
        for value in (f"1e{MAX_EXPONENT}", f"1.5E-{MAX_EXPONENT}"):
            parse_netlist(netlist.format(value))
        for value in (f"1e{MAX_EXPONENT + 1}", "1e3000000", "2.5e-1_000_000"):
            with pytest.raises(NetlistSyntaxError, match="exponent beyond"):
                parse_netlist(netlist.format(value))
        # a numeric flag has the same limit
        import argparse
        from prsyn.cli import _number
        assert _number(f"1.5E-{MAX_EXPONENT}") == Fraction(15, 10 ** 1001)
        with pytest.raises(argparse.ArgumentTypeError, match="exponent beyond"):
            _number(f"1e{MAX_EXPONENT + 1}")

    def test_cli_rejects_mutated_netlists(self, run, tmp_path):
        from prsyn.network import NetworkError, parse_netlist
        rng = random.Random(1970)
        commands = [["impedance"], ["ss"], ["phasor", "--omega", "1"],
                    ["blocked", "--omega0", "1"], ["dual"], ["mech"],
                    ["verify", "s"]]
        path = tmp_path / "mutant.net"
        calls = 0
        while calls < 300:
            text = _mutate(rng, rng.choice(FUZZ_NETLISTS))
            try:
                parse_netlist(text)
                continue
            except NetworkError:
                pass
            path.write_text(text)
            cmd = commands[calls % len(commands)]
            code, out, err = run(cmd[0], str(path), *cmd[1:])
            assert (code, out) == (3, ""), (text, cmd)
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            calls += 1


class TestMechanicalNetlist:
    @pytest.fixture
    def net(self, tmp_path):
        path = tmp_path / "m.net"
        path.write_text(MECH_NETLIST)
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["impedance", "{net}"],
        ["phasor", "{net}", "--omega", "1"],
        ["blocked", "{net}", "--omega0", "1"],
        ["ss", "{net}"],
        ["dual", "{net}"],
        ["invert", "{net}", "--omega0", "1"],
        ["verify", "{net}", "s"],
        ["mech", "{net}"],
    ])
    def test_electrical_only_commands_exit_3(self, run, net, argv):
        code, out, err = run(*(a.format(net=net) for a in argv))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "electrical" in err        # the reason, not a later symptom

    def test_reverse(self, run, net):
        code, out, _ = run("mech", "--reverse", net)
        assert code == 0
        assert out == "L k1 a b 1/3\nR d1 a b 1/2\nPORT a b\n"
