"""Command-line front end.

Exit codes: 0 success (or true verdict), 1 false verdict (check/verify),
2 usage errors, 3 domain errors, 4 a violated invariant (a computed answer
broke a law it must obey: a fault of prsyn, not of the input).  --json
emits machine-readable reports in which every exact number is a fraction
string and every phasor the text ``re+imj``.  Every numeric flag,
frequencies included, is an exact rational literal such as ``3/2``;
nothing is computed in floating point except the approximate value
printed for a minimum frequency whose square is irrational.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import shlex
import sys
from fractions import Fraction
from typing import List, Optional

from . import analysis, network, synth
from .polyrat import (PolyratError, QComplex, biquad_params, format_ratfunc,
                      is_lossless, is_minimum_function, is_positive_real,
                      minimum_frequencies, parse_ratfunc)


def _number(text: str) -> Fraction:
    """argparse type of every numeric flag: an exact rational literal.  A
    non-number, a zero denominator or a decimal exponent beyond
    ``network.MAX_EXPONENT`` is a usage error (exit 2)."""
    try:
        return network.exact_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _phasor(text: str) -> QComplex:
    """argparse type of a drive phasor "re[,im]"; each part is a _number."""
    re_s, comma, im_s = text.partition(",")
    return QComplex(_number(re_s), _number(im_s) if comma else 0)


def _load_network(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return network.parse_netlist(fh.read())
    except UnicodeDecodeError as exc:
        raise network.NetlistSyntaxError(f"{path}: {exc}") from None


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _cmd_check(args) -> int:
    f = parse_ratfunc(args.function)
    pr = is_positive_real(f)        # the other predicates reuse its verdict
    lossless = is_lossless(f)
    minimum = is_minimum_function(f)
    freqs = []
    if pr and not lossless and not f.is_zero():
        freqs = minimum_frequencies(f)

    def approx_root(x: Fraction) -> str:
        # the one float prsyn prints; a Decimal of 17 digits where x
        # overflows a float or falls below its normal range
        if sys.float_info.min <= x <= sys.float_info.max:
            return repr(math.sqrt(x))
        return str(decimal.Context(prec=17).sqrt(
            decimal.Decimal(x.numerator) / x.denominator))
    # an irrational w**2 prints as the square root of its bracket's midpoint
    freq_strs = [str(w.exact) if w.exact is not None
                 else (f"sqrt({w.omega2})" if w.omega2 is not None
                       else approx_root(sum(w.bracket) / 2))
                 for w in freqs]
    _emit(args, {
        "positive_real": pr,
        "lossless": lossless,
        "minimum_function": minimum,
        "minimum_frequencies": freq_strs,
    }, f"positive_real={str(pr).lower()} lossless={str(lossless).lower()} "
       f"minimum_function={str(minimum).lower()} "
       f"minimum_frequencies=[{', '.join(freq_strs)}]")
    return 0 if pr else 1


def _cmd_params(args) -> int:
    p = biquad_params(parse_ratfunc(args.function))
    _emit(args, {"K": str(p.K), "omega0": str(p.omega0),
                 "W": str(p.W), "F": str(p.F)},
          f"K={p.K} omega0={p.omega0} W={p.W} F={p.F}")
    return 0


def _cmd_classify(args) -> int:
    p = biquad_params(parse_ratfunc(args.function))
    c = synth.classify_biquad(p)
    _emit(args, {
        "min_storage": c.storage_min,
        "condition": c.condition,
        "witness_netlist": network.serialize_netlist(c.witness_network),
    }, f"min_storage={c.storage_min} condition={c.condition}")
    return 0


def _cmd_synth(args) -> int:
    f = parse_ratfunc(args.function)
    step = synth.theorem2_step(f, args.omega0)
    n = synth.build_seven_element(step, args.which)
    text = network.serialize_netlist(n)
    _emit(args, {"netlist": text, "variant": args.which,
                 "branch": step.variant}, text.rstrip("\n"))
    return 0


def _cmd_impedance(args) -> int:
    n = _load_network(args.netlist)
    h = analysis.impedance(n)
    _emit(args, {"impedance": format_ratfunc(h)}, format_ratfunc(h))
    return 0


def _cmd_phasor(args) -> int:
    n = _load_network(args.netlist)
    drive = None
    if args.current is not None:
        drive = ("current", args.current)
    elif args.voltage is not None:
        drive = ("voltage", args.voltage)
    sol = analysis.phasor_solve(n, args.omega, drive, seed=args.seed)
    residual = analysis.energy_balance(sol)
    payload = {
        "omega": str(sol.frequency),
        "source": {"current": str(sol.source_current),
                   "voltage": str(sol.source_voltage)},
        "elements": {eid: {"current": str(sol.element_currents[eid]),
                           "voltage": str(sol.element_voltages[eid])}
                     for eid in sorted(sol.element_currents)},
        "free_modes": sol.free_modes,
        "energy_residual": str(residual),
    }
    lines = [f"omega={sol.frequency} i={sol.source_current} "
             f"v={sol.source_voltage} residual={residual}"]
    for eid in sorted(sol.element_currents):
        lines.append(f"  {eid}: i={sol.element_currents[eid]} "
                     f"v={sol.element_voltages[eid]}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_blocked(args) -> int:
    n = _load_network(args.netlist)
    rep = analysis.blocked_report(n, args.omega0)
    ok = analysis.blocked_open_short_check(n, rep)
    payload = {
        "omega0": str(rep.omega0),
        "blocked": [sorted(c) for c in rep.blocked],
        "unblocked": sorted(rep.unblocked),
        "blocked_oneport_flags": list(rep.blocked_oneport_flags),
        "draws_disagree": False,           # the blocked test draws nothing
        "open_short_check": ok,
    }
    human = (f"blocked={[sorted(c) for c in rep.blocked]} "
             f"unblocked={sorted(rep.unblocked)} "
             f"oneports={list(rep.blocked_oneport_flags)} "
             f"open_short_check={str(ok).lower()}")
    _emit(args, payload, human)
    return 0 if ok else 1


def _cmd_ss(args) -> int:
    n = _load_network(args.netlist)
    ss = analysis.state_space(n)
    pbh = analysis.pbh_diagnostics(ss)
    payload = {
        "states": list(ss.state_labels),
        "A": [[str(x) for x in row] for row in ss.A],
        "B": [str(x) for x in ss.B],
        "C": [str(x) for x in ss.C],
        "D": str(ss.D),
        "uncontrollable_modes": [str(x) for x in pbh.uncontrollable_modes],
        "unobservable_modes": [str(x) for x in pbh.unobservable_modes],
        "stabilizable": pbh.stabilizable,
    }
    lines = [f"states: {' '.join(ss.state_labels)}"]
    for i, row in enumerate(ss.A):
        lines.append("A[%d] = [%s]" % (i, ", ".join(map(str, row))))
    lines.append("B = [%s]" % ", ".join(map(str, ss.B)))
    lines.append("C = [%s]" % ", ".join(map(str, ss.C)))
    lines.append(f"D = {ss.D}")
    lines.append(f"uncontrollable_modes = [{', '.join(map(str, pbh.uncontrollable_modes))}]")
    lines.append(f"unobservable_modes = [{', '.join(map(str, pbh.unobservable_modes))}]")
    lines.append(f"stabilizable = {str(pbh.stabilizable).lower()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_dual(args) -> int:
    n = _load_network(args.netlist)
    text = network.serialize_netlist(network.dual(n))
    _emit(args, {"netlist": text}, text.rstrip("\n"))
    return 0


def _cmd_invert(args) -> int:
    n = _load_network(args.netlist)
    text = network.serialize_netlist(
        network.frequency_invert(n, args.omega0))
    _emit(args, {"netlist": text}, text.rstrip("\n"))
    return 0


def _cmd_mech(args) -> int:
    n = _load_network(args.netlist)
    if args.reverse:
        out = network.from_mechanical(n)
        grounded = {}
    else:
        out = network.to_mechanical(n)
        grounded = network.report_grounded_capacitors(n)
    text = network.serialize_netlist(out)
    payload = {"netlist": text}
    if grounded:
        payload["grounded_capacitors"] = grounded
    human = text.rstrip("\n")
    if grounded:
        human += "\n# grounded capacitors (mass-replaceable inerters): " + \
            ", ".join(f"{k}={str(v).lower()}" for k, v in sorted(grounded.items()))
    _emit(args, payload, human)
    return 0


def _cmd_verify(args) -> int:
    n = _load_network(args.netlist)
    target = parse_ratfunc(args.function)
    h = analysis.impedance(n)
    ok = h == target
    _emit(args, {"match": ok, "impedance": format_ratfunc(h)},
          f"match={str(ok).lower()}")
    return 0 if ok else 1


def _cmd_batch(args) -> int:
    worst = 0
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            print(f"error: {exc}: {line}", file=sys.stderr)
            code = 2
        else:
            code = main(argv)
        worst = max(worst, code)
    return worst


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line on stderr, without the usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache     # built once: it costs more than most commands take
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="prsyn",
        description="Passive network synthesis for positive-real impedances")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for randomized trajectory draws")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="positive-real / minimum-function tests")
    p.add_argument("function")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("params", help="biquadratic canonical parameters")
    p.add_argument("function")
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("classify", help="least storage count with witness")
    p.add_argument("function")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("synth", help="seven-element realization netlist")
    p.add_argument("function")
    p.add_argument("--which", default="rpfg_first",
                   choices=list(synth.SEVEN_ELEMENT_VARIANTS))
    p.add_argument("--omega0", type=_number, default=None,
                   help="minimum frequency (default: smallest)")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("impedance", help="exact impedance of a netlist")
    p.add_argument("netlist")
    p.set_defaults(fn=_cmd_impedance)

    p = sub.add_parser("phasor", help="sinusoidal trajectory at a frequency")
    p.add_argument("netlist")
    p.add_argument("--omega", type=_number, required=True)
    drive = p.add_mutually_exclusive_group()
    drive.add_argument("--current", type=_phasor, default=None,
                       help="drive current re[,im]")
    drive.add_argument("--voltage", type=_phasor, default=None,
                       help="drive voltage re[,im]")
    p.set_defaults(fn=_cmd_phasor)

    p = sub.add_parser("blocked", help="blocked-subnetwork report at omega0")
    p.add_argument("netlist")
    p.add_argument("--omega0", type=_number, required=True)
    p.set_defaults(fn=_cmd_blocked)

    p = sub.add_parser("ss", help="state-space extraction + PBH diagnostics")
    p.add_argument("netlist")
    p.set_defaults(fn=_cmd_ss)

    p = sub.add_parser("dual", help="dual network netlist")
    p.add_argument("netlist")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("invert", help="frequency-inverted network netlist")
    p.add_argument("netlist")
    p.add_argument("--omega0", type=_number, required=True)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("mech", help="electrical <-> mechanical analogy")
    p.add_argument("netlist")
    p.add_argument("--reverse", action="store_true")
    p.set_defaults(fn=_cmd_mech)

    p = sub.add_parser("verify", help="netlist impedance equals a function")
    p.add_argument("netlist")
    p.add_argument("function")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("batch", help="run newline-delimited commands from stdin")
    p.set_defaults(fn=_cmd_batch)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (PolyratError, network.NetworkError, analysis.AnalysisError,
            synth.SynthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except analysis.InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
