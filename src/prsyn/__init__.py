"""prsyn: synthesis and verification of RLC one-ports for positive-real
impedances, with exact rational arithmetic throughout."""

from .polyrat import (BiquadParams, Omega, Polynomial, QComplex,
                      RationalFunction, biquad_params, biquad_template,
                      eval_ratfunc, format_ratfunc, is_lossless,
                      is_minimum_function, is_positive_real,
                      minimum_frequencies, parse_poly, parse_ratfunc, reduce,
                      sylvester_determinant)
from .network import (Element, Network, OnePort, OpenCircuit, ShortCircuit,
                      cut_vertices, dual, frequency_invert, from_mechanical,
                      has_C_cutset, has_C_path, has_L_cutset, has_L_path,
                      incidence_matrix, is_biconnected, open_oneport,
                      parse_netlist, report_grounded_capacitors,
                      serialize_netlist, short_oneport, to_mechanical)
from .analysis import (BlockReport, CapacitorLoop, InductorCutset,
                       InvariantViolation, PhasorSolution,
                       StateSpace, blocked_open_short_check, blocked_report,
                       energy_balance, impedance, mcmillan_gap,
                       pbh_diagnostics, phasor_solve, ss_impedance,
                       state_space, storage_count)
from .synth import (Classification, Fig2Params, QuartetParams, SynthesisStep,
                    build_named, build_quartet, build_seven_element,
                    classify_biquad, match_minimum_structure,
                    resultant_fixture_check, theorem2_step,
                    verify_theorem2_identity)

__version__ = "0.1.0"
