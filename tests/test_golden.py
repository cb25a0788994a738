"""Kernel outputs pinned to values computed on the scalar draw path, and
report.json pinned byte for byte.

The walk, rwab, sat2, recolour and bilinear start-up kernels draw raw
block words (``RngStream.words``) and compare them against integer bounds
(``rng.below``, ``rng.index_limit``).  Every value below was computed
before that port: most when the kernels still drew one scalar
``next_uniform`` / ``next_index`` call at a time, the direct
``run_challenge`` and ``random_pair`` cases through the float iterator
that stood in for those calls.  So a change that moves any output, or
leaves a stream at another position, fails here even though criterion 11
(reruns of the same code) would still pass.

Each case runs from a chosen start counter (0, 40 or far along the
stream) and pins its headline number, the first 16 hex digits of the
sha256 of the canonical JSON of all its outputs, and the stream's final
``draw_counter``.  Every walk case also runs without recording and must
stop at the same step and word.  Words the pins never meet (rejected
index words, words on a Bernoulli bound) are planted in a stream at the
end of this file and checked against scalar draws.

run_rwab keeps its challenge loop inline, so the ``challenge_*`` cases
now pin the oracle ``run_challenge`` (scalar draws, from the definition)
and the ``rwab_*`` cases pin the kernel, each checked against the oracle's
round loop as well.
"""

import hashlib
import json
import math
from itertools import count

import pytest

from driftlab.bilinear import BilinearParams, run_forgetting, run_search, run_until_opt
from driftlab.experiment import AnalysisBlock, ExperimentConfig, analyze_files, run_experiment
from driftlab.recolour import (
    generate_3colorable,
    random_colouring,
    run_recolour,
    seek_monochromatic_triangle,
)
from driftlab.rng import RngStream, below, index_limit
from driftlab.rwab import run_rwab, sample_change_times
from driftlab.sat2 import generate_planted, random_assignment, run_walk
from driftlab.walks import simulate_biased_walk, simulate_fair_walk, simulate_lazy_walk
from oracles import (
    classes_of,
    clause_satisfied,
    copy_pair,
    edges_of,
    manhattan_distance,
    pair_of,
    pair_with_counts,
    random_pair,
    rls_pd_step,
    run_challenge,
    tuple_comparing_rwab,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _walk_case(simulate, *args, cap):
    def case(seed, start):
        stream = RngStream(master_seed=seed, stream_id=3, draw_counter=start)
        sample, traj = simulate(stream, *args, cap, record=True)
        outputs = [sample.stopping_time, sample.censored, traj.values]
        # the loop without recording must stop at the same step and word
        bare = RngStream(master_seed=seed, stream_id=3, draw_counter=start)
        bare_sample, bare_traj = simulate(bare, *args, cap, record=False)
        assert bare_traj is None
        assert bare_sample == sample
        assert bare.draw_counter == stream.draw_counter
        return sample.stopping_time, _digest(outputs), stream.draw_counter

    return case


def _challenge_case(accounting, mu, a_plus, s_threshold):
    def case(seed, start):
        stream = RngStream(master_seed=seed, stream_id=7, draw_counter=start)
        out = run_challenge(list(mu), a_plus, 1 - a_plus, stream, s_threshold, accounting)
        outputs = [out.a_plus, out.a_minus, out.swap, out.inner_rounds, out.regret.hex()]
        return out.inner_rounds, _digest(outputs), stream.draw_counter

    return case


def _pair_case(n, alpha, beta):
    def case(seed, start):
        stream = RngStream(master_seed=seed, stream_id=13, draw_counter=start)
        # a run of no steps returns its drawn start vector
        start_vector = run_until_opt(BilinearParams(n, alpha, beta), stream, cap=0).classes
        pair = pair_of(start_vector, n)
        outputs = [pair.x.hex(), pair.y.hex(), pair.ones_x, pair.ones_y]
        return pair.ones_x + pair.ones_y, _digest(outputs), stream.draw_counter

    return case


def _rwab_case(accounting, horizon, mu1, mu2, changes):
    # run_rwab keeps no era count, pulls or per-round regret; those come
    # from the reference loop, which must agree with it on the rest
    def case(seed, start):
        stream = RngStream(master_seed=seed, stream_id=5, draw_counter=start)
        times = sample_change_times(stream, horizon, changes)
        ref_stream = RngStream(master_seed=seed, stream_id=5, draw_counter=stream.draw_counter)
        ledger = run_rwab(stream, horizon, mu1, mu2, times, accounting=accounting)
        ref = tuple_comparing_rwab(ref_stream, horizon, mu1, mu2, times, accounting)
        assert (ledger.total_regret, ledger.swaps, ledger.mistakes) == (
            ref.total_regret, ref.swaps, ref.mistakes
        )
        assert (ledger.sub_eras, ledger.rounds) == (ref.sub_eras, ref.rounds)
        assert stream.draw_counter == ref_stream.draw_counter
        outputs = [
            ledger.total_regret.hex(),
            ledger.swaps,
            ledger.mistakes,
            ref.eras,
            ledger.sub_eras,
            ledger.rounds,
            ref.pulls,
            [r.hex() for r in ref.per_round],
        ]
        return ledger.total_regret, _digest(outputs), stream.draw_counter

    return case


def _sat2_case(n, m, cap):
    def case(seed, start):
        stream = RngStream(master_seed=seed, stream_id=9, draw_counter=start)
        clauses, witness = generate_planted(stream, n, m)
        init = random_assignment(stream, n)
        result = run_walk(clauses, init, stream, cap, reference=witness)
        outputs = [
            clauses,
            witness.hex(),
            init.hex(),
            result.assignment.hex(),
            result.iterations,
            result.censored,
            result.trajectory.values,
        ]
        return result.iterations, _digest(outputs), stream.draw_counter

    return case


def _recolour_case(n, edge_prob, cap):
    def case(seed, start):
        stream = RngStream(master_seed=seed, stream_id=11, draw_counter=start)
        adj = generate_3colorable(stream, n, edge_prob)
        init = random_colouring(stream, n)
        result = run_recolour(adj, init, stream, cap, record=True)
        outputs = [
            edges_of(adj),
            init.hex(),
            result.colouring.hex(),
            result.iterations,
            result.censored,
            result.trajectory.values,
        ]
        return result.iterations, _digest(outputs), stream.draw_counter

    return case


CASES = {
    "fair": _walk_case(simulate_fair_walk, 20, 10, cap=10**6),
    "fair_capped": _walk_case(simulate_fair_walk, 40, 20, cap=150),
    "biased": _walk_case(simulate_biased_walk, 50, 0, 0.75, cap=10**6),
    "lazy": _walk_case(simulate_lazy_walk, 10, 10, 0.5, cap=10**6),
    "challenge_mean_gap": _challenge_case("mean_gap", (0.45, 0.55), 0, 4.0),
    "challenge_realized": _challenge_case("realized", (0.45, 0.55), 0, 4.0),
    "challenge_far_mean_gap": _challenge_case("mean_gap", (0.1, 0.9), 0, 6.0),
    "challenge_far_realized": _challenge_case("realized", (0.1, 0.9), 0, 6.0),
    "random_pair": _pair_case(50, 0.5, 0.5),
    "random_pair_long": _pair_case(700, 0.25, 0.75),
    "rwab_mean_gap": _rwab_case("mean_gap", 300, 0.7, 0.3, 4),
    "rwab_realized": _rwab_case("realized", 300, 0.7, 0.3, 4),
    "rwab_close_mean_gap": _rwab_case("mean_gap", 500, 0.55, 0.45, 2),
    "rwab_close_realized": _rwab_case("realized", 500, 0.55, 0.45, 2),
    "sat2": _sat2_case(20, 60, 2400),
    "sat2_capped": _sat2_case(30, 90, 40),
    "recolour": _recolour_case(15, 0.8, 1350),
    "recolour_capped": _recolour_case(21, 0.9, 5),
}

SEEDS = (1, 2024, 7919)
STARTS = (0, 40, 5000)

# case -> {(seed, start): outputs}, computed on the scalar draw path
PINS = {
    "biased": {
        (1, 0): (74, "1c3cbf96f2b19409", 72),
        (1, 40): (70, "8ed3e1215753628e", 109),
        (1, 5000): (82, "03f383b5f55e4d74", 5081),
        (2024, 0): (106, "a3baa47554599d1c", 105),
        (2024, 40): (92, "0026c527198c5252", 131),
        (2024, 5000): (80, "5930050ff538f504", 5079),
        (7919, 0): (110, "b1fd14e5214fb78f", 108),
        (7919, 40): (110, "3ff9c72d57ace434", 148),
        (7919, 5000): (106, "2f2bd8c0b4a75ca6", 5104),
    },
    "challenge_far_mean_gap": {
        (1, 0): (6, "27387d77bdfce14b", 12),
        (1, 40): (7, "ed71a3b6150947c5", 54),
        (1, 5000): (7, "ed71a3b6150947c5", 5014),
        (2024, 0): (7, "ed71a3b6150947c5", 14),
        (2024, 40): (7, "ed71a3b6150947c5", 54),
        (2024, 5000): (7, "ed71a3b6150947c5", 5014),
        (7919, 0): (11, "daa942d01cb0c269", 22),
        (7919, 40): (7, "ed71a3b6150947c5", 54),
        (7919, 5000): (6, "27387d77bdfce14b", 5012),
    },
    "challenge_far_realized": {
        (1, 0): (6, "d2d82ad2813d6358", 12),
        (1, 40): (7, "992dc071fa9e7414", 54),
        (1, 5000): (7, "992dc071fa9e7414", 5014),
        (2024, 0): (7, "992dc071fa9e7414", 14),
        (2024, 40): (7, "992dc071fa9e7414", 54),
        (2024, 5000): (7, "992dc071fa9e7414", 5014),
        (7919, 0): (11, "d71cdd020012c230", 22),
        (7919, 40): (7, "992dc071fa9e7414", 54),
        (7919, 5000): (6, "d2d82ad2813d6358", 5012),
    },
    "challenge_mean_gap": {
        (1, 0): (13, "0f0bcc79ca3220df", 26),
        (1, 40): (1, "551e7a9280c62858", 42),
        (1, 5000): (1, "551e7a9280c62858", 5002),
        (2024, 0): (2, "0016ef5032d918fc", 4),
        (2024, 40): (2, "0016ef5032d918fc", 44),
        (2024, 5000): (1, "551e7a9280c62858", 5002),
        (7919, 0): (41, "448e0fe1b70d8b63", 82),
        (7919, 40): (4, "3842c625a4935886", 48),
        (7919, 5000): (1, "551e7a9280c62858", 5002),
    },
    "challenge_realized": {
        (1, 0): (13, "c8de5b84209461ac", 26),
        (1, 40): (1, "a469a775f8821b1e", 42),
        (1, 5000): (1, "a469a775f8821b1e", 5002),
        (2024, 0): (2, "0c5298c37e5cec86", 4),
        (2024, 40): (2, "0c5298c37e5cec86", 44),
        (2024, 5000): (1, "a469a775f8821b1e", 5002),
        (7919, 0): (41, "66a272c9b65f4e05", 82),
        (7919, 40): (4, "f93f798e3b46deec", 48),
        (7919, 5000): (1, "a469a775f8821b1e", 5002),
    },
    "fair": {
        (1, 0): (46, "493ac08db1f99aa7", 46),
        (1, 40): (22, "8298baed36d07209", 62),
        (1, 5000): (146, "8e852fd7fd674dd6", 5146),
        (2024, 0): (76, "a67e3cb1c9a62d84", 76),
        (2024, 40): (36, "5352bc6071b75104", 76),
        (2024, 5000): (54, "faf38fb652ae6169", 5054),
        (7919, 0): (46, "4feffd5399759b7a", 46),
        (7919, 40): (12, "361392954dec288e", 52),
        (7919, 5000): (138, "a5437e81eb69a437", 5138),
    },
    "fair_capped": {
        (1, 0): (64, "6bc5bbff9550f940", 64),
        (1, 40): (76, "a2a7a4d70743b155", 116),
        (1, 5000): (150, "161049bacdc7bef9", 5150),
        (2024, 0): (150, "e201de7ace59b111", 150),
        (2024, 40): (120, "59e9fe07cce2f387", 160),
        (2024, 5000): (150, "abc22a2ece57f62e", 5150),
        (7919, 0): (74, "12bdffdf5fa17c6e", 74),
        (7919, 40): (82, "66b37c719ecc3787", 122),
        (7919, 5000): (150, "2eb1ca5aa6b9e1a1", 5150),
    },
    "lazy": {
        (1, 0): (33, "83fded21e8a23013", 33),
        (1, 40): (50, "be7a7eeead775122", 90),
        (1, 5000): (165, "81dc4e55528c5f6f", 5165),
        (2024, 0): (143, "5f688688e1af4e8a", 143),
        (2024, 40): (103, "1065071acd343bc1", 143),
        (2024, 5000): (109, "72ff9689be4ca15d", 5109),
        (7919, 0): (241, "31613896187a9c91", 241),
        (7919, 40): (201, "bae6304f638a0391", 241),
        (7919, 5000): (68, "cb3e9f7925ece192", 5068),
    },
    "random_pair": {
        (1, 0): (45, "5a007c04e3752622", 100),
        (1, 40): (43, "7cc62cfd41fa522f", 140),
        (1, 5000): (47, "0bd234cbcaf1833e", 5100),
        (2024, 0): (64, "6582169ed3b3d5d5", 100),
        (2024, 40): (59, "0385ff08da4fcf5f", 140),
        (2024, 5000): (46, "c4d05944490897ab", 5100),
        (7919, 0): (53, "4602ba373dc268d1", 100),
        (7919, 40): (44, "6e9f7ab807eac844", 140),
        (7919, 5000): (50, "1a23346c719c7fe8", 5100),
    },
    "random_pair_long": {
        (1, 0): (658, "8fee02ae8d1a91c2", 1400),
        (1, 40): (658, "9e96cb3be98b26a8", 1440),
        (1, 5000): (705, "d7a30f08e7a583e4", 6400),
        (2024, 0): (720, "eea71d9c9ff36a9e", 1400),
        (2024, 40): (718, "555c81076b35511c", 1440),
        (2024, 5000): (700, "7ebf59c606435321", 6400),
        (7919, 0): (722, "ac0208c8fc5dc886", 1400),
        (7919, 40): (722, "8d626c2cd8f159de", 1440),
        (7919, 5000): (668, "81f29189c0756e89", 6400),
    },
    "recolour": {
        (1, 0): (15, "62535d276a7d5cb2", 105),
        (1, 40): (11, "636eb14bca962d22", 141),
        (1, 5000): (34, "75e95ec8709ff3ab", 5124),
        (2024, 0): (10, "dee742119ca18b17", 100),
        (2024, 40): (9, "1c147d90c01c0f75", 139),
        (2024, 5000): (6, "6f00d0f7241681ff", 5096),
        (7919, 0): (6, "bc6e792329cb7db6", 96),
        (7919, 40): (6, "137270ed26c8fe3a", 136),
        (7919, 5000): (5, "0e9682e7783534c4", 5095),
    },
    "recolour_capped": {
        (1, 0): (5, "22fc8d667d563c79", 173),
        (1, 40): (5, "eccbdfb0617c7bcf", 213),
        (1, 5000): (5, "8f9073edbe5ffd53", 5173),
        (2024, 0): (5, "cceb67e50d4688de", 173),
        (2024, 40): (5, "a24c665ca88831a8", 213),
        (2024, 5000): (5, "6100039c3b989d85", 5173),
        (7919, 0): (5, "42da58290b02c9ce", 173),
        (7919, 40): (5, "3c18e9a9d62b1bb0", 213),
        (7919, 5000): (5, "459586f57469afdd", 5173),
    },
    "rwab_close_mean_gap": {
        (1, 0): (25.599999999999977, "1c9dbba5ffff90a8", 1828),
        (1, 40): (34.99999999999998, "6724006b059d0f22", 1920),
        (1, 5000): (31.89999999999993, "75fb18c116993f78", 6220),
        (2024, 0): (33.49999999999997, "785b73ecf43a4648", 1654),
        (2024, 40): (37.099999999999994, "f7e616abe8d541f0", 1460),
        (2024, 5000): (35.29999999999999, "3083fb203645a95e", 6566),
        (7919, 0): (58.800000000000125, "afaed2e587c27644", 1842),
        (7919, 40): (44.60000000000019, "fc9c53dd24e34e4f", 1952),
        (7919, 5000): (43.30000000000005, "5fc07a9794c9e12e", 6560),
    },
    "rwab_close_realized": {
        (1, 0): (-4.0, "a283361189645d03", 1758),
        (1, 40): (25.0, "c73dc2a790811bf3", 2222),
        (1, 5000): (8.0, "e60a5b1fa632064c", 6660),
        (2024, 0): (39.0, "d526474a8ef8a52a", 1828),
        (2024, 40): (34.0, "65035e70b92b0566", 2146),
        (2024, 5000): (37.0, "4f59b7401a4b1fb6", 7068),
        (7919, 0): (24.0, "b0c690976f2af9af", 1708),
        (7919, 40): (49.0, "c95be9c490dcfbd2", 2078),
        (7919, 5000): (55.0, "fabe5f762721e195", 7361),
    },
    "rwab_mean_gap": {
        (1, 0): (30.4, "519b6d5b5bcccfe1", 584),
        (1, 40): (23.200000000000003, "56319380fa72d4f8", 582),
        (1, 5000): (65.99999999999993, "6a01965fbaaed263", 5566),
        (2024, 0): (29.20000000000001, "6713eacbd34ba208", 544),
        (2024, 40): (59.59999999999997, "5f55f267021b1645", 702),
        (2024, 5000): (46.799999999999976, "a42abf90c3af939b", 5574),
        (7919, 0): (25.20000000000001, "a6a925f70e0c0fb1", 552),
        (7919, 40): (40.4, "8b938e4c3a5ae0fb", 660),
        (7919, 5000): (45.60000000000001, "7ebcc0469b77d107", 5680),
    },
    "rwab_realized": {
        (1, 0): (21.0, "c21772b06c19be68", 866),
        (1, 40): (29.0, "68b541ed8b0b8b39", 889),
        (1, 5000): (48.0, "dc140b1cbddce38e", 5898),
        (2024, 0): (45.0, "ea33350db59244dc", 899),
        (2024, 40): (50.0, "14e1933082d06643", 901),
        (2024, 5000): (46.0, "94c42d364797eb36", 5862),
        (7919, 0): (24.0, "bb5f483d41bc368f", 803),
        (7919, 40): (50.0, "392ff50cc5333a02", 961),
        (7919, 5000): (50.0, "4e21dcd7c77c17ba", 5930),
    },
    "sat2": {
        (1, 0): (16, "0ce9d5d0907bc8d9", 386),
        (1, 40): (46, "9ad74e41153b71a2", 432),
        (1, 5000): (44, "1603fbd26e3da5a5", 5420),
        (2024, 0): (31, "79ae81a92060b722", 455),
        (2024, 40): (56, "5735de609f516e9c", 496),
        (2024, 5000): (24, "55fd040483ff3734", 5430),
        (7919, 0): (67, "fcfe15f076b4c5c2", 415),
        (7919, 40): (19, "f84964f7e7129580", 429),
        (7919, 5000): (60, "0eb1cb91000a1d1b", 5412),
    },
    "sat2_capped": {
        (1, 0): (19, "ca2985299cc918a5", 539),
        (1, 40): (40, "a479c61250c72ed4", 604),
        (1, 5000): (26, "ba7ad58b6920f8ac", 5552),
        (2024, 0): (40, "d91817d296edb8d1", 552),
        (2024, 40): (32, "1ba1c9cf99c32e15", 582),
        (2024, 5000): (40, "7c80c99144afd18d", 5624),
        (7919, 0): (40, "cc17e627a60de832", 578),
        (7919, 40): (40, "4d42c22dd4d0b174", 618),
        (7919, 5000): (40, "a1d40424c5e769bb", 5580),
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_outputs_match_scalar_path_pins(name):
    got = {(seed, start): CASES[name](seed, start) for seed in SEEDS for start in STARTS}
    assert got == PINS[name]


# ---------------------------------------------------------------------------
# report.json, byte for byte: the section order, the field order inside each
# section and the number formats.  One run has every section, one has every
# section null, and one re-analysis has a step tail whose envelopes overflow.

FULL_REPORT = """\
{
  "sample_count": 6,
  "censored_count": 0,
  "summary_table": {
    "mean": 3.0,
    "freq_at_multiples": {
      "0.5": 0.0,
      "1.0": 0.8333333333333334,
      "2.5": 0.8333333333333334
    },
    "censored_count": 0,
    "sample_count": 6
  },
  "tail_report": {
    "confidence": 0.5,
    "margin": 0.24033781443348048,
    "sample_count": 6,
    "violated": true,
    "grid": [
      {
        "tau": 2.0,
        "empirical_survival": 1.0,
        "theoretical_bound": 0.4791417087880153,
        "hoeffding_upper": 0.7194795232214958,
        "violated": true
      },
      {
        "tau": 8.5,
        "empirical_survival": 0.0,
        "theoretical_bound": 0.04385023285318138,
        "hoeffding_upper": 0.28418804728666186,
        "violated": false
      }
    ]
  },
  "drift_estimate": {
    "mean_drift": -0.2222222222222222,
    "second_moment": 1.0,
    "transitions": 18,
    "per_state_mean": {
      "1": -0.6,
      "2": -0.1111111111111111,
      "3": 0.0
    }
  },
  "step_tail_fit": {
    "r": 2.7,
    "eta": 1.7,
    "max_violation": 0.0,
    "range_constant": 2.7183440023640877
  }
}
"""

NULL_REPORT = """\
{
  "sample_count": 3,
  "censored_count": 3,
  "summary_table": null,
  "tail_report": null,
  "drift_estimate": null,
  "step_tail_fit": null
}
"""

OVERFLOW_REPORT = """\
{
  "sample_count": 1,
  "censored_count": 0,
  "summary_table": {
    "mean": 1.0,
    "freq_at_multiples": {
      "1.0": 1.0
    },
    "censored_count": 0,
    "sample_count": 1
  },
  "tail_report": null,
  "drift_estimate": {
    "mean_drift": 20000.0,
    "second_moment": 400000000.0,
    "transitions": 1,
    "per_state_mean": {
      "0": 20000.0
    }
  },
  "step_tail_fit": null
}
"""


def _run_report(tmp_path, **overrides) -> str:
    obj = {
        "kind": "synthetic_fair",
        "params": {"b": 4, "x0": 2},
        "master_seed": 7,
        "record_trajectories": True,
        "output_dir": str(tmp_path / "out"),
        **overrides,
    }
    artifacts = run_experiment(ExperimentConfig.from_dict(obj))
    with open(artifacts.report_path) as fh:
        return fh.read()


def test_report_with_every_section_is_byte_equal(tmp_path):
    analysis = {
        "k_list": [0.5, 1, 2.5],
        "tau_grid": [2, 8.5],
        "histogram_bins": 3,
        "confidence": 0.5,
        "bound": {"kind": "TwoAbsorbing", "b": 4, "x0": 2, "delta": 8},
    }
    text = _run_report(tmp_path, runs=6, cap=1000, analysis=analysis)
    assert text == FULL_REPORT


def test_report_with_every_section_null_is_byte_equal(tmp_path):
    # cap 0: every run is censored and every trajectory is one value
    assert _run_report(tmp_path, runs=3, cap=0) == NULL_REPORT


def test_reanalysis_with_an_overflowing_step_tail_is_byte_equal(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("run_id,seed,stopping_time,censored\n0,0,1,false\n")
    trajectories = tmp_path / "trajectories"
    trajectories.mkdir()
    (trajectories / "run_00000.csv").write_text("step,value\n0,0\n1,20000\n")
    artifacts = analyze_files(str(samples), AnalysisBlock(k_list=(1.0,)), str(trajectories))
    with open(artifacts.report_path) as fh:
        assert fh.read() == OVERFLOW_REPORT


# ---------------------------------------------------------------------------
# Words the pins never meet.  Rejected index words turn up about once in
# 2**64 / k draws, and a word equal to a Bernoulli bound about once in
# 2**11 draws per bound, so the kernels are also run on streams with such
# words planted at chosen positions, against the scalar draws the pins
# were computed with.


class _Rigged(RngStream):
    """A stream whose word at each position in planted (position -> word) is replaced."""

    def __init__(self, seed, start, planted):
        super().__init__(master_seed=seed, stream_id=17, draw_counter=start)
        self.planted = planted

    def next_u64(self):
        n = self.draw_counter
        return self.planted.get(n, super().next_u64())

    def words(self):
        return map(self.planted.get, count(self.draw_counter), super().words())


TOP = (1 << 64) - 1


def _planted_by_scalar_draws(stream, n, m):
    witness = bytes(1 if stream.next_uniform() < 0.5 else 0 for _ in range(n))
    clauses = []
    while len(clauses) < m:
        u, v = stream.next_index(n), stream.next_index(n)
        if u != v:
            clause = ((u, bool(stream.next_index(2))), (v, bool(stream.next_index(2))))
            if clause_satisfied(clause, witness):
                clauses.append(clause)
    return witness, tuple(clauses)


@pytest.mark.parametrize("n", [3, 6, 7])
@pytest.mark.parametrize("start", STARTS)
def test_generate_planted_matches_scalar_draws_through_rejected_words(n, start):
    # index_limit(6) is 2**64 - 4, so TOP - 3 is rejected and TOP - 4 kept;
    # every position after the witness holds a rejected word, a kept word
    # at the limit's edge, or (one in three) the stream's own word
    limit = index_limit(n)
    edge = [TOP, limit - 1, limit, None]
    planted = {start + n + i: edge[i % 4] for i in range(300) if i % 3 and edge[i % 4] is not None}
    planted[start] = below(0.5)  # the first witness bit, on its bound
    fast, slow = _Rigged(5, start, planted), _Rigged(5, start, planted)
    clauses, witness = generate_planted(fast, n, 40)
    assert (witness, clauses) == _planted_by_scalar_draws(slow, n, 40)
    assert fast.draw_counter == slow.draw_counter
    assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("start", STARTS)
def test_recolour_pick_matches_next_index_through_rejected_words(start):
    adj = generate_3colorable(RngStream(master_seed=3, stream_id=1), 15, 0.8)
    init = random_colouring(RngStream(master_seed=3, stream_id=2), 15)
    # index_limit(3) is 2**64 - 1: TOP is the one rejected word
    planted = {start + i: TOP for i in range(0, 60, 4)}
    planted.update({start + i: TOP - 1 for i in range(1, 60, 8)})
    fast, slow = _Rigged(7, start, planted), _Rigged(7, start, planted)
    result = run_recolour(adj, init, fast, 1000)
    colouring, t = bytearray(init), 0
    while (tri := seek_monochromatic_triangle(adj, colouring)) is not None:
        colouring[tri[slow.next_index(3)]] ^= 1
        t += 1
    assert (result.colouring, result.iterations) == (colouring, t)
    assert fast.draw_counter == slow.draw_counter


@pytest.mark.parametrize("start", STARTS)
def test_change_times_match_next_index_through_rejected_words(start):
    # TOP is rejected for each pool size that is not a power of two, and
    # limit - 1 is the last word kept for a pool of 29
    planted = {start + i: TOP for i in range(0, 40, 3)}
    planted[start + 1] = index_limit(29) - 1
    fast, slow = _Rigged(13, start, planted), _Rigged(13, start, planted)
    pool = list(range(2, 31))
    for i in range(20):
        j = i + slow.next_index(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    assert sample_change_times(fast, 30, 20) == tuple(sorted(pool[:20]))
    assert fast.draw_counter == slow.draw_counter


def _lazy_by_scalar_draws(stream, b, x0, delta):
    x, t = x0, 0
    while x > 0:
        u = stream.next_uniform()
        if x == b:
            x -= u < delta
        elif u < delta / 2.0:
            x -= 1
        elif u < delta:
            x += 1
        t += 1
    return t


@pytest.mark.parametrize("delta", [0.5, 0.3, 1.0])
@pytest.mark.parametrize("start", STARTS)
def test_walk_steps_match_scalar_draws_on_bound_words(delta, start):
    # every other word sits on one of the lazy walk's two bounds or just
    # below it, where an off-by-one comparison would move differently
    bounds = (below(delta / 2.0), below(delta))
    edges = [w for bound in bounds for w in (bound, bound - 1) if w <= TOP]
    planted = {start + i: edges[i // 2 % len(edges)] for i in range(0, 4000, 2)}
    fast, slow = _Rigged(11, start, planted), _Rigged(11, start, planted)
    sample, _ = simulate_lazy_walk(fast, 6, 3, delta, 10**6)
    assert sample.stopping_time == _lazy_by_scalar_draws(slow, 6, 3, delta)
    assert fast.draw_counter == slow.draw_counter


def _plain_step(params, pair, stream):
    """One next_index(2n) step under the plain payoff, by its dominance chain."""

    def value(ox, oy):
        return oy * (ox - params.bn) - params.an * ox

    pos = stream.next_index(2 * params.n)
    cand = copy_pair(pair)
    bits = cand.x if pos < params.n else cand.y
    bits[pos % params.n] ^= 1
    cand.ones_x, cand.ones_y = sum(cand.x), sum(cand.y)
    if value(cand.ones_x, pair.ones_y) >= value(cand.ones_x, cand.ones_y) >= value(
        pair.ones_x, cand.ones_y
    ):
        return cand
    return pair


# (mode, threshold): forgetting at n = 6 reaches distance 4 after 72-294
# steps here and never reaches 6, so that run stops at the cap
SEARCHES = [("plain", math.inf), ("corrected", math.inf), ("forgetting", 4), ("forgetting", 6)]


@pytest.mark.parametrize("mode, hi", SEARCHES)
@pytest.mark.parametrize("start", STARTS)
def test_bilinear_search_matches_next_index_through_rejected_words(mode, hi, start):
    # n = 6 flips one of k = 12 positions; index_limit(12) is 2**64 - 4, so
    # TOP and limit are rejected and limit - 1 is the last word kept.  Every
    # other word is planted, and words 1-3 are three rejected words in a row.
    params = BilinearParams(n=6, alpha=0.5, beta=0.5)
    limit = index_limit(12)
    edge = (TOP, limit, limit - 1)
    planted = {start + i: edge[i // 2 % 3] for i in range(0, 3000, 2)}
    planted.update({start + i: TOP for i in (1, 2, 3)})
    fast, slow = _Rigged(19, start, planted), _Rigged(19, start, planted)
    cap = 1000
    if mode == "forgetting":
        lo = -1
        result = run_forgetting(params, fast, hi, cap)
        pair = pair_with_counts(params, params.bn, params.an)
    else:
        lo = 0
        pair = random_pair(RngStream(19, stream_id=1), params)
        result = run_search(params, fast, classes_of(pair), cap, 0, math.inf, mode == "plain")
    step = _plain_step if mode == "plain" else lambda *args: rls_pd_step(*args)[0]
    t = 0
    while lo < manhattan_distance(params, pair) < hi and t < cap:
        pair = step(params, pair, slow)
        t += 1
    assert fast.draw_counter - start > result.iterations + 3  # rejected words were met
    assert result.iterations == t
    assert result.classes == classes_of(pair)
    assert fast.draw_counter == slow.draw_counter
    assert fast.next_u64() == slow.next_u64()
