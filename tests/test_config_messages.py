"""The full ConfigError message of each single-fault config document.

Every case starts from a complete, valid document and changes one thing:
one field set to a bad value, one field deleted, or one unknown key added.
The message a user sees is the whole contract here, so each case asserts
it byte for byte, not a fragment of it.
"""

import copy
import json
import math
import reprlib

import pytest

from driftlab.cli import main
from driftlab.errors import ConfigError
from driftlab.experiment import AnalysisBlock, ExperimentConfig


class _Delete:
    """Marks a key to delete; its fixed repr keeps the test ids stable."""

    def __repr__(self):
        return "DELETE"


DELETE = _Delete()

# every key each kind's params accept, set
PARAMS = {
    "synthetic_fair": {"b": 4, "x0": 2},
    "synthetic_biased": {"b": 4, "x0": 2, "p_up": 0.75},
    "synthetic_lazy": {"b": 4, "x0": 2, "delta": 0.5},
    "sat2": {"n": 10, "m": 25},
    "recolour": {"n": 10, "edge_prob": 0.5},
    "rlspd": {"n": 10, "alpha": 0.5, "beta": 0.5, "payoff": "corrected"},
    "rlspd_forgetting": {"n": 10, "alpha": 0.5, "beta": 0.5, "A": 1.0, "B": 1.0},
    "rwab": {"horizon": 60, "changes": 2, "mu1": 0.2, "mu2": 0.8, "accounting": "realized"},
}

ADDITIVE = {"kind": "Additive", "b": 10.0, "x0": 0.0, "epsilon": 1.0}


def full_config(kind):
    """A valid config of kind that sets every optional key."""
    return {
        "kind": kind,
        "params": copy.deepcopy(PARAMS[kind]),
        "runs": 3,
        "master_seed": 5,
        "output_dir": "out",
        "cap": 100,
        "record_trajectories": kind != "rwab",
        "workers": 1,
        "analysis": {
            "k_list": [1.0, 2.0],
            "tau_grid": [1.0, 5.0],
            "confidence": 0.9,
            "bound": dict(ADDITIVE),
            "histogram_bins": 3,
        },
    }


def case_ids(rows):
    """An id per row, from its document change alone, never its index."""
    ids = ["-".join(reprlib.repr(part) for part in row[:-1]) for row in rows]
    assert len(set(ids)) == len(ids), "two rows share a test id"
    return ids


def changed(obj, path, value):
    """obj with the key at the dotted path set to value, or deleted."""
    *outer, key = path.split(".")
    holder = obj
    for name in outer:
        holder = holder[name]
    if value is DELETE:
        del holder[key]
    else:
        holder[key] = value
    return obj


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_every_full_config_is_accepted(kind):
    ExperimentConfig.from_dict(full_config(kind))


CHOOSE_KIND = (
    "choose from sat2, recolour, rlspd, rlspd_forgetting, rwab, "
    "synthetic_fair, synthetic_biased, synthetic_lazy"
)
CHOOSE_BOUND = (
    "choose from ('NegativeDriftVariance', 'StandardVariance', 'TwoAbsorbing', "
    "'Additive', 'KotzingPolynomial')"
)
ENDLESS = {"horizon": 50, "changes": 2, "mu1": 1.0, "mu2": 1.0}
NEVER_PAYS = dict(ENDLESS, mu1=0.0, mu2=0.0)
SLOW = {"horizon": 50, "changes": 2, "mu1": 1e-9, "mu2": 1e-9}

CONFIG_CASES = [
    # the top-level fields
    ("synthetic_fair", "extra_field", 1, "config: unknown field(s) extra_field"),
    ("synthetic_fair", "kind", DELETE, "config.kind: required field is missing"),
    ("synthetic_fair", "kind", 3, "config.kind: expected a string, got 3"),
    (
        "synthetic_fair",
        "kind",
        "synthetic_unfair",
        f"config.kind: unknown kind 'synthetic_unfair'; {CHOOSE_KIND}",
    ),
    ("synthetic_fair", "runs", DELETE, "config.runs: required field is missing"),
    ("synthetic_fair", "runs", True, "config.runs: expected an integer, got True"),
    ("synthetic_fair", "runs", 2.5, "config.runs: expected an integer, got 2.5"),
    ("synthetic_fair", "runs", 0, "config.runs: must be at least 1"),
    ("synthetic_fair", "runs", 10**7 + 1, "config.runs: must be at most 10**7 = 10000000"),
    ("synthetic_fair", "runs", 10**400, "config.runs: must be at most 10**7 = 10000000"),
    ("synthetic_fair", "master_seed", DELETE, "config.master_seed: required field is missing"),
    ("synthetic_fair", "master_seed", "5", "config.master_seed: expected an integer, got '5'"),
    ("synthetic_fair", "master_seed", -1, "config.master_seed: must fit in 64 unsigned bits"),
    ("synthetic_fair", "master_seed", 2**64, "config.master_seed: must fit in 64 unsigned bits"),
    ("synthetic_fair", "output_dir", DELETE, "config.output_dir: required field is missing"),
    ("synthetic_fair", "output_dir", 7, "config.output_dir: expected a string, got 7"),
    ("synthetic_fair", "output_dir", None, "config.output_dir: expected a string, got None"),
    ("synthetic_fair", "cap", DELETE, "config.cap: required for this kind"),
    ("sat2", "cap", None, "config.cap: required for this kind"),
    ("synthetic_fair", "cap", "100", "config.cap: expected an integer, got '100'"),
    ("synthetic_fair", "cap", -1, "config.cap: must be nonnegative"),
    ("synthetic_fair", "cap", 10**11 + 1, "config.cap: must be at most 10**11 = 100000000000"),
    ("synthetic_lazy", "cap", 10**400, "config.cap: must be at most 10**11 = 100000000000"),
    (
        "synthetic_fair",
        "cap",
        10**11 // 3 + 1,
        "config.runs: runs x cap must be at most 10**11 = 100000000000 steps",
    ),
    (
        "synthetic_fair",
        "record_trajectories",
        1,
        "config.record_trajectories: expected a boolean, got 1",
    ),
    (
        "rwab",
        "record_trajectories",
        True,
        "config.record_trajectories: rwab records no trajectories",
    ),
    ("synthetic_fair", "workers", 0, "config.workers: must be at least 1"),
    ("synthetic_fair", "workers", False, "config.workers: expected an integer, got False"),
    ("synthetic_fair", "params", [4, 2], "config.params: expected an object, got [4, 2]"),
    ("synthetic_fair", "params", DELETE, "config.params.b: required field is missing"),
    ("synthetic_fair", "params.x0", DELETE, "config.params.x0: required field is missing"),
    ("sat2", "params", None, "config.params.n: required field is missing"),
    ("synthetic_fair", "analysis", 3, "analysis: expected an object, got 3"),
    # the walks
    ("synthetic_fair", "params.mystery", 1, "config.params: unknown field(s) mystery"),
    ("synthetic_fair", "params.b", DELETE, "config.params.b: required field is missing"),
    ("synthetic_fair", "params.x0", "2", "config.params.x0: expected an integer, got '2'"),
    (
        "synthetic_fair",
        "params.b",
        2**53 + 1,
        "config.params.b: must be at most 2**53 = 9007199254740992",
    ),
    ("synthetic_fair", "params.b", 0, "config.params: need b >= 1 and 0 <= x0 <= b"),
    ("synthetic_fair", "params.x0", 9, "config.params: need b >= 1 and 0 <= x0 <= b"),
    ("synthetic_fair", "params.x0", -1, "config.params: need b >= 1 and 0 <= x0 <= b"),
    ("synthetic_biased", "params.p_up", 0.5, "config.params.p_up: must lie in (0.5, 1]"),
    ("synthetic_biased", "params.p_up", 1.5, "config.params.p_up: must lie in (0.5, 1]"),
    ("synthetic_biased", "params.p_up", math.nan, "config.params.p_up: expected a finite number"),
    ("synthetic_biased", "params.p_up", 10**400, "config.params.p_up: expected a finite number"),
    (
        "synthetic_biased",
        "params.p_up",
        "high",
        "config.params.p_up: expected a number, got 'high'",
    ),
    ("synthetic_biased", "params.p_up", DELETE, "config.params.p_up: required field is missing"),
    ("synthetic_biased", "params.delta", 0.5, "config.params: unknown field(s) delta"),
    ("synthetic_lazy", "params.delta", 0.0, "config.params.delta: must lie in (0, 1]"),
    ("synthetic_lazy", "params.delta", math.inf, "config.params.delta: expected a finite number"),
    ("synthetic_lazy", "params.p_up", 0.75, "config.params: unknown field(s) p_up"),
    # sat2 and recolour
    ("sat2", "params.n", 1, "config.params.n: must be at least 2"),
    ("sat2", "params.m", 0, "config.params.m: must be at least 1"),
    ("sat2", "params.m", DELETE, "config.params.m: required field is missing"),
    ("sat2", "params.m", 2.0, "config.params.m: expected an integer, got 2.0"),
    ("sat2", "params.k", 3, "config.params: unknown field(s) k"),
    ("sat2", "params.n", 10**400, "config.params.n: must be at most 10**7 = 10000000"),
    ("sat2", "params.m", 10**7 + 1, "config.params.m: must be at most 10**7 = 10000000"),
    ("recolour", "params.n", 2, "config.params.n: must be at least 3"),
    (
        "recolour",
        "params.n",
        4473,
        "config.params.n: n * (n - 1) / 2 vertex pairs must be at most 10**7 = 10000000",
    ),
    ("recolour", "params.edge_prob", 1.5, "config.params.edge_prob: must lie in [0, 1]"),
    ("recolour", "params.edge_prob", -0.5, "config.params.edge_prob: must lie in [0, 1]"),
    (
        "recolour",
        "params.edge_prob",
        math.nan,
        "config.params.edge_prob: expected a finite number",
    ),
    ("recolour", "params.p", 0.5, "config.params: unknown field(s) p"),
    # the bilinear kinds: BilinearParams's own ValueError, wrapped
    ("rlspd", "params.alpha", 0.55, "config.params: alpha * n must be integral, got 5.5"),
    ("rlspd", "params.n", 1, "config.params: need n >= 2"),
    ("rlspd", "params.beta", 1.0, "config.params: beta must lie in (0, 1), got 1.0"),
    ("rlspd", "params.n", 10**400, "config.params: int too large to convert to float"),
    ("rlspd", "params.n", 10**12, "config.params.n: must be at most 10**7 = 10000000"),
    ("rlspd", "params.alpha", -math.inf, "config.params.alpha: expected a finite number"),
    ("rlspd", "params.alpha", DELETE, "config.params.alpha: required field is missing"),
    ("rlspd", "params.payoff", "bare", "config.params.payoff: choose from plain, corrected"),
    ("rlspd", "params.payoff", 1, "config.params.payoff: expected a string, got 1"),
    ("rlspd", "params.A", 1.0, "config.params: unknown field(s) A"),
    ("rlspd_forgetting", "params.A", 0.0, "config.params: A and B must be positive"),
    ("rlspd_forgetting", "params.B", -1.0, "config.params: A and B must be positive"),
    ("rlspd_forgetting", "params.A", math.nan, "config.params.A: expected a finite number"),
    ("rlspd_forgetting", "params.B", DELETE, "config.params.B: required field is missing"),
    ("rlspd_forgetting", "params.n", 3, "config.params: alpha * n must be integral, got 1.5"),
    ("rlspd_forgetting", "params.payoff", "plain", "config.params: unknown field(s) payoff"),
    (
        "rlspd_forgetting",
        "params.n",
        10**7 + 2,
        "config.params.n: must be at most 10**7 = 10000000",
    ),
    # the bandit, with check_challenges_end's ValueError wrapped
    ("rwab", "params.horizon", 1, "config.params.horizon: must be at least 2"),
    ("rwab", "params.changes", 59, "config.params.changes: must lie in [1, horizon - 2]"),
    ("rwab", "params.changes", 0, "config.params.changes: must lie in [1, horizon - 2]"),
    ("rwab", "params.mu1", 1.5, "config.params.mu1: must lie in [0, 1]"),
    ("rwab", "params.mu2", -0.5, "config.params.mu2: must lie in [0, 1]"),
    ("rwab", "params.mu1", math.nan, "config.params.mu1: expected a finite number"),
    ("rwab", "params.mu2", DELETE, "config.params.mu2: required field is missing"),
    (
        "rwab",
        "params.accounting",
        "hopeful",
        "config.params.accounting: choose from mean_gap, realized",
    ),
    ("rwab", "params.accounting", 0, "config.params.accounting: expected a string, got 0"),
    ("rwab", "params.horizon", 10**400, "config.params: int too large to convert to float"),
    ("rwab", "params.cap", 5, "config.params: unknown field(s) cap"),
    ("rwab", "params", ENDLESS, "config.params: mu1 == mu2 == 1.0 makes every challenge endless"),
    (
        "rwab",
        "params",
        NEVER_PAYS,
        "config.params: mu1 == mu2 == 0.0 makes every challenge endless",
    ),
    (
        "rwab",
        "params",
        SLOW,
        "config.params: mu1 = 1e-09, mu2 = 1e-09 move a challenge's walk with "
        "probability 2e-09, so a run would need ~2.5e+10 challenge iterations (limit 1e+08)",
    ),
    # the analysis block keeps the names it has as a document of its own
    ("synthetic_fair", "analysis.surprise", 1, "analysis: unknown field(s) surprise"),
    (
        "synthetic_fair",
        "analysis.k_list",
        2.0,
        "analysis.k_list: expected a list of positive numbers",
    ),
    (
        "synthetic_fair",
        "analysis.k_list",
        [1.0, -2.0],
        "analysis.k_list: expected a list of positive numbers",
    ),
    (
        "synthetic_fair",
        "analysis.k_list",
        [0],
        "analysis.k_list: expected a list of positive numbers",
    ),
    ("synthetic_fair", "analysis.k_list", ["a"], "analysis.k_list: expected a number, got 'a'"),
    ("synthetic_fair", "analysis.k_list", [math.nan], "analysis.k_list: expected a finite number"),
    (
        "synthetic_fair",
        "analysis.tau_grid",
        "1",
        "analysis.tau_grid: expected a list of nonnegative numbers",
    ),
    (
        "synthetic_fair",
        "analysis.tau_grid",
        [-1.0],
        "analysis.tau_grid: expected a list of nonnegative numbers",
    ),
    (
        "synthetic_fair",
        "analysis.tau_grid",
        [10**400],
        "analysis.tau_grid: expected a finite number",
    ),
    (
        "synthetic_fair",
        "analysis.confidence",
        1.0,
        "analysis.confidence: must lie strictly between 0 and 1",
    ),
    (
        "synthetic_fair",
        "analysis.confidence",
        "high",
        "analysis.confidence: expected a number, got 'high'",
    ),
    (
        "synthetic_fair",
        "analysis.confidence",
        math.nan,
        "analysis.confidence: expected a finite number",
    ),
    (
        "synthetic_fair",
        "analysis.bound",
        DELETE,
        "analysis.bound: required whenever tau_grid is given",
    ),
    ("synthetic_fair", "analysis.bound", [1], "analysis.bound: expected an object, got [1]"),
    ("synthetic_fair", "analysis.histogram_bins", 0, "analysis.histogram_bins: must be positive"),
    (
        "synthetic_fair",
        "analysis.histogram_bins",
        10**6 + 1,
        "analysis.histogram_bins: must be at most 1000000",
    ),
    (
        "synthetic_fair",
        "analysis.histogram_bins",
        10**22,
        "analysis.histogram_bins: must be at most 1000000",
    ),
    (
        "synthetic_fair",
        "analysis.histogram_bins",
        2.5,
        "analysis.histogram_bins: expected an integer, got 2.5",
    ),
    # the bound spec inside it, with BoundSpec's own ValueError wrapped
    (
        "synthetic_fair",
        "analysis.bound.kind",
        DELETE,
        "analysis.bound.kind: required field is missing",
    ),
    (
        "synthetic_fair",
        "analysis.bound.kind",
        "Nope",
        f"analysis.bound: unknown bound kind 'Nope'; {CHOOSE_BOUND}",
    ),
    ("synthetic_fair", "analysis.bound.kind", 1, "analysis.bound.kind: expected a string, got 1"),
    (
        "synthetic_fair",
        "analysis.bound.epsilon",
        DELETE,
        "analysis.bound: Additive requires epsilon > 0",
    ),
    (
        "synthetic_fair",
        "analysis.bound.epsilon",
        math.nan,
        "analysis.bound.epsilon: expected a finite number",
    ),
    ("synthetic_fair", "analysis.bound.b", 0, "analysis.bound: Additive requires b > 0, got 0.0"),
    (
        "synthetic_fair",
        "analysis.bound",
        {"kind": "StandardVariance", "b": 0.0},
        "analysis.bound: StandardVariance requires b > 0, got 0.0",
    ),
    ("synthetic_fair", "analysis.bound.b", "10", "analysis.bound.b: expected a number, got '10'"),
    (
        "synthetic_fair",
        "analysis.bound.x0",
        11.0,
        "analysis.bound: x0 must lie in [0, b], got 11.0",
    ),
    ("synthetic_fair", "analysis.bound.n", 2.5, "analysis.bound.n: expected an integer, got 2.5"),
    ("synthetic_fair", "analysis.bound.slope", 1, "analysis.bound: unknown field(s) slope"),
    ("synthetic_fair", "output_dir", "", "config.output_dir: must name a directory"),
]


@pytest.mark.parametrize(
    "kind, path, value, message",
    CONFIG_CASES,
    ids=case_ids(CONFIG_CASES),
)
def test_a_faulty_config_is_rejected_with_its_full_message(kind, path, value, message):
    obj = changed(full_config(kind), path, value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(obj)
    assert str(err.value) == message


def test_configs_at_the_ceilings_are_accepted():
    at_ceilings = [
        ("synthetic_fair", {"runs": 10**7}),
        ("synthetic_fair", {"runs": 10**4, "cap": 10**7}),
        ("synthetic_fair", {"runs": 1, "cap": 10**11}),
        ("sat2", {"params.n": 10**7, "params.m": 10**7}),
        ("recolour", {"params.n": 4472}),
        ("rlspd", {"params.n": 10**7}),
    ]
    for kind, values in at_ceilings:
        obj = full_config(kind)
        for path, value in values.items():
            obj = changed(obj, path, value)
        ExperimentConfig.from_dict(obj)


def test_a_default_cap_above_the_step_ceiling_asks_for_a_cap():
    obj = changed(full_config("rlspd"), "params.n", 4 * 10**6)
    del obj["cap"]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(obj)
    assert str(err.value) == (
        "config.cap: the default cap of these params, 160000000000 steps, "
        "is above 10**11 = 100000000000; set a smaller cap"
    )
    # a cap that is set bounds each run, and the default no longer counts
    ExperimentConfig.from_dict(changed(obj, "cap", 1000))


# configs that could never finish: a run of 10**400 replications, a lazy
# walk that moves with probability 1e-300 a step under cap 10**400, and
# instances of 10**400 variables or two 10**12-entry vectors
ENDLESS_CONFIGS = [
    ("synthetic_fair", {"runs": 10**400}, "config.runs: must be at most 10**7 = 10000000"),
    (
        "synthetic_lazy",
        {"params": {"b": 4, "x0": 2, "delta": 1e-300}, "cap": 10**400},
        "config.cap: must be at most 10**11 = 100000000000",
    ),
    (
        "sat2",
        {"params": {"n": 10**400, "m": 25}},
        "config.params.n: must be at most 10**7 = 10000000",
    ),
    (
        "rlspd",
        {"params": {"n": 10**12, "alpha": 0.5, "beta": 0.5}, "cap": None},
        "config.params.n: must be at most 10**7 = 10000000",
    ),
]


@pytest.mark.parametrize("kind, fields, message", ENDLESS_CONFIGS, ids=case_ids(ENDLESS_CONFIGS))
def test_a_config_that_cannot_end_exits_two_naming_its_field(
    tmp_path, capsys, monkeypatch, kind, fields, message
):
    monkeypatch.chdir(tmp_path)
    obj = dict(full_config(kind), **fields)
    (tmp_path / "config.json").write_text(json.dumps(obj))
    assert main(["run", "config.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


ANALYSIS_CASES = [
    ([1.0], "analysis: expected an object, got [1.0]"),
    ({"k_list": [1.0], "bins": 3}, "analysis: unknown field(s) bins"),
    ({"tau_grid": [1.0]}, "analysis.bound: required whenever tau_grid is given"),
]


@pytest.mark.parametrize("obj, message", ANALYSIS_CASES, ids=case_ids(ANALYSIS_CASES))
def test_a_faulty_analysis_document_is_rejected_with_its_full_message(obj, message):
    with pytest.raises(ConfigError) as err:
        AnalysisBlock.from_dict(obj)
    assert str(err.value) == message


# read by the config reader: each fault reads as it does in a config,
# with "bounds spec" where a config says "analysis"
BOUNDS_CASES = [
    ([1], "bounds spec: expected an object, got [1]"),
    ({"tau_grid": [1.0]}, "bounds spec.bound: required field is missing"),
    ({"bound": ADDITIVE}, "bounds spec.tau_grid: required field is missing"),
    (
        {"bound": ADDITIVE, "tau_grid": 5},
        "bounds spec.tau_grid: expected a list of nonnegative numbers",
    ),
    ({"bound": ADDITIVE, "tau_grid": []}, "bounds spec.tau_grid: expected a nonempty list"),
    (
        {"bound": ADDITIVE, "tau_grid": [math.nan]},
        "bounds spec.tau_grid: expected a finite number",
    ),
    ({"bound": ADDITIVE, "tau_grid": [10**400]}, "bounds spec.tau_grid: expected a finite number"),
    (
        {"bound": "Additive", "tau_grid": [1.0]},
        "bounds spec.bound: expected an object, got 'Additive'",
    ),
    (
        {"bound": {"b": 1.0}, "tau_grid": [1.0]},
        "bounds spec.bound.kind: required field is missing",
    ),
    (
        {"bound": {"kind": "Additive"}, "tau_grid": [1.0]},
        "bounds spec.bound: Additive requires b > 0, got 0.0",
    ),
    (
        {"bound": dict(ADDITIVE, slope=1), "tau_grid": [1.0]},
        "bounds spec.bound: unknown field(s) slope",
    ),
    (
        {"bound": dict(ADDITIVE, epsilon=math.nan), "tau_grid": [1.0]},
        "bounds spec.bound.epsilon: expected a finite number",
    ),
    (
        {"bound": dict(ADDITIVE, b=math.inf), "tau_grid": [1.0]},
        "bounds spec.bound.b: expected a finite number",
    ),
    (
        {"bound": {"kind": "KotzingPolynomial", "ell": 1.0, "c": 1.0, "n": 10}, "tau_grid": [1.0]},
        "bounds spec.bound: KotzingPolynomial requires c > 1",
    ),
]


@pytest.mark.parametrize("spec, message", BOUNDS_CASES, ids=case_ids(BOUNDS_CASES))
def test_a_faulty_bounds_spec_exits_two_with_its_full_message(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


#: a message quotes at most 40 characters of a value's repr or of the unknown keys
CUT_CASES = [
    ([1] * 100_000, f"bounds spec.bound: expected an object, got [{'1, ' * 12}..."),
    (
        dict(ADDITIVE, kind="K" * 100_000),
        f"bounds spec.bound: unknown bound kind '{'K' * 36}...; choose from ",
    ),
    (
        dict(ADDITIVE, b="7" * 100_000),
        f"bounds spec.bound.b: expected a number, got '{'7' * 36}...",
    ),
    (dict(ADDITIVE, b="7" * 39), f"bounds spec.bound.b: expected a number, got '{'7' * 36}..."),
    (dict(ADDITIVE, b="7" * 38), f"bounds spec.bound.b: expected a number, got '{'7' * 38}'\n"),
    (
        dict(ADDITIVE, **{f"k{i:05d}": 1 for i in range(100_000)}),
        "bounds spec.bound: unknown field(s) k00000, k00001, k00002, k00003, k0000...\n",
    ),
]


@pytest.mark.parametrize(
    "bound, message",
    CUT_CASES,
    ids=[
        "list-of-100000-ones",
        "long-kind",
        "long-string",
        "repr-of-41",
        "repr-of-40-in-full",
        "100000-unknown-keys",
    ],
)
def test_a_message_cuts_a_long_value_to_forty_characters(tmp_path, capsys, bound, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"bound": bound, "tau_grid": [1.0]}))
    assert main(["bounds", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.encode()) < 200
