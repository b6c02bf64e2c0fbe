"""Experiment harness: configs, paired batches, aggregation, serialization."""

import hashlib
import json
import math
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ralearn as ra
from ralearn import baselines, cli, core, harness, replicable
from ralearn.harness import (
    ALGORITHMS,
    CONFIG_SCHEMA,
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    build_problem,
    data_stream,
    halving_fraction,
    iter_paired_runs,
    json_text,
    label_complexity_sweep,
    problem_stats,
    report_csv,
    run_paired_trials,
    summarize_pairs,
    sweep_csv,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# interval and trace statistics


def test_wilson_empty_batch_is_vacuous():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_zero_successes():
    low, high = wilson_interval(0, 50)
    assert low == 0.0
    assert 0.0 < high < 1.0


def test_wilson_all_successes():
    low, high = wilson_interval(50, 50)
    assert high == pytest.approx(1.0)
    assert 0.0 < low < 1.0


def test_wilson_brackets_point_estimate():
    for successes, n in [(7, 20), (1, 9), (199, 200)]:
        low, high = wilson_interval(successes, n)
        assert low <= successes / n <= high


def test_wilson_narrows_with_sample_size():
    w_small = np.diff(wilson_interval(7, 20))[0]
    w_large = np.diff(wilson_interval(70, 200))[0]
    assert w_large < w_small


def _trace(*values):
    return [SimpleNamespace(disagreement=v) for v in values]


def test_halving_fraction_hand_case():
    # transitions: 1.0->0.5 halves, 0.5->0.4 does not, 0.4->0.1 halves
    assert halving_fraction([_trace(1.0, 0.5, 0.4, 0.1)]) == pytest.approx(2 / 3)


def test_halving_fraction_no_transitions():
    assert halving_fraction([]) == 0.0
    assert halving_fraction([_trace(1.0), _trace(0.5)]) == 0.0


def test_halving_fraction_pools_across_traces():
    traces = [_trace(1.0, 0.5), _trace(1.0, 0.9)]
    assert halving_fraction(traces) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# config validation


def test_config_defaults_construct():
    cfg = ExperimentConfig()
    assert cfg.algo == "cal"
    assert cfg.class_name == "thresholds"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"algo": "svm"},
        {"algos": ("cal", "svm")},
        {"class_name": "worst-case"},
        {"trials": 0},
        {"eps": 0.0},
        {"eps": 1.0},
        {"delta": -0.1},
        {"rho": 1.5},
        {"eta": 1.5},
        {"b_seed": "zz"},
        {"data_seed": "zz"},
        {"data_seed": ""},
        {"data_seed": 2},
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ra.ParameterError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("constants", [{"c_cal": 1.0}, 3, None], ids=["dict", "int", "none"])
def test_config_refuses_constants_that_are_not_constants(constants):
    # refused where the config is built: a trial would meet it as an
    # AttributeError, which no failure accounting counts
    with pytest.raises(ra.ParameterError, match="constants must be a Constants"):
        ExperimentConfig(domain_size=16, algo="cal", trials=1, constants=constants)
    given = ra.Constants(c_cal=1.0)
    assert ExperimentConfig(domain_size=16, trials=1, constants=given).constants is given


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 2.5},
        {"domain_size": 16.5},
        {"target": 3.5},
        {"trials": True},
        {"domain_size": True},
        {"target": False},
        {"trials": "3"},
        {"domain_size": float("nan")},
    ],
)
def test_config_integer_fields_follow_the_schema_rule(kwargs):
    """A config built in Python gets the integer check a document gets: an
    int or an integral float, never a bool."""
    with pytest.raises(ra.ParameterError, match="must be an integer"):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExperimentConfig(eta=True),
        lambda: ExperimentConfig(eps=np.True_),
        lambda: ExperimentConfig(delta=False),
        lambda: ExperimentConfig(rho=True),
        lambda: ExperimentConfig(domain_size=2, weights=(True, False)),
        lambda: ExperimentConfig(domain_size=2, weights=(0.5, "0.5")),
        lambda: ra.Constants(c_pass=True),
        lambda: ra.Constants().updated({"c_cal": True}),
    ],
    ids=["eta", "eps", "delta", "rho", "weights", "weight-text", "constant", "updated"],
)
def test_config_numbers_follow_the_schema_rule(make):
    """A bool is not a number to the schema: ``eta=True`` once built flip
    rate 1.0 everywhere, and ``weights=(True, False)`` a point mass."""
    with pytest.raises(ra.ParameterError, match="must be a (positive )?number"):
        make()


def test_config_keeps_integral_floats_as_ints():
    cfg = ExperimentConfig(domain_size=16.0, target=3.0, trials=np.int64(2))
    assert cfg == ExperimentConfig(domain_size=16, target=3, trials=2)
    assert {type(v) for v in (cfg.domain_size, cfg.target, cfg.trials)} == {int}
    assert run_paired_trials(replace(cfg, eps=0.2)).pairs == 2


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ra.ParameterError):
        ExperimentConfig.from_dict({"bogus": 1})


@pytest.mark.parametrize(
    "key, value",
    [
        ("b_policy", "fixed"),
        ("identical_sides", True),
        ("stream_accounting", True),
        ("theta_override", 1.5),
    ],
)
def test_from_dict_rejects_removed_keys(key, value):
    # every pair spawns its own shared string and gives its two sides
    # independent data, and every problem reports its own theta; no key
    # switches any of these off
    with pytest.raises(ra.ParameterError, match=rf"config\.{key}: unknown key"):
        ExperimentConfig.from_dict({key: value})


def test_from_dict_rejects_wrong_type():
    with pytest.raises(ra.ParameterError):
        ExperimentConfig.from_dict({"epsilon": "big"})


def test_from_dict_rejects_bad_generator():
    with pytest.raises(ra.ParameterError):
        ExperimentConfig.from_dict({"class": {"generator": "nope"}})


def test_from_dict_rejects_zero_size():
    with pytest.raises(ra.ParameterError):
        ExperimentConfig.from_dict({"class": {"size": 0}})


def test_from_dict_rejects_unknown_constant():
    with pytest.raises(ra.ParameterError):
        ExperimentConfig.from_dict({"constants": {"c_bogus": 1.0}})


def test_schema_error_names_the_offending_path():
    with pytest.raises(ra.ParameterError, match=r"class\.size"):
        ExperimentConfig.from_dict({"class": {"size": 0}})


# near-valid config documents: the default config with a few keys replaced by
# values that sit on either side of a schema rule
_OTHER = st.sampled_from([None, "", "1", [], [0], {}, {"c_cal": 1}, -0.5, 3, True])
_EDGES = st.sampled_from(
    [True, False, 0, 1, 0.0, 1.0, 0.5, -1, 2**60, 2.0**60, math.nan, math.inf, -math.inf]
)
_NUMBERS = _EDGES | st.integers(-9, 9) | st.integers(-9, 9).map(lambda i: i / 4)
_SEEDS = st.sampled_from(["08", "0x", "0x1f", "0X1f", "1f\n", "zz", "", " 1"]) | st.text(
    "0x1fgX\n ", max_size=4
)
_MATRICES = st.sampled_from(
    [[], [[]], [[0, 1], [1]], [[0, 2]], [[0, 1], [1, 0]], [[1.0, 0]], [[True, 0]], [[0, 1], "01"]]
)
_NAMES = st.sampled_from([*ALGORITHMS, "nope", True, 1])
_CLASS_VALUES = {
    "generator": st.sampled_from(["thresholds", "explicit", "nope", 0]),
    "size": _NUMBERS,
    "eta": _NUMBERS,
    "target": _NUMBERS | st.none(),
    "weights": st.lists(_NUMBERS | st.text(max_size=1), max_size=3),
    "matrix": _MATRICES,
    "bogus": _OTHER,
}
_TOP_VALUES = {
    "epsilon": _NUMBERS,
    "delta": _NUMBERS,
    "rho": _NUMBERS,
    "trials": _NUMBERS,
    "algo": _NAMES,
    "algos": st.lists(_NAMES, max_size=2),
    "b_seed": _SEEDS,
    "data_seed": _SEEDS,
    "constants": st.dictionaries(
        st.sampled_from(["c_cal", "c_bogus"]), _NUMBERS | st.text(max_size=2) | _OTHER, max_size=2
    ),
    "bogus": _OTHER,
}
_EDITS = st.lists(
    st.one_of(
        *(
            st.tuples(st.just(level), st.just(key), values[key] | _OTHER)
            for level, values in (("class", _CLASS_VALUES), ("top", _TOP_VALUES))
            for key in sorted(values)
        )
    ),
    max_size=3,
)


# the document of ExperimentConfig(), every key spelled out
_DEFAULT_DOC = {
    "class": {"generator": "thresholds", "size": 16, "eta": 0.0},
    "algo": "cal",
    "epsilon": 0.05,
    "delta": 0.01,
    "rho": 0.1,
    "trials": 10,
    "b_seed": "01",
    "data_seed": "02",
}


@st.composite
def _near_valid_docs(draw):
    doc = {**_DEFAULT_DOC, "class": dict(_DEFAULT_DOC["class"])}
    for level, key, value in draw(_EDITS):
        (doc["class"] if level == "class" else doc)[key] = value
    return draw(_OTHER) if draw(st.integers(0, 49)) == 0 else doc


_REFERENCE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@given(doc=_near_valid_docs())
@settings(max_examples=2000, deadline=None)
def test_schema_check_agrees_with_jsonschema(doc):
    try:
        harness._check_schema(doc, CONFIG_SCHEMA, "config")
        accepted = True
    except ra.ParameterError:
        accepted = False
    assert accepted == _REFERENCE.is_valid(doc)


def test_schema_uses_only_checked_keywords():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    checked = {
        "$schema", "type", "enum", "minimum", "maximum", "exclusiveMinimum",
        "exclusiveMaximum", "minItems", "items", "pattern", "properties",
        "additionalProperties",
    }
    nodes, used = [CONFIG_SCHEMA], set()
    while nodes:
        node = nodes.pop()
        used |= set(node)
        nodes.extend(node.get("properties", {}).values())
        subs = (node.get("items"), node.get("additionalProperties"))
        nodes.extend(n for n in subs if isinstance(n, dict))
    assert used <= checked


# how the fields are named in a document, read independently of the harness
_RENAMED = {"generator": "class_name", "size": "domain_size", "epsilon": "eps"}


def _python_fields(doc):
    """The ExperimentConfig keywords a document's keys spell, its weights and
    algos lists as the tuples a Python caller passes."""
    items = {**doc["class"], **{k: v for k, v in doc.items() if k != "class"}}
    kwargs = {_RENAMED.get(k, k): v for k, v in items.items()}
    for name in ("weights", "algos"):
        if isinstance(kwargs.get(name), list):
            kwargs[name] = tuple(kwargs[name])
    return kwargs


def _failure(make):
    try:
        make()
    except ra.ParameterError as e:
        return str(e)
    return None


@given(doc=_near_valid_docs())
@settings(max_examples=1000, deadline=None)
def test_python_and_document_configs_fail_alike(doc):
    """A config built in Python is refused exactly when its document is, and
    with the document's message when it breaks one rule.  Left out: the
    matrix and constants, which have their own Python types, unknown keys,
    and ``"algos": []`` and ``"weights": null``, whose Python spellings
    ``()`` and ``None`` mean an absent key."""
    assume(isinstance(doc, dict) and isinstance(doc.get("class"), dict))
    assume(not {"matrix", "bogus"} & set(doc["class"]) and not {"constants", "bogus"} & set(doc))
    assume(doc.get("algos") != [] and doc["class"].get("weights", 0) is not None)
    from_python = _failure(lambda: ExperimentConfig(**_python_fields(doc)))
    from_document = _failure(lambda: ExperimentConfig.from_dict(doc))
    assert (from_python is None) == (from_document is None), (from_python, from_document)
    values = [*doc.values(), *doc["class"].values()]
    nans = sum(isinstance(v, float) and math.isnan(v) for v in values)
    if len(list(_REFERENCE.iter_errors(doc))) + nans == 1:
        assert from_python == from_document


def test_python_config_gets_the_document_message():
    # these passed the Python checks once and failed only in build_problem
    message = "config does not match the schema: config.class.size: 0 is less than the minimum of 1"
    for make in (
        lambda: ExperimentConfig(domain_size=0),
        lambda: ExperimentConfig.from_dict({"class": {"size": 0}}),
    ):
        with pytest.raises(ra.ParameterError) as caught:
            make()
        assert str(caught.value) == message
    for kwargs, path in (
        ({"target": -1}, "config.class.target"),
        ({"weights": (-0.5, 1.5)}, r"config.class.weights\[0\]"),
        ({"weights": ()}, "config.class.weights"),
    ):
        with pytest.raises(ra.ParameterError, match=path):
            ExperimentConfig(domain_size=2, **kwargs)


@pytest.mark.parametrize(
    "key, name, flag",
    [
        ("epsilon", "eps", "--epsilon"),
        ("delta", "delta", "--delta"),
        ("rho", "rho", "--rho"),
        ("class.eta", "eta", "--nu"),
        ("class.weights", "weights", None),
    ],
)
def test_nan_is_refused_everywhere(key, name, flag, tmp_path, capsys):
    """NaN breaks no bound, so the schema alone would let ``eps=nan`` through.

    Nor does an infinite weight break the weights' minimum of 0, so each
    weight is tried both ways.  No flag sets the weights (``flag`` is None):
    a config file carries them to the CLI.
    """
    outer, _, last = key.rpartition(".")
    if flag is None:
        cases = [((bad, 1.0), f"[{token}, 1.0]", rf"{last}\[0\]: .*\b{bad}$")
                 for bad, token in ((math.nan, "NaN"), (math.inf, "Infinity"))]
    else:
        cases = [(math.nan, "NaN", rf"{last}\b.*\bnan$")]
    for value, token, message in cases:
        with pytest.raises(ra.ParameterError, match=message):
            ExperimentConfig(**{name: value})
        doc = json.loads(f'{{"{last}": {token}}}')
        with pytest.raises(ra.ParameterError, match=message):
            ExperimentConfig.from_dict({outer: doc} if outer else doc)
        if flag is None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({outer: doc}))
            given = ["--config", str(path)]
        else:
            given = [flag, "nan"]
        assert cli.main(["pair", "--algo", "cal", "--trials", "1", *given]) == 3
        assert re.search(message, capsys.readouterr().err.strip())


def test_empty_and_default_documents_give_the_default_config():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    assert ExperimentConfig.from_dict(_DEFAULT_DOC) == ExperimentConfig()


def test_from_dict_rich_config():
    doc = {
        "class": {
            "generator": "thresholds",
            "size": 32,
            "target": 7,
            "eta": 0.1,
            "weights": [1.0 / 32] * 32,
        },
        "algo": "a2",
        "algos": ["cal", "erm"],
        "epsilon": 0.1,
        "delta": 0.2,
        "rho": 0.3,
        "trials": 4,
        "b_seed": "0abc",
        "data_seed": "ff",
        "constants": {"c_a2": 24.0},
    }
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig(
        class_name="thresholds",
        domain_size=32,
        target=7,
        eta=0.1,
        algo="a2",
        algos=("cal", "erm"),
        eps=0.1,
        delta=0.2,
        rho=0.3,
        trials=4,
        b_seed="0abc",
        data_seed="ff",
        weights=tuple([1.0 / 32] * 32),
        constants=ra.Constants().updated({"c_a2": 24.0}),
    )


# ---------------------------------------------------------------------------
# problem construction


def test_build_problem_explicit_needs_matrix():
    with pytest.raises(ra.ParameterError):
        build_problem(ExperimentConfig(class_name="explicit"))


def test_build_problem_target_out_of_range():
    with pytest.raises(ra.ParameterError):
        build_problem(ExperimentConfig(domain_size=8, target=999))


def test_build_problem_default_centers():
    # single-flip class anchors at the all-zeros row, ordered classes at the middle
    cfg = ExperimentConfig(class_name="worst_case", domain_size=8)
    hclass, model = build_problem(cfg)
    _, nu, center = problem_stats(hclass, model, cfg)
    assert (nu, center) == (0.0, 0)

    cfg = ExperimentConfig(class_name="thresholds", domain_size=16)
    hclass, model = build_problem(cfg)
    _, nu, center = problem_stats(hclass, model, cfg)
    assert (nu, center) == (0.0, hclass.n_hypotheses // 2)


def test_build_problem_eta_becomes_flip_rates():
    cfg = ExperimentConfig(domain_size=8, eta=0.1, target=3)
    hclass, model = build_problem(cfg)
    assert model.flip_rates.max() == pytest.approx(0.1)
    assert np.array_equal(model.base_labels, hclass.row(3))


# ---------------------------------------------------------------------------
# data streams


def test_data_stream_is_deterministic():
    a = data_stream("02", 3, 0).integers(0, 1 << 30, size=8)
    b = data_stream("02", 3, 0).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)


def test_data_stream_separates_keys():
    a = data_stream("02", 3, 0).integers(0, 1 << 30, size=8)
    b = data_stream("02", 3, 1).integers(0, 1 << 30, size=8)
    c = data_stream("03", 3, 0).integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_data_stream_accepts_prefixed_seed():
    a = data_stream("0x1f", 0).integers(0, 1 << 30, size=4)
    b = data_stream("1f", 0).integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# paired batches


def _cal_cfg(**kwargs):
    base = dict(domain_size=16, algo="cal", eps=0.1, delta=0.1, rho=0.3, trials=6)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_no_library_computation_reads_the_prediction_matrix(monkeypatch, tmp_path, capsys):
    """Every computation reads the class's runs: with ``predictions`` made to
    raise, set-up, one paired trial of each learner, ``theta`` and
    ``gridcheck`` all succeed on every generator and on an explicit class."""

    def refuse(hclass):
        raise AssertionError("the library read HypothesisClass.predictions")

    monkeypatch.setattr(core.HypothesisClass, "predictions", property(refuse))
    # an explicit class of two runs per row beside thresholds' rows
    matrix = np.triu(np.ones((17, 16), dtype=int))
    matrix[::2, 3] ^= 1
    classes = [{"generator": name, "size": 16} for name in ("thresholds", "intervals", "worst_case")]
    classes.append({"generator": "explicit", "matrix": matrix.tolist(), "target": 8})
    for cls in classes:
        for algo in ALGORITHMS:
            noisy = algo in ("a2", "replica2")
            doc = {"class": {**cls, "eta": 0.05 if noisy else 0.0}, "algo": algo, "epsilon": 0.1,
                   "delta": 0.1, "rho": 0.3, "trials": 1}
            cfg = ExperimentConfig.from_dict(doc)
            hclass, model = build_problem(cfg)
            problem_stats(hclass, model, cfg)
            (outcome,) = iter_paired_runs(cfg, hclass, model)
            assert None not in (outcome.result_first, outcome.result_second), (cls, algo)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"class": cls, "rho": 0.3}))
        for command in ("theta", "gridcheck"):
            assert cli.main([command, "--config", str(path)]) == 0, (cls, command)
    capsys.readouterr()


def test_identical_sides_share_the_stream_key():
    """No two sides share a stream: pair i's sides draw from keys (i, 0) and (i, 1)."""
    outcomes = list(iter_paired_runs(_cal_cfg(trials=1)))
    assert outcomes[0].data_seed_first == "02:0:0"
    assert outcomes[0].data_seed_second == "02:0:1"


def test_singleton_class_trivially_replicates():
    cfg = ExperimentConfig(
        class_name="explicit",
        matrix=((0, 1, 1, 0),),
        algo="erm",
        eps=0.2,
        delta=0.2,
        trials=5,
    )
    report = run_paired_trials(cfg)
    assert report.agreement_rate == 1.0
    assert report.error_max == 0.0
    sigs = {row.signature_hash for row in report.rows}
    assert len(sigs) == 1


def test_b_policy_fixed_reuses_one_string():
    """No string is reused: every pair spawns its own shared string."""
    per_trial = list(iter_paired_runs(_cal_cfg(trials=3)))
    assert len({o.b_hex for o in per_trial}) == 3


def test_agreed_flag_matches_signatures():
    for outcome in iter_paired_runs(_cal_cfg(trials=4)):
        expected = (
            outcome.result_first is not None
            and outcome.result_second is not None
            and outcome.result_first.signature == outcome.result_second.signature
        )
        assert outcome.agreed == expected


def test_failures_are_counted_not_raised():
    # consistency-based elimination is undefined under label noise; both
    # sides of every pair must fail and the batch must still complete
    report = run_paired_trials(_cal_cfg(eta=0.2, trials=4))
    assert report.failure_counts == (("WrongSettingError", 8),)
    assert report.pairs == 4
    assert report.agreements == 0
    assert report.rows == ()
    assert report.error_mean == 0.0


def test_paired_batch_replays_exactly():
    cfg = ExperimentConfig(
        domain_size=16, algo="replical", eps=0.2, delta=0.1, rho=0.3, trials=3
    )
    first = run_paired_trials(cfg)
    second = run_paired_trials(cfg)
    assert first.to_jsonable() == second.to_jsonable()


def _count_calls(monkeypatch, name) -> list:
    calls = []
    original = getattr(core, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    # every module that binds the name, so a learner calling it is counted too
    for module in (core, baselines, replicable, harness):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_batch_computes_the_geometry_once(monkeypatch):
    calls = _count_calls(monkeypatch, "disagreement_coefficient")
    cfg = _cal_cfg(trials=5)
    hclass, model = build_problem(cfg)
    outcomes = list(iter_paired_runs(cfg, hclass, model))
    assert len(outcomes) == 5
    assert all(o.result_first is not None and o.result_second is not None for o in outcomes)
    assert len(calls) == 1


def test_batch_computes_the_full_class_region_once(monkeypatch):
    # every side starts from the problem's region instead of masking the full
    # class again; later masks belong to smaller version spaces
    calls = _count_calls(monkeypatch, "_coverage_region")
    cfg = _cal_cfg(trials=5)
    outcomes = list(iter_paired_runs(cfg))
    assert len(outcomes) == 5
    assert all(o.result_first is not None and o.result_second is not None for o in outcomes)
    full = [members for _, members, _ in calls if members.all()]
    assert len(full) == 1
    assert len(calls) == 1 + sum(o.result_first.rounds + o.result_second.rounds for o in outcomes)


def test_batch_computes_the_exact_errors_once(monkeypatch):
    # every side's exact error is read from the Problem's vector, and its
    # hash is of the signature bytes it returns
    calls = _count_calls(monkeypatch, "true_errors")
    cfg = _cal_cfg(trials=5)
    hclass, model = build_problem(cfg)
    outcomes = list(iter_paired_runs(cfg, hclass, model))
    results = [r for o in outcomes for r in (o.result_first, o.result_second)]
    assert len(results) == 10 and None not in results
    assert len(calls) == 1
    errors = ra.Problem(hclass, model).errors
    for r in results:
        h = r.hypothesis_index
        assert r.signature_hash == core.hash_signature(hclass.signature(h))
        assert np.float64(r.error).tobytes() == errors[h].tobytes()
        assert r.signature == hclass.signature(h)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_results_returning_one_hypothesis_share_its_signature(monkeypatch, algo):
    # the batch's Problem builds each returned row and its hash once, so the
    # sides that pick one hypothesis hold the same two objects
    outcomes = []
    summarize = harness.summarize_pairs
    monkeypatch.setattr(
        harness, "summarize_pairs", lambda cfg, o, *a: outcomes.extend(o) or summarize(cfg, o, *a)
    )
    report = run_paired_trials(replace(GOLDEN_BATCHES[algo], trials=10))
    assert report.pairs == len(outcomes) == 10 and not report.failure_counts
    first_by_index = {}
    for r in (r for o in outcomes for r in (o.result_first, o.result_second)):
        first = first_by_index.setdefault(r.hypothesis_index, r)
        assert r.signature is first.signature
        assert r.signature_hash is first.signature_hash
    assert len(first_by_index) < 2 * report.pairs


def test_memory_guard_erm_batch_keeps_one_row_per_returned_hypothesis():
    cfg = ExperimentConfig(domain_size=1024, algo="erm", eps=0.01, delta=0.05, trials=500)
    problem = ra.Problem(*build_problem(cfg))
    results = [
        r for o in iter_paired_runs(cfg, problem=problem) for r in (o.result_first, o.result_second)
    ]
    assert len(results) == 1000 and None not in results
    indices = {r.hypothesis_index for r in results}
    assert len({id(r.signature) for r in results}) == len(indices) < len(results)


@pytest.mark.parametrize("algo", ["a2", "replica2"])
def test_noisy_sides_never_beat_the_noise_floor(algo):
    # err_final and nu come from one vector, so no side can round below nu
    for n in (8, 32, 64):
        for eta in (0.05, 0.1):
            cfg = ExperimentConfig(
                domain_size=n, algo=algo, eta=eta, eps=0.1, delta=0.05, rho=0.3, trials=10
            )
            problem = ra.Problem(*build_problem(cfg))
            outcomes = list(iter_paired_runs(cfg, problem=problem))
            for o in outcomes:
                for r in (o.result_first, o.result_second):
                    if r is not None:
                        h = r.hypothesis_index
                        assert np.float64(r.error).tobytes() == problem.errors[h].tobytes()
            report = summarize_pairs(cfg, outcomes, problem.theta, problem.nu)
            assert report.rows, (n, eta)
            assert all(row.err_final >= row.nu for row in report.rows), (n, eta)


def test_run_paired_trials_computes_the_geometry_once(monkeypatch):
    # the report's theta and nu come from the same Problem the pairs use
    calls = _count_calls(monkeypatch, "disagreement_coefficient")
    report = run_paired_trials(_cal_cfg(trials=5))
    assert report.pairs == 5 and not report.failure_counts
    assert len(calls) == 1


@pytest.mark.parametrize("algo", ["cal", "a2", "replical", "replica2"])
def test_learners_derive_one_region_per_version_space(monkeypatch, algo):
    # the guard, the mass estimate and the sampler share one mask per version
    # space; on thresholds(128) at epsilon 0.02 (noise 0.01 for the agnostic
    # learners) every learner runs at least two loop rounds, so the count
    # covers regions re-derived from a cut version space
    calls = _count_calls(monkeypatch, "_coverage_region")
    noisy = dict(target=128, eta=0.01) if GOLDEN_BATCHES[algo].eta else {}
    cfg = replace(GOLDEN_BATCHES[algo], domain_size=128, eps=0.02, **noisy)
    problem = ra.Problem(*build_problem(cfg))
    shared, rng = ra.RandomString(cfg.b_seed), data_stream(cfg.data_seed, 0, 0)
    learner = harness.LEARNERS[algo]
    result = learner.run(problem, learner.size(problem, cfg), shared, rng)
    assert result.rounds >= 2
    assert len(calls) == result.rounds + 1


def _count_sizing(monkeypatch, algos) -> list:
    """Wrap each learner's sizing function in the registry; returns the
    (algo, eps) of every call."""
    calls = []
    for algo in algos:
        learner = harness.LEARNERS[algo]

        def counting(problem, cfg, algo=algo, size=learner.size):
            calls.append((algo, cfg.eps))
            return size(problem, cfg)

        monkeypatch.setitem(harness.LEARNERS, algo, learner._replace(size=counting))
    return calls


@pytest.mark.parametrize("algo", ["replical", "replica2"])
def test_replicable_batch_sizes_its_schedule_once(monkeypatch, algo):
    calls = []
    size = replicable.size_schedule
    monkeypatch.setattr(replicable, "size_schedule", lambda *a: calls.append(a) or size(*a))
    report = run_paired_trials(replace(GOLDEN_BATCHES[algo], trials=6))
    assert report.pairs == 6 and not report.failure_counts
    assert len(calls) == 1


@pytest.mark.parametrize("algo", ["erm", "cal", "a2"])
def test_baseline_batch_sizes_once(monkeypatch, algo):
    calls = _count_sizing(monkeypatch, [algo])
    report = run_paired_trials(replace(GOLDEN_BATCHES[algo], trials=6))
    assert report.pairs == 6 and not report.failure_counts
    assert calls == [(algo, GOLDEN_BATCHES[algo].eps)]


def test_sweep_sizes_once_per_learner_and_target(monkeypatch):
    calls = _count_sizing(monkeypatch, ["erm", "cal"])
    cfg = replace(GOLDEN_BATCHES["cal"], algos=("erm", "cal"), trials=3)
    table = label_complexity_sweep(cfg, [0.2, 0.1])
    assert len(table.rows) == 4
    assert calls == [("erm", 0.2), ("erm", 0.1), ("cal", 0.2), ("cal", 0.1)]


def _expected_use(cfg, problem, result):
    """(labels, unlabeled) a side must report, from its learner's sizes: k
    labels per loop round plus any final sample, and t_unlabeled draws per
    loop guard query (rounds + 1 of them, none when the loop is skipped)."""
    n_h = problem.hclass.n_hypotheses
    if cfg.algo == "erm":
        return baselines.erm_sample_size(n_h, cfg.eps, cfg.delta, cfg.constants), 0
    if cfg.algo == "cal":
        k = baselines.cal_sample_size(n_h, problem.sizing_theta, cfg.eps, cfg.delta, cfg.constants)
        return result.rounds * k, 0
    sched = replicable.size_schedule(
        problem.sizing_theta, cfg.eps, cfg.delta, cfg.rho, problem.nu, n_h, cfg.constants
    )
    final = 0 if "final-region-zero-mass" in result.flags else sched.k_final
    queries = 0 if sched.sq_loop is None else result.rounds + 1
    return result.rounds * sched.k + final, queries * sched.t_unlabeled


# replica2's problems, each with the flags its sides raise: the golden one,
# one whose loop is skipped, and one whose final region has zero mass; the
# noiseless learners run on the same domains and targets without noise
_ACCOUNTING_PROBLEMS = {
    "golden": (dict(domain_size=32, target=32, eta=0.05, eps=0.1), set()),
    "skipped-loop": (
        dict(domain_size=16, target=8, eta=0.05, eps=0.1), {"loop-guard-unsatisfiable"}
    ),
    "zero-final-region": (
        dict(domain_size=8, target=None, eta=0.01, eps=0.2), {"final-region-zero-mass"}
    ),
}


@pytest.mark.parametrize("algo", ["erm", "cal", "replical", "replica2"])
@pytest.mark.parametrize("case", sorted(_ACCOUNTING_PROBLEMS))
def test_every_side_uses_exactly_its_scheduled_sizes(algo, case):
    given, replica2_flags = _ACCOUNTING_PROBLEMS[case]
    if algo != "replica2":
        given = {**given, "eta": 0.0}
    cfg = replace(GOLDEN_BATCHES[algo], trials=20, **given)
    problem = ra.Problem(*build_problem(cfg))
    flags = set()
    for o in iter_paired_runs(cfg, problem=problem):
        for r in (o.result_first, o.result_second):
            assert r is not None
            flags.update(r.flags)
            assert (r.labels_used, r.unlabeled_used) == _expected_use(cfg, problem, r)
    if algo == "replica2":
        assert flags == replica2_flags


def test_replical_runs_at_the_default_budgets():
    # the schedule needs rho > 2 * delta; the defaults 0.1 and 0.01 meet it
    report = run_paired_trials(ExperimentConfig(algo="replical", trials=2))
    assert report.pairs == 2
    assert report.failure_counts == ()


def test_summarize_is_order_insensitive():
    cfg = _cal_cfg(trials=5)
    hclass, model = build_problem(cfg)
    theta, nu, _ = problem_stats(hclass, model, cfg)
    outcomes = list(iter_paired_runs(cfg, hclass, model))
    shuffled = outcomes[:]
    random.Random(7).shuffle(shuffled)
    a = summarize_pairs(cfg, outcomes, theta, nu)
    b = summarize_pairs(cfg, shuffled, theta, nu)
    assert a.to_jsonable() == b.to_jsonable()


def test_summary_maxima_match_rows():
    report = run_paired_trials(_cal_cfg(trials=4))
    assert report.labels_max == max(r.labels_used for r in report.rows)
    assert report.error_max == pytest.approx(max(r.err_final for r in report.rows))
    assert report.labels_mean == pytest.approx(
        float(np.mean([r.labels_used for r in report.rows]))
    )


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rejects_empty_target_list():
    with pytest.raises(ra.ParameterError):
        label_complexity_sweep(_cal_cfg(), [])


def test_sweep_one_row_per_algo_and_target():
    cfg = _cal_cfg(algos=("erm", "cal"), trials=3)
    table = label_complexity_sweep(cfg, [0.2])
    assert [r.algo for r in table.rows] == ["erm", "cal"]
    for row in table.rows:
        assert row.epsilon == 0.2
        assert row.trials == 3
        assert row.labels_mean > 0
        assert row.labels_max >= row.labels_mean
        assert 0.0 <= row.within_target_fraction <= 1.0


def test_sweep_orders_targets_within_algo():
    table = label_complexity_sweep(_cal_cfg(trials=2), [0.2, 0.1])
    assert [r.epsilon for r in table.rows] == [0.2, 0.1]


# ---------------------------------------------------------------------------
# serialization


def test_report_csv_shape():
    report = run_paired_trials(_cal_cfg(trials=3))
    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    assert text.endswith("\n")


def test_sweep_csv_shape():
    table = label_complexity_sweep(_cal_cfg(trials=2), [0.2])
    lines = sweep_csv(table).splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(table.rows)


def test_export_json_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        json_text({"a": float("inf")})


def test_golden_report_csv_digest():
    """Pinned regression value: full pipeline bit-stability.

    Covers class construction, the shared string, both data streams, the
    learner, aggregation, and CSV formatting in one number.  Refresh only
    on a deliberate behavior change.
    """
    cfg = ExperimentConfig(
        domain_size=32,
        algo="replical",
        eps=0.1,
        delta=0.1,
        rho=0.3,
        trials=4,
        b_seed="1234",
        data_seed="abcd",
    )
    digest = hashlib.sha256(report_csv(run_paired_trials(cfg)).encode()).hexdigest()
    assert digest == "15ffcf420f4f0651982527a7527e7b23c87d614398b572b41d55c0870af6278f"


# Small batches for the other four learners, pinned the same way, all on
# thresholds(32); the noisy ones flip each label of hypothesis 32 with
# probability 0.05 and run at the default A² constants.
_GOLDEN_COMMON = dict(eps=0.1, delta=0.1, rho=0.3, trials=4, b_seed="1234", data_seed="abcd")
_GOLDEN_NOISY = dict(domain_size=32, target=32, eta=0.05)
GOLDEN_BATCHES = {
    "erm": ExperimentConfig(domain_size=32, algo="erm", **_GOLDEN_COMMON),
    "cal": ExperimentConfig(domain_size=32, algo="cal", **_GOLDEN_COMMON),
    "a2": ExperimentConfig(algo="a2", **_GOLDEN_NOISY, **_GOLDEN_COMMON),
    "replical": ExperimentConfig(domain_size=32, algo="replical", **_GOLDEN_COMMON),
    "replica2": ExperimentConfig(algo="replica2", **_GOLDEN_NOISY, **_GOLDEN_COMMON),
}

GOLDEN_REPORT_DIGESTS = {
    "erm": "cdc9fa77a35fa62422200b85fbb61edfa520fffeb21dba5ab05455682b0d9807",
    "cal": "b8f1ad7fd428e9c33ebd4f85f18783f3288082694289c8330defdaa46626a818",
    "a2": "4d8b17162f32ef7e9a91cc5380a9865ccaade39a066e9d8372a438329fe17758",
    "replica2": "aa34585df478721b2cc5f80a3e148931e25170d509d6906654007b8ae12d936d",
}

GOLDEN_RESULT_DIGESTS = {
    "erm": "a86f92d0604c0d813013dace05da6023c59f5cc636e3283b59d79ad9efddbd9d",
    "cal": "d7b9af168564e1cf3e0594ed6f8a5dfc13af44420d6046fee6ca9776e7e4c160",
    "a2": "920e7aef1f1254549177bf6030488a44938780859d890422f92b20e98f6fab0f",
    "replical": "888f3436ccec598ae7877d9296770495bbdfa71e471f8bbc533c638717845dbb",
    "replica2": "a1af1099ad5466064974da5142c782bf3282c523f8f0aa62dc1bd57321d0d702",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("algo", sorted(GOLDEN_REPORT_DIGESTS))
def test_golden_report_csv_digest_per_learner(algo):
    """Pinned report CSV of one small batch per learner; refresh only on a
    deliberate behavior change."""
    report = run_paired_trials(GOLDEN_BATCHES[algo])
    assert report.failure_counts == ()
    assert _sha256(report_csv(report)) == GOLDEN_REPORT_DIGESTS[algo]


@pytest.mark.parametrize("algo", sorted(GOLDEN_RESULT_DIGESTS))
def test_golden_run_result_digest(algo):
    """Pinned JSON of the first side of the first pair, trace included."""
    result = next(iter_paired_runs(GOLDEN_BATCHES[algo])).result_first
    assert _sha256(json.dumps(result.to_jsonable(), sort_keys=True)) == GOLDEN_RESULT_DIGESTS[algo]


def test_golden_report_json_digest():
    """Pinned report JSON, every field and row, of the replical batch."""
    report = run_paired_trials(GOLDEN_BATCHES["replical"])
    assert _sha256(json_text(report.to_jsonable())) == (
        "5e2b4f9bec7cb6a338bb8cedfc03534887acc70ea2c527006c5c2a0484abb576"
    )


_GOLDEN_SWEEP = ExperimentConfig(
    domain_size=32, algos=("erm", "cal", "replical"), **{**_GOLDEN_COMMON, "trials": 2}
)


def test_golden_sweep_csv_digest():
    table = label_complexity_sweep(_GOLDEN_SWEEP, [0.2, 0.1])
    assert _sha256(sweep_csv(table)) == (
        "5f28aa5f9286c3fb263cf07544eb75b2099f28eab8a4037534ccccdf1e42ef0a"
    )


def test_golden_sweep_json_digest():
    table = label_complexity_sweep(_GOLDEN_SWEEP, [0.2, 0.1])
    assert _sha256(json_text(table.to_jsonable())) == (
        "0796de27e4690cc8887562d667e7ef71d8a6bc04898b56f81671fd73e913df36"
    )


# Goldens whose sums are inexact in binary: the class has no power-of-two
# domain and the given weights are not dyadic, so a changed rounding of the
# weights to 2**-53, or a changed summation order in a conditional
# distribution, moves a digest.  intervals(37)
# weighs point i by (i % 5 + 1) / 108; the explicit class has constant first,
# second and last columns, so its full disagreement region is not all True,
# and weighs column j by (j + 1) / 45.  Each batch pins its report CSV and
# the JSON of every side of every pair.
_INEXACT_COMMON = dict(eps=0.03, delta=0.1, rho=0.3, trials=4, b_seed="5eed", data_seed="d47a")
_INTERVALS37 = dict(
    class_name="intervals",
    domain_size=37,
    weights=tuple((i % 5 + 1) / 108 for i in range(37)),
    target=300,
)
_EXPLICIT9 = dict(
    class_name="explicit",
    matrix=tuple((1, 0, *(int(b) for b in f"{v * 37 % 64:06b}"), 1) for v in range(20)),
    weights=tuple((j + 1) / 45 for j in range(9)),
    target=3,
)
INEXACT_BATCHES = {
    **{
        f"{algo}-weighted": ExperimentConfig(algo=algo, **_INTERVALS37, **_INEXACT_COMMON)
        for algo in ("erm", "cal", "replical")
    },
    **{
        f"{algo}-noisy": ExperimentConfig(algo=algo, eta=0.005, **_INTERVALS37, **_INEXACT_COMMON)
        for algo in ("erm", "a2", "replica2")
    },
    **{
        f"{algo}-explicit": ExperimentConfig(
            algo=algo, eta=0.01 if algo in ("a2", "replica2") else 0.0,
            **_EXPLICIT9, **_INEXACT_COMMON,
        )
        for algo in ALGORITHMS
    },
}

# (report CSV sha256, sha256 of every side's RunResult JSON, one per line)
INEXACT_DIGESTS = {
    "a2-explicit": (
        "821d002d6a9c0b3899583d99dad2a3e39f1733aed1cff127f46c2b6498881a8a",
        "295cb5ef8be1eea8eb7b72e0a48eb967a16274280c766a496dafcb0dd1488c9c",
    ),
    "a2-noisy": (
        "df63e7df453bb5fe20895ee4386aaf0c2e0965e92c961b98d1b924220266c4aa",
        "b1b91eb4457160fb4c702d167552be80a22b6ba6de28032907cfdfa3b38a12c5",
    ),
    "cal-explicit": (
        "cb9e9848431512f8cdc26052b995eae4d841e7e2a8f0e7293c3c35d4d4a87913",
        "1c88b54642db0eebd5b1770b07705f6fe0a8a63f224fcdfd16a2124b94f96530",
    ),
    "cal-weighted": (
        "80acf02738dac7b118ad179d017dd6e677ce834236c9610df474b038d5ead1c6",
        "8e1b6b1a526107f95514a7fc418e7f49ee2c876bd49a560745f5cde391d363d8",
    ),
    "erm-explicit": (
        "1de87e9a5dfb8651bfee82cc400e8ffee6682d5d3f9e7c85525653329ed96054",
        "55d8adf0bf32558fc70f68744a4e32df2408f21a12b5ecc38c149ad0f22dfd53",
    ),
    "erm-noisy": (
        "59ea5c767a66e2a8be17bb86f2670406d0f5ad3cf3a93024ee941cd06ff28afc",
        "935d434c08c86c4d6c2a2c36588ece5660b356f8d6291612a2ec579aa46f7ac0",
    ),
    "erm-weighted": (
        "97dfb29ac03e10f2402284c3fec33c46936c51f80ea4151cf79b06d40a9cf118",
        "ec18c8f2e948c10177b77a359fdf22dcf29dc6c79c33819f70aca762dff9dbf6",
    ),
    "replica2-explicit": (
        "916b2a0f1f8c7fa4ac27594df09b172be69bdc3ef42d25fff38b6e29d4dafc53",
        "e3c3c39390a4d74fbe5ecae695bd4d149df669b8f665fdb4099c7a032360ce4e",
    ),
    "replica2-noisy": (
        "ead74cdd688b48ce507a3ff6fcad6259c6ac34337246d072618767b77673cc24",
        "1948378be8bd700f78df3b41c46a1437082c3f044963bee421fe4010cddc3c84",
    ),
    "replical-explicit": (
        "35da264a9154455ba7c8f123b4dbbf0895ab2e0e6d15ee8201f8e05577b31bfb",
        "ea4d066c4d8aa87a9409078f6257b54dbfec5b06d1f5dff17727aaf8bfd5b152",
    ),
    "replical-weighted": (
        "b916bc5c9f4e752748b7c56778c5d39f450b00386bdb6c8c7cbdf8ee704bcd75",
        "23f9a821955a21de1d3fee72f1fdd2df01bb909149fdb635e524df7cd4e0a613",
    ),
}


def test_inexact_batches_exercise_what_they_are_for():
    explicit = ra.Problem(*build_problem(INEXACT_BATCHES["cal-explicit"]))
    assert not explicit.region.all()
    for name, cfg in INEXACT_BATCHES.items():
        _, model = build_problem(cfg)
        assert model._total == 2**53, name
        report = run_paired_trials(cfg)
        assert report.failure_counts == (), name
        if cfg.algo != "erm":
            assert min(row.rounds for row in report.rows) >= 1, name


@pytest.mark.parametrize("name", sorted(INEXACT_BATCHES))
def test_inexact_golden_digests(name):
    cfg = INEXACT_BATCHES[name]
    sides = [
        json.dumps(result.to_jsonable(), sort_keys=True)
        for outcome in iter_paired_runs(cfg)
        for result in (outcome.result_first, outcome.result_second)
    ]
    digests = (_sha256(report_csv(run_paired_trials(cfg))), _sha256("\n".join(sides)))
    assert digests == INEXACT_DIGESTS[name]
