import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoscore.core import ScoreRange
from autoscore.ingest import DatasetError
from autoscore.metrics import (
    MetricsReport,
    PairedScores,
    ZeroVariance,
    accuracy,
    cohen_kappa_binary,
    compute_report,
    confusion_matrix,
    count_agreement,
    f1_binary,
    mae,
    pearson,
    qwk,
    rmse,
    spearman,
    validate_components,
)
from autoscore.schema import StructuredRepresentation, compile_schema

import oracles
from conftest import SCIENCE_SCHEMA_DEF


def paired(gold, pred, lo=0, hi=3):
    return PairedScores(tuple(gold), tuple(pred), ScoreRange(lo, hi))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(paired([0, 1, 2, 3], [0, 1, 2, 3])) == 1.0

    def test_none_right(self):
        assert accuracy(paired([0, 1], [1, 0])) == 0.0

    def test_half_right(self):
        # hand count: matches at positions 0 and 2
        assert accuracy(paired([0, 0, 1, 2], [0, 1, 1, 3])) == 0.5


class TestQwk:
    def test_identity_is_one(self):
        assert qwk(paired([0, 1, 2, 3, 2], [0, 1, 2, 3, 2])) == 1.0

    def test_derived_example_matches_oracle(self):
        # frozen from the direct O/E/w summation oracle
        assert qwk(paired([0, 0, 1, 2], [0, 1, 1, 3])) == pytest.approx(
            0.7647058823529412, abs=1e-15
        )

    def test_degenerate_same_category_is_one(self):
        assert qwk(paired([0, 0, 0], [0, 0, 0])) == 1.0

    def test_constant_but_different_categories(self):
        # marginals on different single categories: denominator is nonzero
        assert qwk(paired([0, 0, 0], [3, 3, 3])) == 0.0

    def test_weight_normalization_cancels_across_declared_scales(self):
        # unobserved categories carry zero marginal mass and the (K-1)^2
        # weight normalization cancels in the ratio, so widening the
        # declared rubric range leaves kappa unchanged
        narrow = paired([0, 1, 0, 1], [0, 1, 1, 0], lo=0, hi=1)
        wide = paired([0, 1, 0, 1], [0, 1, 1, 0], lo=0, hi=3)
        assert qwk(narrow) == qwk(wide)
        # the confusion matrix, in contrast, does span the declared scale
        assert len(confusion_matrix(wide)) == 4
        assert len(confusion_matrix(narrow)) == 2


class TestErrors:
    def test_zero_errors(self):
        p = paired([1, 2], [1, 2])
        assert mae(p) == 0.0 and rmse(p) == 0.0

    def test_hand_example(self):
        p = paired([0, 2], [1, 0])
        assert mae(p) == 1.5
        assert rmse(p) == pytest.approx(math.sqrt(2.5), abs=1e-15)


class TestCorrelations:
    def test_identity(self):
        p = paired([0, 1, 2, 3], [0, 1, 2, 3])
        assert pearson(p) == 1.0
        assert spearman(p) == 1.0

    def test_reversal(self):
        gold = [0, 1, 2, 3]
        p = paired(gold, [3 - g for g in gold])
        assert pearson(p) == -1.0
        assert spearman(p) == -1.0

    def test_tied_ranks_match_oracle(self):
        p = paired([0, 1, 1, 3], [0, 2, 1, 3])
        assert pearson(p) == pytest.approx(0.9233805168766388, abs=1e-15)
        assert spearman(p) == pytest.approx(0.9486832980505138, abs=1e-15)

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVariance):
            pearson(paired([1, 1, 1], [0, 1, 2]))
        with pytest.raises(ZeroVariance):
            spearman(paired([0, 1, 2], [1, 1, 1]))


class TestCohenKappa:
    def test_identical_with_both_classes(self):
        assert cohen_kappa_binary([True, False, True], [True, False, True]) == 1.0

    def test_symmetric_disagreement(self):
        gold = [True, True, False, False]
        pred = [True, False, True, False]
        assert cohen_kappa_binary(gold, pred) == 0.0

    def test_all_true_vs_all_true_convention(self):
        assert cohen_kappa_binary([True] * 4, [True] * 4) == 1.0


class TestF1:
    def test_identical(self):
        assert f1_binary([True, False], [True, False]) == 1.0

    def test_total_disagreement(self):
        assert f1_binary([True, False], [False, True]) == 0.0

    def test_hand_example(self):
        assert f1_binary(
            [True, True, False], [True, False, False]
        ) == pytest.approx(2 / 3, abs=1e-15)

    def test_no_positives_anywhere_convention(self):
        assert f1_binary([False, False], [False, False]) == 1.0


class TestCountAgreement:
    def test_identical(self):
        c = count_agreement([1, 2, 3], [1, 2, 3])
        assert (c["mae"], c["rmse"], c["exact_match_rate"]) == (0.0, 0.0, 1.0)
        assert c["pearson"] == 1.0

    def test_identical_but_constant_reports_none(self):
        c = count_agreement([2, 2, 2], [2, 2, 2])
        assert c["pearson"] is None
        assert c["exact_match_rate"] == 1.0

    def test_hand_example(self):
        c = count_agreement([1, 2, 0], [1, 1, 0])
        assert c["mae"] == pytest.approx(1 / 3, abs=1e-15)
        assert c["exact_match_rate"] == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_is_an_error(self):
        with pytest.raises(DatasetError, match="^no count pairs$"):
            count_agreement([], [])


scores_strategy = st.integers(0, 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(scores_strategy, scores_strategy), min_size=1, max_size=40))
def test_qwk_is_symmetric(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    assert qwk(paired(gold, pred)) == pytest.approx(
        qwk(paired(pred, gold)), abs=1e-12
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(scores_strategy, scores_strategy), min_size=2, max_size=40))
def test_qwk_is_one_iff_equal(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    value = qwk(paired(gold, pred))
    if gold == pred:
        assert value == 1.0
    else:
        assert value < 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(scores_strategy, scores_strategy), min_size=1, max_size=40))
def test_accuracy_equals_confusion_trace_over_n(pairs):
    p = paired([g for g, _ in pairs], [r for _, r in pairs])
    trace = sum(confusion_matrix(p)[i][i] for i in range(p.range.cardinality))
    assert accuracy(p) == trace / p.n


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(scores_strategy, scores_strategy), min_size=1, max_size=40))
def test_mae_never_exceeds_rmse(pairs):
    p = paired([g for g, _ in pairs], [r for _, r in pairs])
    assert mae(p) <= rmse(p) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=30
    ),
    scale=st.integers(1, 10),
    offset=st.integers(-50, 50),
    side=st.sampled_from(["x", "y"]),
)
def test_pearson_invariant_under_positive_affine_transform(
    pairs, scale, offset, side
):
    xs = [g for g, _ in pairs]
    ys = [p for _, p in pairs]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    from autoscore.metrics import _pearson_values

    base = _pearson_values(xs, ys)
    if side == "x":
        transformed = _pearson_values([scale * x + offset for x in xs], ys)
    else:
        transformed = _pearson_values(xs, [scale * y + offset for y in ys])
    assert transformed == pytest.approx(base, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=30
    )
)
def test_spearman_invariant_under_strictly_increasing_transform(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    if len(set(gold)) < 2 or len(set(pred)) < 2:
        return
    p1 = paired(gold, pred, 0, 6)
    transformed = [g * g + 2 * g for g in gold]  # strictly increasing on 0..6
    from autoscore.metrics import _pearson_values, _doubled_average_ranks

    direct = spearman(p1)
    via_transform = _pearson_values(
        _doubled_average_ranks(transformed), _doubled_average_ranks(pred)
    )
    assert via_transform == pytest.approx(direct, abs=1e-12)


def test_metric_oracle_agreement_sample():
    # a quick slice of the acceptance sweep; the full 1000 runs there
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 50)
        lo = rng.randint(0, 2)
        hi = lo + rng.randint(1, 6)
        gold = [rng.randint(lo, hi) for _ in range(n)]
        pred = [rng.randint(lo, hi) for _ in range(n)]
        p = paired(gold, pred, lo, hi)
        assert accuracy(p) == pytest.approx(
            oracles.oracle_accuracy(gold, pred), abs=1e-12
        )
        assert qwk(p) == pytest.approx(
            oracles.oracle_qwk(gold, pred, lo, hi), abs=1e-12
        )
        assert mae(p) == pytest.approx(oracles.oracle_mae(gold, pred), abs=1e-12)
        assert rmse(p) == pytest.approx(oracles.oracle_rmse(gold, pred), abs=1e-12)


class TestComputeReport:
    def test_all_correct_run(self):
        report = compute_report(paired([0, 1, 2, 3], [0, 1, 2, 3]))
        assert report.accuracy == 1.0
        assert report.qwk == 1.0
        assert report.mae == 0.0

    def test_null_cells_for_undefined_correlations(self):
        report = compute_report(paired([1, 1, 1], [0, 1, 2]))
        assert report.pearson is None
        assert report.spearman is None
        assert report.to_dict()["pearson"] is None
        assert "—" in report.to_text()

    def test_confusion_sums_to_n(self):
        p = paired([0, 0, 1, 2], [0, 1, 1, 3])
        report = compute_report(p)
        assert sum(sum(row) for row in report.confusion) == p.n

    def test_report_roundtrips_to_dict(self):
        report = compute_report(paired([0, 1], [1, 0]), failures=2, label="x")
        data = report.to_dict()
        assert data["failures"] == 2 and data["label"] == "x"
        assert data["n"] == 2


class TestEvaluateRun:
    def _result(self, golds, preds, failures=()):
        from autoscore.core import ScoredRecord
        from autoscore.pipeline import RunResult

        records = [
            ScoredRecord(f"r{i}", "baseline", g, p, None)
            for i, (g, p) in enumerate(zip(golds, preds))
        ]
        manifest = {"mode": "baseline", "score_range": {"min": 0, "max": 3}}
        return RunResult(
            records=records, failures=list(failures), manifest=manifest
        )

    def test_n_excludes_failures_and_echoes_their_count(self):
        from autoscore.metrics import evaluate_run

        result = self._result(
            [0, 1, 2], [0, 1, 2], failures=[("r9", "ExtractionFailed: x")]
        )
        report = evaluate_run(result)
        assert report.n == 3
        assert report.failures == 1
        assert report.label == "baseline"

    def test_records_without_gold_are_rejected(self):
        from autoscore.metrics import evaluate_run

        result = self._result([0, None], [0, 1])
        with pytest.raises(DatasetError, match="records without gold scores"):
            evaluate_run(result)


SCIENCE = compile_schema("synth", SCIENCE_SCHEMA_DEF)


def _rep(design_count, validity_count, valid_conclusion):
    return StructuredRepresentation(
        "synth",
        {
            "valid_conclusion": valid_conclusion,
            "conclusions": [],
            "design_improvements": ["x"] * design_count,
            "validity_improvements": ["y"] * validity_count,
            "design_count": design_count,
            "validity_count": validity_count,
        },
    )


# frozen reliability fixture: one flipped boolean out of 10; counts differ
# at 3 and 1 of 10 positions respectively (see test values for provenance)
BOOL_GOLD = [True] * 6 + [False] * 4
BOOL_PRED = [True, True, False, True, True, True, False, False, False, False]
DESIGN_GOLD = [1, 2, 0, 1, 1, 2, 0, 1, 2, 1]
DESIGN_PRED = [1, 1, 0, 1, 2, 2, 0, 1, 2, 0]
VALIDITY_GOLD = [0, 1, 1, 0, 2, 1, 0, 0, 1, 0]
VALIDITY_PRED = [0, 1, 1, 0, 2, 1, 0, 1, 1, 0]
IDS = [f"c{i:02d}" for i in range(1, 11)]


def _reliability_fixture():
    predicted = {}
    gold = {}
    for i, rid in enumerate(IDS):
        predicted[rid] = _rep(DESIGN_PRED[i], VALIDITY_PRED[i], BOOL_PRED[i])
        gold[rid] = {
            "valid_conclusion": BOOL_GOLD[i],
            "design_count": DESIGN_GOLD[i],
            "validity_count": VALIDITY_GOLD[i],
        }
    return predicted, gold


class TestValidateComponents:
    def test_perfect_agreement(self):
        predicted, _ = _reliability_fixture()
        gold = {
            rid: {
                "valid_conclusion": rep.values["valid_conclusion"],
                "design_count": rep.values["design_count"],
                "validity_count": rep.values["validity_count"],
            }
            for rid, rep in predicted.items()
        }
        report = validate_components(predicted, gold, SCIENCE)
        assert report["boolean_fields"]["valid_conclusion"]["accuracy"] == 1.0
        assert report["count_fields"]["design_count"]["exact_match_rate"] == 1.0
        assert report["count_fields"]["design_count"]["mae"] == 0.0
        assert report["overall_exact_match_rate"] == 1.0

    def test_frozen_fixture_statistics(self):
        predicted, gold = _reliability_fixture()
        report = validate_components(predicted, gold, SCIENCE)
        b = report["boolean_fields"]["valid_conclusion"]
        # hand-computed: 9/10 agree; tp=5 fp=0 fn=1; po=.9 pe=.5
        assert b["accuracy"] == 0.9
        assert b["f1"] == 10 / 11
        assert b["cohen_kappa"] == 0.8
        d = report["count_fields"]["design_count"]
        # ints: L1=3 SSE=3 exact=7; moments num=40 vx=49 vy=60
        assert d["mae"] == 0.3
        assert d["rmse"] == math.sqrt(3 / 10)
        assert d["pearson"] == 40 / math.sqrt(49 * 60)
        assert d["exact_match_rate"] == 0.7
        v = report["count_fields"]["validity_count"]
        assert v["mae"] == 0.1
        assert v["rmse"] == math.sqrt(1 / 10)
        assert v["pearson"] == 38 / math.sqrt(44 * 41)
        assert v["exact_match_rate"] == 0.9
        assert report["overall_exact_match_rate"] == 0.6

    def test_misaligned_ids(self):
        predicted, gold = _reliability_fixture()
        del gold[IDS[0]]
        with pytest.raises(DatasetError, match="predicted/gold ids differ"):
            validate_components(predicted, gold, SCIENCE)

    def test_gold_missing_schema_field(self):
        predicted, gold = _reliability_fixture()
        del gold[IDS[3]]["design_count"]
        with pytest.raises(DatasetError, match="lacks field 'design_count'"):
            validate_components(predicted, gold, SCIENCE)

    def test_predicted_value_of_the_wrong_kind(self):
        predicted, gold = _reliability_fixture()
        predicted[IDS[4]].values["design_count"] = True
        with pytest.raises(DatasetError, match="^representation for c05 has "
                                               "'design_count' = True, expected "
                                               "non-negative integer$"):
            validate_components(predicted, gold, SCIENCE)

    def test_representation_of_another_schema(self):
        predicted, gold = _reliability_fixture()
        predicted[IDS[2]] = StructuredRepresentation("other", predicted[IDS[2]].values)
        with pytest.raises(DatasetError, match="^c03: representation belongs to "
                                               "schema 'other', expected 'synth'$"):
            validate_components(predicted, gold, SCIENCE)

    def test_schema_without_count_fields_reports_overall_rate_one(self):
        schema = compile_schema("flags", {"fields": [{"name": "ok", "kind": "boolean"}]})
        predicted = {"a": StructuredRepresentation("flags", {"ok": True}),
                     "b": StructuredRepresentation("flags", {"ok": False})}
        report = validate_components(predicted, {"a": {"ok": True}, "b": {"ok": True}},
                                     schema)
        assert report["boolean_fields"]["ok"]["accuracy"] == 0.5
        assert report["count_fields"] == {}
        assert report["overall_exact_match_rate"] == 1.0

    def test_report_exposes_reliability_quantities(self):
        predicted, gold = _reliability_fixture()
        data = validate_components(predicted, gold, SCIENCE)
        bool_stats = data["boolean_fields"]["valid_conclusion"]
        assert set(bool_stats) == {"accuracy", "f1", "cohen_kappa"}
        count_stats = data["count_fields"]["design_count"]
        assert set(count_stats) == {"mae", "rmse", "pearson", "exact_match_rate"}
        assert "overall_exact_match_rate" in data
