"""Response-function values, invariants, and analytic gradients.

Expected numbers were computed independently (closed-form logistic and
softmax arithmetic) before being frozen here.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import log_expit

from helpers import (
    finite_difference_score,
    random_item,
    random_items,
    random_pattern,
)
from irtimpute.errors import CodeOutOfRange, DataError
from irtimpute.models import (
    Binary2PL,
    GradedItem,
    ItemModel,
    NominalItem,
    category_probs,
    log_category_probs,
    pattern_loglik,
    pattern_score,
    prob_2pl,
)

FAMILIES = ("2pl", "grm", "nrm")


class TestBinary2PL:
    def test_known_value(self):
        # sigmoid(1 * (2 - 0)) = 1 / (1 + e^-2)
        assert_allclose(prob_2pl(2.0, a=1.0, b=0.0), 0.8807970779778823,
                        rtol=1e-15)

    def test_half_probability_at_location(self):
        assert prob_2pl(0.37, a=1.7, b=0.37) == 0.5

    def test_monotone_in_theta(self):
        thetas = np.linspace(-6, 6, 201)
        probs = prob_2pl(thetas, a=1.3, b=-0.5)
        assert np.all(np.diff(probs) > 0)

    def test_slope_steepens_curve(self):
        assert prob_2pl(1.0, a=3.0, b=0.0) > prob_2pl(1.0, a=1.0, b=0.0)
        assert prob_2pl(-1.0, a=3.0, b=0.0) < prob_2pl(-1.0, a=1.0, b=0.0)

    def test_extreme_logits_do_not_overflow(self):
        with np.errstate(over="raise"):
            low = prob_2pl(-6.0, a=50.0, b=6.0)
            high = prob_2pl(6.0, a=50.0, b=-6.0)
        assert 0.0 <= low <= 1.0
        assert 0.0 <= high <= 1.0

    def test_positive_slope_required(self):
        with pytest.raises(DataError):
            Binary2PL(-1.0, 0.0)
        with pytest.raises(DataError):
            Binary2PL(0.0, 0.0)


class TestGradedModel:
    def test_boundary_known_value(self):
        # sigmoid(1.5 * (0 - -0.5)) = sigmoid(0.75)
        assert_allclose(prob_2pl(0.0, a=1.5, b=-0.5),
                        0.679178699175393, rtol=1e-15)

    def test_category_known_values(self):
        # a=1, boundaries (-1, 0, 1), theta=0: boundary probs are
        # sigmoid(1), sigmoid(0), sigmoid(-1); categories are the
        # successive differences starting from 1 and ending at 0.
        item = GradedItem(1.0, (-1.0, 0.0, 1.0))
        probs = category_probs(0.0, item)
        expected = [0.2689414213699951, 0.2310585786300049,
                    0.2310585786300049, 0.2689414213699951]
        assert_allclose(probs, expected, rtol=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        thetas = np.linspace(-6, 6, 41)
        for m in (2, 3, 5, 8):
            item = random_item(rng, "grm", m=m)
            probs = category_probs(thetas, item.params)
            assert np.all(probs >= 0)
            assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_boundaries_recoverable_from_categories(self):
        item = GradedItem(1.4, (-0.8, 0.3, 1.1))
        thetas = np.linspace(-4, 4, 17)
        probs = category_probs(thetas, item)
        for k, b_k in enumerate(item.boundaries, start=1):
            tail = probs[:, k:].sum(axis=-1)
            assert_allclose(tail, prob_2pl(thetas, item.a, b_k),
                            atol=1e-12)

    def test_expected_category_nondecreasing_in_theta(self):
        rng = np.random.default_rng(11)
        thetas = np.linspace(-6, 6, 121)
        for _ in range(20):
            item = random_item(rng, "grm", m=int(rng.integers(3, 7)))
            probs = category_probs(thetas, item.params)
            expected = probs @ np.arange(probs.shape[1])
            assert np.all(np.diff(expected) > -1e-12)

    def test_boundaries_must_increase(self):
        with pytest.raises(DataError):
            GradedItem(1.0, (0.5, 0.5))
        with pytest.raises(DataError):
            GradedItem(1.0, (1.0, -1.0))


class TestNominalModel:
    def test_known_values(self):
        # softmax of (0, 1*1 + 0.5, 2*1 - 1) = softmax(0, 1.5, 1)
        item = NominalItem((0.0, 1.0, 2.0), (0.0, 0.5, -1.0))
        probs = category_probs(1.0, item)
        expected = [0.12195165230972885, 0.5465493872661796,
                    0.3314989604240915]
        assert_allclose(probs, expected, rtol=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        thetas = np.linspace(-6, 6, 41)
        for m in (2, 3, 5, 8):
            item = random_item(rng, "nrm", m=m)
            probs = category_probs(thetas, item.params)
            assert np.all(probs >= 0)
            assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_two_category_nesting_matches_2pl(self):
        # With slopes (0, a) and intercepts (0, -a*b) the second-category
        # curve collapses to the binary model.
        rng = np.random.default_rng(17)
        thetas = np.linspace(-6, 6, 61)
        for _ in range(25):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(-3.0, 3.0)
            item = NominalItem((0.0, a), (0.0, -a * b))
            assert_allclose(category_probs(thetas, item)[:, 1],
                            prob_2pl(thetas, a=a, b=b), atol=1e-12)

    def test_anchor_required(self):
        with pytest.raises(DataError):
            NominalItem((0.1, 1.0), (0.0, 0.0))
        with pytest.raises(DataError):
            NominalItem((0.0, 1.0), (0.2, 0.0))


class TestLogProbs:
    def test_matches_probs_everywhere_reasonable(self):
        rng = np.random.default_rng(19)
        thetas = np.linspace(-6, 6, 25)
        for family in FAMILIES:
            for _ in range(10):
                item = random_item(rng, family, m=int(rng.integers(2, 6)))
                probs = category_probs(thetas, item)
                logs = log_category_probs(thetas, item)
                assert_allclose(np.exp(logs), probs, atol=1e-12)

    def test_tail_values_stay_finite_in_log_space(self):
        # At a(theta - b) = -60 the direct probability underflows in the
        # subtraction but the log form keeps full accuracy.
        item = GradedItem(10.0, (-1.0, 0.0, 6.0))
        logs = log_category_probs(-5.0, item)
        # category 1 sits between boundaries with logits z_1 = -40 and
        # z_2 = -50, so log(sigmoid(z_1) - sigmoid(z_2)) is, to within
        # e^-40 relative error, z_1 + log(1 - e^(z_2 - z_1))
        assert np.isfinite(logs[1])
        assert_allclose(logs[1], -40.0 + np.log1p(-np.exp(-10.0)), rtol=1e-12)

    def test_two_category_nominal_tails_match_log_expit(self):
        # Criterion 1's nesting identity, checked in log space: slopes (0, a)
        # and intercepts (0, -a b) make the nominal item a 2PL.  At
        # |a(theta - b)| of 40-60 the dominant category's log-probability is
        # about -e^-|z|, which exp(logs) cannot tell from 0.
        a, b = 10.0, 0.5
        item = NominalItem((0.0, a), (0.0, -a * b))
        for z in (-60.0, -45.0, 40.0, 55.0):
            logs = log_category_probs(b + z / a, item)
            assert_allclose(logs, [log_expit(-z), log_expit(z)], rtol=1e-12)


class TestOneProbabilityPath:
    """Category probabilities are the exponential of the fit's
    log-probabilities."""

    @pytest.mark.parametrize("params", [
        Binary2PL(1.3, -0.4),
        GradedItem(0.9, (0.2,)),
        GradedItem(1.7, (-1.2, 0.1, 0.9)),
        NominalItem((0.0, 1.4), (0.0, -0.3)),
        NominalItem((0.0, -0.8, 1.1, 2.0), (0.0, 0.5, -0.7, 0.2)),
    ], ids=["2pl", "grm-2", "grm-4", "nrm-2", "nrm-4"])
    @pytest.mark.parametrize("theta", [0.37, np.linspace(-8, 8, 33)],
                             ids=["scalar", "array"])
    def test_probs_are_exp_of_log_probs(self, params, theta):
        item = ItemModel("x", params)
        want = np.exp(log_category_probs(theta, item))
        np.testing.assert_array_equal(category_probs(theta, item), want)
        np.testing.assert_array_equal(category_probs(theta, params), want)

    @pytest.mark.parametrize("theta", [6, 8, 10])
    def test_graded_tail_matches_exact_arithmetic(self, theta):
        # sigmoid(z_1) - sigmoid(z_2) in 60 digits; a difference of two
        # doubles that both round near 1 would lose most of them
        a, bounds = 4, (-1, 1)
        with localcontext() as ctx:
            ctx.prec = 60
            star = [Decimal(1)] + [
                1 / (1 + (-Decimal(a * (theta - b))).exp()) for b in bounds
            ] + [Decimal(0)]
            exact = [float(star[k] - star[k + 1]) for k in range(3)]
        got = category_probs(float(theta), GradedItem(4.0, (-1.0, 1.0)))
        assert_allclose(got, exact, rtol=1e-12, atol=0)


class TestPatternLoglik:
    def test_hand_computed_sum(self):
        items = (
            ItemModel("u", Binary2PL(1.0, 0.0)),
            ItemModel("v", GradedItem(1.0, (-1.0, 0.0, 1.0))),
        )
        # at theta=0: P(u=1) = 0.5, P(v=2) = 0.2310585786300049
        got = pattern_loglik([1, 2], items, 0.0)
        assert_allclose(got, np.log(0.5) + np.log(0.2310585786300049),
                        rtol=1e-14)

    def test_missing_cells_are_marginalized(self):
        rng = np.random.default_rng(23)
        items = random_items(rng, "nrm", 4, m=3)
        full = [1, 2, 0, 1]
        partial = [1, -1, 0, -1]
        kept = (items[0], items[2])
        assert_allclose(pattern_loglik(partial, items, 0.7),
                        pattern_loglik([1, 0], kept, 0.7), rtol=1e-14)
        assert pattern_loglik(full, items, 0.7) < pattern_loglik(partial, items, 0.7)

    def test_all_missing_is_zero(self):
        rng = np.random.default_rng(29)
        items = random_items(rng, "grm", 3, m=4)
        assert pattern_loglik([-1, -1, -1], items, 1.3) == 0.0

    def test_code_out_of_range(self):
        items = (ItemModel("u", Binary2PL(1.0, 0.0)),)
        with pytest.raises(CodeOutOfRange):
            pattern_loglik([2], items, 0.0)
        with pytest.raises(CodeOutOfRange):
            pattern_loglik([-2], items, 0.0)


class TestPatternScore:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(31)
        for _ in range(20):
            items = random_items(rng, family, 3, m=int(rng.integers(3, 6)))
            pattern = random_pattern(rng, items)
            theta = float(rng.uniform(-2.5, 2.5))
            got = pattern_score(pattern, items, theta)
            fd_theta, fd_items = finite_difference_score(pattern, items, theta)
            assert abs(got.theta - fd_theta) <= 1e-6 * max(1.0, abs(fd_theta))
            for g, fd in zip(got.items, fd_items):
                assert np.all(np.abs(g - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    def test_missing_items_get_zero_gradient(self):
        rng = np.random.default_rng(37)
        items = random_items(rng, "2pl", 3)
        got = pattern_score([1, -1, 0], items, 0.4)
        assert_allclose(got.items[1], 0.0)
        assert np.any(got.items[0] != 0)

    def test_2pl_theta_gradient_closed_form(self):
        # d loglik / d theta = a * (u - P(theta))
        item = ItemModel("u", Binary2PL(1.7, 0.3))
        for u in (0, 1):
            got = pattern_score([u], (item,), 0.9)
            expected = 1.7 * (u - prob_2pl(0.9, 1.7, 0.3))
            assert_allclose(got.theta, expected, rtol=1e-12)


class TestParamVectors:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_roundtrip(self, family):
        rng = np.random.default_rng(41)
        item = random_item(rng, family, m=5)
        rebuilt = ItemModel(item.column,
                            item.params.with_vector(item.params.vector()))
        assert rebuilt == item

    def test_layouts(self):
        assert Binary2PL(1.5, -0.2).vector().tolist() == [1.5, -0.2]
        assert GradedItem(2.0, (-1.0, 1.0)).vector().tolist() == \
            [2.0, -1.0, 1.0]
        assert NominalItem(
            (0.0, 0.5, 1.0), (0.0, -0.3, 0.7)
        ).vector().tolist() == [0.5, 1.0, -0.3, 0.7]


class TestSerialization:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dict_roundtrip(self, family):
        rng = np.random.default_rng(43)
        item = ItemModel("col", random_item(rng, family, m=4).params)
        assert ItemModel.from_dict(item.to_dict()) == item

    def test_unknown_family_rejected(self):
        with pytest.raises(DataError):
            ItemModel.from_dict({"column": "c", "family": "rasch", "a": 1.0})


class TestFamilyProtocol:
    """The per-family methods the M-step and the model file rely on."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_vector_and_dict_round_trips(self, family):
        params = random_item(np.random.default_rng(47), family, m=4).params
        assert params.family == family
        assert params.n_categories == params.probs(0.0).shape[-1]
        assert params.with_vector(params.vector()) == params
        assert type(params).from_dict(params.to_dict()) == params

    @pytest.mark.parametrize("family", FAMILIES)
    def test_x_space_round_trip_and_interior_clamp(self, family):
        params = random_item(np.random.default_rng(53), family, m=5).params
        x = params.to_x()
        assert_allclose(params.from_x(x).vector(), params.vector(),
                        rtol=1e-13, atol=1e-15)
        assert_allclose(params.kernel.clamp(x), x, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_chain_gradient_matches_central_differences(self, family):
        rng = np.random.default_rng(59)
        params = random_item(rng, family, m=4).params
        nodes = np.linspace(-4.0, 4.0, 21)
        r = rng.uniform(0.1, 5.0, size=(nodes.size, params.n_categories))
        x = params.to_x()

        def objective(v):
            return float(np.sum(r * params.from_x(v).log_probs(nodes)))

        _, d_params = params.from_x(x).grad(nodes)
        got = params.kernel.chain(x, np.einsum("qk,qkp->p", r, d_params))
        h = 1e-6
        fd = np.array([(objective(x + h * e) - objective(x - h * e)) / (2 * h)
                       for e in np.eye(x.size)])
        assert np.all(np.abs(got - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd)))

    @staticmethod
    def projected(params):
        """The parameters after the M-step's box projection in x-space."""
        return params.from_x(params.kernel.clamp(params.to_x()))

    @pytest.mark.parametrize("params", [
        Binary2PL(60.0, 0.0), Binary2PL(1e-4, 0.0),
        GradedItem(60.0, (-1.0, 0.5)), GradedItem(1e-4, (-1.0, 0.5)),
    ], ids=["2pl-steep", "2pl-flat", "grm-steep", "grm-flat"])
    def test_slope_outside_box_reports_slope_clamp(self, params):
        clamped = self.projected(params)
        assert clamped.bound_events("z") == [
            f"z: slope clamped at {clamped.a:g}"]

    @pytest.mark.parametrize("params", [
        Binary2PL(1.0, 70.0),
        GradedItem(1.0, (-20.0, 0.0, 60.0)),
        NominalItem((0.0, 60.0), (0.0, 1.0)),
        NominalItem((0.0, 1.0), (0.0, -70.0)),
    ], ids=["2pl", "grm", "nrm-slope", "nrm-intercept"])
    def test_location_outside_box_reports_location_clamp(self, params):
        assert self.projected(params).bound_events("z") == [
            "z: location clamped at magnitude 50"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_interior_values_report_no_clamp(self, family):
        params = random_item(np.random.default_rng(67), family, m=4).params
        assert self.projected(params).bound_events("z") == []


class TestBinaryIsOneBoundaryGraded:
    """``Binary2PL(a, b)`` and ``GradedItem(a, (b,))`` share one body, so
    every family rule gives the same bits for both."""

    @staticmethod
    def same_bits(left, right):
        left, right = np.asarray(left), np.asarray(right)
        assert left.shape == right.shape
        assert left.tobytes() == right.tobytes()

    @pytest.mark.parametrize("a, b, clamped", [
        (1.3, -0.4, False), (0.02, 2.5, False), (60.0, 0.0, True),
        (1e-4, -0.7, True), (1.0, 70.0, True), (50.0, -50.0, True),
    ], ids=["inside", "flat", "steep", "too-flat", "far", "corner"])
    def test_rules_agree_bit_for_bit(self, a, b, clamped):
        binary, graded = Binary2PL(a, b), GradedItem(a, (b,))
        theta = np.linspace(-8.0, 8.0, 41)
        assert binary.n_categories == graded.n_categories == 2
        self.same_bits(binary.log_probs(theta), graded.log_probs(theta))
        for got, want in zip(binary.grad(theta), graded.grad(theta)):
            self.same_bits(got, want)
        self.same_bits(binary.vector(), graded.vector())
        vector = np.array([2.0, 0.5])
        self.same_bits(binary.with_vector(vector).vector(),
                       graded.with_vector(vector).vector())
        x = binary.to_x()
        self.same_bits(x, graded.to_x())
        for point in (x, x + 0.3, binary.kernel.clamp(x)):
            self.same_bits(binary.from_x(point).vector(),
                           graded.from_x(point).vector())
        assert binary.bound_events("z") == graded.bound_events("z")
        # the M-step's projection onto the box, then its clamp events
        binary = binary.from_x(binary.kernel.clamp(x))
        graded = graded.from_x(graded.kernel.clamp(graded.to_x()))
        assert type(binary) is Binary2PL
        self.same_bits(binary.vector(), graded.vector())
        events = binary.bound_events("z")
        assert events == graded.bound_events("z")
        assert bool(events) == clamped

    def test_classes_hold_no_rule_of_their_own(self):
        shared = {"log_probs", "grad", "vector", "with_vector", "to_x",
                  "from_x", "bound_events"}
        for cls in (Binary2PL, GradedItem):
            assert not shared & set(vars(cls))
