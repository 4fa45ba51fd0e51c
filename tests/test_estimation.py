"""Grid construction, EM fitting, EAP scoring, model persistence.

Expected-count oracles are brute-force per-case loops; the M-step's oracle
is the per-item finite-difference Newton in ``helpers``; EAP oracles use a
10,001-node dense grid; recovery targets were confirmed by pilot runs and
frozen (seeds recorded with each test).
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm

from helpers import (
    dense_e_step,
    em_loop_fit,
    fd_hessian,
    random_item,
    reference_m_step,
    reference_objective,
)
from irtimpute import estimation
from irtimpute.data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
    DiscretizationMap,
)
from irtimpute.errors import (
    CodeOutOfRange,
    DataError,
    EmptyCategory,
    InsufficientData,
    NumericalFailure,
    UnobservedCategory,
)
from irtimpute.estimation import (
    FitConfig,
    FittedModel,
    QuadratureGrid,
    _design,
    _m_step,
    _objective,
    _posterior,
    _posteriors_and_loglik,
    build_grid,
    diagnostics_report,
    e_step,
    eap_score,
    eap_scores,
    fit,
    load_model,
    m_step_item,
    save_model,
)
from irtimpute.models import (
    Binary2PL,
    GradedItem,
    ItemModel,
    NominalItem,
    category_probs,
    log_category_probs,
    pattern_loglik,
)
from irtimpute.simulate import simulate_dataset, simulate_items


class TestBuildGrid:
    def test_default_shape(self):
        grid = build_grid()
        assert grid.size == 61
        assert grid.nodes[0] == -6.0 and grid.nodes[-1] == 6.0

    def test_weights_symmetric_and_normalized(self):
        grid = build_grid(61, (-6.0, 6.0))
        w = grid.weight_array()
        assert_allclose(w, w[::-1], rtol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w > 0)

    def test_weighted_node_mean_is_zero(self):
        grid = build_grid()
        assert abs(grid.weight_array() @ grid.node_array()) <= 1e-12

    @pytest.mark.parametrize("size", [11, 41, 61, 101])
    @pytest.mark.parametrize("grid_range", [(-6.0, 6.0), (-4.0, 4.0),
                                            (-5.0, 3.5)])
    def test_weights_equal_scipy_normal_pdf(self, size, grid_range):
        # bit for bit, or every model file changes
        weights = norm.pdf(np.linspace(*grid_range, size))
        weights /= weights.sum()
        assert_array_equal(build_grid(size, grid_range).weight_array(),
                           weights)

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            build_grid(5)
        with pytest.raises(DataError):
            build_grid(61, (2.0, -2.0))

    def test_grid_invariants_enforced(self):
        with pytest.raises(DataError):
            QuadratureGrid((0.0, 1.0), (0.5, 0.6))
        with pytest.raises(DataError):
            QuadratureGrid((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(DataError):
            QuadratureGrid((0.0, 1.0), (1.0, 0.0))


def toy_items():
    return (
        ItemModel("u", Binary2PL(1.2, -0.3)),
        ItemModel("v", GradedItem(0.9, (-0.5, 0.8))),
    )


def toy_data():
    schemas = (ColumnSchema("u", "binary"),
               ColumnSchema("v", "ordinal", arity=3))
    cells = np.array([
        [1, 0],
        [0, 2],
        [1, MISSING],
        [MISSING, 1],
        [MISSING, MISSING],
    ], dtype=float)
    return CategoricalDataset(schemas, cells)


def brute_force_e_step(data, items, grid):
    """Per-case python loops; the vectorized E-step must match this."""
    weights = grid.weight_array()
    nodes = grid.node_array()
    counts = [np.zeros((grid.size, it.n_categories)) for it in items]
    masses = np.zeros(grid.size)
    loglik = 0.0
    posteriors = []
    for row in range(data.n_rows):
        pattern = [int(data.cells[row, j]) for j in range(len(items))]
        joint = np.array([
            weights[q] * np.exp(pattern_loglik(pattern, items, nodes[q]))
            for q in range(grid.size)
        ])
        loglik += np.log(joint.sum())
        post = joint / joint.sum()
        posteriors.append(post)
        masses += post
        for i, code in enumerate(pattern):
            if code >= 0:
                counts[i][:, code] += post
    return counts, masses, loglik, np.array(posteriors)


class TestEStep:
    def test_matches_brute_force_oracle(self):
        data, items = toy_data(), toy_items()
        grid = build_grid(21, (-4.0, 4.0))
        result = e_step(data, items, grid)
        counts, masses, loglik, posts = brute_force_e_step(data, items, grid)
        for got, want in zip(result.expected_counts, counts):
            assert_allclose(got, want, atol=1e-12)
        assert_allclose(result.node_masses, masses, atol=1e-12)
        assert_allclose(result.marginal_loglik, loglik, rtol=1e-12)
        assert_allclose(result.posteriors, posts, atol=1e-12)

    def test_posterior_rows_sum_to_one(self):
        result = e_step(toy_data(), toy_items(), build_grid())
        assert_allclose(result.posteriors.sum(axis=1), 1.0, atol=1e-10)

    def test_node_masses_sum_to_case_count(self):
        result = e_step(toy_data(), toy_items(), build_grid())
        assert_allclose(result.node_masses.sum(), 5.0, atol=1e-8)

    def test_count_totals_equal_observed_counts(self):
        result = e_step(toy_data(), toy_items(), build_grid())
        assert_allclose(result.expected_counts[0].sum(), 3.0, atol=1e-8)
        assert_allclose(result.expected_counts[1].sum(), 3.0, atol=1e-8)

    def test_all_missing_case_has_prior_posterior(self):
        grid = build_grid()
        result = e_step(toy_data(), toy_items(), grid)
        assert_allclose(result.posteriors[4], grid.weight_array(), atol=1e-15)

    def test_identical_cases_identical_posteriors(self):
        schemas = (ColumnSchema("u", "binary"),)
        data = CategoricalDataset(schemas, np.array([[1.0], [1.0]]))
        items = (ItemModel("u", Binary2PL(1.0, 0.0)),)
        result = e_step(data, items, build_grid())
        assert_array_equal(result.posteriors[0], result.posteriors[1])

    def test_items_must_match_feature_columns(self):
        with pytest.raises(DataError):
            e_step(toy_data(), toy_items()[::-1], build_grid())

    def test_zero_likelihood_row_raises_without_warnings(self):
        log_joint = np.log(np.tile(build_grid().weight_array(), (3, 1)))
        log_joint[1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure):
                _posteriors_and_loglik(log_joint)


class TestSparseEStep:
    def test_bit_identical_to_dense_loop(self):
        # 2PL, graded and nominal items; 20 % of cells missing and the last
        # row missing everywhere
        rng = np.random.default_rng(17)
        items = (
            ItemModel("u", random_item(rng, "2pl").params),
            ItemModel("v", random_item(rng, "grm", m=4).params),
            ItemModel("w", random_item(rng, "nrm", m=3).params),
        )
        schemas = (ColumnSchema("u", "binary"),
                   ColumnSchema("v", "ordinal", arity=4),
                   ColumnSchema("w", "nominal", arity=3))
        codes = np.column_stack([rng.integers(item.n_categories, size=2000)
                                 for item in items])
        codes[rng.uniform(size=codes.shape) < 0.2] = MISSING
        codes[-1] = MISSING
        data = CategoricalDataset(schemas, codes.astype(float))
        grid = build_grid()
        result = e_step(data, items, grid)
        posts, counts, masses, loglik = dense_e_step(codes, items, grid)
        assert_array_equal(result.posteriors, posts)
        assert len(result.expected_counts) == len(counts)
        for got, want in zip(result.expected_counts, counts):
            assert_array_equal(got, want)
        assert_array_equal(result.node_masses, masses)
        assert result.marginal_loglik == loglik

    @staticmethod
    def posterior_with_impossible_categories(codes):
        """Core posterior for two binary items whose log table holds -inf.

        Item 0's category 0 is impossible below the middle node and item 1's
        category 1 is impossible everywhere.  Warnings are errors.
        """
        grid = build_grid()
        table = np.full((5, grid.size), np.log(0.5))
        table[0] = np.log(grid.weight_array())
        table[1, : grid.size // 2] = -np.inf
        table[4] = -np.inf
        items = (ItemModel("u", Binary2PL(1.0, 0.0)),
                 ItemModel("v", Binary2PL(1.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _posterior(_design(codes, items), table)

    def test_unobserved_minus_inf_leaves_posterior_finite(self):
        codes = np.array([[1, MISSING], [1, 0], [MISSING, MISSING]])
        posterior, loglik = self.posterior_with_impossible_categories(codes)
        assert np.all(np.isfinite(posterior))
        assert np.all(np.isfinite(loglik))
        assert_allclose(posterior[2], build_grid().weight_array(), atol=1e-15)

    def test_observed_minus_inf_everywhere_raises(self):
        with pytest.raises(NumericalFailure):
            self.posterior_with_impossible_categories(
                np.array([[1, 0], [0, 1]]))

class TestMStep:
    def test_stationary_counts_leave_parameters_unchanged(self):
        grid = build_grid()
        nodes = grid.node_array()
        masses = 300.0 * grid.weight_array()
        for family in ("2pl", "grm", "nrm"):
            item = random_item(np.random.default_rng(61), family, m=4)
            counts = masses[:, None] * category_probs(nodes, item)
            updated = m_step_item(item, counts, grid)
            assert_allclose(updated.params.vector(),
                            item.params.vector(), atol=1e-6)

    def test_step_function_counts_push_toward_step(self):
        # all mass above theta=0 answers 1, all mass below answers 0: the
        # location should move to ~0 and the slope should grow
        grid = build_grid()
        nodes = grid.node_array()
        masses = 500.0 * grid.weight_array()
        counts = np.zeros((grid.size, 2))
        counts[nodes > 0, 1] = masses[nodes > 0]
        counts[nodes <= 0, 0] = masses[nodes <= 0]
        item = ItemModel("u", Binary2PL(1.0, 0.7))
        updated = m_step_item(item, counts, grid)
        assert updated.params.a > item.params.a
        assert abs(updated.params.b) < abs(item.params.b)

    def test_optimum_pressed_against_the_box_converges_at_once(
            self, monkeypatch):
        # the step-function counts drive the slope to its box edge; started
        # at that optimum, the held slope's gradient must not keep the
        # Newton loop halving its step
        grid = build_grid()
        nodes = grid.node_array()
        masses = 500.0 * grid.weight_array()
        counts = np.zeros((grid.size, 2))
        counts[nodes > 0, 1] = masses[nodes > 0]
        counts[nodes <= 0, 0] = masses[nodes <= 0]
        optimum = m_step_item(ItemModel("u", Binary2PL(1.0, 0.7)), counts,
                              grid)
        assert optimum.params.bound_events("u")
        calls = []
        objective = estimation._objective

        def counted(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(estimation, "_objective", counted)
        again = m_step_item(optimum, counts, grid)
        assert len(calls) < 10
        assert_allclose(again.params.vector(), optimum.params.vector(),
                        rtol=1e-12)

    @pytest.mark.parametrize("family", ("2pl", "grm", "nrm"))
    def test_objective_never_decreases(self, family):
        grid = build_grid()
        nodes = grid.node_array()
        rng = np.random.default_rng(67)
        for _ in range(40):
            item = random_item(rng, family, m=int(rng.integers(2, 6)))
            counts = rng.gamma(1.0, 5.0, size=(grid.size, item.n_categories))
            updated = m_step_item(item, counts, grid)
            floored = np.maximum(counts, 1e-10)
            before = np.sum(floored * log_category_probs(nodes, item))
            after = np.sum(floored * log_category_probs(nodes, updated))
            assert after >= before - 1e-9

    @pytest.mark.parametrize("family", ("2pl", "grm", "nrm"))
    def test_random_counts_reach_the_reference_optimum(self, family):
        # counts no item fits drive slopes down and locations to the box
        # edge; the projected steps must not stall short of the optimum the
        # finite-difference Newton M-step finds
        grid = build_grid()
        nodes = grid.node_array()
        rng = np.random.default_rng(67)
        for _ in range(40):
            item = random_item(rng, family, m=int(rng.integers(2, 6)))
            counts = rng.gamma(1.0, 5.0, size=(grid.size, item.n_categories))
            floored = np.maximum(counts, 1e-10)
            (want,), _ = reference_m_step((item,), (counts,), grid)
            got = np.sum(floored * log_category_probs(
                nodes, m_step_item(item, counts, grid)))
            best = np.sum(floored * log_category_probs(nodes, want))
            assert got >= best - 1e-12 * abs(best)

    def test_empty_category_rejected(self):
        grid = build_grid()
        counts = np.ones((grid.size, 2))
        counts[:, 1] = 0.0
        with pytest.raises(EmptyCategory):
            m_step_item(ItemModel("u", Binary2PL(1.0, 0.0)), counts, grid)

    def test_shape_mismatch_rejected(self):
        grid = build_grid()
        with pytest.raises(DataError):
            m_step_item(ItemModel("u", Binary2PL(1.0, 0.0)),
                        np.ones((grid.size, 3)), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        grid = build_grid()
        counts = np.ones((grid.size, 2))
        counts[5, 1] = bad
        with pytest.raises(DataError, match="must be finite and nonnegative"):
            m_step_item(ItemModel("u", Binary2PL(1.0, 0.0)), counts, grid)

    @pytest.mark.parametrize("family, m", [
        ("2pl", 2), *(("grm", m) for m in range(2, 6)),
        *(("nrm", m) for m in range(2, 6))])
    def test_information_is_minus_hessian_at_stationary_counts(self, family,
                                                              m):
        # r = N pi makes the expected information the observed one
        grid = build_grid()
        nodes = grid.node_array()
        params = random_item(np.random.default_rng(113), family, m=m).params
        r = 300.0 * grid.weight_array()[:, None] * params.probs(nodes)
        x = params.to_x()
        _, _, info = _objective(params.kernel, x[None], r[None], nodes)
        hess = fd_hessian(reference_objective(params, r, nodes), x)
        assert_allclose(info[0], -hess, rtol=1e-7)

    def test_stacked_items_update_as_if_alone(self):
        # every family and category count, several items per group; one
        # item has all its count mass at one node
        grid = build_grid()
        rng = np.random.default_rng(127)
        items, counts = [], []
        for i in range(24):
            family = ("2pl", "grm", "nrm")[i % 3]
            m = 2 if family == "2pl" else int(rng.integers(2, 6))
            items.append(ItemModel(f"i{i:02d}",
                                   random_item(rng, family, m=m).params))
            counts.append(rng.gamma(1.0, 5.0, size=(grid.size, m)))
        counts[7] = np.zeros_like(counts[7])
        counts[7][40] = rng.uniform(1.0, 20.0, size=items[7].n_categories)
        together, _ = _m_step(tuple(items), counts, grid)
        for item, r, got in zip(items, counts, together):
            alone = m_step_item(item, r, grid)
            assert_array_equal(got.params.vector(),
                               alone.params.vector())


class TestFit:
    def test_small_recovery_smoke(self):
        # N=600, 6 binary items: loose sanity bound; the full frozen
        # N=2000 recovery runs live in the acceptance suite
        rng = np.random.default_rng(71)
        items = simulate_items("2pl", 6, rng)
        data = simulate_dataset(items, 600, seed=72)
        fitted = fit(data, FitConfig(seed=0))
        assert fitted.converged
        true_b = np.array([it.params.b for it in items])
        est_b = np.array([it.params.b for it in fitted.items])
        assert np.corrcoef(true_b, est_b)[0, 1] > 0.9

    def test_noise_columns_reach_the_reference_optimum(self, monkeypatch):
        # two columns that ignore the trait pull their slopes toward the
        # box edge; the fit must end no lower than with the per-item
        # finite-difference Newton M-step
        rng = np.random.default_rng(133)
        items = simulate_items("grm", 6, rng, n_categories=4)
        data = simulate_dataset(items, 1500, seed=134)
        cells = np.array(data.cells)
        cells[:, 4:] = rng.integers(0, 4, size=(1500, 2))
        data = data.with_cells(cells)
        got = fit(data, FitConfig(seed=0)).final_loglik
        monkeypatch.setattr(estimation, "_m_step", reference_m_step)
        want = fit(data, FitConfig(seed=0)).final_loglik
        assert got >= want - 1e-8 * abs(want)

    def test_loglik_trace_nondecreasing(self):
        rng = np.random.default_rng(73)
        items = simulate_items("grm", 4, rng, n_categories=3)
        data = simulate_dataset(items, 400, seed=74)
        fitted = fit(data, FitConfig(seed=0))
        trace = np.asarray(fitted.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8)
        assert fitted.final_loglik == trace[-1]

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(79)
        items = simulate_items("nrm", 4, rng, n_categories=3)
        data = simulate_dataset(items, 400, seed=80)
        one = fit(data, FitConfig(seed=3))
        two = fit(data, FitConfig(seed=3))
        assert one.loglik_trace == two.loglik_trace
        for a, b in zip(one.items, two.items):
            assert_array_equal(a.params.vector(), b.params.vector())

    def test_all_missing_row_changes_nothing(self):
        rng = np.random.default_rng(83)
        items = simulate_items("2pl", 5, rng)
        data = simulate_dataset(items, 300, seed=84)
        extra = np.vstack([data.cells, np.full((1, 5), float(MISSING))])
        augmented = data.with_cells(extra)
        base = fit(data, FitConfig(seed=0))
        more = fit(augmented, FitConfig(seed=0))
        for a, b in zip(base.items, more.items):
            assert_allclose(a.params.vector(), b.params.vector(),
                            atol=1e-10)

    def test_unobserved_category(self):
        schemas = (ColumnSchema("v", "ordinal", arity=3),)
        cells = np.array([[0.0], [2.0]] * 20)
        with pytest.raises(UnobservedCategory, match="category code 1"):
            fit(CategoricalDataset(schemas, cells))

    def test_insufficient_data(self):
        schemas = (ColumnSchema("u", "binary"),)
        cells = np.array([[0.0], [1.0]] * 7)
        with pytest.raises(InsufficientData):
            fit(CategoricalDataset(schemas, cells))

    def test_continuous_feature_rejected(self):
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("x", "continuous"))
        cells = np.column_stack([
            np.tile([0.0, 1.0], 15), np.linspace(0, 1, 30)
        ])
        with pytest.raises(DataError, match="discretize"):
            fit(CategoricalDataset(schemas, cells))

    def test_iteration_cap_sets_flag_not_error(self):
        # a SQUAREM cycle takes four maps: caps below four run plain maps,
        # and the caps past four cut the maps a second cycle would take
        rng = np.random.default_rng(89)
        items = simulate_items("2pl", 4, rng)
        data = simulate_dataset(items, 300, seed=90)
        for cap in range(1, 7):
            fitted = fit(data, FitConfig(seed=0, max_iter=cap))
            assert not fitted.converged
            assert fitted.iterations == cap
            trace = np.asarray(fitted.loglik_trace)
            assert trace.size == cap + 1
            assert np.all(np.diff(trace) >= -1e-8)
            assert fitted.final_loglik == trace[-1]

    def test_excluded_columns_are_not_modeled(self):
        rng = np.random.default_rng(97)
        items = simulate_items("2pl", 4, rng)
        data = simulate_dataset(items, 300, seed=98)
        schemas = list(data.schemas)
        schemas.append(ColumnSchema("outcome", "binary", role="excluded"))
        cells = np.column_stack([
            data.cells, np.tile([0.0, 1.0], 150)
        ])
        fitted = fit(CategoricalDataset(tuple(schemas), cells),
                     FitConfig(seed=0))
        assert [it.column for it in fitted.items] == \
            [it.column for it in items]


def _oracle_corpus(kind):
    """Simulated data for the plain-EM comparisons: one item family, or
    binary, graded and nominal items side by side."""
    rng = np.random.default_rng(211)
    if kind == "mixed":
        items = (simulate_items("2pl", 2, rng, name_prefix="b")
                 + simulate_items("grm", 2, rng, name_prefix="g")
                 + simulate_items("nrm", 2, rng, n_categories=3,
                                  name_prefix="n"))
    else:
        items = simulate_items(kind, 5, rng, n_categories=3)
    return simulate_dataset(items, 800, seed=212)


def _assert_same_optimum(got, want):
    assert got.converged and want.converged
    assert got.final_loglik >= want.final_loglik - 1e-8 * abs(want.final_loglik)
    for a, b in zip(got.items, want.items):
        assert_allclose(a.params.vector(), b.params.vector(), atol=1e-2)


class TestSquarem:
    """SQUAREM against the plain EM loop it accelerates."""

    @pytest.mark.parametrize("kind", ["grm", "mixed", "nrm"])
    def test_reaches_the_plain_em_optimum_in_fewer_maps(self, kind):
        data = _oracle_corpus(kind)
        got = fit(data, FitConfig(seed=0))
        want = em_loop_fit(data, FitConfig(seed=0))
        _assert_same_optimum(got, want)
        assert got.iterations < want.iterations

    def test_rejected_extrapolations_fall_back_monotonely(self, monkeypatch,
                                                         caplog):
        # a step this long throws the point far outside the optimum's
        # neighbourhood, so the guard must keep the second EM map instead
        data = _oracle_corpus("mixed")
        want = em_loop_fit(data, FitConfig(seed=0))
        monkeypatch.setattr(estimation, "_step_length", lambda r, v: -1e3)
        with caplog.at_level("DEBUG", logger="irtimpute.estimation"):
            got = fit(data, FitConfig(seed=0))
        assert "extrapolation rejected" in caplog.text
        assert np.all(np.diff(got.loglik_trace) >= -1e-8)
        _assert_same_optimum(got, want)

    def test_debug_log_has_one_line_per_cycle(self, caplog):
        data = _oracle_corpus("grm")
        with caplog.at_level("DEBUG", logger="irtimpute.estimation"):
            fit(data, FitConfig(seed=0, max_iter=4))
        (record,) = caplog.records
        assert record.levelname == "DEBUG"
        assert "alpha" in record.getMessage()


def dense_grid_eap(pattern, items, size=10001, lo=-6.0, hi=6.0):
    """Reference EAP on a dense grid, computed from first principles."""
    nodes = np.linspace(lo, hi, size)
    weights = np.exp(-0.5 * nodes**2)
    weights /= weights.sum()
    loglik = np.array([pattern_loglik(pattern, items, t) for t in nodes])
    post = weights * np.exp(loglik - loglik.max())
    post /= post.sum()
    mean = post @ nodes
    sd = np.sqrt(post @ (nodes - mean) ** 2)
    return mean, sd


class TestEapScore:
    def hand_model(self):
        items = (
            ItemModel("a", Binary2PL(1.4, -0.8)),
            ItemModel("b", Binary2PL(0.7, 0.2)),
            ItemModel("c", Binary2PL(2.1, 1.1)),
        )
        return FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))

    def test_matches_dense_grid_oracle(self):
        model = self.hand_model()
        for pattern in ([1, 0, 1], [0, 0, 0], [1, 1, 1], [1, -1, 0],
                        [-1, -1, 1]):
            est = eap_score(pattern, model)
            mean, sd = dense_grid_eap(pattern, model.items)
            assert abs(est.eap_mean - mean) <= 1e-3
            assert abs(est.posterior_sd - sd) <= 1e-3

    def test_all_missing_returns_prior(self):
        est = eap_score([-1, -1, -1], self.hand_model())
        assert abs(est.eap_mean) <= 1e-12
        assert abs(est.posterior_sd - 1.0) <= 1e-3

    def test_all_highest_pattern_scores_positive(self):
        est = eap_score([1, 1, 1], self.hand_model())
        assert est.eap_mean > 0

    def test_monotone_in_response_upgrades(self):
        rng = np.random.default_rng(101)
        items = (
            ItemModel("a", random_item(rng, "2pl").params),
            ItemModel("b", random_item(rng, "grm", m=4).params),
            ItemModel("c", random_item(rng, "grm", m=3).params),
        )
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        for _ in range(30):
            pattern = [int(rng.integers(it.n_categories)) for it in items]
            base = eap_score(pattern, model).eap_mean
            for i, item in enumerate(items):
                if pattern[i] + 1 < item.n_categories:
                    upgraded = list(pattern)
                    upgraded[i] += 1
                    assert eap_score(upgraded, model).eap_mean >= base - 1e-12

    def test_code_out_of_range(self):
        with pytest.raises(CodeOutOfRange):
            eap_score([2, 0, 0], self.hand_model())

    def test_pattern_length_checked(self):
        with pytest.raises(DataError):
            eap_score([1, 0], self.hand_model())

    def test_vectorized_scores_match_single(self):
        rng = np.random.default_rng(103)
        items = simulate_items("grm", 5, rng, n_categories=3)
        data = simulate_dataset(items, 50, seed=104)
        cells = np.array(data.cells)
        cells[::7, 2] = MISSING
        data = data.with_cells(cells)
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        means, sds = eap_scores(data, model)
        for row in range(data.n_rows):
            single = eap_score([int(c) for c in data.cells[row]], model)
            assert_allclose(means[row], single.eap_mean, atol=1e-12)
            assert_allclose(sds[row], single.posterior_sd, atol=1e-12)


class TestPersistence:
    def fitted(self):
        rng = np.random.default_rng(107)
        items = simulate_items("grm", 3, rng, n_categories=3)
        data = simulate_dataset(items, 300, seed=108)
        return fit(data, FitConfig(seed=0))

    def test_roundtrip_is_exact(self, tmp_path):
        model = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model

    def test_one_key_per_field(self, tmp_path):
        maps = (DiscretizationMap("z", (0.5,), ("q1", "q2")),
                DiscretizationMap("w", (-1.0, 2.0), ("lo", "mid", "hi")))
        model = dataclasses.replace(self.fitted(), discretization=maps,
                                    clamp_events=("item00: slope clamped",))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"format", "version"} | {
            f.name for f in dataclasses.fields(FittedModel)}
        assert payload["items"] == [item.to_dict() for item in model.items]
        assert payload["grid"] == {"nodes": list(model.grid.nodes),
                                   "weights": list(model.grid.weights)}
        assert payload["discretization"] == [
            {"column": m.column, "cuts": list(m.cuts),
             "labels": list(m.labels)} for m in maps]
        assert load_model(path) == model

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(DataError):
            load_model(path)
        path.write_text("not json")
        with pytest.raises(DataError):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        model = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_model(path)

    def test_diagnostics_report_mentions_items(self):
        model = self.fitted()
        report = diagnostics_report(model)
        assert "converged: yes" in report
        assert "item00 (grm)" in report
        assert "clamping events" in report
