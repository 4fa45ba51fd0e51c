"""Grid construction, EM fitting, EAP scoring, model persistence.

Expected-count oracles are brute-force per-case loops; the M-step's oracle
is the per-item finite-difference Newton in ``helpers``; EAP oracles use a
10,001-node dense grid; recovery targets were confirmed by pilot runs and
frozen (seeds recorded with each test).
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtri
from scipy.stats import norm

from helpers import (
    as_csr,
    dense_e_step,
    design_cases,
    em_loop_fit,
    item_m_steps,
    fd_hessian,
    random_item,
    reference_m_step,
    reference_m_steps,
    reference_objective,
    ulp_distance,
)
from irtimpute import estimation
from irtimpute.data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
    DiscretizationMap,
    apply_discretization,
    discretize_dataset,
)
from irtimpute.errors import (
    CodeOutOfRange,
    DataError,
    EmptyCategory,
    InsufficientData,
    NewtonDiverged,
    NumericalFailure,
    UnobservedCategory,
)
from irtimpute.estimation import (
    FitConfig,
    FittedModel,
    QuadratureGrid,
    _blocks,
    _codes_matrix,
    _design,
    _add_counts,
    _e_step_core,
    _log_joint,
    _log_table,
    _m_steps,
    _objective,
    _point,
    _posteriors_and_loglik,
    _solve_free,
    build_grid,
    diagnostics_report,
    e_step,
    eap_score,
    eap_scores,
    fit,
    fit_many,
    load_model,
    m_step_item,
    save_model,
)
from irtimpute.impute import impute_dataset
from irtimpute import models
from irtimpute.models import (
    Binary2PL,
    GradedItem,
    NominalItem,
    _as_json,
    category_probs,
    log_category_probs,
    pattern_loglik,
    pattern_score,
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
        # the squares overflow and the weights sum to zero; the grid's own
        # check says so, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid_range in ((-1e200, 1e200), (1e300, 1.0000001e300)):
                with pytest.raises(DataError, match="^grid weights must be "
                                                    "strictly positive$"):
                    build_grid(61, grid_range)

    def test_grid_invariants_enforced(self):
        with pytest.raises(DataError):
            QuadratureGrid((0.0, 1.0), (0.5, 0.6))
        with pytest.raises(DataError):
            QuadratureGrid((1.0, 0.0), (0.5, 0.5))
        with pytest.raises(DataError):
            QuadratureGrid((0.0, 1.0), (1.0, 0.0))


def toy_items():
    return (
        Binary2PL(1.2, -0.3, column="u"),
        GradedItem(0.9, (-0.5, 0.8), column="v"),
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


def walked_posteriors(codes, items, grid):
    """Every case's posterior as scoring makes it, block by block of
    ``_log_joints``."""
    return np.concatenate(
        [_posteriors_and_loglik(joint)[0].copy()
         for joint in estimation._log_joints(codes, items, grid)])


def toy_posteriors(grid):
    items = toy_items()
    return walked_posteriors(_codes_matrix(toy_data(), items), items, grid)


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
        assert_allclose(toy_posteriors(grid), posts, atol=1e-12)

    def test_posterior_rows_sum_to_one(self):
        posteriors = toy_posteriors(build_grid())
        assert_allclose(posteriors.sum(axis=1), 1.0, atol=1e-10)

    def test_node_masses_sum_to_case_count(self):
        result = e_step(toy_data(), toy_items(), build_grid())
        assert_allclose(result.node_masses.sum(), 5.0, atol=1e-8)

    def test_count_totals_equal_observed_counts(self):
        result = e_step(toy_data(), toy_items(), build_grid())
        assert_allclose(result.expected_counts[0].sum(), 3.0, atol=1e-8)
        assert_allclose(result.expected_counts[1].sum(), 3.0, atol=1e-8)

    def test_all_missing_case_has_prior_posterior(self):
        grid = build_grid()
        assert_allclose(toy_posteriors(grid)[4], grid.weight_array(),
                        atol=1e-15)

    def test_identical_cases_identical_posteriors(self):
        items = (Binary2PL(1.0, 0.0, column="u"),)
        posteriors = walked_posteriors(np.array([[1], [1]]), items,
                                       build_grid())
        assert_array_equal(posteriors[0], posteriors[1])

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


def mixed_codes(seed):
    """2PL, graded and nominal items with 2000 rows of their codes: 20 % of
    cells missing and the last row missing everywhere."""
    rng = np.random.default_rng(seed)
    items = (
        dataclasses.replace(random_item(rng, "2pl"), column="u"),
        dataclasses.replace(random_item(rng, "grm", m=4), column="v"),
        dataclasses.replace(random_item(rng, "nrm", m=3), column="w"),
    )
    codes = np.column_stack([rng.integers(item.n_categories, size=2000)
                             for item in items])
    codes[rng.uniform(size=codes.shape) < 0.2] = MISSING
    codes[-1] = MISSING
    return items, codes


def whole_log_joint(codes, items, table):
    """``X @ table`` over one design of every case."""
    return as_csr(_design(codes, items), len(table)) @ table


MIXED_SCHEMAS = (ColumnSchema("u", "binary"),
                 ColumnSchema("v", "ordinal", arity=4),
                 ColumnSchema("w", "nominal", arity=3))


class TestSparseEStep:
    @pytest.mark.parametrize("block", [None, 7])
    def test_bit_identical_to_dense_loop(self, block, monkeypatch):
        # a block of 7 rows puts seams inside the 2000 rows and leaves a
        # short last block
        if block is not None:
            monkeypatch.setattr(estimation, "_JOINT_BLOCK", block)
        items, codes = mixed_codes(17)
        data = CategoricalDataset(MIXED_SCHEMAS, codes.astype(float))
        grid = build_grid()
        result = e_step(data, items, grid)
        posts, counts, masses, loglik = dense_e_step(codes, items, grid)
        assert_array_equal(walked_posteriors(codes, items, grid), posts)
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
        items = (Binary2PL(1.0, 0.0, column="u"),
                 Binary2PL(1.0, 0.0, column="v"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _posteriors_and_loglik(whole_log_joint(codes, items,
                                                          table))

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("seed", [17, 19])
    def test_eap_log_joint_is_the_sparse_product(self, seed, block,
                                                  monkeypatch):
        # scoring gathers and adds rows without the design; a block of 7
        # rows puts seams inside the 2000 rows and leaves a short last block
        if block is not None:
            monkeypatch.setattr(estimation, "_JOINT_BLOCK", block)
        items, codes = mixed_codes(seed)
        grid = build_grid()
        want = whole_log_joint(codes, items, _log_table(_point(items), grid))
        got = np.concatenate([joint.copy() for joint in
                              estimation._log_joints(codes, items, grid)])
        assert_array_equal(got.view(np.int64), want.view(np.int64))

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


def same_bits(got, want):
    assert got.shape == want.shape
    assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture
def fresh_kernels():
    """The E-step's kernels load anew in the test, and again after it."""
    estimation._kernels.cache_clear()
    yield
    estimation._kernels.cache_clear()


class TestKernels:
    """The E-step's two products are scipy's compiled kernels on the design's
    own arrays; scipy's ``csr_array`` products are their oracle, bit for
    bit."""

    @staticmethod
    def assert_products_match(codes, items):
        grid = build_grid()
        table = _log_table(_point(items), grid)
        block = _design(codes, items)
        x = as_csr(block, len(table))
        # more ones than the block has entries, as a fit shares them
        ones = np.ones(len(block[1]) + 5)
        joint = _log_joint(block, ones, table)
        same_bits(joint, x @ table)
        posterior = np.random.default_rng(len(codes)).random(joint.shape)
        totals = np.zeros_like(table)
        _add_counts(block, ones, posterior, totals)
        same_bits(totals, x.T @ posterior)

    @pytest.mark.parametrize("seed", [17, 19, 23])
    def test_random_designs(self, seed):
        items, codes = mixed_codes(seed)
        self.assert_products_match(codes, items)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_a_block_of_no_case_or_one(self, rows):
        items, codes = mixed_codes(17)
        self.assert_products_match(codes[:rows], items)

    def test_all_missing_rows(self):
        items, codes = mixed_codes(17)
        codes[:50] = MISSING
        self.assert_products_match(codes[:50], items)
        self.assert_products_match(codes[:100], items)

    def test_totals_carry_over_blocks(self, monkeypatch):
        # blocks of 7 rows: seams inside the 2000 rows and a short last one
        monkeypatch.setattr(estimation, "_JOINT_BLOCK", 7)
        items, codes = mixed_codes(19)
        grid = build_grid()
        table = _log_table(_point(items), grid)
        design = _blocks(codes, items)
        assert len(design.blocks) == 286
        assert design.ones.size == max(indices.size
                                       for _, indices in design.blocks)
        posterior = np.random.default_rng(5).random((len(codes), grid.size))
        totals = np.zeros_like(table)
        for lo, block in zip(range(0, len(codes), 7), design.blocks):
            _add_counts(block, design.ones, posterior[lo:lo + 7], totals)
        same_bits(totals, as_csr(_design(codes, items), len(table)).T
                  @ posterior)

    def test_loads_without_touching_sys_modules(self, fresh_kernels):
        from scipy.sparse import _sparsetools
        assert estimation._sparsetools_file() is not None
        kernels = estimation._kernels()
        assert sys.modules["scipy.sparse._sparsetools"] is _sparsetools
        assert kernels.__file__ == _sparsetools.__file__

    def test_fallback_import_writes_the_same_model(self, fresh_kernels,
                                                   monkeypatch, tmp_path):
        from scipy.sparse import _sparsetools
        items = simulate_items("grm", 4, np.random.default_rng(43),
                               n_categories=3)
        # three blocks, the last short
        data = simulate_dataset(items, 2500, seed=44)
        save_model(fit(data), tmp_path / "direct.json")
        monkeypatch.setattr(estimation, "_sparsetools_file", lambda: None)
        estimation._kernels.cache_clear()
        save_model(fit(data), tmp_path / "fallback.json")
        assert estimation._kernels() is _sparsetools
        assert ((tmp_path / "direct.json").read_bytes()
                == (tmp_path / "fallback.json").read_bytes())

    def test_scipy_sparse_imports_after_the_kernels_load(self):
        # a fresh process: the kernels load with scipy.sparse blocked, which
        # then imports as its own package, with the same products
        script = (
            "import sys\n"
            "sys.modules['scipy.sparse'] = None\n"
            "import numpy as np\n"
            "from irtimpute import estimation\n"
            "from irtimpute.simulate import simulate_items\n"
            "items = simulate_items('grm', 3, np.random.default_rng(1), "
            "n_categories=3)\n"
            "codes = np.random.default_rng(2).integers(-1, 3, (500, 3))\n"
            "table = estimation._log_table(estimation._point(items), "
            "estimation.build_grid())\n"
            "block = estimation._design(codes, items)\n"
            "joint = estimation._log_joint(block, np.ones(2000), table)\n"
            "assert [m for m in sys.modules if m.startswith('scipy')] == "
            "['scipy.sparse']\n"
            "del sys.modules['scipy.sparse']\n"
            "import scipy.sparse\n"
            "x = scipy.sparse.csr_array((np.ones(block[1].size), block[1], "
            "block[0]), shape=(500, len(table)))\n"
            "assert (x @ table).tobytes() == joint.tobytes()\n"
            "assert scipy.sparse._sparsetools.csr_matvecs\n")
        src = str(Path(estimation.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestGroupTable:
    """The fit holds its point as one array per kernel and category count;
    the log table it builds from them is the items' own."""

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_group_table_is_the_items_log_probs(self, seed):
        # 2PL, graded (3 to 5 categories) and nominal items interleaved, so
        # that each group's rows are scattered over the table
        rng = np.random.default_rng(seed)
        items = []
        for i in range(30):
            family = ("2pl", "grm", "nrm")[int(rng.integers(3))]
            m = 2 if family == "2pl" else int(rng.integers(3, 6))
            items.append(dataclasses.replace(random_item(rng, family, m=m),
                                             column=f"i{i:02d}"))
        grid = build_grid()
        want = np.vstack([np.log(grid.weight_array())[None, :],
                          *(log_category_probs(grid.node_array(), item).T
                            for item in items)])
        same_bits(_log_table(_point(tuple(items)), grid), want)

    def test_a_fit_builds_each_item_at_most_twice(self, monkeypatch):
        # six bench-like fits: every item is built at the start and at the
        # end, and once more where the trait's sign is flipped
        rng = np.random.default_rng(223)
        items = (simulate_items("2pl", 4, rng, name_prefix="b")
                 + simulate_items("grm", 4, rng, name_prefix="g")
                 + simulate_items("nrm", 4, rng, name_prefix="n"))
        full = simulate_dataset(items, 600, seed=224)
        datasets = []
        for cell in range(6):
            cells = np.array(full.cells)
            cells[rng.random(600) < 0.1 * (cell + 1), 4] = MISSING
            datasets.append(full.with_cells(cells))
        built = []
        for family in (models._CumulativeFamily, NominalItem):
            def counted(item, post_init=family.__post_init__):
                built.append(type(item))
                post_init(item)
            monkeypatch.setattr(family, "__post_init__", counted)
        canonicalize = estimation._canonicalize_orientation
        flipped = []

        def counted_flips(items):
            out = canonicalize(items)
            flipped.append(sum(a is not b for a, b in zip(out, items)))
            return out

        monkeypatch.setattr(estimation, "_canonicalize_orientation",
                            counted_flips)
        fitted = list(fit_many(datasets, FitConfig(seed=0)))
        assert len(built) <= 2 * sum(len(m.items) for m in fitted) + sum(
            flipped)
        assert all(model.iterations > 4 for model in fitted)


def whole_moments(codes, items, grid):
    """EAP means and SDs from one product and one ``einsum`` over all the
    cases."""
    posterior, _ = _posteriors_and_loglik(
        whole_log_joint(codes, items, _log_table(_point(items), grid)))
    nodes = grid.node_array()
    means = np.einsum("qn,n->q", posterior, nodes)
    second = np.einsum("qn,n->q", posterior, nodes**2)
    return means, np.sqrt(np.maximum(second - means**2, 0.0))


class TestBlocks:
    """The likelihood core walks the cases in blocks of ``_JOINT_BLOCK``;
    no block seam may change a bit."""

    def test_blocked_eap_equals_whole_matrix_moments(self, monkeypatch):
        monkeypatch.setattr(estimation, "_JOINT_BLOCK", 16)
        items, codes = mixed_codes(29)
        codes = codes[:1999]    # not a multiple of 16: a short last block
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        got = estimation._eap(codes, model)
        want = whole_moments(codes, items, model.grid)
        for a, b in zip(got, want):
            assert_array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("rows", [1, estimation._JOINT_BLOCK,
                                      estimation._JOINT_BLOCK + 1])
    def test_e_step_and_scores_at_the_seams(self, rows):
        items, codes = mixed_codes(31)
        codes = np.concatenate([codes, codes])[:rows]
        data = CategoricalDataset(MIXED_SCHEMAS, codes.astype(float))
        grid = build_grid()
        result = e_step(data, items, grid)
        posts, counts, masses, loglik = dense_e_step(codes, items, grid)
        assert_array_equal(walked_posteriors(codes, items, grid), posts)
        for got, want in zip(result.expected_counts, counts):
            assert_array_equal(got, want)
        assert_array_equal(result.node_masses, masses)
        assert result.marginal_loglik == loglik
        model = FittedModel(items, grid, True, 0, 0.0, (0.0,))
        for a, b in zip(eap_scores(data, model),
                        whole_moments(codes, items, grid)):
            assert_array_equal(a, b)

    @pytest.mark.parametrize("rows", [1, estimation._JOINT_BLOCK,
                                      estimation._JOINT_BLOCK + 1])
    def test_fit_at_the_seams(self, rows, monkeypatch):
        items = simulate_items("grm", 3, np.random.default_rng(37),
                               n_categories=3)
        data = simulate_dataset(items, rows, seed=38)
        config = FitConfig(seed=0)
        if rows == 1:    # one case cannot give every category
            with pytest.raises(UnobservedCategory):
                fit(data, config)
            return
        blocked = fit(data, config)
        # one block holds every case: one product over all of them
        monkeypatch.setattr(estimation, "_JOINT_BLOCK", 2**20)
        whole = fit(data, config)
        assert blocked == whole
        for a, b in zip(blocked.items, whole.items):
            assert a.vector().tobytes() == b.vector().tobytes()

    def test_scores_independent_of_blas_thread_count(self):
        # scoring takes no BLAS product, so the thread count moves no score
        script = (
            "import hashlib, numpy as np\n"
            "from irtimpute.estimation import FittedModel, build_grid, "
            "eap_scores\n"
            "from irtimpute.simulate import simulate_dataset, simulate_items\n"
            "items = simulate_items('grm', 5, np.random.default_rng(3), "
            "n_categories=4)\n"
            "model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))\n"
            "means, sds = eap_scores(simulate_dataset(items, 10001, seed=4), "
            "model)\n"
            "print(hashlib.sha256(means.tobytes() + sds.tobytes())"
            ".hexdigest())\n")
        src = str(Path(estimation.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            digests.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert digests[0] == digests[1]

    def test_memory_stays_below_half_a_posterior(self):
        # 8 full blocks and a short one; the whole cases × nodes posterior
        # would take rows × nodes × 8 bytes
        rows = 8 * estimation._JOINT_BLOCK + 5
        items = simulate_items("grm", 4, np.random.default_rng(41),
                               n_categories=3)
        data = simulate_dataset(items, rows, seed=42)
        grid = build_grid()
        model = FittedModel(items, grid, True, 0, 0.0, (0.0,))
        blocks = _blocks(_codes_matrix(data, items), items)
        bound = rows * grid.size * 8 / 2
        for call in (lambda: _e_step_core(blocks, _point(items), grid),
                     lambda: eap_scores(data, model)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestMStep:
    def test_stationary_counts_leave_parameters_unchanged(self):
        grid = build_grid()
        nodes = grid.node_array()
        masses = 300.0 * grid.weight_array()
        for family in ("2pl", "grm", "nrm"):
            item = random_item(np.random.default_rng(61), family, m=4)
            counts = masses[:, None] * category_probs(nodes, item)
            updated = m_step_item(item, counts, grid)
            assert_allclose(updated.vector(), item.vector(), atol=1e-6)

    def test_step_function_counts_push_toward_step(self):
        # all mass above theta=0 answers 1, all mass below answers 0: the
        # location should move to ~0 and the slope should grow
        grid = build_grid()
        nodes = grid.node_array()
        masses = 500.0 * grid.weight_array()
        counts = np.zeros((grid.size, 2))
        counts[nodes > 0, 1] = masses[nodes > 0]
        counts[nodes <= 0, 0] = masses[nodes <= 0]
        item = Binary2PL(1.0, 0.7, column="u")
        updated = m_step_item(item, counts, grid)
        assert updated.a > item.a
        assert abs(updated.b) < abs(item.b)

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
        optimum = m_step_item(Binary2PL(1.0, 0.7, column="u"), counts, grid)
        assert optimum.bound_events()
        calls = []
        objective = estimation._objective

        def counted(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(estimation, "_objective", counted)
        again = m_step_item(optimum, counts, grid)
        assert len(calls) < 10
        assert_allclose(again.vector(), optimum.vector(), rtol=1e-12)

    def test_search_stops_once_its_trial_rounds_to_the_point(
            self, monkeypatch):
        # a direction far below the point's precision: the first trial
        # rounds back to the point, so no shorter step can help either,
        # where 60 halvings of it used to follow
        grid = build_grid()
        counts = (300.0 * grid.weight_array()[:, None]
                  * category_probs(grid.node_array(), Binary2PL(1.5, 0.5)))
        calls = []
        objective = estimation._objective

        def counted(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(estimation, "_objective", counted)
        monkeypatch.setattr(estimation, "_projected_direction",
                            lambda kernel, x, info, g, held: 1e-30 * g)
        with pytest.raises(NewtonDiverged, match="^item 'u': no improving "
                                                 "step with gradient "):
            m_step_item(Binary2PL(2.0, -0.5, column="u"), counts, grid)
        # the start and one trial
        assert len(calls) == 2

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
            (want,) = reference_m_step((item,), (counts,), grid)
            got = np.sum(floored * log_category_probs(
                nodes, m_step_item(item, counts, grid)))
            best = np.sum(floored * log_category_probs(nodes, want))
            assert got >= best - 1e-12 * abs(best)

    def test_empty_category_rejected(self):
        grid = build_grid()
        counts = np.ones((grid.size, 2))
        counts[:, 1] = 0.0
        with pytest.raises(EmptyCategory):
            m_step_item(Binary2PL(1.0, 0.0, column="u"), counts, grid)

    def test_empty_category_names_the_first_item_in_item_order(self):
        # a graded item and a later binary item of another group both have
        # an empty category: the fit's error names the graded one, as a
        # loop over the items meets it first
        grid = build_grid()
        items = (Binary2PL(1.0, 0.0, column="a"),
                 GradedItem(1.0, (-1.0, 1.0), column="g"),
                 Binary2PL(1.0, 0.5, column="b"))
        counts = [np.ones((grid.size, item.n_categories)) for item in items]
        counts[1][:, 2] = 0.0
        counts[2][:, 0] = 0.0
        with pytest.raises(EmptyCategory) as want:
            reference_m_step(items, counts, grid)
        (got,) = item_m_steps([(items, counts)], grid)
        assert type(got) is EmptyCategory
        assert str(got) == str(want.value) == (
            "column 'g': category 2 has zero expected count")

    def test_shape_mismatch_rejected(self):
        grid = build_grid()
        with pytest.raises(DataError):
            m_step_item(Binary2PL(1.0, 0.0, column="u"),
                        np.ones((grid.size, 3)), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        grid = build_grid()
        counts = np.ones((grid.size, 2))
        counts[5, 1] = bad
        with pytest.raises(DataError, match="must be finite and nonnegative"):
            m_step_item(Binary2PL(1.0, 0.0, column="u"), counts, grid)

    @pytest.mark.parametrize("family, m", [
        ("2pl", 2), *(("grm", m) for m in range(2, 6)),
        *(("nrm", m) for m in range(2, 6))])
    def test_information_is_minus_hessian_at_stationary_counts(self, family,
                                                              m):
        # r = N pi makes the expected information the observed one
        grid = build_grid()
        nodes = grid.node_array()
        params = random_item(np.random.default_rng(113), family, m=m)
        r = (300.0 * grid.weight_array()[:, None]
             * category_probs(nodes, params))
        x = params.to_x()
        _, _, info = _objective(params.kernel, x[None], r[None], nodes)
        hess = fd_hessian(reference_objective(params, r, nodes), x)
        assert_allclose(info[0], -hess, rtol=1e-7)

    def test_no_improving_step_names_the_item(self, monkeypatch):
        # a descent direction cannot improve an interior item whose counts
        # are off its optimum, so every halving fails
        grid = build_grid()
        truth = Binary2PL(1.5, 0.5)
        counts = (300.0 * grid.weight_array()[:, None]
                  * category_probs(grid.node_array(), truth))
        monkeypatch.setattr(estimation, "_projected_direction",
                            lambda kernel, x, info, g, held: -g)
        with pytest.raises(NewtonDiverged, match="^item 'u': no improving "
                                                 "step with gradient "):
            m_step_item(Binary2PL(1.0, 0.0, column="u"), counts, grid)

    def test_a_long_trial_step_warns_nothing(self):
        # the fifth of these draws takes a trial step whose projection
        # overflows exp in the graded boundaries
        grid = build_grid()
        rng = np.random.default_rng(16)
        for _ in range(5):
            m = int(rng.integers(2, 6))
            item = random_item(rng, "grm", m)
            counts = rng.gamma(1.0, 5.0, size=(grid.size, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            updated = m_step_item(item, counts, grid)
        assert np.all(np.isfinite(updated.vector()))

    def test_counts_too_large_to_sum_fail_at_the_start(self):
        grid = build_grid()
        item = GradedItem.from_bounds(1.0, (-1.0, 1.0), column="v")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^item 'v': non-finite "
                                                       "objective at start$"):
                m_step_item(item, np.full((grid.size, 3), 1e307), grid)

    def test_a_fit_fails_with_its_first_failed_item(self, monkeypatch):
        # under a descent direction A, at its optimum, converges and B and
        # C fail; a loop over the items meets B first, although C shares
        # the kernel of the first item
        grid = build_grid()
        nodes = grid.node_array()
        masses = 300.0 * grid.weight_array()[:, None]
        a = GradedItem.from_bounds(1.2, (-0.5, 0.8), column="A")
        graded = masses * category_probs(nodes, a)
        binary = masses * category_probs(nodes, Binary2PL(1.5, 0.5))
        c = GradedItem.from_bounds(1.0, (-1.0, 1.0), column="C")
        fit_items = (a, Binary2PL(1.0, 0.0, column="B"), c)
        fit_counts = (graded, binary, graded)
        monkeypatch.setattr(estimation, "_projected_direction",
                            lambda kernel, x, info, g, held: -g)
        assert m_step_item(a, graded, grid) == a
        for item, r in zip(fit_items[1:], fit_counts[1:]):
            with pytest.raises(NewtonDiverged):
                m_step_item(item, r, grid)
        (alone,) = item_m_steps([(fit_items, fit_counts)], grid)
        # stacked after a fit of C alone, C's row comes first in its group
        c_alone, together = item_m_steps([((c,), (graded,)),
                                          (fit_items, fit_counts)], grid)
        assert str(c_alone).startswith("item 'C': ")
        for got in (alone, together):
            assert type(got) is NewtonDiverged
            assert str(got).startswith("item 'B': ")

    def test_stacked_fits_fail_apart(self, monkeypatch):
        # under a descent direction, a fit at its optimum still converges,
        # one off its optimum fails, and one with an empty category fails
        # before any Newton; each gets what it gets alone
        grid = build_grid()
        optimum = Binary2PL(1.5, 0.5, column="u")
        counts = (300.0 * grid.weight_array()[:, None]
                  * category_probs(grid.node_array(), optimum))
        empty = np.ones((grid.size, 2))
        empty[:, 1] = 0.0
        fits = [((optimum,), (counts,)),
                ((Binary2PL(1.0, 0.0, column="v"),), (counts,)),
                ((Binary2PL(1.0, 0.0, column="w"),), (empty,))]
        monkeypatch.setattr(estimation, "_projected_direction",
                            lambda kernel, x, info, g, held: -g)
        together = item_m_steps(fits, grid)
        for one, got in zip(fits, together):
            (want,) = item_m_steps([one], grid)
            if isinstance(want, Exception):
                assert type(got) is type(want)
                assert str(got) == str(want)
            else:
                assert got == want
        assert [type(got) for got in together[1:]] == [NewtonDiverged,
                                                       EmptyCategory]

    def test_singular_item_solves_alone(self):
        # one singular system sends the batch to per-item solves; that item
        # gets NaN, the others what a per-item solve gives them
        rng = np.random.default_rng(3)
        root = rng.normal(size=(3, 3, 3))
        info = root @ root.transpose(0, 2, 1) + np.eye(3)
        info[1] = np.ones((3, 3))
        g = rng.normal(size=(3, 3))
        delta = _solve_free(info, g, np.zeros((3, 3), dtype=bool))
        assert np.isnan(delta[1]).all()
        for i in (0, 2):
            assert_array_equal(delta[i], np.linalg.solve(info[i], g[i]))

    def test_fits_whose_groups_come_in_other_orders_stack_apart(self):
        # the second fit meets the kernels in the other order, and has a
        # group of its own; each fit gets what it gets alone
        grid = build_grid()
        rng = np.random.default_rng(131)
        fits = []
        for families in (("grm", "nrm", "grm"), ("nrm", "2pl", "grm", "nrm")):
            items = tuple(dataclasses.replace(
                random_item(rng, family, m=2 if family == "2pl" else 3),
                column=f"i{i}") for i, family in enumerate(families))
            fits.append((items, [rng.gamma(1.0, 5.0, size=(
                grid.size, item.n_categories)) for item in items]))
        for got, one in zip(item_m_steps(fits, grid), fits):
            (want,) = item_m_steps([one], grid)
            assert got == want

    def test_stacked_items_update_as_if_alone(self):
        # every family and category count, several items per group; one
        # item has all its count mass at one node
        grid = build_grid()
        rng = np.random.default_rng(127)
        items, counts = [], []
        for i in range(24):
            family = ("2pl", "grm", "nrm")[i % 3]
            m = 2 if family == "2pl" else int(rng.integers(2, 6))
            items.append(dataclasses.replace(random_item(rng, family, m=m),
                                             column=f"i{i:02d}"))
            counts.append(rng.gamma(1.0, 5.0, size=(grid.size, m)))
        counts[7] = np.zeros_like(counts[7])
        counts[7][40] = rng.uniform(1.0, 20.0, size=items[7].n_categories)
        (together,) = item_m_steps([(tuple(items), counts)], grid)
        for item, r, got in zip(items, counts, together):
            alone = m_step_item(item, r, grid)
            assert_array_equal(got.vector(), alone.vector())


class TestFit:
    def test_initial_boundaries_are_normal_quantiles(self):
        # statistics' inverse normal stands in for scipy's ndtri
        p = np.linspace(1e-3, 1 - 1e-3, 20001)
        got = [NormalDist().inv_cdf(v) for v in p]
        assert ulp_distance(got, ndtri(p)).max() <= 8
        # and gives a graded column's starting boundaries
        rng = np.random.default_rng(73)
        codes = rng.choice(12, size=3000, p=rng.dirichlet(np.full(12, 4.0)))
        data = CategoricalDataset((ColumnSchema("v", "ordinal", arity=12),),
                                  codes[:, None].astype(float))
        (item,) = estimation._initial_items(data, FitConfig())
        cum = np.cumsum(np.bincount(codes, minlength=12) / codes.size)[:-1]
        want = ndtri(np.clip(cum, 1e-3, 1 - 1e-3))
        assert ulp_distance(item.boundaries, want).max() <= 8

    def test_small_recovery_smoke(self):
        # N=600, 6 binary items: loose sanity bound; the full frozen
        # N=2000 recovery runs live in the acceptance suite
        rng = np.random.default_rng(71)
        items = simulate_items("2pl", 6, rng)
        data = simulate_dataset(items, 600, seed=72)
        fitted = fit(data, FitConfig(seed=0))
        assert fitted.converged
        true_b = np.array([it.b for it in items])
        est_b = np.array([it.b for it in fitted.items])
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
        monkeypatch.setattr(estimation, "_m_steps", reference_m_steps)
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
            assert_array_equal(a.vector(), b.vector())

    def test_all_missing_row_changes_nothing(self):
        rng = np.random.default_rng(83)
        items = simulate_items("2pl", 5, rng)
        data = simulate_dataset(items, 300, seed=84)
        extra = np.vstack([data.cells, np.full((1, 5), float(MISSING))])
        augmented = data.with_cells(extra)
        base = fit(data, FitConfig(seed=0))
        more = fit(augmented, FitConfig(seed=0))
        for a, b in zip(base.items, more.items):
            assert_allclose(a.vector(), b.vector(), atol=1e-10)

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

    @pytest.mark.parametrize("make, error, message", [
        (lambda: FitConfig(max_iter=0), DataError,
         "iteration cap must be at least 1"),
        (lambda: FitConfig(bins=1), DataError, "bins must be >= 2"),
        (lambda: fit(CategoricalDataset(
            (ColumnSchema("u", "binary", role="excluded"),),
            np.array([[0.0], [1.0]] * 20))), DataError,
         "dataset has no feature columns"),
        (lambda: fit(CategoricalDataset(
            (ColumnSchema("u", "binary"), ColumnSchema("v", "binary")),
            np.column_stack([np.tile([0.0, 1.0], 20), np.full(40, -1.0)]))),
         UnobservedCategory, "column 'v' has no observed values"),
    ], ids=["no-iterations", "one-bin", "no-features",
            "feature-never-observed"])
    def test_input_checks(self, make, error, message):
        with pytest.raises(error) as caught:
            make()
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_continuous_feature_rejected(self):
        # e_step, and eap_scores and impute_dataset with a model that has no
        # cut points, read a column's codes through one rule
        schemas = (ColumnSchema("u", "binary"), ColumnSchema("x", "continuous"))
        data = CategoricalDataset(schemas, np.column_stack([
            np.tile([0.0, 1.0], 15), np.linspace(0, 1, 30)]))
        items = (Binary2PL(1.0, 0.0, column="u"),
                 Binary2PL(1.0, 0.0, column="x"))
        model = FittedModel(items, build_grid(), True, 0, 0.0, (0.0,))
        for call in (lambda: e_step(data, items, build_grid()),
                     lambda: eap_scores(data, model),
                     lambda: impute_dataset(data, model)):
            with pytest.raises(DataError) as caught:
                call()
            assert str(caught.value) == ("column 'x' is not categorical; "
                                         "discretize first")

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


def _oracle_corpus(kind, rows=800):
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
    return simulate_dataset(items, rows, seed=212)


def _assert_same_optimum(got, want):
    assert got.converged and want.converged
    assert got.final_loglik >= want.final_loglik - 1e-8 * abs(want.final_loglik)
    for a, b in zip(got.items, want.items):
        assert_allclose(a.vector(), b.vector(), atol=1e-2)


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


def _continuous_corpus(seed: int, scale: float) -> CategoricalDataset:
    """Graded items and two continuous features, ``z`` before ``w``, that
    follow the items' sum times ``scale``; some cells of each are blank."""
    rng = np.random.default_rng(seed)
    items = simulate_items("grm", 4, rng, n_categories=3)
    base = simulate_dataset(items, 300, seed=seed + 1)
    total = base.cells.sum(axis=1)
    cells = np.column_stack([base.cells,
                             scale * (total + rng.normal(0, 1, 300)),
                             scale * (total + rng.normal(0, 2, 300))])
    cells[rng.random(cells.shape) < 0.05] = MISSING
    return CategoricalDataset(
        (*base.schemas, ColumnSchema("z", "continuous"),
         ColumnSchema("w", "continuous")), cells)


class TestContinuousFeatures:
    """``fit`` bins continuous features and the model keeps the cuts."""

    def test_each_fit_keeps_its_own_cut_points(self):
        cells = [_continuous_corpus(151, 1.0), _continuous_corpus(151, 3.0)]
        models = list(fit_many(cells, FitConfig(seed=0)))
        for data, model in zip(cells, models):
            _, maps = discretize_dataset(data)
            assert model.discretization == (maps["w"], maps["z"])
        assert models[0].discretization != models[1].discretization

    def test_scoring_bins_raw_data_with_the_models_cuts(self):
        model = fit(_continuous_corpus(153, 1.0), FitConfig(seed=0, bins=3))
        assert [m.bins for m in model.discretization] == [3, 3]
        raw = _continuous_corpus(155, 1.2)
        view = apply_discretization(raw, model.discretization)
        bare = dataclasses.replace(model, discretization=())
        means, sds = eap_scores(raw, model)
        want_means, want_sds = eap_scores(view, bare)
        assert means.tobytes() == want_means.tobytes()
        assert sds.tobytes() == want_sds.tobytes()
        assert impute_dataset(raw, model) == impute_dataset(view, bare)
        # data binned already does not take the cut points again
        for call in (eap_scores, impute_dataset):
            with pytest.raises(DataError, match="^column 'w' is ordinal, "
                               "but the model discretized"):
                call(view, model)


def _lockstep_corpora():
    """Datasets of several sizes and item kinds whose fits take different
    map counts; in the last, a column of noise clamps a location."""
    datasets = [_oracle_corpus(kind, rows) for kind, rows
                in (("grm", 300), ("mixed", 500), ("nrm", 800))]
    rng = np.random.default_rng(133)
    items = simulate_items("grm", 6, rng, n_categories=4)
    noisy = simulate_dataset(items, 400, seed=134)
    cells = np.array(noisy.cells)
    cells[:, 4:] = rng.integers(0, 4, size=(400, 2))
    return [*datasets, noisy.with_cells(cells)]


class TestFitMany:
    """The lockstep fits against one fit per dataset."""

    @pytest.mark.parametrize("case", ["converged", "capped", "rejected",
                                      "split"])
    def test_equals_separate_fits(self, case, monkeypatch, caplog):
        datasets = _lockstep_corpora()
        config = FitConfig(seed=0, max_iter=13 if case == "capped" else 500)
        if case == "rejected":
            monkeypatch.setattr(estimation, "_step_length", lambda r, v: -1e3)
        alone = [fit(data, config) for data in datasets]
        if case == "split":
            monkeypatch.setattr(estimation, "DESIGN_BUDGET", 1)
        groups = []
        fit_group = estimation._fit_group

        def counted(runs, *args):
            groups.append(len(runs))
            return fit_group(runs, *args)

        monkeypatch.setattr(estimation, "_fit_group", counted)
        with caplog.at_level("DEBUG", logger="irtimpute.estimation"):
            together = list(fit_many(datasets, config))
        assert groups == ([1, 1, 1, 1] if case == "split" else [4])
        assert together == alone
        for got, want in zip(together, alone):
            for a, b in zip(got.items, want.items):
                assert a.vector().tobytes() == b.vector().tobytes()
        # each case is what its name says
        assert any(model.clamp_events for model in alone)
        if case == "capped":
            assert [m.converged for m in alone] == [True, True, False, False]
            assert [m.iterations for m in alone] == [12, 12, 13, 13]
        else:
            assert all(model.converged for model in alone)
            assert len({model.iterations for model in alone}) == 3
        if case == "rejected":
            assert "extrapolation rejected" in caplog.text
            assert "extrapolation kept" not in caplog.text

    def test_an_error_comes_after_the_models_before_it(self):
        datasets = _lockstep_corpora()
        unobserved = CategoricalDataset(
            (ColumnSchema("v", "ordinal", arity=3),),
            np.array([[0.0], [2.0]] * 20))
        read = []

        def feed():
            for data in (datasets[0], datasets[1], unobserved, datasets[2]):
                read.append(data)
                yield data

        config = FitConfig(seed=0)
        fits = fit_many(feed(), config)
        assert next(fits) == fit(datasets[0], config)
        assert next(fits) == fit(datasets[1], config)
        with pytest.raises(UnobservedCategory, match="category code 1"):
            next(fits)
        assert len(read) == 3

    def test_the_first_dataset_to_fail_is_the_first_in_order(
            self, monkeypatch):
        # the third fit fails at its second E-step, before the second fails
        # at its eighth; a loop of fits meets the second's error first
        datasets = _lockstep_corpora()
        failing = {500: 8, 800: 2}
        calls: dict = {}
        e_step_core = estimation._e_step_core

        def e_step(blocks, items, grid):
            rows = design_cases(blocks)
            calls[rows] = calls.get(rows, 0) + 1
            if failing.get(rows) == calls[rows]:
                raise NumericalFailure(f"E-step {calls[rows]} of {rows}")
            return e_step_core(blocks, items, grid)

        monkeypatch.setattr(estimation, "_e_step_core", e_step)
        fits = fit_many(datasets, FitConfig(seed=0))
        assert next(fits).iterations == 12
        with pytest.raises(NumericalFailure, match="^E-step 8 of 500$"):
            next(fits)
        assert calls[800] == 2

    @pytest.mark.parametrize("step", ["m-step", "trial e-step",
                                      "final e-step"])
    def test_a_failed_step_fails_its_fit_alone(self, step, monkeypatch):
        # the second of three fits fails at one step: the first model comes
        # out, then the second's error, and no third model
        datasets = _lockstep_corpora()[:3]
        config = FitConfig(seed=0)
        first = fit(datasets[0], config)
        second = datasets[1].n_rows
        calls: list = []
        e_step_core = estimation._e_step_core

        def e_step(blocks, items, grid):
            if design_cases(blocks) == second:
                calls.append(1)
                if len(calls) == failing:
                    raise NumericalFailure(f"{step} of the second fit")
            return e_step_core(blocks, items, grid)

        m_steps = estimation._m_steps

        def m_step(fits, grid):
            return [NumericalFailure(f"{step} of the second fit")
                    if point.items[0].column
                    == datasets[1].schemas[0].name else outcome
                    for (point, _), outcome in zip(fits, m_steps(fits, grid))]

        if step == "m-step":
            monkeypatch.setattr(estimation, "_m_steps", m_step)
        else:
            # a first cycle's third E-step is its trial point's; counted
            # in a fit that fails nowhere, the last E-step is the final one
            failing = 0
            monkeypatch.setattr(estimation, "_e_step_core", e_step)
            fit(datasets[1], config)
            failing = 3 if step == "trial e-step" else len(calls)
            calls.clear()
        fits = fit_many(datasets, config)
        assert next(fits) == first
        with pytest.raises(NumericalFailure,
                           match=f"^{step} of the second fit$"):
            next(fits)
        assert list(fits) == []

    @pytest.mark.parametrize("failing", [1, 2, 3, 4, 5, 8])
    def test_no_later_fit_steps_after_a_failure(self, failing, monkeypatch):
        # a cycle's E-steps are x1's, x2's, the trial point's and the closing
        # map's: the second of three fits fails at one of them, in the first
        # cycle or the second, and the third takes none after that phase
        datasets = _lockstep_corpora()[:3]
        second, third = (data.n_rows for data in datasets[1:])
        calls = {second: 0, third: 0}
        e_step_core = estimation._e_step_core

        def e_step(blocks, items, grid):
            rows = design_cases(blocks)
            if rows in calls:
                calls[rows] += 1
                if rows == second and calls[rows] == failing:
                    raise NumericalFailure("the second fit")
            return e_step_core(blocks, items, grid)

        monkeypatch.setattr(estimation, "_e_step_core", e_step)
        fits = fit_many(datasets, FitConfig(seed=0))
        assert next(fits).iterations == 12
        with pytest.raises(NumericalFailure, match="^the second fit$"):
            next(fits)
        assert calls[third] == failing

    def test_a_failure_building_a_trial_point_fails_its_fit_alone(
            self, monkeypatch):
        # the second call is the second fit's first extrapolation: a NaN
        # step length gives a trial point no item can take
        step_length = estimation._step_length
        calls = []

        def nan_second(r, v):
            calls.append(1)
            return np.nan if len(calls) == 2 else step_length(r, v)

        monkeypatch.setattr(estimation, "_step_length", nan_second)
        fits = fit_many(_lockstep_corpora()[:2], FitConfig(seed=0))
        assert next(fits).iterations == 12
        with pytest.raises(DataError, match="^2PL parameters must be finite$"):
            next(fits)

    def test_clamp_events_are_the_final_items_bound_events(self, tmp_path):
        # the last corpus clamps a location; the others clamp nothing
        models = list(fit_many(_lockstep_corpora(), FitConfig(seed=0)))
        assert [bool(model.clamp_events) for model in models] == [
            False, False, False, True]
        for model in models:
            assert model.clamp_events == tuple(
                event for item in model.items
                for event in item.bound_events())
        save_model(models[-1], tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        assert back.clamp_events == models[-1].clamp_events
        assert back == models[-1]

    def test_m_steps_stay_stacked_across_the_fits(self, monkeypatch):
        # each round's maps share one M-step call, whichever phase of its
        # cycle each fit is in
        sizes = []
        m_steps = estimation._m_steps
        newton = estimation._newton_maximize
        newton_calls = []

        def counted_m_steps(fits, grid):
            sizes.append(len(fits))
            return m_steps(fits, grid)

        def counted_newton(*args):
            newton_calls.append(1)
            return newton(*args)

        monkeypatch.setattr(estimation, "_m_steps", counted_m_steps)
        monkeypatch.setattr(estimation, "_newton_maximize", counted_newton)
        list(fit_many(_lockstep_corpora(), FitConfig(seed=0)))
        assert sizes[0] == 4
        assert 0 not in sizes
        assert len(newton_calls) <= 60


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
            Binary2PL(1.4, -0.8, column="a"),
            Binary2PL(0.7, 0.2, column="b"),
            Binary2PL(2.1, 1.1, column="c"),
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
            dataclasses.replace(random_item(rng, "2pl"), column="a"),
            dataclasses.replace(random_item(rng, "grm", m=4), column="b"),
            dataclasses.replace(random_item(rng, "grm", m=3), column="c"),
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

    @pytest.mark.parametrize("code", [1.5, -1.5, 0.5, np.nan, np.inf])
    def test_non_integral_code_out_of_range(self, code):
        # the rule CategoricalDataset applies: -1 or a category, nothing else
        model = self.hand_model()
        pattern = [code, 0, 0]
        for call in (lambda: eap_score(pattern, model),
                     lambda: pattern_loglik(pattern, model.items, 0.0),
                     lambda: pattern_score(pattern, model.items, 0.0)):
            with pytest.raises(CodeOutOfRange):
                call()

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
            assert means[row] == single.eap_mean
            assert sds[row] == single.posterior_sd


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
        assert payload["items"] == [_as_json(item) for item in model.items]
        assert payload["grid"] == {"nodes": list(model.grid.nodes),
                                   "weights": list(model.grid.weights)}
        assert payload["discretization"] == [
            {"column": m.column, "cuts": list(m.cuts),
             "labels": list(m.labels)} for m in maps]
        assert load_model(path) == model

    def test_file_format_is_pinned(self, tmp_path):
        # one item of each family and one discretization map, byte for byte
        model = FittedModel(
            items=(Binary2PL(1.25, -0.5, column="u"),
                   GradedItem(0.75, (-1.0, 0.5), column="v"),
                   NominalItem((0.0, 0.5, -1.5), (0.0, 0.25, 2.0),
                               column="w")),
            grid=QuadratureGrid((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
            converged=True, iterations=7, final_loglik=-12.5,
            loglik_trace=(-20.0, -12.5),
            clamp_events=("v: slope clamped at 50",),
            discretization=(DiscretizationMap("x", (0.5, 1.5),
                                              ("q1", "q2", "q3")),))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text() == PINNED_MODEL_FILE
        assert load_model(path) == model

    def test_fields_with_defaults_may_be_left_out(self, tmp_path):
        model = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["clamp_events"], payload["discretization"]
        path.write_text(json.dumps(payload))
        back = load_model(path)
        assert back.clamp_events == () and back.discretization == ()
        assert back.items == model.items

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

    def test_diagnostics_report_lists_clamping_events(self):
        model = FittedModel(
            (Binary2PL(1.0, 0.0, column="u"),), build_grid(), True, 3, -1.0,
            (-2.0, -1.0), clamp_events=("u: slope clamped at 50",
                                        "u: location clamped at -50"))
        lines = diagnostics_report(model).splitlines()
        assert lines[-3:] == ["clamping events:",
                              "  u: slope clamped at 50",
                              "  u: location clamped at -50"]


PINNED_MODEL_FILE = """\
{
  "clamp_events": [
    "v: slope clamped at 50"
  ],
  "converged": true,
  "discretization": [
    {
      "column": "x",
      "cuts": [
        0.5,
        1.5
      ],
      "labels": [
        "q1",
        "q2",
        "q3"
      ]
    }
  ],
  "final_loglik": -12.5,
  "format": "irtimpute-model",
  "grid": {
    "nodes": [
      -1.0,
      0.0,
      1.0
    ],
    "weights": [
      0.25,
      0.5,
      0.25
    ]
  },
  "items": [
    {
      "a": 1.25,
      "b": -0.5,
      "column": "u",
      "family": "2pl"
    },
    {
      "a": 0.75,
      "boundaries": [
        -1.0,
        0.5
      ],
      "column": "v",
      "family": "grm"
    },
    {
      "column": "w",
      "family": "nrm",
      "intercepts": [
        0.0,
        0.25,
        2.0
      ],
      "slopes": [
        0.0,
        0.5,
        -1.5
      ]
    }
  ],
  "iterations": 7,
  "loglik_trace": [
    -20.0,
    -12.5
  ],
  "version": 1
}
"""
