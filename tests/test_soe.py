"""Tests for the sum-of-exponentials kernel compression."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exprel

import engine_oracle
from fracvisco.errors import BudgetExceeded, FracViscoError, QuadratureFailure
from fracvisco.fem import Material
from fracvisco.mlf import kernel_beta, ml_integral
from fracvisco.soe import (CERTIFY_SAMPLES, COMPRESS_RTOL, LOG_MAX,
                           SoeApprox, _engine_rules, _panel_rule, build_panels,
                           build_soe, certify_soe, compress_soe,
                           direct_weights, engine_kernel, eval_soe,
                           exp_convolution, theta_weights, write_table)

DBL_EPS = np.finfo(float).eps
#: Largest relative gap of an engine sum to its naive oracle: every term is
#: positive, so only the summation order and the last bits of exprel differ
#: (10.2 eps the worst measured, at alpha = 0.99).
ORACLE_RTOL = 16 * DBL_EPS


def assert_matches_oracle(got, want):
    """The same entries are 0, the others agree within ORACLE_RTOL."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= ORACLE_RTOL * np.abs(want))


class TestPanels:
    def test_ladder_q10_k2(self):
        # panels [0,1], [1,10], [10,100]
        assert build_panels(10.0, 2).tolist() == [0.0, 1.0, 10.0, 100.0]

    def test_k_zero_is_unit_interval(self):
        assert build_panels(10.0, 0).tolist() == [0.0, 1.0]

    def test_panels_tile_contiguously(self):
        edges = build_panels(3.0, 6, 2)
        assert edges[0] == 0.0
        assert np.all(np.diff(edges) > 0.0)
        assert edges[-1] == pytest.approx(3.0 ** 6, rel=1e-14)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_panels(1.0, 2)
        with pytest.raises(ValueError):
            build_panels(10.0, -1)

    def test_overflowing_edge_names_q_and_k(self):
        with pytest.raises(ValueError,
                           match=r"^q = 1e\+308 overflows q\*\*K at K = 2$"):
            build_panels(1e308, 2)


class TestAssemble:
    def test_positive_rates_and_weights(self):
        nodes, weights = _panel_rule(0.5, build_panels(10.0, 4, 2), 8)
        assert np.all(nodes > 0)
        assert np.all(weights > 0)

    def test_weight_sum_below_one(self):
        # sum_j b_j -> E_alpha(0) = 1 from below as the rule refines
        for alpha in (0.3, 0.5, 0.8):
            nodes, weights = _panel_rule(alpha, build_panels(10.0, 12, 6), 24)
            assert weights.sum() <= 1.0 + 1e-12
            assert weights.sum() > 0.9

    def test_node_count(self):
        nodes, weights = _panel_rule(0.5, build_panels(10.0, 3, 2), 8)
        # panels: 1 base + 2 down + 3 up; 8 points each
        assert nodes.size == 6 * 8
        assert weights.size == nodes.size


class TestEngineRules:
    @pytest.mark.parametrize("alpha", [0.999, 0.9999, 0.99999])
    def test_weights_sum_to_one_near_alpha_one(self, alpha):
        # sum_j b_j = E_alpha(0) = 1; the weight denominator must not cancel
        # where the poles -cos(alpha pi) +- i sin(alpha pi) near x = 1
        for _, weights in _engine_rules(alpha):
            assert abs(weights.sum() - 1.0) < 1e-11

    @pytest.mark.parametrize("alpha",
                             [0.05, 0.3, 0.5, 0.8, 0.99, 0.99999, 1.0])
    def test_rates_non_increasing(self, alpha):
        # the engine finds its exactly known entries as a prefix and a
        # suffix of each block's columns, which needs ordered rates
        for rates, _ in _engine_rules(alpha):
            assert np.all(np.diff(rates) <= 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_built_once_per_alpha_and_read_only(self, alpha):
        first, again = _engine_rules(alpha), _engine_rules(alpha)
        assert len(first) == len(again) == 2
        for rule, same in zip(first, again):
            for arr, arr_again in zip(rule, same):
                assert arr is arr_again
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0


class TestExactEntryIdentities:
    """The floating-point identities behind the entries the engine writes
    instead of evaluating; a numpy, scipy or libm upgrade that breaks one
    fails here."""

    def test_exprel_is_minus_reciprocal_from_minus_40(self):
        x = -np.concatenate([np.linspace(40.0, 1e4, 400_001),
                             np.geomspace(1e4, 1e300, 100_001)])
        assert np.array_equal(exprel(x), -1.0 / x)

    def test_exprel_is_one_within_eps(self):
        tiny = np.geomspace(1e-300, DBL_EPS, 10_001)[:-1]
        x = np.concatenate([np.linspace(-DBL_EPS, DBL_EPS, 400_001)[1:-1],
                            tiny, -tiny, [0.0, -0.0]])
        assert np.all(exprel(x) == 1.0)

    def test_exp_is_zero_from_746(self):
        x = np.concatenate([np.linspace(746.0, 1e4, 400_001),
                            np.geomspace(1e4, 1e300, 100_001)])
        assert np.all(np.exp(-x) == 0.0)

    def test_exp_is_one_up_to_2_pow_minus_60(self):
        # _exp_sum adds the weights of the trailing columns with
        # a_j max(t) <= 2^-60 instead of evaluating them
        x = np.concatenate([np.linspace(0.0, 2.0 ** -60, 400_001),
                            np.geomspace(1e-300, 2.0 ** -60, 100_001)])
        assert np.all(np.exp(-x) == 1.0)

    def test_expm1_ratio_is_minus_reciprocal_from_minus_40(self):
        # exp_convolution's middle columns meet its closed-form prefix
        x = -np.concatenate([np.linspace(40.0, 1e4, 400_001),
                             np.geomspace(1e4, 1e300, 100_001)])
        assert np.array_equal(np.expm1(x) / x, -1.0 / x)

    def test_expm1_ratio_is_within_2_ulp_of_exprel(self):
        # the middle columns take expm1(x)/x for scipy's exprel
        tiny = np.geomspace(1e-300, 1e-3, 100_001)
        x = np.concatenate([np.linspace(-40.0, LOG_MAX, 1_000_001),
                            tiny, -tiny])
        assert np.all(np.abs(np.expm1(x) / x - exprel(x))
                      <= 2.0 * np.spacing(exprel(x)))


#: Table times, 0, 1e-12 and 50 among them, in ascending and shuffled order
#: (shuffled blocks span wide ranges, sorted ones long known prefixes).
_TIMES = np.concatenate([[0.0, 1e-12, 50.0], np.geomspace(1e-9, 40.0, 120),
                         np.linspace(0.0, 2.0, 81)])
_ORDERS = {"sorted": np.sort(_TIMES),
           "shuffled": np.random.default_rng(18).permutation(_TIMES)}


class TestEngineAgainstNaiveOracle:
    """The engine matches its rule evaluated on every entry: the same
    zeros, the other entries within ORACLE_RTOL."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.99, 1.0])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 10.0])
    @pytest.mark.parametrize("rate", [0.3, 1.0, 7.0])
    def test_exp_convolution(self, alpha, tau, rate):
        # int_0^t beta(t - s) e^{-rate s} ds = I(rate t)/rate with
        # tau_sigma scaled by rate: the engine on the scaled arguments
        for times in _ORDERS.values():
            assert_matches_oracle(
                exp_convolution(alpha, rate * tau, rate * times),
                engine_oracle.exp_convolution(alpha, rate * tau,
                                              rate * times))

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.99, 1.0])
    @pytest.mark.parametrize("tau", [0.05, 0.5, 10.0])
    def test_direct_weights(self, alpha, tau):
        # the lag tables of a 256-step and a 1500-step run
        mat = Material(alpha=alpha, tau_sigma=tau)
        for n_max in (256, 1500):
            assert_matches_oracle(
                direct_weights(mat, 1.0 / n_max, n_max),
                engine_oracle.direct_weights(mat, 1.0 / n_max, n_max))

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.99, 1.0])
    def test_engine_kernel(self, alpha):
        for times in _ORDERS.values():
            assert_matches_oracle(engine_kernel(alpha, times),
                                  engine_oracle.engine_kernel(alpha, times))

    def test_alpha_one_kernel_is_exp(self):
        for times in _ORDERS.values():
            assert np.array_equal(engine_kernel(1.0, times), np.exp(-times))

    @staticmethod
    def evaluated_share(monkeypatch, ufunc, call, rows):
        """Share of the entries of both rules' (rows x rates) matrices that
        call passes to numpy's ufunc, which only the middle columns use."""
        seen = []
        evaluate = getattr(np, ufunc)

        def counting(x, *args, **kwargs):
            seen.append(np.size(x))
            return evaluate(x, *args, **kwargs)

        monkeypatch.setattr(np, ufunc, counting)
        call()
        monkeypatch.undo()
        return sum(seen) / (rows * sum(a.size for a, _ in _engine_rules(0.5)))

    def test_known_entries_are_not_evaluated(self, monkeypatch):
        # the load factor table of a 256-step run
        times = np.arange(1, 257) / 256.0
        assert self.evaluated_share(
            monkeypatch, "expm1",
            lambda: exp_convolution(0.5, 0.5, times), times.size) < 0.8

    def test_known_kernel_entries_are_not_evaluated(self, monkeypatch):
        # the grid that certifies the SOE of a 256-step run (tau = 0.5)
        grid = np.geomspace(1.0 / 1280.0, 2.0, CERTIFY_SAMPLES)
        assert self.evaluated_share(
            monkeypatch, "exp", lambda: engine_kernel(0.5, grid),
            grid.size) < 0.5


class TestExpSumAgainstNaiveOracle:
    """theta_weights and eval_soe match their sums evaluated on every
    entry, as the engine does, also where the rates are not sorted (then
    only the leading and trailing runs of known columns are written)."""

    @pytest.fixture(scope="class")
    def shuffled(self):
        built = _run_soe(0.5, 256)
        order = np.random.default_rng(19).permutation(built.n_exp)
        return replace(built, nodes=built.nodes[order],
                       weights=built.weights[order])

    @staticmethod
    def check(approx, n_steps, tau=0.5):
        dt = 1.0 / n_steps
        assert_matches_oracle(
            theta_weights(approx, dt, tau, n_steps),
            engine_oracle.theta_weights(approx, dt, tau, n_steps))
        grid = np.concatenate([[0.0], np.geomspace(
            dt / (10.0 * tau), 1.0 / tau, CERTIFY_SAMPLES), [1e3, 1e6]])
        assert_matches_oracle(eval_soe(approx, grid),
                              engine_oracle.eval_soe(approx, grid))

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    @pytest.mark.parametrize("n_steps", [256, 4096])
    def test_built_sums(self, alpha, n_steps):
        self.check(_run_soe(alpha, n_steps), n_steps)

    def test_shuffled_nodes(self, shuffled):
        # the fastest rate is not first, and underflowing columns follow
        # slower ones: skipping every underflowing column would still be
        # exact, skipping a count of them from the front would not
        assert np.argmax(shuffled.nodes) > 0
        self.check(shuffled, 256)
        self.check(shuffled, 4096)


class TestEngineInputs:
    """The engine refuses bad input with a ValueError that names it,
    rather than failing its quadrature check or returning zeros."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_exp_convolution_refuses_bad_time(self, bad):
        with pytest.raises(ValueError, match=r"times\[2\] = "):
            exp_convolution(0.5, 0.5, [0.1, 0.2, bad, 0.3, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_engine_kernel_refuses_bad_time(self, bad):
        with pytest.raises(ValueError, match=r"times\[1\] = "):
            engine_kernel(0.5, np.array([0.1, bad, 0.3]))

    def test_exp_convolution_refuses_times_past_its_range(self):
        # e^t overflows past t = log(DBL_MAX) = 709.78: t = 709 is evaluated
        # as before, t = 710 is refused rather than failing the rule check
        # with NaN
        assert_matches_oracle(exp_convolution(0.5, 0.5, [709.0]),
                              engine_oracle.exp_convolution(0.5, 0.5, [709.0]))
        with pytest.raises(ValueError, match=(
                r"^times\[1\] = 710 is past the closed form's range "
                r"t <= log\(DBL_MAX\) = 709\.783$")):
            exp_convolution(0.5, 0.5, [1.0, 710.0, 720.0])

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.inf, math.nan])
    def test_exp_convolution_refuses_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau_sigma must be finite"):
            exp_convolution(0.5, tau, [0.5])


class TestEngineKernel:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("t_min, t_max", [(1e-4, 2.0), (1e-6, 20.0)])
    def test_matches_mlf_on_certification_grids(self, alpha, t_min, t_max):
        grid = np.geomspace(t_min, t_max, CERTIFY_SAMPLES)
        ref = np.array([kernel_beta(alpha, 1.0, float(t)) for t in grid])
        assert np.abs(engine_kernel(alpha, grid) - ref).max() <= 1e-12

    def test_unmet_engine_tolerance_fails_the_build(self, monkeypatch):
        # no two rules agree to 1e-18: the reference cannot be certified
        monkeypatch.setattr("fracvisco.soe.ENGINE_TOL", 1e-18)
        with pytest.raises(QuadratureFailure, match="alpha = 0.5"):
            build_soe(0.5, 1e-6, 10.0, 1e-4, 2.0)


class TestBuildAndCertify:
    def test_certified_build_meets_tolerance(self):
        soe = build_soe(0.5, 1e-6, 10.0, 1e-4, 2.0)
        assert soe.eps_certified <= 1e-6
        assert soe.n_exp <= 4096

    def test_certification_is_honest(self):
        # re-measuring on a finer grid stays within a small factor
        soe = build_soe(0.5, 1e-6, 10.0, 1e-4, 2.0)
        recorded = soe.eps_certified
        dev = certify_soe(soe, 1e-4, 2.0, samples=2048)
        assert dev <= 4.0 * max(recorded, 1e-30)
        assert dev <= 1e-6 * 4.0

    def test_eval_matches_reference_pointwise(self):
        soe = build_soe(0.3, 1e-8, 10.0, 1e-4, 2.0)
        for t in (1e-4, 1e-2, 0.3, 1.0, 2.0):
            assert eval_soe(soe, t) == pytest.approx(
                ml_integral(0.3, t), abs=1e-8)

    def test_node_growth_under_tolerance_tightening(self):
        # halving log(eps) by 1e-3 -> 1e-6 grows the node count by at most 4x
        for alpha in (0.3, 0.5, 0.8):
            loose = build_soe(alpha, 1e-3, 10.0, 1e-4, 2.0)
            tight = build_soe(alpha, 1e-6, 10.0, 1e-4, 2.0)
            assert tight.n_exp <= 4 * loose.n_exp

    def test_eval_monotone_decreasing(self):
        soe = build_soe(0.5, 1e-8, 10.0, 1e-4, 2.0)
        grid = np.geomspace(1e-4, 2.0, 400)
        vals = eval_soe(soe, grid)
        assert np.all(np.diff(vals) < 0)

    def test_perturbation_detected(self):
        # corrupting one weight must blow up the certified deviation
        soe = build_soe(0.5, 1e-6, 10.0, 1e-4, 2.0)
        soe.weights = soe.weights.copy()
        soe.weights[soe.weights.argmax()] *= 1.01
        dev = certify_soe(soe, 1e-4, 2.0)
        assert dev > 1e-4

    def test_refining_j_does_not_degrade(self):
        # doubling J at fixed panels keeps the deviation from growing much
        def dev_for(j):
            nodes, weights = _panel_rule(0.5, build_panels(10.0, 8, 4), j)
            soe = SoeApprox(0.5, nodes, weights)
            return certify_soe(soe, 1e-3, 2.0)

        coarse, fine = dev_for(8), dev_for(16)
        assert fine <= 2.0 * coarse

    def test_certification_matches_integral_reference(self):
        # the certification reference (the kernel engine) records the same
        # deviation, to 1e-12, as one built from mlf's ml_integral
        for alpha in (0.3, 0.8):
            soe = build_soe(alpha, 1e-6, 10.0, 1e-4, 2.0)
            grid = np.geomspace(1e-4, 2.0, 512)
            ref = np.array([ml_integral(alpha, float(t)) for t in grid])
            by_integral = certify_soe(soe, 1e-4, 2.0, _ref=ref)
            assert certify_soe(soe, 1e-4, 2.0) == pytest.approx(
                by_integral, abs=1e-12)

    def test_alpha_one_is_exact_single_exponential(self):
        # one node for any q, also one whose panels would exceed the node
        # budget at alpha < 1
        for q in (10.0, 1.0001):
            soe = build_soe(1.0, 1e-6, q, 1e-4, 2.0)
            assert soe.nodes.tolist() == [1.0]
            assert soe.weights.tolist() == [1.0]
            assert soe.eps_certified == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_q_near_one_builds_no_edges(self, alpha):
        # q = 1 + 1e-9 asks for ~4.6e9 panels below 1: alpha = 0.5 is
        # refused and alpha = 1 stays exact, neither building those edges
        engine_kernel(alpha, [1.0])    # warm the rule-building caches
        tracemalloc.start()
        try:
            if alpha < 1.0:
                with pytest.raises(BudgetExceeded,
                                   match=r"^\d{10} panels x J = 8 "):
                    build_soe(alpha, 1e-6, 1.0 + 1e-9, 1e-4, 2.0)
            else:
                soe = build_soe(alpha, 1e-6, 1.0 + 1e-9, 1e-4, 2.0)
                assert soe.nodes.tolist() == soe.weights.tolist() == [1.0]
                assert soe.eps_certified == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            build_soe(0.5, 1e-14, 1.0001, 1e-4, 2.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.95])
    def test_budget_exceeded_with_integer_q(self, alpha):
        # past K = 19 integer powers of q would overflow int64 and leave
        # the panel edges as Python ints
        with pytest.raises(BudgetExceeded):
            build_soe(alpha, 1e-8, 10, 1e-4, 2.0)

    @pytest.mark.parametrize("q", [1.0, 0.5, math.nan, math.inf])
    def test_q_must_be_finite_above_one(self, q):
        # q = 1 divided by log(q) = 0; nan and inf went on to fail later
        with pytest.raises(ValueError, match="^q must be a finite number "
                                             "above 1, got"):
            build_soe(0.5, 1e-3, q, 1e-2, 2.0)

    def test_overflowing_q_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^q = 1e\+308 overflows"):
            build_soe(0.5, 1e-3, 1e308, 1e-2, 2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_soe(1.5, 1e-6, 10.0, 1e-4, 2.0)
        with pytest.raises(ValueError):
            build_soe(0.5, 2.0, 10.0, 1e-4, 2.0)
        with pytest.raises(ValueError):
            build_soe(0.5, 1e-6, 10.0, 2.0, 1e-4)
        with pytest.raises(ValueError):
            certify_soe(build_soe(0.5, 1e-3, 10.0, 1e-2, 2.0),
                        1e-2, 2.0, samples=50)

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(0.15, 0.9), scale=st.floats(0.5, 2.0))
    def test_certified_accuracy_property(self, alpha, scale):
        soe = build_soe(alpha, 1e-4, 10.0, 1e-3 * scale, 2.0 * scale)
        assert soe.eps_certified <= 1e-4


def _run_soe(alpha, n_steps, tau=0.5):
    """The sum stepper.run builds for n_steps steps on [0, 1]."""
    dt = 1.0 / n_steps
    return build_soe(alpha, dt / 10.0, 10.0, dt / (10.0 * tau), 1.0 / tau)


class TestCompress:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n_steps", [5, 256, 4096])
    def test_matches_lag_weights_on_every_lag(self, alpha, n_steps):
        dt, tau = 1.0 / n_steps, 0.5
        built = _run_soe(alpha, n_steps)
        small = compress_soe(built, dt, tau, n_steps)
        theta = theta_weights(built, dt, tau, n_steps)
        dev = np.abs(theta_weights(small, dt, tau, n_steps) - theta).max()
        assert dev <= COMPRESS_RTOL * theta[0]
        assert small.lag_deviation == dev
        assert small.n_exp <= min(n_steps, built.n_exp)
        # a subset of the built rates, every refitted weight positive
        assert np.all(np.isin(small.nodes, built.nodes))
        assert np.all(small.weights > 0.0)
        # the build's pointwise certificate is kept as it was
        assert small.eps_certified == built.eps_certified

    def test_alpha_one_and_one_step_pass_through(self):
        exact = build_soe(1.0, 1e-3, 10.0, 1e-3, 2.0)
        assert compress_soe(exact, 0.01, 0.5, 100) is exact
        built = _run_soe(0.5, 1)
        assert compress_soe(built, 1.0, 0.5, 1) is built
        assert built.lag_deviation is None

    def test_perturbed_refit_weight_fails_the_bound(self):
        dt, tau, n_steps = 1.0 / 256, 0.5, 256
        built = _run_soe(0.5, n_steps)
        small = compress_soe(built, dt, tau, n_steps)
        theta = theta_weights(built, dt, tau, n_steps)
        for k in range(small.n_exp):
            weights = small.weights.copy()
            weights[k] *= 1.0 + 1e-6
            bad = replace(small, weights=weights)
            dev = np.abs(theta_weights(bad, dt, tau, n_steps) - theta).max()
            assert dev > COMPRESS_RTOL * theta[0]

    def test_zero_rate_is_refused(self):
        # the rates x^(-1/alpha) of the widest panels underflow to 0 at
        # small alpha, and a zero rate's gain (b tau / a)(1 - decay) is 0/0
        zeros = SoeApprox(0.02, np.array([3.0, 1.0, 0.0, 0.0]), np.ones(4))
        with pytest.raises(FracViscoError, match=(
                r"^2 rates of the exponential sum underflow to 0 at "
                r"alpha = 0\.02$")):
            compress_soe(zeros, 0.01, 0.5, 100)


class TestWriteTable:
    def test_round_trip(self, tmp_path):
        soe = build_soe(0.5, 1e-3, 10.0, 1e-2, 2.0)
        path = tmp_path / "soe.txt"
        write_table(soe, str(path))
        data = np.loadtxt(path)
        assert data.shape == (soe.n_exp, 2)
        assert np.array_equal(data[:, 0], soe.nodes)
        assert np.array_equal(data[:, 1], soe.weights)
