"""Sum-of-exponentials compression of the Mittag-Leffler kernel.

Builds a certified approximation

    E_alpha(-t**alpha) ~= sum_j b_j * exp(-a_j * t),   t in [t_min, t_max],

by splitting the integral representation into dyadic panels [0,1], [1,q],
..., [q^(K-1), q^K] and applying Gauss-Legendre quadrature with J points per
panel.  Nodes and weights are all strictly positive, which the telescoping
memory recursion of :class:`MemoryState`, one BLAS-2 pass per step, relies on.

The number of panels K and points J are chosen by an escalation loop that
keeps enlarging the rule until the measured deviation from engine_kernel
drops below the requested tolerance; the measured value is recorded on the
result.  The tail beyond q^K is dropped and absorbed into certification.

The stepper only consumes the lag weights theta_1..theta_N of the sum, so
:func:`compress_soe` then keeps the few rates that reproduce those N weights
(column-pivoted QR of the lag-weight matrix, a nonnegative refit) and checks
the result on every lag.

A fixed, much tighter panel rule is the kernel engine, which tabulates the
run's kernel tables at once: :func:`exp_convolution` the load factor I(t),
:func:`direct_weights` the direct scheme's lag weights (each exponential
integrated exactly over one step, as in theta_weights) and
:func:`engine_kernel` the kernel values that certify a built sum.  Its rates
are non-increasing, so in each (times x rates) block the entries whose value
is known exactly are a prefix and a suffix of the columns.  The engine
evaluates only the middle columns and reduces them with one matrix-vector
product; the known runs enter in closed form (e^{-a t} = 0 where a t > 746
and 1 where a t <= 2^-60; exprel(x) = -1/x where x < -40, and exprel(t) at
the slow rates).  That kernel sum, _exp_sum, also serves eval_soe and
theta_weights.  Each Gauss-Legendre rule is built once per point count, and
the engine's panel rules once per alpha.  The tests check
the engine against ``mlf``'s scalar series/quadrature and against its rule
evaluated on every entry: the same entries are 0 and the others agree
within 16 eps relative, every term being positive.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemv, dger
from scipy.optimize import nnls
from scipy.special import exprel

from .errors import BudgetExceeded, FracViscoError, QuadratureFailure
from .fem import Material

MAX_NODES = 4096
#: Default ratio q of consecutive panel edges of a built sum.
PANEL_RATIO = 10.0
#: Points of the log grid on [t_min, t_max] that certifies a built sum.
CERTIFY_SAMPLES = 512

#: Kernel engine: panels on [0, 4^24] (the tail beyond weighs < 1e-14),
#: J Gauss points each, checked against J_CHECK points per panel.
ENGINE_X_MIN, ENGINE_X_MAX = 4.0 ** -20, 4.0 ** 24
ENGINE_RATE_RATIO = 16.0
ENGINE_J, ENGINE_J_CHECK = 20, 16
ENGINE_TOL = 1e-9
#: log(DBL_MAX): exp_convolution's closed form overflows past t = LOG_MAX.
LOG_MAX = math.log(np.finfo(float).max)
#: Entries of each (times x nodes) temporary: 512 KB.  Of 2^15..2^17,
#: 2^17 ran the tables a few % faster but added 0.3 MB to a direct
#: run's peak RSS; 2^16 adds none.
ENGINE_BLOCK = 1 << 16

#: Compression: the compressed sum's lag weights must match the built sum's
#: within COMPRESS_RTOL * theta_1 on every lag 1..N.  The fit uses lags
#: 1..FIT_DENSE and FIT_PER_OCTAVE geometric lags per octave up to N.
COMPRESS_RTOL = 1e-10
FIT_DENSE, FIT_PER_OCTAVE = 64, 8


@dataclass
class SoeApprox:
    """Certified exponential-sum representation of E_alpha(-t**alpha).

    eps_certified is the build's pointwise deviation on [t_min, t_max].  A
    sum returned by compress_soe keeps that figure but is certified only on
    the lags l dt >= dt of one step size: lag_deviation is its measured
    max_l |theta'_l - theta_l| against the sum it was compressed from (None
    for a built sum).
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    eps_certified: float = math.inf
    lag_deviation: float | None = None

    @property
    def n_exp(self) -> int:
        return self.nodes.size


def build_panels(q: float, big_k: int, down: int = 0) -> np.ndarray:
    """Edges [0, q^-down, ..., q^K] of the panels [0, q^-down] and
    [q^(k-1), q^k], k = 1-down..K.  The `down` refinements of [0, 1] let
    Gauss points resolve the kernel's fast-rate content at small times."""
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if big_k < 0:
        raise ValueError(f"K must be nonnegative, got {big_k}")
    try:
        return np.array([0.0] + [float(q) ** m
                                 for m in range(-down, big_k + 1)])
    except OverflowError:
        raise ValueError(f"q = {q} overflows q**K at K = {big_k}") from None


@functools.cache
def _gauss_legendre(j: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of j-point Gauss-Legendre on [-1, 1]."""
    xi, omega = np.polynomial.legendre.leggauss(j)
    xi.flags.writeable = omega.flags.writeable = False
    return xi, omega


def _panel_rule(alpha: float, edges: np.ndarray,
                j: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates and weights of j-point Gauss-Legendre on each panel between
    consecutive edges, panel-major: the rates come out non-increasing."""
    if alpha == 1.0:    # the exact one-term rule E_1(-t) = e^{-t}
        return np.ones(1), np.ones(1)
    xi, omega = _gauss_legendre(j)
    c_ap, s_ap = math.cos(alpha * math.pi), math.sin(alpha * math.pi)
    pref = s_ap / (alpha * math.pi)
    c = ((edges[:-1] + edges[1:]) / 2.0)[:, None]
    r = ((edges[1:] - edges[:-1]) / 2.0)[:, None]
    x = r * xi + c
    with np.errstate(over="ignore"):
        nodes = np.minimum(x ** (-1.0 / alpha), 1e300)
    # (x + cos)^2 + sin^2, not x^2 + 2x cos + 1: no cancellation
    # near x = 1 as alpha -> 1
    weights = pref * omega * r / ((x + c_ap) ** 2 + s_ap ** 2)
    return nodes.ravel(), weights.ravel()


def step_factors(soe: SoeApprox, dt: float,
                 tau_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The one-step factors decay_j = e^{-a_j dt / tau_sigma} and
    gain_j = (b_j tau_sigma / a_j)(1 - decay_j) of each exponential;
    FracViscoError for a sum with a zero rate, whose gain is 0/0."""
    zero = np.count_nonzero(soe.nodes == 0.0)
    if zero:
        raise FracViscoError(f"{zero} rates of the exponential sum underflow "
                             f"to 0 at alpha = {soe.alpha}")
    decay = np.exp(-soe.nodes * dt / tau_sigma)
    return decay, soe.weights * tau_sigma / soe.nodes * (1.0 - decay)


class MemoryState:
    """Histories H_j, one row of n_dofs per exponential, with the one-step
    recursion

    H_j(v^n) = decay_j H_j(v^{n-1}) + gain_j v^{n-1},  H_j(v^0) = 0,

    and decay_j, gain_j from :func:`step_factors`, in one BLAS-2 pass over
    h.T (Fortran-ordered) by advance(v^{n-1}): dgemv forms the total it
    returns, sum_j H_j(v^n) = H^T decay + (sum_j gain_j) v^{n-1}, from the
    old H, h *= decay, and dger adds gain (x) v^{n-1}.
    """

    def __init__(self, soe: SoeApprox, dt: float, tau_sigma: float,
                 n_dofs: int):
        self.decay, self.gain = step_factors(soe, dt, tau_sigma)
        self.gain_sum = self.gain.sum()
        self.h = np.zeros((soe.n_exp, n_dofs))

    def advance(self, v_prev: np.ndarray) -> np.ndarray:
        h = self.h.T
        total = dgemv(1.0, h, self.decay, beta=self.gain_sum, y=v_prev)
        h *= self.decay
        # the result is kept in case the wrapper had to copy h.T
        self.h = dger(1.0, v_prev, self.gain, a=h, overwrite_a=1).T
        return total

    @property
    def nbytes(self) -> int:
        return self.h.nbytes


def _exp_sum(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j b_j e^{-a_j t} for each entry of t.  Only the middle columns of
    the (t x a) matrix are evaluated and reduced by @ b: the leading run
    with a_j min(t) > 746 (exp underflows to 0) is skipped, and the trailing
    run with a_j max(t) <= 2^-60 (exp(-x) is 1.0 exactly) enters as
    sum_j b_j.  Runs, not every such column, so unsorted rates stay right."""
    lo = np.count_nonzero(np.logical_and.accumulate(
        np.min(t, initial=math.inf) * a > 746.0))
    hi = max(lo, a.size - np.count_nonzero(np.logical_and.accumulate(
        np.max(t, initial=0.0) * a[::-1] <= 2.0 ** -60)))
    m = np.einsum("...,j->...j", -t, a[lo:hi])
    return np.exp(m, out=m) @ b[lo:hi] + b[hi:].sum()


def theta_weights(soe: SoeApprox, dt: float, tau_sigma: float,
                  n_max: int) -> np.ndarray:
    """Lag weights theta_1..theta_{n_max} of the equivalent convolution form,

    theta_l = sum_j gain_j decay_j^(l-1)
            = sum_j (b_j tau_sigma / a_j)(e^{-(l-1) dt a_j/tau_sigma}
                                          - e^{-l dt a_j/tau_sigma}),

    so that sum_j H_j(v^n) = sum_{i=0}^{n-1} theta_{n-i} v^i; evaluated in
    blocks of ENGINE_BLOCK (lags x exponentials) entries.
    """
    _, gain = step_factors(soe, dt, tau_sigma)
    rate = soe.nodes * dt / tau_sigma
    out = np.empty(n_max)
    rows = max(1, ENGINE_BLOCK // soe.n_exp)
    for lo in range(0, n_max, rows):
        past = np.arange(lo, min(lo + rows, n_max), dtype=float)    # l - 1
        # e^{-(l-1) rate}: a third of the time of decay ** (l-1)
        out[lo:lo + past.size] = _exp_sum(past, rate, gain)
    return out


def compress_soe(soe: SoeApprox, dt: float, tau_sigma: float,
                 n_steps: int) -> SoeApprox:
    """The fewest of soe's rates, with refitted positive weights, whose lag
    weights theta'_1..theta'_N match soe's within COMPRESS_RTOL * theta_1.

    A column-pivoted QR of the lag-weight matrix G[l, j] = gain_j
    decay_j^(l-1) on the fit lags (columns scaled to unit norm) orders the
    rates; the subset size r is the first at which Q^T theta says the
    least-squares residual is below a quarter of the bound.  NNLS refits the
    first r pivoted rates and the zero weights are dropped; if that misses
    the bound on some lag 1..N, NNLS over all rates is tried (its positive
    set is at most as large as the fit set).  soe itself is returned when
    both miss, when it has one exponential, or for a run of one step, which
    reads theta_1 only.
    """
    if soe.n_exp == 1 or n_steps <= 1:
        return soe
    decay, gain = step_factors(soe, dt, tau_sigma)
    # rates whose gain is 0 (decay rounds to 1, or underflow) carry nothing
    live = np.flatnonzero(gain > 0.0)
    n_geo = (1 + math.ceil(FIT_PER_OCTAVE * math.log2(n_steps / FIT_DENSE))
             if n_steps > FIT_DENSE else 0)
    lags = np.union1d(np.arange(1, min(n_steps, FIT_DENSE) + 1),
                      np.geomspace(FIT_DENSE, n_steps, n_geo).round())
    powers = np.exp(np.multiply.outer(1.0 - lags, soe.nodes[live] * dt
                                      / tau_sigma))
    powers[powers < 1e-30] = 0.0    # subnormals slow the QR a hundredfold
    theta = theta_weights(soe, dt, tau_sigma, n_steps)
    target = powers @ gain[live] / theta[0]
    scale = np.linalg.norm(powers, axis=0)    # >= 1: lag 1 gives 1
    basis = powers / scale
    q, _, perm = scipy.linalg.qr(basis, mode="economic", pivoting=True)
    # residual norm of the least-squares fit by the first k pivoted columns
    resid = np.sqrt(np.cumsum((q.T @ target)[::-1] ** 2)[::-1])
    r = np.count_nonzero(resid > COMPRESS_RTOL / 4.0)
    for cols in (np.sort(perm[:r]), np.arange(live.size)):
        try:
            # these columns are ill-conditioned: Lawson-Hanson can need
            # more than scipy's default 3 iterations per column
            coef, _ = nnls(basis[:, cols], target, maxiter=10 * cols.size)
        except RuntimeError:    # iteration limit reached
            continue
        keep = cols[coef > 0.0]
        refit = coef[coef > 0.0] * theta[0] / scale[keep]    # new gains
        idx = live[keep]
        approx = replace(soe, nodes=soe.nodes[idx],
                         weights=refit * soe.nodes[idx]
                         / (tau_sigma * (1.0 - decay[idx])))
        dev = float(np.max(np.abs(
            theta_weights(approx, dt, tau_sigma, n_steps) - theta)))
        if dev <= COMPRESS_RTOL * theta[0]:
            approx.lag_deviation = dev
            return approx
    return soe


def eval_soe(soe: SoeApprox, t) -> np.ndarray | float:
    """Evaluate the exponential sum at (normalized) time t."""
    t_arr = np.asarray(t, dtype=float)
    val = _exp_sum(t_arr, soe.nodes, soe.weights)
    return float(val) if np.isscalar(t) or t_arr.ndim == 0 else val


def _engine_rules(alpha: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only rates a_j and weights b_j,
    E_alpha(-t**alpha) ~= sum_j b_j e^{-a_j t}, of the ENGINE_J and
    ENGINE_J_CHECK rules, built once per alpha and point counts (keyed on
    the counts read here, so a changed ENGINE_J_CHECK takes effect)."""
    return _graded_rules(alpha, (ENGINE_J, ENGINE_J_CHECK))


@functools.lru_cache(maxsize=16)
def _graded_rules(alpha: float, js: tuple[int, ...]
                  ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The panel rules of _engine_rules with j points per panel, j in js.

    Geometric edges with ratio min(4, 16^alpha) bound the rate change per
    panel.  For alpha near 1 the weight's poles -cos(alpha pi) +- i
    sin(alpha pi) approach the axis, so edges are also graded by doubling
    away from x0 = -cos(alpha pi) in steps of the pole distance.
    """
    q = min(4.0, ENGINE_RATE_RATIO ** alpha)
    lo, hi = (math.floor(math.log(x, q)) for x in (ENGINE_X_MIN, ENGINE_X_MAX))
    x0, d = -math.cos(alpha * math.pi), math.sin(alpha * math.pi)
    geometric = build_panels(q, hi, -lo)
    edges = np.append(geometric, [x0] + [
        x0 + s * d * 2.0 ** k for k in range(math.ceil(math.log2(8.0 / d)))
        for s in (-1.0, 1.0)])
    edges = np.unique(edges[(edges >= 0.0) & (edges <= geometric[-1])])
    rules = tuple(_panel_rule(alpha, edges, j) for j in js)
    for arr in itertools.chain.from_iterable(rules):
        arr.flags.writeable = False
    return rules


def _engine_times(times) -> np.ndarray:
    """times as a float array; ValueError at the first one that is not a
    finite nonnegative number."""
    times = np.asarray(times, dtype=float)
    bad = np.flatnonzero(~((times >= 0.0) & (times < math.inf)))
    if bad.size:
        raise ValueError(f"times[{bad[0]}] = {times.flat[bad[0]]} is not a "
                         f"finite nonnegative number")
    return times


def _engine_sum(alpha: float, times: np.ndarray, rule_sum) -> np.ndarray:
    """rule_sum(t, a, b) for the ENGINE_J rule's rates a and weights b on
    blocks t of the 1-D times.  QuadratureFailure where the ENGINE_J_CHECK
    rule differs by more than ENGINE_TOL or either is not finite."""
    rules = _engine_rules(alpha)
    out = np.empty(times.size)
    rows = max(1, ENGINE_BLOCK // rules[0][0].size)
    for lo in range(0, times.size, rows):
        t = times[lo:lo + rows]
        fine, check = (rule_sum(t, a, b) for a, b in rules)
        gap = np.abs(fine - check)
        worst = int(np.argmax(gap))
        if not gap[worst] <= ENGINE_TOL:
            raise QuadratureFailure(
                f"kernel engine rules J = {ENGINE_J} and {ENGINE_J_CHECK} "
                f"differ by {gap[worst]:.2e} at t = {t[worst]:g} "
                f"(alpha = {alpha})")
        out[lo:lo + t.size] = fine
    return out


def exp_convolution(alpha: float, tau_sigma: float, times) -> np.ndarray:
    """The load factor I(t) = int_0^t beta(t - s) e^{-s} ds for each t in
    the 1-D times, beta(t) = E_alpha(-(t/tau_sigma)^alpha): with
    beta = sum_j b_j e^{-a_j t/tau} it closes to t e^{-t} sum_j b_j
    exprel(x_j), x_j = (1 - a_j/tau) t, stable for a_j/tau near 1.
    Checked as in _engine_sum.  Only the middle columns are evaluated, as
    expm1(x_j)/x_j (1 at x_j = 0), and reduced by @ b; the exact runs enter
    as sums: the prefix with x_j < -40 (entries -1/x_j) as
    -e^{-t} sum_j b_j/c_j, c_j = 1 - a_j/tau, and the suffix where c_j
    rounds to 1 as exprel(t) sum_j b_j.  A time past the closed form's
    range t <= LOG_MAX raises ValueError."""
    times = _engine_times(times)
    if not 0.0 < tau_sigma < math.inf:
        raise ValueError(f"tau_sigma must be finite and positive, "
                         f"got {tau_sigma}")
    far = np.flatnonzero(times > LOG_MAX)
    if far.size:
        raise ValueError(f"times[{far[0]}] = {times.flat[far[0]]:g} is past "
                         f"the closed form's range t <= log(DBL_MAX) = "
                         f"{LOG_MAX:.6g}")

    def rule_sum(t, a, b):
        c = 1.0 - a / tau_sigma    # non-decreasing, as a is non-increasing
        lo = np.count_nonzero(t.min() * c < -40.0)
        hi = max(lo, np.count_nonzero(c != 1.0))
        m = np.einsum("...,j->...j", t, c[lo:hi])  # the middle arguments x_j
        e = np.expm1(m)
        with np.errstate(invalid="ignore"):
            np.divide(e, m, out=e)
        e[m == 0.0] = 1.0
        damp = np.exp(-t)
        # -1/x_j before lo, exprel(t) from hi: closed-form sums
        return (t * damp * (e @ b[lo:hi] + exprel(t) * b[hi:].sum())
                - damp * (b[:lo] / c[:lo]).sum())

    return _engine_sum(alpha, times, rule_sum)


def direct_weights(material: Material, dt: float, n_max: int) -> np.ndarray:
    """Direct lag weights w_l = int_{(l-1) dt}^{l dt} beta, l = 1..n_max
    (w_{n,i} = w_{n-i}): each exponential of the engine's rule integrated
    exactly over one step, w_l = sum_j b_j dt exprel(-r_j) e^{-(l-1) r_j},
    r_j = a_j dt/tau_sigma, by _exp_sum over the lags l - 1, checked as in
    _engine_sum (whose failure names the lag as t).  No difference cancels;
    a zero rate's gain is b_j dt.  Lag 0 (the sum of the gains) is its own
    call, so the blocks of the later lags skip their underflowing columns."""
    def rule_sum(lag, a, b):
        rate = a * dt / material.tau_sigma
        return _exp_sum(lag, rate, b * dt * exprel(-rate))

    lags = np.arange(n_max, dtype=float)
    return np.concatenate([_engine_sum(material.alpha, part, rule_sum)
                           for part in (lags[:1], lags[1:])])


def engine_kernel(alpha: float, times: np.ndarray) -> np.ndarray:
    """E_alpha(-t**alpha) = sum_j b_j e^{-a_j t} for each t in the 1-D
    times by the kernel engine's rule and _exp_sum, checked as in
    _engine_sum."""
    return _engine_sum(alpha, _engine_times(times), _exp_sum)


def certify_soe(soe: SoeApprox, t_min: float, t_max: float,
                samples: int = CERTIFY_SAMPLES,
                _ref: np.ndarray | None = None) -> float:
    """Measure max |SOE - E_alpha(-t**alpha)| on a log grid and record it;
    the reference is engine_kernel on the grid unless _ref gives it."""
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    grid = np.geomspace(t_min, t_max, samples)
    ref = engine_kernel(soe.alpha, grid) if _ref is None else _ref
    dev = float(np.max(np.abs(eval_soe(soe, grid) - ref)))
    soe.eps_certified = dev
    return dev


def build_soe(alpha: float, eps: float, q: float, t_min: float,
              t_max: float) -> SoeApprox:
    """Construct an exponential sum certified to eps on [t_min, t_max].

    Escalation: start from K estimated from the range/tolerance, J = 8;
    certify against engine_kernel; on failure raise J by 4 up to 48, then K
    by 2, until the rule would have more than MAX_NODES nodes, which is
    refused before its panel edges are built.  At alpha = 1 every rule is
    the exact one-term sum e^{-t}, certified to 0 for any q.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must be a finite number above 1, got {q}")
    ref = engine_kernel(alpha, np.geomspace(t_min, t_max, CERTIFY_SAMPLES))
    k0 = math.ceil(math.log(max(t_max / t_min, 10.0) / eps, q))
    k0 = min(max(k0, 2), 40)
    # Depth below 1 needed so some panel resolves rates up to ~1/t_min;
    # alpha = 1 needs none, its one rate being 1.
    down = (max(math.ceil(alpha * math.log(1.0 / min(t_min, 1.0), q)), 0) + 1
            if alpha < 1.0 else 0)
    for big_k in itertools.count(k0, 2):
        panels = big_k + down + 1    # a J-point rule has panels * J nodes
        for j in range(8, 49, 4):
            if panels * j > MAX_NODES:
                raise BudgetExceeded(
                    f"{panels} panels x J = {j} exceeds {MAX_NODES} "
                    f"nodes before certification at eps = {eps:g}")
            if j == 8:
                edges = build_panels(q, big_k, down)
            soe = SoeApprox(alpha, *_panel_rule(alpha, edges, j))
            if certify_soe(soe, t_min, t_max, _ref=ref) <= eps:
                return soe


def write_table(soe: SoeApprox, path: str) -> None:
    """Dump the (rate, weight) pairs as plain text, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in zip(soe.nodes, soe.weights):
            fh.write(f"{a:.17g} {b:.17g}\n")
