"""Quantum mean-estimation contracts, simulated classically.

The quantum results being modeled promise a mean estimate of a subroutine's
output from L executions, where L scales near-linearly in sigma/epsilon
rather than the classical (sigma/epsilon)^2.  This module realizes each
contract's statistical guarantee with classical sampling while the ledger is
charged the quantum execution count:

  * additive:        |est - E[X]| <= eps   w.p. >= 4/5,  var[X] <= sigma^2
  * bounded-l2:      |est - E[X]| <= eps*(sqrt(E[X^2])+1)^2  w.p. >= 49/50
  * multiplicative:  |est - E[X]| <= eps*E[X]  w.p. >= 9/10,
                     var[X] <= sigma^2*E[X]^2, E[X] in [a, b]

The multiplicative estimator follows the textbook decomposition: scale by
1/(sigma*b), subtract a single-run anchor m~, split the residual into its
negative and positive parts, estimate each part's small mean with the
bounded-l2 contract at error eps*a/(48*sigma*b), and reassemble as
sigma*b*(m~ - 6*mu_- + 6*mu_+).  It needs a finite law.

Median amplification asks for all of its runs at once.  multiplicative_runs
does k runs over one law in a few array draws: all k anchors, then the minus
part's k pilots and k main samples, then the plus part's.  Rows are drawn in
chunks of at most _ROW_CHUNK row x atom counts; since every pilot of a part
precedes its mains, the draws do not depend on the chunking.  A
qmean_multiplicative call is the k = 1 case, and bounded_l2_estimate is the
one-row case of the same pilot-then-main step.

Charged executions are c_quantum * ceil(r * ln(r)^1.5 * ln(ln(r))) at the
contract's ratio r, floored at one execution.  Out-of-contract parameters
(eps too large for the theorem's range) still run but are flagged.

Every subroutine the estimators hand to a contract has finite support, so
the contracts are simulated from its law, never from sample paths: X is a
FiniteLaw of values, probabilities and charges.  A sample sum is one
multinomial draw of how often each value occurs, which costs O(#values)
whatever the sample size; the classical-execution ledger still records the
full notional sample count.  The additive contract reads only sample sums,
so it also takes KL's ratio law, a difference of two independent finite laws
per group that is never tabulated jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_CONSTANTS, CostConstants
from .oracle import QueryLedger

# Row x atom elements the batched contracts draw and hold at once.
_ROW_CHUNK = 1 << 15


class FiniteLaw:
    """A random variable X with finitely many values: what a contract estimates.

    `charges` lists (ledger, phase, per_execution_queries) triples; the
    contracts multiply the per-execution query costs by the theorem's
    execution count and charge them wholesale.  Draws are the simulator's
    classical work and are recorded on every charged ledger.
    """

    def __init__(self, values, probabilities,
                 charges: tuple[tuple[QueryLedger, str, int], ...] = ()):
        self.values = np.asarray(values, dtype=np.float64)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        if self.values.shape != self.probabilities.shape:
            raise ValueError("values and probabilities must align")
        if np.any(self.probabilities < 0):
            raise ValueError("probabilities must be non-negative")
        total = self.probabilities.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        # exact-sum normalization keeps multinomial's validation happy
        self._pvals = self.probabilities / total
        self._cum = np.cumsum(self._pvals)
        self.charges = tuple(charges)

    def _record_classical(self, count: int) -> None:
        for ledger, _, _ in self.charges:
            ledger.charge_classical(count)

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """`count` independent draws of X, recorded as classical work."""
        idx = np.searchsorted(self._cum, rng.random(count), side="right")
        self._record_classical(count)
        return self.values[np.minimum(idx, len(self.values) - 1)]

    def sample_sum(self, count: int, rng: np.random.Generator) -> float:
        """Sum of `count` independent draws of X, recorded as classical work.

        One multinomial over the values gives how often each occurs, so the
        cost is O(#values) whatever the count.
        """
        counts = rng.multinomial(count, self._pvals)
        self._record_classical(count)
        return float(counts @ self.values)

    def mean(self) -> float:
        return float(self.values @ self.probabilities)

    def variance(self) -> float:
        m = self.mean()
        return float((self.values - m) ** 2 @ self.probabilities)

    def charge_quantum(self, executions: int) -> None:
        for ledger, phase, per_execution in self.charges:
            ledger.charge(phase, per_execution * executions)


@dataclass
class MeanEstimate:
    value: float
    charged_executions: int
    classical_executions: int
    mode: str
    out_of_contract: bool = False
    details: dict = field(default_factory=dict)


def theorem_execution_count(ratio: float, c_quantum: int = 1) -> int:
    """c_quantum * ceil(r * ln(r)^{3/2} * ln(ln(r))), floored at one execution."""
    if ratio > math.e:
        core = ratio * math.log(ratio) ** 1.5 * math.log(math.log(ratio))
    else:
        core = 0.0
    return c_quantum * max(1, math.ceil(core))


def qmean_additive(
    sub,
    sigma: float,
    epsilon: float,
    rng: np.random.Generator,
    constants: CostConstants = DEFAULT_CONSTANTS,
) -> MeanEstimate:
    """Additive-error mean estimate: |est - E[X]| <= epsilon w.p. >= 4/5.

    Requires var[X] <= sigma^2 and, for the charged cost to be meaningful,
    0 < epsilon < 4*sigma.  Classically runs a median of group means sized by
    Chebyshev; the ledger is charged the near-linear theorem cost.  sub needs
    only sample_sum(count, rng) and charge_quantum(executions).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    out_of_contract = not (epsilon < 4.0 * sigma)
    charged = theorem_execution_count(sigma / epsilon, constants.c_quantum)

    groups = constants.additive_groups
    group_size = max(1, math.ceil(constants.c_classical * (sigma / epsilon) ** 2))
    means = [sub.sample_sum(group_size, rng) / group_size for _ in range(groups)]
    value = float(np.median(means))

    sub.charge_quantum(charged)
    return MeanEstimate(
        value=value,
        charged_executions=charged,
        classical_executions=groups * group_size,
        mode="additive",
        out_of_contract=out_of_contract,
    )


def _main_samples(m2_hat, epsilon: float, constants: CostConstants):
    """Chebyshev main-sample count for pilot second moment(s) m2_hat, as float(s).

    The pilot value is widened by pilot_safety both ways: the lower value
    sets the error target (capped at 4*epsilon), the upper one bounds the
    variance.  m2_hat = 0 gives 0.  Takes a scalar or an array.
    """
    m2_low = m2_hat / constants.pilot_safety
    m2_up = m2_hat * constants.pilot_safety
    tau = epsilon * np.minimum(4.0, (np.sqrt(m2_low) + 1.0) ** 2)
    return np.ceil(constants.lemma_chebyshev * m2_up / tau ** 2)


def _bounded_l2_rows(sub: FiniteLaw, row_values, rows: int, epsilon: float,
                     rng: np.random.Generator,
                     constants: CostConstants) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounded-l2 pilot and main step for `rows` independent runs over sub's law.

    row_values(index) gives the atom values of the runs that index selects
    (a slice of rows, or 0 for a lone run), one row per run; the step
    estimates each row's mean over sub's atom probabilities.  Every row's
    pilot is drawn before any row's main sample, so the draws do not depend
    on the chunking.  Records the classical draws on sub's ledgers; returns
    per-row means, second-moment pilots and main sample counts.

    A lone run is indexed by 0 rather than a slice, so its values are one
    vector and its moments numpy scalars: the same arithmetic and draws,
    without the fixed cost of array calls, which would dominate the
    single-call contracts.
    """
    pvals = sub._pvals
    step = max(1, _ROW_CHUNK // pvals.size)
    if rows == 1:
        whole, chunks = 0, [(0, None)]
    else:
        whole = slice(None)
        chunks = [(slice(lo, lo + step), min(step, rows - lo)) for lo in range(0, rows, step)]
    pilot = constants.pilot_runs
    m2_hat = np.empty(rows)
    for index, size in chunks:
        values = row_values(index)
        counts = rng.multinomial(pilot, pvals, size=size)
        # vecdot sums each row as the one-row product counts @ values does
        m2_hat[index] = np.vecdot(counts, values ** 2) / pilot

    samples = np.empty(rows, dtype=np.int64)
    samples[whole] = _main_samples(m2_hat[whole], epsilon, constants)
    means = np.empty(rows)
    for index, _ in chunks:
        if len(chunks) > 1:  # a single chunk keeps its values from the pilot pass
            values = row_values(index)
        n = samples[index]
        counts = rng.multinomial(n, pvals)
        means[index] = np.vecdot(counts, values) / np.maximum(n, 1)
    sub._record_classical(rows * pilot + int(samples.sum()))
    return means, m2_hat, samples


def bounded_l2_estimate(
    sub: FiniteLaw,
    epsilon: float,
    rng: np.random.Generator,
    constants: CostConstants = DEFAULT_CONSTANTS,
    charge: bool = True,
) -> MeanEstimate:
    """Mean estimate with error epsilon*(sqrt(E[X^2])+1)^2 w.p. >= 49/50.

    The unknown second moment is estimated on a pilot run and widened by
    pilot_safety in both directions: the lower value sets the error target
    actually enforced (never above the contract's allowance, which is at
    least epsilon since (sqrt(.)+1)^2 >= 1), the upper value bounds the
    variance for the Chebyshev sample size.  The target is also capped at
    4*epsilon, the regime the multiplicative estimator relies on.

    charge=False skips the ledger charge for callers whose own theorem count
    already covers these executions.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out_of_contract = not (epsilon < 0.5)
    means, m2_hat, samples = _bounded_l2_rows(sub, lambda index: sub.values, 1, epsilon,
                                              rng, constants)

    charged = theorem_execution_count(1.0 / epsilon, constants.c_quantum) if charge else 0
    if charge:
        sub.charge_quantum(charged)
    return MeanEstimate(
        value=float(means[0]),
        charged_executions=charged,
        classical_executions=constants.pilot_runs + int(samples[0]),
        mode="bounded-l2",
        out_of_contract=out_of_contract,
        details={"second_moment_pilot": float(m2_hat[0]), "samples": int(samples[0])},
    )


@dataclass
class MultiplicativeRuns:
    """Independent runs of the multiplicative contract, one array entry per run.

    Each run satisfies value = scale*(m_tilde - 6*mu_minus + 6*mu_plus);
    charged_executions is the theorem count of one run.
    """

    value: np.ndarray
    m_tilde: np.ndarray
    mu_minus: np.ndarray
    mu_plus: np.ndarray
    classical_executions: np.ndarray
    scale: float
    charged_executions: int
    out_of_contract: bool


def multiplicative_runs(
    sub: FiniteLaw,
    sigma: float,
    a: float,
    b: float,
    epsilon: float,
    repetitions: int,
    rng: np.random.Generator,
    constants: CostConstants = DEFAULT_CONSTANTS,
) -> MultiplicativeRuns:
    """`repetitions` independent runs of the multiplicative contract over sub's law.

    Requires var[X] <= sigma^2 * E[X]^2 and E[X] in [a, b] with a > 0; the
    theorem's range is 0 < epsilon < 24*sigma.  Each run scales X by
    1/(sigma*b), draws its anchor m~ from X, and estimates the means of
    max(-(X/scale - m~), 0)/6 and max(X/scale - m~, 0)/6 with the bounded-l2
    step.  Draw order: all anchors, then every minus-part pilot, every
    minus-part main sample, every plus-part pilot and every plus-part main
    sample.  The ledgers are charged repetitions times the theorem count.
    """
    if not isinstance(sub, FiniteLaw):
        raise TypeError("the multiplicative contract needs a finite law")
    if not 0.0 < a <= b:
        raise ValueError("need mean bounds 0 < a <= b")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    out_of_contract = not (epsilon < 24.0 * sigma)

    scale = sigma * b
    m_tilde = sub.draw(repetitions, rng) / scale
    eps_inner = epsilon * a / (48.0 * sigma * b)
    scaled = sub.values / scale

    def minus(index):
        return np.maximum(m_tilde[index, None] - scaled, 0.0) / 6.0

    def plus(index):
        return np.maximum(scaled - m_tilde[index, None], 0.0) / 6.0

    mu_minus, _, n_minus = _bounded_l2_rows(sub, minus, repetitions, eps_inner, rng, constants)
    mu_plus, _, n_plus = _bounded_l2_rows(sub, plus, repetitions, eps_inner, rng, constants)

    charged = theorem_execution_count(sigma * b / (epsilon * a), constants.c_quantum)
    sub.charge_quantum(repetitions * charged)
    return MultiplicativeRuns(
        value=scale * (m_tilde - 6.0 * mu_minus + 6.0 * mu_plus),
        m_tilde=m_tilde,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
        classical_executions=(n_minus + n_plus) + (1 + 2 * constants.pilot_runs),
        scale=scale,
        charged_executions=charged,
        out_of_contract=out_of_contract,
    )


def qmean_multiplicative(
    sub: FiniteLaw,
    sigma: float,
    a: float,
    b: float,
    epsilon: float,
    rng: np.random.Generator,
    constants: CostConstants = DEFAULT_CONSTANTS,
) -> MeanEstimate:
    """Relative-error mean estimate: |est - E[X]| <= epsilon*E[X] w.p. >= 9/10.

    One run of multiplicative_runs; the output satisfies the exact identity
    value = sigma*b*(m~ - 6*mu_- + 6*mu_+), whose pieces are reported in
    details.
    """
    runs = multiplicative_runs(sub, sigma, a, b, epsilon, 1, rng, constants)
    return MeanEstimate(
        value=float(runs.value[0]),
        charged_executions=runs.charged_executions,
        classical_executions=int(runs.classical_executions[0]),
        mode="multiplicative",
        out_of_contract=runs.out_of_contract,
        details={
            "m_tilde": float(runs.m_tilde[0]),
            "mu_minus": float(runs.mu_minus[0]),
            "mu_plus": float(runs.mu_plus[0]),
            "scale": runs.scale,
        },
    )


def median_amplify(run, delta: float, rng: np.random.Generator,
                   constants: CostConstants = DEFAULT_CONSTANTS) -> tuple[float, list[float]]:
    """Median of ceil(median_constant * ln(1/delta)) runs of a >= 2/3 estimator.

    run(rng, repetitions) returns all the runs' outcomes at once.  Boosts
    success probability to >= 1 - delta; returns (median, all runs).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    repetitions = max(1, math.ceil(constants.median_constant * math.log(1.0 / delta)))
    outcomes = [float(x) for x in run(rng, repetitions)]
    return float(np.median(outcomes)), outcomes
