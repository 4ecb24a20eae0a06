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
part's k pilots and k main samples, then the plus part's.  It sorts the law's
atoms by value once per call, so a run's minus part is nonzero on a prefix
of them and its plus part on a suffix: its side.  A pilot is pilot_runs index
draws from the law, and a main sample is one multinomial over the side plus
one lumped atom that holds the rest of the mass.  That is the full
multinomial with its zero-valued atoms aggregated, so the sample mean has the
same law, at the cost of the atoms the part can see.  Runs are drawn in chunks
of at most _ROW_CHUNK drawn elements; since every pilot of a part precedes
its mains, the draws do not depend on the chunking.  A qmean_multiplicative
call is the k = 1 case, and bounded_l2_estimate the one-run case whose side
is the whole law, with no lumped atom.

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

# Elements (runs x pilot draws, or runs x side atoms) the batched contracts
# draw and hold at once.
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
        idx = self._cum.searchsorted(rng.random(count), side="right")
        self._record_classical(count)
        # a draw above a rounded-down last _cum finds index size: clip it
        return self.values.take(idx, mode="clip")

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


def _beyond(values, anchors, sign: float):
    """sign * (values - anchors), without a pass to negate either."""
    return values - anchors if sign > 0 else anchors - values


def _part_means(sub: FiniteLaw, atoms: np.ndarray, ranked: np.ndarray, ps: np.ndarray,
                widths: np.ndarray, anchors, sign: float, epsilon: float,
                rng: np.random.Generator,
                constants: CostConstants) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounded-l2 pilot and main step, one run per anchor, over sub's law.

    atoms holds the estimated variable at each of the law's atoms, and run r
    estimates the mean of its part max(sign*(atoms - anchors[r]), 0).
    ranked and ps are the atoms' values and probabilities sorted so that run
    r's part is positive exactly on the first widths[r] of them: its side.  A
    pilot is pilot_runs index draws from the law.  A main sample is one
    multinomial over the side plus one lumped atom, the next in order, to
    which numpy's multinomial gives the rest of the mass: the full multinomial
    with the zero-valued atoms aggregated, so the sample mean has the same
    law.  With anchors None there is one run, of atoms itself, over the whole
    law (ranked = atoms, width = size) with no lumped atom.

    Every pilot precedes every main sample, and runs go in chunks of at most
    _ROW_CHUNK drawn elements, so the draws do not depend on the chunking.
    Records the classical draws on sub's ledgers; returns per-run means,
    second-moment pilots and main sample counts.
    """
    pilot = constants.pilot_runs
    rows = widths.size
    if rows == 1:  # a lone run in scalars: array calls would dominate its cost
        width = widths.item()
        x = atoms.take(sub._cum.searchsorted(rng.random(pilot), side="right"), mode="clip")
        part = ranked
        if anchors is not None:
            anchor = anchors.item()
            x = np.maximum(_beyond(x, anchor, sign), 0.0)
            part = _beyond(ranked[:width], anchor, sign)
        m2_hat = x.dot(x) / pilot
        n = int(_main_samples(m2_hat, epsilon, constants))
        counts = rng.multinomial(n, ps[:width + 1])
        mean = counts[:width].dot(part) / max(n, 1)
        sub._record_classical(pilot + n)
        return np.array([mean]), np.array([m2_hat]), np.array([n])

    m2_hat = np.empty(rows)
    step = max(1, _ROW_CHUNK // pilot)
    for lo in range(0, rows, step):
        chunk = anchors[lo:lo + step, None]
        drawn = sub._cum.searchsorted(rng.random((chunk.size, pilot)), side="right")
        x = np.maximum(_beyond(atoms.take(drawn, mode="clip"), chunk, sign), 0.0)
        # vecdot sums each row on its own, whatever the chunk's shape
        m2_hat[lo:lo + step] = np.vecdot(x, x) / pilot

    samples = _main_samples(m2_hat, epsilon, constants).astype(np.int64)
    width = int(widths.max())
    pvals = ps[:width + 1]
    columns = np.arange(pvals.size)
    step = max(1, _ROW_CHUNK // pvals.size)
    means = np.empty(rows)
    for lo in range(0, rows, step):
        rows_ = slice(lo, lo + step)
        n = samples[rows_]
        # A run narrower than the widest gets zeros up to the lumped column:
        # they draw nothing, so its counts are those of its own multinomial.
        on_side = columns < widths[rows_, None]
        counts = rng.multinomial(n, np.where(on_side, pvals, 0.0))
        part = np.maximum(_beyond(ranked[:width], anchors[rows_, None], sign), 0.0)
        means[rows_] = np.vecdot(counts[:, :width], part) / np.maximum(n, 1)
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
    means, m2_hat, samples = _part_means(sub, sub.values, sub.values, sub._pvals,
                                         np.array([sub.values.size]), None, 1.0, epsilon,
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


def _residual_parts(sub: FiniteLaw, scale: float, drawn: np.ndarray) -> tuple[tuple, tuple]:
    """The minus and plus parts of runs anchored at the drawn values, for _part_means.

    Each is (atoms, ranked, ps, widths, anchors, sign) in units of
    6*scale, where an anchor is itself an atom's value and so lies on neither
    side.  One stable sort by value serves both parts: the minus part
    (sign -1) is positive on the atoms below the anchor, a prefix of the
    sorted atoms, and the plus part (sign +1) on those above it, a suffix.
    """
    atoms = sub.values / (6.0 * scale)
    anchors = drawn / (6.0 * scale)
    order = sub.values.argsort(kind="stable")
    low, ps = atoms[order], sub._pvals[order]
    below = low.searchsorted(anchors, side="left")
    above = low.size - low.searchsorted(anchors, side="right")
    return (atoms, low, ps, below, anchors, -1.0), (atoms, low[::-1], ps[::-1], above, anchors, 1.0)


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
    step.  The law's atoms are sorted by value once, so the minus part is
    positive on a prefix of them and the plus part on a suffix.  Draw order:
    all anchors, then every minus-part pilot, every minus-part main sample,
    every plus-part pilot and every plus-part main sample.  The ledgers are
    charged repetitions times the theorem count.
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
    drawn = sub.draw(repetitions, rng)
    m_tilde = drawn / scale
    eps_inner = epsilon * a / (48.0 * sigma * b)
    minus, plus = _residual_parts(sub, scale, drawn)
    mu_minus, _, n_minus = _part_means(sub, *minus, eps_inner, rng, constants)
    mu_plus, _, n_plus = _part_means(sub, *plus, eps_inner, rng, constants)

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
