"""Critical exponents of nonnegative sequences and the combinatorial
growth lemmas behind orbital counting.

All arithmetic is carried out in log-space, so terms of size e^300 and
horizons of millions of indices are safe.  A sequence is held as the array
of natural logs of its terms, with -inf encoding a zero term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TAIL_FRACTION = 0.2
_LOG_TOL = 1e-9
_EXHAUSTIVE_LIMIT = 4000  # indices up to which divergence_argument_check scans every pair


class AllZero(ValueError):
    pass


class NotSubmultiplicative(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisViolated(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SequenceProbe:
    """A finite nonnegative sequence u_0 .. u_N stored as logs."""

    log_u: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.log_u, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError("need a one-dimensional sequence of length >= 2")
        if np.isnan(arr).any() or (arr == np.inf).any():
            raise ValueError("log terms must be finite or -inf")
        if not (arr > -np.inf).any():
            raise AllZero("sequence must have a positive term")
        object.__setattr__(self, "log_u", arr)

    @staticmethod
    def from_values(values) -> "SequenceProbe":
        values = np.asarray(values, dtype=np.float64)
        if (values < 0).any():
            raise ValueError("sequence terms must be nonnegative")
        with np.errstate(divide="ignore"):
            return SequenceProbe(np.log(values))

    @staticmethod
    def from_log(log_values) -> "SequenceProbe":
        return SequenceProbe(np.asarray(log_values, dtype=np.float64))

    def __len__(self):
        return len(self.log_u)


def _log_cumsum(log_u: np.ndarray) -> np.ndarray:
    """Logs of the partial sums U_n = u_0 + ... + u_n."""
    return np.logaddexp.accumulate(log_u)


def _index_pairs(n_max: int, lo: int, gap: int = 0):
    """Rows (k, l) of the pair scans behind the growth lemmas: every k >= lo
    with the array l = lo .. n_max - gap - k, while that array is nonempty."""
    for k in range(lo, n_max + 1):
        l_hi = n_max - gap - k
        if l_hi < lo:
            break
        yield k, np.arange(lo, l_hi + 1)


def _tail_indices(n: int) -> np.ndarray:
    start = max(1, int(math.ceil((1.0 - _TAIL_FRACTION) * (n - 1))))
    return np.arange(start, n)


@dataclass(frozen=True)
class ExponentPair:
    """limsup (1/n) ln u_n estimated from the terms and from the partial
    sums; the two agree in the limit whenever the series diverges."""

    from_terms: float
    from_partial_sums: float


def critical_exponent(probe: SequenceProbe) -> ExponentPair:
    """Finite-horizon limsup proxy: max of (1/n) ln(.) over the tail 20%
    of indices, for the terms and for their partial sums."""
    lu = probe.log_u
    idx = _tail_indices(len(lu))
    with np.errstate(invalid="ignore"):
        terms = lu[idx] / idx
    finite = np.isfinite(terms)
    from_terms = float(terms[finite].max()) if finite.any() else -math.inf
    lU = _log_cumsum(lu)
    from_sums = float((lU[idx] / idx).max())
    return ExponentPair(from_terms, from_sums)


@dataclass(frozen=True)
class Lemma1Report:
    """Simultaneous convergence diagnostic for sum u_n e^{-sn} and
    sum U_n e^{-sn} on an s-grid."""

    s_grid: tuple[float, ...]
    classification_terms: tuple[str, ...]
    classification_sums: tuple[str, ...]
    exponents: ExponentPair
    agreement: float
    neutral_band: float


_GROWTH_THRESHOLD = 0.5
_NEUTRAL_BAND = 0.02  # half-width of the inconclusive band around the exponent


def _classify_series(log_terms: np.ndarray) -> str:
    """'bounded' or 'growing' from the partial-sum increase between the
    half horizon and the full horizon."""
    partial = _log_cumsum(log_terms)
    growth = partial[-1] - partial[len(partial) // 2]
    return "bounded" if growth < _GROWTH_THRESHOLD else "growing"


def lemma1_check(probe: SequenceProbe, s_grid) -> Lemma1Report:
    """Classify both series at each grid s and compare the two exponent
    estimates.  Classification is not asserted inside the neutral band
    around the common exponent, where finite horizons are inconclusive."""
    lu = probe.log_u
    lU = _log_cumsum(lu)
    n = np.arange(len(lu))
    cls_u, cls_U = [], []
    for s in s_grid:
        cls_u.append(_classify_series(lu - s * n))
        cls_U.append(_classify_series(lU - s * n))
    pair = critical_exponent(probe)
    return Lemma1Report(
        s_grid=tuple(float(s) for s in s_grid),
        classification_terms=tuple(cls_u),
        classification_sums=tuple(cls_U),
        exponents=pair,
        agreement=abs(pair.from_terms - pair.from_partial_sums),
        neutral_band=_NEUTRAL_BAND,
    )


@dataclass(frozen=True)
class FeketeReport:
    """Convergence of (u_n)^{1/n} to its infimum for a submultiplicative
    sequence (logs throughout: log_roots are (1/n) ln u_n)."""

    log_root_inf: float
    log_root_last: float
    gap: float


def fekete_check(probe: SequenceProbe) -> FeketeReport:
    """Validate u_{n+m} <= u_n u_m exhaustively, then report the infimum of
    the n-th roots and the gap to the last-index root."""
    lu = probe.log_u
    if not np.isfinite(lu[1:]).all():
        raise ValueError("sequence must be strictly positive from index 1")
    for n, m in _index_pairs(len(lu) - 1, 1):
        bad = lu[n + m] > lu[n] + lu[m] + _LOG_TOL
        if bad.any():
            m0 = int(m[np.argmax(bad)])
            raise NotSubmultiplicative(
                f"u_{n + m0} > u_{n} * u_{m0}", witness=(n, m0))
    roots = lu[1:] / np.arange(1, len(lu))
    inf_root = float(roots.min())
    last = float(roots[-1])
    return FeketeReport(log_root_inf=inf_root, log_root_last=last,
                        gap=last - inf_root)


def _window_log_sums(lu: np.ndarray, kappa: int) -> np.ndarray:
    """W[j] = log sum of u_i over i in [j - kappa, j + kappa] (clipped)."""
    n = len(lu)
    out = np.full(n, -np.inf)
    for off in range(-kappa, kappa + 1):
        src_lo, src_hi = max(0, off), min(n, n + off)
        dst_lo, dst_hi = max(0, -off), min(n, n - off)
        out[dst_lo:dst_hi] = np.logaddexp(out[dst_lo:dst_hi], lu[src_lo:src_hi])
    return out


@dataclass(frozen=True)
class FaitReport:
    """Windowed supermultiplicativity report: convergence of U_n^{1/n},
    the geometric envelope constant, and the chained-sum inequality."""

    kappa: int
    scale: float
    log_limit: float
    tail_oscillation: float
    envelope_constant: float
    chain_constant: float


def fait_check(probe: SequenceProbe, kappa: int, scale: float = 1.0) -> FaitReport:
    """Validate u_k u_l <= scale * sum_{i=k+l-kappa}^{k+l+kappa} u_i for all
    admissible (k, l), then report:

    - the limit proxy u for U_n^{1/n} (last-index value) with its tail
      oscillation,
    - the minimal C with u_n <= C u^n over the horizon,
    - the measured constant in u_k U_l <= const * U_{k+l+kappa}.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    lu = probe.log_u
    n_max = len(lu) - 1
    log_scale = math.log(scale)
    win = _window_log_sums(lu, kappa)
    for k, l in _index_pairs(n_max, kappa, kappa):
        bad = lu[k] + lu[l] > log_scale + win[k + l] + _LOG_TOL
        if bad.any():
            l0 = int(l[np.argmax(bad)])
            raise HypothesisViolated(
                f"u_{k} u_{l0} exceeds the window sum around {k + l0}",
                witness=(k, l0))

    lU = _log_cumsum(lu)
    idx = _tail_indices(len(lu))
    tail_roots = lU[idx] / idx
    log_limit = float(tail_roots[-1])
    osc = float(tail_roots.max() - tail_roots.min())

    chain = -math.inf
    for k, l in _index_pairs(n_max, 0, kappa):
        vals = lu[k] + lU[l] - lU[k + l + kappa]
        if np.isfinite(lu[k]):
            chain = max(chain, float(vals.max()))
    return FaitReport(
        kappa=kappa,
        scale=scale,
        log_limit=log_limit,
        tail_oscillation=osc,
        envelope_constant=envelope_constant(probe, log_limit),
        chain_constant=math.exp(chain),
    )


def envelope_constant(probe: SequenceProbe, log_base: float) -> float:
    """Smallest C with u_n <= C * base^n over the horizon (base given as a
    log); nonincreasing in the base."""
    lu = probe.log_u
    n = np.arange(1, len(lu))
    finite = np.isfinite(lu[1:])
    return float(np.exp((lu[1:][finite] - n[finite] * log_base).max()))


def minimal_fait_scale(probe: SequenceProbe, kappa: int) -> float:
    """Smallest C >= 1 making the windowed hypothesis of :func:`fait_check`
    hold on the horizon."""
    lu = probe.log_u
    win = _window_log_sums(lu, kappa)
    worst = 0.0
    for k, l in _index_pairs(len(lu) - 1, kappa, kappa):
        worst = max(worst, float((lu[k] + lu[l] - win[k + l]).max()))
    return math.exp(max(worst, 0.0))


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of the rescaled-count divergence argument: the Fekete limit
    L of (1/n) ln of the doubly-summed sequence, with certified
    subadditivity and the tail lower bound."""

    growth_rate: float
    subadditive: bool
    tail_lower_bound: float


def divergence_argument_check(probe: SequenceProbe, rng=None) -> DivergenceReport:
    """For w_1 .. w_N (the probe array is read as starting at index 1):
    validate w_{n+m} <= W_n W_m, check subadditivity of ln W~_n where
    W~_n = 1 + W_1 + ... + W_n, and return L = min_n (ln W~_n)/n.

    Checks are exhaustive up to _EXHAUSTIVE_LIMIT indices and sampled
    beyond (the horizon can reach millions of terms).
    """
    lw = np.concatenate([[-np.inf], probe.log_u])  # w_0 unused
    n_max = len(lw) - 1
    lW = np.logaddexp.accumulate(lw)               # lW[n] = log(w_1+..+w_n)
    lWt = np.logaddexp.accumulate(np.concatenate([[0.0], lW[1:]]))

    def pairs():
        if n_max <= _EXHAUSTIVE_LIMIT:
            yield from _index_pairs(n_max, 1)
        else:
            gen = rng if rng is not None else np.random.default_rng(0)
            for n in gen.integers(1, n_max, size=_EXHAUSTIVE_LIMIT):
                m = gen.integers(1, n_max - n + 1, size=64)
                yield int(n), m

    for n, m in pairs():
        bad = lw[n + m] > lW[n] + lW[m] + _LOG_TOL
        if bad.any():
            m0 = int(m[np.argmax(bad)])
            raise HypothesisViolated(
                f"w_{n + m0} > W_{n} * W_{m0}", witness=(n, m0))

    subadd = True
    for n, m in pairs():
        if (lWt[n + m] > lWt[n] + lWt[m] + _LOG_TOL).any():
            subadd = False
            break

    n = np.arange(1, n_max + 1)
    rates = lWt[1:] / n
    growth = float(rates.min())
    tail = _tail_indices(n_max + 1)
    c = float(np.exp(lWt[tail] - growth * tail).min())
    return DivergenceReport(growth_rate=growth, subadditive=subadd,
                            tail_lower_bound=c)
