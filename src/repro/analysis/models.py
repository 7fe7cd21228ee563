"""Closed-form models of TWL behaviour (paper Section 4.2 and beyond).

The paper analyzes the toss-up's swap frequency with a two-page model
(its Equation 1/2); this module implements that model plus the wear-
share extension we derive from the same assumptions, and the uniform-
wear lifetime bound that pins every randomizing scheme.  The test suite
cross-validates the *simulated* TWL engine against these closed forms
(``tests/test_models.py``), which is the strongest internal-consistency
check the reproduction has.

Model assumptions (the paper's): a single pair (A, B) with endurances
``E_A >= E_B``; each write targets slot A with probability ``p``
independently; every write runs a toss-up (interval 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..pcm.endurance import norm_ppf


def choose_a_probability(endurance_a: float, endurance_b: float) -> float:
    """P(toss-up selects page A) = E_A / (E_A + E_B)."""
    _check_endurance(endurance_a, endurance_b)
    return endurance_a / (endurance_a + endurance_b)


def swap_probability(p: float, endurance_a: float, endurance_b: float) -> float:  # twl: allow(TWL011) reason=oracle: the paper's Eq. 1/2, checked at its four cases and against markov_swap_probability in tests/test_models.py
    """The paper's Equation 1/2: per-write swap probability.

    ``Prob(swap) = p * E_B/(E_A+E_B) + (1-p) * E_A/(E_A+E_B)``

    Case checks from the paper (Section 4.2):

    >>> round(swap_probability(0.5, 100, 100), 3)   # Case-1
    0.5
    >>> round(swap_probability(1.0, 1e6, 1.0), 3)   # Case-2
    0.0
    >>> round(swap_probability(0.0, 1e6, 1.0), 3)   # Case-3
    1.0
    >>> round(swap_probability(0.5, 1e6, 1.0), 3)   # Case-4
    0.5
    """
    _check_probability(p)
    _check_endurance(endurance_a, endurance_b)
    choose_a = choose_a_probability(endurance_a, endurance_b)
    return p * (1 - choose_a) + (1 - p) * choose_a


@dataclass(frozen=True)
class PairWearShares:
    """Expected per-write wear on each frame of a toss-up pair."""

    wear_a: float
    wear_b: float

    @property
    def total(self) -> float:
        """Physical writes per demand write (1 + swap overhead)."""
        return self.wear_a + self.wear_b

    @property
    def share_b(self) -> float:  # twl: allow(TWL011) reason=oracle: tests/test_models.py checks the engine's frame-B wear share against this Eq. 1/2 prediction
        """Fraction of pair wear landing on the weaker frame B."""
        return self.wear_b / self.total


def slot_repeat_probability(p: float) -> float:
    """P(two consecutive writes target the same logical page), i.i.d.

    ``s = p**2 + (1-p)**2``.  A repeat attack has s = 1, a strict
    alternation (scan hitting both pair members per round) has s = 0.
    """
    _check_probability(p)
    return p * p + (1 - p) * (1 - p)


def markov_pair_wear_shares(
    p: float,
    endurance_a: float,
    endurance_b: float,
    repeat_probability: float = None,
) -> PairWearShares:
    """Exact wear shares of the implemented engine (interval 1).

    The engine differs from the i.i.d. slot model in one crucial way:
    the written *logical page* carries its frame across writes, so the
    probability that the current write finds its page on frame A depends
    on whether the same page wrote last (then it sits on A with
    probability ``a``) or the partner did (then it sits on the
    complement, probability ``1-a``):

    ``P(on A) = s*a + (1-s)*(1-a)``, with ``s`` the probability that
    two consecutive writes target the same logical page.

    ``wear_A = a + (1-a) * P(on A)`` (chosen always written; the
    non-chosen frame is written too when the page had to move), and
    symmetrically for B.  Cross-validated against the engine to <1%
    in ``tests/test_models.py``.

    The limits explain the paper's attack columns at once:

    * repeat (s=1): wear ratio approaches E_A : E_B — PV-protection;
    * alternating scan (s=0): wear_A = wear_B for *any* endurance
      ratio — no scheme parameter can protect the weak frame, which is
      why scan pins TWL at the uniform-wear bound.
    """
    _check_probability(p)
    _check_endurance(endurance_a, endurance_b)
    if repeat_probability is None:
        repeat_probability = slot_repeat_probability(p)
    if not 0.0 <= repeat_probability <= 1.0:
        raise ConfigError("repeat probability must be in [0, 1]")
    a = choose_a_probability(endurance_a, endurance_b)
    on_a = repeat_probability * a + (1 - repeat_probability) * (1 - a)
    wear_a = a + (1 - a) * on_a
    wear_b = (1 - a) + a * (1 - on_a)
    return PairWearShares(wear_a=wear_a, wear_b=wear_b)


def markov_swap_probability(  # twl: allow(TWL011) reason=oracle: tests/test_models.py checks the TWL engine's measured swap ratio against this
    p: float,
    endurance_a: float,
    endurance_b: float,
    repeat_probability: float = None,
) -> float:
    """Exact per-write swap probability of the implemented engine.

    ``P(swap) = a * (1 - P(on A)) + (1 - a) * P(on A)`` with the same
    arrangement-memory term as :func:`markov_pair_wear_shares`.  The
    paper's Equation 1/2 (:func:`swap_probability`) is the memoryless
    special case with frames addressed i.i.d.; both agree at the
    paper's four limit cases.
    """
    _check_probability(p)
    _check_endurance(endurance_a, endurance_b)
    if repeat_probability is None:
        repeat_probability = slot_repeat_probability(p)
    if not 0.0 <= repeat_probability <= 1.0:
        raise ConfigError("repeat probability must be in [0, 1]")
    a = choose_a_probability(endurance_a, endurance_b)
    on_a = repeat_probability * a + (1 - repeat_probability) * (1 - a)
    return a * (1 - on_a) + (1 - a) * on_a


def pair_lifetime_fraction(  # twl: allow(TWL011) reason=oracle: tests/test_models.py checks a simulated pair's lifetime against this
    p: float,
    endurance_a: float,
    endurance_b: float,
    repeat_probability: float = None,
) -> float:
    """Pair lifetime (first frame death) relative to its ideal.

    The ideal serves ``E_A + E_B`` demand writes (one physical write per
    demand write, split exactly proportionally to endurance).  With the
    engine's actual (Markov) wear shares, the pair dies when the
    faster-wearing frame relative to its endurance exhausts.
    """
    shares = markov_pair_wear_shares(
        p, endurance_a, endurance_b, repeat_probability
    )
    demand_at_death = min(
        endurance_a / shares.wear_a, endurance_b / shares.wear_b
    )
    return demand_at_death / (endurance_a + endurance_b)


def uniform_wear_lifetime_fraction(  # twl: allow(TWL011) reason=oracle: tests/test_models.py checks measured Security Refresh lifetime against this bound
    sigma_fraction: float,
    population: int,
    overhead_ratio: float = 0.0,
) -> float:
    """Lifetime bound for any scheme that wears all pages uniformly.

    The first failure occurs when the weakest page of the population —
    expected at ``1 + sigma * Phi^-1(1/(N+1))`` of the mean — absorbs
    its endurance; migration overhead multiplies wear uniformly.

    This single number explains Security Refresh's flat ~0.42 of ideal
    and the random/scan columns of Figure 6 for every scheme.
    """
    if not 0.0 <= sigma_fraction < 1.0:
        raise ConfigError("sigma fraction must be in [0, 1)")
    if population < 1:
        raise ConfigError("population must be positive")
    if overhead_ratio < 0:
        raise ConfigError("overhead ratio must be non-negative")
    quantile = norm_ppf((1 - 0.375) / (population + 0.25))
    weakest = max(1e-9, 1.0 + sigma_fraction * quantile)
    return weakest / (1.0 + overhead_ratio)


def interval_swap_ratio(  # twl: allow(TWL011) reason=oracle: tests/test_models.py checks the engine's swap ratio at toss-up interval 8 against this
    swap_probability_at_toss: float, toss_up_interval: int
) -> float:
    """Expected toss-up swaps per demand write at a given interval.

    Interval-triggered toss-up (Section 4.3) activates the engine once
    per ``interval`` writes to a page, so the swap/write ratio of
    Figure 7(a) is the per-toss swap probability divided by the
    interval — the "drops in proportion" behaviour the paper reports.
    """
    if not 0.0 <= swap_probability_at_toss <= 1.0:
        raise ConfigError("swap probability must be in [0, 1]")
    if toss_up_interval < 1:
        raise ConfigError("interval must be positive")
    return swap_probability_at_toss / toss_up_interval


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"probability must be in [0, 1], got {p}")


def _check_endurance(endurance_a: float, endurance_b: float) -> None:
    if endurance_a <= 0 or endurance_b <= 0:
        raise ConfigError("endurance values must be positive")
