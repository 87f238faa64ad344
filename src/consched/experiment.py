"""Reproducible random profiles and the median-rule ratio experiment.

Random generation is specified exactly so that any implementation, in any
language, reproduces identical files from identical seeds: a 64-bit LCG
(state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64, output
= state >> 33), draws by modulo, Fisher-Yates from the last position down.

``consched gen`` writes :func:`generate_profile`'s profiles, and ``consched
ratio`` runs :func:`run_ratio_experiment`; the CLI imports this module only
for those two subcommands.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .criteria import CriterionKind, kendall_tau_distance, late_counts, profile_cost
from .model import EncodingKind, PreferenceProfile, _Record, serialize_profile
from .oracle import exhaustive_optimum, kendall_optimum
from .rules import emd_schedule, solve

__all__ = [
    "GENERATORS",
    "Lcg",
    "generate_profile",
    "ExperimentConfig",
    "RatioReport",
    "run_ratio_experiment",
]

# ---------------------------------------------------------------------------
# deterministic generation
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """The documented 64-bit LCG; each draw yields 31 uniform bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u31(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state >> 33

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) via modulo (bound <= 2^31)."""
        return self.next_u31() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> tuple[int, ...]:
        items = list(range(1, n + 1))
        self.shuffle(items)
        return tuple(items)


GENERATORS = ("uniform_permutations", "mallows_like_swap_noise")


def _check_generator(generator: str, swaps: int) -> None:
    """Refuse an unknown generator, negative swaps, and swaps for a generator that draws none."""
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if swaps < 0:
        raise ValueError(f"swaps must be >= 0, got {swaps}")
    if swaps > 0 and generator != "mallows_like_swap_noise":
        raise ValueError(f"swaps apply to mallows_like_swap_noise only, not {generator}")


def generate_profile(
    n: int, v: int, seed: int, generator: str = "uniform_permutations", swaps: int = 0
) -> PreferenceProfile:
    """Deterministic random order profile; one entry per voter.

    ``uniform_permutations`` draws independent uniform permutations.
    ``mallows_like_swap_noise`` starts every voter at the identity permutation
    and applies ``swaps`` adjacent transpositions at LCG-drawn positions (0
    swaps means v identical voters). Other generators take no swaps.
    """
    _check_generator(generator, swaps)
    return _draw_profile(Lcg(seed), n, v, generator, swaps)


def _draw_profile(rng: Lcg, n: int, v: int, generator: str, swaps: int) -> PreferenceProfile:
    """Draw v voters' orders from ``rng`` (see ``generate_profile``) into one profile."""
    orders = np.empty((max(v, 0), max(n, 0)), dtype=np.int64)
    for row in orders:
        if generator == "uniform_permutations":
            row[:] = rng.permutation(n)
        else:
            items = list(range(1, n + 1))
            for _ in range(swaps if n > 1 else 0):
                p = rng.below(n - 1)
                items[p], items[p + 1] = items[p + 1], items[p]
            row[:] = items
    return PreferenceProfile.from_orders(orders)


# ---------------------------------------------------------------------------
# ratio experiment harness
# ---------------------------------------------------------------------------


class ExperimentConfig(_Record):
    """A reproducible ratio experiment: (seed, config) fixes every trial."""

    __slots__ = _fields = ("trials", "n", "v", "seed", "generator", "swaps", "exact")

    def __init__(self, trials: int, n: int, v: int, seed: int,
                 generator: str = "uniform_permutations", swaps: int = 0, exact: bool = False):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        _check_generator(generator, swaps)
        self._fill(trials, n, v, seed, generator, swaps, exact)


class RatioReport(_Record):
    """One experiment's ratios (Kendall's None unless exact), counts and violations."""

    __slots__ = _fields = (
        "config", "max_tardiness_ratio", "mean_tardiness_ratio", "max_deviation_ratio",
        "mean_deviation_ratio", "max_kendall_ratio", "mean_kendall_ratio",
        "zero_tardiness_opt", "zero_kendall_opt", "slots_checked", "violations",
    )

    def __init__(self, config: ExperimentConfig, max_tardiness_ratio: float,
                 mean_tardiness_ratio: float, max_deviation_ratio: float,
                 mean_deviation_ratio: float, max_kendall_ratio: Optional[float],
                 mean_kendall_ratio: Optional[float], zero_tardiness_opt: int,
                 zero_kendall_opt: int, slots_checked: int, violations: tuple[str, ...]):
        self._fill(config, max_tardiness_ratio, mean_tardiness_ratio, max_deviation_ratio,
                   mean_deviation_ratio, max_kendall_ratio, mean_kendall_ratio,
                   zero_tardiness_opt, zero_kendall_opt, slots_checked, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def _ratio_stats(ratios: list[float]) -> tuple[float, float]:
    if not ratios:
        return 1.0, 1.0
    return max(ratios), sum(ratios) / len(ratios)


def run_ratio_experiment(config: ExperimentConfig) -> RatioReport:
    """Measure median-rule costs against exact optima over random profiles.

    Exact mode enumerates optima with the oracle, also checking the per-slot
    double bound (late choices of the median schedule at most twice those of
    every tardiness-optimal schedule, at every slot) and the pairwise
    (Kendall) ratio. Non-exact mode prices the tardiness optimum through the
    matching reduction only. Every schedule of an order profile has Dev = 2T,
    so both deviation costs, the optimum's and the median schedule's, are
    read as twice the tardiness ones, and the deviation ratios are the
    tardiness ratios. Zero-optimum trials are excluded from ratios; in them
    the median schedule must also cost zero, else the trial is recorded as a
    violation. Any integer-exact bound breach (tardiness ratio > 2, which is
    also a deviation bound breach, Kendall ratio > 4, per-slot breach) lands
    in ``report.violations`` verbatim.
    """
    rng = Lcg(config.seed)
    violations: list[str] = []
    zero_tardiness = zero_kendall = slots_checked = 0
    t_ratios: list[float] = []
    kendall_ratios: list[float] = []

    for trial in range(config.trials):
        profile = _draw_profile(rng, config.n, config.v, config.generator, config.swaps)

        emd = emd_schedule(profile)
        t_emd = profile_cost(emd, profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)

        def _flag(kind: str, detail: str) -> None:
            violations.append(
                f"trial {trial}: {kind}: {detail}\n"
                f"  emd schedule: {emd}\n"
                f"{serialize_profile(profile)}"
            )

        if config.exact:
            t_res = exhaustive_optimum(profile, CriterionKind.DISTANCE, EncodingKind.TARDINESS)
            t_opt = t_res.best_cost

            k_res = kendall_optimum(profile)
            kendall_emd = kendall_tau_distance(emd, profile)
            if k_res.best_cost == 0:
                zero_kendall += 1
                if kendall_emd != 0:
                    _flag("kendall bound", f"optimum 0 but emd {kendall_emd}")
            else:
                if kendall_emd > 4 * k_res.best_cost:
                    _flag("kendall bound", f"emd {kendall_emd} > 4 * {k_res.best_cost}")
                kendall_ratios.append(kendall_emd / k_res.best_cost)

            emd_late = late_counts(emd, profile)
            for opt in t_res.optima:
                opt_late = late_counts(opt, profile)
                for y in range(1, config.n + 1):
                    slots_checked += 1
                    bound = 2 * opt_late[y - 1]
                    if emd_late[y - 1] > bound:
                        _flag(
                            "per-slot bound",
                            f"slot {y}: emd {emd_late[y - 1]} > {bound} (optimum {opt})",
                        )
        else:
            t_opt = solve(profile, "distance", EncodingKind.TARDINESS).cost

        if t_opt == 0:
            zero_tardiness += 1
            if t_emd != 0:
                _flag("tardiness bound", f"optimum 0 but emd {t_emd}")
        else:
            if t_emd > 2 * t_opt:
                _flag("tardiness bound", f"emd {t_emd} > 2 * {t_opt}")
                _flag("deviation bound", f"emd {2 * t_emd} > 2 * {2 * t_opt}")
            t_ratios.append(t_emd / t_opt)

    t_stats = _ratio_stats(t_ratios)
    kendall = _ratio_stats(kendall_ratios) if config.exact else (None, None)
    return RatioReport(config, *t_stats, *t_stats, *kendall,
                       zero_tardiness, zero_kendall, slots_checked, tuple(violations))
