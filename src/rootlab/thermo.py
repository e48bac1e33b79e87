"""Gibbs-measure sampling over the potential landscape.

The target density is proportional to exp(-V(x)/T) with V = ||P(x)||^2.
Sampling is random-walk Metropolis in R^d with isotropic Gaussian
proposals; the scale is adapted to a target acceptance window during
burn-in and then frozen.  Chains run as a vectorized ensemble but each
consumes its own seeded stream, so results are reproducible chain by
chain.  One loop, ``sample_gibbs_ladder``, steps any number of cells that
share one P (each a GibbsConfig with its own T, seed, chains and scale
adaptation) in lockstep; ``sample_gibbs`` is its one-cell call.  On top of
the sampler: the alignment order parameter along an imaginary axis, the
entropy-scaling coefficient from the potential fluctuation estimator
Var(V)/T^2 (cross-checked by mean(V)/T) with the whole T-ladder in one
loop, and (epsilon, T) phase-diagram sweeps with one loop per epsilon row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraElement
from .manifolds import root_set, sample_stratum
from .poly import DAPolynomial, Deformation, potential_coords


class SamplerDiagnosticError(RuntimeError):
    """Sampler left its validity envelope (acceptance out of range, ...)."""


ACCEPT_HARD_LIMITS = (0.05, 0.8)
N_BATCHES = 20
RNG_BLOCK = 1024    # steps of random draws made per stream at a time


@dataclass(frozen=True)
class GibbsConfig:
    temperature: float
    chains: int = 8
    steps: int = 20000
    burn_in: float = 0.3
    proposal_scale: float | None = None
    seed: int = 0
    adapt_interval: int = 50

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.1 <= self.burn_in <= 0.9:
            raise ValueError("burn_in fraction must lie in [0.1, 0.9]")
        if self.chains < 1 or self.steps < 10:
            raise ValueError("need at least one chain and a few steps")
        if self.adapt_interval < 1:
            raise ValueError("adapt_interval must be at least one step")
        if self.proposal_scale is not None and not self.proposal_scale > 0:
            raise ValueError("proposal_scale must be positive (or None for sqrt(T))")


@dataclass(frozen=True)
class EnsembleStats:
    mean_V: float
    var_V: float
    order_parameter: float
    order_parameter_stderr: float
    acceptance: float
    ess: float
    rhat: float
    second_moments: np.ndarray

    def __post_init__(self) -> None:
        if self.var_V < 0:
            raise ValueError("variance cannot be negative")
        if not 0.0 <= self.order_parameter <= 1.0 + 1e-12:
            raise ValueError("order parameter must lie in [0, 1]")


@dataclass
class GibbsResult:
    stats: EnsembleStats
    samples: np.ndarray | None     # (kept, chains, d)
    v_samples: np.ndarray | None   # (kept, chains)
    proposal_scale: float
    config: GibbsConfig


def metropolis_accept(delta_v: np.ndarray, temperature: float | np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Accept rule u < min(1, exp(-delta_V / T)), vectorized.

    ``temperature`` is one T for every row or an array of per-row T.
    """
    dv = np.asarray(delta_v, dtype=float)
    ratio = np.exp(-np.maximum(np.minimum(dv / temperature, 700.0), -700.0))
    return u < np.minimum(1.0, ratio)


def _initial_points(strata, d: int, chains: int, rng: np.random.Generator,
                    scale_hint: float) -> np.ndarray:
    """Mode-seeded starts: samples of the root-set strata, plus overdispersed."""
    anchors: list[np.ndarray] = []
    per = max(1, (chains + 1) // 2 // max(len(strata), 1))
    for s in strata:
        anchors.extend(p.coords for p in sample_stratum(s, per, rng))
    points = np.empty((chains, d))
    for c in range(chains):
        if c % 2 == 0 and anchors:
            points[c] = anchors[(c // 2) % len(anchors)]
        else:
            points[c] = rng.normal(scale=2.0 * scale_hint, size=d)
    return points


def _axis_coords(axis: AlgebraElement | None, d: int) -> np.ndarray:
    """Coordinates of the order-parameter axis (default e_1), validated."""
    if axis is None:
        ax = np.zeros(d)
        ax[1] = 1.0
        return ax
    if abs(axis.real) > 1e-9 or abs(axis.norm() - 1.0) > 1e-9:
        raise ValueError("axis must be a unit imaginary element")
    return axis.coords.copy()


def sample_gibbs(P: DAPolynomial, cfg: GibbsConfig,
                 axis: AlgebraElement | None = None,
                 keep_samples: bool = True) -> GibbsResult:
    """Random-walk Metropolis ensemble for the Gibbs measure of P.

    The one-cell call of ``sample_gibbs_ladder``.  Returns pooled
    statistics plus (optionally) the raw kept samples.  Raises
    SamplerDiagnosticError when the frozen proposal scale fails to keep
    acceptance inside the hard limits.
    """
    (result,) = sample_gibbs_ladder(P, [cfg], axis, keep_samples)
    if isinstance(result, SamplerDiagnosticError):
        raise result
    return result


def sample_gibbs_ladder(P: DAPolynomial, cfgs,
                        axis: AlgebraElement | None = None,
                        keep_samples: bool = True
                        ) -> list[GibbsResult | SamplerDiagnosticError]:
    """Several cells of one P, each a GibbsConfig, as one Metropolis loop.

    The chains of all cells are stacked and step together, so the per-step
    cost is paid once per ladder instead of once per cell.  Each chain
    still draws from its own spawned stream and starts where a one-cell run
    starts; each cell keeps its own T, proposal-scale adaptation and
    acceptance count.  The cells must share ``steps``, ``burn_in`` and
    ``adapt_interval``.  Returns one GibbsResult per cell, in order, or the
    SamplerDiagnosticError of a cell that left its validity envelope; other
    cells are unaffected.

    A cell of two or more chains gives the same bits as its one-cell run.
    A one-chain cell batched with other chains need not: the polynomial
    kernel rounds a one-row batch otherwise than the same row in a wider one.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one cell")
    steps, burn_in, interval = cfgs[0].steps, cfgs[0].burn_in, cfgs[0].adapt_interval
    if any((c.steps, c.burn_in, c.adapt_interval) != (steps, burn_in, interval)
           for c in cfgs):
        raise ValueError("cells must share steps, burn_in and adapt_interval")
    d = P.tag.dimension
    ax = _axis_coords(axis, d)
    strata = root_set(P).strata if P.degree >= 1 else ()
    sizes = np.array([c.chains for c in cfgs])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    streams, starts, scales = [], [], []
    for c in cfgs:
        seeds = np.random.SeedSequence(c.seed).spawn(c.chains + 1)
        streams.extend(np.random.default_rng(s) for s in seeds[:-1])
        scale = (c.proposal_scale if c.proposal_scale is not None
                 else float(np.sqrt(c.temperature)))
        starts.append(_initial_points(strata, d, c.chains,
                                      np.random.default_rng(seeds[-1]), max(1.0, scale)))
        scales.append(scale)
    x = np.concatenate(starts)
    v = potential_coords(P, x)
    temps = np.repeat([c.temperature for c in cfgs], sizes)
    scale_col = np.repeat(scales, sizes)[:, None]

    n_burn = int(burn_in * steps)
    n_keep = steps - n_burn
    kept_x = np.empty((n_keep, len(x), d)) if keep_samples else None
    kept_v = np.empty((n_keep, len(x)))
    accepts = np.zeros(len(x), dtype=np.int64)   # per chain, since the last reset

    for step in range(steps):
        local = step % RNG_BLOCK
        if local == 0:
            nb = min(RNG_BLOCK, steps - step)
            # per-chain streams drawn in blocks: identical draws regardless of
            # blocking, so chain c depends only on its own spawned seed
            normals = np.stack([g.normal(size=(nb, d)) for g in streams], axis=1)
            uniforms = np.stack([g.random(size=nb) for g in streams], axis=1)
        proposal = x + scale_col * normals[local]
        v_prop = potential_coords(P, proposal)
        accept = metropolis_accept(v_prop - v, temps, uniforms[local])
        np.copyto(x, proposal, where=accept[:, None])
        np.copyto(v, v_prop, where=accept)
        accepts += accept
        if step < n_burn:
            if (step + 1) % interval == 0:
                rates = np.add.reduceat(accepts, offsets[:-1]) / (interval * sizes)
                for k, rate in enumerate(rates):
                    scales[k] *= float(np.exp(0.6 * (float(rate) - 0.3)))
                scale_col = np.repeat(scales, sizes)[:, None]
                accepts[:] = 0
            if step + 1 == n_burn:      # kept-phase counts start from zero
                accepts[:] = 0
        else:
            kept_v[step - n_burn] = v
            if keep_samples:
                kept_x[step - n_burn] = x

    accepted = np.add.reduceat(accepts, offsets[:-1])
    results: list[GibbsResult | SamplerDiagnosticError] = []
    for k, cfg in enumerate(cfgs):
        acceptance = int(accepted[k]) / max(1, n_keep * cfg.chains)
        if not ACCEPT_HARD_LIMITS[0] <= acceptance <= ACCEPT_HARD_LIMITS[1]:
            results.append(SamplerDiagnosticError(
                f"acceptance {acceptance:.3f} outside {ACCEPT_HARD_LIMITS} after adaptation"))
            continue
        # contiguous copies: a strided column slice sums in another order
        cols = slice(offsets[k], offsets[k + 1])
        cell_v = np.ascontiguousarray(kept_v[:, cols])
        cell_x = np.ascontiguousarray(kept_x[:, cols]) if keep_samples else None
        try:
            stats = _ensemble_stats(cell_x, cell_v, ax, acceptance)
        except SamplerDiagnosticError as exc:
            results.append(exc)
            continue
        results.append(GibbsResult(stats, cell_x, cell_v, scales[k], cfg))
    return results


def _ensemble_stats(kept_x: np.ndarray | None, kept_v: np.ndarray,
                    ax: np.ndarray, acceptance: float) -> EnsembleStats:
    """Pooled statistics of one cell's kept samples."""
    d = ax.size
    if kept_x is not None:
        second = np.mean(kept_x.reshape(-1, d) ** 2, axis=0)
        m, m_err = order_parameter_series(kept_x, ax)
    else:
        second = np.zeros(d)
        m, m_err = float("nan"), float("nan")
    return EnsembleStats(
        mean_V=float(np.mean(kept_v)),
        var_V=float(np.var(kept_v)),
        order_parameter=min(max(m, 0.0), 1.0) if np.isfinite(m) else 0.0,
        order_parameter_stderr=m_err if np.isfinite(m_err) else 0.0,
        acceptance=acceptance,
        ess=_ess(kept_v),
        rhat=_split_rhat(kept_v),
        second_moments=second,
    )


def order_parameter_series(kept: np.ndarray, ax: np.ndarray
                           ) -> tuple[float, float]:
    """Order parameter plus a leave-one-chain-out jackknife standard error.

    m is the pooled ratio sum(<Im x, ax>^2) / sum(|Im x|^2).  Chains can sit
    near different roots for the whole run, so chains disagree far more than
    time blocks of the same chains do; the error bar therefore drops each
    chain in turn from both sums of the ratio.  A single chain falls back to
    N_BATCHES contiguous time blocks as the dropped groups.
    """
    n, chains, d = kept.shape
    imag = kept[..., 1:]
    proj2 = (imag @ ax[1:]) ** 2
    tot2 = np.sum(imag * imag, axis=-1)
    denom = float(np.mean(tot2))
    if denom <= 0.0:
        raise SamplerDiagnosticError("degenerate chain: zero imaginary moment")
    m = float(np.mean(proj2) / denom)
    if chains > 1:
        num, den = proj2.sum(axis=0), tot2.sum(axis=0)
    else:
        starts = np.unique(np.linspace(0, n, N_BATCHES, endpoint=False, dtype=int))
        num, den = np.add.reduceat(proj2[:, 0], starts), np.add.reduceat(tot2[:, 0], starts)
    groups = len(num)
    if groups < 2:
        return m, 0.0
    loo = (num.sum() - num) / (den.sum() - den)
    stderr = float(np.sqrt((groups - 1) / groups * np.sum((loo - loo.mean()) ** 2)))
    return m, stderr


def _ess(kept_v: np.ndarray) -> float:
    """Pooled effective sample size from per-chain autocorrelation of V."""
    n, chains = kept_v.shape
    total = 0.0
    for c in range(chains):
        series = kept_v[:, c]
        var = np.var(series)
        if var == 0:
            total += n
            continue
        centered = series - series.mean()
        tau = 1.0
        for lag in range(1, min(n // 2, 2000)):
            rho = float(np.mean(centered[: n - lag] * centered[lag:]) / var)
            if rho < 0.0:
                break
            tau += 2.0 * rho
        total += n / tau
    return float(total)


def _split_rhat(kept_v: np.ndarray) -> float:
    """Split-chain potential scale reduction on the V series."""
    n, chains = kept_v.shape
    half = n // 2
    if half < 2:
        return float("nan")
    seqs = np.concatenate([kept_v[:half], kept_v[half: 2 * half]], axis=1)
    m = seqs.shape[1]
    means = seqs.mean(axis=0)
    w = float(np.mean(seqs.var(axis=0, ddof=1)))
    b = float(half * np.var(means, ddof=1))
    if w == 0:
        return 1.0
    var_plus = (half - 1) / half * w + b / half
    return float(np.sqrt(var_plus / w))


@dataclass(frozen=True)
class EntropyEstimate:
    temperatures: np.ndarray
    alphas: np.ndarray             # Var(V)/T^2 per temperature
    alphas_mean_based: np.ndarray  # mean(V)/T cross-check
    alpha: float
    regime_warning: bool
    acceptance: np.ndarray         # sampler effort per temperature rung
    ess: np.ndarray
    rhat: np.ndarray
    proposal_scale: np.ndarray


def entropy_coefficient(P: DAPolynomial, T_ladder,
                        cfg_template: GibbsConfig | None = None,
                        seed: int = 0) -> EntropyEstimate:
    """Low-temperature entropy slope from potential fluctuations.

    Each quadratically stiff direction contributes T^2/2 to Var(V), so
    Var(V)/T^2 estimates (d - dim of root set)/2.  Per-temperature
    estimates drifting by more than 25% flag that the ladder is not yet in
    the asymptotic regime.  The whole ladder runs as one
    ``sample_gibbs_ladder`` loop; the first rung (in T order) that fails its
    sampler diagnostics raises.
    """
    temps = np.sort(np.asarray(list(T_ladder), dtype=float))
    if np.any(temps <= 0):
        raise ValueError("temperatures must be positive")
    cfgs = [replace(cfg_template or GibbsConfig(temperature=T),
                    temperature=T, seed=seed + 101 * i)
            for i, T in enumerate(temps)]
    results = sample_gibbs_ladder(P, cfgs, keep_samples=False)
    for res in results:
        if isinstance(res, SamplerDiagnosticError):
            raise res
    stats = [res.stats for res in results]
    alphas = np.array([s.var_V / T ** 2 for s, T in zip(stats, temps)])
    cross = np.array([s.mean_V / T for s, T in zip(stats, temps)])
    mean_alpha = float(np.mean(alphas))
    spread = float(np.max(alphas) - np.min(alphas))
    warning = spread > 0.25 * max(mean_alpha, 1e-300)
    return EntropyEstimate(
        temps, alphas, cross, mean_alpha, warning,
        acceptance=np.array([s.acceptance for s in stats]),
        ess=np.array([s.ess for s in stats]),
        rhat=np.array([s.rhat for s in stats]),
        proposal_scale=np.array([res.proposal_scale for res in results]))


@dataclass(frozen=True)
class PhaseCell:
    epsilon: float
    temperature: float
    m: float
    m_stderr: float
    mean_V: float
    var_V: float
    acceptance: float
    flag: str


@dataclass(frozen=True)
class PhaseDiagram:
    cells: tuple[PhaseCell, ...]

    def cell(self, eps: float, T: float) -> PhaseCell:
        for c in self.cells:
            if c.epsilon == eps and c.temperature == T:
                return c
        raise KeyError((eps, T))


def phase_diagram(D: Deformation, eps_grid, T_grid,
                  cfg_template: GibbsConfig | None = None,
                  axis: AlgebraElement | None = None,
                  seed: int = 0) -> PhaseDiagram:
    """Order-parameter sweep over an (epsilon, T) grid.

    Sampler diagnostics never abort the sweep; they mark the cell flag.
    """
    cells = []
    eps_list = list(eps_grid)
    T_list = list(T_grid)
    if not eps_list or not T_list:
        raise ValueError("grids must be nonempty")
    for i, eps in enumerate(eps_list):
        cfgs = [replace(cfg_template or GibbsConfig(temperature=float(T)),
                        temperature=float(T), seed=seed + 7919 * i + 104729 * j)
                for j, T in enumerate(T_list)]
        row = sample_gibbs_ladder(D.at(float(eps)), cfgs, axis=axis)
        for T, res in zip(T_list, row):
            if isinstance(res, SamplerDiagnosticError):
                cells.append(PhaseCell(float(eps), float(T), float("nan"),
                                       float("nan"), float("nan"), float("nan"),
                                       float("nan"), f"diagnostic: {res}"))
                continue
            s = res.stats
            cells.append(PhaseCell(float(eps), float(T), s.order_parameter,
                                   s.order_parameter_stderr, s.mean_V, s.var_V,
                                   s.acceptance, "rhat" if s.rhat > 1.2 else ""))
    return PhaseDiagram(tuple(cells))
