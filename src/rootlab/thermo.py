"""Gibbs-measure sampling over the potential landscape.

The target density is proportional to exp(-V(x)/T) with V = ||P(x)||^2.
Sampling is random-walk Metropolis in R^d with isotropic Gaussian
proposals; the scale is adapted to a target acceptance window during
burn-in and then frozen.  Chains run as a vectorized ensemble but each
consumes its own seeded stream, so results are reproducible chain by
chain.  On top of the sampler: the alignment order parameter along an
imaginary axis, the entropy-scaling coefficient from the potential
fluctuation estimator Var(V)/T^2 (cross-checked by mean(V)/T), and
(epsilon, T) phase-diagram sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement
from .manifolds import central_root_set, sample_stratum
from .poly import DAPolynomial, Deformation, potential_coords


class SamplerDiagnosticError(RuntimeError):
    """Sampler left its validity envelope (acceptance out of range, ...)."""


ACCEPT_WINDOW = (0.2, 0.5)
ACCEPT_HARD_LIMITS = (0.05, 0.8)
N_BATCHES = 20


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

    def replace(self, **kw) -> "GibbsConfig":
        data = {
            "temperature": self.temperature,
            "chains": self.chains,
            "steps": self.steps,
            "burn_in": self.burn_in,
            "proposal_scale": self.proposal_scale,
            "seed": self.seed,
            "adapt_interval": self.adapt_interval,
        }
        data.update(kw)
        return GibbsConfig(**data)


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


def metropolis_accept(delta_v: np.ndarray, temperature: float,
                      u: np.ndarray) -> np.ndarray:
    """Accept rule u < min(1, exp(-delta_V / T)), vectorized."""
    dv = np.asarray(delta_v, dtype=float)
    ratio = np.exp(-np.clip(dv / temperature, -700.0, 700.0))
    return np.asarray(u) < np.minimum(1.0, ratio)


def _initial_points(P: DAPolynomial, chains: int, rng: np.random.Generator,
                    scale_hint: float) -> np.ndarray:
    """Mode-seeded starts: strata samples or attractors, plus overdispersed."""
    d = P.tag.dimension
    anchors: list[np.ndarray] = []
    if P.is_central and not P.is_zero and P.degree >= 1:
        strata = central_root_set(P).strata
        per = max(1, (chains + 1) // 2 // max(len(strata), 1))
        for s in strata:
            anchors.extend(p.coords for p in sample_stratum(s, per, rng))
    else:
        from . import flow as _flow
        attractors = _flow.find_attractors(P, 8, seed=int(rng.integers(2 ** 31)))
        anchors.extend(a.coords for a in attractors)
    points = np.empty((chains, d))
    for c in range(chains):
        if c % 2 == 0 and anchors:
            points[c] = anchors[(c // 2) % len(anchors)]
        else:
            points[c] = rng.normal(scale=2.0 * scale_hint, size=d)
    return points


def sample_gibbs(P: DAPolynomial, cfg: GibbsConfig,
                 axis: AlgebraElement | None = None,
                 keep_samples: bool = True) -> GibbsResult:
    """Random-walk Metropolis ensemble for the Gibbs measure of P.

    Returns pooled statistics plus (optionally) the raw kept samples.
    Raises SamplerDiagnosticError when the frozen proposal scale fails to
    keep acceptance inside the hard limits.
    """
    d = P.tag.dimension
    T = cfg.temperature
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(cfg.seed).spawn(cfg.chains)]
    init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(cfg.chains + 1)[-1])
    scale = cfg.proposal_scale or float(np.sqrt(T))
    x = _initial_points(P, cfg.chains, init_rng, max(1.0, scale))
    v = potential_coords(P, x)

    n_burn = int(cfg.burn_in * cfg.steps)
    n_keep = cfg.steps - n_burn
    kept_x = np.empty((n_keep, cfg.chains, d)) if keep_samples else None
    kept_v = np.empty((n_keep, cfg.chains))
    accepted_post = 0
    block_accepts = 0
    block_count = 0

    rng_block = 1024
    for block_start in range(0, cfg.steps, rng_block):
        nb = min(rng_block, cfg.steps - block_start)
        # per-chain streams drawn in blocks: identical draws regardless of
        # blocking, so chain c depends only on its own spawned seed
        normals = np.stack([g.normal(size=(nb, d)) for g in streams], axis=1)
        uniforms = np.stack([g.random(size=nb) for g in streams], axis=1)
        for local in range(nb):
            step = block_start + local
            proposal = x + scale * normals[local]
            v_prop = potential_coords(P, proposal)
            accept = metropolis_accept(v_prop - v, T, uniforms[local])
            x[accept] = proposal[accept]
            v[accept] = v_prop[accept]
            n_acc = int(np.sum(accept))
            if step < n_burn:
                block_accepts += n_acc
                block_count += cfg.chains
                if (step + 1) % cfg.adapt_interval == 0:
                    rate = block_accepts / block_count
                    scale *= float(np.exp(0.6 * (rate - 0.3)))
                    block_accepts = 0
                    block_count = 0
            else:
                i = step - n_burn
                accepted_post += n_acc
                kept_v[i] = v
                if keep_samples:
                    kept_x[i] = x

    acceptance = accepted_post / max(1, n_keep * cfg.chains)
    if not ACCEPT_HARD_LIMITS[0] <= acceptance <= ACCEPT_HARD_LIMITS[1]:
        raise SamplerDiagnosticError(
            f"acceptance {acceptance:.3f} outside {ACCEPT_HARD_LIMITS} after adaptation"
        )
    if axis is None:
        ax = np.zeros(d)
        ax[1] = 1.0
    else:
        if abs(axis.real) > 1e-9 or abs(axis.norm() - 1.0) > 1e-9:
            raise ValueError("axis must be a unit imaginary element")
        ax = axis.coords.copy()

    pooled = kept_x.reshape(-1, d) if keep_samples else None
    mean_v = float(np.mean(kept_v))
    var_v = float(np.var(kept_v))
    second = (np.mean(pooled ** 2, axis=0) if pooled is not None
              else np.zeros(d))
    if keep_samples:
        m, m_err = order_parameter_series(kept_x, ax)
    else:
        m, m_err = float("nan"), float("nan")
    stats = EnsembleStats(
        mean_V=mean_v,
        var_V=var_v,
        order_parameter=min(max(m, 0.0), 1.0) if np.isfinite(m) else 0.0,
        order_parameter_stderr=m_err if np.isfinite(m_err) else 0.0,
        acceptance=acceptance,
        ess=_ess(kept_v),
        rhat=_split_rhat(kept_v),
        second_moments=second,
    )
    return GibbsResult(stats, kept_x, kept_v, scale, cfg)


def order_parameter(samples: np.ndarray, axis: AlgebraElement) -> float:
    """Mean squared axis alignment over flat samples (n, d)."""
    if abs(axis.real) > 1e-9 or abs(axis.norm() - 1.0) > 1e-9:
        raise ValueError("axis must be a unit imaginary element")
    flat = np.asarray(samples, dtype=float).reshape(-1, axis.tag.dimension)
    imag = flat[:, 1:]
    proj = imag @ axis.coords[1:]
    denom = float(np.mean(np.sum(imag * imag, axis=1)))
    if denom <= 0.0:
        raise SamplerDiagnosticError("degenerate chain: zero imaginary moment")
    return float(np.mean(proj ** 2) / denom)


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


def entropy_coefficient(P: DAPolynomial, T_ladder,
                        cfg_template: GibbsConfig | None = None,
                        seed: int = 0) -> EntropyEstimate:
    """Low-temperature entropy slope from potential fluctuations.

    Each quadratically stiff direction contributes T^2/2 to Var(V), so
    Var(V)/T^2 estimates (d - dim of root set)/2.  Per-temperature
    estimates drifting by more than 25% flag that the ladder is not yet in
    the asymptotic regime.
    """
    temps = np.sort(np.asarray(list(T_ladder), dtype=float))
    if np.any(temps <= 0):
        raise ValueError("temperatures must be positive")
    alphas = []
    cross = []
    for i, T in enumerate(temps):
        cfg = (cfg_template or GibbsConfig(temperature=T)).replace(
            temperature=T, seed=seed + 101 * i)
        res = sample_gibbs(P, cfg, keep_samples=False)
        alphas.append(res.stats.var_V / T ** 2)
        cross.append(res.stats.mean_V / T)
    alphas = np.asarray(alphas)
    cross = np.asarray(cross)
    mean_alpha = float(np.mean(alphas))
    spread = float(np.max(alphas) - np.min(alphas))
    warning = spread > 0.25 * max(mean_alpha, 1e-300)
    return EntropyEstimate(temps, alphas, cross, mean_alpha, warning)


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
        P = D.at(float(eps))
        for j, T in enumerate(T_list):
            cfg = (cfg_template or GibbsConfig(temperature=float(T))).replace(
                temperature=float(T), seed=seed + 7919 * i + 104729 * j)
            flag = ""
            try:
                res = sample_gibbs(P, cfg, axis=axis)
                s = res.stats
                if s.rhat > 1.2:
                    flag = "rhat"
                cells.append(PhaseCell(float(eps), float(T), s.order_parameter,
                                       s.order_parameter_stderr, s.mean_V,
                                       s.var_V, s.acceptance, flag))
            except SamplerDiagnosticError as exc:
                cells.append(PhaseCell(float(eps), float(T), float("nan"),
                                       float("nan"), float("nan"), float("nan"),
                                       float("nan"), f"diagnostic: {exc}"))
    return PhaseDiagram(tuple(cells))
