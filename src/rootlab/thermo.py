"""Gibbs-measure sampling over the potential landscape.

The target density is proportional to exp(-V(x)/T) with V = ||P(x)||^2.
Sampling is random-walk Metropolis in R^d with isotropic Gaussian
proposals; the scale is adapted to a target acceptance window during
burn-in and then frozen.  Chains run as a vectorized ensemble but each
consumes its own seeded stream, so results are reproducible chain by
chain.  One loop, ``sample_gibbs_ladder``, steps any number of cells over
nested algebras (each a GibbsConfig with its own T, seed, chains, run
length, burn-in and scale adaptation, and its own P, one per cell) in
lockstep, in the widest algebra's coordinates; a cell whose steps are done
leaves the stack, whose coefficient tables are then rebuilt so that a term
equal on every remaining row is shared, and ``sample_gibbs`` is the
one-cell call.  Statistics stream: a ring buffer of the states and V of
the last ``STATS_CHUNK`` steps is folded into each cell's kept phase,
which keeps running sums of the states and the whole V series (for ESS
and R-hat), so memory beyond the V series is flat in run length; raw
samples are kept only on request.  On top of the sampler: the alignment
order parameter along e_1 (and its exact value by quadrature for a P over
H with coefficients in span{1, i}), the entropy-scaling coefficient from
the potential fluctuation estimator Var(V)/T^2 (cross-checked by
mean(V)/T), whose T-ladder cells (``entropy_cells``) can share a loop
with other ladders before ``entropy_estimate`` reads them, and (epsilon,
T) phase-diagram sweeps with the whole grid in one loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .algebra import QUATERNIONS
from .manifolds import root_sets, sample_stratum
from .poly import DAPolynomial, Deformation, embed, potential_coords, stack_tables


class SamplerDiagnosticError(RuntimeError):
    """Sampler left its validity envelope (acceptance out of range, ...)."""


ACCEPT_HARD_LIMITS = (0.05, 0.8)
N_BATCHES = 20
RNG_BLOCK = 1024    # steps of random draws made per stream at a time
STATS_CHUNK = 256   # steps of states held between folds into the kept phases
ADAPT_INTERVAL = 50  # steps between proposal-scale updates during burn-in


@dataclass(frozen=True)
class GibbsConfig:
    temperature: float
    chains: int = 8
    steps: int = 20000
    burn_in: float = 0.3
    proposal_scale: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.1 <= self.burn_in <= 0.9:
            raise ValueError("burn_in fraction must lie in [0.1, 0.9]")
        if self.chains < 1 or self.steps < 10:
            raise ValueError("need at least one chain and a few steps")
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
    samples: np.ndarray | None     # (kept, chains, d), only when asked for
    v_samples: np.ndarray | None   # (kept, chains)
    proposal_scale: float
    config: GibbsConfig


def metropolis_accept(delta_v: np.ndarray, temperature: float | np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Accept rule u < min(1, exp(-delta_V / T)), vectorized.

    ``temperature`` is one T for every row or an array of per-row T.  The
    exponent is capped at 0, so exp never overflows; a large uphill step
    underflows to 0 and is rejected (even at u = 0, which a ratio clipped at
    exp(-700) would accept).
    """
    return u < np.exp(np.minimum(-np.asarray(delta_v, dtype=float) / temperature, 0.0))


def _initial_points(strata, d: int, chains: int, rng: np.random.Generator,
                    scale_hint: float) -> np.ndarray:
    """Mode-seeded starts: samples of the root-set strata, plus overdispersed."""
    anchors: list[np.ndarray] = []
    per = max(1, (chains + 1) // 2 // max(len(strata), 1))
    for s in strata:
        anchors.extend(sample_stratum(s, per, rng))
    points = np.empty((chains, d))
    for c in range(chains):
        if c % 2 == 0 and anchors:
            points[c] = anchors[(c // 2) % len(anchors)]
        else:
            points[c] = rng.normal(scale=2.0 * scale_hint, size=d)
    return points


def sample_gibbs(P: DAPolynomial, cfg: GibbsConfig,
                 keep_samples: bool = False) -> GibbsResult:
    """Random-walk Metropolis ensemble for the Gibbs measure of P.

    The one-cell call of ``sample_gibbs_ladder``.  Returns pooled
    statistics plus, when ``keep_samples`` asks for them, the raw kept
    samples.  Raises SamplerDiagnosticError when the frozen proposal scale
    fails to keep acceptance inside the hard limits.
    """
    (result,) = sample_gibbs_ladder([P], [cfg], keep_samples)
    if isinstance(result, SamplerDiagnosticError):
        raise result
    return result


def sample_gibbs_ladder(polys: Sequence[DAPolynomial], cfgs,
                        keep_samples: bool = False
                        ) -> list[GibbsResult | SamplerDiagnosticError]:
    """Several cells, each a GibbsConfig, as one Metropolis loop.

    ``polys`` holds one polynomial per cell, of the same length as
    ``cfgs``; a polynomial that several cells share (``[P] * n``) is rooted
    and embedded once.  The chains evaluate their polynomials through
    ``poly.stack_tables``, one row each.  The order parameter is read along
    e_1, so every cell is over C, H or O (a cell over R raises ValueError
    before any potential is evaluated).  The algebras of the cells nest (C
    in H in O), so the loop runs in the widest one's coordinates: a narrower
    cell's polynomial is ``poly.embed``-ded, and its chains start, draw and
    store their samples at its own width, with the padded coordinates
    exactly zero.
    The chains of all cells are stacked and step together, so the per-step
    cost is paid once per loop instead of once per cell.  Each chain still
    draws from its own spawned stream and starts where a one-cell run
    starts; each cell keeps its own T, proposal-scale adaptation, burn-in,
    run length and acceptance count.  Rows are ordered longest cell first,
    and a cell whose steps are done leaves the end of the stack.  The scale
    adapts every ``ADAPT_INTERVAL`` steps of burn-in.  Returns one
    GibbsResult per cell, in order, or the SamplerDiagnosticError of a cell
    that left its validity envelope; other cells are unaffected.

    The statistics stream: the states and V of the last ``STATS_CHUNK``
    steps sit in one ring buffer, which is folded into the kept phase
    (``_KeptPhase``) of each cell past its burn-in when it is full and at
    every step where a cell starts keeping or stops.  A kept phase keeps
    running sums of the states and the whole V series, for ESS and R-hat,
    so memory beyond it is flat in run length; with ``keep_samples`` it
    also keeps the states.  A cell's samples and V series are its own
    arrays, and the statistics are the same bits either way.

    The tables are restacked whenever cells leave, and a term whose
    coefficient is equal on every live row takes the one product a
    one-cell run takes (``poly.stack_tables``).  So a cell of two or more
    chains gives the same bits as its one-cell run when all cells share P,
    or when every coefficient of a term that differs between live rows is a
    real multiple of one basis unit (each per-row product is then one exact
    term); other stacks agree up to rounding.  A narrower cell's padded
    coordinates add exact zeros to every kernel sum, but BLAS may group a
    sum of 8 terms otherwise than its nonzero terms alone: on OpenBLAS an H
    cell in an O loop matches its one-cell run bit for bit, and a C cell
    agrees to rounding (the tests pin both).  A one-chain cell batched with
    other chains need not match: the polynomial kernel rounds a one-row
    batch otherwise than the same row in a wider one.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one cell")
    polys = list(polys)
    if len(polys) != len(cfgs):
        raise ValueError(f"{len(polys)} polynomials for {len(cfgs)} cells")
    for p in polys:
        if p.tag.dimension < 2:
            raise ValueError(f"a cell over {p.tag} has no axis e_1 for the order parameter")
    tag = max((p.tag for p in polys), key=lambda t: t.dimension)
    d = tag.dimension
    ax = np.eye(d)[1]
    order = sorted(range(len(cfgs)), key=lambda k: -cfgs[k].steps)   # longest cell first
    cells = [cfgs[k] for k in order]
    widths = [polys[k].tag.dimension for k in order]
    sizes = np.array([c.chains for c in cells])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ends = np.array([c.steps for c in cells])
    n_burn = np.array([int(c.burn_in * c.steps) for c in cells])
    row_burn = np.repeat(n_burn, sizes)
    row_width = np.repeat(widths, sizes)
    # the strata of every distinct polynomial of degree >= 1, in one call
    rooted = {id(p): p for p in polys if p.degree >= 1}
    strata = {key: rs.strata for key, rs in zip(rooted, root_sets(rooted.values()))}
    streams, scales = [], []
    x = np.zeros((offsets[-1], d))
    for k, lo, w in zip(order, offsets, widths):
        c, p = cfgs[k], polys[k]
        seeds = np.random.SeedSequence(c.seed).spawn(c.chains + 1)
        streams.extend(np.random.default_rng(s) for s in seeds[:-1])
        scale = (c.proposal_scale if c.proposal_scale is not None
                 else float(np.sqrt(c.temperature)))
        x[lo:lo + c.chains, :w] = _initial_points(
            strata.get(id(p), ()), w, c.chains, np.random.default_rng(seeds[-1]),
            max(1.0, scale))
        scales.append(scale)
    scales = np.array(scales)
    wide = {id(p): embed(p, tag) for p in polys}
    row_polys = [wide[id(polys[k])] for k in order for _ in range(cfgs[k].chains)]
    tables = stack_tables(row_polys)
    v = potential_coords(tables, x)
    temps = np.repeat([c.temperature for c in cells], sizes)
    scale_col = np.repeat(scales, sizes)[:, None]

    phases = [_KeptPhase(int(ends[k] - n_burn[k]), int(sizes[k]), ax[:widths[k]],
                         keep_samples) for k in range(len(cells))]
    # states and V since the last fold
    ring = np.empty((min(STATS_CHUNK, int(ends[0])), len(x), d))
    ring_v = np.empty(ring.shape[:2])
    filled = 0
    # per-row draw blocks; a narrower row's padded coordinates stay zero
    normals = np.zeros((min(RNG_BLOCK, int(ends[0])), len(x), d))
    uniforms = np.empty(normals.shape[:2])

    def fold(first: int) -> None:
        """Fold the ring's steps [first, first + filled) into the kept phase
        of every cell then keeping."""
        for k, (lo, hi, w) in enumerate(zip(offsets, offsets[1:], widths)):
            if n_burn[k] <= first < ends[k]:
                phases[k].fold(ring[:filled, lo:hi, :w], ring_v[:filled, lo:hi])

    accepts = np.zeros(len(x), dtype=np.int64)   # per chain, since the last reset
    acc = accepts
    live = len(cells)
    events = {0} | set(ends.tolist()) | set(n_burn.tolist())

    for step in range(int(ends[0])):
        if filled == len(ring) or (filled and step in events):
            fold(step - filled)
            filled = 0
        if step in events:
            while ends[live - 1] == step:           # finished cells leave the stack
                live -= 1
            n = offsets[live]
            if n < len(x):                          # restack: terms may now be shared
                tables = stack_tables(row_polys[:n])
            x, v, temps, scale_col, acc = x[:n], v[:n], temps[:n], scale_col[:n], acc[:n]
            acc[row_burn[:n] == step] = 0           # kept-phase counts start from zero
            adapt_until = n_burn[:live].max()
            keeping = n_burn[:live].min() <= step   # some live cell is past its burn-in
        local = step % RNG_BLOCK
        if local == 0:
            # per-chain streams drawn in blocks of the cell's remaining length,
            # at the cell's width: identical draws regardless of blocking, so
            # chain c depends only on its own spawned seed
            nb_row = np.minimum(RNG_BLOCK, np.repeat(ends[:live], sizes[:live]) - step)
            for r, nb in enumerate(nb_row):
                normals[:nb, r, :row_width[r]] = streams[r].normal(size=(nb, row_width[r]))
                uniforms[:nb, r] = streams[r].random(size=nb)
        proposal = x + scale_col * normals[local, :n]
        v_prop = potential_coords(tables, proposal)
        accept = metropolis_accept(v_prop - v, temps, uniforms[local, :n])
        np.copyto(x, proposal, where=accept[:, None])
        np.copyto(v, v_prop, where=accept)
        acc += accept
        if step < adapt_until and (step + 1) % ADAPT_INTERVAL == 0:
            adapting = step < n_burn[:live]
            rates = np.add.reduceat(acc, offsets[:live]) / (ADAPT_INTERVAL * sizes[:live])
            scales[:live][adapting] *= np.exp(0.6 * (rates[adapting] - 0.3))
            scale_col = np.repeat(scales[:live], sizes[:live])[:, None]
            acc[step < row_burn[:n]] = 0
        if keeping:
            ring[filled, :n], ring_v[filled, :n] = x, v
            filled += 1
    fold(int(ends[0]) - filled)
    del ring, ring_v, normals, uniforms     # freed before the statistics below

    accepted = np.add.reduceat(accepts, offsets[:-1])
    results: list[GibbsResult | SamplerDiagnosticError | None] = [None] * len(cells)
    for k, (cfg, phase) in enumerate(zip(cells, phases)):
        acceptance = int(accepted[k]) / phase.v.size
        if not ACCEPT_HARD_LIMITS[0] <= acceptance <= ACCEPT_HARD_LIMITS[1]:
            results[order[k]] = SamplerDiagnosticError(
                f"acceptance {acceptance:.3f} outside {ACCEPT_HARD_LIMITS} after adaptation")
            continue
        try:
            stats = _ensemble_stats(phase, acceptance)
        except SamplerDiagnosticError as exc:
            results[order[k]] = exc
            continue
        results[order[k]] = GibbsResult(stats, phase.samples, phase.v, float(scales[k]), cfg)
    return results


def _ensemble_stats(phase: _KeptPhase, acceptance: float) -> EnsembleStats:
    """Pooled statistics of one cell's kept phase."""
    m, m_err = phase.order_parameter()
    return EnsembleStats(
        mean_V=float(np.mean(phase.v)),
        var_V=float(np.var(phase.v)),
        order_parameter=min(max(m, 0.0), 1.0) if np.isfinite(m) else 0.0,
        order_parameter_stderr=m_err if np.isfinite(m_err) else 0.0,
        acceptance=acceptance,
        ess=_ess(phase.v),
        rhat=_split_rhat(phase.v),
        second_moments=phase.second_moments(),
    )


def _add_rows(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total plus every row of ``rows``, one row at a time in order: an
    axis-0 sum adds row by row, so a series summed in chunks, each with the
    running total as its first row, has the bits of its one-shot sum."""
    block = np.empty((1 + len(rows),) + total.shape)
    block[0] = total
    block[1:] = rows
    return np.add.reduce(block, axis=0)


class _KeptPhase:
    """One cell's kept phase, folded in time order: its V series ``v``
    (kept, chains), its samples (kept, chains, d) when ``keep_samples`` asks
    for them, and running sums of the samples.

    Per coordinate, the sum of x^2; per jackknife group, the sums of
    <Im x, ax>^2 and of |Im x|^2.  The groups are the chains, or for a single
    chain N_BATCHES contiguous time blocks: the steps of an unfinished block
    wait in a buffer of one block's length, so that each block is summed as
    one series.  Any split of the steps into folds gives the same bits.
    """

    def __init__(self, steps: int, chains: int, ax: np.ndarray,
                 keep_samples: bool = False):
        self.chains, self.ax = chains, ax
        self.count = 0
        self.v = np.empty((steps, chains))
        self.samples = np.empty((steps, chains, ax.size)) if keep_samples else None
        self.second = np.zeros(ax.size)
        if chains > 1:
            n_groups = chains
        else:
            self.starts = np.unique(np.linspace(0, steps, N_BATCHES, endpoint=False,
                                                dtype=int))
            self.stops = np.append(self.starts[1:], steps)
            self.pending = np.empty((2, int(np.max(self.stops - self.starts))))
            n_groups = len(self.starts)
        self.num, self.den = np.zeros(n_groups), np.zeros(n_groups)

    def fold(self, kept: np.ndarray, v: np.ndarray | float) -> None:
        """Add the next kept steps: their states, a (steps, chains, d) array,
        and their V, (steps, chains)."""
        k, chains, d = kept.shape
        self.v[self.count:self.count + k] = v
        if self.samples is not None:
            self.samples[self.count:self.count + k] = kept
        square = np.square(kept)
        self.second = _add_rows(self.second, square.reshape(-1, d))
        proj2 = (kept[..., 1:] @ self.ax[1:]) ** 2
        # |Im x|^2 summed left to right, as np.sum adds fewer than 8 terms,
        # one column at a time instead of one call per row
        tot2 = square[..., 1]
        for j in range(2, d):
            tot2 = tot2 + square[..., j]
        if chains > 1:
            self.num = _add_rows(self.num, proj2)
            self.den = _add_rows(self.den, tot2)
        else:
            self._fold_blocks(proj2[:, 0], tot2[:, 0])
        self.count += k

    def _fold_blocks(self, proj2: np.ndarray, tot2: np.ndarray) -> None:
        at = self.count
        while proj2.size:
            g = int(np.searchsorted(self.stops, at, side="right"))   # the block holding step at
            lo, hi = self.starts[g], self.stops[g]
            take = min(proj2.size, hi - at)
            self.pending[:, at - lo:at - lo + take] = proj2[:take], tot2[:take]
            at += take
            proj2, tot2 = proj2[take:], tot2[take:]
            if at == hi:                # the block is whole: sum it as one series
                self.num[g], self.den[g] = np.add.reduceat(
                    self.pending[:, :hi - lo], [0], axis=1)[:, 0]

    def second_moments(self) -> np.ndarray:
        return self.second / (self.count * self.chains)

    def order_parameter(self) -> tuple[float, float]:
        """m = sum(num) / sum(den) and its leave-one-group-out jackknife error."""
        num, den = self.num, self.den
        total = den.sum()
        if total <= 0.0:
            raise SamplerDiagnosticError("degenerate chain: zero imaginary moment")
        m = float(num.sum() / total)
        groups = len(num)
        if groups < 2:
            return m, 0.0
        loo = (num.sum() - num) / (total - den)
        return m, float(np.sqrt((groups - 1) / groups * np.sum((loo - loo.mean()) ** 2)))


def order_parameter_quadrature(P: DAPolynomial, T: float, nodes: int) -> float:
    """<x1^2> / <|Im x|^2> under exp(-V/T), by tensor Gauss-Legendre.

    The exact counterpart of the sampler's order parameter along i, for a
    P over H whose coefficients lie in span{1, i}: V is then invariant
    under conjugation by e^{i theta}, which rotates the (x2, x3) plane, so
    the angle integrates out and leaves (x0, x1, rho) with weight rho.
    ``nodes`` Gauss-Legendre nodes per axis cover x0 and x1 in
    [-4 T^(1/4), 4 T^(1/4)] and rho in [0, 4 T^(1/4)]; the weight at the
    box edge is below 1e-14 for c11's restored cell.  One x0 slab is
    evaluated at a time, with the Boltzmann factors taken relative to the
    smallest V seen so far, so memory stays flat in ``nodes``.  Raises
    ValueError for any other P.
    """
    from numpy.polynomial.legendre import leggauss

    if P.tag != QUATERNIONS or any(np.any(c.coords[2:]) for c in P.coefficients):
        raise ValueError("the quadrature needs a P over H with coefficients in span{1, i}")
    half = 4.0 * T ** 0.25
    t, w = leggauss(nodes)
    x, wx = half * t, half * w
    rho = 0.5 * half * (t + 1.0)
    wrho = 0.5 * half * w * rho
    X1, R = np.meshgrid(x, rho, indexing="ij")
    slab = np.stack([np.zeros_like(R), X1, R, np.zeros_like(R)], axis=-1)
    low, num, den = np.inf, 0.0, 0.0
    for x0, w0 in zip(x, wx):
        slab[..., 0] = x0
        V = potential_coords(P, slab)
        v_min = float(V.min())
        if v_min < low:                 # rescale the sums to the new minimum
            shift = np.exp((v_min - low) / T)
            num, den, low = num * shift, den * shift, v_min
        g = (w0 * wx)[:, None] * wrho[None, :] * np.exp(-(V - low) / T)
        num += float(np.sum(g * X1 ** 2))
        den += float(np.sum(g * (X1 ** 2 + R ** 2)))
    return num / den


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


def entropy_cells(T_ladder, cfg_template: GibbsConfig | None = None,
                  seed: int = 0) -> tuple[np.ndarray, list[GibbsConfig]]:
    """The sorted T-ladder and one GibbsConfig per rung, for one ladder run."""
    temps = np.sort(np.asarray(list(T_ladder), dtype=float))
    if np.any(temps <= 0):
        raise ValueError("temperatures must be positive")
    cfgs = [replace(cfg_template or GibbsConfig(temperature=T),
                    temperature=T, seed=seed + 101 * i)
            for i, T in enumerate(temps)]
    return temps, cfgs


def entropy_estimate(temps: np.ndarray, results) -> EntropyEstimate:
    """Entropy slope from one ladder's results (``entropy_cells`` order).

    Each quadratically stiff direction contributes T^2/2 to Var(V), so
    Var(V)/T^2 estimates (d - dim of root set)/2.  Per-temperature
    estimates drifting by more than 25% flag that the ladder is not yet in
    the asymptotic regime.  The first rung (in T order) that failed its
    sampler diagnostics raises.
    """
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


def entropy_coefficient(P: DAPolynomial, T_ladder,
                        cfg_template: GibbsConfig | None = None,
                        seed: int = 0) -> EntropyEstimate:
    """Low-temperature entropy slope of P, its whole T-ladder in one loop."""
    temps, cfgs = entropy_cells(T_ladder, cfg_template, seed)
    return entropy_estimate(temps, sample_gibbs_ladder([P] * len(cfgs), cfgs))


@dataclass(frozen=True)
class PhaseCell:
    epsilon: float
    temperature: float
    m: float
    m_stderr: float
    mean_V: float
    var_V: float
    acceptance: float
    ess: float
    rhat: float
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
                  seed: int = 0) -> PhaseDiagram:
    """Order-parameter sweep over an (epsilon, T) grid, as one Metropolis loop.

    Sampler diagnostics never abort the sweep; they mark the cell flag.
    """
    eps_list = [float(e) for e in eps_grid]
    T_list = [float(T) for T in T_grid]
    if not eps_list or not T_list:
        raise ValueError("grids must be nonempty")
    rows = [D.at(eps) for eps in eps_list]
    grid = [(i, j) for i in range(len(eps_list)) for j in range(len(T_list))]
    cfgs = [replace(cfg_template or GibbsConfig(temperature=T_list[j]),
                    temperature=T_list[j], seed=seed + 7919 * i + 104729 * j)
            for i, j in grid]
    results = sample_gibbs_ladder([rows[i] for i, _ in grid], cfgs)
    cells = []
    for (i, j), res in zip(grid, results):
        eps, T = eps_list[i], T_list[j]
        if isinstance(res, SamplerDiagnosticError):
            cells.append(PhaseCell(eps, T, *[float("nan")] * 7, f"diagnostic: {res}"))
            continue
        s = res.stats
        cells.append(PhaseCell(eps, T, s.order_parameter, s.order_parameter_stderr,
                               s.mean_V, s.var_V, s.acceptance, s.ess, s.rhat,
                               "rhat" if s.rhat > 1.2 else ""))
    return PhaseDiagram(tuple(cells))
