"""Configuration of the DMine miner."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import MiningError
from repro.parallel.executor import BACKENDS


@dataclass(frozen=True)
class DMineConfig:
    """Parameters of a DMine run.

    Attributes
    ----------
    k:
        Size of the diversified top-k set to return.
    d:
        Maximum radius ``r(PR, x)`` of mined rule patterns.
    sigma:
        Minimum global support ``supp(R, G) >= sigma``.
    lam:
        Diversification balance λ ∈ [0, 1] (paper default 0.5).
    num_workers:
        Number of fragments / workers n.
    max_edges:
        Maximum number of antecedent edges (bounds the levelwise growth; the
        paper bounds growth by radius only, but unbounded edge growth is not
        meaningful on dense graphs).
    max_rounds:
        Number of levelwise rounds; defaults to *max_edges* (one edge is
        added per round per surviving rule).
    max_extensions_per_rule:
        Cap on the number of distinct extensions a worker proposes for one
        rule in one round (most-frequent extensions are kept).
    max_rules_per_round:
        Beam width: at most this many extendable rules are carried into the
        next round's message set M (highest optimistic confidence first).
        The paper reports "up to 300 patterns" being verified; this knob
        keeps the levelwise search within the same order of magnitude.
    matcher:
        ``"vf2"`` (plain backtracking, the default — DMine's optimisations
        are orthogonal to the matcher) or ``"guided"`` (sketch-guided
        search, mainly useful on graphs with very skewed label frequencies).
    use_index:
        Serve matcher probes — label-bucket candidate pools, the profile
        filter (interned-label profile matrix, vectorized when numpy is
        available), adjacency views and sketches — from each fragment's
        resident :class:`repro.graph.index.FragmentIndex` (built in the
        worker-pool initializer on the process backend).  ``False`` is the
        raw-graph reference path that re-derives everything per probe; both
        settings mine identical rules (see docs/indexing.md).
    use_incremental:
        Delta-extend matches across DMine levels: each fragment materializes
        the match sets and witness embeddings of the rules it evaluates in a
        resident :class:`repro.matching.incremental.MatchStore`, and the
        next level's candidates (parent + one edge) are matched by probing
        only the new edge's endpoints, with exact fallback to full matching
        on any store miss.  ``False`` re-matches every candidate from
        scratch; both settings mine identical rules (see
        docs/incremental.md).
    use_incremental_diversification:
        incDiv on/off — off means "discover then diversify" at the end.
    use_reduction_rules:
        The message-reduction rules of Lemma 3 on/off.
    use_bisimulation_filter:
        Bisimulation prefilter before exact automorphism checks on/off.
    seed:
        Seed for partitioning tie-breaks.
    backend:
        Execution backend: ``"sequential"`` (default), ``"threads"`` or
        ``"processes"`` (real multi-core parallelism via a persistent
        worker pool).  All backends produce identical rule sets.
    executor_workers:
        Pool size for the thread/process backends; ``None`` sizes the pool
        to ``min(num_workers, cpu_count)``.
    """

    k: int = 10
    d: int = 2
    sigma: int = 1
    lam: float = 0.5
    num_workers: int = 4
    max_edges: int = 4
    max_rounds: int | None = None
    max_extensions_per_rule: int = 30
    max_rules_per_round: int = 60
    matcher: str = "vf2"
    use_index: bool = True
    use_incremental: bool = True
    use_incremental_diversification: bool = True
    use_reduction_rules: bool = True
    use_bisimulation_filter: bool = True
    seed: int = 0
    backend: str = "sequential"
    executor_workers: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise MiningError(f"k must be >= 1, got {self.k}")
        if self.d < 1:
            raise MiningError(f"d must be >= 1, got {self.d}")
        if self.sigma < 0:
            raise MiningError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.lam <= 1.0:
            raise MiningError(f"lambda must be in [0, 1], got {self.lam}")
        if self.num_workers < 1:
            raise MiningError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_edges < 1:
            raise MiningError(f"max_edges must be >= 1, got {self.max_edges}")
        if self.max_rules_per_round < 1:
            raise MiningError(
                f"max_rules_per_round must be >= 1, got {self.max_rules_per_round}"
            )
        if self.matcher not in ("guided", "vf2"):
            raise MiningError(f"matcher must be 'guided' or 'vf2', got {self.matcher!r}")
        if self.backend not in BACKENDS:
            raise MiningError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.executor_workers is not None and self.executor_workers < 1:
            raise MiningError(
                f"executor_workers must be >= 1, got {self.executor_workers}"
            )

    @property
    def rounds(self) -> int:
        """Number of levelwise rounds to run."""
        return self.max_rounds if self.max_rounds is not None else self.max_edges

    def without_optimizations(self) -> "DMineConfig":
        """The DMineno variant: identical search, all optimisations off."""
        return DMineConfig(
            k=self.k,
            d=self.d,
            sigma=self.sigma,
            lam=self.lam,
            num_workers=self.num_workers,
            max_edges=self.max_edges,
            max_rounds=self.max_rounds,
            max_extensions_per_rule=self.max_extensions_per_rule,
            max_rules_per_round=self.max_rules_per_round,
            matcher="vf2",
            # The index, like the incremental materialization, is an
            # implementation-level representation choice, not one of the
            # paper's mining optimisations — DMineno keeps whatever the
            # caller chose.
            use_index=self.use_index,
            use_incremental=self.use_incremental,
            use_incremental_diversification=False,
            use_reduction_rules=False,
            use_bisimulation_filter=False,
            seed=self.seed,
            backend=self.backend,
            executor_workers=self.executor_workers,
        )
