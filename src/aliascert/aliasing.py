"""Aliasing runs and the differential harness.

`run_aliased` runs a program under the salted-word model of `_engine`;
`diff_runs` sweeps seeds and reports every aliased run that differs
from the clean run in a fault, an error, the output or a final
register.  The interpreter in `_engine` states how a sweep
settles its seeds from one symbolic run and when that run is also the
clean run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import Program
from .machine import DEFAULT_FUEL, RunOutcome


def build_image(program: Program):
    """`_engine.build_image`, imported on the first run, so that commands
    which run no program never load the interpreter."""
    from . import _engine

    return _engine.build_image(program)


@dataclass(frozen=True)
class AliasConfig:
    seed: int = 0


def run_aliased(program: Program, cfg: AliasConfig = AliasConfig(),
                fuel: int = DEFAULT_FUEL) -> RunOutcome:
    """Run under the aliasing model; the fault log records reads that hit
    an arithmetically matching but differently calculated cell."""
    from . import _engine

    image = build_image(program)
    return _engine.run_alias_image(image, fuel, cfg.seed)


@dataclass
class Divergence:
    seed: int
    reason: str


@dataclass
class DiffReport:
    seeds: int
    clean: RunOutcome
    divergences: list[Divergence]
    # how the sweep settled its seeds, kept out of equality: the words
    # the per-seed check covered (0 when the symbolic run stood for every
    # run), the seeds that ran the seeded loop, and the step the clean run
    # was resumed at (None when the symbolic run stood for it)
    checked_words: int = field(default=0, compare=False)
    seeded_runs: int = field(default=0, compare=False)
    resumed_at: int | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return not self.divergences


def compare_runs(clean: RunOutcome, aliased: RunOutcome, seed: int) -> Divergence | None:
    """First observable difference between a clean and an aliased run."""
    if aliased.faults:
        return Divergence(seed, f"{aliased.faults[0]}")
    if clean.error != aliased.error:
        return Divergence(seed, f"error {aliased.error!r} vs clean {clean.error!r}")
    if clean.output != aliased.output:
        return Divergence(seed, f"output {aliased.output!r} vs clean {clean.output!r}")
    for r in range(32):
        if clean.regs[r] != aliased.regs[r]:
            return Divergence(
                seed, f"register {r} ends 0x{aliased.regs[r]:08x} vs clean 0x{clean.regs[r]:08x}")
    return None


def diff_runs(program: Program, seeds: int = 100, fuel: int = DEFAULT_FUEL) -> DiffReport:
    """Clean-vs-aliased sweep over seeds 1 to ``seeds`` (at least 1) with
    ``fuel`` (at least 1) steps a run; the clean run must complete
    without error."""
    from . import _engine

    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    image = build_image(program)
    symbolic = _engine.run_symbolic_image(image, fuel)
    clean = _engine.clean_outcome(image, fuel, symbolic)
    if not clean.ok:
        raise ValueError(f"clean run fails ({clean.error} at pc="
                         f"{clean.error_pc:#x}); nothing to compare against")
    if not symbolic.mixed:  # the symbolic run is the clean run and every seed's
        return DiffReport(seeds=seeds, clean=clean, divergences=[])
    divergences = []
    seeded_runs = 0
    for seed in range(1, seeds + 1):
        aliased = _engine.run_alias_image(image, fuel, seed, symbolic)
        seeded_runs += aliased is not symbolic.outcome
        d = compare_runs(clean, aliased, seed)
        if d is not None:
            divergences.append(d)
    return DiffReport(seeds=seeds, clean=clean, divergences=divergences,
                      checked_words=len(symbolic.mixed), seeded_runs=seeded_runs,
                      resumed_at=None if symbolic.start is None else symbolic.start.steps)
