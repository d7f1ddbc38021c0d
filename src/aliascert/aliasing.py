"""Aliasing runs and the differential harness.

`run_aliased` runs a program under the salted-word model of `_salt`;
`diff_runs` sweeps seeds and reports every aliased run that differs
from the clean run in a fault, an error, the output, the halt, or a
final register.  A sweep is one symbolic run under calculation ids and
per seed one check that the seed's tags do not collide where memory
would see it; only a seed that fails the check is run on the seeded
loop (`_engine`).  The symbolic run stands for the clean run too when
every word is keyed by one calculation and every blob is initialized,
even when it fails: it then fails at the step the clean run fails.  A
clean run is added only when a word has two calculations, since a store
through one of them fills another cell than a load through the other
reads, or when a blob is ``noinit``, since the clean machine preloads it
and the aliasing machine does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import Program
from .machine import build_image
from .simdefs import (
    DEFAULT_FUEL,
    DeviceConfig,
    RunOutcome,
)


@dataclass(frozen=True)
class AliasConfig:
    seed: int = 0
    device: DeviceConfig = DeviceConfig()


def run_aliased(program: Program, cfg: AliasConfig = AliasConfig(),
                fuel: int = DEFAULT_FUEL, entry: str | None = None) -> RunOutcome:
    """Run under the aliasing model; the fault log records reads that hit
    an arithmetically matching but differently calculated cell."""
    from ._engine import run_alias_image

    image = build_image(program, entry, cfg.device)
    return run_alias_image(image, fuel, cfg.seed)


@dataclass
class Divergence:
    seed: int
    reason: str


@dataclass
class DiffReport:
    seeds: int
    clean: RunOutcome
    divergences: list[Divergence]

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
    if clean.halted != aliased.halted:
        return Divergence(seed, f"halted={aliased.halted} vs clean {clean.halted}")
    for r in range(32):
        if clean.regs[r] != aliased.regs[r]:
            return Divergence(
                seed, f"register {r} ends 0x{aliased.regs[r]:08x} vs clean 0x{clean.regs[r]:08x}")
    return None


def diff_runs(program: Program, seeds: int = 100, fuel: int = DEFAULT_FUEL,
              entry: str | None = None,
              device: DeviceConfig = DeviceConfig()) -> DiffReport:
    """Clean-vs-aliased sweep over seeds 1 to ``seeds`` (at least 1) with
    ``fuel`` (at least 1) steps a run; the clean run must complete
    without error."""
    from ._engine import run_alias_image, run_clean_image, run_symbolic_image

    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    image = build_image(program, entry, device)
    symbolic = run_symbolic_image(image, fuel)
    # with one calculation per word every load reads the cell the clean
    # machine reads, unless the clean machine preloaded a `noinit` blob;
    # no alias fault can occur, so a failed run fails as the clean one does
    if not symbolic.groups and all(b[3] for b in image.blobs):
        clean = symbolic.outcome
    else:
        clean = run_clean_image(image, fuel)
    if not clean.ok:
        raise ValueError(f"clean run fails ({clean.error} at pc="
                         f"{clean.error_pc:#x}); nothing to compare against")
    divergences = []
    for seed in range(1, seeds + 1):
        aliased = run_alias_image(image, fuel, seed, symbolic)
        d = compare_runs(clean, aliased, seed)
        if d is not None:
            divergences.append(d)
    return DiffReport(seeds=seeds, clean=clean, divergences=divergences)
