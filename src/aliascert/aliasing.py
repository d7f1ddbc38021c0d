"""Aliasing runs and the differential harness.

`run_aliased` runs a program under the salted-word model of `_salt`;
`diff_runs` sweeps seeds and reports every aliased run that differs
from the clean run in a fault, an error, the output, the halt, or a
final register.
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
    """Clean-vs-aliased sweep over seeds 1 to ``seeds`` (at least 1); the
    clean run must complete without error first."""
    from ._engine import run_alias_image, run_clean_image

    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    image = build_image(program, entry, device)
    clean = run_clean_image(image, fuel)
    if not clean.ok:
        raise ValueError(f"clean run fails ({clean.error} at pc="
                         f"{clean.error_pc:#x}); nothing to compare against")
    divergences = []
    for seed in range(1, seeds + 1):
        aliased = run_alias_image(image, fuel, seed)
        d = compare_runs(clean, aliased, seed)
        if d is not None:
            divergences.append(d)
    return DiffReport(seeds=seeds, clean=clean, divergences=divergences)
