"""aliascert: certify machine code safe against hardware aliasing.

Disassembles a small machine-code dialect onto an abstract stack machine,
infers annotated types over registers and stack slots, re-validates the
result with an independent dataflow-trace oracle, and differentially
tests certified programs on a clean interpreter versus one that models
calculation-dependent address aliasing.
"""

from .aliasing import AliasConfig, diff_runs, run_aliased
from .annot import (
    AnnotatedType,
    Annotation,
    Calc,
    Finite,
    Rep,
    SetVar,
    TypeVar,
    Uncalc,
    parse_annotation,
    parse_type,
    pop_frame,
    push_frame,
    serialize_annotation,
    unify,
    unify_annotations,
)
from .certifier import (
    CertReport,
    Failure,
    Theory,
    certify_program,
    check_safety,
)
from .disasm import StackInstr, location_candidates, render_machine
from .frontend import AsmSyntaxError, DuplicateLabel, parse_program
from .isa import DataBlob, Instruction, Program
from .machine import MachineState, RunOutcome, run, step
from .smallstep import PatternMismatch, apply_smallstep
from .traces import TraceViolation, check_program, events_of, fold_event

__version__ = "0.1.0"

__all__ = [
    "AliasConfig", "diff_runs", "run_aliased",
    "AnnotatedType", "Calc", "Finite", "Rep", "SetVar", "TypeVar",
    "Uncalc", "pop_frame", "push_frame", "unify",
    "Annotation", "unify_annotations", "parse_annotation", "parse_type",
    "serialize_annotation",
    "CertReport", "Failure", "Theory", "certify_program",
    "check_safety",
    "StackInstr", "location_candidates", "render_machine",
    "AsmSyntaxError", "DuplicateLabel", "parse_program",
    "DataBlob", "Instruction", "Program",
    "MachineState", "run", "step",
    "RunOutcome",
    "PatternMismatch", "apply_smallstep",
    "TraceViolation", "check_program", "events_of", "fold_event",
]
