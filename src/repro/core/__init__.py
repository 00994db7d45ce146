"""TetrisLock: the paper's primary contribution.

Random-pair insertion (Algorithm 1), interlocking splitting, split
compilation with layout pinning, de-obfuscation, attack-complexity
analysis (Eq. 1) and the end-to-end evaluation pipeline.
"""

from .attack import (
    complexity_ratio,
    saki_attack_complexity,
    tetrislock_attack_complexity,
)
from .deobfuscate import (
    CompiledSplit,
    SplitCompilationFlow,
    recombine_physical,
)
from .insertion import (
    InsertedPair,
    InsertionResult,
    ROLE_ORIGINAL,
    ROLE_R,
    ROLE_RDG,
    insert_random_pairs,
)
from .multiway import MultiwaySplitResult, multiway_split
from .obfuscate import ObfuscationReport, TetrisLockObfuscator
from .pipeline import EvaluationResult, TetrisLockPipeline
from .protect import ProtectionResult, protect_circuit
from .split import SplitResult, SplitSegment, interlocking_split

__all__ = [
    "insert_random_pairs",
    "InsertionResult",
    "InsertedPair",
    "ROLE_ORIGINAL",
    "ROLE_R",
    "ROLE_RDG",
    "TetrisLockObfuscator",
    "ObfuscationReport",
    "interlocking_split",
    "SplitResult",
    "SplitSegment",
    "multiway_split",
    "MultiwaySplitResult",
    "SplitCompilationFlow",
    "CompiledSplit",
    "recombine_physical",
    "TetrisLockPipeline",
    "EvaluationResult",
    "ProtectionResult",
    "protect_circuit",
    "saki_attack_complexity",
    "tetrislock_attack_complexity",
    "complexity_ratio",
]
