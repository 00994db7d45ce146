"""Typed service requests: canonical parameters, fingerprints, keys.

Every job the service accepts is described by one of these request
dataclasses.  Circuits travel as OpenQASM 2 text
(:mod:`repro.circuits.qasm`), never as pickled objects, so the same
request shape works in-process, over HTTP and inside worker processes.
A kind's fields and their defaults are stated once, on its dataclass:
handlers read every field from ``params()``, and ``repro submit``
sends only the options it was given.

Each request knows three things about itself:

* ``params()`` — its canonical wire form (the dict a handler runs on);
* ``fingerprint()`` — the result-cache key, by one rule for every
  kind: a canonical-JSON digest (:mod:`repro._hashing`) of the kind and
  ``params()``, with the QASM text replaced by its **structural circuit
  hash** (:func:`repro.transpiler.cache.circuit_structural_hash`, so
  QASM formatting differences never defeat the cache).  A request whose
  ``seed`` field is ``None`` draws unseeded randomness and is never
  cached (``None``); a same-width attack leaves out the ``gate_limit``
  it never reads;
* ``coalesce_key()`` — the compatibility class for request batching,
  or ``None``.  Only noiseless, terminal-measurement simulations
  coalesce: those share one statevector evolution and then
  sample per-request, which is bit-identical to running each alone.

Bad input is refused when the request is built (``ValueError``, so
HTTP 400 at submit), never inside a worker.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Union

from .._hashing import json_digest
from ..attacks.bruteforce import ATTACKS
from ..circuits.circuit import QuantumCircuit
from ..circuits.qasm import from_qasm
from ..core.insertion import check_gate_pool
from ..simulator.trajectory import measures_are_terminal
from ..synth.truthtable import is_reversible
from ..transpiler.cache import circuit_structural_hash
from ..transpiler.transpile import DEVICE_TARGETS

__all__ = [
    "ServiceRequest",
    "SimulateRequest",
    "ProtectRequest",
    "TranspileRequest",
    "EvaluateRequest",
    "AttackRequest",
    "RawRequest",
    "REQUEST_TYPES",
    "request_from_wire",
    "prepare_circuit",
    "simulate_noise_model",
    "MAX_CANDIDATES",
    "MAX_DEVICE_QUBITS",
    "MAX_GATES",
    "MAX_ITERATIONS",
    "MAX_QUBITS",
    "MAX_SHOTS",
]

_FINGERPRINT_SIZE = 16  # bytes; 32 hex chars

# Size caps on request inputs, checked at submit (ValueError, so HTTP
# 400) instead of inside a worker: far above the paper's workload
# (<= 12 qubits, rd84 transpiled is 682 gates, 1000 shots, 20
# iterations), far below a request that would hold a worker for hours
# or exhaust its memory.  Every QASM circuit is held to MAX_QUBITS and
# MAX_GATES operations (gates, measures and barriers); a transpile
# target device to MAX_DEVICE_QUBITS, an attack to MAX_CANDIDATES.
MAX_QUBITS = 16
MAX_GATES = 10_000
MAX_DEVICE_QUBITS = 32
MAX_SHOTS = 100_000
MAX_ITERATIONS = 100
MAX_CANDIDATES = 500_000


def _check_caps(shots: int, iterations: int = 1) -> None:
    if not 0 < shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}")
    if not 0 < iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in 1..{MAX_ITERATIONS}")


def _check_circuit(circuit: QuantumCircuit) -> None:
    if circuit.num_qubits > MAX_QUBITS:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits; the service runs "
            f"at most {MAX_QUBITS}"
        )
    if len(circuit) > MAX_GATES:
        raise ValueError(
            f"circuit has {len(circuit)} operations; the service runs "
            f"at most {MAX_GATES}"
        )


def prepare_circuit(qasm: str) -> QuantumCircuit:
    """Parse request QASM and normalise measurement semantics.

    Circuits without measurements get explicit measure-all, so the
    structural hash, the coalescer and every handler agree on one
    canonical form.  Malformed QASM raises
    :class:`~repro.circuits.qasm.QasmError` here, at submit time.
    """
    circuit = from_qasm(qasm)
    if not circuit.has_measurements():
        circuit = circuit.copy().measure_all()
    return circuit


def simulate_noise_model(circuit: QuantumCircuit):
    """The noise a ``noisy`` simulate job runs under: the Valencia-like
    device sized to the circuit."""
    from ..noise.backend import valencia_like_backend

    return valencia_like_backend(max(circuit.num_qubits, 2)).noise_model()


@dataclass
class ServiceRequest:
    """Base class: wire form + fingerprint/coalesce plumbing."""

    KIND: ClassVar[str] = ""
    # protect/transpile act on the raw circuit; simulate adds
    # measure-all semantics before hashing and execution
    NORMALISE_MEASUREMENTS: ClassVar[bool] = False

    # the parsed QASM circuit, held after its first parse
    _prepared: Optional[QuantumCircuit] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if getattr(self, "qasm", None) == "":
            raise ValueError(f"{self.KIND} request needs a 'qasm' circuit")
        for name in ("seed", "gate_limit"):  # shared by every kind
            value = getattr(self, name, None)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        self._validate()

    def _validate(self) -> None:
        """The kind's own checks; bad input fails here, at submit."""

    def params(self) -> Dict[str, Any]:
        """Canonical wire/cache form of this request.

        The public dataclass fields, verbatim — handlers, the HTTP
        wire format and cache fingerprints all run on this one dict.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not f.name.startswith("_")
        }

    # -- circuit plumbing (qasm-bearing requests) ----------------------
    def _circuit(self) -> QuantumCircuit:
        """The parsed circuit, held to the size caps on first parse."""
        cached = self._prepared
        if cached is None:
            cached = (
                prepare_circuit(self.qasm)
                if self.NORMALISE_MEASUREMENTS
                else from_qasm(self.qasm)
            )
            _check_circuit(cached)
            self._prepared = cached
        return cached

    def circuit_hash(self) -> str:
        return circuit_structural_hash(self._circuit())

    # -- cache identity --------------------------------------------------
    def _identity(self) -> Dict[str, Any]:
        """The params a result depends on, QASM by structural hash."""
        identity = self.params()
        if identity.get("qasm") is not None:
            identity["qasm"] = self.circuit_hash()
        return identity

    def fingerprint(self) -> Optional[str]:
        if getattr(self, "seed", 0) is None:
            return None  # unseeded randomness is not reproducible
        return json_digest(
            {"kind": self.KIND, **self._identity()},
            digest_size=_FINGERPRINT_SIZE,
        )

    def coalesce_key(self) -> Optional[Tuple]:
        return None


def _check_unmeasured(circuit: QuantumCircuit) -> None:
    if circuit.has_measurements():
        raise ValueError(
            "the circuit must be measurement-free: pairs are inserted "
            "into the unitary circuit, measurements come after restoring"
        )


@dataclass
class SimulateRequest(ServiceRequest):
    """Run a circuit through :func:`repro.execution.run`."""

    KIND: ClassVar[str] = "simulate"
    NORMALISE_MEASUREMENTS: ClassVar[bool] = True

    qasm: str = ""
    shots: int = 1000
    seed: Optional[int] = None
    noisy: bool = False
    method: str = "auto"

    def _validate(self) -> None:
        circuit = self._circuit()  # malformed QASM fails at submit
        _check_caps(self.shots)
        if self.method != "auto":
            self._check_method(circuit)

    def _check_method(self, circuit: QuantumCircuit) -> None:
        """A forced engine must exist and accept this circuit's noise
        and measurement layout — refused here, not inside a worker."""
        from ..execution import refusal

        noise_model = simulate_noise_model(circuit) if self.noisy else None
        reason = refusal(self.method, circuit, noise_model)
        if reason is not None:
            raise ValueError(reason)

    def coalesce_key(self) -> Optional[Tuple]:
        if self.noisy or self.method not in ("auto", "statevector"):
            return None
        if not measures_are_terminal(self._circuit()):
            return None  # needs per-shot collapse
        return ("simulate", self.circuit_hash())


@dataclass
class ProtectRequest(ServiceRequest):
    """TetrisLock obfuscation + interlocking split of one circuit."""

    KIND: ClassVar[str] = "protect"

    qasm: str = ""
    gate_limit: int = 4
    gate_pool: str = "x,cx"
    seed: Optional[int] = None

    def _validate(self) -> None:
        check_gate_pool(self.gate_pool.split(","))
        _check_unmeasured(self._circuit())  # malformed QASM fails here


@dataclass
class TranspileRequest(ServiceRequest):
    """Compile a circuit for a device topology (deterministic)."""

    KIND: ClassVar[str] = "transpile"

    qasm: str = ""
    coupling: str = "valencia"
    size: Optional[int] = None
    layout: str = "greedy"
    level: int = 1

    def _validate(self) -> None:
        if self.coupling not in DEVICE_TARGETS:
            raise ValueError(
                f"unknown coupling {self.coupling!r}; "
                f"expected one of {', '.join(DEVICE_TARGETS)}"
            )
        if self.layout not in ("greedy", "trivial"):
            raise ValueError("layout must be 'greedy' or 'trivial'")
        if not 0 <= self.level <= 3:
            raise ValueError("optimization level must be 0-3")
        circuit = self._circuit()  # malformed QASM fails at submit
        if self.size is not None and not (
            circuit.num_qubits <= self.size <= MAX_DEVICE_QUBITS
        ):
            raise ValueError(
                f"size must be in {circuit.num_qubits}..{MAX_DEVICE_QUBITS}"
            )


def _validate_target(request: "ServiceRequest") -> None:
    """Exactly one of benchmark/qasm, and it must resolve at submit.

    The QASM parse lands in the request's ``_prepared`` cache, so
    the fingerprint (and nothing else in the submitting thread) never
    parses the text again.
    """
    if (request.benchmark is None) == (request.qasm is None):
        raise ValueError(
            "specify exactly one of 'benchmark' or 'qasm'"
        )
    if request.qasm is not None:
        request._circuit()
    else:
        from ..revlib.benchmarks import load_benchmark

        try:
            load_benchmark(request.benchmark)  # unknown names fail here
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None


@dataclass
class EvaluateRequest(ServiceRequest):
    """Full Sec. V pipeline: obfuscate, split-compile, recombine, score.

    Iterations are seeded with the experiment framework's scheme —
    ``SeedSequence(seed).spawn(iterations)[i]`` — so a job's results
    depend only on its own parameters, never on worker count, queue
    order or cache state.
    """

    KIND: ClassVar[str] = "evaluate"

    benchmark: Optional[str] = None
    qasm: Optional[str] = None
    shots: int = 1000
    gate_limit: int = 4
    iterations: int = 1
    seed: Optional[int] = None

    def _validate(self) -> None:
        _validate_target(self)
        _check_caps(self.shots, self.iterations)
        if self.qasm is not None:
            circuit = self._circuit()
            _check_unmeasured(circuit)
            # the expected output comes from the circuit's truth table
            if not is_reversible(circuit):
                raise ValueError(
                    "evaluate scores classical-reversible circuits only "
                    "(x, cx, ccx, mcx, swap and cswap gates)"
                )


@dataclass
class AttackRequest(ServiceRequest):
    """Run one of the paper's adversary models against a protected
    split (``adversary`` is ``"auto"`` or a key of
    :data:`repro.attacks.ATTACKS`)."""

    KIND: ClassVar[str] = "attack"

    benchmark: Optional[str] = None
    qasm: Optional[str] = None
    adversary: str = "auto"
    seed: int = 0
    gate_limit: int = 4
    max_candidates: int = MAX_CANDIDATES
    prefilter: bool = True
    early_exit: bool = False

    def _validate(self) -> None:
        _validate_target(self)
        if self.adversary != "auto" and self.adversary not in ATTACKS:
            raise ValueError(
                f"unknown adversary {self.adversary!r}; expected 'auto' "
                f"or one of {', '.join(ATTACKS)}"
            )
        if not 0 < self.max_candidates <= MAX_CANDIDATES:
            raise ValueError(f"max_candidates must be in 1..{MAX_CANDIDATES}")

    def _identity(self) -> Dict[str, Any]:
        identity = super()._identity()
        # a same-width split is a plain Saki split: no pairs are
        # inserted, so gate_limit never reaches the search
        if self.adversary == "same-width":
            del identity["gate_limit"]
        return identity


@dataclass
class RawRequest(ServiceRequest):
    """An internal kind (``_sleep``, ``_crash``) with plain params.

    Only in-process callers submit these (failure-path tests, benchmark
    warm-ups); the HTTP front-end accepts the typed kinds of
    :data:`REQUEST_TYPES` only.  Raw jobs are never cached or coalesced.
    """

    kind: str = ""
    raw_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.KIND = self.kind  # instance-level override

    def params(self) -> Dict[str, Any]:
        return dict(self.raw_params)

    def fingerprint(self) -> Optional[str]:
        return None


REQUEST_TYPES: Dict[str, type] = {
    cls.KIND: cls
    for cls in (
        SimulateRequest,
        ProtectRequest,
        TranspileRequest,
        EvaluateRequest,
        AttackRequest,
    )
}


# each field's declared type, resolved once: the annotations are strings
_WIRE_TYPES = {
    kind: typing.get_type_hints(cls) for kind, cls in REQUEST_TYPES.items()
}


def _wire_fits(annotation: Any, value: Any) -> bool:
    """Whether a wire *value* has a field's declared type: a ``bool``
    field takes only a bool, an ``int`` field an int that is not a
    bool, and an ``Optional`` field also ``None``."""
    if typing.get_origin(annotation) is Union:
        return any(_wire_fits(a, value) for a in typing.get_args(annotation))
    if annotation is int and isinstance(value, bool):
        return False
    return isinstance(value, annotation)


def _wire_name(annotation: Any) -> str:
    if typing.get_origin(annotation) is Union:
        return " or ".join(map(_wire_name, typing.get_args(annotation)))
    return "null" if annotation is type(None) else annotation.__name__


def request_from_wire(kind: str, params: Dict[str, Any]) -> ServiceRequest:
    """Build a typed request from its wire form.

    Unknown parameter names, values of the wrong type and invalid
    values raise :class:`ValueError` with a message fit for clients
    (HTTP 400 at submit); the internal kinds of
    :data:`repro.service.handlers.HANDLERS` become a :class:`RawRequest`.
    """
    if not isinstance(params, dict):
        raise ValueError("request params must be a JSON object")
    cls = REQUEST_TYPES.get(kind)
    if cls is None:
        from .handlers import HANDLERS

        if kind in HANDLERS:
            return RawRequest(kind=kind, raw_params=params)
        raise ValueError(
            f"unknown request kind {kind!r}; "
            f"expected one of {', '.join(sorted(REQUEST_TYPES))}"
        )
    allowed = {
        f.name for f in fields(cls) if not f.name.startswith("_")
    }
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {kind!r}: "
            f"{', '.join(sorted(unknown))}"
        )
    types = _WIRE_TYPES[kind]
    for name, value in params.items():
        if not _wire_fits(types[name], value):
            raise ValueError(
                f"parameter {name!r} of {kind!r} must be "
                f"{_wire_name(types[name])}, got {value!r}"
            )
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(str(exc)) from None
