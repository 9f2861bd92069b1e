"""Gate dependency graph (paper §3.1).

Each gate is a node; a directed edge ``(g_i, g_j)`` means ``g_j`` acts on a
qubit that ``g_i`` acted on immediately before, so ``g_j`` may only run after
``g_i``.  Nodes with zero in-degree form the *frontier* and are ready to
execute.

:class:`DependencyGraph` is consumed destructively by the grid baselines, the
exact optimal search and the schedule verifier (``complete`` removes a frontier
node and promotes its successors), and answers non-destructive layer queries
(:meth:`DependencyGraph.first_k_layers`).  The MUSS-TI array core reads the
immutable :class:`DagArrays` view instead and keeps its own incremental
look-ahead window (:mod:`repro.core.arraycore`).

Construction is O(g) using a last-writer-per-qubit scan, matching the paper's
complexity claim.

The graph tracks a :attr:`DependencyGraph.version` that increments on every
``complete``, and memoises the sorted frontier and the first-``k``-layer
decomposition per version.
"""

from __future__ import annotations

from collections.abc import Iterator

from .circuit import QuantumCircuit
from .gate import Gate


class DependencyError(RuntimeError):
    """Raised on illegal frontier operations (completing a blocked gate)."""


class DependencyGraph:
    """Destructible dependency DAG over the gates of a circuit.

    Node identifiers are the gate's index in the original circuit, so FCFS
    tie-breaking (paper §3.2) is simply "smallest node id in the frontier".
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self.circuit = circuit
        gates = circuit.gates
        self.num_gates = len(gates)
        self._gates = gates
        self._successors: list[list[int]] = [[] for _ in gates]
        self._predecessors: list[list[int]] = [[] for _ in gates]
        self._in_degree = [0] * len(gates)
        self._completed = [False] * len(gates)
        self._remaining = len(gates)

        last_on_qubit: dict[int, int] = {}
        for index, gate in enumerate(gates):
            preds = {last_on_qubit[q] for q in gate.qubits if q in last_on_qubit}
            for pred in preds:
                self._successors[pred].append(index)
                self._predecessors[index].append(pred)
            self._in_degree[index] = len(preds)
            for q in gate.qubits:
                last_on_qubit[q] = index
        self._frontier = {
            i for i, degree in enumerate(self._in_degree) if degree == 0
        }
        #: Monotone state counter: bumps on every :meth:`complete`.
        self.version = 0
        # Per-version memos (see module docstring).
        self._frontier_memo: tuple[int, list[int]] | None = None
        self._layers_memo: tuple[int, int, list[list[int]]] | None = None

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._remaining

    @property
    def is_empty(self) -> bool:
        return self._remaining == 0

    def gate(self, node: int) -> Gate:
        return self._gates[node]

    def successors(self, node: int) -> tuple[int, ...]:
        return tuple(self._successors[node])

    def predecessors(self, node: int) -> tuple[int, ...]:
        return tuple(self._predecessors[node])

    def frontier(self) -> list[int]:
        """Ready nodes in FCFS (original circuit) order."""
        memo = self._frontier_memo
        if memo is not None and memo[0] == self.version:
            return list(memo[1])
        ordered = sorted(self._frontier)
        self._frontier_memo = (self.version, ordered)
        return list(ordered)

    def frontier_gates(self) -> list[tuple[int, Gate]]:
        return [(node, self._gates[node]) for node in self.frontier()]

    def is_ready(self, node: int) -> bool:
        return node in self._frontier

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def complete(self, node: int) -> list[int]:
        """Mark a frontier node as executed; return newly readied nodes."""
        if node not in self._frontier:
            raise DependencyError(
                f"gate #{node} is not in the frontier (in-degree "
                f"{self._in_degree[node]}, completed={self._completed[node]})"
            )
        self._frontier.discard(node)
        self._completed[node] = True
        self._remaining -= 1
        self.version += 1
        newly_ready: list[int] = []
        for succ in self._successors[node]:
            self._in_degree[succ] -= 1
            if self._in_degree[succ] == 0:
                self._frontier.add(succ)
                newly_ready.append(succ)
        return newly_ready

    # ------------------------------------------------------------------
    # Look-ahead
    # ------------------------------------------------------------------

    def _layers(self, k: int) -> list[list[int]]:
        """Memoised layer decomposition (shared storage — do not mutate).

        ``first_k_layers(k)`` is a prefix of ``first_k_layers(k')`` for any
        ``k' > k``, so one memo holding the deepest decomposition computed
        at this version serves every shallower query as a slice.
        """
        memo = self._layers_memo
        if memo is not None and memo[0] == self.version and memo[1] >= k:
            return memo[2][:k]
        layers: list[list[int]] = []
        # node -> outstanding in-window predecessors; 0 marks "layered".
        # (A frontier node never appears as a successor — its predecessors
        # are all completed — so the frontier needs no pre-seeding.)
        outstanding: dict[int, int] = {}
        successors = self._successors
        in_degree = self._in_degree
        current = self.frontier()
        for _ in range(k):
            if not current:
                break
            layers.append(current)
            next_layer: list[int] = []
            for node in current:
                for succ in successors[node]:
                    left = outstanding.get(succ)
                    if left is None:
                        left = in_degree[succ]
                    elif left == 0:
                        continue
                    left -= 1
                    outstanding[succ] = left
                    if left == 0:
                        next_layer.append(succ)
            next_layer.sort()
            current = next_layer
        self._layers_memo = (self.version, k, layers)
        return list(layers)

    def first_k_layers(self, k: int) -> list[list[int]]:
        """The next ``k`` executable layers from the current state.

        Layer 0 is the current frontier; layer ``i+1`` contains the gates
        whose unfinished predecessors all sit in layers ``<= i`` — the window
        the §3.3 SWAP weight table counts gate partners in.
        """
        if k <= 0:
            return []
        # Fresh inner lists: callers own the returned structure.
        return [list(layer) for layer in self._layers(k)]

    def gates_within_layers(self, k: int) -> Iterator[tuple[int, Gate]]:
        """Iterate ``(layer_index, gate)`` over the first ``k`` layers."""
        if k <= 0:
            return
        gates = self._gates
        for layer_index, layer in enumerate(self._layers(k)):
            for node in layer:
                yield layer_index, gates[node]

    # ------------------------------------------------------------------
    # Whole-graph utilities (non-destructive)
    # ------------------------------------------------------------------

    def all_layers(self) -> list[list[int]]:
        """Layer decomposition of the *remaining* graph (as-late-as-possible
        gates still appear as early as their dependencies allow)."""
        return self.first_k_layers(self.num_gates or 1)

    def topological_order(self) -> list[int]:
        """A topological order of the remaining gates (FCFS within layers)."""
        return [node for layer in self.all_layers() for node in layer]


class DagArrays:
    """Immutable flat-array view of a circuit's dependency DAG.

    The array-core scheduler consumes the DAG as dense int structures —
    successor/predecessor adjacency as tuples-of-tuples, initial
    in-degrees, and the operand arrays ``qubit_a``/``qubit_b`` (with
    ``qubit_b[node] == -1`` for one-qubit gates).  Construction is the
    same O(g) last-writer scan :class:`DependencyGraph` runs, done once
    per circuit: SABRE's two-fold search schedules the same circuit
    object three times per compile, so the view is cached on the circuit
    (keyed by gate count — circuits are append-only through their API).
    """

    __slots__ = (
        "num_gates",
        "successors",
        "predecessors",
        "in_degree",
        "qubit_a",
        "qubit_b",
        "native_arity",
    )

    def __init__(self, circuit: QuantumCircuit) -> None:
        gates = circuit.gates
        num_gates = len(gates)
        successors: list[list[int]] = [[] for _ in gates]
        predecessors: list[list[int]] = [[] for _ in gates]
        in_degree = [0] * num_gates
        qubit_a = [0] * num_gates
        qubit_b = [-1] * num_gates
        native_arity = True
        last_on_qubit: dict[int, int] = {}
        for index, gate in enumerate(gates):
            qubits = gate.qubits
            arity = len(qubits)
            if arity == 2:
                qubit_a[index] = qubits[0]
                qubit_b[index] = qubits[1]
            elif arity == 1:
                qubit_a[index] = qubits[0]
            else:
                # Beyond the native 1q/2q set: the arrays cannot encode
                # it, so the scheduler rejects the circuit.
                native_arity = False
            preds = {last_on_qubit[q] for q in qubits if q in last_on_qubit}
            for pred in preds:
                successors[pred].append(index)
                predecessors[index].append(pred)
            in_degree[index] = len(preds)
            for q in qubits:
                last_on_qubit[q] = index
        self.num_gates = num_gates
        self.successors = tuple(tuple(s) for s in successors)
        self.predecessors = tuple(tuple(p) for p in predecessors)
        self.in_degree = tuple(in_degree)
        self.qubit_a = tuple(qubit_a)
        self.qubit_b = tuple(qubit_b)
        self.native_arity = native_arity


def dag_arrays(circuit: QuantumCircuit) -> DagArrays:
    """The cached :class:`DagArrays` view of ``circuit``."""
    cached = circuit.__dict__.get("_dag_arrays")
    if cached is not None and cached.num_gates == len(circuit):
        return cached
    arrays = DagArrays(circuit)
    circuit._dag_arrays = arrays  # type: ignore[attr-defined]
    return arrays


def dependency_layers(circuit: QuantumCircuit) -> list[list[int]]:
    """Convenience: layer decomposition of a full circuit."""
    return DependencyGraph(circuit).all_layers()
