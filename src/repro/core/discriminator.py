"""The user-facing KLiNQ readout system.

:class:`KlinqReadout` holds one independent per-qubit discriminator (student
network + its teacher used only at training time) for every qubit on the
device.  Because each qubit has its own compact network operating only on its
own trace, any subset of qubits can be read out at any time -- the mid-circuit
measurement capability the paper emphasizes -- and the readout of one qubit
never waits on the others.

Inference is served through :class:`repro.engine.ReadoutEngine`:
:meth:`KlinqReadout.discriminate` and :meth:`KlinqReadout.discriminate_all`
delegate to an internally cached float engine (same call signatures as
always), and :meth:`KlinqReadout.to_engine` hands back a standalone engine on
either datapath (``backend="float"`` or ``"fpga"``) for deployment --
including :meth:`~repro.engine.ReadoutEngine.save` into an artifact bundle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ExperimentConfig, scaled_experiment_config
from repro.core.pipeline import PipelineResult, QubitReadoutPipeline
from repro.core.student import StudentModel
from repro.nn.metrics import geometric_mean_fidelity
from repro.readout.dataset import ReadoutDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.engine import ReadoutEngine
    from repro.fpga.fixed_point import FixedPointFormat

__all__ = ["KlinqReadout", "ReadoutReport"]


@dataclass
class ReadoutReport:
    """Aggregated evaluation of a multi-qubit readout system.

    Attributes
    ----------
    per_qubit:
        One :class:`~repro.core.pipeline.PipelineResult` per qubit.
    excluded_qubits:
        0-based indices excluded from the secondary geometric mean (the paper
        excludes qubit 2, index 1, because noise dominates it).
    """

    per_qubit: list[PipelineResult] = field(default_factory=list)
    excluded_qubits: tuple[int, ...] = (1,)

    @property
    def fidelities(self) -> list[float]:
        """Per-qubit student fidelities, in qubit order."""
        return [result.student_fidelity for result in self.per_qubit]

    @property
    def geometric_mean(self) -> float:
        """Geometric mean over all qubits (``F5Q`` in Table I)."""
        return geometric_mean_fidelity(self.fidelities)

    @property
    def geometric_mean_excluding(self) -> float:
        """Geometric mean excluding ``excluded_qubits`` (``F4Q`` in Table I)."""
        kept = [
            result.student_fidelity
            for result in self.per_qubit
            if result.qubit_index not in self.excluded_qubits
        ]
        return geometric_mean_fidelity(kept)

    @property
    def total_student_parameters(self) -> int:
        """Sum of student parameters across all qubits."""
        return sum(result.student_parameters for result in self.per_qubit)

    @property
    def total_teacher_parameters(self) -> int:
        """Sum of teacher parameters across all qubits."""
        return sum(result.teacher_parameters for result in self.per_qubit)

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports and the benchmark harness."""
        return {
            "per_qubit": [result.as_dict() for result in self.per_qubit],
            "fidelities": self.fidelities,
            "geometric_mean": self.geometric_mean,
            "geometric_mean_excluding": self.geometric_mean_excluding,
            "excluded_qubits": list(self.excluded_qubits),
            "total_student_parameters": self.total_student_parameters,
            "total_teacher_parameters": self.total_teacher_parameters,
        }

    def summary_row(self, label: str = "KLiNQ") -> str:
        """One formatted row in the style of Table I."""
        cells = "  ".join(f"{f:.3f}" for f in self.fidelities)
        return (
            f"{label:<14} {cells}  "
            f"F_all={self.geometric_mean:.3f}  F_excl={self.geometric_mean_excluding:.3f}"
        )


class KlinqReadout:
    """Independent per-qubit readout with distilled lightweight networks.

    Parameters
    ----------
    config:
        Experiment configuration; defaults to the CPU-friendly scaled
        configuration.  The number of qubits is taken from
        ``config.students``.

    Examples
    --------
    >>> from repro.core import KlinqReadout, scaled_experiment_config
    >>> from repro.readout import generate_dataset, default_five_qubit_device
    >>> config = scaled_experiment_config(shots_per_state_train=10, shots_per_state_test=20)
    >>> device = default_five_qubit_device(sample_period_ns=config.sample_period_ns)
    >>> dataset = generate_dataset(device,
    ...     shots_per_state_train=config.shots_per_state_train,
    ...     shots_per_state_test=config.shots_per_state_test,
    ...     duration_ns=config.duration_ns, seed=config.seed)
    >>> readout = KlinqReadout(config)
    >>> report = readout.fit(dataset)            # doctest: +SKIP
    >>> report.geometric_mean                    # doctest: +SKIP
    0.9...
    """

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or scaled_experiment_config()
        self.pipelines: list[QubitReadoutPipeline] = [
            QubitReadoutPipeline(index, architecture, self.config)
            for index, architecture in enumerate(self.config.students)
        ]
        self.report: ReadoutReport | None = None
        self._serving_engine: "ReadoutEngine | None" = None
        self._serving_students: list[StudentModel] | None = None

    @property
    def n_qubits(self) -> int:
        """Number of independently-read qubits."""
        return len(self.pipelines)

    @property
    def is_trained(self) -> bool:
        """Whether every per-qubit student has been trained."""
        return all(pipeline.student is not None for pipeline in self.pipelines)

    # ------------------------------------------------------------------ training
    def fit(self, dataset: ReadoutDataset, distill: bool = True) -> ReadoutReport:
        """Train every per-qubit pipeline on ``dataset`` and evaluate it.

        Parameters
        ----------
        dataset:
            A multiplexed dataset whose qubit count matches the configuration.
        distill:
            If True (default) students are produced by knowledge distillation;
            if False they are trained from scratch on hard labels (ablation).
        """
        if dataset.n_qubits != self.n_qubits:
            raise ValueError(
                f"Dataset has {dataset.n_qubits} qubits but the configuration "
                f"expects {self.n_qubits}"
            )
        results = []
        for pipeline in self.pipelines:
            view = dataset.qubit_view(pipeline.qubit_index)
            results.append(pipeline.run(view, distill=distill))
        self.report = ReadoutReport(per_qubit=results)
        return self.report

    # ----------------------------------------------------------------- inference
    def _engine(self) -> "ReadoutEngine":
        """The cached float serving engine, rebuilt whenever students change.

        Retraining -- via :meth:`fit` or directly through the per-qubit
        pipelines -- replaces ``pipeline.student`` objects; the cache is
        validated by identity against the students it was built from, so a
        stale engine can never serve a replaced model's predictions.
        """
        students = [pipeline.student for pipeline in self.pipelines]
        if self._serving_engine is None or self._serving_students != students:
            self._serving_engine = self.to_engine(backend="float")
            self._serving_students = students
        return self._serving_engine

    def to_engine(
        self,
        backend: str = "float",
        fmt: "FixedPointFormat | None" = None,
        max_workers: int | None = None,
    ) -> "ReadoutEngine":
        """Package the trained students as a deployable :class:`ReadoutEngine`.

        Parameters
        ----------
        backend:
            Datapath selector: ``"float"`` serves the float64 students,
            ``"fpga"`` quantizes each student and serves the bit-exact
            integer datapath.
        fmt:
            Fixed-point format for the ``"fpga"`` backend (default Q16.16).
        max_workers:
            Worker-thread cap for the engine's parallel multi-qubit path.

        The returned engine is self-contained: it can be
        :meth:`~repro.engine.ReadoutEngine.save`\\ d as an artifact bundle and
        reloaded without this object (or any training state) existing.
        """
        # Imported here: repro.engine depends on repro.core, so a module-level
        # import would be circular.
        from repro.engine.engine import ReadoutEngine
        from repro.fpga.fixed_point import Q16_16

        return ReadoutEngine.from_students(
            self.students(),
            backend=backend,
            fmt=fmt if fmt is not None else Q16_16,
            max_workers=max_workers,
        )

    def discriminate(self, traces: np.ndarray, qubit_index: int) -> np.ndarray:
        """Independent (mid-circuit capable) readout of a single qubit.

        Parameters
        ----------
        traces:
            This qubit's traces, shape ``(n_shots, n_samples, 2)`` or a single
            ``(n_samples, 2)`` trace.
        qubit_index:
            Which qubit's discriminator to use.
        """
        if not 0 <= qubit_index < self.n_qubits:
            raise IndexError(f"qubit_index {qubit_index} out of range")
        if self.is_trained:
            # The request path's single-qubit adapter.
            return self._engine()._serve_single_qubit(traces, qubit_index)
        # Partially trained system: single-qubit readout only needs this
        # qubit's student (the mid-circuit independence property), so don't
        # demand a full engine.  Results are identical to the engine path --
        # FloatStudentBackend.predict_states is student.predict_states.
        from repro.engine.engine import serve_traces

        return serve_traces(self.pipelines[qubit_index].predict_states, traces)

    def discriminate_all(self, traces: np.ndarray) -> np.ndarray:
        """Read out every qubit of a batch of multiplexed shots.

        ``traces`` has shape ``(n_shots, n_qubits, n_samples, 2)``; the result
        is ``(n_shots, n_qubits)`` of assigned states.  Each qubit is
        discriminated independently by its own student network (fanned out
        across worker threads by the serving engine on multi-core hosts; the
        result is bit-identical to the sequential path either way).
        """
        traces = np.asarray(traces, dtype=np.float64)
        if traces.ndim != 4 or traces.shape[1] != self.n_qubits:
            raise ValueError(
                f"traces must have shape (shots, {self.n_qubits}, samples, 2), got {traces.shape}"
            )
        from repro.engine.request import ReadoutRequest

        return self._engine().serve(ReadoutRequest(traces=traces)).states

    def students(self) -> list[StudentModel]:
        """The trained per-qubit student models (for engine/FPGA deployment)."""
        untrained = [
            pipeline.qubit_index
            for pipeline in self.pipelines
            if pipeline.student is None
        ]
        if untrained:
            raise RuntimeError(
                f"KlinqReadout has untrained qubits {untrained}; "
                "call fit() (or the per-qubit pipelines) before requesting students"
            )
        return [pipeline.require_student() for pipeline in self.pipelines]
