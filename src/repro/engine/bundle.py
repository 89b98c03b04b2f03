"""Deployable artifact bundles for :class:`~repro.engine.engine.ReadoutEngine`.

A trained readout system becomes a directory instead of a live Python
object -- the form a deployment pipeline can version, checksum, ship to the
control hardware, and reload bit-exactly:

.. code-block:: text

    bundle/
      manifest.json           format version, backend kind, qubit->architecture
                              map, per-qubit raw-carrier dtype, shard-layout
                              hints, per-file SHA-256 checksums
      qubit0/
        student.json          student config (architecture, extractor scalars,
        student.npz           network layout) + float64 arrays
        quantized.json        Q16.16 constants: scalars + raw integer arrays
        quantized.npz         (fpga backends, or any backend quantized from one)
      qubit1/
        ...

Per-qubit student files are written whenever the backend holds its float
student, and quantized parameter files whenever it holds fixed-point
constants; the ``"fpga"`` backend built by ``to_engine(backend="fpga")``
carries both, so one bundle can later serve either datapath.  Loading
verifies the format version and every checksum before touching any payload,
so a tampered or truncated bundle fails loudly instead of silently serving
wrong states.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from repro.core.student import StudentModel
from repro.engine.backends import FixedPointBackend, FloatStudentBackend, ReadoutBackend
from repro.engine.engine import ReadoutEngine
from repro.fpga.quantize import load_quantized_parameters, save_quantized_parameters
from repro.nn.serialization import load_state_pair, save_state_pair

__all__ = [
    "BUNDLE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "bundle_id_of",
    "compute_bundle_id",
    "save_engine",
    "load_engine",
    "load_manifest",
]

#: On-disk format version; bump on any incompatible layout change.
BUNDLE_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"


def compute_bundle_id(files: dict[str, str]) -> str:
    """The content identity of a bundle: SHA-256 over its file checksums.

    Derived purely from the manifest's ``files`` map (sorted name/checksum
    pairs), so two bundles with byte-identical payloads share one id no
    matter where or when they were saved -- the property the lifecycle
    registry and the SWAP wire frame pin swaps to.
    """
    digest = hashlib.sha256()
    for name, checksum in sorted(files.items()):
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(checksum.encode("ascii"))
        digest.update(b"\0")
    return digest.hexdigest()


def bundle_id_of(manifest: dict) -> str:
    """The bundle id a manifest records -- computed for legacy manifests.

    Manifests written before the provenance fields existed carry no
    ``bundle_id`` key; their identity is still well-defined (it is a pure
    function of the file checksums), so this derives it instead of failing
    or warning -- legacy bundles stay first-class registry citizens.
    """
    recorded = manifest.get("bundle_id")
    if recorded is not None:
        return str(recorded)
    return compute_bundle_id(dict(manifest.get("files", {})))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_student(student: StudentModel, stem: Path) -> list[Path]:
    config, arrays = student.get_state()
    return list(save_state_pair(stem, config, arrays))


def _read_student(stem: Path) -> StudentModel:
    config, arrays = load_state_pair(stem, description="student")
    return StudentModel.from_state(config, arrays)


def save_engine(engine: ReadoutEngine, directory: str | Path) -> Path:
    """Write ``engine`` as an artifact bundle under ``directory``.

    Creates the directory (and parents) if needed; returns the manifest path.
    """
    directory = Path(directory)
    payloads: list[tuple] = []
    # Validate every backend before any file is written so a rejected engine
    # never leaves a partial, manifest-less bundle behind.
    for qubit_index, backend in enumerate(engine.backends):
        student = getattr(backend, "student", None)
        parameters = getattr(backend, "parameters", None)
        if student is None and parameters is None:
            raise ValueError(
                f"Backend for qubit {qubit_index} holds neither a student nor "
                "quantized parameters; nothing to persist"
            )
        if backend.name == "fpga" and parameters is None:
            raise ValueError(
                f"fpga backend for qubit {qubit_index} has no quantized parameters"
            )
        payloads.append((qubit_index, backend, student, parameters))
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    qubits: list[dict] = []
    for qubit_index, backend, student, parameters in payloads:
        qubit_dir = directory / f"qubit{qubit_index}"
        qubit_dir.mkdir(exist_ok=True)
        if student is not None:
            written.extend(_write_student(student, qubit_dir / "student"))
        if parameters is not None:
            written.extend(save_quantized_parameters(parameters, qubit_dir / "quantized"))
        qubits.append(
            {
                "backend": backend.name,
                "architecture": None if student is None else student.architecture.name,
                "student": student is not None,
                "quantized": parameters is not None,
                # The integer dtype raw ADC carriers use on the wire (None for
                # float-only backends, which never see raw carriers): recorded
                # so a capture pipeline can digitize into the right dtype
                # without loading the quantized payload first.
                "carrier_dtype": (
                    None
                    if parameters is None
                    else str(parameters.fmt.raw_carrier_dtype)
                ),
            }
        )
    files = {
        path.relative_to(directory).as_posix(): _sha256(path)
        for path in sorted(written)
    }
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "backend": engine.backend_kind,
        # Provenance: the content identity (a pure function of the file
        # checksums -- see compute_bundle_id) and the save timestamp.
        # Additive keys: loaders that predate them ignore them, and legacy
        # manifests without them still load warning-free (bundle_id_of
        # derives the id on demand).
        "bundle_id": compute_bundle_id(files),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n_qubits": engine.n_qubits,
        "qubits": qubits,
        # Hints for process-sharded serving (repro.service.ReadoutService):
        # the atomic qubit groups a shard boundary must not split, plus the
        # finest useful shard count.  Per-qubit backends are independent, so
        # the default granularity is one group per qubit; an engine whose
        # backends shared state across qubits would declare coarser groups
        # here.  Purely advisory -- readers that predate (or ignore) the key
        # load the bundle unchanged, and pre-hint manifests still load.
        "shard_layout": {
            "qubit_groups": [[qubit] for qubit in range(engine.n_qubits)],
            "max_shards": engine.n_qubits,
        },
        # POSIX-style keys keep bundles portable across platforms (a bundle
        # saved on Windows must load on the Linux control host).
        "files": files,
    }
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _verify_files(directory: Path, manifest: dict) -> None:
    for relative, expected in sorted(manifest.get("files", {}).items()):
        path = directory / relative
        if not path.exists():
            raise FileNotFoundError(f"Engine bundle is missing {relative!r}")
        actual = _sha256(path)
        if actual != expected:
            raise ValueError(
                f"Checksum mismatch for {relative!r} (expected {expected[:12]}…, "
                f"got {actual[:12]}…); the bundle is corrupted or was tampered with"
            )


def load_manifest(directory: str | Path) -> dict:
    """Read and version-check a bundle's ``manifest.json`` without payloads.

    The lightweight entry point every bundle *consumer* shares --
    :func:`load_engine`, the sharded service's partition planning, and the
    network server's deployment-info replies -- so the existence and
    format-version checks cannot drift apart between them.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"No engine bundle manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"Unsupported engine bundle format version {version!r} "
            f"(this build reads version {BUNDLE_FORMAT_VERSION})"
        )
    return manifest


def load_engine(directory: str | Path, max_workers: int | None = None) -> ReadoutEngine:
    """Reconstruct a :class:`ReadoutEngine` from a bundle written by :func:`save_engine`.

    Raises
    ------
    FileNotFoundError
        If the manifest or any file it lists is missing.
    ValueError
        If the format version is unsupported or any checksum does not match.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    _verify_files(directory, manifest)
    backends: list[ReadoutBackend] = []
    for qubit_index, entry in enumerate(manifest.get("qubits", [])):
        qubit_dir = directory / f"qubit{qubit_index}"
        student = _read_student(qubit_dir / "student") if entry.get("student") else None
        kind = entry.get("backend")
        if kind == "float":
            if student is None:
                raise ValueError(
                    f"Bundle entry for qubit {qubit_index} declares a float backend "
                    "but carries no student files"
                )
            backends.append(FloatStudentBackend(student))
        elif kind == "fpga":
            if not entry.get("quantized"):
                raise ValueError(
                    f"Bundle entry for qubit {qubit_index} declares an fpga backend "
                    "but carries no quantized parameters"
                )
            parameters = load_quantized_parameters(qubit_dir / "quantized")
            declared_dtype = entry.get("carrier_dtype")
            actual_dtype = str(parameters.fmt.raw_carrier_dtype)
            if declared_dtype is not None and declared_dtype != actual_dtype:
                raise ValueError(
                    f"Bundle entry for qubit {qubit_index} declares raw carrier "
                    f"dtype {declared_dtype!r} but its quantized parameters use "
                    f"{actual_dtype!r}; the manifest does not match the payload"
                )
            backends.append(FixedPointBackend(parameters, student=student))
        else:
            raise ValueError(
                f"Bundle entry for qubit {qubit_index} names unknown backend {kind!r}"
            )
    if len(backends) != int(manifest.get("n_qubits", len(backends))):
        raise ValueError(
            f"Manifest declares {manifest.get('n_qubits')} qubits but lists "
            f"{len(backends)} backend entries"
        )
    return ReadoutEngine(backends, max_workers=max_workers)
