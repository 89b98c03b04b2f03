"""Zero-downtime model lifecycle: the versioned bundle registry and its watcher.

Real readout hardware recalibrates constantly, so a deployed discriminator
is retrained and redeployed while the feedback loop keeps running.  This
module holds the artifact-management half of that story; the serving half
(:meth:`~repro.service.ReadoutService.swap_bundle`, forward to a new
version or back to an earlier one) lives in :mod:`repro.service.service`.

* :class:`BundleRegistry` -- a directory of **immutable versioned bundles**
  with a JSON index.  ``publish()`` copies an artifact bundle in (verifying
  every SHA-256 checksum before *and* after the copy), ``resolve()`` hands
  back a re-verified bundle path by version name (or the latest), and
  ``gc()`` trims old versions while protecting the latest and anything
  pinned.  Bundle identity is the content hash from
  :func:`repro.engine.bundle.compute_bundle_id` -- two registries holding
  byte-identical payloads agree on the id.
* :class:`RegistryWatcher` -- the ingestion edge: a retrain pipeline drops
  finished bundles into ``<registry>/staging/``; the watcher polls, verifies
  the manifest and every checksum, and only then **adopts** the artifact as
  a registry version (invalid or still-copying directories are skipped and
  recorded, never half-adopted).  ``on_loadable`` is the hook a serving host
  uses to trigger a hot swap the moment a new calibration lands.

Registry layout::

    registry/
      index.json          {"versions": {name: {bundle_id, created_utc,
                           published_utc}}, "latest": name}
      v0001/              an immutable bundle (manifest.json + payloads)
      v0002/
      staging/            retrain pipelines drop candidate bundles here;
                          the watcher verifies and adopts them
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from pathlib import Path

from repro.engine.bundle import (
    MANIFEST_NAME,
    _verify_files,
    bundle_id_of,
    load_manifest,
)

__all__ = [
    "REGISTRY_INDEX_NAME",
    "STAGING_DIR_NAME",
    "BundleRegistry",
    "RegistryError",
    "RegistryWatcher",
]

REGISTRY_INDEX_NAME = "index.json"
STAGING_DIR_NAME = "staging"

#: Version names: filesystem-safe, no path tricks, not the reserved names.
_VERSION_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_RESERVED_NAMES = frozenset({STAGING_DIR_NAME, REGISTRY_INDEX_NAME})


class RegistryError(RuntimeError):
    """A registry operation failed (unknown version, name collision, ...)."""


class BundleRegistry:
    """A directory of immutable versioned bundles with a manifest index.

    Publishing is copy-then-verify-then-rename: the artifact is checksummed
    at the source, copied into a hidden work directory, re-checksummed
    there, and only then renamed into place and recorded in the index -- a
    torn copy (disk full, process killed mid-publish) can never become a
    resolvable version.  Versions are immutable once published; ``resolve``
    re-verifies every checksum so silent corruption fails loudly at load
    time, exactly like :func:`repro.engine.bundle.load_engine`.

    Thread-safe: the index is guarded by a lock, and the filesystem steps
    use unique work directories, so a watcher thread adopting staged
    artifacts can run alongside publishes from the control plane.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.staging_dir = self.root / STAGING_DIR_NAME
        self.staging_dir.mkdir(exist_ok=True)
        self._index_path = self.root / REGISTRY_INDEX_NAME
        self._lock = threading.Lock()
        if self._index_path.exists():
            self._index = json.loads(self._index_path.read_text())
        else:
            self._index = {"versions": {}, "latest": None}

    # ------------------------------------------------------------------ index
    def _write_index(self) -> None:
        """Atomically persist the index (temp file + rename)."""
        tmp = self._index_path.with_name(f".{REGISTRY_INDEX_NAME}.tmp")
        tmp.write_text(json.dumps(self._index, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self._index_path)

    def versions(self) -> list[str]:
        """Published version names, oldest first (publication order)."""
        with self._lock:
            return list(self._index["versions"])

    @property
    def latest(self) -> str | None:
        """The most recently published version name (``None`` when empty)."""
        with self._lock:
            return self._index["latest"]

    def describe(self, version: str) -> dict:
        """The index entry of one version (bundle id, timestamps)."""
        with self._lock:
            entry = self._index["versions"].get(version)
            if entry is None:
                raise RegistryError(
                    f"Registry at {self.root} has no version {version!r} "
                    f"(published: {list(self._index['versions']) or 'none'})"
                )
            return dict(entry)

    def bundle_id(self, version: str) -> str:
        """The content identity of one published version."""
        return self.describe(version)["bundle_id"]

    # ---------------------------------------------------------------- publish
    def _next_auto_version(self) -> str:
        numbered = [
            int(match.group(1))
            for name in self._index["versions"]
            if (match := re.fullmatch(r"v(\d+)", name))
        ]
        return f"v{max(numbered, default=0) + 1:04d}"

    def _validate_name(self, version: str) -> str:
        if not _VERSION_PATTERN.match(version) or version in _RESERVED_NAMES:
            raise RegistryError(
                f"Invalid registry version name {version!r}: names must "
                "match [A-Za-z0-9][A-Za-z0-9._-]* and cannot be reserved "
                f"({sorted(_RESERVED_NAMES)})"
            )
        return version

    def publish(self, bundle_dir: str | Path, version: str | None = None) -> str:
        """Copy a bundle into the registry as a new immutable version.

        Verifies every checksum at the source, copies, re-verifies the
        copy, then renames into place and records the version -- so a
        version that *exists* is always a version that *loads*.  Returns
        the version name (auto-numbered ``v0001``-style when not given).
        """
        source = Path(bundle_dir)
        manifest = load_manifest(source)
        _verify_files(source, manifest)
        bundle_id = bundle_id_of(manifest)
        with self._lock:
            name = (
                self._next_auto_version()
                if version is None
                else self._validate_name(version)
            )
            if name in self._index["versions"]:
                raise RegistryError(
                    f"Registry version {name!r} already exists; published "
                    "versions are immutable"
                )
        destination = self.root / name
        if destination.exists():
            raise RegistryError(
                f"Registry path {destination} exists but is not indexed; "
                "refusing to overwrite it"
            )
        work = self.root / f".publish-{name}-{os.getpid()}-{threading.get_ident()}"
        try:
            shutil.copytree(source, work)
            # Re-verify the *copy*: a torn or bit-flipped copy must fail
            # here, before the rename makes it resolvable.
            _verify_files(work, load_manifest(work))
            os.replace(work, destination)
        except BaseException:
            shutil.rmtree(work, ignore_errors=True)
            raise
        self._record(name, bundle_id, manifest)
        return name

    def _record(self, name: str, bundle_id: str, manifest: dict) -> None:
        with self._lock:
            self._index["versions"][name] = {
                "bundle_id": bundle_id,
                "created_utc": manifest.get("created_utc"),
                "published_utc": time.strftime(
                    "%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()
                ),
                "backend": manifest.get("backend"),
                "n_qubits": manifest.get("n_qubits"),
            }
            self._index["latest"] = name
            self._write_index()

    # ---------------------------------------------------------------- staging
    def adopt_staged(self, staged: str | Path, version: str | None = None) -> str:
        """Promote a verified staging directory into a registry version.

        The watcher's adoption step: the staged artifact is checksummed in
        place and *renamed* (not copied -- it already lives on the registry
        filesystem) into its version slot.  An invalid or torn artifact
        raises without touching the registry.
        """
        staged = Path(staged)
        if staged.parent != self.staging_dir:
            raise RegistryError(
                f"{staged} is not inside the staging area {self.staging_dir}"
            )
        manifest = load_manifest(staged)
        _verify_files(staged, manifest)
        bundle_id = bundle_id_of(manifest)
        with self._lock:
            name = (
                self._next_auto_version()
                if version is None
                else self._validate_name(version)
            )
            if name in self._index["versions"]:
                raise RegistryError(
                    f"Registry version {name!r} already exists; published "
                    "versions are immutable"
                )
        destination = self.root / name
        if destination.exists():
            raise RegistryError(
                f"Registry path {destination} exists but is not indexed; "
                "refusing to overwrite it"
            )
        os.replace(staged, destination)
        self._record(name, bundle_id, manifest)
        return name

    # ---------------------------------------------------------------- resolve
    def resolve(self, version: str | None = None) -> Path:
        """The bundle directory of ``version`` (default: latest), re-verified."""
        with self._lock:
            name = self._index["latest"] if version is None else version
            known = name in self._index["versions"]
        if name is None:
            raise RegistryError(f"Registry at {self.root} has no versions yet")
        if not known:
            raise RegistryError(
                f"Registry at {self.root} has no version {name!r} "
                f"(published: {self.versions() or 'none'})"
            )
        directory = self.root / name
        _verify_files(directory, load_manifest(directory))
        return directory

    # --------------------------------------------------------------------- gc
    def gc(self, keep: int, protect: tuple | list = ()) -> list[str]:
        """Remove the oldest versions beyond the newest ``keep``.

        The latest version and anything in ``protect`` (e.g. the version a
        service is currently serving, or the one it would swap back to) are
        never removed.
        Returns the removed version names, oldest first.
        """
        if keep < 1:
            raise ValueError(f"gc keep must be >= 1, got {keep}")
        protected = set(protect)
        with self._lock:
            names = list(self._index["versions"])
            latest = self._index["latest"]
            excess = len(names) - keep
            victims = [
                name
                for name in names
                if name != latest and name not in protected
            ][: max(0, excess)]
            for name in victims:
                del self._index["versions"][name]
            if victims:
                self._write_index()
        for name in victims:
            shutil.rmtree(self.root / name, ignore_errors=True)
        return victims

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BundleRegistry({str(self.root)!r}, versions={self.versions()})"


# --------------------------------------------------------------------------
# The staging watcher
# --------------------------------------------------------------------------


class RegistryWatcher:
    """Poll the registry's staging area and adopt verified artifacts.

    A retrain pipeline finishes a bundle and drops (or renames) it into
    ``<registry>/staging/``; the watcher notices, verifies the manifest and
    every SHA-256 checksum, and adopts it as a new registry version --
    firing ``on_loadable(version)`` so a serving host can hot-swap to it.
    Directories that fail verification (torn copies still being written,
    tampered payloads) are skipped and recorded in :attr:`skipped`; they
    are re-examined on later polls, so a slow copy is adopted once it
    completes.

    Use ``poll_once()`` for deterministic tests and event-loop embedding,
    or ``start()``/``close()`` for the background polling thread.
    """

    def __init__(
        self,
        registry: BundleRegistry,
        *,
        poll_interval_s: float = 0.5,
        on_loadable=None,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        self.registry = registry
        self.poll_interval_s = float(poll_interval_s)
        self.on_loadable = on_loadable
        self._lock = threading.Lock()
        self._adopted: list[str] = []
        self._skipped: dict[str, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def adopted(self) -> list[str]:
        """Versions this watcher has adopted, in adoption order."""
        with self._lock:
            return list(self._adopted)

    @property
    def skipped(self) -> dict[str, str]:
        """Staged directory names that failed verification, with the reason."""
        with self._lock:
            return dict(self._skipped)

    def poll_once(self) -> list[str]:
        """One scan of the staging area; returns newly adopted versions."""
        adopted: list[str] = []
        for entry in sorted(self.registry.staging_dir.iterdir()):
            if not entry.is_dir():
                continue
            if not (entry / MANIFEST_NAME).exists():
                # Still being copied in (payloads land before the manifest
                # in a well-behaved pipeline) or plain junk: not ours yet.
                with self._lock:
                    self._skipped[entry.name] = "no manifest.json (yet)"
                continue
            try:
                version = self.registry.adopt_staged(entry)
            except Exception as exc:  # noqa: BLE001 - recorded, re-polled
                with self._lock:
                    self._skipped[entry.name] = f"{type(exc).__name__}: {exc}"
                continue
            with self._lock:
                self._skipped.pop(entry.name, None)
                self._adopted.append(version)
            adopted.append(version)
            if self.on_loadable is not None:
                self.on_loadable(version)
        return adopted

    # ------------------------------------------------------------- background
    def start(self) -> "RegistryWatcher":
        """Start the background polling thread.  Idempotent."""
        if self._thread is not None:
            return self
        if self._stop.is_set():
            raise RuntimeError("RegistryWatcher is closed")
        self._thread = threading.Thread(
            target=self._poll_loop, name="registry-watcher", daemon=True
        )
        self._thread.start()
        return self

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - a torn scan must not kill the loop
                continue

    def close(self) -> None:
        """Stop the polling thread (idempotent; poll_once keeps working)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "RegistryWatcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
