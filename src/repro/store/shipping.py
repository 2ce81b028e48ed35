"""Shipping a live store to followers: one publisher, one follower.

A follower — a worker process of :mod:`repro.query.multiproc` or a cluster
replica of :mod:`repro.serve.cluster` — stands on a **base image** (one
``.sedg`` file, or a
:meth:`~repro.store.sharding.ShardedStore.save_image_directory` tree) plus
the primary's :class:`~repro.store.delta.WriteLog` replayed on top.  Its
position is ``(generation, epoch)``: the log generation (a new base, so
bootstrap again) and the data epoch.

:class:`Publisher` is the primary's side; :func:`open_follower` and
:func:`replay` are the follower's.  Replay goes through the follower's own
``insert``/``delete``, whose identifier assignment is sequential and
idempotent, so a follower at epoch E has the primary's identifiers.  How
files and slices travel is the transport's business: workers read them from
the shared filesystem, replicas download them over HTTP.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

from repro.store.delta import WriteLog
from repro.store.persistence import load_store, save_store_image
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge
from repro.store.updatable import UpdatableSuccinctEdge


def prune(artifacts: Dict[int, str]) -> None:
    """Delete the files or directories of all but the two newest generations.

    The previous generation is kept because a follower told about it just
    before a rotation may not have attached yet.
    """
    while len(artifacts) > 2:
        path = artifacts.pop(min(artifacts))
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif os.path.exists(path):
            os.remove(path)


class Publisher:
    """The primary's side of shipping: images to bootstrap from, a log to tail.

    Wraps any store — monolithic updatable, sharded, or static (which ships
    its image against an empty log).  A base with no image on disk gets one
    saved into ``workspace`` under its generation's name, once; images of
    superseded generations saved here are pruned.  Without ``workspace`` a
    private temporary directory is used and :meth:`close` removes it.
    """

    def __init__(self, store: SuccinctEdge, workspace: Optional[str] = None) -> None:
        self.store = store
        self._owns_workspace = workspace is None
        if workspace is None:
            workspace = tempfile.mkdtemp(prefix="succinctedge-ship-")
        else:
            os.makedirs(workspace, exist_ok=True)
        self.workspace = str(workspace)
        log = getattr(store, "log", None)
        self._log = log if log is not None else WriteLog(threading.Lock())
        self._lock = threading.Lock()
        self._saved: Dict[int, str] = {}

    def current(self) -> dict:
        """The current generation's shipment, its image saved first if need be.

        Keys: ``kind`` (``image`` or ``shards``), ``root`` (the directory
        holding ``files``), ``files``, ``generation``, ``base_epoch`` (the
        data epoch the images capture) and ``epoch`` (images plus log).
        Sampled under the store's write lock, so image and log position
        belong together even while writes race the call.
        """
        store, log = self.store, self._log
        with self._lock, log.lock:
            if isinstance(store, ShardedStore):
                kind, root = "shards", store.image_directory
                if root is None or not os.path.isdir(root):
                    # None, or removed with another publisher's workspace.  The
                    # save restarts the log: its directory is the next generation.
                    root = self._save(log.generation + 1, "shards-g{}", store.save_image_directory)
                with open(os.path.join(root, ShardedStore.MANIFEST_NAME), "rb") as handle:
                    files = [ShardedStore.MANIFEST_NAME] + json.loads(handle.read())["files"]
            else:
                kind = "image"
                base = store.base if isinstance(store, UpdatableSuccinctEdge) else store
                path = getattr(getattr(base, "image", None), "path", None)
                if path is None:
                    path = self._saved.get(log.generation) or self._save(
                        log.generation,
                        "base-g{}.sedg",
                        lambda target: save_store_image(base, target, atomic=True),
                    )
                root, name = os.path.split(os.path.abspath(str(path)))
                files = [name]
            return {
                "kind": kind,
                "root": root,
                "files": files,
                "generation": log.generation,
                "base_epoch": log.base_epoch,
                "epoch": log.epoch,
            }

    def _save(self, generation: int, name: str, write) -> str:
        """Save one generation's image in the workspace under its own (never rewritten) name."""
        path = os.path.join(self.workspace, name.format(generation))
        write(path)
        self._saved[generation] = path
        prune(self._saved)
        return path

    def position(self) -> Tuple[int, int]:
        """The current ``(generation, epoch)``, published first.

        A coordinator must never pin a position followers cannot bootstrap to.
        """
        shipment = self.current()
        return shipment["generation"], shipment["epoch"]

    def manifest(self) -> dict:
        """The bootstrap document: :meth:`current` without the local ``root``."""
        shipment = self.current()
        del shipment["root"]
        return shipment

    def file_bytes(self, name: str) -> bytes:
        """One file of the current shipment; unknown names raise :class:`KeyError`."""
        shipment = self.current()
        if name not in shipment["files"]:
            raise KeyError(name)
        with open(os.path.join(shipment["root"], name), "rb") as handle:
            return handle.read()

    def slice(self, generation: int, applied: int, upto_epoch: Optional[int] = None) -> dict:
        """The log suffix a follower is missing (:meth:`WriteLog.slice`)."""
        return self._log.slice(generation, applied, upto_epoch)

    def close(self) -> None:
        """Remove the owned workspace (saved images); idempotent."""
        if self._owns_workspace:
            shutil.rmtree(self.workspace, ignore_errors=True)


def open_follower(kind: str, root: str, files: List[str]) -> SuccinctEdge:
    """A writable store over the memory-mapped images of a shipment."""
    if kind == "shards":
        return ShardedStore.load_image_directory(root, mmap=True, updatable=True)
    return UpdatableSuccinctEdge(load_store(os.path.join(root, files[0]), mmap=True))


def replay(store: SuccinctEdge, operations) -> None:
    """Apply a slice's ``(op, triple)`` pairs through the store's own write path."""
    for operation, triple in operations:
        if operation == "insert":
            store.insert(triple)
        else:
            store.delete(triple)
