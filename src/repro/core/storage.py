"""Persist computed path profiles to disk.

Computing all-pairs profiles of a long trace can take minutes; analyses
(CDFs, diameters, ablations) then reread the same profiles many times.
This module writes the columns of a :class:`PathProfileSet` (see
:class:`~repro.core.optimal.SourceProfiles`) to one uncompressed
``.npz`` file and restores them losslessly, including the per-hop-bound
snapshots and fixpoint round counts.

Format version 3 is six arrays plus a JSON index, whatever the number
of profiles:

* ``source_offsets`` (int64, sources + 1): source ``i`` owns function
  rows ``source_offsets[i]:source_offsets[i + 1]``;
* ``tags`` / ``dests`` (int32, one per function): the bound tag
  (:data:`~repro.core.optimal.FINAL_TAG` or a recorded hop bound) and
  the destination's position in the roster;
* ``offsets`` (int64, functions + 1): function ``j`` owns points
  ``offsets[j]:offsets[j + 1]`` — global over all sources;
* ``lds`` / ``eas`` (float64): the Pareto points, concatenated;
* ``__index__`` (JSON bytes): version, hop bounds, the roster as node
  tokens, each source's roster position and fixpoint round, and the
  trace's digest, contact and node counts.

Loading reads the arrays, validates them, and hands each source views
of its rows — no per-function Python objects are built.

Every file embeds the content digest of the trace it was computed from
(:func:`trace_digest`) plus its contact count; :func:`load_profiles`
verifies both against the supplied network and fails loudly on any
mismatch, so a profiles file can never silently load against the wrong
trace and yield wrong diameters.  A file that is not a readable archive
or whose columns disagree with each other raises ValueError as well.

The roster is stored as node tokens (``i:<int>`` or ``s:<str>``, the two
supported kinds, which cover every trace this library produces or
reads) and must equal the supplied network's roster token for token;
destination and source ids are positions in it.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from .contact import Node
from .optimal import FINAL_TAG, PathProfileSet, SourceProfiles
from .temporal_network import TemporalNetwork

PathLike = Union[str, Path]

#: Version 2 added the embedded trace digest + contact count; version 3
#: replaced one archive member per function with the column arrays.
_FORMAT_VERSION = 3

#: the column members of a version-3 file, besides ``__index__``.
_COLUMNS = ("source_offsets", "tags", "dests", "offsets", "lds", "eas")


def trace_digest(network: TemporalNetwork) -> str:
    """Content digest of a trace: nodes, contacts and directedness.

    Times are hashed through ``float.hex`` (exact), so the digest is
    stable across processes and platforms but changes whenever any
    contact, endpoint or the roster changes.  Used to bind profiles
    files (and cache entries) to the exact trace they were computed on.
    """
    h = hashlib.sha256()
    h.update(b"repro.trace/1\n")
    h.update(b"directed\n" if network.directed else b"undirected\n")
    for node in network.nodes:
        h.update(_encode_node(node).encode("utf-8"))
        h.update(b"\n")
    for c in network.contacts:
        line = (
            f"{_encode_node(c.u)}|{_encode_node(c.v)}"
            f"|{float(c.t_beg).hex()}|{float(c.t_end).hex()}\n"
        )
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def _encode_node(node: Node) -> str:
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise TypeError(
            f"only int and str node ids can be serialised, got {type(node)}"
        )
    prefix = "i" if isinstance(node, int) else "s"
    return f"{prefix}:{node}"


def profiles_digest(profiles: PathProfileSet) -> str:
    """Canonical content digest of everything :func:`save_profiles`
    persists: hop bounds, the source roster in order, per-source
    fixpoint rounds, and every final/snapshot delivery function with
    exact (``float.hex``) values in stored order.

    Two profile sets digest equally iff their saved ``.npz`` files are
    content-identical — the archive *bytes* differ across runs (zip
    member timestamps), so engine-parity checks (scalar vs vec vs
    worker-pool) compare this digest instead of file hashes.
    """
    h = hashlib.sha256()
    h.update(b"repro.profiles/1\n")
    h.update(json.dumps(list(profiles.hop_bounds)).encode("utf-8"))
    h.update(b"\n")
    tokens = [_encode_node(node) for node in profiles.network.nodes]
    for source in profiles.sources:
        sp = profiles.source_profiles(source)
        h.update(f"src {_encode_node(source)} r{sp.rounds}\n".encode("utf-8"))
        lds = sp.lds.tolist()
        eas = sp.eas.tolist()
        offsets = sp.offsets.tolist()
        for tag, dest, lo, hi in zip(
            sp.tags.tolist(), sp.dests.tolist(), offsets, offsets[1:]
        ):
            label = "f" if tag == FINAL_TAG else f"b{tag}"
            points = "".join(
                f"{ld.hex()},{ea.hex()};" for ld, ea in zip(lds[lo:hi], eas[lo:hi])
            )
            h.update(f"{label} {tokens[dest]} {points}\n".encode("utf-8"))
    return h.hexdigest()


def save_profiles(profiles: PathProfileSet, path: PathLike) -> None:
    """Write a profile set's columns to an uncompressed ``.npz`` file."""
    roster = profiles.network.nodes
    node_ids = {node: i for i, node in enumerate(roster)}
    sps = [profiles.source_profiles(source) for source in profiles.sources]
    index = {
        "version": _FORMAT_VERSION,
        "hop_bounds": list(profiles.hop_bounds),
        "trace": {
            "digest": trace_digest(profiles.network),
            "contacts": profiles.network.num_contacts,
            "nodes": len(roster),
        },
        "roster": [_encode_node(node) for node in roster],
        "sources": [node_ids[sp.source] for sp in sps],
        "rounds": [sp.rounds for sp in sps],
    }

    def column(parts: List[np.ndarray], dtype: type) -> np.ndarray:
        # The leading empty part keeps a source-less set concatenable.
        return np.concatenate([np.zeros(0, dtype), *parts]).astype(dtype, copy=False)

    def offsets_of(sizes: np.ndarray) -> np.ndarray:
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return offsets

    np.savez(
        path,
        __index__=np.frombuffer(json.dumps(index).encode("utf-8"), dtype=np.uint8),
        source_offsets=offsets_of(np.asarray([sp.tags.size for sp in sps], np.int64)),
        tags=column([sp.tags for sp in sps], np.int32),
        dests=column([sp.dests for sp in sps], np.int32),
        offsets=offsets_of(column([np.diff(sp.offsets) for sp in sps], np.int64)),
        lds=column([sp.lds for sp in sps], np.float64),
        eas=column([sp.eas for sp in sps], np.float64),
    )


def _read_arrays(path: PathLike) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The JSON index and column arrays of a version-3 profiles archive.

    ValueError when the file is not a complete archive (truncated, torn,
    or not an ``.npz``), is another format version, or lacks a column.
    """
    try:
        with np.load(path) as data:
            if "__index__" not in data.files:
                raise ValueError("profiles file has no index")
            try:
                index = json.loads(bytes(data["__index__"]).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ValueError(f"unreadable profiles index: {exc}") from exc
            version = index.get("version") if isinstance(index, dict) else None
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported profiles file version {version}")
            missing = [name for name in _COLUMNS if name not in data.files]
            if missing:
                raise ValueError(f"profiles file lacks columns {missing}")
            return index, {name: data[name] for name in _COLUMNS}
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"unreadable profiles file: {exc}") from exc


def _check_offsets(name: str, offsets: np.ndarray, rows: int, stop: int) -> None:
    """``offsets`` must be a non-decreasing 0..stop run of rows + 1 entries."""
    if (
        offsets.size != rows + 1
        or offsets[0] != 0
        or offsets[-1] != stop
        or bool(np.any(np.diff(offsets) < 0))
    ):
        raise ValueError(
            f"profiles file has inconsistent {name}: expected {rows + 1} "
            f"non-decreasing offsets from 0 to {stop}"
        )


def load_profiles(path: PathLike, network: TemporalNetwork) -> PathProfileSet:
    """Restore a profile set saved by :func:`save_profiles`.

    The temporal network is supplied by the caller (profiles files do not
    embed the trace itself); the file's embedded trace digest and contact
    count must match it exactly, otherwise a ValueError is raised — a
    profiles file must never silently load against a different trace.
    Unreadable archives and inconsistent columns (offsets that do not
    cover the points, destination ids outside the roster, unknown bound
    tags, unsorted rows) raise ValueError too.
    """
    index, arrays = _read_arrays(path)
    try:
        contacts = int(index["trace"]["contacts"])
        recorded_digest = str(index["trace"]["digest"])
        tokens = list(index["roster"])
        hop_bounds = tuple(int(bound) for bound in index["hop_bounds"])
        sources: List[int] = [int(i) for i in index["sources"]]
        rounds: List[int] = [int(r) for r in index["rounds"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed profiles index: {exc!r}") from exc
    if contacts != network.num_contacts:
        raise ValueError(
            f"profiles file was computed from a different trace: it "
            f"records {contacts} contacts, the supplied "
            f"network has {network.num_contacts}"
        )
    digest = trace_digest(network)
    if recorded_digest != digest:
        raise ValueError(
            "profiles file was computed from a different trace: "
            f"embedded digest {recorded_digest[:12]}... does not "
            f"match the supplied network ({digest[:12]}...)"
        )
    roster = network.nodes
    if tokens != [_encode_node(node) for node in roster]:
        raise ValueError("profiles file roster does not match the network")
    if (
        len(rounds) != len(sources)
        or len(set(sources)) != len(sources)
        or any(not 0 <= i < len(roster) for i in sources)
    ):
        raise ValueError("profiles file has an inconsistent source list")

    source_offsets = arrays["source_offsets"]
    tags = arrays["tags"]
    dests = arrays["dests"]
    offsets = arrays["offsets"]
    lds = arrays["lds"]
    eas = arrays["eas"]
    for name, array, kind in (
        ("source_offsets", source_offsets, "i"),
        ("tags", tags, "i"),
        ("dests", dests, "i"),
        ("offsets", offsets, "i"),
        ("lds", lds, "f"),
        ("eas", eas, "f"),
    ):
        if array.ndim != 1 or array.dtype.kind != kind:
            raise ValueError(f"profiles file column {name} has the wrong type")
    functions = tags.size
    if dests.size != functions or eas.size != lds.size:
        raise ValueError("profiles file columns differ in length")
    _check_offsets("source offsets", source_offsets, len(sources), functions)
    _check_offsets("point offsets", offsets, functions, lds.size)
    if functions and (int(dests.min()) < 0 or int(dests.max()) >= len(roster)):
        raise ValueError("profiles file has a destination id outside the roster")
    known = np.asarray((FINAL_TAG,) + hop_bounds, dtype=np.int64)
    if not np.isin(tags, known).all():
        raise ValueError("profiles file has an unknown bound tag")
    # Rows must strictly increase by (tag, destination) within a source:
    # the per-pair view and the segment gather rely on that order.
    row_key = np.searchsorted(np.sort(known), tags).astype(np.int64) * len(
        roster
    ) + dests
    rising = np.diff(row_key) > 0
    cuts = source_offsets[1:-1]
    rising[cuts[(cuts > 0) & (cuts < functions)] - 1] = True
    if not rising.all():
        raise ValueError("profiles file rows are not sorted by bound and destination")

    by_source: Dict[Node, SourceProfiles] = {}
    for slot, (node_id, source_rounds) in enumerate(zip(sources, rounds)):
        lo, hi = int(source_offsets[slot]), int(source_offsets[slot + 1])
        p0, p1 = int(offsets[lo]), int(offsets[hi])
        source = roster[node_id]
        by_source[source] = SourceProfiles(
            source,
            hop_bounds,
            roster,
            tags[lo:hi],
            dests[lo:hi],
            offsets[lo : hi + 1] - p0,
            lds[p0:p1],
            eas[p0:p1],
            source_rounds,
        )
    return PathProfileSet(network, by_source, hop_bounds)
