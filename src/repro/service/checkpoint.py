"""Durable per-job checkpoints: specs, stage journals, final reports.

Layout (everything under one root directory, one subdirectory per job)::

    <root>/<job_id>/spec.pkl      -- the pickled JobSpec (what was submitted)
    <root>/<job_id>/progress.pkl  -- append-only stage journal (resume point)
    <root>/<job_id>/report.json   -- final canonical report bytes
    <root>/<job_id>/state.json    -- lifecycle record (terminal state,
                                     resume-attempt counter, started flag)

``progress.pkl`` is an append-only journal with one sha256-framed ``(stage
key, value)`` record per finished non-local stage, pickled as the stage
finishes.  Local stages (the bundle, signature, transition preparation and
skew sweep, expanders, trims, merges, report assembly) are never written;
they re-run on resume.  Non-local values cross a pipe in
every pooled run, so pickling them one by one changes no report byte (the
pooled differential suites prove it); local outputs alias and mutate
earlier artifacts, so they are re-derived, never stored.  Expansion
children are keyed by shard index only, so the first record holds the
shard plan (shard counts) the journal was made under.  On load a torn
tail is cut back to the longest valid record prefix (logged).  A journal
from another plan is logged and ignored, and a file that is no journal --
a whole-store snapshot from older code, an unframed blob -- is logged and
ignored without being unpickled; either way the job re-runs from its
spec.  :class:`CheckpointStore` is the seam the crash-injection suite
subclasses to inject failures at exact checkpoint boundaries.

``state.json`` is the durable job-*lifecycle* record (PR 10).  It carries
three facts recovery needs that the other artifacts cannot express: the
terminal state of a cancelled/timed-out/quarantined job (so a restart does
not blindly resume a job the user stopped on purpose), the resume-attempt
counter behind crash-loop quarantine, and a ``started`` flag distinguishing
a job that actually began executing (and may have crashed the process) from
one that merely waited in the queue behind it -- only started jobs burn
resume attempts.  It is plain JSON, not pickle: human-inspectable during
incident response, and a corrupt record degrades to "no lifecycle info"
(the job resumes normally) rather than poisoning recovery.

Specs, reports and lifecycle records are written atomically (temp file +
``os.replace``).  Specs are sha256-framed, so a torn or corrupt spec is
*detected* on load, logged, and recovery skips that job.  An unframed spec
(older code pickled specs bare) is treated the same way: logged, read as
``None`` without being unpickled, and its job skipped at recovery -- as an
unframed ``progress.pkl`` is ignored.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Optional

logger = logging.getLogger(__name__)

SPEC_FILE = "spec.pkl"
PROGRESS_FILE = "progress.pkl"
REPORT_FILE = "report.json"
STATE_FILE = "state.json"

#: Spec frame: magic + 64 hex chars of sha256(payload) + newline + payload.
#: Older code framed whole-store progress snapshots the same way.
CHECKSUM_MAGIC = b"repro-ckpt-v1\n"
_DIGEST_LEN = 64
#: Journal record: magic + 16 hex chars of the payload length + 64 hex
#: chars of sha256(payload) + newline + payload, a pickled (key, value).
JOURNAL_MAGIC = b"repro-jrnl-v1\n"
_RECORD_HEADER_LEN = len(JOURNAL_MAGIC) + 16 + _DIGEST_LEN + 1
#: Key of every journal's first record: the shard plan of its records.
PLAN_KEY = "__plan__"


def _sha256(payload: bytes) -> bytes:
    return hashlib.sha256(payload).hexdigest().encode("ascii")


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _frame(payload: bytes) -> bytes:
    return CHECKSUM_MAGIC + _sha256(payload) + b"\n" + payload


def _load_pickle(path: Path):
    """Load a checksum-framed pickle; an unframed, corrupt or unreadable
    file reads as ``None``, logged."""
    if not path.exists():
        return None
    payload = path.read_bytes()
    if not payload.startswith(CHECKSUM_MAGIC):
        logger.warning(
            "checkpoint %s: unframed blob, not a framed checkpoint; "
            "ignoring it",
            path,
        )
        return None
    header_end = len(CHECKSUM_MAGIC) + _DIGEST_LEN
    digest = payload[len(CHECKSUM_MAGIC) : header_end]
    payload = payload[header_end + 1 :]
    if _sha256(payload) != digest:
        logger.warning(
            "checkpoint %s: checksum mismatch (corrupt or truncated); "
            "ignoring it",
            path,
        )
        return None
    try:
        return pickle.loads(payload)
    except Exception as error:
        logger.warning(
            "checkpoint %s: unreadable blob (%s: %s); ignoring it",
            path,
            type(error).__name__,
            error,
        )
        return None


def _journal_record(key: str, value) -> bytes:
    payload = pickle.dumps((key, value))
    header = JOURNAL_MAGIC + b"%016x" % len(payload) + _sha256(payload)
    return header + b"\n" + payload


def _read_journal(blob: bytes, path: Path) -> tuple[dict, int]:
    """The journaled ``key -> value`` map and the byte length of the
    longest valid record prefix; whatever follows is logged and dropped."""
    if blob and not blob.startswith(JOURNAL_MAGIC[: len(blob)]):
        kind = "unframed blob"
        if blob.startswith(CHECKSUM_MAGIC):
            kind = "whole-store snapshot from older code"
        logger.warning(
            "checkpoint %s: %s, not a stage journal; ignoring it (the job "
            "re-runs from its spec)", path, kind
        )
        return {}, 0
    values: dict = {}
    end = 0
    while end < len(blob):
        header = blob[end : end + _RECORD_HEADER_LEN]
        start = end + _RECORD_HEADER_LEN
        try:
            if len(header) < _RECORD_HEADER_LEN:
                raise ValueError("truncated record header")
            length = int(header[len(JOURNAL_MAGIC) : -1 - _DIGEST_LEN], 16)
            payload = blob[start : start + length]
            if len(payload) < length:
                raise ValueError("truncated record payload")
            if _sha256(payload) != header[-1 - _DIGEST_LEN : -1]:
                raise ValueError("record checksum mismatch")
            key, value = pickle.loads(payload)
        except Exception as error:
            logger.warning(
                "checkpoint %s: %s at byte %d; keeping the records before "
                "it, the stages after re-run", path, error, end
            )
            break
        values[key] = value
        end = start + length
    return values, end


class CheckpointStore:
    """Filesystem-backed durability for :class:`~repro.service.CampaignService`.

    Methods only ever raise for genuine I/O or unpickling errors; a missing
    artifact reads as ``None`` (jobs legitimately have no progress yet, and
    recovery probes for reports that may not exist).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Per job: journal records captured but not yet appended.
        self._pending: dict[str, list[bytes]] = {}
        #: Per job: the shard plan a new journal is headed with.
        self._plans: dict[str, object] = {}

    # -- paths --------------------------------------------------------- #
    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def _path(self, job_id: str, name: str) -> Path:
        return self.job_dir(job_id) / name

    # -- specs --------------------------------------------------------- #
    def save_spec(self, job_id: str, spec) -> None:
        """Persist the submission itself, so a restart can re-run it."""
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        _atomic_write(self._path(job_id, SPEC_FILE), _frame(pickle.dumps(spec)))

    def load_spec(self, job_id: str):
        """The submitted spec, or ``None`` if absent or unreadable (logged)."""
        return _load_pickle(self._path(job_id, SPEC_FILE))

    # -- progress ------------------------------------------------------ #
    def record_stage(self, job_id: str, node, value) -> None:
        """Capture a finished stage for the next :meth:`save_progress`.

        A non-local value is pickled now: later, local stages may have
        mutated it.  Local stages are skipped; they re-run on resume.
        """
        if not node.local:
            self._pending.setdefault(job_id, []).append(
                _journal_record(node.key, value)
            )

    def save_progress(self, job_id: str, run) -> None:
        """Append the records captured since the last save to the journal.

        ``run`` is the live :class:`~repro.campaign.scheduler.PipelineRun`
        they came from, passed so subclasses can act at this exact
        checkpoint boundary.  ``progress.pkl`` exists afterwards even when
        there was nothing to append; a new journal starts with the plan
        record.
        """
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        with open(self._path(job_id, PROGRESS_FILE), "ab") as handle:
            if handle.tell() == 0:
                handle.write(_journal_record(PLAN_KEY, self._plans.get(job_id)))
            handle.writelines(self._pending.pop(job_id, ()))

    def load_progress(self, job_id: str, plan=None) -> Optional[dict]:
        """The journaled stage values (``key -> value``), or ``None``.

        ``plan`` is the resuming run's shard plan; a journal made under
        another plan holds shard records that would satisfy the wrong
        nodes, so it is logged and dropped.  A torn or foreign tail is
        truncated away here, so the next append follows the valid prefix.
        Records captured but never saved are dropped: they belong to the
        run being resumed.
        """
        self._pending.pop(job_id, None)
        self._plans[job_id] = plan
        path = self._path(job_id, PROGRESS_FILE)
        if not path.exists():
            return None
        blob = path.read_bytes()
        values, end = _read_journal(blob, path)
        journal_plan = values.pop(PLAN_KEY, None)
        if end and journal_plan != plan:
            logger.warning(
                "checkpoint %s: journal made under shard plan %r, not %r; "
                "ignoring it (the job re-runs from its spec)",
                path, journal_plan, plan,
            )
            values, end = {}, 0
        if end < len(blob):
            os.truncate(path, end)
        return values or None

    def has_progress(self, job_id: str) -> bool:
        """Whether a resume point exists on disk (no unpickling; existence
        only -- a corrupt journal still reads as ``None`` on load)."""
        return self._path(job_id, PROGRESS_FILE).exists()

    def drop_unsaved(self, job_id: str) -> None:
        """Forget the records captured but not yet saved: their run died,
        and a resume re-runs their stages."""
        self._pending.pop(job_id, None)
        self._plans.pop(job_id, None)

    def discard_progress(self, job_id: str) -> None:
        """Drop the resume point (the job finished; the report is durable)."""
        self.drop_unsaved(job_id)
        path = self._path(job_id, PROGRESS_FILE)
        if path.exists():
            path.unlink()

    # -- reports ------------------------------------------------------- #
    def save_report(self, job_id: str, report: bytes) -> None:
        """Persist the final canonical report bytes (marks the job done)."""
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        _atomic_write(self._path(job_id, REPORT_FILE), report)

    def load_report(self, job_id: str) -> Optional[bytes]:
        path = self._path(job_id, REPORT_FILE)
        if not path.exists():
            return None
        return path.read_bytes()

    # -- lifecycle ----------------------------------------------------- #
    def load_lifecycle(self, job_id: str) -> dict:
        """The job's durable lifecycle record; ``{}`` if absent/corrupt.

        Keys (all optional): ``state`` (a terminal state a restart must
        honour -- ``"cancelled"``, ``"timeout"``, ``"quarantined"``),
        ``reason``, ``resume_attempts`` (int), ``started`` (bool).
        """
        path = self._path(job_id, STATE_FILE)
        if not path.exists():
            return {}
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            logger.warning(
                "checkpoint %s: unreadable lifecycle record (%s: %s); "
                "treating the job as having no lifecycle history",
                path,
                type(error).__name__,
                error,
            )
            return {}
        if not isinstance(record, dict):
            logger.warning(
                "checkpoint %s: unexpected lifecycle shape; ignoring it", path
            )
            return {}
        return record

    def save_lifecycle(self, job_id: str, **fields) -> dict:
        """Merge ``fields`` into the lifecycle record and persist it."""
        record = self.load_lifecycle(job_id)
        record.update(fields)
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        _atomic_write(
            self._path(job_id, STATE_FILE),
            json.dumps(record, sort_keys=True).encode("utf-8"),
        )
        return record

    def mark_started(self, job_id: str) -> None:
        """Record that the job began executing (it now burns resume
        attempts if the process dies before it finishes)."""
        self.save_lifecycle(job_id, started=True)

    def mark_state(self, job_id: str, state: str, reason: str = "") -> None:
        """Persist a terminal lifecycle state a restart must honour."""
        self.save_lifecycle(job_id, state=state, reason=reason)

    def bump_resume_attempts(self, job_id: str) -> int:
        """Count one recovery of a previously-*started* job; returns the
        new total.  Clears ``started`` -- the attempt is only re-armed when
        the resumed job actually begins executing again."""
        attempts = int(self.load_lifecycle(job_id).get("resume_attempts", 0)) + 1
        self.save_lifecycle(job_id, resume_attempts=attempts, started=False)
        return attempts

    def clear_lifecycle(self, job_id: str) -> None:
        """Drop the lifecycle record (job finished, or an operator
        explicitly resubmitted it with a fresh history)."""
        path = self._path(job_id, STATE_FILE)
        if path.exists():
            path.unlink()

    # -- recovery ------------------------------------------------------ #
    def job_ids(self) -> list[str]:
        """Every job directory, sorted (ids sort chronologically by design)."""
        if not self.root.exists():
            return []
        return sorted(
            entry.name for entry in self.root.iterdir() if entry.is_dir()
        )

    def pending_jobs(self) -> list[str]:
        """Jobs with a spec but no final report: what a restart must resume."""
        return [
            job_id
            for job_id in self.job_ids()
            if self._path(job_id, SPEC_FILE).exists()
            and not self._path(job_id, REPORT_FILE).exists()
        ]
