"""Virtual synchrony checkers.

These validate, over completed runs, the guarantees Section 5 states:

* **View agreement** — "Each member in the current view is guaranteed
  either to accept that same view, or to be removed from that view":
  any two members that install a view with the same identifier must
  have installed identical membership lists, and each member's view
  epochs must be strictly increasing.
* **Virtual synchrony** — "Messages sent in the current view are
  delivered to the surviving members of the current view": any two
  members that both *complete* a view (install its successor) must have
  delivered exactly the same per-source message sequence inside it.
* **Relacs view synchrony** (Section 9) — concurrent views (same epoch,
  different identity) must be non-overlapping.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.core.group import GroupHandle
from repro.core.view import ViewId
from repro.errors import VerificationError


def _fail(violations: List[str], message: str) -> None:
    if violations:
        raise VerificationError(message, violations)


def check_view_agreement(handles: Iterable[GroupHandle]) -> None:
    """Same ViewId ⇒ same members; per-member epochs strictly increase."""
    handles = list(handles)
    violations: List[str] = []
    seen: Dict[ViewId, Tuple] = {}
    for handle in handles:
        epochs = [v.view_id.epoch for v in handle.view_history]
        if epochs != sorted(set(epochs)):
            violations.append(
                f"{handle.endpoint_address}: view epochs not strictly "
                f"increasing: {epochs}"
            )
        for view in handle.view_history:
            previous = seen.get(view.view_id)
            if previous is None:
                seen[view.view_id] = view.members
            elif previous != view.members:
                violations.append(
                    f"view {view.view_id} installed with different members: "
                    f"{previous} vs {view.members}"
                )
    _fail(violations, "view agreement violated")


#: source -> the cast bodies delivered from it, in delivery order.
_Stream = Dict[str, List[bytes]]

#: Differing messages spelled out per sender in one violation.
_MAX_SHOWN = 3


def _deliveries_by_view(handle: GroupHandle) -> Dict[ViewId, _Stream]:
    """Per view, per source: what was delivered while it was current."""
    result: Dict[ViewId, _Stream] = defaultdict(lambda: defaultdict(list))
    for delivered in handle.delivery_log:
        if delivered.view is not None and delivered.was_cast:
            result[delivered.view.view_id][str(delivered.source)].append(
                delivered.data
            )
    return result


def check_virtual_synchrony(handles: Iterable[GroupHandle]) -> None:
    """Members that complete a view *together* delivered identical
    per-source streams inside it.

    A member *completes* view V when it installs a successor view; a
    member that crashed while V was current is exempt for V.  Under the
    extended virtual synchrony of Section 9, members that move to
    *different* successor views (they were partitioned) are allowed
    different delivery sets, so the comparison groups members by the
    (view, successor-view) transition they took.

    In Set-Constrained Delivery terms a view's closing cut is one set,
    identical at every member that installs the successor.  A violation
    therefore names, per sender, the symmetric difference of two
    members' sets and, for each differing message, the view in which
    every member of the run delivered it — "delivered everywhere: v8 at
    n4, v9 at 6 members" is a message that crossed the cut, "not
    delivered at n4" is one that was lost.
    """
    handles = list(handles)
    # One pass over each delivery log, however many transitions follow.
    logs = [
        (str(handle.endpoint_address), _deliveries_by_view(handle))
        for handle in handles
    ]
    violations: List[str] = []
    # Who completed which view, toward which successor?
    completed: Dict[Tuple[ViewId, ViewId], List[int]] = defaultdict(list)
    for index, handle in enumerate(handles):
        history = handle.view_history
        for view, successor in zip(history, history[1:]):
            completed[(view.view_id, successor.view_id)].append(index)
    for (view_id, _successor_id), members in completed.items():
        closing = [logs[index][0] for index in members]
        reference, reference_views = logs[members[0]]
        expected = reference_views.get(view_id, {})
        for index in members[1:]:
            member, views = logs[index]
            stream = views.get(view_id, {})
            if stream != expected:
                # The diagnosis first: callers keep ~160 characters.
                violations.append(
                    f"view {view_id}: {member} vs {reference}: "
                    + _difference(stream, expected, closing, logs)
                )
    _fail(violations, "virtual synchrony violated")


def _difference(
    stream: _Stream, expected: _Stream,
    closing: List[str], logs: List[Tuple[str, Dict[ViewId, _Stream]]],
) -> str:
    """Per sender: what ``stream`` has extra or is missing against
    ``expected`` (bodies by their first 8 bytes), and where each went."""
    parts = []
    for source in sorted(set(stream) | set(expected)):
        mine, theirs = stream.get(source, []), expected.get(source, [])
        if mine == theirs:
            continue
        had, has = set(theirs), set(mine)
        extra = [data for data in mine if data not in had]
        missing = [data for data in theirs if data not in has]
        if not extra and not missing:
            parts.append(f"from {source} the same {len(mine)} in another order")
            continue
        differing = extra + missing
        shown = "; ".join(
            f"{data[:8]!r} {_whereabouts(source, data, closing, logs)}"
            for data in differing[:_MAX_SHOWN]
        )
        if len(differing) > _MAX_SHOWN:
            shown += f"; and {len(differing) - _MAX_SHOWN} more"
        parts.append(
            f"from {source} {len(extra)} extra, {len(missing)} missing: {shown}"
        )
    return " | ".join(parts)


def _whereabouts(
    source: str, data: bytes, closing: List[str],
    logs: List[Tuple[str, Dict[ViewId, _Stream]]],
) -> str:
    """In which view each member of the run delivered one message."""
    seen: Dict[ViewId, List[str]] = defaultdict(list)
    for name, views in logs:
        for view_id, stream in views.items():
            if data in stream.get(source, ()):
                seen[view_id].append(name)
    delivered = {name for members in seen.values() for name in members}
    absent = [name for name in closing if name not in delivered]
    verdict = (
        f"not delivered at {', '.join(absent)}" if absent
        else "delivered everywhere"
    )
    places = ", ".join(
        f"{view_id} at "
        + (", ".join(members) if len(members) <= 3 else f"{len(members)} members")
        for view_id, members in sorted(seen.items())
    )
    return f"{verdict}: {places}" if places else verdict


def check_view_synchrony_relacs(handles: Iterable[GroupHandle]) -> None:
    """Concurrent views are identical or non-overlapping (Relacs)."""
    handles = list(handles)
    violations: List[str] = []
    by_epoch: Dict[int, Dict[ViewId, Tuple]] = defaultdict(dict)
    for handle in handles:
        for view in handle.view_history:
            by_epoch[view.view_id.epoch][view.view_id] = view.members
    for epoch, views in by_epoch.items():
        ids = list(views)
        for i, vid_a in enumerate(ids):
            for vid_b in ids[i + 1 :]:
                overlap = set(views[vid_a]) & set(views[vid_b])
                if overlap:
                    violations.append(
                        f"concurrent views {vid_a} and {vid_b} share members "
                        f"{sorted(str(m) for m in overlap)}"
                    )
    _fail(violations, "Relacs view synchrony violated")
