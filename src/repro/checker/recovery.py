"""Recovery oracle: a rejoined replica's deliveries across a restart.

When a crashed replica reboots from its WALs and rejoins the
group, three things must hold of its delivery sequence (the order its own
protocol copy delivered messages, pre-crash incarnation and rebooted
incarnation concatenated by the WAL replay):

* **no loss** (``recovery-loss``) — every delivery the pre-crash incarnation
  made is still there after the restart: durable state may not forget;
* **no duplication** (``recovery-dup``) — replaying the WAL and catching up
  from peers must not deliver anything twice;
* **prefix consistency** (``recovery-prefix``) — the rebooted incarnation's
  sequence extends the pre-crash sequence *in order*; recovery may not
  reorder history.

Against a reference survivor (a replica that never crashed), convergence is
also required: same delivered set (``recovery-divergence``) in the same
order (``recovery-order``) once the run quiesces — the restarted replica is
a full group member again, not an approximate one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .properties import CheckReport


def check_recovery(
    pre_crash: Sequence[str],
    rejoined: Sequence[str],
    reference: Optional[Sequence[str]] = None,
    replica: str = "replica",
) -> CheckReport:
    """Check one restarted replica's delivery sequence across its restart.

    ``pre_crash`` is the victim's delivery sequence captured at the instant
    it crashed; ``rejoined`` is the (replayed + new) sequence of the rebooted
    incarnation at the end of the run; ``reference`` is a never-crashed
    survivor's sequence, if one exists.
    """
    report = CheckReport()
    report.checked_messages = len(rejoined)
    report.checked_groups = 1

    seen = set()
    for msg_id in rejoined:
        if msg_id in seen:
            report.add(
                "recovery-dup",
                f"{replica} delivered {msg_id} twice across its restart",
            )
        seen.add(msg_id)

    pre = list(pre_crash)
    if list(rejoined[: len(pre)]) != pre:
        lost = [m for m in pre if m not in seen]
        if lost:
            report.add(
                "recovery-loss",
                f"{replica} lost {len(lost)} pre-crash deliveries over its "
                f"restart: {lost[:5]}",
            )
        else:
            report.add(
                "recovery-prefix",
                f"{replica} reordered its pre-crash deliveries: expected "
                f"prefix {pre[:5]}..., replayed {list(rejoined[: len(pre)])[:5]}...",
            )

    if reference is not None:
        ref = list(reference)
        if set(ref) != seen:
            missing = [m for m in ref if m not in seen]
            extra = [m for m in rejoined if m not in set(ref)]
            report.add(
                "recovery-divergence",
                f"{replica} diverged from the surviving replica after rejoin: "
                f"missing {missing[:5]} extra {extra[:5]}",
            )
        elif list(rejoined) != ref:
            report.add(
                "recovery-order",
                f"{replica} agrees on the delivered set but not the order: "
                f"{list(rejoined)[:5]}... vs {ref[:5]}...",
            )
    return report
