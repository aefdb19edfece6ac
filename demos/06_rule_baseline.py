#!/usr/bin/env python3
# The stateful rule baseline: blacklist-seeded entity states, transfer rules
# that raise tactic alerts, and the kill-chain alignment of tactics.

from provrec import EntityType, Event
from provrec.rules import (
    KILLCHAIN_ALIGNMENT,
    TRANSFER_RULES,
    BlacklistConfig,
    replay,
    seed_states,
)

print(f"{len(TRANSFER_RULES)} transfer rules across",
      len({r.tactic for r in TRANSFER_RULES}), "tactics")

# Blacklists seed the initial states: sensitive paths, keys, commands, and
# address sets (plain-text lists in production, inline here).
blacklists = BlacklistConfig(
    files={"scheduled_tasks": ("c:/windows/tasks/*",),
           "user_info": ("c:/users/*/secrets.db",)},
    registry={"security_policy": ("hklm/system/*/securityprovider*",)},
    commands=("mimikatz.exe",),
    untrusted_addresses=("203.0.113.*",),
)


def e(subject, op, obj, kind, ts):
    return Event(subject, EntityType.PROCESS, op, obj, kind, ts)


# A short intrusion trace: download, execute, persist.
trace = [
    e("browser", "connect", "203.0.113.7:443", EntityType.SOCKET, 1),
    e("browser", "write", "c:/dl/stage.exe", EntityType.FILE, 2),
    e("shell", "execute", "c:/dl/stage.exe", EntityType.FILE, 3),
    e("shell", "write", "c:/windows/tasks/persist.job", EntityType.FILE, 4),
    e("other", "read", "c:/docs/notes.txt", EntityType.FILE, 5),
]

store = seed_states(trace, blacklists)
print("\nseeded states:", store.snapshot())

# Each alert record, as `provrec baseline` writes it, carries the kill-chain
# stages of its tactic.
store, alerts = replay(trace, blacklists=blacklists)
print("\nalerts:")
for a in alerts:
    stages = "/".join(a.to_dict()["killchain"])
    print(f"  ts={a.ts} [{a.rule_id}] {a.tactic:<16} {a.subject} -> {a.object}"
          f"  (kill-chain: {stages})")

print("\nfinal states:")
for eid, codes in store.snapshot().items():
    print(f"  {eid}: {codes}")

# The alignment table, reconstructed from the per-tactic mapping.
print("\nkill-chain stages and their tactics:")
for stage, tactics in KILLCHAIN_ALIGNMENT.items():
    print(f"  {stage:<20} {', '.join(tactics)}")
