"""Stateful tactic-alert rules and the kill-chain tactic alignment.

A simplified tag-propagation baseline: entities accumulate state codes,
transfer rules match (state, event) combinations, and each match emits a
tactic alert while granting a new code to the other side of the event.
States are never cleared, so replay order alone determines the output.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from fnmatch import fnmatch

from .graph import EntityType, Event, merge_attrs


class RuleError(ValueError):
    """Bad blacklist input or unknown tactic names."""


# -- state vocabulary --------------------------------------------------------

PROCESS_STATES = {
    "PS1": "has made a network connection",
    "PS2": "accessed a high-value file",
    "PS3": "carries network-derived data",
    "PS4": "read or loaded an uploaded file",
    "PS5": "read sensitive system information",
    "PS6": "read account-related information",
    "PB1": "executed or loaded a network-derived file",
    "PB2": "executed a sensitive file",
    "PB3": "ran a sensitive command",
    "PB4": "changed a security control setting",
    "PB5": "changed a scheduled-task setting",
    "PB6": "changed a permission control setting",
    "PB7": "read high-value data",
}

FILE_STATES = {
    "FU1": "uploaded by a user",
    "FU2": "contains network-derived data",
    "FU3": "does not exist",
    "FH1": "controls scheduled tasks",
    "FH2": "controls user permissions",
    "FH3": "holds sensitive user information",
    "FH4": "holds security control policy",
    "FH5": "written by a process that read sensitive data",
    "FH6": "holds sensitive system information",
}

REGISTRY_STATES = {
    "RU1": "created by a network-connected process",
    "RU2": "created by a process that read sensitive data",
    "RU3": "created by a process that loaded or ran sensitive files",
    "RH1": "controls scheduled tasks",
    "RH2": "controls user permissions",
    "RH3": "holds sensitive user information",
    "RH4": "holds security protection settings",
    "RH6": "holds sensitive system information",
}


# -- transfer rules ----------------------------------------------------------

# Operation aliases per rule event kind. Registry reads cover the query-style
# operations of the audit vocabulary; "execute" and "image_load" are accepted
# as raw stream operations even though graph edges never carry them.
_FILE_WRITE = ("write",)
_FILE_READ = ("read",)
_FILE_EXECUTE = ("execute",)
_FILE_LOAD = ("image_load", "load")
_REG_CREATE = ("create",)
_REG_MODIFY = ("modify",)
_REG_READ = ("query", "enumerate", "read")


@dataclass(frozen=True)
class TransferRule:
    """One (state, state, event) row: match grants a code and raises an alert.

    ``grant_side`` says which side the rule derives: "object" rules require
    the subject to already hold every code in ``process_states`` and grant
    ``object_state``; "subject" rules require the object to hold
    ``object_state`` and grant the first process state.
    """

    rule_id: str
    tactic: str
    process_states: tuple[str, ...]
    object_state: str
    object_kind: EntityType
    operations: tuple[str, ...]
    grant_side: str  # "subject" or "object"
    any_process_state: bool = False  # disjunction over process_states


def _rule(rule_id, tactic, pstates, ostate, kind, ops, grant_side, any_of=False):
    return TransferRule(
        rule_id, tactic, tuple(pstates), ostate, kind, tuple(ops), grant_side, any_of
    )


TRANSFER_RULES: tuple[TransferRule, ...] = (
    _rule("IA-1", "Initial Access", ("PS1",), "FU2", EntityType.FILE, _FILE_WRITE, "object"),
    _rule("IA-2", "Initial Access", ("PS3",), "FU2", EntityType.FILE, _FILE_READ, "subject"),
    _rule("IA-3", "Initial Access", ("PS3",), "FU2", EntityType.FILE, _FILE_WRITE, "object"),
    _rule("IA-4", "Initial Access", ("PS4",), "FU1", EntityType.FILE, _FILE_READ + _FILE_LOAD, "subject"),
    _rule("EX-1", "Execution", ("PB1",), "FU2", EntityType.FILE, _FILE_EXECUTE, "subject"),
    _rule("EX-2", "Execution", ("PB1",), "FU2", EntityType.FILE, _FILE_LOAD, "subject"),
    _rule("EX-3", "Execution", ("PB1",), "FU2", EntityType.FILE, _FILE_WRITE, "object"),
    _rule("EX-4", "Execution", ("PS5",), "RU2", EntityType.REGISTRY, _REG_CREATE, "object"),
    _rule("EX-5", "Execution", ("PS5",), "RU2", EntityType.REGISTRY, _REG_READ, "subject"),
    _rule("PE-1", "Persistence", ("PB6",), "FH1", EntityType.FILE, _FILE_WRITE, "subject"),
    _rule("PE-2", "Persistence", ("PB6",), "RH1", EntityType.REGISTRY, _REG_MODIFY, "subject"),
    _rule("PE-3", "Persistence", ("PS4",), "RU3", EntityType.REGISTRY, _REG_CREATE, "object"),
    _rule("PR-1", "Privilege Escalation", ("PB7",), "FH2", EntityType.FILE, _FILE_WRITE, "subject"),
    _rule("PR-2", "Privilege Escalation", ("PB7",), "RH1", EntityType.REGISTRY, _REG_MODIFY, "subject"),
    _rule("CA-1", "Credential Access", ("PS6",), "FH3", EntityType.FILE, _FILE_READ, "subject"),
    _rule("CA-2", "Credential Access", ("PS6",), "RH3", EntityType.REGISTRY, _REG_READ, "subject"),
    _rule("DE-1", "Defense Evasion", ("PB5",), "FH4", EntityType.FILE, _FILE_WRITE, "subject"),
    _rule("DE-2", "Defense Evasion", ("PB5",), "RH4", EntityType.REGISTRY, _REG_MODIFY, "subject"),
    _rule("DI-1", "Discovery", ("PS5",), "FH6", EntityType.FILE, _FILE_READ, "subject"),
    _rule("DI-2", "Discovery", ("PS5",), "RH6", EntityType.REGISTRY, _REG_READ, "subject"),
    _rule(
        "EF-1", "Exfiltration",
        ("PB5", "PB6", "PB7", "PS2", "PS5", "PS6"),
        "FH5", EntityType.FILE, _FILE_WRITE, "object", any_of=True,
    ),
    # The read-side exfiltration row names an undefined process code; it is
    # treated as PB7 (reads high-value data), which matches its meaning.
    _rule("EF-2", "Exfiltration", ("PB7",), "FH5", EntityType.FILE, _FILE_READ, "subject"),
)


# -- kill-chain alignment ----------------------------------------------------

ATTCK_TACTICS = frozenset(
    {
        "Reconnaissance", "Resource Development", "Initial Access", "Execution",
        "Persistence", "Privilege Escalation", "Defense Evasion",
        "Credential Access", "Discovery", "Lateral Movement", "Collection",
        "Command and Control", "Exfiltration", "Impact",
    }
)

_TACTIC_ALIASES = {"Data Exfiltration": "Exfiltration"}

KILLCHAIN_ALIGNMENT: dict[str, tuple[str, ...]] = {
    "Initial Compromise": ("Initial Access",),
    "Establish Foothold": (
        "Execution", "Persistence", "Command and Control", "Defense Evasion",
    ),
    "Privilege Escalation": ("Privilege Escalation", "Defense Evasion"),
    "Internal Recon": ("Discovery", "Collection", "Defense Evasion"),
    "Move Laterally": ("Lateral Movement", "Defense Evasion"),
    "Complete Mission": ("Collection", "Command and Control", "Impact"),
    "Cleanup Tracks": ("Impact", "Defense Evasion"),
}


def map_to_killchain(tactic: str) -> frozenset[str]:
    """Every kill-chain stage whose alignment row lists the given tactic."""
    canonical = _TACTIC_ALIASES.get(tactic, tactic)
    if canonical not in ATTCK_TACTICS:
        raise RuleError(f"unknown tactic {tactic!r}")
    return frozenset(
        stage
        for stage, tactics in KILLCHAIN_ALIGNMENT.items()
        if canonical in tactics
    )


# -- blacklists and state seeding -------------------------------------------

# Blacklist category -> seeded code, per entity kind.
FILE_CATEGORIES = {
    "scheduled_tasks": "FH1",
    "permissions": "FH2",
    "user_info": "FH3",
    "security_policy": "FH4",
    "system_info": "FH6",
    "uploaded": "FU1",
}
REGISTRY_CATEGORIES = {
    "scheduled_tasks": "RH1",
    "permissions": "RH2",
    "user_info": "RH3",
    "security_policy": "RH4",
    "system_info": "RH6",
}


@dataclass
class BlacklistConfig:
    """Sensitive-path, key, command, and address lists driving state seeding."""

    files: dict[str, tuple[str, ...]] = field(default_factory=dict)
    registry: dict[str, tuple[str, ...]] = field(default_factory=dict)
    commands: tuple[str, ...] = ()
    untrusted_addresses: tuple[str, ...] = ()
    trusted_addresses: tuple[str, ...] = ()

    def __post_init__(self):
        for name, kind, categories in (("files", "file", FILE_CATEGORIES),
                                       ("registry", "registry", REGISTRY_CATEGORIES)):
            lists = getattr(self, name)
            if not isinstance(lists, Mapping):
                raise RuleError(f"blacklist {name} must map categories to entry lists")
            for category, entries in lists.items():
                if category not in categories:
                    raise RuleError(f"unknown {kind} blacklist category {category!r}")
                _check_entries(f"{name}[{category!r}]", entries)
        for name in ("commands", "untrusted_addresses", "trusted_addresses"):
            _check_entries(name, getattr(self, name))

    def address_untrusted(self, address: str) -> bool:
        if self.untrusted_addresses:
            return _matches(address, self.untrusted_addresses)
        if self.trusted_addresses:
            return not _matches(address, self.trusted_addresses)
        return False


def _check_entries(name: str, entries) -> None:
    """Refuse entries that are not a list or tuple of strings; a string
    would match as its characters."""
    if not (isinstance(entries, (list, tuple)) and all(isinstance(e, str) for e in entries)):
        raise RuleError(f"blacklist {name} must be a list of strings, "
                        f"not {type(entries).__name__}")


def _matches(value: str, patterns: Iterable[str]) -> bool:
    low = value.casefold()
    for pattern in patterns:
        p = pattern.casefold()
        if ("*" in p or "?" in p) and fnmatch(low, p):
            return True
        if low == p:
            return True
    return False


def read_blacklist_file(path) -> tuple[str, ...]:
    """One entry per line; blank lines and '#' comments are skipped.

    Entries with control characters are malformed and raise with the line
    number; a file that cannot be read as UTF-8 text raises naming its path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise RuleError(f"cannot read blacklist file {str(path)!r}: {exc}") from None
    entries = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if any(ord(ch) < 32 for ch in line):
            raise RuleError(f"{path}: malformed entry at line {line_no}")
        entries.append(line)
    return tuple(entries)


def load_blacklists(spec: Mapping) -> BlacklistConfig:
    """Build a config from a {section: {category: path-or-list}} mapping.

    Sections: "files" and "registry" map categories to entries; "commands",
    "untrusted_addresses" and "trusted_addresses" are entries. Entries are
    a list file's path (read from disk) or an inline list of strings;
    anything else raises :class:`RuleError`, as :class:`BlacklistConfig`
    checks them. A section of any other name raises too, so a misspelt
    section cannot leave seeding off.
    """
    if not isinstance(spec, Mapping):
        raise RuleError("a blacklist spec must be a JSON object")
    sections = [f.name for f in fields(BlacklistConfig)]
    for section in spec:
        if section not in sections:
            raise RuleError(f"unknown blacklist section {section!r}; "
                            f"the sections are {', '.join(sections)}")

    def as_entries(value):
        if isinstance(value, (str, os.PathLike)):
            return read_blacklist_file(value)
        return tuple(value) if isinstance(value, list) else value

    def as_lists(section: str):
        lists = spec.get(section, {})
        if not isinstance(lists, Mapping):
            return lists
        return {c: as_entries(v) for c, v in lists.items()}

    return BlacklistConfig(
        files=as_lists("files"),
        registry=as_lists("registry"),
        commands=as_entries(spec.get("commands", ())),
        untrusted_addresses=as_entries(spec.get("untrusted_addresses", ())),
        trusted_addresses=as_entries(spec.get("trusted_addresses", ())),
    )


class StateStore:
    """Monotone per-entity state codes: codes are granted, never removed."""

    def __init__(self):
        self._states: dict[str, set[str]] = {}

    def holds(self, entity_id: str, code: str) -> bool:
        return code in self._states.get(entity_id, ())

    def holds_any(self, entity_id: str, codes: Iterable[str]) -> bool:
        held = self._states.get(entity_id)
        return bool(held) and any(c in held for c in codes)

    def grant(self, entity_id: str, code: str) -> None:
        self._states.setdefault(entity_id, set()).add(code)

    def snapshot(self) -> dict[str, list[str]]:
        return {eid: sorted(codes) for eid, codes in sorted(self._states.items())}


@dataclass(frozen=True)
class Alert:
    ts: int
    tactic: str
    rule_id: str
    subject: str
    object: str

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "tactic": self.tactic,
            "killchain": sorted(map_to_killchain(self.tactic)),
            "rule": self.rule_id,
            "subject": self.subject,
            "object": self.object,
        }


def seed_states(events: Iterable[Event], blacklists: BlacklistConfig) -> StateStore:
    """Initial codes from blacklist matches over an event stream.

    Each entity takes its type from its first event, and its name or else
    its path from the attrs of all its events, merged as
    :func:`~provrec.graph.merge_attrs` merges them for graph nodes. Files
    and registry keys whose id or name matches a category list get that
    category's code; processes running listed commands get PB3; processes
    connecting to untrusted addresses get PS1.
    """
    store = StateStore()
    types: dict[str, EntityType] = {}
    attrs: dict[str, dict] = {}
    connects = []
    for ev in events:
        types.setdefault(ev.subject_id, ev.subject_type)
        types.setdefault(ev.object_id, ev.object_type)
        if ev.attrs:
            merge_attrs(attrs, ev.subject_id, ev.object_id, ev.attrs)
        if ev.object_type == EntityType.SOCKET and ev.operation.lower() == "connect":
            connects.append((ev.subject_id, ev.object_id))

    for eid, etype in types.items():
        known = attrs.get(eid, {})
        display = known.get("name") or known.get("path") or eid
        if etype == EntityType.FILE:
            for category, entries in blacklists.files.items():
                if _matches(eid, entries) or _matches(display, entries):
                    store.grant(eid, FILE_CATEGORIES[category])
        elif etype == EntityType.REGISTRY:
            for category, entries in blacklists.registry.items():
                if _matches(eid, entries) or _matches(display, entries):
                    store.grant(eid, REGISTRY_CATEGORIES[category])
        elif etype == EntityType.PROCESS and blacklists.commands:
            if _matches(display, blacklists.commands) or _matches(
                eid, blacklists.commands
            ):
                store.grant(eid, "PB3")

    for proc, sock in connects:
        if blacklists.address_untrusted(sock):
            store.grant(proc, "PS1")
    return store


def step_event(store: StateStore, event: Event) -> list[Alert]:
    """Match one event against every transfer rule and apply the grants.

    All rules are evaluated against the state as it stood before the event;
    grants land afterwards, so rule order within one event cannot chain.
    """
    alerts: list[Alert] = []
    grants: list[tuple[str, str]] = []
    op = event.operation.lower()
    for rule in TRANSFER_RULES:
        if event.object_type != rule.object_kind or op not in rule.operations:
            continue
        if rule.grant_side == "object":
            if rule.any_process_state:
                ok = store.holds_any(event.subject_id, rule.process_states)
            else:
                ok = all(store.holds(event.subject_id, c) for c in rule.process_states)
            granted = (event.object_id, rule.object_state)
        else:
            ok = store.holds(event.object_id, rule.object_state)
            granted = (event.subject_id, rule.process_states[0])
        if not ok:
            continue
        alerts.append(
            Alert(event.ts, rule.tactic, rule.rule_id, event.subject_id, event.object_id)
        )
        grants.append(granted)
    for eid, code in grants:
        store.grant(eid, code)
    return alerts


def replay(
    events: Iterable[Event], blacklists: BlacklistConfig | None = None
) -> tuple[StateStore, list[Alert]]:
    """Seed from ``blacklists`` (if given), then run every event through the
    transfer rules in order."""
    events = list(events)
    store = seed_states(events, blacklists) if blacklists is not None else StateStore()
    alerts: list[Alert] = []
    for ev in events:
        alerts.extend(step_event(store, ev))
    return store, alerts
