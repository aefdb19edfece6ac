"""State seeding, transfer-rule matching, and the kill-chain alignment."""

import pytest

from provrec.graph import EntityType, Event, build_graph
from provrec.rules import (
    ATTCK_TACTICS,
    FILE_CATEGORIES,
    KILLCHAIN_ALIGNMENT,
    REGISTRY_CATEGORIES,
    TRANSFER_RULES,
    BlacklistConfig,
    RuleError,
    StateStore,
    load_blacklists,
    map_to_killchain,
    read_blacklist_file,
    replay,
    seed_states,
    step_event,
)


def _event(subject, operation, obj, obj_type, ts=0):
    return Event(subject, EntityType.PROCESS, operation, obj, obj_type, ts)


# -- seeding ------------------------------------------------------------------


def _trace(rows):
    """Events from (subject, operation, object, object_type) rows, ts in order."""
    return [_event(s, op, o, t, ts) for ts, (s, op, o, t) in enumerate(rows)]


def test_empty_blacklists_seed_nothing():
    events = _trace(
        [
            ("p", "write", "C:/tmp/a.txt", EntityType.FILE),
            ("p", "connect", "10.0.0.1:443", EntityType.SOCKET),
        ]
    )
    store = seed_states(events, BlacklistConfig())
    assert store.snapshot() == {}


def test_scheduled_task_file_seeds_fh1():
    events = _trace([("p", "write", "C:/Windows/Tasks/job.xml", EntityType.FILE)])
    bl = BlacklistConfig(files={"scheduled_tasks": ("C:/Windows/Tasks/*",)})
    store = seed_states(events, bl)
    assert store.holds("C:/Windows/Tasks/job.xml", "FH1")


def test_security_control_registry_seeds_rh4():
    events = _trace([("p", "query", "HKLM/Security/Policy", EntityType.REGISTRY)])
    bl = BlacklistConfig(registry={"security_policy": ("HKLM/Security/*",)})
    store = seed_states(events, bl)
    assert store.holds("HKLM/Security/Policy", "RH4")


def test_untrusted_connect_seeds_ps1():
    events = _trace(
        [
            ("evil", "connect", "203.0.113.5:4444", EntityType.SOCKET),
            ("ok", "connect", "10.0.0.1:443", EntityType.SOCKET),
            ("passive", "send", "203.0.113.5:4444", EntityType.SOCKET),
        ]
    )
    bl = BlacklistConfig(untrusted_addresses=("203.0.113.*",))
    store = seed_states(events, bl)
    assert store.holds("evil", "PS1")
    assert not store.holds("ok", "PS1")
    assert not store.holds("passive", "PS1")  # only connect marks


def test_connect_seeds_ps1_in_any_case():
    # step_event lower-cases operations; seeding must read them the same way
    events = [Event("p", EntityType.PROCESS, "Connect", "203.0.113.5:1",
                    EntityType.SOCKET, 1)]
    bl = BlacklistConfig(untrusted_addresses=("203.0.113.*",))
    assert seed_states(events, bl).snapshot() == {"p": ["PS1"]}


def test_trusted_list_mode_marks_everything_else():
    events = _trace([("p", "connect", "198.51.100.1:80", EntityType.SOCKET)])
    bl = BlacklistConfig(trusted_addresses=("10.*",))
    assert seed_states(events, bl).holds("p", "PS1")


def test_sensitive_command_seeds_pb3():
    events = _trace([("mimikatz.exe", "read", "f", EntityType.FILE)])
    bl = BlacklistConfig(commands=("mimikatz.exe",))
    assert seed_states(events, bl).holds("mimikatz.exe", "PB3")


_LATE_NAMES = BlacklistConfig(
    files={"scheduled_tasks": ("C:/Windows/Tasks/*",)}, commands=("mimikatz.exe",)
)


def _late_name_trace():
    """``f:1`` and ``p3`` first appear without attrs; their path and name
    arrive in later events."""
    return [
        _event("p3", "read", "f:1", EntityType.FILE, 1),
        Event("p3", EntityType.PROCESS, "write", "f:1", EntityType.FILE, 2,
              {"path": "C:/Windows/Tasks/job.xml"}),
        Event("p3", EntityType.PROCESS, "read", "f:2", EntityType.FILE, 3,
              {"subject_name": "mimikatz.exe"}),
    ]


def test_seeding_merges_names_that_arrive_after_an_entitys_first_event():
    store = seed_states(_late_name_trace(), _LATE_NAMES)
    assert store.snapshot() == {"f:1": ["FH1"], "p3": ["PB3"]}
    replayed, alerts = replay(_late_name_trace(), blacklists=_LATE_NAMES)
    # the write into the seeded task file is persistence (PE-1 grants PB6)
    assert [(a.ts, a.rule_id) for a in alerts] == [(2, "PE-1")]
    assert replayed.snapshot() == {"f:1": ["FH1"], "p3": ["PB3", "PB6"]}


def test_seeding_keeps_the_first_name_and_prefers_it_to_the_path():
    events = [
        Event("p", EntityType.PROCESS, "read", "f", EntityType.FILE, 1,
              {"path": "C:/Windows/Tasks/a.job"}),
        Event("p", EntityType.PROCESS, "read", "f", EntityType.FILE, 2,
              {"name": "notes.txt", "path": "C:/docs/notes.txt"}),
        Event("p", EntityType.PROCESS, "read", "g", EntityType.FILE, 3,
              {"name": "plain.txt"}),
        Event("p", EntityType.PROCESS, "read", "g", EntityType.FILE, 4,
              {"name": "C:/Windows/Tasks/b.job"}),
    ]
    assert seed_states(events, _LATE_NAMES).snapshot() == {}


def test_process_named_by_its_subject_path_is_matched_by_that_path():
    events = [
        Event("p7", EntityType.PROCESS, "read", "f", EntityType.FILE, 1,
              {"subject_path": "C:/tools/mimikatz.exe"}),
    ]
    bl = BlacklistConfig(commands=("*/mimikatz.exe",))
    assert seed_states(events, bl).snapshot() == {"p7": ["PB3"]}
    assert build_graph(events).to_dict()["nodes"][0]["attrs"] == {
        "path": "C:/tools/mimikatz.exe"}


def test_blacklist_file_parsing(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# comment\n\nC:/Tasks/*\nmimikatz.exe\n")
    assert read_blacklist_file(path) == ("C:/Tasks/*", "mimikatz.exe")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"fine\nbroken\x07entry\n")
    with pytest.raises(RuleError, match="line 2"):
        read_blacklist_file(bad)


def test_load_blacklists_mixes_paths_and_inline(tmp_path):
    path = tmp_path / "tasks.txt"
    path.write_text("C:/Tasks/*\n")
    bl = load_blacklists(
        {
            "files": {"scheduled_tasks": str(path)},
            "commands": ["powershell.exe"],
        }
    )
    assert bl.files["scheduled_tasks"] == ("C:/Tasks/*",)
    assert bl.commands == ("powershell.exe",)
    with pytest.raises(RuleError, match="category"):
        BlacklistConfig(files={"nonsense": ("x",)})


@pytest.mark.parametrize(
    "field, value",
    [
        ("files", {"user_info": "C:/users/*/secrets.db"}),
        ("files", ["user_info"]),
        ("registry", {"user_info": ("HKLM/SAM/*", 3)}),
        ("registry", None),
        ("commands", "mimikatz.exe"),
        ("commands", 0),
        ("untrusted_addresses", "203.0.113.*"),
        ("trusted_addresses", ["10.*", b"192.168.*"]),
    ],
)
def test_blacklist_config_refuses_entries_that_are_not_a_list_of_strings(field, value):
    # a string would match as its characters: "203.0.113.*" holds "*"
    with pytest.raises(RuleError, match=field):
        BlacklistConfig(**{field: value})


def test_unknown_blacklist_section_is_refused_naming_every_section():
    # a misspelt section would otherwise load as an empty config
    with pytest.raises(RuleError, match="'untrusted_adresses'") as info:
        load_blacklists({"untrusted_adresses": ["203.0.113.*"]})
    for section in ("files", "registry", "commands", "untrusted_addresses",
                    "trusted_addresses"):
        assert section in str(info.value)


def test_unreadable_blacklist_file_is_refused_naming_it(tmp_path):
    for path in (tmp_path, tmp_path / "missing.txt"):
        with pytest.raises(RuleError, match="cannot read blacklist file") as info:
            load_blacklists({"commands": str(path)})
        assert str(path) in str(info.value)
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"caf\xe9.exe\n")
    with pytest.raises(RuleError, match="latin.txt"):
        read_blacklist_file(latin)


# -- transfer rules -----------------------------------------------------------


def test_ps1_write_marks_file_and_alerts_initial_access():
    store = StateStore()
    store.grant("proc", "PS1")
    alerts = step_event(store, _event("proc", "write", "drop.exe", EntityType.FILE, 5))
    assert [a.tactic for a in alerts] == ["Initial Access"]
    assert alerts[0].rule_id == "IA-1"
    assert alerts[0].ts == 5
    assert store.holds("drop.exe", "FU2")


def test_executing_network_file_marks_process():
    store = StateStore()
    store.grant("drop.exe", "FU2")
    alerts = step_event(store, _event("shell", "execute", "drop.exe", EntityType.FILE))
    assert [a.rule_id for a in alerts] == ["EX-1"]
    assert store.holds("shell", "PB1")


def test_benign_event_changes_nothing():
    store = StateStore()
    alerts = step_event(store, _event("p", "read", "readme.txt", EntityType.FILE))
    assert alerts == []
    assert store.snapshot() == {}


@pytest.mark.parametrize("rule", TRANSFER_RULES, ids=[r.rule_id for r in TRANSFER_RULES])
def test_every_rule_row_fires_and_grants(rule):
    store = StateStore()
    if rule.grant_side == "object":
        # precondition on the subject
        if rule.any_process_state:
            store.grant("subj", rule.process_states[0])
        else:
            for code in rule.process_states:
                store.grant("subj", code)
    else:
        store.grant("obj", rule.object_state)
    event = _event("subj", rule.operations[0], "obj", rule.object_kind)
    alerts = step_event(store, event)
    assert any(a.rule_id == rule.rule_id for a in alerts)
    if rule.grant_side == "object":
        assert store.holds("obj", rule.object_state)
    else:
        assert store.holds("subj", rule.process_states[0])


def test_exfiltration_any_of_disjunction():
    for code in ("PB5", "PB6", "PB7", "PS2", "PS5", "PS6"):
        store = StateStore()
        store.grant("p", code)
        alerts = step_event(store, _event("p", "write", "stash.bin", EntityType.FILE))
        assert any(a.rule_id == "EF-1" for a in alerts), code
        assert store.holds("stash.bin", "FH5")


def test_grants_do_not_chain_within_one_event():
    # the write marks the file FU2 (IA-1); the FU2-read rule (IA-2) must not
    # fire from that same write even though operations overlap on later events
    store = StateStore()
    store.grant("proc", "PS1")
    store.grant("proc", "PS3")
    alerts = step_event(store, _event("proc", "write", "f", EntityType.FILE))
    assert {a.rule_id for a in alerts} == {"IA-1", "IA-3"}
    # both rules matched against the pre-event snapshot; FU2 granted once after


def test_state_monotone_across_replay():
    events = [
        _event("proc", "write", "f", EntityType.FILE, 1),
        _event("other", "read", "f", EntityType.FILE, 2),
        _event("proc", "write", "g", EntityType.FILE, 3),
    ]
    store = StateStore()
    store.grant("proc", "PS1")
    seen: dict[str, set] = {}
    for ev in events:
        step_event(store, ev)
        for eid in ("proc", "other", "f", "g"):
            held = set(store.snapshot().get(eid, ()))
            assert seen.get(eid, set()) <= held
            seen[eid] = held


def test_replay_is_order_deterministic():
    events = [
        _event("a", "connect", "203.0.113.1:1", EntityType.SOCKET, 1),
        _event("a", "write", "f", EntityType.FILE, 2),
        _event("b", "execute", "f", EntityType.FILE, 3),
        _event("b", "write", "g", EntityType.FILE, 4),
    ]
    bl = BlacklistConfig(untrusted_addresses=("203.0.113.*",))
    _, alerts1 = replay(events, blacklists=bl)
    _, alerts2 = replay(events, blacklists=bl)
    assert alerts1 == alerts2
    assert [a.rule_id for a in alerts1] == ["IA-1", "EX-1", "EX-3"]


def test_alert_soundness_preconditions_held_at_emission():
    events = [
        _event("a", "connect", "203.0.113.1:1", EntityType.SOCKET, 1),
        _event("a", "write", "f", EntityType.FILE, 2),
        _event("b", "execute", "f", EntityType.FILE, 3),
    ]
    bl = BlacklistConfig(untrusted_addresses=("203.0.113.*",))
    # shadow replay: before each event, snapshot states; verify each alert's
    # rule preconditions against the snapshot
    store = seed_states(events, bl)
    by_id = {r.rule_id: r for r in TRANSFER_RULES}
    for ev in events:
        states = store.snapshot()
        before = {eid: set(states.get(eid, ())) for eid in (ev.subject_id, ev.object_id)}
        for alert in step_event(store, ev):
            rule = by_id[alert.rule_id]
            if rule.grant_side == "object":
                if rule.any_process_state:
                    assert set(rule.process_states) & before[ev.subject_id]
                else:
                    assert set(rule.process_states) <= before[ev.subject_id]
            else:
                assert rule.object_state in before[ev.object_id]


# -- the crafted twelve-event trace -------------------------------------------


def test_twelve_event_trace_alert_sequence():
    bl = BlacklistConfig(
        files={"scheduled_tasks": ("c:/windows/tasks/*",)},
        untrusted_addresses=("203.0.113.*",),
    )
    events = [
        _event("browser", "connect", "203.0.113.7:443", EntityType.SOCKET, 1),
        _event("browser", "receive", "203.0.113.7:443", EntityType.SOCKET, 2),
        _event("browser", "write", "c:/dl/stage.exe", EntityType.FILE, 3),  # IA-1
        _event("viewer", "read", "c:/docs/readme.txt", EntityType.FILE, 4),
        _event("shell", "execute", "c:/dl/stage.exe", EntityType.FILE, 5),  # EX-1
        _event("shell", "launch", "worker", EntityType.PROCESS, 6),
        _event("worker", "read", "c:/docs/other.txt", EntityType.FILE, 7),
        _event("shell", "write", "c:/windows/tasks/persist.job", EntityType.FILE, 8),
        # ts=8 fires EX-3 (network-file executor writes) and PE-1 (task file)
        _event("viewer", "close", "c:/docs/readme.txt", EntityType.FILE, 9),
        _event("worker", "enum", "c:/docs", EntityType.FILE, 10),
        _event("shell", "modify", "hklm/other/key", EntityType.REGISTRY, 11),
        _event("worker", "disconnect", "10.0.0.2:80", EntityType.SOCKET, 12),
    ]
    assert len(events) == 12
    _, alerts = replay(events, blacklists=bl)
    assert [(a.ts, a.rule_id, a.tactic) for a in alerts] == [
        (3, "IA-1", "Initial Access"),
        (5, "EX-1", "Execution"),
        (8, "EX-3", "Execution"),
        (8, "PE-1", "Persistence"),
    ]
    tactics_in_order = [a.tactic for a in alerts]
    assert tactics_in_order[0] == "Initial Access"
    assert tactics_in_order[1] == "Execution"
    assert tactics_in_order[-1] == "Persistence"


# -- kill-chain alignment -------------------------------------------------------


def test_initial_access_maps_to_initial_compromise():
    assert map_to_killchain("Initial Access") == {"Initial Compromise"}


def test_execution_maps_to_establish_foothold():
    assert map_to_killchain("Execution") == {"Establish Foothold"}


def test_defense_evasion_maps_to_five_stages():
    assert map_to_killchain("Defense Evasion") == {
        "Establish Foothold",
        "Privilege Escalation",
        "Internal Recon",
        "Move Laterally",
        "Cleanup Tracks",
    }


def test_alignment_rows_reconstructed_from_mapping():
    for stage, tactics in KILLCHAIN_ALIGNMENT.items():
        reconstructed = {
            t for t in ATTCK_TACTICS if stage in map_to_killchain(t)
        }
        assert reconstructed == set(tactics), stage


def test_unknown_tactic_rejected_and_alias_accepted():
    with pytest.raises(RuleError):
        map_to_killchain("Base Jumping")
    assert map_to_killchain("Data Exfiltration") == map_to_killchain("Exfiltration")
    assert map_to_killchain("Credential Access") == frozenset()


def test_rule_vocabulary_uses_defined_state_codes():
    from provrec.rules import FILE_STATES, PROCESS_STATES, REGISTRY_STATES

    for rule in TRANSFER_RULES:
        for code in rule.process_states:
            assert code in PROCESS_STATES, rule.rule_id
        pool = FILE_STATES if rule.object_kind == EntityType.FILE else REGISTRY_STATES
        assert rule.object_state in pool, rule.rule_id
    assert set(FILE_CATEGORIES.values()) <= set(FILE_STATES)
    assert set(REGISTRY_CATEGORIES.values()) <= set(REGISTRY_STATES)
