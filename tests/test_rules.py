"""State seeding, transfer-rule matching, and the kill-chain alignment."""

import pytest

from provrec.graph import EntityType, Event
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

from testkit import make_graph


def _event(subject, operation, obj, obj_type, ts=0):
    return Event(subject, EntityType.PROCESS, operation, obj, obj_type, ts)


# -- seeding ------------------------------------------------------------------


def test_empty_blacklists_seed_nothing():
    g = make_graph(
        [
            ("p", "write", "C:/tmp/a.txt", EntityType.FILE),
            ("p", "connect", "10.0.0.1:443", EntityType.SOCKET),
        ]
    )
    store = seed_states(g, BlacklistConfig())
    assert store.snapshot() == {}


def test_scheduled_task_file_seeds_fh1():
    g = make_graph([("p", "write", "C:/Windows/Tasks/job.xml", EntityType.FILE)])
    bl = BlacklistConfig(files={"scheduled_tasks": ("C:/Windows/Tasks/*",)})
    store = seed_states(g, bl)
    assert store.holds("C:/Windows/Tasks/job.xml", "FH1")


def test_security_control_registry_seeds_rh4():
    g = make_graph([("p", "query", "HKLM/Security/Policy", EntityType.REGISTRY)])
    bl = BlacklistConfig(registry={"security_policy": ("HKLM/Security/*",)})
    store = seed_states(g, bl)
    assert store.holds("HKLM/Security/Policy", "RH4")


def test_untrusted_connect_seeds_ps1():
    g = make_graph(
        [
            ("evil", "connect", "203.0.113.5:4444", EntityType.SOCKET),
            ("ok", "connect", "10.0.0.1:443", EntityType.SOCKET),
            ("passive", "send", "203.0.113.5:4444", EntityType.SOCKET),
        ]
    )
    bl = BlacklistConfig(untrusted_addresses=("203.0.113.*",))
    store = seed_states(g, bl)
    assert store.holds("evil", "PS1")
    assert not store.holds("ok", "PS1")
    assert not store.holds("passive", "PS1")  # only connect marks


def test_trusted_list_mode_marks_everything_else():
    g = make_graph([("p", "connect", "198.51.100.1:80", EntityType.SOCKET)])
    bl = BlacklistConfig(trusted_addresses=("10.*",))
    assert seed_states(g, bl).holds("p", "PS1")


def test_sensitive_command_seeds_pb3():
    g = make_graph([("mimikatz.exe", "read", "f", EntityType.FILE)])
    bl = BlacklistConfig(commands=("mimikatz.exe",))
    assert seed_states(g, bl).holds("mimikatz.exe", "PB3")


def test_seeding_from_event_stream_equals_graph_seeding():
    events = [
        _event("p", "write", "C:/Tasks/j.xml", EntityType.FILE, 1),
        _event("p", "connect", "203.0.113.9:1", EntityType.SOCKET, 2),
    ]
    bl = BlacklistConfig(
        files={"scheduled_tasks": ("C:/Tasks/*",)},
        untrusted_addresses=("203.0.113.*",),
    )
    from provrec.graph import build_graph

    s1 = seed_states(events, bl)
    s2 = seed_states(build_graph(events), bl)
    assert s1.snapshot() == s2.snapshot()


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
            held = set(store.states_of(eid))
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
        before = {eid: store.states_of(eid) for eid in (ev.subject_id, ev.object_id)}
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
