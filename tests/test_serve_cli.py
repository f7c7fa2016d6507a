"""``python -m repro.serve``: both modes end to end, its output files,
and its argument errors."""

import json

import pytest

from repro.serve.__main__ import main

#: A short trace keeps each mode under a second.
REQUESTS = ["--requests", "40"]


def _table_names(out: str) -> list:
    """First column of every table row (the header row dropped)."""
    return [line.split(" | ")[0].strip()
            for line in out.splitlines() if " | " in line][1:]


def test_single_server_mode_writes_json_and_traces(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    traces = tmp_path / "traces"
    code = main(REQUESTS + ["--json", str(summary), "--trace", str(traces)])
    assert code == 0
    assert _table_names(capsys.readouterr().out) == ["dgl", "fastgl"]
    payload = json.loads(summary.read_text())
    assert sorted(payload) == ["dgl", "fastgl"]
    assert all(row["completed"] == 40 for row in payload.values())
    assert sorted(p.name for p in traces.iterdir()) == [
        "serve_dgl.json", "serve_fastgl.json"]


def test_fleet_mode_one_row_per_router(capsys):
    code = main(REQUESTS + ["--fleet", "--dataset", "fleet-smoke",
                            "--replicas", "2"])
    assert code == 0
    assert _table_names(capsys.readouterr().out) == [
        "round-robin", "jsq", "match-affinity"]


def test_fleet_mode_writes_json_and_traces(tmp_path, capsys):
    """The fleet mode used to return before the output code ran: exit
    0 and neither file written."""
    summary = tmp_path / "summary.json"
    traces = tmp_path / "traces"
    code = main(REQUESTS + ["--fleet", "--dataset", "fleet-smoke",
                            "--replicas", "2", "--router", "jsq",
                            "--router", "round-robin",
                            "--json", str(summary), "--trace", str(traces)])
    assert code == 0
    payload = json.loads(summary.read_text())
    assert sorted(payload) == ["jsq", "round-robin"]
    assert all(row["completed"] == 40 and row["replicas"] == 2
               for row in payload.values())
    assert sorted(p.name for p in traces.iterdir()) == [
        "fleet_jsq.json", "fleet_round-robin.json"]
    events = json.loads((traces / "fleet_jsq.json").read_text())
    lanes = {event["tid"] for event in events["traceEvents"]}
    assert {"gpu0", "gpu1", "requests"} <= lanes


def test_every_arrival_process_is_a_choice(capsys):
    """``--arrival`` used to refuse ``flash``, which the fleet
    experiments use."""
    code = main(REQUESTS + ["--fleet", "--dataset", "fleet-smoke",
                            "--replicas", "2", "--router", "jsq",
                            "--arrival", "flash"])
    assert code == 0
    assert _table_names(capsys.readouterr().out) == ["jsq"]


@pytest.mark.parametrize("argv", [
    ["--fleet", "--router", "consistent-hash"],
    ["--framework", "tensorflow-gnn"],
])
def test_unknown_name_exits_with_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unknown" in capsys.readouterr().err
