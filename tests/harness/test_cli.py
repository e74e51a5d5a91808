"""Tests for the experiment CLI."""

import pytest

from repro.farm.cli import build_parser as farm_build_parser
from repro.farm.store import ResultStore
from repro.harness import cli
from repro.harness.cli import COMMANDS, build_parser, main


def test_parser_accepts_known_experiments():
    args = build_parser().parse_args(["table1", "fig8a"])
    assert args.experiments == ["table1", "fig8a"]
    assert args.scale is None


def test_parser_options():
    args = build_parser().parse_args(
        ["table2", "--scale", "0.1", "--ranks", "8", "--apps", "EP", "IS"]
    )
    assert args.scale == 0.1
    assert args.ranks == 8
    assert args.apps == ["EP", "IS"]


def test_unknown_experiment_fails_cleanly(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "qsnet" in out
    assert "caw_us" in out


def test_table2_single_app_small(capsys):
    assert main(["table2", "--scale", "0.02", "--ranks", "4", "--apps", "EP"]) == 0
    out = capsys.readouterr().out
    assert "EP" in out
    assert "slowdown_pct" in out


def test_fig9_alias_dedupes(capsys):
    # fig9 and table2 share the implementation; asking for both runs once.
    assert main(["fig9", "table2", "--scale", "0.02", "--ranks", "4", "--apps", "EP"]) == 0
    out = capsys.readouterr().out
    assert out.count("Fig 9 / Table 2") == 1


def test_all_commands_registered():
    expected = {
        "table1", "fig8a", "fig8b", "fig8c", "fig8d",
        "table2", "fig9", "fig10", "fig11", "ablations",
    }
    assert set(COMMANDS) == expected


def test_save_writes_json(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["table1", "--save", str(out)]) == 0
    import json

    data = json.loads(out.read_text())
    assert len(data) == 1
    rows = next(iter(data.values()))
    assert rows and "caw_us" in rows[0]


# --- smoke coverage: every registered command on a tiny configuration --------

#: flags shrinking every experiment to a few-rank, aggressively scaled run.
TINY = ["--ranks", "4", "--procs", "2", "4", "--scale", "0.02", "--apps", "EP"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_smokes_on_tiny_config(name, capsys):
    assert main([name] + TINY) == 0
    out = capsys.readouterr().out
    assert "(no rows)" not in out
    assert "==" in out  # at least one titled table printed
    for title, rows in cli._collected.items():
        assert rows, f"{name} printed an empty table: {title}"


# --- farm subcommand family --------------------------------------------------


def test_farm_list(capsys):
    assert main(["farm", "list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "points total" in out


def test_farm_rejects_unknown_family(tmp_path, capsys):
    assert main(["farm", "figures", "fig99", "--store", str(tmp_path)]) == 2
    assert "unknown family" in capsys.readouterr().err


@pytest.mark.farm_subprocess
def test_farm_figures_runs_caches_and_expects_cached(tmp_path, capsys):
    store = str(tmp_path / "store")
    argv = ["farm", "figures", "table1", "--preset", "smoke", "-j", "2",
            "--store", store, "--no-progress"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "Table 1: BCS core mechanisms across networks" in first
    assert "0 cached" in first

    # second run: pure cache replay, byte-identical table
    assert main(argv + ["--expect-cached"]) == 0
    second = capsys.readouterr().out
    assert "0 executed" in second
    table = lambda text: [l for l in text.splitlines() if l.startswith(("gige", "qsnet"))]
    assert table(first) == table(second)

    # --no-cache forces execution, so --expect-cached now fails
    assert main(argv + ["--expect-cached", "--no-cache"]) == 3


@pytest.mark.farm_subprocess
def test_farm_save_and_metrics(tmp_path, capsys):
    store = str(tmp_path / "store")
    saved = tmp_path / "rows.json"
    argv = [
        "farm", "figures", "table1", "--preset", "smoke", "-j", "1",
        "--store", store, "--no-progress", "--save", str(saved), "--metrics",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "farm metrics" in out
    assert "farm.points.completed" in out

    import json

    data = json.loads(saved.read_text())
    rows = data["Table 1: BCS core mechanisms across networks"]
    assert rows and "caw_us" in rows[0]

    assert main(["farm", "metrics", "--store", store]) == 0
    assert "last farm run" in capsys.readouterr().out


def test_farm_metrics_without_run_fails_cleanly(tmp_path, capsys):
    assert main(["farm", "metrics", "--store", str(tmp_path / "empty")]) == 1
    assert "no farm run" in capsys.readouterr().err


def test_farm_metrics_reads_a_last_run_with_the_old_queue_fields(tmp_path, capsys):
    # Stores written before the farm had a single backend carry four
    # extra keys in last-run.json; reading them must still work.
    store = ResultStore(tmp_path / "store")
    store.save_last_run(
        {
            "points": 4, "cached": 0, "executed": 4, "failed": 0,
            "cache_hit_rate": 0.0, "backend": "queue",
            "queue_depth": 4, "lease_count": 2, "worker_count": 2,
        }
    )
    assert main(["farm", "metrics", "--store", str(tmp_path / "store")]) == 0
    out = capsys.readouterr().out
    assert "last farm run: 4 points" in out
    assert "backend" not in out


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("-j", "0", "must be >= 1, got 0"),
        ("-j", "-2", "must be >= 1, got -2"),
        ("--timeout", "0", "must be > 0, got 0"),
        ("--timeout", "-1.5", "must be > 0, got -1.5"),
        ("--timeout", "nan", "must be > 0, got nan"),
        ("--retries", "-1", "must be >= 0, got -1"),
    ],
)
def test_farm_figures_rejects_bad_numbers_at_the_command_line(
    tmp_path, capsys, option, value, message
):
    argv = ["farm", "figures", "table1", "--preset", "smoke", "--no-cache",
            "--store", str(tmp_path / "store"), "--no-progress", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "store").exists()  # rejected before any work


def test_farm_figures_accepts_the_boundary_numbers():
    args = farm_build_parser().parse_args(
        ["figures", "-j", "1", "--timeout", "0.5", "--retries", "0"]
    )
    assert (args.jobs, args.timeout, args.retries) == (1, 0.5, 0)


def test_farm_figures_keeps_the_type_name_in_conversion_errors(capsys):
    with pytest.raises(SystemExit):
        farm_build_parser().parse_args(["figures", "-j", "two"])
    assert "invalid int value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "worker", "dashboard"])
def test_removed_service_commands_are_unknown_experiments(command, capsys):
    assert main([command]) == 2
    assert "unknown experiment(s): " + command in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["farm", "submit", "http://127.0.0.1:1", "table1"], "invalid choice"),
        (["farm", "figures", "table1", "--backend", "queue"],
         "unrecognized arguments: --backend queue"),
    ],
)
def test_removed_farm_options_are_argparse_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--store", str(tmp_path / "store")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_farm_list_paginates(capsys):
    assert main(["farm", "list", "--limit", "3", "--offset", "2"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln.startswith("fig")]
    assert len(rows) == 3
    assert "showing 3-5 of" in out
    assert "--offset 5 for the next page" in out


def test_farm_list_offset_past_the_end(capsys):
    assert main(["farm", "list", "--offset", "9999"]) == 0
    out = capsys.readouterr().out
    assert "is past the end" in out  # empty page renders sanely
    assert "points total" in out


def test_farm_list_unpaginated_has_no_footnote(capsys):
    assert main(["farm", "list"]) == 0
    assert "showing" not in capsys.readouterr().out


def test_farm_list_cached_pages_through_the_store(tmp_path, capsys):
    store = ResultStore(tmp_path / "store")
    for i in range(5):
        store.put(
            f"{i:02d}" + "00" * 31,
            {
                "family": "selftest",
                "params": {"value": i},
                "row": {"value": i},
                "duration_s": 0.5,
            },
        )
    argv = ["farm", "list", "--cached", "--store", str(tmp_path / "store"),
            "--limit", "2", "--offset", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cached point records" in out
    assert out.count("value=") == 2
    assert "showing 2-3 of 5" in out


@pytest.mark.farm_subprocess
def test_farm_clean(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["farm", "figures", "table1", "--preset", "smoke", "-j", "1",
                 "--store", store, "--no-progress"]) == 0
    capsys.readouterr()
    assert main(["farm", "clean", "--store", store]) == 0
    assert "removed 10" in capsys.readouterr().out


def test_explain_prints_blame_and_writes_outputs(tmp_path, capsys):
    blame = tmp_path / "blame.json"
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "explain",
            "fig8-p2p",
            "--ranks",
            "4",
            "--json",
            str(blame),
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path of fig8-p2p" in out
    assert "makespan" in out and "100.0%" in out

    import json

    payload = json.loads(blame.read_text())
    assert payload["schema"] == 1
    assert sum(payload["categories_ns"].values()) == payload["makespan_ns"]
    doc = json.loads(trace.read_text())
    assert any(e.get("cat") == "msgflow" for e in doc["traceEvents"])


def test_explain_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["explain", "nope"])
    assert "invalid choice" in capsys.readouterr().err


def test_explain_unwritable_output_exits_2(tmp_path, capsys):
    rc = main(
        ["explain", "fig8", "--ranks", "4", "--json", str(tmp_path / "no" / "x.json")]
    )
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err
