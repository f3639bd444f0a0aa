import importlib.util
import json
from pathlib import Path

from rrdid.cli import run_cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_run_tables():
    spec = importlib.util.spec_from_file_location("run_tables", SCRIPTS / "run_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_tables_prints_one_block_per_family_and_size(capsys):
    run_tables = load_run_tables()
    assert run_tables.main(["--families", "count", "binary", "--n", "100", "--reps", "20"]) == 0
    out = capsys.readouterr().out
    blocks = out.split("\n== ")[1:]
    assert [block.splitlines()[0] for block in blocks] == [
        "family=count  n=100 ==", "family=binary  n=100 =="]
    for block, transform_rows in zip(blocks, (4, 0)):
        # four grid cells, each with the QMLE and linear-DD rows; the binary
        # family has no log-transform row
        assert block.count("-- beta_qtau=") == 4
        for label in ("QMLE  beta_qtau", "QMLE  beta_d", "LinDD beta_qtau", "LinDD beta_d"):
            assert block.count(label) == 4
        assert block.count("LinDD transform") == transform_rows
    assert "20 reps per cell, seed 1" in out


def test_table_cell_config_runs(capsys):
    config = SCRIPTS / "table_cell.cfg"
    code = run_cli(["simulate", "--config", config, "--reps", "20", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["errors"] == []
    echo = payload["config_echo"]
    assert echo["family"] == "positive"
    assert (echo["beta_qtau"], echo["beta_d"]) == (0.5, 0.5)
    assert (echo["n"], echo["repetitions"], echo["seed"]) == (1000, 20, 1)
    assert payload["results"]["effective_repetitions"] == 20
