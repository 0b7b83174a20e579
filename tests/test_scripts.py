import pathlib
import subprocess
import sys

from mti.cli import run

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run(args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300
    )


def test_density_experiment_script(tmp_path, capsys):
    proc = _run(
        [
            SCRIPTS / "density_experiment.py",
            "--tmax",
            "60",
            "--primes",
            "3",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    assert "class-size-derived 2.0000" in proc.stdout
    # the script and `mti census` print one and the same report
    assert run(["census", "--prime", "3", "--tmax", "60"]) == 0
    assert capsys.readouterr().out in proc.stdout
    csv = tmp_path / "census_p3_T60.csv"
    assert csv.exists()
    assert csv.read_text().startswith("T,total,c1,c2")


def test_gauss_sum_sweep_script():
    proc = _run([SCRIPTS / "gauss_sum_sweep.py", "--samples", "15", "--kmax", "4", "--tmax", "25"])
    assert proc.returncode == 0, proc.stderr
    assert "worst |gauss sum| vs |trace| difference" in proc.stdout
    worst = float(proc.stdout.split("difference: ")[1].split()[0])
    assert worst < 1e-8
