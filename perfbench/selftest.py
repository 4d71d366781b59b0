"""Self-tests of the benchmark's checks, inputs and span arithmetic.

Each checker must accept real CLI output of a small config and reject the
same output with a perturbed distance, a flipped verdict or a ground
energy above its bound; a run must flag a wrong exit code or a timeout
even where every operation fails on the known fault.  Run from the
repository root (about 10 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import sys
import time
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"


def small(kind: str) -> dict:
    rng = np.random.default_rng(7)
    if kind == "rwa":
        return inputs._config(
            rng, 7, {"beta": 0.0, "kappa": 1.0, "lambda_max": 4.0, "n_modes": 4},
            inputs._RWA, 4, 100000.0, [2.0, 4.0],
        )
    if kind == "supercritical":
        return inputs._config(
            rng, 7, {"beta": -0.5, "kappa": 1.0, "lambda_max": 16.0, "n_modes": 4},
            inputs._SCALAR_X, 3, 1.0, [2.0, 4.0, 8.0, 16.0],
        )
    return inputs._config(
        rng, 7, {"beta": -0.5, "kappa": 1.0, "lambda_max": 8.0, "n_modes": 3},
        inputs._SCALAR_X, 4, 1.0, [1.0, 4.0, 8.0], vanhove_n_max=22, vanhove_restrict_m=1,
    )


def run_cli(cli: str, cfg: dict, name: str) -> tuple[int, Path]:
    from sbfock.cli import main

    out = WORK / f"{cli}-{name}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(cfg))
    with redirect_stdout(io.StringIO()):
        code = main([cli, "--config", str(config), "--out", str(out)])
    return code, out


def replaced(rows, i, key, value):
    rows = copy.deepcopy(rows)
    rows[i][key] = value
    return rows


class ConvergeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cfg = small("rwa")
        code, out = run_cli("converge", cls.cfg, "rwa")
        assert code == 0, code
        cls.rows = checks.read_rows(out / "converge.csv")

    def test_accepts_real_output(self):
        self.assertEqual(checks.check_converge(self.cfg, self.rows, expect_pass=True), [])

    def test_rejects_distance_outside_resolvent_bound(self):
        self.assertTrue(checks.check_converge(self.cfg, replaced(self.rows, 0, "resolvent_distance", "2.5"), True))
        self.assertTrue(checks.check_converge(self.cfg, replaced(self.rows, 1, "resolvent_distance", "-1e-3"), True))

    def test_rejects_flipped_verdict(self):
        self.assertTrue(checks.check_converge(self.cfg, replaced(self.rows, 1, "verdict", "FAIL"), True))
        self.assertTrue(checks.check_converge(self.cfg, self.rows, expect_pass=False))

    def test_rejects_perturbed_counterterm(self):
        e = float(self.rows[0]["E_trace"])
        self.assertTrue(checks.check_converge(self.cfg, replaced(self.rows, 0, "E_trace", repr(e * 1.001)), True))

    def test_rejects_ground_energy_above_rayleigh_quotient(self):
        for key in ("ground_energy_reg", "ground_energy_renorm"):
            bumped = replaced(self.rows, 0, key, repr(checks.rayleigh_reg(self.cfg, 2.0) + 1e-3))
            self.assertTrue(checks.check_converge(self.cfg, bumped, True), key)

    def test_numpy_repr_is_malformed_but_still_checked(self):
        ok = replaced(self.rows, 0, "ground_energy_reg", f"np.float64({self.rows[0]['ground_energy_reg']})")
        problems = checks.check_converge(self.cfg, ok, True)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith(checks.MALFORMED))
        high = replaced(self.rows, 0, "ground_energy_reg", "np.float64(0.5)")
        self.assertTrue(any(not p.startswith(checks.MALFORMED) for p in checks.check_converge(self.cfg, high, True)))


class DenseReference(unittest.TestCase):
    def test_distances_match_dense_svd_and_reject_perturbation(self):
        code, out = run_cli("converge", small("supercritical"), "supercritical")
        self.assertIn(code, (0, 1))
        rows = checks.read_rows(out / "converge.csv")
        reference = checks.dense_distances(out / "config.json")
        self.assertEqual(checks.check_distances(rows, reference), [])
        d = float(rows[2]["resolvent_distance"])
        self.assertTrue(checks.check_distances(replaced(rows, 2, "resolvent_distance", repr(d * 1.001)), reference))


class VanHoveChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cfg = small("vanhove")
        code, out = run_cli("vanhove", cls.cfg, "vanhove")
        assert code == 0, code
        cls.rows = checks.read_rows(out / "vanhove.csv")

    def test_accepts_real_output(self):
        self.assertEqual(checks.check_vanhove(self.cfg, self.rows), [])

    def test_rejects_perturbations(self):
        g = float(self.rows[1]["ground_energy"])
        p = float(self.rows[2]["parity_expectation"])
        for bad in (
            replaced(self.rows, 1, "ground_energy", repr(g + 1e-3)),
            replaced(self.rows, 2, "parity_expectation", repr(p * 1.001)),
            replaced(self.rows, 0, "conjugation_deviation", "2e-7"),
            replaced(self.rows, 2, "verdict", "FAIL"),
        ):
            self.assertTrue(checks.check_vanhove(self.cfg, bad))


class DeskChecks(unittest.TestCase):
    def test_verify_rejects_a_failed_check(self):
        code, out = run_cli("verify", small("rwa"), "rwa")
        self.assertEqual(code, 0)
        rows = checks.read_rows(out / "verify_results.csv")
        summary = json.loads((out / "verify.json").read_text())
        self.assertEqual(checks.check_verify(rows, summary), [])
        self.assertTrue(checks.check_verify(replaced(rows, 3, "verdict", "FAIL"), summary))

    def test_spectrum_rejects_ground_energy_above_minus_one(self):
        cfg = small("rwa")
        code, out = run_cli("spectrum", cfg, "rwa")
        self.assertEqual(code, 0)
        rows = checks.read_rows(out / "spectrum.csv")
        self.assertEqual(checks.check_spectrum(cfg, rows), [])
        self.assertTrue(checks.check_spectrum(cfg, replaced(rows, 1, "ground_energy_reg", "-0.999")))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(inputs.build(workload, 3), inputs.build(workload, 3))
        self.assertNotEqual(inputs.build("desk", 3)[0], inputs.build("desk", 4)[0])
        self.assertEqual(inputs.build("study", 3)[0], inputs.build("study", 4)[0])

    def test_nodes_keep_their_side_of_threshold_and_cutoffs(self):
        cuts = [4.0, 32.0, 256.0]
        mid = [m["omega"] for m in inputs.jittered_modes(None, 0.0, 1.0, 256.0, 42, cuts)]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            nodes = [m["omega"] for m in inputs.jittered_modes(rng, 0.0, 1.0, 256.0, 42, cuts)]
            for b in [1.0, *cuts]:
                self.assertEqual([w < b for w in nodes], [w < b for w in mid])


class RunSummary(unittest.TestCase):
    def test_known_fault_alone_keeps_correct(self):
        def record(problems):
            return {"failed": bool(problems), "known_fault": run.known_fault(problems)}

        malformed = [f"{checks.MALFORMED}: ground_energy_reg=np.float64(-1.0)"]
        self.assertEqual(run.summary([record(malformed), record([])]), {"correct": True, "attempted": 2, "failed": 1})
        wrong = malformed + ["Lambda=4: verdict FAIL, expected PASS"]
        self.assertFalse(run.summary([record(malformed), record(wrong)])["correct"])

    def test_wrong_exit_code_and_timeout_are_flagged(self):
        configs, commands = inputs.build("study", 1)
        work = WORK / "run"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for name, cfg in configs.items():
            (work / f"{name}.json").write_text(json.dumps(cfg))
        checker = checks.Checker(configs, work)

        def exits_3(cmd, config, out, spans_dir):
            return [sys.executable, "-c", "raise SystemExit(3)"]

        with mock.patch.object(run, "command_argv", exits_3):
            records = run.run_round(commands, work, checker, None, time.monotonic() + 60)
        self.assertEqual(records[0]["exit"], 3)
        self.assertEqual(run.summary(records), {"correct": False, "attempted": 1, "failed": 1})

        records = run.run_round(commands, work, checker, None, time.monotonic() + 0.05)
        self.assertIsNone(records[0]["exit"])
        self.assertFalse(run.summary(records)["correct"])


class LayerMetrics(unittest.TestCase):
    def test_self_time_and_derived_counts(self):
        names = ["cli.converge", "renorm.ground_energy", "kernel.eigvalsh", "kernel.eigsh", "solvers.solve"]
        spans = [
            [0, 0.0, 10.0, -1],
            [1, 1.0, 4.0, 0],
            [2, 1.5, 2.5, 1],
            [3, 2.5, 3.5, 1],
            [3, 5.0, 7.0, 0],  # a distance eigsh, outside ground_energy
            [4, 5.5, 6.0, 4],
        ]
        doc = {"names": names, "spans": spans, "counters": {"solvers.components.gmres": 1, "fock.basis_dim": 9}}
        m = {k: v["value"] for k, v in tracer.layer_metrics([doc, doc], overhead_s=0.5).items()}
        self.assertEqual(set(m), set(tracer.metric_names()))
        self.assertAlmostEqual(m["cli.converge_s"], 20.0)
        self.assertAlmostEqual(m["cli.self_s"], 2 * (10.0 - 3.0 - 2.0))
        self.assertAlmostEqual(m["renorm.self_s"], 2 * 1.0)
        self.assertAlmostEqual(m["kernel.self_s"], 2 * (1.0 + 1.0 + 1.5))
        self.assertAlmostEqual(m["kernel.eigsh_s"], 2 * 3.0)
        self.assertAlmostEqual(m["renorm.distance_s"], 2 * 2.0)
        self.assertEqual(m["renorm.eigensolves_per_ground"], 2.0)
        self.assertEqual(m["kernel.eigsh_calls"], 4)
        self.assertEqual(m["solvers.solves"], 2)
        self.assertEqual(m["solvers.components.gmres"], 2)
        self.assertEqual(m["fock.basis_dim"], 9)
        self.assertEqual(m["trace.overhead_s"], 0.5)


if __name__ == "__main__":
    unittest.main()
