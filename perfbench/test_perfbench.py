"""Tests of the benchmark's own parts, on small inputs.

    python3 -m unittest discover -s perfbench -p "test_*.py"

The generator must give the same bytes for the same seed, and each output
check must pass on the program's real outputs and fail on a deliberately
corrupted copy of them.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import generate  # noqa: E402

SMALL = {
    "JOIN_MENTIONS": 160,
    "JOIN_VARIANT_LINES": 40,
    "CORPUS_MENTIONS": 80,
    "CORPUS_ROWS": 2_000,
    "CORPUS_PAPERS": 500,
    "RECLUSTER_MENTIONS": 900,
    "RECLUSTER_FAMILIES": 150,
}
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def small_generate(workload: str, seed: int, dest: Path) -> dict:
    saved = {name: getattr(generate, name) for name in SMALL}
    try:
        for name, value in SMALL.items():
            setattr(generate, name, value)
        return json.loads(json.dumps(generate.generate(workload, seed, dest)))
    finally:
        for name, value in saved.items():
            setattr(generate, name, value)


def tree_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def run_pipeline(workdir: Path, plan: dict) -> None:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    if (workdir / "artifacts").exists():
        shutil.copytree(workdir / "artifacts", out)
    commands = [["run-all"]] if plan["mode"] == "run-all" else [["cluster"], ["link"]]
    for command in commands:
        subprocess.run(
            [sys.executable, "-m", "softmentions.cli", *command, "--config", "config.cfg"],
            cwd=workdir, env=ENV, check=True, capture_output=True, timeout=300,
        )


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for workload in sorted(generate.GENERATORS):
                first = small_generate(workload, 5, tmp / f"{workload}-a")
                second = small_generate(workload, 5, tmp / f"{workload}-b")
                other = small_generate(workload, 6, tmp / f"{workload}-c")
                self.assertEqual(first, second)
                self.assertEqual(tree_digest(tmp / f"{workload}-a"), tree_digest(tmp / f"{workload}-b"))
                self.assertNotEqual(tree_digest(tmp / f"{workload}-a"), tree_digest(tmp / f"{workload}-c"))

    def test_bytes_do_not_depend_on_hash_seed(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import generate, json;"
            "print(json.dumps(generate.generate('recluster', 3, sys.argv[2])['families'][:50]))"
        )
        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for hash_seed in ("1", "2"):
                dest = Path(tmp) / hash_seed
                proc = subprocess.run(
                    [sys.executable, "-c", script, str(HERE), str(dest)],
                    env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                    check=True, capture_output=True, text=True, timeout=300,
                )
                outputs.append((proc.stdout, tree_digest(dest)))
            self.assertEqual(outputs[0], outputs[1])


class ChecksTest(unittest.TestCase):
    """Each check passes on real outputs and fails on a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.workdirs, cls.plans = {}, {}
        for workload in ("join", "recluster"):
            workdir = Path(cls.tmp.name) / workload
            cls.plans[workload] = small_generate(workload, 9, workdir)
            run_pipeline(workdir, cls.plans[workload])
            cls.workdirs[workload] = workdir

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def corrupted(self, workload: str) -> Path:
        """A copy of the workload's directory whose outputs a test may edit."""
        dest = Path(self.tmp.name) / f"{workload}-{self._testMethodName}"
        shutil.copytree(self.workdirs[workload], dest)
        return dest

    def assert_check_fails(self, workdir: Path, workload: str, message: str):
        with self.assertRaises(checks.CheckError) as caught:
            checks.check_outputs(workdir, self.plans[workload])
        self.assertIn(message, str(caught.exception))

    def test_real_outputs_pass(self):
        for workload, workdir in self.workdirs.items():
            checks.check_outputs(workdir, self.plans[workload])

    def test_dropped_synonym_pair_fails(self):
        workdir = self.corrupted("join")
        out = workdir / "out"
        planted = {tuple(p) for p in self.plans["join"]["variant_pairs"]}
        lines = (out / "synonyms.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        victim = next(
            k for k, line in enumerate(lines)
            if line.rstrip("\n").endswith("\tStringSimilarity")
            and tuple(sorted(line.split("\t")[2:4])) in planted
        )
        del lines[victim]
        (out / "synonyms.tsv").write_text("".join(lines), encoding="utf-8")
        # Keep the manifest consistent, so only the pair check can notice.
        manifest = json.loads((out / "manifest_synonyms.json").read_text())
        manifest["row_counts"]["pairs"] -= 1
        manifest["row_counts"]["by_source"]["StringSimilarity"] -= 1
        (out / "manifest_synonyms.json").write_text(json.dumps(manifest))
        self.assert_check_fails(workdir, "join", "missing StringSimilarity pair")

    def test_renamed_cluster_fails(self):
        for workload in ("join", "recluster"):
            workdir = self.corrupted(workload)
            path = workdir / "out" / "clusters.tsv"
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            rows = [line.split("\t") for line in lines]
            members = [row for row in rows if row[0] == rows[0][0]]
            new_name = next(row[4] for row in members if row[4] != row[2])
            for row in members:
                row[2] = new_name
            rows = ["\t".join(row) for row in rows]
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            self.assert_check_fails(workdir, workload, "clusters.tsv")

    def test_swapped_frequency_fails(self):
        workdir = self.corrupted("join")
        path = workdir / "out" / "frequencies.tsv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        k = next(k for k in range(len(rows) - 1) if rows[k].split("\t")[1] != rows[k + 1].split("\t")[1])
        (m1, f1), (m2, f2) = rows[k].split("\t"), rows[k + 1].split("\t")
        rows[k], rows[k + 1] = f"{m1}\t{f2}", f"{m2}\t{f1}"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        self.assert_check_fails(workdir, "join", "frequencies.tsv")

    def test_moved_family_member_fails(self):
        workdir = self.corrupted("recluster")
        families = self.plans["recluster"]["families"]
        plan = dict(self.plans["recluster"], families=[families[0] + families[1][:1], families[1][1:]] + families[2:])
        with self.assertRaises(checks.CheckError) as caught:
            checks.check_outputs(workdir, plan)
        self.assertIn("planted families", str(caught.exception))

    def test_wrong_link_source_fails(self):
        workdir = self.corrupted("recluster")
        path = workdir / "out" / "metadata.tsv"
        header, first, *rows = path.read_text(encoding="utf-8").splitlines()
        fields = first.split("\t")
        fields[3] = "CodeHostAPI" if fields[3] != "CodeHostAPI" else "PkgIndexPy"
        path.write_text("\n".join([header, "\t".join(fields), *rows]) + "\n", encoding="utf-8")
        self.assert_check_fails(workdir, "recluster", "metadata.tsv")

    def test_changed_corpus_row_fails(self):
        workdir = self.corrupted("join")
        path = workdir / "out" / "disambiguated.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = lines[1].replace("comm", "non_comm", 1)
        path.write_text("\n".join(lines), encoding="utf-8")
        self.assert_check_fails(workdir, "join", "disambiguated.tsv: line 2")


class TracerTest(unittest.TestCase):
    def test_every_per_layer_metric_is_recorded(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = {m["name"] for m in spec["per_layer"]} - {"synonyms.jw_hit_ratio", "trace.overhead_s"}
        seen = set()
        with tempfile.TemporaryDirectory() as tmp:
            for workload in ("join", "recluster"):
                workdir = Path(tmp) / workload
                plan = small_generate(workload, 2, workdir)
                run_pipeline(workdir, plan)
                if plan["mode"] == "recluster":
                    shutil.rmtree(workdir / "out")
                    shutil.copytree(workdir / "artifacts", workdir / "out")
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), plan["mode"], "1"],
                    cwd=workdir, env=ENV, check=True, capture_output=True, text=True, timeout=300,
                )
                seen |= set(json.loads(proc.stdout)["layers"])
                checks.check_outputs(workdir, plan)
        self.assertEqual(sorted(wanted - seen), [])


class EntryPointTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns(".cache", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "join", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
