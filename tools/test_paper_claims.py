#!/usr/bin/env python3
"""Self-test for tools/paper_claims.py: a changed verdict must fail the check.

Runs the checker against the checked-in results and against copies with
one number changed: a swapped pair must turn a holding claim into a
failure, and a claim recorded as failing that now holds must fail the
check too, so a record cannot go stale. A claim pools the cells of a
group, so changing one seed's cell must be able to flip it; and a claim
over a cell that failed, missed its deadline or has no flows of the
claimed class is unusable input.

    python3 tools/test_paper_claims.py
"""

import csv
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "paper_claims.py")
RESULTS = os.path.join(os.path.dirname(HERE), "examples", "farm", "paper", "results")


def run_checker(*args):
    return subprocess.run([sys.executable, CHECKER, *args], capture_output=True, text=True)


def edit_csv(path, edit):
    """Rewrite merged table `path` after edit(rows) changes it in place."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cell(rows, **coords):
    match = [r for r in rows if all(r[k.replace("_", "-")] == v for k, v in coords.items())]
    assert len(match) == 1, coords
    return match[0]


class PaperClaimsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.results = os.path.join(self.tmp, "results")
        shutil.copytree(RESULTS, self.results)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_checked_in_results_match_every_record(self):
        r = run_checker()
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("20 claims: 17 hold, 3 fail; 0 differ from their record", r.stdout)

    def test_swapped_pair_fails_its_claim(self):
        def swap(rows):
            uno = cell(rows, cross_links="8", scheme="uno")
            ecmp = cell(rows, cross_links="8", scheme="uno+ecmp")
            uno["inter_mean_us"], ecmp["inter_mean_us"] = (ecmp["inter_mean_us"],
                                                            uno["inter_mean_us"])
        edit_csv(os.path.join(self.results, "fig9.csv"), swap)
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        lines = r.stdout.splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("fig9-inter-mean-8-links"))
        block = "\n".join(lines[at:at + 3])
        self.assertIn("uno 17.12 >= uno+ecmp 13.67", block)
        self.assertIn("FAILS, recorded holds  <-- VERDICT CHANGED", block)

    def test_failing_record_that_now_holds_is_stale(self):
        def lower_uno(rows):
            cell(rows, load="0.8", scheme="uno")["inter_mean_us"] = "1"
        edit_csv(os.path.join(self.results, "fig10.csv"), lower_uno)
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("holds, recorded FAILS  <-- VERDICT CHANGED", r.stdout)

    def test_one_seed_can_flip_a_pooled_claim(self):
        # fig13b pools 50 seeds per scheme: the claim compares their means,
        # so slowing only the first of uno's cells must be able to flip it.
        path = os.path.join(self.results, "fig13b.csv")
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        uno = [float(r["inter_mean_us"]) for r in rows if r["scheme"] == "uno"]
        spray_ec = [float(r["inter_mean_us"]) for r in rows if r["scheme"] == "spray+ec"]
        self.assertEqual(len(uno), 50)
        r = run_checker()
        self.assertIn(f"uno {sum(uno) / 50 / 1000:.2f} < spray+ec "
                      f"{sum(spray_ec) / 50 / 1000:.2f}", r.stdout)

        def slow_first_uno(rows):
            # Enough to lift uno's mean 1 ms above spray+ec's.
            first = next(r for r in rows if r["scheme"] == "uno")
            first["inter_mean_us"] = str(float(first["inter_mean_us"]) +
                                         sum(spray_ec) - sum(uno) + 50 * 1000)
        edit_csv(path, slow_first_uno)
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        lines = r.stdout.splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("fig13b-inter-mean-order"))
        self.assertIn("FAILS, recorded holds  <-- VERDICT CHANGED", lines[at + 2])

    def test_failed_cell_in_a_pooled_group_is_an_input_error(self):
        def fail_one_seed(rows):
            row = next(r for r in rows if r["scheme"] == "plb+ec")
            for column in row:
                if column not in ("cell", "scheme", "seed"):
                    row[column] = ""
            row["status"] = "failed"
        edit_csv(os.path.join(self.results, "fig13b.csv"), fail_one_seed)
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("has no inter_mean_us result", r.stderr)

    def test_claim_over_an_empty_class_is_an_input_error(self):
        # An FCT class with no flows leaves its cells empty in an ok row, as
        # the intra columns of the inter-only Fig 13 tables are; a claim
        # over such a cell has no number to read.
        for spec in ("fig13a", "fig13b", "fig13c"):
            with open(os.path.join(RESULTS, spec + ".csv"), newline="") as f:
                rows = list(csv.DictReader(f))
            self.assertTrue(all(r["status"] == "ok" and r["intra_mean_us"] == ""
                                and r["inter_mean_us"] != "" for r in rows), spec)

        def empty_class(rows):
            cell(rows, cross_links="8", scheme="uno")["inter_mean_us"] = ""
        edit_csv(os.path.join(self.results, "fig9.csv"), empty_class)
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("has no inter_mean_us result", r.stderr)

    def test_cell_that_missed_its_deadline_is_an_input_error(self):
        # Its FCTs cover only the flows that completed, so no claim may read it.
        def miss_deadline(rows):
            cell(rows, cross_links="8", scheme="gemini")["done"] = "NO"
        edit_csv(os.path.join(self.results, "fig9.csv"), miss_deadline)
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("missed its deadline", r.stderr)

    def test_missing_results_are_an_input_error(self):
        os.remove(os.path.join(self.results, "fig11.csv"))
        r = run_checker("--results", self.results)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("fig11.csv", r.stderr)


if __name__ == "__main__":
    unittest.main()
