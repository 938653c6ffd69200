#!/usr/bin/env python3
"""Regenerate the committed synthetic two-row-type dataset used by the test
suite.  Deterministic: rerunning produces the identical CSV."""
import csv
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "..", "tests", "data", "synth.csv")

N_PER_TYPE = 600
CLASS_COUNTS = {"g1": 360, "g2": 180, "g3": 60}
NOISE = 0.7

# well separated 5-D class centers, different per row type
CENTERS = {
    "agriculture": {
        "g1": [0.0, 0.0, 0.0, 0.0, 0.0],
        "g2": [5.0, 5.0, 0.0, -4.0, 1.0],
        "g3": [-4.0, 4.0, 5.0, 4.0, -4.0],
    },
    "personal": {
        "g1": [4.0, -4.0, 4.0, 0.0, 3.0],
        "g2": [-4.0, 0.0, -4.0, 4.0, -3.0],
        "g3": [0.0, 5.0, 1.0, -5.0, -5.0],
    },
}
CODES = {"agriculture": ["AG01", "AG02"], "personal": ["PL01"]}
CATS = ["north", "south", "east", "west"]


def main():
    rng = np.random.default_rng(20240817)
    rows = []
    for row_type in ("agriculture", "personal"):
        for grade, count in CLASS_COUNTS.items():
            center = np.array(CENTERS[row_type][grade])
            feats = rng.normal(center, NOISE, size=(count, 5))
            for x in feats:
                code = CODES[row_type][rng.integers(len(CODES[row_type]))]
                cells = [f"{v:.4f}" for v in x]
                # ~5% missing in F3
                if rng.random() < 0.05:
                    cells[2] = ""
                noise_col = f"{rng.normal(0.0, 1.0):.4f}"
                cat = CATS[rng.integers(len(CATS))]
                # SPARSE1 is ~90% missing so the threshold rule drops it
                sparse = f"{rng.normal():.3f}" if rng.random() < 0.10 else ""
                rows.append([code, grade, *cells, noise_col, cat, sparse])
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["SEGCD", "grade", "F1", "F2", "F3", "F4", "F5",
                         "F6", "CAT1", "SPARSE1"])
        for i, row in enumerate(rows):
            writer.writerow([row[0], row[1], *row[2:]])
    print(f"wrote {OUT} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
