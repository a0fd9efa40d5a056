"""Fixed reference work, run as its own process between the measured ones.

The machine this benchmark runs on changes speed by up to 2x over seconds
to minutes, and a whole run can fall into a slow stretch.  A process that
does the same work every time, started the same way as the measured
processes and right next to them, slows down with them; the harness
divides each measured time by the mean of the calibration times on either
side of it.  The work is interpreter-bound like lagflag's: small objects,
dicts, sorting, string building and JSON.  It imports nothing from lagflag,
so a change to lagflag cannot change it.
"""

import json

ROWS = 40_000


def main() -> None:
    rows = [
        {"n": i % 17, "steps": "VH" * (i % 9), "parts": [i % 5, i % 7], "w": (i, i * 3)}
        for i in range(ROWS)
    ]
    rows.sort(key=lambda r: (r["n"], r["w"][1] % 101))
    counts: dict[tuple[int, int], int] = {}
    for r in rows:
        key = (r["n"], len(r["steps"]))
        counts[key] = counts.get(key, 0) + 1
    text = json.dumps(rows[: ROWS // 2])
    print(len(text), len(counts))


if __name__ == "__main__":
    main()
