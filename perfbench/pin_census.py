"""Write census_answers.json: the census pool with each graph's answers.

    python3 perfbench/pin_census.py

Run this only on a commit whose answers are trusted; the benchmark compares
every census task against this file, so a later change to the package that
alters an answer shows as a wrong answer.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import raagspine  # noqa: E402
from workloads import ANSWERS_FILE, census_answer, census_pool  # noqa: E402


def main() -> None:
    rows = []
    for n, edges in census_pool():
        g = raagspine.SimplicialGraph([f"x{v}" for v in range(n)], [(f"x{a}", f"x{b}") for a, b in edges])
        start = perf_counter()
        cg = raagspine.compatibility_graph(g)
        answer = census_answer(cg, raagspine.analyze(g, cg))
        rows.append({"n": n, "edges": edges, "answer": answer, "seconds": round(perf_counter() - start, 4)})
    ANSWERS_FILE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    times = sorted(r["seconds"] for r in rows)
    print(f"{len(rows)} graphs, {sum(times):.2f} s in all, slowest {times[-5:]}")


if __name__ == "__main__":
    main()
