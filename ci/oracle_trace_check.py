"""Run the traced oracle-crosscheck workload and fail unless it is correct and
enumerates 21,339 partitions.

The tracer wraps core.s_table_by_series and the other traced layers by name,
which tier-1 never runs.  It counts what enumerate_partitions yields, so a
partition route that bypassed the one walk would read 0 and hide the
oracle's work.  Run from the root of a checkout:

    python3 ci/oracle_trace_check.py
"""

import json
import subprocess
import sys

PARTITIONS = 21339

argv = [sys.executable, "perfbench/run.py", "--workload", "oracle-crosscheck",
        "--seed", "1", "--seconds", "1", "--trace", "1"]
done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
print(done.stdout, end="")
result = json.loads(done.stdout.splitlines()[-1])
correct = result["correct"]
count = result["metrics"]["partitions.partitions_enumerated"]["value"]
if correct is not True or count != PARTITIONS:
    sys.exit(f"oracle-crosscheck: correct={correct}, partitions_enumerated={count}, "
             f"expected {PARTITIONS}")
print(f"oracle-crosscheck correct, {PARTITIONS} partitions enumerated")
