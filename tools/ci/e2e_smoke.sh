#!/usr/bin/env bash
# End-to-end correctness smoke over the benchmark's workloads.  CI runs
# this after building e2ebench with its own CMake; it can also be run
# locally from the repository root:
#
#   cmake -S e2ebench -B .bench_build/e2ebench -DCMAKE_BUILD_TYPE=Release
#   cmake --build .bench_build/e2ebench -j
#   tools/ci/e2e_smoke.sh [bench-build-dir]   # default: .bench_build/e2ebench
#
# It runs the benchmark's self-tests, then each workload for two seconds
# with tracing on.  The benchmark checks every answer it gets (SemEQUAL
# counts, LexEQUAL probes and joins, point lookups) against its own
# reference checker; the job fails unless the last line of each run
# reports "correct": true and "failed": 0.
set -euo pipefail

BUILD_DIR="${1:-.bench_build/e2ebench}"
for bin in e2e_selftest mural_e2e; do
  [ -x "$BUILD_DIR/$bin" ] || {
    echo "missing binary: $BUILD_DIR/$bin (build e2ebench first)"
    exit 1
  }
done

"$BUILD_DIR/e2e_selftest"

status=0
for workload in lex_search_1c catalog_oltp_4c crossling_report_1c; do
  result="$("$BUILD_DIR/mural_e2e" --workload "$workload" --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)"
  if python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$result"; then
    echo "e2e smoke: $workload ok"
  else
    echo "e2e smoke: $workload FAILED: $result"
    status=1
  fi
done
exit "$status"
