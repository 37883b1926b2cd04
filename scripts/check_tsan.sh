#!/usr/bin/env bash
# Vets the concurrent paths (ThreadPool, parallel characterization,
# parallel forest training, the store's cross-group training schedule
# and the dataset dedup index it reads, the active-learning scoring/retraining
# loop, and the serve reactor + compute plane:
# reactor thread, compute workers, wakeup pipe, stats, hot reload, the
# sojourn-shed admission policy and store-fault recovery, the fault
# hooks' lock-free disarmed check racing arm/disarm, and the NetFault
# regression tests: EINTR/EAGAIN storms, trickles, injected resets)
# under ThreadSanitizer. Intended for local pre-merge checks and CI;
# pass a different build dir as $1.
set -eu
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DCAML_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target caml_tests
"$BUILD_DIR"/tests/caml_tests --gtest_filter='ThreadPool*:Parallel*:ResolveJobs*:RandomForest*:Dataset*:ModelStore*:Characterize*:Obs*:Serve*:NetFault*:FaultRace*:BinaryStore*:Active*'
echo "TSan concurrency check passed"
