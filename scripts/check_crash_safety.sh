#!/usr/bin/env bash
# Crash-safety harness: builds the tree (the fault hooks are compiled
# into every build and armed at runtime), runs the fault-injection unit
# tests, then drives the CLI end to end:
#
#   * malformed spec — a bogus CAML_FAULT must make `caml` exit nonzero
#     naming CAML_FAULT, before it does any work;
#   * kill sweep — SIGKILLs `caml characterize` at the Nth persistence
#     operation for N = 1, 2, ... (via CAML_FAULT="*:kill:N"), resumes
#     with --resume, and byte-compares the final model directory against
#     an uninterrupted reference run;
#   * corrupt-store rejection — a bit-flipped model store must make
#     `caml serve` refuse startup with exit code 3 and `caml predict`
#     fail loudly;
#   * model-store publish sweep — SIGKILL at the Nth persistence op and
#     a torn rename during `caml train -o` must leave the target
#     byte-identical to the previous complete store;
#   * old text store — `caml serve` on a `models` (text) container must
#     refuse startup with exit code 3;
#   * SIGHUP hot reload — a failed reload (corrupt file on disk) keeps
#     the daemon serving the old mapping; a good reload is counted.
#
# Exits nonzero on any violation. Pass a different build dir as $1.
set -eu
BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j --target caml_cli caml_tests characterize_library >/dev/null
CAML="$BUILD_DIR/tools/caml"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

corrupt_byte() {
  # Flips one byte near the end of $1 (inside the framed payload, past
  # the container header — exactly what the CRC must catch).
  local file="$1" size offset
  size=$(wc -c < "$file")
  offset=$((size - 4))
  printf '\377' | dd of="$file" bs=1 seek="$offset" conv=notrunc 2>/dev/null
}

echo "== fault-injection unit tests"
"$BUILD_DIR"/tests/caml_tests --gtest_filter='IoFault*:DurabilityFault*' \
  | grep -q 'PASSED' || { echo "FAIL: fault-injection unit tests failed"; exit 1; }

echo "== generate a small library"
"$BUILD_DIR"/examples/characterize_library "$WORK/lib" >/dev/null
# First three cells are plenty for the kill sweep and keep it fast.
awk '/^\.SUBCKT/{n++} n<=3' "$WORK/lib/28SOI.sp" > "$WORK/small.sp"
grep -q '^\.SUBCKT' "$WORK/small.sp" || { echo "FAIL: no cells extracted"; exit 1; }

echo "== malformed CAML_FAULT is a clean CLI error"
status=0
CAML_FAULT=bogus "$CAML" characterize "$WORK/small.sp" -o "$WORK/bogus" \
  >/dev/null 2>"$WORK/bogus.err" || status=$?
[ "$status" != 0 ] || { echo "FAIL: caml accepted CAML_FAULT=bogus"; exit 1; }
grep -q "CAML_FAULT" "$WORK/bogus.err" \
  || { echo "FAIL: malformed-spec error does not name CAML_FAULT"; cat "$WORK/bogus.err"; exit 1; }
[ ! -e "$WORK/bogus" ] \
  || { echo "FAIL: caml did work (created its output dir) before rejecting CAML_FAULT"; exit 1; }

echo "== kill sweep: SIGKILL at the Nth persistence op, resume, byte-compare"
"$CAML" characterize "$WORK/small.sp" -o "$WORK/ref" --jobs 1 --checkpoint-every 1 \
  >/dev/null 2>&1
completed_without_kill=0
for n in $(seq 1 24); do
  rm -rf "$WORK/run"
  status=0
  CAML_FAULT="*:kill:$n" "$CAML" characterize "$WORK/small.sp" -o "$WORK/run" \
    --jobs 1 --checkpoint-every 1 >/dev/null 2>&1 || status=$?
  if [ "$status" = 0 ]; then
    # The run outlived the fault: every persistence op < n already
    # survived a kill, so the sweep is complete.
    completed_without_kill=1
    diff -r "$WORK/ref" "$WORK/run" >/dev/null \
      || { echo "FAIL: un-killed run at n=$n differs from reference"; exit 1; }
    break
  fi
  [ "$status" = 137 ] \
    || { echo "FAIL: kill:$n exited with $status, expected SIGKILL (137)"; exit 1; }
  "$CAML" characterize "$WORK/small.sp" -o "$WORK/run" --resume \
    --jobs 1 --checkpoint-every 1 >/dev/null 2>&1 \
    || { echo "FAIL: resume after kill:$n failed"; exit 1; }
  diff -r "$WORK/ref" "$WORK/run" >/dev/null \
    || { echo "FAIL: resumed directory differs from reference after kill:$n"; diff -r "$WORK/ref" "$WORK/run" | head; exit 1; }
done
[ "$completed_without_kill" = 1 ] \
  || { echo "FAIL: sweep never ran past the last persistence op (raise the bound)"; exit 1; }

echo "== active-flow kill sweep: SIGKILL mid-acquisition, resume, byte-compare"
# Three more cells as the target half; the active loop journals each
# acquisition, so a killed run resumed with --resume must converge to
# the same journal and model-store bytes as an uninterrupted one.
awk '/^\.SUBCKT/{n++} n>=4 && n<=6' "$WORK/lib/28SOI.sp" > "$WORK/target.sp"
grep -q '^\.SUBCKT' "$WORK/target.sp" || { echo "FAIL: no target cells extracted"; exit 1; }
"$CAML" characterize "$WORK/target.sp" -o "$WORK/target_cam" --jobs 1 >/dev/null 2>&1
active_run() { # active_run CHECKPOINT_DIR STORE [extra...]
  ck="$1"; store="$2"; shift 2
  "$CAML" hybrid "$WORK/small.sp" "$WORK/ref" "$WORK/target.sp" "$WORK/target_cam" \
    --routing active --sim-budget 2 --budget-unit count --rounds 2 \
    --trees-per-round 2 --jobs 1 --checkpoint "$ck" -o "$store" "$@"
}
active_run "$WORK/act_ref" "$WORK/act_ref.caml" >/dev/null 2>&1
completed_without_kill=0
for n in $(seq 1 24); do
  rm -rf "$WORK/act_run"
  rm -f "$WORK/act_run.caml"
  status=0
  CAML_FAULT="*:kill:$n" active_run "$WORK/act_run" "$WORK/act_run.caml" \
    >/dev/null 2>&1 || status=$?
  if [ "$status" = 0 ]; then
    completed_without_kill=1
    cmp -s "$WORK/act_run.caml" "$WORK/act_ref.caml" \
      || { echo "FAIL: un-killed active run at n=$n differs from reference"; exit 1; }
    break
  fi
  [ "$status" = 137 ] \
    || { echo "FAIL: active kill:$n exited with $status, expected SIGKILL (137)"; exit 1; }
  active_run "$WORK/act_run" "$WORK/act_run.caml" --resume >/dev/null 2>&1 \
    || { echo "FAIL: active resume after kill:$n failed"; exit 1; }
  cmp -s "$WORK/act_run.caml" "$WORK/act_ref.caml" \
    || { echo "FAIL: resumed active store differs from reference after kill:$n"; exit 1; }
  cmp -s "$WORK/act_run/checkpoint.journal" "$WORK/act_ref/checkpoint.journal" \
    || { echo "FAIL: resumed active journal differs from reference after kill:$n"; exit 1; }
done
[ "$completed_without_kill" = 1 ] \
  || { echo "FAIL: active sweep never ran past the last persistence op (raise the bound)"; exit 1; }

echo "== corrupt-store rejection"
"$CAML" train "$WORK/small.sp" "$WORK/ref" -o "$WORK/groups.caml" --trees 8 >/dev/null 2>&1
cp "$WORK/groups.caml" "$WORK/groups.bad.caml"
corrupt_byte "$WORK/groups.bad.caml"
status=0
"$CAML" serve "$WORK/groups.bad.caml" --socket "$WORK/reject.sock" \
  >/dev/null 2>"$WORK/reject.err" || status=$?
[ "$status" = 3 ] \
  || { echo "FAIL: serve accepted a corrupt store (exit $status, want 3)"; exit 1; }
grep -q "refusing to serve" "$WORK/reject.err" \
  || { echo "FAIL: serve rejection is not a structured error"; cat "$WORK/reject.err"; exit 1; }
status=0
"$CAML" predict "$WORK/small.sp" -m "$WORK/groups.bad.caml" -o "$WORK/nope" \
  >/dev/null 2>"$WORK/predict.err" || status=$?
[ "$status" != 0 ] || { echo "FAIL: predict loaded a corrupt store"; exit 1; }
grep -q "groups.bad.caml" "$WORK/predict.err" \
  || { echo "FAIL: predict error does not name the corrupt file"; cat "$WORK/predict.err"; exit 1; }

echo "== model store: kill/torn-rename sweep over 'caml train -o'"
# Training and the store writer are deterministic, so after ANY
# interrupted rewrite the target must be byte-identical to the
# reference: either the old complete bytes survived or the new
# (identical) bytes were published.
train_store() {
  "$CAML" train "$WORK/small.sp" "$WORK/ref" -o "$WORK/groups.caml" --trees 8
}
cp "$WORK/groups.caml" "$WORK/groups.ref"
"$CAML" store "$WORK/groups.caml" --info >/dev/null \
  || { echo "FAIL: freshly trained store does not validate"; exit 1; }
completed_without_kill=0
for n in $(seq 1 16); do
  status=0
  CAML_FAULT="store:kill:$n" train_store >/dev/null 2>&1 || status=$?
  if [ "$status" = 0 ]; then
    completed_without_kill=1
  elif [ "$status" != 137 ]; then
    echo "FAIL: store kill:$n exited with $status, expected SIGKILL (137)"; exit 1
  fi
  cmp -s "$WORK/groups.caml" "$WORK/groups.ref" \
    || { echo "FAIL: torn/partial model store after kill:$n"; exit 1; }
  "$CAML" store "$WORK/groups.caml" --info >/dev/null \
    || { echo "FAIL: model store does not validate after kill:$n"; exit 1; }
  [ "$completed_without_kill" = 1 ] && break
done
[ "$completed_without_kill" = 1 ] \
  || { echo "FAIL: store-save sweep never ran past the last persistence op"; exit 1; }
# SIGKILL legitimately strands staging temps (no destructor runs); clear
# them so the torn-rename check below only sees files IT leaks.
rm -f "$WORK"/groups.caml.tmp.*
status=0
CAML_FAULT="store:torn-rename:1" train_store >/dev/null 2>&1 || status=$?
[ "$status" != 0 ] || { echo "FAIL: torn rename during store save went unnoticed"; exit 1; }
cmp -s "$WORK/groups.caml" "$WORK/groups.ref" \
  || { echo "FAIL: torn rename corrupted the published model store"; exit 1; }
ls "$WORK"/groups.caml.tmp.* >/dev/null 2>&1 \
  && { echo "FAIL: torn rename left a staging temp file behind"; exit 1; }

echo "== old text store is refused"
# A valid CAMLF1 container of kind "models": the text format older
# versions of `caml train` wrote.
python3 - "$WORK/groups.text.caml" <<'PY'
import sys, zlib
payload = b"CAMLMODELS groups=0 activity=1 response=1 truthtable=1 kind=0\nENDMODELS\n"
header = "CAMLF1 models len=%d crc32=%08x\n" % (len(payload), zlib.crc32(payload))
open(sys.argv[1], "wb").write(header.encode() + payload)
PY
status=0
"$CAML" serve "$WORK/groups.text.caml" --socket "$WORK/rejecttext.sock" \
  >/dev/null 2>"$WORK/rejecttext.err" || status=$?
[ "$status" = 3 ] \
  || { echo "FAIL: serve accepted a text store (exit $status, want 3)"; exit 1; }
grep -q "refusing to serve" "$WORK/rejecttext.err" \
  || { echo "FAIL: text-store rejection is not a structured error"; cat "$WORK/rejecttext.err"; exit 1; }

echo "== SIGHUP hot reload (failed reload keeps serving, good reload counted)"
SOCK="$WORK/serve.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 2 2>"$WORK/server.err" &
SERVER_PID=$!
ready=0
for _ in $(seq 1 50); do
  if "$CAML" query --ping --socket "$SOCK" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "FAIL: server never answered ping"; cat "$WORK/server.err"; exit 1; }
grep -q "opened binary model store" "$WORK/server.err" \
  || { echo "FAIL: server did not open the store via the mmap path"; cat "$WORK/server.err"; exit 1; }

# Corrupt the mapped store on disk, SIGHUP: the reload must fail
# validation (before the swap) and the daemon must keep answering with
# the models it already has.
corrupt_byte "$WORK/groups.caml"
kill -HUP "$SERVER_PID"
sleep 0.5
"$CAML" query --ping --socket "$SOCK" >/dev/null 2>&1 \
  || { echo "FAIL: daemon died or stopped serving after a failed reload"; cat "$WORK/server.err"; exit 1; }
grep -q "reload of .* failed" "$WORK/server.err" \
  || { echo "FAIL: failed reload was not logged"; cat "$WORK/server.err"; exit 1; }

# Restore a valid store, SIGHUP again: the re-map must be applied.
train_store >/dev/null 2>&1
kill -HUP "$SERVER_PID"
sleep 0.5
grep -q "model store reloaded" "$WORK/server.err" \
  || { echo "FAIL: good reload not applied"; cat "$WORK/server.err"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited nonzero"; cat "$WORK/server.err"; exit 1; }
SERVER_PID=""
awk '/reloads/ {v=$2} END {exit (v == 1) ? 0 : 1}' "$WORK/server.err" \
  || { echo "FAIL: stats do not count exactly one successful reload"; cat "$WORK/server.err"; exit 1; }

echo "crash-safety check passed (kill sweeps byte-identical, corrupt and text stores rejected, hot reload safe)"
