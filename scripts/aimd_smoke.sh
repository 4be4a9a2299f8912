#!/usr/bin/env bash
# End-to-end smoke test for the aimd daemon against the real binaries.
#
# Phase 1 (byte-identity): start aimd, submit a synthesis job over HTTP,
# poll it to completion, fetch the synthetic CSV, and verify it is
# byte-identical to an aim_cli run with the same dataset, flags, and seed
# — the daemon is the CLI pipeline behind a socket, nothing more.
#
# Then (bounded /query): a job on a wide dataset finishes, a /query naming
# all of its attributes — a junction tree far over the job's max_size_mb —
# is refused with 400, and the daemon still answers /healthz.
#
# Phase 2 (graceful SIGTERM): submit a second job, SIGTERM the daemon
# mid-run, and verify (a) the daemon drains and exits 0, (b) the job's
# newest checkpoint generation is valid — proven the strong way, by
# resuming it with aim_cli and comparing the finished output
# byte-for-byte against the uninterrupted reference. Daemon checkpoints
# are CLI-portable by construction (same fingerprint inputs).
#
# Usage: scripts/aimd_smoke.sh [path-to-aimd] [path-to-aim_cli] [workdir]
# Exits 0 on success; non-zero with a diagnostic on any mismatch.

set -u

AIMD="${1:-build/tools/aimd}"
CLI="${2:-build/tools/aim_cli}"
WORK="${3:-$(mktemp -d /tmp/aimd_smoke.XXXXXX)}"
mkdir -p "$WORK"

for bin in "$AIMD" "$CLI"; do
  if [ ! -x "$bin" ]; then
    echo "aimd_smoke: binary not found at '$bin'" >&2
    exit 2
  fi
done

DATA="$WORK/input.csv"
EPSILON=1.0
WORKLOAD=all3way
SEED=7

# Deterministic 9-column categorical dataset: large enough that AIM runs
# many rounds at epsilon=1 (so SIGTERM has a window to land mid-job),
# small enough to finish in well under a minute.
awk 'BEGIN {
  print "a,b,c,d,e,f,g,h,i";
  s = 42;
  for (i = 0; i < 20000; i++) {
    line = "";
    for (j = 0; j < 9; j++) {
      s = (s * 1103515245 + 12345) % 2147483648;
      v = s % (2 + j % 4);
      line = line (j ? "," : "") v;
    }
    print line;
  }
}' > "$DATA"

DAEMON_PID=""
cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null
  fi
}
trap cleanup EXIT

fail() {
  echo "aimd_smoke: FAIL — $1" >&2
  [ -f "$WORK/aimd.log" ] && tail -20 "$WORK/aimd.log" >&2
  exit 1
}

echo "== uninterrupted aim_cli reference run"
"$CLI" --input="$DATA" --epsilon="$EPSILON" --workload="$WORKLOAD" \
  --seed="$SEED" --threads=2 --output="$WORK/reference.csv" \
  2> "$WORK/reference.log" || {
  cat "$WORK/reference.log" >&2
  fail "reference aim_cli run failed"
}

echo "== starting aimd (ephemeral port)"
"$AIMD" --port=0 --work-dir="$WORK/daemon" --job-workers=1 --threads=2 \
  --default-tenant-rho=100 2> "$WORK/aimd.log" &
DAEMON_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' \
         "$WORK/aimd.log" 2>/dev/null | head -1)
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "aimd died during startup"
  sleep 0.05
done
[ -n "$PORT" ] || fail "aimd never reported its listening port"
BASE="http://127.0.0.1:$PORT"
curl -sf "$BASE/healthz" > /dev/null || fail "healthz probe failed"

submit_job() {
  curl -sf -X POST "$BASE/jobs" -d '{
    "dataset": "'"$DATA"'",
    "epsilon": '"$EPSILON"',
    "workload": "'"$WORKLOAD"'",
    "seed": '"$SEED"'
  }'
}

job_field() {  # job_field <id> <key>  -> bare string/number value
  curl -sf "$BASE/jobs/$1" |
    sed -n 's/.*"'"$2"'":"\{0,1\}\([^,"}]*\)"\{0,1\}[,}].*/\1/p'
}

echo "== phase 1: submit over HTTP, poll, fetch, compare to aim_cli"
RESPONSE=$(submit_job) || fail "job submission was refused"
JOB1=$(echo "$RESPONSE" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$JOB1" ] || fail "submission response carried no job id: $RESPONSE"

wait_done() {  # wait_done <id>: poll until the job is done, or fail
  local state=""
  for _ in $(seq 1 1200); do
    state=$(job_field "$1" state)
    case "$state" in
      done) return 0 ;;
      failed|cancelled) fail "job $1 ended in state '$state'" ;;
    esac
    sleep 0.1
  done
  fail "job $1 never finished (state '$state')"
}
wait_done "$JOB1"

curl -sf "$BASE/jobs/$JOB1/result" > "$WORK/daemon.csv" ||
  fail "could not fetch job $JOB1 result"
cmp -s "$WORK/reference.csv" "$WORK/daemon.csv" ||
  fail "daemon output differs from the aim_cli run with the same spec"
echo "   daemon output is byte-identical to aim_cli"

# The job's trace stream is non-empty JSONL with round records.
EVENTS=$(curl -sf "$BASE/jobs/$JOB1/events")
echo "$EVENTS" | grep -q '"type":"aim_round"' ||
  fail "job $JOB1 event stream has no aim_round records"

echo "== an all-attribute /query on a wide job is refused, aimd stays up"
# 600 rows x 16 categorical columns x 30 values: all 16 attributes span
# 30^16 cells, far over the default max_size_mb.
WIDE="$WORK/wide.csv"
awk 'BEGIN {
  for (j = 0; j < 16; j++) printf "%sw%d", (j ? "," : ""), j;
  print "";
  s = 7;
  for (i = 0; i < 600; i++) {
    for (j = 0; j < 16; j++) {
      s = (s * 1103515245 + 12345) % 2147483648;
      printf "%sv%d", (j ? "," : ""), int(s / 65536) % 30;
    }
    print "";
  }
}' > "$WIDE"
RESPONSE=$(curl -sf -X POST "$BASE/jobs" -d '{
  "dataset": "'"$WIDE"'", "epsilon": 1.0, "workload": "all2way", "seed": 3
}') || fail "wide job submission was refused"
WIDE_JOB=$(echo "$RESPONSE" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$WIDE_JOB" ] || fail "wide submission carried no job id: $RESPONSE"
wait_done "$WIDE_JOB"
ALL_ATTRS='"w0"'
for j in $(seq 1 15); do ALL_ATTRS="$ALL_ATTRS,\"w$j\""; done
CODE=$(curl -s -o "$WORK/wide_query.json" -w '%{http_code}' -X POST \
  "$BASE/jobs/$WIDE_JOB/query" -d "{\"attrs\": [$ALL_ATTRS]}")
[ "$CODE" = "400" ] ||
  fail "all-attribute /query answered $CODE, want 400: $(cat "$WORK/wide_query.json")"
grep -q max_size_mb "$WORK/wide_query.json" ||
  fail "the 400 does not name the size bound: $(cat "$WORK/wide_query.json")"
curl -sf "$BASE/healthz" > /dev/null ||
  fail "healthz probe failed after the oversized /query"
echo "   oversized /query refused with 400; daemon still healthy"

echo "== phase 2: SIGTERM mid-job, then resume the checkpoint with aim_cli"
RESPONSE=$(submit_job) || fail "second submission was refused"
JOB2=$(echo "$RESPONSE" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$JOB2" ] || fail "second submission carried no job id: $RESPONSE"

# Wait until the job has completed at least one round (so the SIGTERM
# lands mid-run and the wind-down has measurements to checkpoint).
for _ in $(seq 1 1200); do
  ROUNDS=$(job_field "$JOB2" rounds)
  [ "${ROUNDS:-0}" -ge 1 ] 2>/dev/null && break
  STATE=$(job_field "$JOB2" state)
  [ "$STATE" = "done" ] && break  # too fast to interrupt; still resumable
  sleep 0.05
done

kill -TERM "$DAEMON_PID"
DRAIN_OK=1
for _ in $(seq 1 1200); do
  kill -0 "$DAEMON_PID" 2>/dev/null || { DRAIN_OK=0; break; }
  sleep 0.1
done
[ "$DRAIN_OK" -eq 0 ] || fail "aimd did not exit within 120s of SIGTERM"
wait "$DAEMON_PID"
EXIT=$?
DAEMON_PID=""
[ "$EXIT" -eq 0 ] || fail "aimd exited $EXIT after SIGTERM (want 0: drained)"

CHECKPOINT="$WORK/daemon/jobs/$JOB2/checkpoint"
NEWEST=$(ls -1 "$CHECKPOINT"* 2>/dev/null | tail -1)
[ -n "$NEWEST" ] || fail "no checkpoint ladder for job $JOB2 after SIGTERM"
echo "   daemon drained; newest generation: $NEWEST"

# The strong validity check: aim_cli accepts the daemon's newest valid
# generation and finishes the run to the same bytes as the reference.
"$CLI" --input="$DATA" --epsilon="$EPSILON" --workload="$WORKLOAD" \
  --seed="$SEED" --threads=2 --resume="$CHECKPOINT" \
  --output="$WORK/resumed.csv" 2> "$WORK/resumed.log" || {
  cat "$WORK/resumed.log" >&2
  fail "aim_cli could not resume the daemon's checkpoint"
}
grep -q "resuming from" "$WORK/resumed.log" ||
  fail "resumed run did not report resuming from a checkpoint"
cmp -s "$WORK/reference.csv" "$WORK/resumed.csv" ||
  fail "resumed output differs from the uninterrupted reference"

echo "aimd_smoke: PASS (byte-identity + graceful SIGTERM; workdir $WORK)"
exit 0
