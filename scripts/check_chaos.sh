#!/usr/bin/env bash
# Serving-path chaos gate: drives the registry through overload and
# injected faults and asserts the resilience invariants hold.
#
# Part 1 — bench_loadgen: open-loop Poisson load at 1.5x the box's
# calibrated capacity with per-request deadlines, first fault-free (the
# overload baseline), then with slow-infer and poison-output faults
# injected mid-run, then fault-free again. The binary exits non-zero
# unless:
#   - neither no-fault phase trips a circuit breaker or produces a
#     non-finite forecast,
#   - the per-model circuit breaker trips on the poisoned forecasts and
#     recovers to closed via half-open probes once the faults clear,
#   - zero requests execute past their deadline (batcher invariant
#     counter),
#   - zero non-finite answers are delivered (poison surfaces as typed
#     Internal errors),
#   - zero torn answers (every delivered answer bitwise matches the
#     serial reference),
#   - goodput under faults stays >= LIPF_CHAOS_GOODPUT_FLOOR_PCT% (85 by
#     default) of the mean of the two no-fault phases, which bracket it
#     so host-speed drift during the run cancels out.
#
# Part 2 — lipformer_cli serve under LIPF_FAULT: a registry-backed
# server runs with a stalled reload watcher (watcher_stall_ms) and an
# injected bundle-open failure on the first reload attempt (fail_open_at;
# open #1 is the initial --load). Asserted:
#   - serving continues while the watcher is stalled,
#   - the failed-open reload keeps the previous model serving (and is
#     retried successfully on the next publish),
#   - "!health" reports the breaker closed with machine-parseable
#     key=value fields,
#   - a client closing the answer stream mid-flight (EPIPE) drains the
#     server to a clean exit 0 instead of killing it via SIGPIPE.
#
# Usage:
#   scripts/check_chaos.sh path/to/bench_loadgen path/to/lipformer_cli
#
# Env knobs (for sanitizer/CI runs, see scripts/check_sanitize.sh):
#   LIPF_CHAOS_DURATION_MS       per-phase open-loop duration (def 4000)
#   LIPF_CHAOS_GOODPUT_FLOOR_PCT goodput floor vs no-fault baseline (85)
#
# Registered as the `chaos` ctest (tests/CMakeLists.txt).

set -euo pipefail

LOADGEN="${1:?usage: check_chaos.sh path/to/bench_loadgen path/to/lipformer_cli}"
CLI="${2:?usage: check_chaos.sh path/to/bench_loadgen path/to/lipformer_cli}"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "${SERVE_PID}" ] && kill "${SERVE_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "---- serve log ----" >&2
  cat "${WORK}/serve.log" >&2 2>/dev/null || true
  exit 1
}

DURATION_MS="${LIPF_CHAOS_DURATION_MS:-4000}"
FLOOR_PCT="${LIPF_CHAOS_GOODPUT_FLOOR_PCT:-85}"

echo "== chaos part 1: bench_loadgen overload + fault injection" \
     "(duration ${DURATION_MS}ms/phase, goodput floor ${FLOOR_PCT}%)"
"${LOADGEN}" --chaos-duration-ms="${DURATION_MS}" \
  --chaos-goodput-floor-pct="${FLOOR_PCT}" \
  || fail "bench_loadgen reported violations"

echo "== chaos part 2: CLI serve under LIPF_FAULT"
FLAGS=(--dataset=etth1 --scale=0.05 --model=lipformer --input=48
       --horizon=12 --hidden=16 --epochs=1 --batch=32)
"${CLI}" train "${FLAGS[@]}" --seed=7 --save="${WORK}/a.bundle" \
  >"${WORK}/train.log" 2>&1 || fail "training bundle A failed"
"${CLI}" train "${FLAGS[@]}" --seed=8 --save="${WORK}/b.bundle" \
  >>"${WORK}/train.log" 2>&1 || fail "training bundle B failed"

REQ="$(awk 'BEGIN{for(i=0;i<336;i++)printf "%s%.4f",(i?",":""),sin(i/7.0)}')"
printf '%s\n' "${REQ}" >"${WORK}/req.txt"

"${CLI}" serve --load="${WORK}/a.bundle" --requests="${WORK}/req.txt" \
  >"${WORK}/ans_a.txt" 2>"${WORK}/serve.log" || fail "reference serve A failed"
"${CLI}" serve --load="${WORK}/b.bundle" --requests="${WORK}/req.txt" \
  >"${WORK}/ans_b.txt" 2>"${WORK}/serve.log" || fail "reference serve B failed"
ANS_A="$(cat "${WORK}/ans_a.txt")"
ANS_B="$(cat "${WORK}/ans_b.txt")"
[ -n "${ANS_A}" ] && [ "${ANS_A}" != "${ANS_B}" ] \
  || fail "reference bundles unusable (empty or identical predictions)"

wait_for() {
  local deadline=$((SECONDS + $1)); shift
  until "$@" >/dev/null 2>&1; do
    [ "${SECONDS}" -lt "${deadline}" ] || return 1
    sleep 0.05
  done
}
answer_count() { [ "$(wc -l <"${WORK}/answers.txt")" -ge "$1" ]; }
nth_answer() { sed -n "$1p" "${WORK}/answers.txt"; }

# fail_open_at=2: bundle open #1 is the initial --load; #2 is the first
# reload attempt, which must fail without disturbing the serving model.
# watcher_stall_ms stalls every watcher wake; serving must not notice.
cp "${WORK}/a.bundle" "${WORK}/live.bundle"
mkfifo "${WORK}/req.fifo"
LIPF_FAULT="watcher_stall_ms=200,fail_open_at=2" \
  "${CLI}" serve --load="m=${WORK}/live.bundle" --reload-poll-ms=50 \
  --requests="${WORK}/req.fifo" \
  >"${WORK}/answers.txt" 2>"${WORK}/serve.log" &
SERVE_PID=$!
exec 3>"${WORK}/req.fifo"

echo "== serving continues while the watcher is stalled"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 1 || fail "no answer while the watcher was stalled"
[ "$(nth_answer 1)" = "${ANS_A}" ] || fail "answer is not bundle A's"

echo "== injected open failure rejects the reload; old model keeps serving"
cp "${WORK}/b.bundle" "${WORK}/live.bundle.tmp"
mv "${WORK}/live.bundle.tmp" "${WORK}/live.bundle"
wait_for 30 grep -q "registry: reload failed for model 'm'" "${WORK}/serve.log" \
  || fail "injected open fault never failed a reload"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 2 || fail "no answer after the failed reload"
[ "$(nth_answer 2)" = "${ANS_A}" ] \
  || fail "failed reload changed the served predictions"

echo "== next publish reloads cleanly (fault was one-shot)"
cp "${WORK}/b.bundle" "${WORK}/live.bundle.tmp"
mv "${WORK}/live.bundle.tmp" "${WORK}/live.bundle"
wait_for 30 grep -q "registry: reloaded model 'm'" "${WORK}/serve.log" \
  || fail "watcher never reloaded after the one-shot fault"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 3 || fail "no answer after the reload"
[ "$(nth_answer 3)" = "${ANS_B}" ] || fail "post-reload answer is not bundle B's"

echo "== !health reports a closed breaker and the failed reload"
printf '!health\n' >&3
wait_for 20 answer_count 4 || fail "!health produced no answer line"
HEALTH="$(nth_answer 4)"
case "${HEALTH}" in
  "health model=m breaker=closed "*) : ;;
  *) fail "unexpected !health line: ${HEALTH}" ;;
esac
echo "${HEALTH}" | grep -q "reload_failures=1" \
  || fail "!health did not report the failed reload: ${HEALTH}"
echo "${HEALTH}" | grep -q "executed_past_deadline=0" \
  || fail "!health reports executed-past-deadline work: ${HEALTH}"

echo "== EOF drains and exits cleanly"
exec 3>&-
SERVE_RC=0
wait "${SERVE_PID}" || SERVE_RC=$?
SERVE_PID=""
[ "${SERVE_RC}" -eq 0 ] || fail "server exited ${SERVE_RC} on EOF"

echo "== chaos part 3: closing the answer stream must not kill the server"
mkfifo "${WORK}/req2.fifo"
rm -f "${WORK}/epipe.log"
( set +e
  LIPF_FAULT="" "${CLI}" serve --load="m=${WORK}/b.bundle" \
    --requests="${WORK}/req2.fifo" 2>"${WORK}/epipe.log" \
    | head -n 1 >"${WORK}/epipe_first.txt"
  echo "pipeline_rc=${PIPESTATUS[0]}" >>"${WORK}/epipe.log" ) &
PIPE_PID=$!
exec 4>"${WORK}/req2.fifo"
printf 'm|%s\n' "${REQ}" >&4
# head exits after the first answer, breaking the server's stdout; the
# first answer written after that hits EPIPE, which must trigger a drain,
# not a SIGPIPE kill. Answers written before head exits still fit in the
# pipe, so keep sending (at most 20 requests, well inside the FIFO's
# buffer) until the server reports the closed stream.
epipe_seen() { grep -q "client closed the answer stream" "${WORK}/epipe.log"; }
for _ in $(seq 20); do
  epipe_seen && break
  # In a subshell: a write racing the server's exit gets SIGPIPE, which
  # must not kill this script.
  ( printf 'm|%s\n' "${REQ}" >&4 ) 2>/dev/null || true
  sleep 0.25
done
wait_for 30 epipe_seen \
  || { cat "${WORK}/epipe.log" >&2; fail "server never detected EPIPE"; }
exec 4>&-
wait "${PIPE_PID}" || true
grep -q "pipeline_rc=0" "${WORK}/epipe.log" \
  || { cat "${WORK}/epipe.log" >&2; \
       fail "server did not exit 0 after the client closed the stream"; }
[ "$(cat "${WORK}/epipe_first.txt")" = "${ANS_B}" ] \
  || fail "first streamed answer wrong before the stream closed"

echo "== chaos checks passed"
