#!/usr/bin/env bash
# Hot-reload acceptance loop: trains two small bundles with different
# seeds, serves the first through the model registry with the reload
# watcher enabled, and drives requests through a FIFO while publishing
# the second bundle via atomic rename. Requires:
#   - answers stream back before EOF (the head-of-line writer thread),
#   - the reload swaps predictions to the new bundle with zero failed
#     requests,
#   - a corrupt publish is rejected and the previous model keeps serving,
#   - "!stats" reports the failed reload,
#   - the server drains and exits 0 on EOF.
#
# Usage:
#   scripts/check_hot_reload.sh path/to/lipformer_cli
#
# Registered as the `hot_reload` ctest (tests/CMakeLists.txt).

set -euo pipefail

CLI="${1:?usage: check_hot_reload.sh path/to/lipformer_cli}"
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

# Tiny but real config; seeds 7 and 8 give bundles with different
# weights, so their predictions for the same request differ.
FLAGS=(--dataset=etth1 --scale=0.05 --model=lipformer --input=48
       --horizon=12 --hidden=16 --epochs=1 --batch=32)

echo "== training bundles A and B"
"${CLI}" train "${FLAGS[@]}" --seed=7 --save="${WORK}/a.bundle" \
  >"${WORK}/train.log" 2>&1 || fail "training bundle A failed"
"${CLI}" train "${FLAGS[@]}" --seed=8 --save="${WORK}/b.bundle" \
  >>"${WORK}/train.log" 2>&1 || fail "training bundle B failed"

# One request line: flattened [48, 7] history (336 values).
REQ="$(awk 'BEGIN{for(i=0;i<336;i++)printf "%s%.4f",(i?",":""),sin(i/7.0)}')"
printf '%s\n' "${REQ}" >"${WORK}/req.txt"

echo "== reference answers from each bundle"
"${CLI}" serve --load="${WORK}/a.bundle" --requests="${WORK}/req.txt" \
  >"${WORK}/ans_a.txt" 2>"${WORK}/serve.log" || fail "reference serve A failed"
"${CLI}" serve --load="${WORK}/b.bundle" --requests="${WORK}/req.txt" \
  >"${WORK}/ans_b.txt" 2>"${WORK}/serve.log" || fail "reference serve B failed"
ANS_A="$(cat "${WORK}/ans_a.txt")"
ANS_B="$(cat "${WORK}/ans_b.txt")"
[ -n "${ANS_A}" ] || fail "empty reference answer from bundle A"
[ "${ANS_A}" != "${ANS_B}" ] || fail "bundles A and B predict identically"

# wait_for <timeout_s> <check...>: poll until the check passes.
wait_for() {
  local deadline=$((SECONDS + $1)); shift
  until "$@" >/dev/null 2>&1; do
    [ "${SECONDS}" -lt "${deadline}" ] || return 1
    sleep 0.05
  done
}

answer_count() { [ "$(wc -l <"${WORK}/answers.txt")" -ge "$1" ]; }

# nth_answer N: the N-th (1-based) line streamed back so far.
nth_answer() { sed -n "$1p" "${WORK}/answers.txt"; }

echo "== starting registry-backed server on a FIFO"
cp "${WORK}/a.bundle" "${WORK}/live.bundle"
mkfifo "${WORK}/req.fifo"
"${CLI}" serve --load="m=${WORK}/live.bundle" --reload-poll-ms=50 \
  --requests="${WORK}/req.fifo" \
  >"${WORK}/answers.txt" 2>"${WORK}/serve.log" &
SERVE_PID=$!
# Hold the FIFO open for writing across individual request sends.
exec 3>"${WORK}/req.fifo"

echo "== answers stream back before EOF"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 1 \
  || fail "no answer streamed before EOF (writer-thread regression)"
[ "$(nth_answer 1)" = "${ANS_A}" ] || fail "pre-reload answer is not bundle A's"

echo "== atomic-rename publish of bundle B hot-swaps the model"
cp "${WORK}/b.bundle" "${WORK}/live.bundle.tmp"
mv "${WORK}/live.bundle.tmp" "${WORK}/live.bundle"
wait_for 20 grep -q "registry: reloaded model 'm'" "${WORK}/serve.log" \
  || fail "watcher never picked up the published bundle"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 2 || fail "no answer after reload"
[ "$(nth_answer 2)" = "${ANS_B}" ] || fail "post-reload answer is not bundle B's"

echo "== corrupt publish is rejected; previous model keeps serving"
printf 'not a checkpoint\n' >"${WORK}/live.bundle.tmp"
mv "${WORK}/live.bundle.tmp" "${WORK}/live.bundle"
wait_for 20 grep -q "registry: reload failed for model 'm'" "${WORK}/serve.log" \
  || fail "corrupt publish was never rejected"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 3 || fail "no answer after corrupt publish"
[ "$(nth_answer 3)" = "${ANS_B}" ] \
  || fail "corrupt publish changed the served predictions"

echo "== !stats reports the failed reload"
printf '!stats\n' >&3
wait_for 20 grep -Eq "^stats model=m .* reloads=1 reload_failures=1 " \
  "${WORK}/serve.log" \
  || fail "!stats did not report reloads=1 reload_failures=1"

echo "== EOF drains and exits cleanly"
exec 3>&-
SERVE_RC=0
wait "${SERVE_PID}" || SERVE_RC=$?
SERVE_PID=""
[ "${SERVE_RC}" -eq 0 ] || fail "server exited ${SERVE_RC} on EOF"
[ "$(wc -l <"${WORK}/answers.txt")" -eq 3 ] \
  || fail "expected exactly 3 answers, got $(wc -l <"${WORK}/answers.txt")"
grep -q "^error:" "${WORK}/answers.txt" && fail "a request failed" || true

echo "== hot-reload checks passed"
