#!/usr/bin/env sh
# Submit a campaign to a running snserved daemon, follow its per-run
# completions, and fetch the finished report — the curl walkthrough
# from README "Serving campaigns" as a script.
#
#   go run ./cmd/snserved -addr :8321 -store /tmp/snserved &
#   examples/serve/submit.sh
#   examples/serve/submit.sh http://localhost:8321 examples/campaigns/interval-sweep.json csv
#
# The fetched report is byte-identical to what a local
# `sncampaign <campaign>` run prints to stdout — kill and restart the
# daemon mid-campaign and that stays true: the job resumes from its
# checkpoint log.
set -eu

ADDR="${1:-http://localhost:8321}"
CAMPAIGN="${2:-examples/campaigns/availability-matrix.json}"
FORMAT="${3:-text}"

[ -f "$CAMPAIGN" ] || { echo "no such campaign file: $CAMPAIGN" >&2; exit 1; }
curl -fsS "$ADDR/healthz" >/dev/null || {
  echo "no snserved daemon at $ADDR (start one: go run ./cmd/snserved -addr :8321)" >&2
  exit 1
}

echo "== submitting $CAMPAIGN to $ADDR" >&2
ACCEPT=$(curl -fsS -X POST --data-binary "@$CAMPAIGN" "$ADDR/campaigns")
ID=$(printf '%s' "$ACCEPT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "submit failed: $ACCEPT" >&2; exit 1; }
echo "== job $ID accepted" >&2

# Follow the SSE stream until the terminal frame; each data: line is
# one completed run (or the end-of-stream summary).
echo "== streaming completions (replayable: /campaigns/$ID/events?from=N)" >&2
curl -fsSN "$ADDR/campaigns/$ID/events" | while IFS= read -r line; do
  case "$line" in
    data:*) echo "${line#data: }" >&2 ;;
  esac
  case "$line" in
    *'"state"'*) break ;;
  esac
done

STATE=$(curl -fsS "$ADDR/campaigns/$ID" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
[ "$STATE" = "done" ] || { echo "job $ID finished in state $STATE" >&2; exit 1; }

echo "== report ($FORMAT)" >&2
curl -fsS "$ADDR/campaigns/$ID/report?format=$FORMAT"
