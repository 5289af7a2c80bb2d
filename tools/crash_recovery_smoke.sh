#!/bin/sh
# Crash-recovery smoke test: kill -9 a live-appending `tara_cli serve`
# running with a write-ahead log, recover with `tara_cli wal recover`,
# and require the recovered knowledge-base directory to pass `db verify`
# and to hold the same knowledge base, byte for byte in the stream form,
# as an uncrashed reference with the same acked windows. Then restart
# the server on the recovered state and shut it down cleanly.
#
#   crash_recovery_smoke.sh /path/to/tara_cli
set -e

CLI="$1"
[ -x "$CLI" ] || { echo "usage: crash_recovery_smoke.sh /path/to/tara_cli"; exit 2; }

WORK=$(mktemp -d)
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# The windows to live-append (timestamps non-decreasing per file). w5 is
# big enough that the kill below can land mid-append.
printf '100 1 2 3\n101 2 3 4\n102 1 3 5\n103 2 4 5\n' > "$WORK/w1.txt"
printf '110 1 2 4\n111 3 4 5\n112 1 2 5\n' > "$WORK/w2.txt"
printf '120 2 3 5\n121 1 4 5\n122 2 3 4\n' > "$WORK/w3.txt"
printf '130 1 2 3\n131 1 3 4\n' > "$WORK/w4.txt"
i=0
while [ $i -lt 400 ]; do
  echo "14$((i / 10)) $((i % 7 + 1)) $((i % 5 + 8)) $((i % 3 + 14))"
  i=$((i + 1))
done > "$WORK/w5.txt"

# Seed checkpoint the server loads, and uncrashed references at 7 and 8
# windows (the CLI and the serve bootstrap build the same deterministic
# Quest base from these parameters).
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\nsavedir %s\nquit\n' \
  "$WORK/kb" | "$CLI" > /dev/null
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\ningest %s\ningest %s\ningest %s\ningest %s\nsavedir %s\nquit\n' \
  "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" "$WORK/w4.txt" \
  "$WORK/ref7" | "$CLI" > /dev/null
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\ningest %s\ningest %s\ningest %s\ningest %s\ningest %s\nsavedir %s\nquit\n' \
  "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" "$WORK/w4.txt" \
  "$WORK/w5.txt" "$WORK/ref8" | "$CLI" > /dev/null

start_server() {
  "$CLI" serve 127.0.0.1:0 --loaddir "$WORK/kb" --wal "$WORK/wal" \
    --port-file "$WORK/port" </dev/null 2>"$WORK/serve.log" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
    sleep 0.1
  done
  [ -s "$WORK/port" ] || { echo "server never bound a port"; exit 1; }
  PORT=$(cat "$WORK/port")
}

start_server

# Four acked appends: once each `ingested` line prints, the WAL record
# behind it is fdatasync'd and must survive any crash.
printf 'ingest %s\ningest %s\ningest %s\ningest %s\nquit\n' \
  "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" "$WORK/w4.txt" \
  | "$CLI" query --remote "127.0.0.1:$PORT" --deadline 10000 \
  > "$WORK/ingest.log"
ACKED=$(grep -c '^ingested' "$WORK/ingest.log" || true)
[ "$ACKED" -eq 4 ] || { echo "expected 4 acks, got $ACKED"; cat "$WORK/ingest.log"; exit 1; }

# A fifth append races a kill -9: the recovered state may or may not
# contain it (it was never acked), but must never lose windows 1-4.
printf 'ingest %s\nquit\n' "$WORK/w5.txt" \
  | "$CLI" query --remote "127.0.0.1:$PORT" > /dev/null 2>&1 &
INGEST_PID=$!
sleep 0.2
kill -9 "$SERVER_PID"
wait "$INGEST_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
rm -f "$WORK/port"

"$CLI" wal recover --kb "$WORK/kb" --wal "$WORK/wal" 2> "$WORK/recover.log"
cat "$WORK/recover.log"
COUNT=$(sed -n 's/^recovered \([0-9][0-9]*\) windows.*/\1/p' "$WORK/recover.log")
case "$COUNT" in
  7) REF="$WORK/ref7" ;;
  8) REF="$WORK/ref8" ;;
  *) echo "unexpected recovered window count: '$COUNT'"; exit 1 ;;
esac

# The acceptance bar: the recovered directory is intact and holds the
# uncrashed reference's knowledge base at the recovered window count.
# Block boundaries follow each directory's checkpoint cadence, so the
# two directories differ file by file; their stream forms must not.
"$CLI" db verify --kb "$WORK/kb" > /dev/null \
  || { echo "recovered directory fails db verify"; exit 1; }
for dir in kb "$(basename "$REF")"; do
  printf 'loaddir %s\nsave %s\nquit\n' "$WORK/$dir" "$WORK/$dir.stream" \
    | "$CLI" > /dev/null
done
cmp "$WORK/kb.stream" "$REF.stream" \
  || { echo "recovered state diverges from the reference"; exit 1; }
echo "recovered state matches the $COUNT-window reference byte-for-byte"

# The recovered checkpoint serves again (and the truncated log re-attaches).
start_server
printf 'info\nquit\n' | "$CLI" query --remote "127.0.0.1:$PORT" \
  > "$WORK/info.log"
grep "remote knowledge base: $COUNT windows" "$WORK/info.log" > /dev/null \
  || { echo "restarted server does not serve the recovered state"; cat "$WORK/info.log"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || { echo "server exit status $STATUS"; exit 1; }
echo "crash recovery smoke OK"
