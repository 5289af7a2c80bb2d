#!/bin/sh
# Query-grammar strictness: five malformed query lines, typed into the
# session and replayed by `batch`, must each be refused with
# `bad query line` (ten replies) and execute nothing — the session's
# query counters stay at zero. Then an omitted window tail must mean
# every window.
#
#   cli_grammar_smoke.sh /path/to/tara_cli
set -e

CLI="$1"
[ -x "$CLI" ] || { echo "usage: cli_grammar_smoke.sh /path/to/tara_cli"; exit 2; }

WORK="${TMPDIR:-/tmp}/tara_grammar_$$"
rm -rf "$WORK"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

# A fractional window, the pre-anchor `traj S C` form, a trailing token,
# a non-numeric horizon id, and a negative rule id.
BAD='mine 2.5 0.02 0.4
traj 0.02 0.4
mine 1 0.02 0.4 junk
traj 2 0.02 0.4 0 x 1
rollup -1'
printf '%s\n' "$BAD" > "$WORK/bad.q"

{
  printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\n'
  printf '%s\n' "$BAD"
  printf 'batch %s\nmetrics\nquit\n' "$WORK/bad.q"
} | "$CLI" > "$WORK/out.log"
cat "$WORK/out.log"

REFUSED=$(grep -c '^bad query line: ' "$WORK/out.log" || true)
[ "$REFUSED" -eq 10 ] \
  || { echo "expected 10 'bad query line' replies, got $REFUSED"; exit 1; }
grep -q "^no queries in $WORK/bad.q" "$WORK/out.log" \
  || { echo "batch executed a malformed line"; exit 1; }
grep -q '^  tara.query.ok = 0$' "$WORK/out.log" \
  || { echo "a malformed line was executed (tara.query.ok moved)"; exit 1; }
grep -q '^  tara.query.rejected = 0$' "$WORK/out.log" \
  || { echo "a malformed line was executed (tara.query.rejected moved)"; exit 1; }
# `diff` with no [W...] tail answers exactly like the explicit full list.
printf 'gen quest 2000 100\nwindows 3\nbuild 0.01 0.1\n%s\n%s\nquit\n' \
  'diff 0.02 0.4 0.05 0.4' 'diff 0.02 0.4 0.05 0.4 2 0 1' \
  | "$CLI" | grep '^compare' > "$WORK/tail.log"
[ "$(wc -l < "$WORK/tail.log")" -eq 2 ] && [ "$(uniq "$WORK/tail.log" | wc -l)" -eq 1 ] \
  || { echo "an omitted window tail is not every window"; cat "$WORK/tail.log"; exit 1; }
echo "grammar smoke OK"
