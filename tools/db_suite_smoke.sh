#!/bin/sh
# db-suite smoke test: build a small KB through an interactive session,
# then drive every `db` verb over it — stats/show/verify on the TARAKB3
# directory `savedir` writes, split into small blocks, verify (clean AND
# corrupted), a mapped load through the session (and `top` refused over
# the corrupted block), a `save` that cannot write, trim, and rm.
# Exercises the noun-verb surface end to end.
#
#   db_suite_smoke.sh /path/to/tara_cli
set -e

CLI="$1"
[ -x "$CLI" ] || { echo "usage: db_suite_smoke.sh /path/to/tara_cli"; exit 2; }

WORK="${TMPDIR:-/tmp}/tara_db_suite_$$"
rm -rf "$WORK"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

# Build a 4-window KB and save it as a block directory.
printf 'gen quest 3000 120\nwindows 4\nbuild 0.01 0.1\nsavedir %s/kb\nquit\n' \
  "$WORK" | "$CLI" > /dev/null

"$CLI" db stats --kb "$WORK/kb" | grep -q "TARAKB3" \
  || { echo "expected a TARAKB3 stats header"; exit 1; }
[ "$("$CLI" db show --kb "$WORK/kb" | wc -l)" -eq 5 ] \
  || { echo "db show should print 4 windows + header"; exit 1; }
"$CLI" db verify --kb "$WORK/kb" | grep -q "all hashes match" \
  || { echo "verify failed"; exit 1; }

# Split into small blocks (tiny target size so several blocks appear).
# The new manifest must name exactly the block files on disk: every new
# block written, every old one removed.
"$CLI" db split --kb "$WORK/kb" --block-bytes 4096 > /dev/null
NAMED=$("$CLI" db stats --kb "$WORK/kb" | grep -o 'block-[0-9]*\.blk' | sort)
ON_DISK=$(cd "$WORK/kb" && ls block-*.blk | sort)
[ "$NAMED" = "$ON_DISK" ] \
  || { echo "split manifest names [$NAMED] but disk holds [$ON_DISK]"; exit 1; }
[ "$(echo "$NAMED" | wc -l)" -gt 1 ] \
  || { echo "split did not produce several blocks"; exit 1; }
"$CLI" db verify --kb "$WORK/kb" | grep -q "all hashes match" \
  || { echo "verify after split failed"; exit 1; }

# The mapped session load answers queries over the block form.
printf 'loaddir %s/kb mmap\nmine 2 0.02 0.4\nregion 2 0.02 0.4\nquit\n' \
  "$WORK" | "$CLI" | grep -q "stable region" \
  || { echo "mapped session load failed"; exit 1; }

# Corrupt one payload byte inside a block: verify must catch it, with a
# nonzero exit.
BLOCK=$(ls "$WORK/kb"/block-*.blk | head -1)
SIZE=$(wc -c < "$BLOCK")
dd if=/dev/zero bs=1 count=1 seek=$((SIZE / 2)) conv=notrunc of="$BLOCK" \
  2> /dev/null
if "$CLI" db verify --kb "$WORK/kb" 2> "$WORK/verify.err"; then
  # The flipped byte may have been a zero already — flip it to 0xFF.
  printf '\377' | dd bs=1 count=1 seek=$((SIZE / 2)) conv=notrunc \
    of="$BLOCK" 2> /dev/null
  "$CLI" db verify --kb "$WORK/kb" 2> "$WORK/verify.err" \
    && { echo "verify missed an injected corruption"; exit 1; }
fi
grep -q "." "$WORK/verify.err" || { echo "verify printed no error"; exit 1; }

# A mapped session over the damaged block answers `top` with a typed
# rejection instead of aborting.
printf 'loaddir %s/kb mmap\ntop stable 3\nquit\n' "$WORK" | "$CLI" \
  | grep -q "^rejected: " \
  || { echo "top over a corrupt mapped KB was not rejected"; exit 1; }

# `save` reports a write it could not make instead of claiming success.
printf 'gen quest 600 60\nwindows 2\nbuild 0.02 0.1\nsave %s/none/kb\nquit\n' \
  "$WORK" | "$CLI" | grep -q "^failed: cannot write" \
  || { echo "save into a missing directory did not fail"; exit 1; }

# Rebuild a clean copy for trim/rm.
rm -rf "$WORK/kb"
printf 'gen quest 3000 120\nwindows 4\nbuild 0.01 0.1\nsavedir %s/kb\nquit\n' \
  "$WORK" | "$CLI" > /dev/null
"$CLI" db split --kb "$WORK/kb" --block-bytes 4096 > /dev/null
"$CLI" db trim --kb "$WORK/kb" --windows 2 > /dev/null
[ "$("$CLI" db show --kb "$WORK/kb" | wc -l)" -eq 3 ] \
  || { echo "trim did not leave 2 windows"; exit 1; }
"$CLI" db verify --kb "$WORK/kb" > /dev/null \
  || { echo "trimmed KB fails verify"; exit 1; }
"$CLI" db rm --kb "$WORK/kb" > /dev/null
[ -z "$(ls "$WORK/kb" 2>/dev/null)" ] \
  || { echo "rm left manifest-named files behind"; exit 1; }

echo "db suite smoke OK"
