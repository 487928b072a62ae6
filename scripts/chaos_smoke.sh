#!/usr/bin/env bash
# CI smoke for the self-healing artifact store, end to end through the
# CLI. A durable `--resume` batch persists sub-artifacts at every stage
# boundary as one segment file per flush (fsync at every commit point);
# we then damage the store three ways — truncate the segment the lifting
# boundary wrote, strand a crash-style segment tmp, plant a foreign file
# under sub/ — and `rock store scrub` must classify all three: the dry
# run reports exact per-class counts while touching nothing, the real
# scrub quarantines/sweeps and converges to clean, a `--resume` rerun
# reuses every healthy entry and recomputes only the quarantined one
# (the `corpus:` and `incr:` lines show it), and the rerun after that is
# fully warm, exiting 0 throughout.
set -euo pipefail
cd "$(dirname "$0")/.."

ROCK=${ROCK:-target/release/rock}
[ -x "$ROCK" ] || { echo "build first: cargo build --release ($ROCK missing)"; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STORE="$WORK/store"
ALL_HIT='tracelets ([0-9]+)/\1 hit, slms ([0-9]+)/\2 hit, distances ([0-9]+)/\3 hit, liftings ([0-9]+)/\4 hit'

"$ROCK" gen streams "$WORK/streams.rkb"

echo "== durable cold batch: every stage computed and fsync-committed =="
"$ROCK" batch "$WORK/streams.rkb" --store "$STORE" --resume --durable | tee "$WORK/cold.log"
FLUSHED=$(sed -n 's/^incr: 0 preloaded, \([0-9]*\) flushed.*/\1/p' "$WORK/cold.log")
[ "${FLUSHED:-0}" -gt 1 ] || { echo "the cold batch persisted nothing"; exit 1; }

echo "== warm rerun: every tier answers, nothing new to flush =="
"$ROCK" batch "$WORK/streams.rkb" --store "$STORE" --resume | tee "$WORK/warm.log"
grep -Eq "$ALL_HIT" "$WORK/warm.log"
grep -q "^incr: $FLUSHED preloaded, 0 flushed" "$WORK/warm.log"

echo "== damage: truncate the lifting segment, strand a tmp, plant an alien file =="
# Each stage boundary writes one segment holding its stage's tier. A
# segment's first frame's tier tag sits at byte 32 (pack magic, frame
# count, frame length, frame magic: 8 bytes each); the lifting tier's
# tag is 3. Timestamps are too coarse to find it as the newest file.
SUB=""
for f in "$STORE"/sub/*.pack; do
  [ "$(od -An -tu1 -j32 -N1 "$f" | tr -d ' ')" = 3 ] && SUB=$f
done
[ -n "$SUB" ] || { echo "no lifting segment in $STORE"; exit 1; }
TMP="$STORE/sub/.000000000000002a.pack.tmp"
ALIEN="$STORE/sub/alien.bin"
truncate -s 21 "$SUB"
printf 'half a commit' > "$TMP"
printf 'not ours' > "$ALIEN"

echo "== dry run reports exact counts and touches nothing =="
"$ROCK" store scrub --store "$STORE" --dry-run | tee "$WORK/dry.log"
grep -q '1 corrupt quarantined, 1 tmp swept, 1 unknown quarantined, 0 io errors' "$WORK/dry.log"
[ -f "$SUB" ] && [ -f "$TMP" ] && [ -f "$ALIEN" ] \
  || { echo "dry run modified the store"; exit 1; }

echo "== real scrub quarantines and sweeps, then converges clean =="
"$ROCK" store scrub --store "$STORE" | tee "$WORK/scrub.log"
grep -q '1 corrupt quarantined, 1 tmp swept, 1 unknown quarantined, 0 io errors' "$WORK/scrub.log"
[ ! -f "$SUB" ] || { echo "corrupt segment still in place"; exit 1; }
[ ! -f "$TMP" ] || { echo "stale tmp survived scrub"; exit 1; }
[ ! -f "$ALIEN" ] || { echo "alien file survived scrub"; exit 1; }
[ -d "$STORE/.quarantine" ] || { echo "no quarantine directory"; exit 1; }
"$ROCK" store scrub --store "$STORE" | grep -q 'clean'

echo "== resume recomputes only the quarantined entry =="
"$ROCK" batch "$WORK/streams.rkb" --store "$STORE" --resume | tee "$WORK/resume.log"
grep -Eq 'tracelets ([0-9]+)/\1 hit, slms ([0-9]+)/\2 hit, distances ([0-9]+)/\3 hit, liftings 0/1 hit' \
  "$WORK/resume.log"
grep -q "^incr: $((FLUSHED - 1)) preloaded, 1 flushed" "$WORK/resume.log"

echo "== and the next rerun is fully warm again =="
"$ROCK" batch "$WORK/streams.rkb" --store "$STORE" --resume | tee "$WORK/rewarm.log"
grep -Eq "$ALL_HIT" "$WORK/rewarm.log"
grep -q "^incr: $FLUSHED preloaded, 0 flushed" "$WORK/rewarm.log"

echo "chaos smoke: all assertions held"
