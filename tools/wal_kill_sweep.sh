#!/usr/bin/env bash
# Kill-replay contract for the durable live-signal server: kill -9
# (simulated via --kill-at-tick, which _exit(137)s with no flush, no
# destructors, no WAL seal) at EVERY event-loop tick of a serve run,
# recover each log with --recover, and require the republished signal
# signature to be byte-identical to an uninterrupted run's. A torn
# group commit (--kill-torn, half a frame on disk) must recover the
# same way, dropping the torn tail with a named diagnostic. Driven by
# ctest (label: durability).
#
# Usage: wal_kill_sweep.sh <fairco2_binary> <work_dir>
set -u

bin="$1"
work="$2"

rm -rf "$work"
mkdir -p "$work"
cd "$work"

# Small but non-trivial: admission-limited (deferrals + sheds +
# governor transitions all occur) with watermark 4 => horizon 14
# periods => 28 event-loop ticks.
args=(serve --tenants 120 --shards 2 --duration-periods 10
      --window 4 --period-samples 6 --max-batch-periods 3
      --admission-rate 36)

signature_of() {
    sed -n 's/.*signature \([0-9a-f]*\).*/\1/p' "$1"
}

# Preflight death tests: an unusable --wal-dir is bad input (exit 2
# with a diagnostic, before the event loop starts), never a crash.
# Both variants stay root-proof: they break on shape, not on
# permission bits.
touch notadir
"$bin" "${args[@]}" --wal-dir notadir >preflight.log 2>&1
if [ $? -ne 2 ] || ! grep -q "not a directory" preflight.log; then
    echo "FAIL: --wal-dir <file> must exit 2 with a diagnostic"
    cat preflight.log
    exit 1
fi
"$bin" "${args[@]}" --wal-dir notadir/sub >preflight.log 2>&1
if [ $? -ne 2 ] || ! grep -q "wal-dir" preflight.log; then
    echo "FAIL: --wal-dir under a file must exit 2 with a diagnostic"
    cat preflight.log
    exit 1
fi

"$bin" "${args[@]}" >plain.log 2>&1
if [ $? -ne 0 ]; then
    echo "FAIL: uninterrupted run expected exit 0"
    cat plain.log
    exit 1
fi
want=$(signature_of plain.log)
if [ -z "$want" ]; then
    echo "FAIL: no signature in uninterrupted run"
    cat plain.log
    exit 1
fi

ticks=28
for tick in $(seq 0 $((ticks - 1))); do
    rm -rf wal
    "$bin" "${args[@]}" --wal-dir wal --kill-at-tick "$tick" \
        >killed.log 2>&1
    rc=$?
    if [ "$rc" -ne 137 ]; then
        echo "FAIL: kill at tick $tick expected exit 137, got $rc"
        cat killed.log
        exit 1
    fi
    "$bin" "${args[@]}" --wal-dir wal --recover >recovered.log 2>&1
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: recover after kill at tick $tick: exit $rc"
        cat recovered.log
        exit 1
    fi
    got=$(signature_of recovered.log)
    if [ "$got" != "$want" ]; then
        echo "FAIL: kill at tick $tick recovered signature $got," \
             "want $want"
        cat recovered.log
        exit 1
    fi
done

# Torn group commit: the kill lands halfway through an arrival
# tick's WAL frame. Recovery must name the dropped tail and still
# republish the identical signal.
for tick in 6 14; do
    rm -rf wal
    "$bin" "${args[@]}" --wal-dir wal --kill-at-tick "$tick" \
        --kill-torn >killed.log 2>&1
    rc=$?
    if [ "$rc" -ne 137 ]; then
        echo "FAIL: torn kill at tick $tick expected 137, got $rc"
        cat killed.log
        exit 1
    fi
    "$bin" "${args[@]}" --wal-dir wal --recover >recovered.log 2>&1
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: recover after torn kill at tick $tick: exit $rc"
        cat recovered.log
        exit 1
    fi
    if ! grep -q "dropped torn wal tail" recovered.log; then
        echo "FAIL: torn kill at tick $tick recovered without the" \
             "torn-tail diagnostic"
        cat recovered.log
        exit 1
    fi
    got=$(signature_of recovered.log)
    if [ "$got" != "$want" ]; then
        echo "FAIL: torn kill at tick $tick recovered signature" \
             "$got, want $want"
        exit 1
    fi
done

# Compressed WAL, same contract at one representative tick.
rm -rf wal
"$bin" "${args[@]}" --wal-dir wal --wal-compress \
    --kill-at-tick 9 >killed.log 2>&1
if [ $? -ne 137 ]; then
    echo "FAIL: compressed kill expected 137"
    cat killed.log
    exit 1
fi
"$bin" "${args[@]}" --wal-dir wal --wal-compress --recover \
    >recovered.log 2>&1
if [ $? -ne 0 ]; then
    echo "FAIL: compressed recover failed"
    cat recovered.log
    exit 1
fi
got=$(signature_of recovered.log)
if [ "$got" != "$want" ]; then
    echo "FAIL: compressed recovery signature $got, want $want"
    exit 1
fi

# A dirty log without --recover is refused (exit 2), not clobbered.
"$bin" "${args[@]}" --wal-dir wal >dirty.log 2>&1
if [ $? -ne 2 ] || ! grep -q "already holds a log" dirty.log; then
    echo "FAIL: dirty --wal-dir without --recover must exit 2"
    cat dirty.log
    exit 1
fi

# A log from an older format version is refused by name (exit 2):
# patch the sealed segment's u32 version field (after the 4-byte
# magic) to 2.
printf '\002\000\000\000' |
    dd of=wal/wal-000001.seg bs=1 seek=4 conv=notrunc 2>/dev/null
"$bin" "${args[@]}" --wal-dir wal --wal-compress --recover \
    >old_version.log 2>&1
if [ $? -ne 2 ] ||
    ! grep -q "wal-000001.seg' has version 2, expected 3" \
        old_version.log; then
    echo "FAIL: a version-2 log must exit 2 naming the segment"
    cat old_version.log
    exit 1
fi

echo "PASS: kill -9 at every tick -> recover is byte-identical"
