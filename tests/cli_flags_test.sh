#!/bin/sh
# sqp_cli must refuse a flag it does not read instead of ignoring it.
# The parallel-engine query is given the read-ahead option the engine no
# longer has: the run must exit non-zero and name the flag on stderr.
#
#   sh tests/cli_flags_test.sh build/tools/sqp_cli
set -eu
cli="$1"
stray="--prefetch=adaptive"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$cli" save-index --out="$dir/index" --n=500 --disks=2 > /dev/null
if "$cli" load-index --index="$dir/index" --engine=parallel --queries=1 \
    "$stray" > /dev/null 2> "$dir/err"; then
  echo "load-index accepted $stray" >&2
  exit 1
fi
grep -q "unused flag ${stray%%=*}: this command does not read it" "$dir/err"

# The same run without the stray flag succeeds.
"$cli" load-index --index="$dir/index" --engine=parallel --queries=1 \
  > /dev/null
