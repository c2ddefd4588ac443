#!/usr/bin/env bash
# Falsification gate: seed one edit into a source file, check that it
# landed, run a check that must now fail, look for the findings it must
# report, and restore the file whatever happens.
#
# usage: falsify.sh [--status N] [--expect PATTERN FILE]... SOURCE EDIT -- CHECK...
#   SOURCE    the file to seed
#   EDIT      a sed script applied in place
#   CHECK     the command that must fail: non-zero exit, exactly N with
#             --status
#   --expect  PATTERN must occur in FILE once the check has failed
set -euo pipefail

want=""
expects=()
while [ $# -gt 0 ]; do
  case "$1" in
    --status) want=$2; shift 2 ;;
    --expect) expects+=("$2" "$3"); shift 3 ;;
    *) break ;;
  esac
done
source_file=$1
edit=$2
shift 2
[ "${1:-}" = "--" ] && shift

backup=$(mktemp)
cp "$source_file" "$backup"
trap 'cp "$backup" "$source_file"; rm -f "$backup"' EXIT

sed -i "$edit" "$source_file"
if cmp -s "$source_file" "$backup"; then
  echo "falsification failed: the seeded edit did not apply to $source_file" >&2
  exit 1
fi

set +e
"$@"
status=$?
set -e
if [ "$status" -eq 0 ]; then
  echo "falsification failed: the check passed on the seeded $source_file" >&2
  exit 1
fi
if [ -n "$want" ] && [ "$status" -ne "$want" ]; then
  echo "falsification failed: the check exited $status, not $want" >&2
  exit 1
fi
for ((i = 0; i < ${#expects[@]}; i += 2)); do
  if ! grep -q -- "${expects[i]}" "${expects[i + 1]}"; then
    echo "falsification failed: ${expects[i]} not in ${expects[i + 1]}" >&2
    exit 1
  fi
done
echo "seeded $source_file caught (exit $status)"
