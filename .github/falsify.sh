#!/usr/bin/env bash
# Falsification gate: seed one edit into a file, check that it landed,
# run a check that must now fail, look for the findings it must report,
# and restore the file whatever happens.
#
# usage: falsify.sh [--status N] [--expect PATTERN FILE]... SOURCE EDIT -- CHECK...
#        falsify.sh --table JOB [LEG]
#   SOURCE    the file to seed (a source file, or an artifact a step made)
#   EDIT      a sed script applied in place
#   CHECK     the command that must fail: non-zero exit, exactly N with
#             --status
#   --expect  PATTERN must occur in FILE once the check has failed
#   --table   run every row of .github/mutants.sh for JOB whose legs
#             match LEG (a row without --leg runs on every leg); fails
#             if any row is not caught or JOB has no row at all
set -euo pipefail

if [ "${1:-}" = "--table" ]; then
  want_job=$2
  want_leg=${3:-}
  rows=0
  ran=0
  missed=()
  # row JOB NAME [--leg GLOB]... MUTANT...: one mutant, MUTANT being the
  # arguments of the single-mutant form above.
  row() {
    local job=$1 name=$2 legs=() glob hit=0
    shift 2
    while [ "$1" = "--leg" ]; do
      legs+=("$2")
      shift 2
    done
    [ "$job" = "$want_job" ] || return 0
    rows=$((rows + 1))
    for glob in "${legs[@]}"; do
      # shellcheck disable=SC2053 # the row's leg is a glob
      [[ $want_leg == $glob ]] && hit=1
    done
    if [ ${#legs[@]} -gt 0 ] && [ $hit -eq 0 ]; then
      echo "mutant $job/$name: not on leg $want_leg"
      return 0
    fi
    ran=$((ran + 1))
    echo "mutant $job/$name"
    if ! bash "$0" "$@"; then
      missed+=("$name")
    fi
  }
  # shellcheck source=mutants.sh
  source "$(dirname "$0")/mutants.sh"
  if [ "$rows" -eq 0 ]; then
    echo "falsification failed: no mutant row for job $want_job" >&2
    exit 1
  fi
  if [ ${#missed[@]} -gt 0 ]; then
    echo "falsification failed: not caught: ${missed[*]}" >&2
    exit 1
  fi
  echo "job $want_job: $ran of $rows mutants run, all caught"
  exit 0
fi

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
