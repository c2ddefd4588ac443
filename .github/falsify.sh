#!/usr/bin/env bash
# The falsification gate over the mutant table, .github/mutants.sh: each
# row seeds one edit into a file, runs a check that must now fail with
# the failure the row names, and restores the file whatever happens.
#
# usage: falsify.sh --table   run every row; fails unless every row is
#                             caught.  Seeds sources in place, so run it
#                             on a checkout nobody is editing.
#        falsify.sh --lint    run no check and edit nothing: every row
#                             names an expected failure, its edit changes
#                             its file (applied to a temporary copy), and
#                             each case title is listed by its test
#                             executable at the index the check selects.
#                             Tier-1 runs it (the root dune file).
#
# A row is caught when its check exits non-zero (exactly N with
# --status) and prints every line the row expects.  A check that passes
# on the seeded tree is missed; an edit that changes nothing is stale; a
# failed setup, another exit code or a missing expected line (a build
# error, another assertion) is invalid.
set -uo pipefail

mode=${1:-}
if [ "$mode" != --table ] && [ "$mode" != --lint ]; then
  echo "usage: falsify.sh --table | --lint" >&2
  exit 2
fi

# Full case titles, uncoloured, in both alcotest's list and its [FAIL]
# lines.
export ALCOTEST_COLOR=never ALCOTEST_COLUMNS=1000
WORK=$(mktemp -d)
export WORK
trap 'rm -rf "$WORK"' EXIT

rows=0
bad=()

# Split a row into name, setup, status, cases, expects, file, edit, check.
parse() {
  name=$1
  shift
  setup="" status="" cases=() expects=()
  while :; do
    case "$1" in
      --setup) setup=$2; shift 2 ;;
      --status) status=$2; shift 2 ;;
      --case) cases+=("$2"); shift 2 ;;
      --expect) expects+=("$2"); shift 2 ;;
      *) break ;;
    esac
  done
  file=$1 edit=$2
  shift 2
  [ "${1:-}" = "--" ] && shift
  check=("$@")
}

# Seed, check and classify one parsed row.  Runs in a subshell, whose
# EXIT trap restores the seeded file.
outcome() {
  local log=$WORK/$name.log st=0 t p
  if [ -n "$setup" ] && ! sh -c "$setup" > "$log" 2>&1; then
    echo invalid
    return
  fi
  cp "$file" "$WORK/backup" || { echo invalid; return; }
  trap 'cp "$WORK/backup" "$file"' EXIT
  sed -i "$edit" "$file" || { echo invalid; return; }
  if cmp -s "$file" "$WORK/backup"; then
    echo stale
    return
  fi
  "${check[@]}" > "$log" 2>&1 || st=$?
  if [ "$st" -eq 0 ]; then
    echo missed
    return
  fi
  if [ -n "$status" ] && [ "$st" -ne "$status" ]; then
    echo invalid
    return
  fi
  for t in "${cases[@]}"; do
    grep -F '[FAIL]' "$log" | grep -qF -- "$t" || { echo invalid; return; }
  done
  for p in "${expects[@]}"; do
    grep -q -- "$p" "$log" || { echo invalid; return; }
  done
  echo caught
}

# Is index $1 among the TESTCASES $2 of a row ("", "4" or "3-5")?
selects() {
  [ -z "$2" ] || { [ "$1" -ge "${2%-*}" ] && [ "$1" -le "${2#*-}" ]; }
}

# The problems --lint finds in one parsed row, one per line.
problems() {
  local t line found exe group index title
  [ $((${#cases[@]} + ${#expects[@]})) -gt 0 ] ||
    echo "no expected failure (--case or --expect)"
  if [ -f "$file" ]; then
    cp "$file" "$WORK/copy"
    if ! sed -i "$edit" "$WORK/copy" 2> /dev/null; then
      echo "edit is not a sed script"
    elif cmp -s "$file" "$WORK/copy"; then
      echo "edit does not change $file"
    fi
  elif [ -z "$setup" ]; then
    echo "no file $file"
  fi
  [ ${#cases[@]} -gt 0 ] || return 0
  # A --case row's check is `dune exec EXE -- test GROUP [TESTCASES]`.
  if [ "${check[*]:0:2}" != "dune exec" ] || [ "${check[3]:-}" != -- ] ||
    [ "${check[4]:-}" != test ] || [ ${#check[@]} -lt 6 ]; then
    echo "--case needs an alcotest check: dune exec EXE -- test GROUP"
    return 0
  fi
  exe=${check[2]}
  [ -x "$exe" ] || exe=_build/default/$exe
  "$exe" list > "$WORK/list" 2> /dev/null || {
    echo "cannot list the cases of $exe"
    return 0
  }
  for t in "${cases[@]}"; do
    found=0
    while IFS= read -r line || [ -n "$line" ]; do
      [[ $line =~ ^([^ ]+( [^ ]+)*)\ +([0-9]+)\ \ \ (.*)$ ]] || continue
      group=${BASH_REMATCH[1]} index=${BASH_REMATCH[3]} title=${BASH_REMATCH[4]}
      [[ $group =~ ${check[5]} ]] && selects "$index" "${check[6]:-}" &&
        [[ $title == *"$t"* ]] && found=1
    done < "$WORK/list"
    [ $found -eq 1 ] ||
      echo "case \"$t\" is not among ${check[5]} ${check[6]:-} of ${check[2]}"
  done
}

# row NAME ...: one row of the table, as documented in mutants.sh.
row() {
  local o t0 us
  parse "$@"
  rows=$((rows + 1))
  if [ "$mode" = --lint ]; then
    o=$(problems) || o+=$'\n'"the lint itself failed"
    [ -z "$o" ] && return 0
    bad+=("$name")
    while IFS= read -r t; do echo "stale  $name: $t"; done <<< "$o"
    return 0
  fi
  t0=${EPOCHREALTIME/./}
  o=$(outcome)
  us=$((${EPOCHREALTIME/./} - t0))
  printf '%-8s %-52s %3d.%d s\n' "${o:-invalid}" "$name" \
    $((us / 1000000)) $((us / 100000 % 10))
  if [ "$o" != caught ]; then
    bad+=("$name")
    [ -f "$WORK/$name.log" ] && tail -n 20 "$WORK/$name.log" | sed 's/^/    | /'
  fi
}

start=${EPOCHREALTIME/./}
# shellcheck source=mutants.sh
source "$(dirname "$0")/mutants.sh"
us=$((${EPOCHREALTIME/./} - start))
if [ ${#bad[@]} -gt 0 ]; then
  echo "falsification failed: ${#bad[@]} of $rows rows: ${bad[*]}" >&2
  exit 1
fi
if [ "$mode" = --lint ]; then
  echo "mutant table: $rows rows lint clean"
else
  echo "mutant table: $rows of $rows rows caught in $((us / 1000000)) s"
fi
