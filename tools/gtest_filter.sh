#!/bin/sh
# Runs a GoogleTest binary on a --gtest_filter, failing first if any of the
# filter's ':'-separated patterns selects no test. A filtered lane whose
# suite was renamed away would otherwise pass while running nothing.
#
# Usage: tools/gtest_filter.sh BINARY 'SuiteA.*:SuiteB*' [more gtest args]
# Only positive patterns are checked (no '-' exclusion section).
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BINARY FILTER [gtest args...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2

case "$filter" in
  *-*) echo "$0: exclusion patterns are not supported: $filter" >&2; exit 2 ;;
esac

old_ifs=$IFS
IFS=:
for pattern in $filter; do
  IFS=$old_ifs
  # --gtest_list_tests prints "Suite." lines and indented test names.
  count=$("$bin" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "$0: filter pattern '$pattern' selects no tests in $bin" >&2
    exit 1
  fi
  echo "$0: '$pattern' selects $count tests"
  IFS=:
done
IFS=$old_ifs

exec "$bin" --gtest_filter="$filter" "$@"
