#!/bin/sh
# Usage: csv_col.sh FILE COLUMN
# Prints the value of COLUMN, found by header name, in FILE's first
# data row. Exits 1 when the header has no such column, so a renamed
# or dropped column fails the calling CI step instead of passing it.
awk -F, -v name="$2" '
  NR == 1 { for (i = 1; i <= NF; i++) if ($i == name) col = i; if (!col) exit 1; next }
  NR == 2 { print $col; exit }' "$1"
