# Split the output of `paper` at its `=== NAME ===` headers: each entry's
# block, header included, goes to DIR/NAME.txt — the layout of results/.
# With `-v deterministic=1`, each block stops at its `--- host time` line,
# leaving only the lines that must not differ between runs or hosts.
#
#   paper | awk -v dir=OUT [-v deterministic=1] -f scripts/split-paper.awk

/^=== [A-Za-z0-9_]+ ===$/ {
  if (file) close(file)
  file = dir "/" $2 ".txt"
  host = 0
}
/^--- host time/ && deterministic { host = 1 }
file && !host { print > file }
