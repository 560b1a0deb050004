#!/bin/sh
# Per-package line delta of the working tree against a base ref: lines
# added and removed in each directory, with non-test Go code, tests
# (_test.go files and everything under a testdata/ directory, credited
# to the package that owns it) and other files (docs, scripts, data)
# counted separately. Untracked files are not seen: `git add` new files
# first. Renames count as a removal plus an addition.
# Usage: ./scripts/linedelta.sh <base-ref>     (or: make linedelta BASE=<ref>)
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
	echo "usage: $0 <base-ref>" >&2
	exit 2
fi
git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
	echo "$0: unknown ref $1" >&2
	exit 2
}

git diff --numstat --no-renames "$1" -- | awk -F '\t' '
{
	add = ($1 == "-") ? 0 : $1 # binary files count no lines
	del = ($2 == "-") ? 0 : $2
	path = $3
	if (match(path, /(^|\/)testdata\//)) {
		pkg = substr(path, 1, RSTART - 1)
		cls = "test"
	} else {
		pkg = path
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = ""
		if (path ~ /_test\.go$/) cls = "test"
		else if (path ~ /\.go$/) cls = "code"
		else cls = "other"
	}
	if (pkg == "") pkg = "."
	seen[pkg] = 1
	A[pkg, cls] += add; D[pkg, cls] += del
	A["total", cls] += add; D["total", cls] += del
}
function row(p) {
	return sprintf("%-36s %7s %7s %7s %7s %7s %7s", p, \
		"+" (A[p, "code"] + 0), "-" (D[p, "code"] + 0), \
		"+" (A[p, "test"] + 0), "-" (D[p, "test"] + 0), \
		"+" (A[p, "other"] + 0), "-" (D[p, "other"] + 0))
}
END {
	printf "%-36s %15s %15s %15s\n", "package", "non-test code", "tests", "other"
	fflush()
	for (p in seen) print row(p) | "sort"
	close("sort")
	print row("total")
	printf "net non-test code: %+d\n", A["total", "code"] - D["total", "code"]
}'
