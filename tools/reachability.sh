#!/usr/bin/env bash
# Lists the out-of-line library functions that no shipped executable
# reaches.
#
#   tools/reachability.sh [--build DIR] [--check]
#
# Builds every shipped executable (tools/, bench/, examples/ and the
# end-to-end benchmark's e2e_bench) at -O0 with -ffunction-sections
# -fdata-sections and links them with --gc-sections, so a function is
# kept only if some executable's code path references it. Every strong
# text symbol in namespace ecolo that the src/ libraries define but no
# executable keeps is printed, one demangled name per line.
#
# --check also reads tools/reachability_allow.txt (one symbol per line,
# then " # " and the reason it is kept; lines starting with # are
# comments) and exits 1 if any unreached symbol is not listed there;
# stale allowlist entries are reported but do not fail.
#
# Blind spot: a virtual override is reached through its vtable, so it is
# kept whenever its class is constructed, even if nothing ever calls it.
#
# The build tree defaults to build-reach/ in the checkout (incremental
# after the first run, about 5 min from scratch on 4 cores).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build-reach"
check=0
while [ $# -gt 0 ]; do
    case "$1" in
        --build) build="$2"; shift 2 ;;
        --check) check=1; shift ;;
        -h|--help) sed -n '2,23p' "$0"; exit 0 ;;
        *) echo "reachability.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# One project holds the repository (tools, benches, examples) and the
# e2e load generator, so the libraries are compiled once.
src="$build/project"
mkdir -p "$src"
cat >"$src/CMakeLists.txt.new" <<EOF
cmake_minimum_required(VERSION 3.16)
project(edgetherm_reachability LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
set(EDGETHERM_BUILD_TESTS OFF CACHE BOOL "" FORCE)
set(EDGETHERM_BUILD_BENCH ON CACHE BOOL "" FORCE)
set(EDGETHERM_BUILD_EXAMPLES ON CACHE BOOL "" FORCE)
include_directories($root/src)
add_subdirectory($root edgetherm)
file(GLOB e2e_sources CONFIGURE_DEPENDS $root/bench/e2e/*.cc)
add_executable(e2e_bench \${e2e_sources})
target_link_libraries(e2e_bench PRIVATE edgetherm::edgetherm)
target_compile_definitions(e2e_bench PRIVATE
    E2E_SERVE_BIN="" E2E_GATEWAY_BIN="")
EOF
# Rewriting an unchanged file would force a reconfigure on every run.
if cmp -s "$src/CMakeLists.txt.new" "$src/CMakeLists.txt"; then
    rm "$src/CMakeLists.txt.new"
else
    mv "$src/CMakeLists.txt.new" "$src/CMakeLists.txt"
fi

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
log="$build/build.log"
if ! cmake -S "$src" -B "$build/tree" -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >"$log" 2>&1 \
    || ! cmake --build "$build/tree" -j "$jobs" >>"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "reachability.sh: build failed (log: $log)" >&2
    exit 1
fi

# Strong text symbols in namespace ecolo, demangled.
text_symbols() {
    nm -C --defined-only "$@" 2>/dev/null \
        | awk '$2 == "T" { print substr($0, index($0, " T ") + 3) }' \
        | grep -E '^ecolo::' || true
}

mapfile -t libs < <(find "$build/tree/edgetherm/src" -name 'libedgetherm_*.a')
mapfile -t exes < <(find "$build/tree" -type f -perm -u+x \
    ! -name '*.a' ! -name '*.so' ! -path '*/CMakeFiles/*')
if [ "${#libs[@]}" -eq 0 ] || [ "${#exes[@]}" -eq 0 ]; then
    echo "reachability.sh: no libraries or executables under $build/tree" >&2
    exit 1
fi

defined="$build/defined.txt"
reached="$build/reached.txt"
unreached="$build/unreached.txt"
text_symbols "${libs[@]}" | LC_ALL=C sort -u >"$defined"
for exe in "${exes[@]}"; do text_symbols "$exe"; done \
    | LC_ALL=C sort -u >"$reached"
LC_ALL=C comm -23 "$defined" "$reached" >"$unreached"
cat "$unreached"
echo "reachability.sh: ${#exes[@]} executables, $(wc -l <"$defined") \
defined, $(wc -l <"$unreached") unreached" >&2

[ "$check" = 1 ] || exit 0
allowed="$build/allowed.txt"
grep -v '^#' "$here/reachability_allow.txt" | sed -n 's/ # .*$//p' \
    | LC_ALL=C sort -u >"$allowed"
stale="$(LC_ALL=C comm -13 "$unreached" "$allowed")"
if [ -n "$stale" ]; then
    echo "reachability.sh: allowlisted but reached (drop these lines):" >&2
    echo "$stale" >&2
fi
new="$(LC_ALL=C comm -23 "$unreached" "$allowed")"
if [ -n "$new" ]; then
    echo "reachability.sh: unreached and not in" \
        "tools/reachability_allow.txt:" >&2
    echo "$new" >&2
    exit 1
fi
