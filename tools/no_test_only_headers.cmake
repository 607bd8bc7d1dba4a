# ctest guard against test-only modules: every header under src/ must be
# included by at least one file outside its own .h/.cc pair in src/,
# tools/, examples/, bench/ or tcmbench/. A header that only tests (or
# only its own .cc) include is public API that no real path runs; wire it
# into one or delete it. A scratch tree with one orphan header proves the
# check can fail.
#
# Invoked by tools/CMakeLists.txt with:
#   REPO_ROOT   the source tree to check
#   WORK_DIR    scratch directory for the negative case

if(NOT REPO_ROOT OR NOT WORK_DIR)
  message(FATAL_ERROR "REPO_ROOT and WORK_DIR must be defined")
endif()

# Sets `out_var` to the src-relative paths (e.g. "tclose/merge.h") of the
# headers under `root`/src that no file outside their own pair includes.
function(find_orphan_headers root out_var)
  file(GLOB_RECURSE headers RELATIVE "${root}/src" "${root}/src/*.h")
  set(sources)
  foreach(dir src tools examples bench tcmbench)
    file(GLOB_RECURSE found
      "${root}/${dir}/*.h" "${root}/${dir}/*.cc" "${root}/${dir}/*.cpp")
    list(APPEND sources ${found})
  endforeach()

  # One pass over every file: mark each included header as used unless
  # the includer is the header itself or its .cc twin.
  foreach(source IN LISTS sources)
    file(RELATIVE_PATH rel "${root}" "${source}")
    string(REGEX REPLACE "\\.[a-z]+$" "" source_stem "${rel}")
    file(STRINGS "${source}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE ".*include[ \t]*\"([^\"]+)\".*" "\\1"
        included "${line}")
      string(REGEX REPLACE "\\.h$" "" included_stem "src/${included}")
      if(NOT source_stem STREQUAL included_stem)
        string(MAKE_C_IDENTIFIER "${included}" key)
        set(used_${key} TRUE)
      endif()
    endforeach()
  endforeach()

  set(orphans)
  foreach(header IN LISTS headers)
    string(MAKE_C_IDENTIFIER "${header}" key)
    if(NOT used_${key})
      list(APPEND orphans "${header}")
    endif()
  endforeach()
  set(${out_var} "${orphans}" PARENT_SCOPE)
endfunction()

# --- 1. The committed tree has no test-only header. -----------------------
find_orphan_headers("${REPO_ROOT}" orphans)
if(orphans)
  string(REPLACE ";" "\n  " listed "${orphans}")
  message(FATAL_ERROR
    "headers under src/ that no file outside their own .h/.cc pair in "
    "src/, tools/, examples/, bench/ or tcmbench/ includes (wire them "
    "into a real path or delete them):\n  ${listed}")
endif()

# --- 2. Negative case: an orphan header in a scratch tree is flagged. -----
# `lib/orphan.h` is included only by its own .cc and by a test, so it is
# the one header the check must name; `lib/used.h` has a real caller.
set(TREE "${WORK_DIR}/orphan_tree")
file(REMOVE_RECURSE "${TREE}")
file(WRITE "${TREE}/src/lib/used.h" "int Used();\n")
file(WRITE "${TREE}/src/lib/used.cc"
  "#include \"lib/used.h\"\nint Used() { return 1; }\n")
file(WRITE "${TREE}/src/lib/orphan.h" "int Orphan();\n")
file(WRITE "${TREE}/src/lib/orphan.cc"
  "#include \"lib/orphan.h\"\nint Orphan() { return 2; }\n")
file(WRITE "${TREE}/tools/tool.cc"
  "#include \"lib/used.h\"\nint main() { return Used(); }\n")
file(WRITE "${TREE}/tests/orphan_test.cc"
  "#include \"lib/orphan.h\"\nint main() { return Orphan(); }\n")
find_orphan_headers("${TREE}" tree_orphans)
if(NOT tree_orphans STREQUAL "lib/orphan.h")
  message(FATAL_ERROR
    "negative case: expected exactly lib/orphan.h flagged, got "
    "\"${tree_orphans}\"")
endif()

message(STATUS "every src/ header has a caller outside tests; the "
  "scratch orphan header is flagged")
